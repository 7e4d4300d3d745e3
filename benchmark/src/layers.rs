//! The traced run (`--trace 1`): per-layer metrics, each timed by this
//! file around calls into one module's public functions.
//!
//! Every traced run measures the same set of metrics; the workload picks
//! the GEMM mode of the served pass and of the encode replay (Codebook
//! for `codebook`, F32 otherwise) and the operation whose tracing
//! overhead `trace.overhead_pct` reports. In order:
//!
//! 1. set-up, part by part;
//! 2. two short served passes with the flight recorder on — encode
//!    requests and generations — read back through `Ticket` breakdowns
//!    and `ServeMetrics`;
//! 3. an encode replay: the workload's first batch, packed by the public
//!    `Batcher`, through `encode_batch`, then each of its op sites on
//!    same-shaped inputs; `model.unattributed_ms` is the batch time the
//!    sites do not account for, so sites plus it sum to the batch;
//! 4. a decode replay: `prefill_batch`, `decode_batch` and
//!    `greedy_token` over the generate workload's prompts;
//! 5. GEMM, LUT-engine and codebook-engine kernels alone;
//! 6. the tracing overhead, as interleaved pairs of the workload's own
//!    operation with the op-profile sink (what switching tracing on
//!    attaches to the backend) off and on.

use std::sync::Arc;
use std::time::{Duration, Instant};

use nnlut_core::precision::Precision;
use nnlut_core::{NnLutKit, OpCounters};
use nnlut_serve::{Batcher, ServeMetrics, ShardedServer, Stage, ThreadPool};
use nnlut_tensor::Matrix;
use nnlut_transformer::exec::{run_row_chunks, BatchExecutor};
use nnlut_transformer::{BertModel, MatmulMode, Nonlinearity, PaddedBatch};

use crate::lut_ops::{self, Call, Pools};
use crate::recipe::{self, Needs, Rng, Traffic};
use crate::standalone::{self, Layer, SITES};
use crate::stats::{median, percentile, Report};
use crate::{Checks, Workload};

/// Repetitions of each kernel timing; the median is reported.
const REPS: usize = 5;
/// Interleaved off/on pairs behind `trace.overhead_pct`.
const OVERHEAD_PAIRS: usize = 6;
/// Rows per GEMM and codebook kernel timing.
const KERNEL_ROWS: usize = 256;
/// Elements per LUT-engine timing.
const ENGINE_ELEMS: usize = 1 << 18;
/// Grid points per LUT max-abs-error scan.
const GRID: usize = 100_001;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median wall time of `REPS` runs of `f`, in seconds.
fn time_median(mut f: impl FnMut()) -> f64 {
    let mut ts: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&mut ts)
}

/// Runs the traced run of `workload`; returns `(attempted, failed)`
/// served operations.
pub fn run(workload: Workload, seed: u64, report: &mut Report, checks: &mut Checks) -> (u64, u64) {
    let (fixture, times) = recipe::build(Needs::Codebooks);
    report.push("setup.kit_train_s", times.kit_train, "s");
    report.push("setup.model_build_s", times.model_build, "s");
    report.push("setup.codebook_bake_s", times.codebook_bake, "s");
    let model = fixture.model.expect("the traced run builds a model");
    let kit = fixture.kit;
    let nl = Nonlinearity::all_lut(&kit);
    let mode = workload.mode();

    let ops = served_passes(&model, &nl, mode, seed, report, checks);
    let pool = ThreadPool::new(recipe::THREADS);
    let batch = first_batch(seed);
    // One standalone layer per site shape, baked so it runs in both
    // modes; timings do not depend on the weight values.
    let site_layers: Vec<Layer> = SITES
        .iter()
        .enumerate()
        .map(|(i, site)| Layer::baked(*site, i as u64))
        .collect();
    encode_sites(&model, &site_layers, &nl, mode, &batch, &pool, report);
    decode_sites(&model, &nl, seed, &pool, report);
    gemm(report);
    engine(&kit, report);
    codebook_kernels(&model, &site_layers, report);
    let overhead = match workload {
        Workload::Encode | Workload::Codebook => {
            // The workload's first two requests: a batch small enough to
            // repeat, with every op site in it.
            let mut traffic = Traffic::encode(seed);
            let small = PaddedBatch::pack(&[traffic.next_sequence(), traffic.next_sequence()]);
            overhead_pct(&nl, |nl| {
                std::hint::black_box(model.encode_batch(&small, nl, mode, &pool));
            })
        }
        Workload::Generate => {
            let prompts = prompts(seed);
            let prefilled = model.prefill_batch(&prompts, &nl, MatmulMode::F32, &pool);
            overhead_pct(&nl, |nl| {
                let mut caches: Vec<_> = prefilled.iter().map(|(c, _)| c.clone()).collect();
                let mut steps: Vec<_> = caches.iter_mut().map(|c| (c, 0usize)).collect();
                std::hint::black_box(model.decode_batch(&mut steps, nl, MatmulMode::F32, &pool));
            })
        }
        Workload::LutOps => {
            let mut rng = Rng::traffic(seed, 3);
            let pools = Pools::new(&mut rng);
            let call = Call::draw_len(&pools, &mut rng, recipe::MAX_SEQ);
            overhead_pct(&nl, |nl| {
                let mut c = call.clone();
                nonlinear_layer_call(nl, &mut c, &pools);
                std::hint::black_box(&c);
            })
        }
    };
    report.push("trace.overhead_pct", overhead, "%");
    ops
}

/// The generate workload's first round of prompts.
fn prompts(seed: u64) -> Vec<Vec<usize>> {
    let mut traffic = Traffic::prompts(seed);
    (0..recipe::STREAMS)
        .map(|_| traffic.next_sequence())
        .collect()
}

/// The encode workload's first batch, packed by the public `Batcher`
/// under the served batch policy.
fn first_batch(seed: u64) -> PaddedBatch {
    let mut traffic = Traffic::encode(seed);
    let mut batcher = Batcher::new(recipe::batch_policy());
    for id in 0..recipe::OUTSTANDING {
        batcher.push(id as u64, traffic.next_sequence());
    }
    batcher
        .next_closed_batch()
        .expect("the batcher holds requests")
        .batch
}

/// The two served passes with the flight recorder on: one closed round
/// of [`recipe::OUTSTANDING`] encode requests, then one of
/// [`recipe::STREAMS`] generations.
fn served_passes(
    model: &BertModel,
    nl: &Nonlinearity,
    mode: MatmulMode,
    seed: u64,
    report: &mut Report,
    checks: &mut Checks,
) -> (u64, u64) {
    let mut server =
        ShardedServer::with_backend(model.clone(), nl.clone(), recipe::shard_config(mode, true));
    checks.require(
        server.recorder().is_some(),
        "the traced server runs a flight recorder",
    );
    let mut failed = 0u64;
    let mut traffic = Traffic::encode(seed);
    let tickets: Vec<_> = (0..recipe::OUTSTANDING)
        .map(|_| server.submit(traffic.next_sequence()))
        .collect();
    let mut overhead = Vec::new();
    for ticket in tickets {
        let trace = ticket.trace_handle();
        match ticket.wait() {
            Ok(_) => {
                let b = trace.breakdown();
                overhead.push(ms(b.total() - b.stage(Stage::Encoded)));
            }
            Err(e) => {
                eprintln!("traced encode failed: {e}");
                failed += 1;
            }
        }
    }
    let encode_metrics = server.metrics();

    let gens: Vec<_> = prompts(seed)
        .into_iter()
        .map(|p| server.submit_generate(p, recipe::MAX_NEW, None))
        .collect();
    let mut decode_waits = Vec::new();
    for ticket in gens {
        let trace = ticket.trace_handle();
        if let Err(e) = ticket.wait() {
            eprintln!("traced generation failed: {e}");
            failed += 1;
            continue;
        }
        // A decode step waits from its previous token's emission to its
        // batch's dispatch.
        let mut last_decoded = None;
        for ev in trace.events() {
            match ev.stage {
                Stage::Decoded => last_decoded = Some(ev.at),
                Stage::Dispatched => {
                    if let Some(at) = last_decoded.take() {
                        decode_waits.push(ms(ev.at - at));
                    }
                }
                _ => {}
            }
        }
    }
    let shard = server.shard_metrics();
    checks.require(
        shard.failovers + shard.stalls + shard.cache_rebuilds + shard.retries_exhausted == 0,
        "shard fault counters are non-zero on a fault-free run",
    );
    // Both passes: the decode figures and the stage medians.
    let all = server.metrics();
    server.shutdown();

    let pct = |m: &ServeMetrics, p: f64| m.queue_wait_percentile(p).map_or(f64::NAN, ms);
    report.push("serve.queue_wait_p50_ms", pct(&encode_metrics, 50.0), "ms");
    report.push("serve.queue_wait_p90_ms", pct(&encode_metrics, 90.0), "ms");
    report.push("serve.overhead_ms", percentile(&mut overhead, 50.0), "ms");
    report.push(
        "serve.padding_eff",
        encode_metrics.padding_efficiency(),
        "ratio",
    );
    report.push(
        "serve.batch_tokens",
        encode_metrics.total_tokens() as f64 / encode_metrics.batches_served() as f64,
        "tok",
    );
    report.push("serve.decode_width", all.decode_batch_width(), "steps");
    report.push(
        "serve.decode_wait_ms",
        percentile(&mut decode_waits, 50.0),
        "ms",
    );
    for stage in [
        Stage::Queued,
        Stage::Assembled,
        Stage::Dispatched,
        Stage::Encoded,
        Stage::Reordered,
        Stage::Resolved,
        Stage::Decoded,
    ] {
        let value = all.stage_percentile(stage, 50.0).map_or(f64::NAN, ms);
        report.push(format!("serve.stage.{}_ms", stage.as_str()), value, "ms");
    }
    ((recipe::OUTSTANDING + recipe::STREAMS) as u64, failed)
}

/// Row-parallel `f` over `pairs` items on `pool`, the way the model runs
/// its per-(sequence, head) attention work.
fn over_pairs(pool: &ThreadPool, pairs: usize, f: &(dyn Fn(usize) + Sync)) {
    let ranges = nnlut_core::engine::chunk_ranges(pairs, pool.lanes());
    pool.run_n(ranges.len(), &|lane| {
        if let Some(range) = ranges.get(lane) {
            for p in range.clone() {
                f(p);
            }
        }
    });
}

/// `encode_batch` on `batch`, then each of its op sites on same-shaped
/// inputs, layer by layer.
fn encode_sites(
    model: &BertModel,
    site_layers: &[Layer],
    nl: &Nonlinearity,
    mode: MatmulMode,
    batch: &PaddedBatch,
    pool: &ThreadPool,
    report: &mut Report,
) {
    let (b, l) = (batch.sequences(), batch.max_len());
    let rows = b * l;
    let (d, heads) = (recipe::HIDDEN, recipe::HEADS);
    let dh = d / heads;
    // The batch is timed before and after the sites and the two averaged,
    // so a drift in machine speed while the sites run does not land in
    // `model.unattributed_ms`.
    let time_batch = || {
        let t = Instant::now();
        std::hint::black_box(model.encode_batch(batch, nl, mode, pool));
        ms(t.elapsed())
    };
    let before_ms = time_batch();

    let mut rng = Rng::new(0x51_7E5);
    let x = standalone::rows(&mut rng, rows, d);
    let hmid = standalone::rows(&mut rng, rows, recipe::FFN);
    let valid: Vec<Vec<usize>> = batch
        .lens()
        .iter()
        .map(|&len| (0..l).map(|r| if r < len { len } else { 0 }).collect())
        .collect();
    let q = standalone::rows(&mut rng, rows, d);
    let block = |m: &Matrix, s: usize, h: usize| {
        let mut out = Matrix::zeros(l, dh);
        for r in 0..l {
            out.row_mut(r)
                .copy_from_slice(&m.row(s * l + r)[h * dh..(h + 1) * dh]);
        }
        out
    };
    let pairs = b * heads;
    let blocks: Vec<Matrix> = (0..pairs)
        .map(|p| block(&q, p / heads, p % heads))
        .collect();
    let gamma = vec![1.0f32; d];
    let beta = vec![0.0f32; d];

    let mut sites_ms = 0.0;
    let mut linear = [[0.0f64; 4]; 2];
    let mut attn = [0.0f64; 2];
    let mut backend = [0.0f64; 3];
    for _ in 0..recipe::LAYERS {
        for (i, site) in SITES.iter().enumerate() {
            let input = if site.in_dim == d { &x } else { &hmid };
            for (j, m) in [MatmulMode::F32, MatmulMode::Codebook]
                .into_iter()
                .enumerate()
            {
                let t = Instant::now();
                for _ in 0..site.per_layer {
                    std::hint::black_box(site_layers[i].linear.apply_exec(input, m, pool));
                }
                let took = ms(t.elapsed());
                linear[j][i] += took;
                if m == mode {
                    sites_ms += took;
                }
            }
        }
        let scores: Vec<std::sync::Mutex<Matrix>> = (0..pairs)
            .map(|_| std::sync::Mutex::new(Matrix::zeros(0, 0)))
            .collect();
        let t = Instant::now();
        over_pairs(pool, pairs, &|p| {
            let mut s = blocks[p].matmul_transpose(&blocks[p]);
            s.scale(1.0 / (dh as f32).sqrt());
            *scores[p].lock().expect("score slot") = s;
        });
        attn[0] += ms(t.elapsed());
        let t = Instant::now();
        over_pairs(pool, pairs, &|p| {
            let mut s = scores[p].lock().expect("score slot");
            nl.apply_softmax_rows_masked(&mut s, &valid[p / heads]);
        });
        backend[0] += ms(t.elapsed());
        let t = Instant::now();
        over_pairs(pool, pairs, &|p| {
            let s = scores[p].lock().expect("score slot");
            std::hint::black_box(s.matmul(&blocks[p]));
        });
        attn[1] += ms(t.elapsed());
        let mut h = hmid.clone();
        let t = Instant::now();
        let kernel = nl.gelu_kernel(&h);
        run_row_chunks(pool, h.as_mut_slice(), rows, recipe::FFN, &|_, chunk| {
            kernel.apply_chunk(chunk)
        });
        backend[1] += ms(t.elapsed());
        let mut n = x.clone();
        let t = Instant::now();
        for _ in 0..2 {
            run_row_chunks(pool, n.as_mut_slice(), rows, d, &|_, chunk| {
                nl.layer_norm_chunk(chunk, d, &gamma, &beta, recipe::LN_EPS)
            });
        }
        backend[2] += ms(t.elapsed());
    }
    sites_ms += attn.iter().sum::<f64>() + backend.iter().sum::<f64>();
    let batch_ms = (before_ms + time_batch()) / 2.0;
    let unattributed = batch_ms - sites_ms;
    eprintln!(
        "encode replay [{mode}]: {b} × {l} batch ({} tokens) {batch_ms:.1} ms; sites {sites_ms:.1} ms; unattributed {unattributed:.1} ms",
        batch.tokens()
    );
    report.push("model.encode_batch_ms", batch_ms, "ms");
    report.push(
        "model.encode_ms_per_ktok",
        batch_ms / batch.tokens() as f64 * 1e3,
        "ms/ktok",
    );
    for (i, site) in SITES.iter().enumerate() {
        report.push(format!("linear.{}_ms", site.name), linear[0][i], "ms");
    }
    for (i, site) in SITES.iter().enumerate() {
        report.push(
            format!("linear.codebook.{}_ms", site.name),
            linear[1][i],
            "ms",
        );
    }
    report.push("attn.scores_ms", attn[0], "ms");
    report.push("attn.context_ms", attn[1], "ms");
    report.push("backend.softmax_ms", backend[0], "ms");
    report.push("backend.gelu_ms", backend[1], "ms");
    report.push("backend.layernorm_ms", backend[2], "ms");
    report.push("model.unattributed_ms", unattributed, "ms");
}

/// Prefill, decode steps and the LM head over the generate workload's
/// first round of prompts.
fn decode_sites(
    model: &BertModel,
    nl: &Nonlinearity,
    seed: u64,
    pool: &ThreadPool,
    report: &mut Report,
) {
    let prompts = prompts(seed);
    let t = Instant::now();
    let prefilled = model.prefill_batch(&prompts, nl, MatmulMode::F32, pool);
    let prefill_ms = ms(t.elapsed());
    let mut caches = Vec::new();
    let mut next = Vec::new();
    let mut head = Vec::new();
    for (cache, hidden) in prefilled {
        let t = Instant::now();
        next.push(model.greedy_token(&hidden));
        head.push(ms(t.elapsed()));
        caches.push(cache);
    }
    let mut steps_ms = Vec::new();
    let mut head_total = 0.0;
    for _ in 1..recipe::MAX_NEW {
        let mut steps: Vec<_> = caches.iter_mut().zip(&next).map(|(c, &t)| (c, t)).collect();
        let t = Instant::now();
        let hidden = model.decode_batch(&mut steps, nl, MatmulMode::F32, pool);
        steps_ms.push(ms(t.elapsed()));
        for (tok, h) in next.iter_mut().zip(&hidden) {
            let t = Instant::now();
            *tok = model.greedy_token(h);
            let took = ms(t.elapsed());
            head.push(took);
            head_total += took;
        }
    }
    let step_total: f64 = steps_ms.iter().sum();
    report.push("decode.prefill_ms", prefill_ms, "ms");
    report.push("decode.step_ms", median(&mut steps_ms), "ms");
    report.push("decode.lm_head_ms", median(&mut head), "ms");
    report.push(
        "decode.lm_head_share",
        head_total / (head_total + step_total),
        "ratio",
    );
}

/// `Matrix::matmul` throughput at the three linear shapes.
fn gemm(report: &mut Report) {
    let mut rng = Rng::new(0x6E_A4);
    for (k, n) in [(768, 768), (768, 3072), (3072, 768)] {
        let a = standalone::rows(&mut rng, KERNEL_ROWS, k);
        let b = standalone::rows(&mut rng, k, n);
        let secs = time_median(|| {
            std::hint::black_box(a.matmul(&b));
        });
        let gflops = 2.0 * (KERNEL_ROWS * k * n) as f64 / secs / 1e9;
        report.push(format!("matrix.gemm_gflops_{k}x{n}"), gflops, "GFLOP/s");
    }
}

/// LUT engine speed per element at each precision, and each table's
/// largest error over its domain.
fn engine(kit: &NnLutKit, report: &mut Report) {
    let mut rng = Rng::new(0xE4_61AE);
    let gelu_in: Vec<f32> = (0..ENGINE_ELEMS)
        .map(|_| (1.5 * rng.normal()) as f32)
        .collect();
    let softmax_in: Vec<f32> = (0..ENGINE_ELEMS)
        .map(|_| (2.0 * rng.normal()) as f32)
        .collect();
    let ln_in: Vec<f32> = (0..ENGINE_ELEMS)
        .map(|_| (3.0 * rng.normal()) as f32)
        .collect();
    let gamma = vec![1.0f32; recipe::HIDDEN];
    let beta = vec![0.0f32; recipe::HIDDEN];
    for (label, precision) in [
        ("", Precision::F32),
        ("f16_", Precision::F16),
        ("int32_", Precision::Int32),
    ] {
        let k = kit
            .with_precision(precision)
            .expect("the paper kit converts to every precision");
        let per_elem = |secs: f64| secs / ENGINE_ELEMS as f64 * 1e9;
        let mut buf = gelu_in.clone();
        let gelu = time_median(|| {
            buf.copy_from_slice(&gelu_in);
            k.gelu_slice(std::hint::black_box(&mut buf));
        });
        let mut buf = softmax_in.clone();
        let softmax = time_median(|| {
            buf.copy_from_slice(&softmax_in);
            for row in std::hint::black_box(&mut buf).chunks_exact_mut(recipe::MAX_SEQ) {
                k.softmax_fused(row);
            }
        });
        let mut buf = ln_in.clone();
        let layernorm = time_median(|| {
            buf.copy_from_slice(&ln_in);
            for row in std::hint::black_box(&mut buf).chunks_exact_mut(recipe::HIDDEN) {
                k.layer_norm_fused_affine(row, recipe::LN_EPS, &gamma, &beta);
            }
        });
        report.push(
            format!("engine.gelu_{label}ns_per_elem"),
            per_elem(gelu),
            "ns",
        );
        report.push(
            format!("engine.softmax_{label}ns_per_elem"),
            per_elem(softmax),
            "ns",
        );
        report.push(
            format!("engine.layernorm_{label}ns_per_elem"),
            per_elem(layernorm),
            "ns",
        );
    }
    let grid =
        |lo: f64, hi: f64| (0..GRID).map(move |i| lo + (hi - lo) * i as f64 / (GRID - 1) as f64);
    let scan = |lo: f64, hi: f64, f: &dyn Fn(f32) -> f32, reference: &dyn Fn(f64) -> f64| {
        let xs: Vec<f64> = grid(lo, hi).collect();
        let approx: Vec<f32> = xs.iter().map(|&x| f(x as f32)).collect();
        let exact: Vec<f64> = xs.iter().map(|&x| reference(x as f32 as f64)).collect();
        lut_ops::max_abs(&approx, &exact)
    };
    report.push(
        "engine.gelu_max_abs_err",
        scan(-5.0, 5.0, &|x| kit.gelu(x), &lut_ops::gelu),
        "abs",
    );
    report.push(
        "engine.exp_max_abs_err",
        scan(-256.0, 0.0, &|x| kit.exp(x), &f64::exp),
        "abs",
    );
    report.push(
        "engine.recip_max_abs_err",
        scan(1.0, 1024.0, &|x| kit.recip(x), &|x| 1.0 / x),
        "abs",
    );
    report.push(
        "engine.inv_sqrt_max_abs_err",
        scan(0.1, 1024.0, &|x| kit.inv_sqrt(x), &|x| 1.0 / x.sqrt()),
        "abs",
    );
}

/// Codebook engine speed per row at each shape, nearest-centroid
/// assignment per 768-wide row, and the model's table footprint.
fn codebook_kernels(model: &BertModel, site_layers: &[Layer], report: &mut Report) {
    let mut rng = Rng::new(0x00C0_DE0B);
    for (site, layer) in SITES.iter().zip(site_layers).skip(1) {
        let cb = layer.linear.codebook().expect("the layer was just baked");
        let x = standalone::rows(&mut rng, KERNEL_ROWS, site.in_dim);
        let mut out = vec![0.0f32; KERNEL_ROWS * site.out_dim];
        let secs = time_median(|| {
            cb.apply_rows(x.as_slice(), KERNEL_ROWS, std::hint::black_box(&mut out))
        });
        report.push(
            format!("codebook.apply_ns_per_row_{}x{}", site.in_dim, site.out_dim),
            secs / KERNEL_ROWS as f64 * 1e9,
            "ns",
        );
        if site.in_dim == recipe::HIDDEN && site.out_dim == recipe::HIDDEN {
            let mut codes = vec![0usize; cb.groups()];
            let secs = time_median(|| {
                for r in 0..KERNEL_ROWS {
                    cb.assign_row(x.row(r), std::hint::black_box(&mut codes));
                }
            });
            report.push(
                "codebook.assign_ns_per_row",
                secs / KERNEL_ROWS as f64 * 1e9,
                "ns",
            );
        }
    }
    report.push(
        "codebook.table_mib",
        model.codebook_table_bytes() as f64 / (1024.0 * 1024.0),
        "MiB",
    );
}

/// One layer's LUT non-linear work through the backend's chunk kernels
/// (the profiled entry points), on the lut_ops call shapes.
fn nonlinear_layer_call(nl: &Nonlinearity, call: &mut Call, pools: &Pools) {
    let m = Matrix::zeros(0, 0);
    nl.gelu_kernel(&m).apply_chunk(&mut call.gelu);
    let valid = vec![call.len; call.scores.len() / call.len];
    nl.softmax_chunk_masked(&mut call.scores, call.len, &valid);
    nl.layer_norm_chunk(
        &mut call.ln,
        recipe::HIDDEN,
        &pools.gamma,
        &pools.beta,
        recipe::LN_EPS,
    );
}

/// Median over interleaved pairs of `op` with the backend as given and
/// with an op-profile sink attached, as a percentage slowdown.
fn overhead_pct(nl: &Nonlinearity, op: impl Fn(&Nonlinearity)) -> f64 {
    let traced = nl.clone().with_profile(Arc::new(OpCounters::new()));
    op(nl);
    let mut ratios: Vec<f64> = (0..OVERHEAD_PAIRS)
        .map(|i| {
            let time = |n: &Nonlinearity| {
                let t = Instant::now();
                op(n);
                t.elapsed().as_secs_f64()
            };
            let (off, on) = if i % 2 == 0 {
                let off = time(nl);
                (off, time(&traced))
            } else {
                let on = time(&traced);
                (time(nl), on)
            };
            (on / off - 1.0) * 100.0
        })
        .collect();
    median(&mut ratios)
}
