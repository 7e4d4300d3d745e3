//! The served workloads — `encode`, `codebook` and `generate` — driven
//! through `ShardedServer`'s front door by a closed-loop load generator
//! on the main thread.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use nnlut_serve::{GenerateTicket, RequestTrace, ShardedServer, Stage, Ticket};
use nnlut_tensor::Matrix;
use nnlut_transformer::exec::SerialExecutor;
use nnlut_transformer::{BertModel, MatmulMode, Nonlinearity};

use crate::recipe::{self, Fixture, Traffic};
use crate::stats::{percentile, rel_l2, worse, RelErr, Report};
use crate::Checks;

/// How often the load generator polls its outstanding tickets.
const POLL: Duration = Duration::from_millis(1);
/// Requests (or prompts) whose outputs are compared against exact
/// non-linear ops to give `rel_err`: the first ones submitted.
const REL_ERR_REQUESTS: usize = 16;
/// Bound on the LUT model's relative error against exact non-linear ops
/// at FP32: about twice the 0.11 the uncalibrated 16-entry kit shows on
/// this two-layer body (mostly from the 1/√x table inside LayerNorm). A
/// corrupted table or a wrong kernel lands at order one.
const LUT_MODEL_REL_ERR_BOUND: f64 = 0.25;
/// Bound on a served response's distance from the single-sequence
/// `BertModel::encode` of the same request. Both are FP32 with the same
/// kernels, differing only in summation order inside GEMMs, so they agree
/// to rounding; a padding leak or a response given to the wrong request
/// moves the distance to order one.
const BATCH_INDEPENDENCE_TOL: f64 = 1e-4;

/// Counts of operations attempted and failed.
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

/// Sums the shard's fault counters; every one must stay zero on a clean
/// run, so a watchdog trip cannot pass as a slow run.
fn check_shard_counters(server: &ShardedServer, checks: &mut Checks) {
    let m = server.shard_metrics();
    let quarantines: u64 = server.status().iter().map(|s| s.quarantines).sum();
    eprintln!(
        "shard counters: requeues {} stalls {} quarantines {} cache_rebuilds {} retries_exhausted {}",
        m.failovers, m.stalls, quarantines, m.cache_rebuilds, m.retries_exhausted
    );
    checks.require(
        m.failovers + m.stalls + quarantines + m.cache_rebuilds + m.retries_exhausted == 0,
        "shard fault counters are non-zero on a fault-free run",
    );
}

struct PendingEncode {
    idx: usize,
    tokens: Vec<usize>,
    sent: Instant,
    ticket: Ticket,
}

/// A served encode response kept for the output checks.
struct Served {
    idx: usize,
    tokens: Vec<usize>,
    hidden: Matrix,
}

/// `encode` (F32) and `codebook` (Codebook): a closed loop of
/// [`recipe::OUTSTANDING`] encode requests through the front door.
pub fn encode(
    fixture: Fixture,
    mode: MatmulMode,
    seed: u64,
    seconds: f64,
    report: &mut Report,
    checks: &mut Checks,
) -> Ops {
    let model = fixture.model.expect("encode workloads build a model");
    let nl = Nonlinearity::all_lut(&fixture.kit);
    // The server owns its copy; this one serves the reference encodes.
    // Codebook tables are shared between the two, not copied.
    let reference = model.clone();
    let mut server =
        ShardedServer::with_backend(model, nl.clone(), recipe::shard_config(mode, false));
    let mut traffic = Traffic::encode(seed);

    let mut pending: Vec<PendingEncode> = Vec::with_capacity(recipe::OUTSTANDING);
    let mut served: Vec<Served> = Vec::new();
    let mut latencies = Vec::new();
    let mut valid_tokens = 0usize;
    let mut failed = 0u64;
    let mut submitted = 0usize;
    let start = Instant::now();
    let mut last_done = start;
    loop {
        let stopping = start.elapsed().as_secs_f64() >= seconds && submitted >= recipe::MIN_SAMPLES;
        if !stopping {
            while pending.len() < recipe::OUTSTANDING {
                let tokens = traffic.next_sequence();
                let sent = Instant::now();
                let ticket = server.submit(tokens.clone());
                pending.push(PendingEncode {
                    idx: submitted,
                    tokens,
                    sent,
                    ticket,
                });
                submitted += 1;
            }
        } else if pending.is_empty() {
            break;
        }
        let mut harvested = false;
        let mut i = 0;
        while i < pending.len() {
            if !pending[i].ticket.is_ready() {
                i += 1;
                continue;
            }
            let p = pending.swap_remove(i);
            let now = Instant::now();
            match p.ticket.wait() {
                Ok(resp) => {
                    latencies.push(now.duration_since(p.sent).as_secs_f64() * 1e3);
                    valid_tokens += p.tokens.len();
                    last_done = now;
                    served.push(Served {
                        idx: p.idx,
                        tokens: p.tokens,
                        hidden: resp.hidden,
                    });
                }
                Err(e) => {
                    eprintln!("request {} failed: {e}", p.idx);
                    failed += 1;
                }
            }
            harvested = true;
        }
        if !harvested {
            thread::sleep(POLL);
        }
    }
    let elapsed = last_done.duration_since(start).as_secs_f64();
    check_shard_counters(&server, checks);
    let metrics = server.metrics();
    eprintln!(
        "encode[{mode}]: {} requests, {valid_tokens} tokens in {elapsed:.3} s, {} batches, padding efficiency {:.3}",
        latencies.len(),
        metrics.batches_served(),
        metrics.padding_efficiency()
    );
    server.shutdown();

    check_encode_outputs(&reference, &nl, mode, &mut served, checks, report);
    if mode == MatmulMode::Codebook {
        crate::standalone::check_codebook(seed, checks);
    }
    let p50 = percentile(&mut latencies, 50.0);
    report.push("tokens_per_s", valid_tokens as f64 / elapsed, "tok/s");
    report.push("p50_ms", p50, "ms");
    report.push("p90_ms", percentile(&mut latencies, 90.0), "ms");
    // An encode response arrives whole: its first output is the response.
    report.push("ttft_ms", p50, "ms");
    checks.require(
        latencies.len() >= recipe::MIN_SAMPLES,
        "fewer latency samples than the minimum",
    );
    Ops {
        attempted: submitted as u64,
        failed,
    }
}

/// The encode output checks, run after the server has stopped:
///
/// * every response matches the single-sequence `BertModel::encode` of
///   the same request (batch independence, documented for F32 and the
///   row-local codebook engine with LUT non-linearities);
/// * the first [`REL_ERR_REQUESTS`] responses, against exact non-linear
///   ops and FP32 GEMM, give `rel_err` — bounded for the LUT model, and
///   reported but unbounded for the codebook model, whose error is the
///   engine's accuracy figure.
fn check_encode_outputs(
    model: &BertModel,
    nl: &Nonlinearity,
    mode: MatmulMode,
    served: &mut [Served],
    checks: &mut Checks,
    report: &mut Report,
) {
    served.sort_by_key(|s| s.idx);
    let exact = Nonlinearity::exact();
    let served = &*served;
    let (worst, err) = in_parallel(served.len(), |i| {
        let s = &served[i];
        let alone = model.encode(&s.tokens, nl, mode, None);
        let distance = if s.hidden.shape() == alone.shape() {
            rel_l2(s.hidden.as_slice(), alone.as_slice())
        } else {
            f64::INFINITY
        };
        let mut err = RelErr::default();
        if i < REL_ERR_REQUESTS {
            let reference = model.encode(&s.tokens, &exact, MatmulMode::F32, None);
            err.add_f32(s.hidden.as_slice(), reference.as_slice());
        }
        (distance, err)
    });
    eprintln!("encode[{mode}]: worst distance from single-sequence encode {worst:.3e}");
    checks.require(
        worst <= BATCH_INDEPENDENCE_TOL,
        "a served response differs from the single-sequence encode",
    );
    let rel_err = err.value();
    eprintln!("encode[{mode}]: rel_err vs exact ops {rel_err:.4e}");
    checks.require(rel_err.is_finite(), "served hidden states are not finite");
    if mode == MatmulMode::F32 {
        checks.require(
            rel_err <= LUT_MODEL_REL_ERR_BOUND,
            "LUT model error against exact ops exceeds its bound",
        );
    }
    report.push("rel_err", rel_err, "ratio");
}

/// Runs `job(0..n)` on [`recipe::THREADS`] scoped threads (item `i` on
/// thread `i % THREADS`, so the costlier first items are spread out) and
/// folds the results: the worst distance (NaN wins) and the pooled
/// relative error.
fn in_parallel<F>(n: usize, job: F) -> (f64, RelErr)
where
    F: Fn(usize) -> (f64, RelErr) + Sync,
{
    let job = &job;
    thread::scope(|scope| {
        let handles: Vec<_> = (0..recipe::THREADS)
            .map(|t| {
                scope.spawn(move || {
                    let mut worst = 0.0f64;
                    let mut err = RelErr::default();
                    for i in (t..n).step_by(recipe::THREADS) {
                        let (d, e) = job(i);
                        worst = worse(worst, d);
                        err.merge(&e);
                    }
                    (worst, err)
                })
            })
            .collect();
        let mut worst = 0.0f64;
        let mut err = RelErr::default();
        for h in handles {
            let (d, e) = h.join().expect("check thread panicked");
            worst = worse(worst, d);
            err.merge(&e);
        }
        (worst, err)
    })
}

struct Stream {
    idx: usize,
    prompt: Vec<usize>,
    ticket: GenerateTicket,
    trace: Arc<RequestTrace>,
}

/// A finished generation kept for the checks.
struct Generated {
    idx: usize,
    prompt: Vec<usize>,
    tokens: Vec<usize>,
}

/// The emission times of a generation's tokens, from its trace (offsets
/// from admission).
fn decoded_at(trace: &RequestTrace) -> Vec<Duration> {
    trace
        .events()
        .iter()
        .filter(|e| e.stage == Stage::Decoded)
        .map(|e| e.at)
        .collect()
}

/// `generate`: [`recipe::STREAMS`] closed-loop greedy generations of
/// [`recipe::MAX_NEW`] tokens each through `submit_generate`.
pub fn generate(
    fixture: Fixture,
    seed: u64,
    seconds: f64,
    report: &mut Report,
    checks: &mut Checks,
) -> Ops {
    let model = fixture.model.expect("generate builds a model");
    let nl = Nonlinearity::all_lut(&fixture.kit);
    let reference = model.clone();
    let mut server = ShardedServer::with_backend(
        model,
        nl.clone(),
        recipe::shard_config(MatmulMode::F32, false),
    );
    let mut traffic = Traffic::prompts(seed);
    let gaps_per_stream = recipe::MAX_NEW - 1;

    let mut streams: Vec<Stream> = Vec::with_capacity(recipe::STREAMS);
    let mut finished: Vec<Generated> = Vec::new();
    let mut gaps = Vec::new();
    let mut ttfts = Vec::new();
    let mut generated = 0usize;
    let mut failed = 0u64;
    let mut submitted = 0usize;
    let start = Instant::now();
    let mut last_done = start;
    loop {
        let stopping = start.elapsed().as_secs_f64() >= seconds
            && submitted * gaps_per_stream >= recipe::MIN_SAMPLES;
        if !stopping {
            while streams.len() < recipe::STREAMS {
                let prompt = traffic.next_sequence();
                let ticket = server.submit_generate(prompt.clone(), recipe::MAX_NEW, None);
                let trace = ticket.trace_handle();
                streams.push(Stream {
                    idx: submitted,
                    prompt,
                    ticket,
                    trace,
                });
                submitted += 1;
            }
        } else if streams.is_empty() {
            break;
        }
        let mut harvested = false;
        let mut i = 0;
        while i < streams.len() {
            if !streams[i].ticket.is_done() {
                i += 1;
                continue;
            }
            let s = streams.swap_remove(i);
            last_done = Instant::now();
            match s.ticket.wait() {
                Ok(resp) => {
                    let at = decoded_at(&s.trace);
                    if let Some(first) = at.first() {
                        ttfts.push(first.as_secs_f64() * 1e3);
                    }
                    gaps.extend(at.windows(2).map(|w| (w[1] - w[0]).as_secs_f64() * 1e3));
                    checks.require(
                        at.len() == resp.tokens.len(),
                        "the trace holds one decoded event per emitted token",
                    );
                    generated += resp.tokens.len();
                    finished.push(Generated {
                        idx: s.idx,
                        prompt: s.prompt,
                        tokens: resp.tokens,
                    });
                }
                Err(e) => {
                    eprintln!("generation failed: {e}");
                    failed += 1;
                }
            }
            harvested = true;
        }
        if !harvested {
            thread::sleep(POLL);
        }
    }
    let elapsed = last_done.duration_since(start).as_secs_f64();
    check_shard_counters(&server, checks);
    let metrics = server.metrics();
    eprintln!(
        "generate: {} generations, {generated} tokens in {elapsed:.3} s, mean decode width {:.2}",
        finished.len(),
        metrics.decode_batch_width()
    );
    server.shutdown();

    check_generations(&reference, &nl, &mut finished, checks, report);
    report.push("tokens_per_s", generated as f64 / elapsed, "tok/s");
    report.push("p50_ms", percentile(&mut gaps, 50.0), "ms");
    report.push("p90_ms", percentile(&mut gaps, 90.0), "ms");
    report.push("ttft_ms", percentile(&mut ttfts, 50.0), "ms");
    checks.require(
        gaps.len() >= recipe::MIN_SAMPLES,
        "fewer inter-token gaps than the minimum",
    );
    Ops {
        attempted: submitted as u64,
        failed,
    }
}

/// The generate output checks, after the server has stopped:
///
/// * every stream emitted exactly `MAX_NEW` tokens, all in the
///   vocabulary;
/// * every stream equals the serial `BertModel::generate` of its prompt
///   (continuous batching is documented to be bit-identical to it);
/// * `rel_err`: the prefill's last hidden row under the LUT backend
///   against exact non-linear ops, over the first prompts.
fn check_generations(
    model: &BertModel,
    nl: &Nonlinearity,
    finished: &mut [Generated],
    checks: &mut Checks,
    report: &mut Report,
) {
    finished.sort_by_key(|g| g.idx);
    let lengths_ok = finished
        .iter()
        .all(|g| g.tokens.len() == recipe::MAX_NEW && g.tokens.iter().all(|&t| t < recipe::VOCAB));
    checks.require(
        lengths_ok,
        "a stream emitted the wrong number of tokens or an id out of vocabulary",
    );
    let exact = Nonlinearity::exact();
    let finished = &*finished;
    let (mismatch, err) = in_parallel(finished.len(), |i| {
        let g = &finished[i];
        let serial = model.generate(&g.prompt, recipe::MAX_NEW, nl, MatmulMode::F32);
        let mut err = RelErr::default();
        if i < REL_ERR_REQUESTS {
            let mut cache = model.new_cache();
            let lut = model.prefill(&g.prompt, &mut cache, nl, MatmulMode::F32, &SerialExecutor);
            let mut cache = model.new_cache();
            let reference = model.prefill(
                &g.prompt,
                &mut cache,
                &exact,
                MatmulMode::F32,
                &SerialExecutor,
            );
            err.add_f32(&lut, &reference);
        }
        (if serial == g.tokens { 0.0 } else { 1.0 }, err)
    });
    checks.require(
        mismatch == 0.0,
        "a served stream differs from serial BertModel::generate",
    );
    let rel_err = err.value();
    eprintln!("generate: prefill rel_err vs exact ops {rel_err:.4e}");
    checks.require(
        rel_err <= LUT_MODEL_REL_ERR_BOUND,
        "LUT prefill error against exact ops exceeds its bound",
    );
    report.push("rel_err", rel_err, "ratio");
}
