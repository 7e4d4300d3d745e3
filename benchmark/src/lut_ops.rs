//! The `lut_ops` workload: direct `NnLutKit` FP32 calls at RoBERTa-base
//! layer shapes, checked against f64 references computed here.
//!
//! One operation is one layer's non-linear work for one sequence of `L`
//! tokens (`L` seeded in 16..=128): GELU over `L × 3072` FFN values,
//! softmax over `12 × L` attention rows of width `L`, and LayerNorm (with
//! its affine) over `2 × L` rows of 768. Its token count is `L`.

use std::time::Instant;

use nnlut_core::NnLutKit;

use crate::recipe::{self, Rng};
use crate::stats::{percentile, worse, RelErr, Report};
use crate::Checks;

/// Every `CHECK_EVERY`-th call is compared against the f64 references
/// (outside its timed span).
const CHECK_EVERY: usize = 32;
// Error bounds of the 16-entry FP32 kit: about twice the largest errors
// it shows on these inputs (GELU 0.083 at the tails past its ±5 domain,
// softmax 0.055 and row sums off by 0.058 from the 1/x table, LayerNorm
// 0.13 from the 1/√x table), and far below the order-one errors of a
// wrong segment or a corrupted table.
/// Largest GELU error.
const GELU_MAX_ABS_ERR: f64 = 0.15;
/// Largest softmax element error (probabilities lie in [0, 1]).
const SOFTMAX_MAX_ABS_ERR: f64 = 0.1;
/// Largest deviation of a softmax row's sum from 1.
const SOFTMAX_SUM_TOL: f64 = 0.1;
/// Largest LayerNorm output error (outputs are of order the gain, ~1).
const LAYERNORM_MAX_ABS_ERR: f64 = 0.25;
/// Largest pooled relative L2 error of each op (observed: GELU 0.019,
/// softmax 0.026, LayerNorm 0.007).
const OP_REL_ERR: f64 = 0.05;
/// Seed of the LayerNorm affine parameters (fixed, not traffic).
const AFFINE_SEED: u64 = 0xAFF1_4E00;

/// Seeded input pools every call copies its inputs from, so input making
/// stays out of the timed spans.
pub struct Pools {
    gelu: Vec<f32>,
    scores: Vec<f32>,
    ln_rows: Vec<f32>,
    pub gamma: Vec<f32>,
    pub beta: Vec<f32>,
}

impl Pools {
    /// FFN pre-activations ~ N(0, 1.5²); attention logits ~ N(0, 2²);
    /// LayerNorm rows with means ~ N(0, 0.5²) and standard deviations
    /// log-uniform over [0.05, 20], the spread that makes LayerNorm the
    /// approximation-sensitive op.
    pub fn new(rng: &mut Rng) -> Self {
        let h = recipe::HIDDEN;
        let gelu = (0..4 * recipe::MAX_SEQ * recipe::FFN)
            .map(|_| (1.5 * rng.normal()) as f32)
            .collect();
        let scores = (0..4 * recipe::HEADS * recipe::MAX_SEQ * recipe::MAX_SEQ)
            .map(|_| (2.0 * rng.normal()) as f32)
            .collect();
        let mut ln_rows = Vec::with_capacity(512 * h);
        for _ in 0..512 {
            let mean = 0.5 * rng.normal();
            let sd = 0.05 * (20.0f64 / 0.05).powf(rng.unit());
            ln_rows.extend((0..h).map(|_| (mean + sd * rng.normal()) as f32));
        }
        let mut affine = Rng::new(AFFINE_SEED);
        let gamma = (0..h).map(|_| (0.9 + 0.2 * affine.unit()) as f32).collect();
        let beta = (0..h)
            .map(|_| (0.05 * (affine.unit() - 0.5)) as f32)
            .collect();
        Self {
            gelu,
            scores,
            ln_rows,
            gamma,
            beta,
        }
    }
}

/// The inputs (then outputs) of one call.
#[derive(Clone)]
pub struct Call {
    pub len: usize,
    pub gelu: Vec<f32>,
    pub scores: Vec<f32>,
    pub ln: Vec<f32>,
}

impl Call {
    /// Draws a call of seeded length from the pools.
    pub fn draw(pools: &Pools, rng: &mut Rng) -> Self {
        let len = rng.range(recipe::ENCODE_MIN_LEN, recipe::ENCODE_MAX_LEN);
        Self::draw_len(pools, rng, len)
    }

    /// Draws a call of `len` tokens from the pools.
    pub fn draw_len(pools: &Pools, rng: &mut Rng, len: usize) -> Self {
        let h = recipe::HIDDEN;
        let slice = |pool: &[f32], n: usize, rng: &mut Rng| {
            let at = rng.below(pool.len() - n + 1);
            pool[at..at + n].to_vec()
        };
        let gelu = slice(&pools.gelu, len * recipe::FFN, rng);
        let scores = slice(&pools.scores, recipe::HEADS * len * len, rng);
        let rows = pools.ln_rows.len() / h;
        let mut ln = Vec::with_capacity(2 * len * h);
        for _ in 0..2 * len {
            let r = rng.below(rows);
            ln.extend_from_slice(&pools.ln_rows[r * h..(r + 1) * h]);
        }
        Self {
            len,
            gelu,
            scores,
            ln,
        }
    }
}

/// The timed kernel calls of one operation: the three kit kernels the
/// model's LUT backend runs (`gelu_slice`, `softmax_fused`,
/// `layer_norm_fused_affine`).
pub fn run(kit: &NnLutKit, call: &mut Call, pools: &Pools) {
    kit.gelu_slice(&mut call.gelu);
    for row in call.scores.chunks_exact_mut(call.len) {
        kit.softmax_fused(row);
    }
    for row in call.ln.chunks_exact_mut(recipe::HIDDEN) {
        kit.layer_norm_fused_affine(row, recipe::LN_EPS, &pools.gamma, &pools.beta);
    }
}

/// erf in f64: its Maclaurin series below |x| = 4 (cancellation costs
/// about five of the sixteen digits there) and the first terms of the
/// asymptotic erfc series above, where erfc < 2e-8.
pub fn erf(x: f64) -> f64 {
    let ax = x.abs();
    let v = if ax < 4.0 {
        let mut term = ax;
        let mut sum = ax;
        // At |x| < 4 the terms fall below 1e-17 of the sum within about
        // 80 steps; the cap also ends the loop at x = 0, where every term
        // is zero.
        for n in 1..=120 {
            let n = n as f64;
            term *= -ax * ax / n;
            let add = term / (2.0 * n + 1.0);
            sum += add;
            if add.abs() <= 1e-17 * sum.abs() {
                break;
            }
        }
        sum * 2.0 / std::f64::consts::PI.sqrt()
    } else {
        let x2 = ax * ax;
        let series = 1.0 - 1.0 / (2.0 * x2) + 3.0 / (4.0 * x2 * x2);
        1.0 - (-x2).exp() / (ax * std::f64::consts::PI.sqrt()) * series
    };
    v.copysign(x)
}

/// GELU with the exact erf form.
pub fn gelu(x: f64) -> f64 {
    0.5 * x * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// f64 softmax of one row.
pub fn softmax(row: &[f32]) -> Vec<f64> {
    let max = row
        .iter()
        .map(|&v| v as f64)
        .fold(f64::NEG_INFINITY, f64::max);
    let e: Vec<f64> = row.iter().map(|&v| (v as f64 - max).exp()).collect();
    let sum: f64 = e.iter().sum();
    e.into_iter().map(|v| v / sum).collect()
}

/// f64 LayerNorm (population variance) followed by the affine.
pub fn layer_norm(row: &[f32], eps: f64, gamma: &[f32], beta: &[f32]) -> Vec<f64> {
    let n = row.len() as f64;
    let mean = row.iter().map(|&v| v as f64).sum::<f64>() / n;
    let var = row.iter().map(|&v| (v as f64 - mean).powi(2)).sum::<f64>() / n;
    let inv = 1.0 / (var + eps).sqrt();
    row.iter()
        .zip(gamma.iter().zip(beta))
        .map(|(&v, (&g, &b))| (v as f64 - mean) * inv * g as f64 + b as f64)
        .collect()
}

/// Error accumulators over the checked calls.
#[derive(Default)]
struct Errors {
    gelu: RelErr,
    softmax: RelErr,
    layernorm: RelErr,
    gelu_max: f64,
    softmax_max: f64,
    sum_max: f64,
    layernorm_max: f64,
}

impl Errors {
    fn add(&mut self, input: &Call, output: &Call, pools: &Pools) {
        let reference: Vec<f64> = input.gelu.iter().map(|&x| gelu(x as f64)).collect();
        self.gelu.add(&output.gelu, &reference);
        self.gelu_max = worse(self.gelu_max, max_abs(&output.gelu, &reference));
        for (inp, out) in input
            .scores
            .chunks_exact(input.len)
            .zip(output.scores.chunks_exact(input.len))
        {
            let reference = softmax(inp);
            self.softmax.add(out, &reference);
            self.softmax_max = worse(self.softmax_max, max_abs(out, &reference));
            let sum: f64 = out.iter().map(|&v| v as f64).sum();
            self.sum_max = worse(self.sum_max, (sum - 1.0).abs());
        }
        for (inp, out) in input
            .ln
            .chunks_exact(recipe::HIDDEN)
            .zip(output.ln.chunks_exact(recipe::HIDDEN))
        {
            let reference = layer_norm(inp, recipe::LN_EPS as f64, &pools.gamma, &pools.beta);
            self.layernorm.add(out, &reference);
            self.layernorm_max = worse(self.layernorm_max, max_abs(out, &reference));
        }
    }
}

/// Largest absolute error of `approx` against `reference`.
pub fn max_abs(approx: &[f32], reference: &[f64]) -> f64 {
    approx
        .iter()
        .zip(reference)
        .fold(0.0, |m, (&a, &r)| worse(m, (a as f64 - r).abs()))
}

/// Runs `lut_ops` for `seconds` and reports its end-to-end metrics;
/// returns the calls attempted.
pub fn workload(
    kit: &NnLutKit,
    seed: u64,
    seconds: f64,
    report: &mut Report,
    checks: &mut Checks,
) -> u64 {
    let mut rng = Rng::traffic(seed, 3);
    let pools = Pools::new(&mut rng);
    let mut errors = Errors::default();
    let mut latencies = Vec::new();
    let mut busy = 0.0f64;
    let mut tokens = 0usize;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || latencies.len() < recipe::MIN_SAMPLES {
        let mut call = Call::draw(&pools, &mut rng);
        let input = (latencies.len() % CHECK_EVERY == 0).then(|| call.clone());
        let t = Instant::now();
        run(kit, std::hint::black_box(&mut call), &pools);
        let dt = t.elapsed().as_secs_f64();
        std::hint::black_box(&call);
        latencies.push(dt * 1e3);
        busy += dt;
        tokens += call.len;
        if let Some(input) = input {
            errors.add(&input, &call, &pools);
        }
    }
    eprintln!(
        "lut_ops: {} calls, {tokens} token rows, {busy:.3} s busy; max abs err gelu {:.3e} softmax {:.3e} (row sum {:.3e}) layernorm {:.3e}; rel err gelu {:.3e} softmax {:.3e} layernorm {:.3e}",
        latencies.len(),
        errors.gelu_max,
        errors.softmax_max,
        errors.sum_max,
        errors.layernorm_max,
        errors.gelu.value(),
        errors.softmax.value(),
        errors.layernorm.value()
    );
    checks.require(
        errors.gelu_max <= GELU_MAX_ABS_ERR,
        "GELU error exceeds its bound",
    );
    checks.require(
        errors.softmax_max <= SOFTMAX_MAX_ABS_ERR,
        "softmax error exceeds its bound",
    );
    checks.require(
        errors.sum_max <= SOFTMAX_SUM_TOL,
        "a softmax row does not sum to 1",
    );
    checks.require(
        errors.layernorm_max <= LAYERNORM_MAX_ABS_ERR,
        "LayerNorm error exceeds its bound",
    );
    for (op, e) in [
        ("GELU", &errors.gelu),
        ("softmax", &errors.softmax),
        ("LayerNorm", &errors.layernorm),
    ] {
        checks.require(
            e.value() <= OP_REL_ERR,
            &format!("{op} relative error exceeds its bound"),
        );
    }
    let rel_err = (errors.gelu.value() + errors.softmax.value() + errors.layernorm.value()) / 3.0;
    let p50 = percentile(&mut latencies, 50.0);
    report.push("tokens_per_s", tokens as f64 / busy, "tok/s");
    report.push("p50_ms", p50, "ms");
    report.push("p90_ms", percentile(&mut latencies, 90.0), "ms");
    // A call returns all its outputs at once: its first output is the call.
    report.push("ttft_ms", p50, "ms");
    report.push("rel_err", rel_err, "ratio");
    latencies.len() as u64
}
