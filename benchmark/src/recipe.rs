//! The benchmark's fixed recipe: model shapes, seeds, kit training,
//! codebook calibration, server settings and the seeded traffic of each
//! workload.
//!
//! Every value is pinned here rather than taken from the repository's
//! presets (`TransformerConfig::roberta_base`, `TrainConfig::paper`,
//! `ShardConfig::default`, the `nnlut_bench` constants), so a change to
//! those cannot move the benchmark's inputs or settings.

use std::time::{Duration, Instant};

use nnlut_core::codebook::CodebookSpec;
use nnlut_core::train::{Loss, TrainConfig};
use nnlut_core::NnLutKit;
use nnlut_serve::{
    AsyncServerConfig, BatchPolicy, ClosePolicy, ServePolicy, ShardConfig, TraceConfig,
};
use nnlut_transformer::config::{Activation, NormKind};
use nnlut_transformer::{BertModel, MatmulMode, Nonlinearity, TransformerConfig};

/// Seed of the synthetic model body.
pub const MODEL_SEED: u64 = 0x5EED_0001;
/// Seed of the NN-LUT kit training (the repository's paper-kit seed).
pub const KIT_SEED: u64 = 20_220_712;
/// LUT entries per table (the paper's 16-entry kit).
pub const KIT_ENTRIES: usize = 16;
/// Seed of the codebook calibration sequences. Disjoint from every
/// `--seed` stream: traffic seeds are mixed with [`TRAFFIC_SALT`].
pub const CALIB_SEED: u64 = 0xCA11_B4A7_E000_0001;
/// Calibration sequences fed through the FP32 forward pass before the
/// codebook bake.
pub const CALIB_SEQUENCES: usize = 8;
/// Reservoir rows captured per linear site for the bake.
pub const CAPTURE_ROWS: usize = 256;
/// Mixed into `--seed` before it drives any traffic.
pub const TRAFFIC_SALT: u64 = 0x7EA1_F1C0_0000_0000;

/// RoBERTa-base vocabulary size.
pub const VOCAB: usize = 50_265;
/// Encoder depth: RoBERTa-base shapes cut to two layers.
pub const LAYERS: usize = 2;
/// Hidden width.
pub const HIDDEN: usize = 768;
/// Attention heads.
pub const HEADS: usize = 12;
/// Feed-forward width.
pub const FFN: usize = 3072;
/// Positional table size, the longest request plus nothing more.
pub const MAX_SEQ: usize = 128;
/// LayerNorm epsilon used by the lut_ops workload (the model's own).
pub const LN_EPS: f32 = 1e-5;

/// Encode request and lut_ops call lengths span
/// `ENCODE_MIN_LEN..=ENCODE_MAX_LEN` (stratified per batch for requests,
/// see [`Traffic`]; uniform for lut_ops calls).
pub const ENCODE_MIN_LEN: usize = 16;
/// See [`ENCODE_MIN_LEN`].
pub const ENCODE_MAX_LEN: usize = 128;
/// Prompt lengths span `PROMPT_MIN_LEN..=PROMPT_MAX_LEN` (stratified).
pub const PROMPT_MIN_LEN: usize = 32;
/// See [`PROMPT_MIN_LEN`].
pub const PROMPT_MAX_LEN: usize = 96;
/// Tokens generated per stream.
pub const MAX_NEW: usize = 8;
/// Concurrent generation streams.
pub const STREAMS: usize = 4;
/// Encode requests kept outstanding by the closed loop: two full batches,
/// so when a batch completes the next one is already waiting in full and
/// batches close on the 16-sequence budget, not the age timer.
pub const OUTSTANDING: usize = 32;
/// Every workload collects at least this many latency samples, so ten
/// lie beyond p90.
pub const MIN_SAMPLES: usize = 100;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;
/// Compute threads: one replica, one batch in flight, two pool lanes.
/// The load generator is the main thread, which only polls tickets.
pub const THREADS: usize = 2;
/// The stall watchdog's timeout, far above the slowest batch (a full
/// 16 × 128 FP32 batch takes about 3 s on two cores).
pub const STALL_TIMEOUT: Duration = Duration::from_secs(120);

/// RoBERTa-base shapes × [`LAYERS`].
pub fn model_config() -> TransformerConfig {
    TransformerConfig {
        hidden: HIDDEN,
        heads: HEADS,
        layers: LAYERS,
        ffn: FFN,
        vocab: VOCAB,
        max_seq: MAX_SEQ,
        norm: NormKind::LayerNorm,
        activation: Activation::Gelu,
    }
}

/// The paper's training recipe (the values of `TrainConfig::paper()`
/// when this benchmark was written): 100 K samples, 40 epochs of Adam at
/// 1e-3 with ×0.1 steps at epochs 24 and 34, L1 loss.
pub fn train_config() -> TrainConfig {
    TrainConfig {
        epochs: 40,
        batch_size: 256,
        learning_rate: 1e-3,
        milestones: vec![24, 34],
        gamma: 0.1,
        samples: 100_000,
        loss: Loss::L1,
        ls_init: true,
    }
}

/// The codebook geometry: 4-wide sub-vectors, 16 centroids, 8 Lloyd
/// iterations.
pub fn codebook_spec() -> CodebookSpec {
    CodebookSpec {
        sub_len: 4,
        centroids: 16,
        iters: 8,
        seed: 0xC0DE_B00C,
    }
}

/// One batch: at most 16 sequences or 2048 padded positions, one FIFO
/// bucket.
pub fn batch_policy() -> BatchPolicy {
    BatchPolicy {
        max_batch: 16,
        max_padded_tokens: 2048,
        bucket_edges: Vec::new(),
    }
}

/// Every server setting, explicitly. `traced` switches the flight
/// recorder (and with it the op-profile sink) on.
pub fn shard_config(mode: MatmulMode, traced: bool) -> ShardConfig {
    ShardConfig {
        replicas: 1,
        replica: AsyncServerConfig {
            threads: THREADS,
            policy: batch_policy(),
            close: ClosePolicy {
                max_batch_age: Duration::from_millis(20),
                deadline_slack: Duration::from_millis(5),
            },
            admission: ServePolicy::unbounded(),
            max_in_flight: 1,
            sketch_capacity: 4096,
            mode,
            fault: None,
            trace: if traced {
                TraceConfig::enabled()
            } else {
                TraceConfig::disabled()
            },
            recorder: None,
            replica_label: None,
        },
        admission: ServePolicy::unbounded(),
        retry_budget: 2,
        stall_timeout: STALL_TIMEOUT,
        stall_warn_multiple: 4,
        quarantine_after: 2,
        probe_backoff: Duration::from_millis(25),
        max_probe_backoff: Duration::from_secs(2),
        fault_plan: None,
    }
}

/// SplitMix64: a small, fully specified generator, so the traffic does
/// not depend on the stream of any library RNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The traffic generator of workload seed `seed`, salted by `stream`
    /// so two uses of one seed draw independent streams.
    pub fn traffic(seed: u64, stream: u64) -> Self {
        Self::new(seed ^ TRAFFIC_SALT ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Standard normal (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let u1 = self.unit().max(f64::MIN_POSITIVE);
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// `len` token ids, uniform over the vocabulary.
    pub fn tokens(&mut self, len: usize) -> Vec<usize> {
        (0..len).map(|_| self.below(VOCAB)).collect()
    }
}

/// A stream of token sequences whose lengths are stratified in rounds:
/// each round of `round` sequences takes one length from each of `round`
/// equal slices of `lo..=hi` (seeded within its slice), longest slice
/// first.
///
/// A round is one served batch for encode and one set of streams for
/// generate, so every batch carries about the same tokens and longest
/// sequence, and every prefill batch splits the same way across the pool
/// lanes. A run's figures then depend on the seed far less than with
/// independent lengths, while every length in the range still occurs.
pub struct Traffic {
    rng: Rng,
    lo: usize,
    hi: usize,
    round: usize,
    pending: Vec<usize>,
}

impl Traffic {
    /// Lengths in `lo..=hi`, stratified over rounds of `round`.
    pub fn new(rng: Rng, lo: usize, hi: usize, round: usize) -> Self {
        Self {
            rng,
            lo,
            hi,
            round,
            pending: Vec::with_capacity(round),
        }
    }

    /// The encode and codebook workloads' requests: 16..=128 tokens in
    /// rounds of one batch.
    pub fn encode(seed: u64) -> Self {
        Self::new(
            Rng::traffic(seed, 1),
            ENCODE_MIN_LEN,
            ENCODE_MAX_LEN,
            batch_policy().max_batch,
        )
    }

    /// The generate workload's prompts: 32..=96 tokens in rounds of
    /// [`STREAMS`].
    pub fn prompts(seed: u64) -> Self {
        Self::new(
            Rng::traffic(seed, 2),
            PROMPT_MIN_LEN,
            PROMPT_MAX_LEN,
            STREAMS,
        )
    }

    /// The next sequence.
    pub fn next_sequence(&mut self) -> Vec<usize> {
        if self.pending.is_empty() {
            let span = (self.hi - self.lo + 1) as f64;
            // Pushed shortest first, so `pop` yields the longest first.
            for i in 0..self.round {
                let at = (i as f64 + self.rng.unit()) * span / self.round as f64;
                self.pending.push(self.lo + at as usize);
            }
        }
        let len = self.pending.pop().expect("a round was just drawn");
        self.rng.tokens(len)
    }
}

/// The codebook calibration set, drawn from [`CALIB_SEED`] alone.
pub fn calibration_set() -> Vec<Vec<usize>> {
    let mut traffic = Traffic::new(
        Rng::new(CALIB_SEED),
        ENCODE_MIN_LEN,
        ENCODE_MAX_LEN,
        CALIB_SEQUENCES,
    );
    (0..CALIB_SEQUENCES)
        .map(|_| traffic.next_sequence())
        .collect()
}

/// What a workload needs before its first timed operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Needs {
    /// The kit alone (lut_ops).
    Kit,
    /// Kit and model (encode, generate).
    Model,
    /// Kit, model and baked codebooks (codebook).
    Codebooks,
}

/// The built system under test.
pub struct Fixture {
    /// The 16-entry FP32 NN-LUT kit.
    pub kit: NnLutKit,
    /// The model, when the workload needs one.
    pub model: Option<BertModel>,
}

/// Seconds spent in each set-up part (zero for a part not run).
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub kit_train: f64,
    pub model_build: f64,
    pub codebook_bake: f64,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total(&self) -> f64 {
        self.kit_train + self.model_build + self.codebook_bake
    }
}

/// Builds the system once: kit training, model build, codebook bake.
pub fn build(needs: Needs) -> (Fixture, SetupTimes) {
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let kit = NnLutKit::train_with(KIT_ENTRIES, KIT_SEED, &train_config());
    times.kit_train = t.elapsed().as_secs_f64();
    let model = if needs == Needs::Kit {
        None
    } else {
        let t = Instant::now();
        let mut model = BertModel::new_synthetic(model_config(), MODEL_SEED);
        times.model_build = t.elapsed().as_secs_f64();
        if needs == Needs::Codebooks {
            let t = Instant::now();
            model.bake_codebooks(
                &codebook_spec(),
                &calibration_set(),
                &Nonlinearity::all_lut(&kit),
                CAPTURE_ROWS,
            );
            times.codebook_bake = t.elapsed().as_secs_f64();
        }
        Some(model)
    };
    (Fixture { kit, model }, times)
}

/// Builds the system [`SETUP_REPEATS`] times and keeps the last build;
/// returns it with the median set-up time in seconds. Each earlier build
/// is dropped before the next starts, so only one is ever resident.
pub fn build_repeated(needs: Needs) -> (Fixture, f64) {
    let mut totals = Vec::with_capacity(SETUP_REPEATS);
    let mut kept: Option<Fixture> = None;
    for _ in 0..SETUP_REPEATS {
        drop(kept.take());
        let (fixture, times) = build(needs);
        totals.push(times.total());
        kept = Some(fixture);
    }
    let fixture = kept.expect("SETUP_REPEATS is at least one");
    (fixture, crate::stats::median(&mut totals))
}
