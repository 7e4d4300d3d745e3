//! End-to-end and per-layer benchmark of the NN-LUT serving stack.
//!
//! ```text
//! nnlut-benchmark --workload <encode|generate|lut_ops|codebook>
//!                 --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the workload's end-to-end metrics;
//! with `--trace 1` it measures the per-layer metrics instead (see
//! `layers.rs`). Either way it checks the outputs, and its last line on
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (each a value with its unit). Diagnostics go to standard
//! error. See README.md for what each workload and metric means.

mod layers;
mod lut_ops;
mod recipe;
mod served;
mod standalone;
mod stats;

use std::process::ExitCode;

use nnlut_transformer::MatmulMode;

use crate::recipe::Needs;
use crate::stats::{peak_rss_mib, Report};

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Encode,
    Generate,
    LutOps,
    Codebook,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "encode" => Self::Encode,
            "generate" => Self::Generate,
            "lut_ops" => Self::LutOps,
            "codebook" => Self::Codebook,
            _ => return None,
        })
    }

    /// What must be built before the first timed operation.
    fn needs(self) -> Needs {
        match self {
            Self::LutOps => Needs::Kit,
            Self::Encode | Self::Generate => Needs::Model,
            Self::Codebook => Needs::Codebooks,
        }
    }

    /// The GEMM mode the workload serves in.
    fn mode(self) -> MatmulMode {
        match self {
            Self::Codebook => MatmulMode::Codebook,
            _ => MatmulMode::F32,
        }
    }
}

/// Output checks: each failed requirement is printed and makes the run
/// report `"correct": false`.
#[derive(Debug, Default)]
pub struct Checks {
    failures: usize,
}

impl Checks {
    /// Records one requirement.
    pub fn require(&mut self, ok: bool, what: &str) {
        if !ok {
            eprintln!("CHECK FAILED: {what}");
            self.failures += 1;
        }
    }

    /// True when every requirement held.
    pub fn passed(&self) -> bool {
        self.failures == 0
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must lie in (0, 3600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: nnlut-benchmark --workload <encode|generate|lut_ops|codebook> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "machine_cores {} simd {}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        nnlut_core::engine::simd::detect().name()
    );
    let mut checks = Checks::default();
    let mut report = Report::default();
    let (attempted, failed) = if args.trace {
        layers::run(args.workload, args.seed, &mut report, &mut checks)
    } else {
        let (fixture, setup_s) = recipe::build_repeated(args.workload.needs());
        report.push("setup_s", setup_s, "s");
        let ops = match args.workload {
            Workload::Encode | Workload::Codebook => served::encode(
                fixture,
                args.workload.mode(),
                args.seed,
                args.seconds,
                &mut report,
                &mut checks,
            ),
            Workload::Generate => {
                served::generate(fixture, args.seed, args.seconds, &mut report, &mut checks)
            }
            Workload::LutOps => served::Ops {
                attempted: lut_ops::workload(
                    &fixture.kit,
                    args.seed,
                    args.seconds,
                    &mut report,
                    &mut checks,
                ),
                failed: 0,
            },
        };
        report.push("peak_rss_mib", peak_rss_mib(), "MiB");
        (ops.attempted, ops.failed)
    };
    for m in report.metrics() {
        eprintln!("{:<32} {:>14.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.json(checks.passed(), attempted, failed));
    ExitCode::SUCCESS
}
