//! Wall-clock benchmark for ParSecureML-rs: secure training and
//! multi-tenant serving, with per-layer attribution.
//!
//! ```text
//! psml-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                [--setup-only] [--scratch <dir>]
//! ```
//!
//! Prints one JSON line: `correct`, `attempted`, `failed`, `metrics`
//! (end-to-end with `--trace 0`, per-layer with `--trace 1`) and `info`
//! (digests, sample counts, environment). `perfbench/run.py` builds this
//! binary, adds the set-up repeats and prints the contract line; see
//! `perfbench/README.md` for every metric.

mod replay;
mod serve;
mod stats;
mod train;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use parsecureml::prelude::ModelKind;
use psml_trace::json::{obj, JsonValue};

use stats::{Info, Metrics};
use train::TrainWorkload;

/// Environment variables that select a different code path than the one
/// measured; the benchmark refuses to run under any of them.
const PATH_OVERRIDES: [&str; 4] = [
    "PSML_BACKEND",
    "PSML_NO_QUANT",
    "PSML_WORKERS",
    "PSML_FAULT_SEED",
];

/// Parsed command line.
pub struct Opts {
    pub seed: u32,
    pub seconds: f64,
    pub trace: bool,
    pub setup_only: bool,
    pub scratch: PathBuf,
    /// Process start: set-up time is measured from here, so it covers
    /// the lazy once-per-process work (pool spin-up, capability probe).
    pub started: Instant,
}

/// A workload's result line.
pub struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    info: Info,
    error: Option<String>,
}

impl Outcome {
    pub fn passed(attempted: u64, failed: u64, metrics: Metrics, info: Info) -> Self {
        Outcome {
            correct: true,
            attempted,
            failed,
            metrics,
            info,
            error: None,
        }
    }

    /// A failed run: no metrics.
    pub fn failed(error: String) -> Self {
        Self::failed_counted(1, 1, error, Info::default())
    }

    pub fn failed_counted(attempted: u64, failed: u64, error: String, info: Info) -> Self {
        Outcome {
            correct: false,
            attempted: attempted.max(1),
            failed,
            metrics: Metrics::default(),
            info,
            error: Some(error),
        }
    }
}

/// Every per-layer metric and its unit, in output order. A traced run
/// reports all of them; a metric of a layer the workload does not
/// exercise reads 0.
const PER_LAYER: [(&str, &str); 34] = [
    ("datasets.batch_ms", "ms"),
    ("core.trainer_new_ms", "ms"),
    ("core.serve_load_ms", "ms"),
    ("core.warmup_ms", "ms"),
    ("io.checkpoint_ms", "ms"),
    ("io.checkpoint_bytes", "bytes"),
    ("net.messages_per_step", "count"),
    ("net.wire_bytes_per_step", "bytes"),
    ("net.compress.saved_ratio", "ratio"),
    ("net.compress.hit_ratio", "ratio"),
    ("net.codec_ms_per_step", "ms"),
    ("net.codec_mb_per_s", "MB/s"),
    ("tensor.gemm_gmacs_per_step", "GMAC"),
    ("tensor.gemm_ms_per_step", "ms"),
    ("tensor.im2col_ms_per_step", "ms"),
    ("mpc.triples_per_step", "count"),
    ("parallel.rng_elems_per_step", "count"),
    ("mpc.triple_ms_per_step", "ms"),
    ("provider.load_ratio", "ratio"),
    ("serve.windows", "count"),
    ("serve.fold_width_mean", "count"),
    ("serve.max_queue_depth", "count"),
    ("serve.rejected", "count"),
    ("serve.poll_ms_p50", "ms"),
    ("serve.service_ms.logistic", "ms"),
    ("serve.service_ms.mlp", "ms"),
    ("serve.queue_wait_ms_p95", "ms"),
    ("serve.gen_late_ms_max", "ms"),
    ("sim.online_ms_per_step", "ms"),
    ("sim.offline_ms_per_step", "ms"),
    ("sim.serve_p99_ms", "ms"),
    ("sim.wall_ratio", "ratio"),
    ("bench.unattributed_ms_per_step", "ms"),
    ("bench.trace_overhead_ratio", "ratio"),
];

enum Workload {
    Train(TrainWorkload),
    Serve,
}

fn workload(name: &str) -> Option<Workload> {
    match name {
        "train-cnn-mnist" => Some(Workload::Train(TrainWorkload {
            model: ModelKind::Cnn,
            batch: 16,
            set_size: 8,
            prefetch: false,
            checkpoint: true,
            tolerance: 0.025,
            pinned_digests: &[(1, 0x0382_c2a4_77d3_ee72), (7, 0x681a_2aad_3bd6_fcf4)],
        })),
        "train-mlp-fresh" => Some(Workload::Train(TrainWorkload {
            model: ModelKind::Mlp,
            batch: 128,
            set_size: 4,
            prefetch: true,
            checkpoint: false,
            tolerance: 0.003,
            pinned_digests: &[(1, 0xab68_f951_9f46_25fa), (7, 0x9d17_1eb4_c47c_14e6)],
        })),
        "serve-mixed" => Some(Workload::Serve),
        _ => None,
    }
}

fn parse() -> Result<(String, Opts), String> {
    let started = Instant::now();
    let mut args = std::env::args().skip(1);
    let mut name = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut setup_only = false;
    let mut scratch = PathBuf::from(".perfbench_scratch");
    while let Some(a) = args.next() {
        let mut value = || args.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => name = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u32>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--setup-only" => setup_only = true,
            "--scratch" => scratch = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok((
        name.ok_or("--workload is required")?,
        Opts {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
            setup_only,
            scratch,
            started,
        },
    ))
}

/// Facts about the host the numbers depend on.
fn environment(info: &mut Info) {
    let caps = psml_tensor::host_caps();
    info.count(
        "nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
    );
    info.put(
        "host_caps",
        obj([
            ("amx_int8", JsonValue::Bool(caps.quant_ring)),
            ("avx512f", JsonValue::Bool(avx512f())),
            ("avx2_fma", JsonValue::Bool(caps.avx2)),
            ("f16c", JsonValue::Bool(caps.f16c)),
        ]),
    );
    info.count(
        "host_workers",
        psml_parallel::global_pool().workers() as u64,
    );
}

#[cfg(target_arch = "x86_64")]
fn avx512f() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx512f() -> bool {
    false
}

fn main() -> ExitCode {
    if let Some(var) = PATH_OVERRIDES
        .iter()
        .find(|v| std::env::var_os(v).is_some())
    {
        eprintln!("refusing to run: {var} is set and changes the measured code path");
        return ExitCode::from(2);
    }
    let (name, opts) = match parse() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("usage error: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = workload(&name) else {
        eprintln!("unknown workload {name}");
        return ExitCode::from(2);
    };
    let scratch = opts.scratch.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("cannot create {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    let opts = Opts {
        scratch: scratch.clone(),
        ..opts
    };

    let mut out = match &workload {
        Workload::Train(w) => train::run(w, &opts),
        Workload::Serve => serve::run(&opts),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    if opts.trace && out.correct {
        out.metrics = out.metrics.ordered(&PER_LAYER);
    }
    environment(&mut out.info);
    if let Some(e) = &out.error {
        eprintln!("{name}: {e}");
        out.info.text("error", e.clone());
    }
    let line = obj([
        ("correct", JsonValue::Bool(out.correct)),
        ("attempted", JsonValue::UInt(out.attempted)),
        ("failed", JsonValue::UInt(out.failed)),
        ("metrics", out.metrics.to_json()),
        ("info", out.info.into_json()),
    ]);
    println!("{}", line.to_json());
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
