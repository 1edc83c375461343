//! The training workloads: a closed loop of `SecureTrainer::train_batch`
//! steps over a small rotating set of pre-generated MNIST batches.

use std::path::Path;
use std::time::{Duration, Instant};

use parsecureml::baseline::{PlainBackend, PlainModel};
use parsecureml::prelude::*;
use parsecureml::weights_digest;
use psml_trace::json::JsonValue;

use crate::replay::{self, Calls, Reported, Ring, Stretch};
use crate::stats::{mean, median, ms_since, peak_rss_mb, percentile, ratio, Info, Metrics};
use crate::{Opts, Outcome};

/// One training workload.
pub struct TrainWorkload {
    pub model: ModelKind,
    pub batch: usize,
    /// Batches in the rotating set; one pass over it is an epoch.
    pub set_size: usize,
    /// Fresh triples from the asynchronous provider (`with_prefetch`)
    /// instead of the default reused triples.
    pub prefetch: bool,
    /// Write a weights checkpoint at every epoch boundary.
    pub checkpoint: bool,
    /// Largest |secure - plaintext| allowed on the held-out batch at the
    /// check point, a few times the largest gap seen over many seeds.
    pub tolerance: f64,
    /// `(seed, weights_digest)` at the check point for the seeds the
    /// suite runs; a run under one of these seeds fails on another digest.
    pub pinned_digests: &'static [(u32, u64)],
}

/// Batch index of the held-out correctness batch (never trained on).
const HELD_OUT: usize = 1000;

impl TrainWorkload {
    fn config(&self) -> EngineConfig {
        EngineConfig::parsecureml().with_prefetch(self.prefetch)
    }

    fn spec(&self) -> ModelSpec {
        let d = DatasetKind::Mnist.spec();
        ModelSpec::build(
            self.model,
            d.features(),
            Some((d.channels, d.height, d.width)),
            d.classes,
        )
        .expect("the paper's MNIST architectures are valid")
    }
}

/// State after set-up: the trainer, its inputs and the set-up spans.
struct Prepared {
    trainer: SecureTrainer<Ring>,
    set: Vec<(PlainMatrix, PlainMatrix)>,
    /// Batch indices trained so far, in order (the plaintext mirror
    /// replays them).
    trained: Vec<usize>,
    datasets_ms: f64,
    trainer_new_ms: f64,
    warmup_ms: f64,
}

fn prepare(w: &TrainWorkload, seed: u32) -> Result<Prepared, EngineError> {
    let t = Instant::now();
    let raw: Vec<Batch> = (0..w.set_size)
        .map(|b| batch(DatasetKind::Mnist, w.batch, b, seed))
        .collect();
    let datasets_ms = ms_since(t);

    let t = Instant::now();
    let mut trainer = SecureTrainer::<Ring>::new(w.config(), w.spec(), seed)?;
    let trainer_new_ms = ms_since(t);
    let set: Vec<(PlainMatrix, PlainMatrix)> = raw
        .into_iter()
        .map(|b| {
            let y = trainer.targets_for(&b);
            (b.x, y)
        })
        .collect();

    let t = Instant::now();
    trainer.train_batch(&set[0].0, &set[0].1)?;
    let warmup_ms = ms_since(t);
    Ok(Prepared {
        trainer,
        set,
        trained: vec![0],
        datasets_ms,
        trainer_new_ms,
        warmup_ms,
    })
}

/// Timings of a stretch of steps.
#[derive(Default)]
struct Steps {
    step_ms: Vec<f64>,
    /// Per step: its time plus that of the checkpoint written after it.
    busy_ms: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    checkpoint_bytes: u64,
    failed: u64,
}

impl Steps {
    /// Samples per second, as the median over consecutive windows of
    /// `window` steps (one epoch, so each window holds one checkpoint).
    /// The median keeps a slow phase of the host that covers a window or
    /// two from moving the figure.
    fn throughput(&self, batch: usize, window: usize) -> f64 {
        let rates: Vec<f64> = self
            .busy_ms
            .chunks_exact(window)
            .map(|w| ratio((w.len() * batch) as f64, w.iter().sum::<f64>() / 1e3))
            .collect();
        median(&rates)
    }

    fn extend(&mut self, more: Steps) {
        self.step_ms.extend(more.step_ms);
        self.busy_ms.extend(more.busy_ms);
        self.checkpoint_ms.extend(more.checkpoint_ms);
        self.checkpoint_bytes = self.checkpoint_bytes.max(more.checkpoint_bytes);
        self.failed += more.failed;
    }
}

/// Runs steps until `budget` elapses or `max_steps` are done. With
/// `on_events`, each step's trace events are handed to it.
fn run_steps(
    w: &TrainWorkload,
    p: &mut Prepared,
    scratch: &Path,
    budget: Duration,
    max_steps: usize,
    mut on_events: Option<&mut dyn FnMut(Vec<TraceEvent>)>,
) -> Steps {
    let mut out = Steps::default();
    let start = Instant::now();
    let ckpt = scratch.join("checkpoint.bin");
    while start.elapsed() < budget && out.step_ms.len() < max_steps {
        let i = p.trained.len();
        let b = i % w.set_size;
        let (x, y) = &p.set[b];
        if on_events.is_some() {
            TraceSink::clear();
        }
        let t = Instant::now();
        let res = p.trainer.train_batch(x, y);
        let ms = ms_since(t);
        if let Some(f) = on_events.as_mut() {
            f(TraceSink::drain());
        }
        if let Err(e) = res {
            eprintln!("step {i} failed: {e}");
            out.failed += 1;
            break;
        }
        out.step_ms.push(ms);
        out.busy_ms.push(ms);
        p.trained.push(b);
        if w.checkpoint && (i + 1).is_multiple_of(w.set_size) {
            let t = Instant::now();
            if let Err(e) = p.trainer.export_weights(&ckpt) {
                eprintln!("checkpoint failed: {e}");
                out.failed += 1;
                break;
            }
            let ms = ms_since(t);
            out.checkpoint_ms.push(ms);
            *out.busy_ms
                .last_mut()
                .expect("a step precedes every checkpoint") += ms;
            out.checkpoint_bytes = std::fs::metadata(&ckpt).map_or(0, |m| m.len());
        }
    }
    out
}

/// Steps trained, the warm-up included, when the correctness check runs:
/// two passes over the set. Fixed-point drift from the plaintext model
/// grows with training length (CNN, seed 105: 0.003 after 21 steps,
/// 0.034 after 123, 0.074 after 188), so the check sits at a fixed step
/// count and does not depend on how fast the host is.
fn check_point(w: &TrainWorkload) -> usize {
    2 * w.set_size
}

/// The correctness check, outside every timed region.
struct Check {
    /// `weights_digest` of the revealed weights at the check point.
    digest: u64,
    /// Largest |secure - plaintext| over the held-out batch's outputs,
    /// against a `PlainModel` trained on the same batches.
    gap: f64,
}

fn check(w: &TrainWorkload, p: &mut Prepared, seed: u32) -> Result<Check, EngineError> {
    let digest = weights_digest(&p.trainer.reveal_weights());
    let mut plain = PlainModel::new(w.config(), w.spec(), PlainBackend::Cpu, seed)?;
    for &b in &p.trained {
        let (x, y) = &p.set[b];
        plain.train_batch(x, y)?;
    }
    let held = batch(DatasetKind::Mnist, w.batch, HELD_OUT, seed);
    let secure = p
        .trainer
        .infer_request(&InferRequest::new(held.x.clone()))?
        .output;
    Ok(Check {
        digest,
        gap: plain.infer_batch(&held.x).max_abs_diff(&secure),
    })
}

/// Trains up to the check point (handing trace events to `on_events`),
/// then runs the check. Also returns the report as it stood after the
/// last step, before the check's own inference.
fn to_check_point(
    w: &TrainWorkload,
    p: &mut Prepared,
    opts: &Opts,
    on_events: Option<&mut dyn FnMut(Vec<TraceEvent>)>,
) -> Result<(Steps, RunReport, Check), String> {
    let n = check_point(w) - p.trained.len();
    let steps = run_steps(w, p, &opts.scratch, Duration::MAX, n, on_events);
    let report = p.trainer.report();
    if steps.failed > 0 {
        return Err("a training step failed".into());
    }
    let check = check(w, p, opts.seed).map_err(|e| format!("correctness check: {e}"))?;
    if check.gap > w.tolerance {
        return Err(format!(
            "held-out outputs differ from plaintext by {} > {}",
            check.gap, w.tolerance
        ));
    }
    if let Some(&(_, want)) = w.pinned_digests.iter().find(|(s, _)| *s == opts.seed) {
        if check.digest != want {
            return Err(format!(
                "weights_digest {:016x} at the check point, expected {want:016x}",
                check.digest
            ));
        }
    }
    Ok((steps, report, check))
}

pub fn run(w: &TrainWorkload, opts: &Opts) -> Outcome {
    let mut info = Info::default();
    let mut p = match prepare(w, opts.seed) {
        Ok(p) => p,
        Err(e) => return Outcome::failed(format!("set-up failed: {e}")),
    };
    let setup_s = opts.started.elapsed().as_secs_f64();
    if opts.setup_only {
        let mut m = Metrics::default();
        m.put("setup_s", setup_s, "s");
        return Outcome::passed(1, 0, m, info);
    }
    let mut metrics = Metrics::default();
    let result = if opts.trace {
        traced(w, &mut p, opts, &mut metrics, &mut info)
    } else {
        untraced(w, &mut p, opts, setup_s, &mut metrics, &mut info)
    };
    let attempted = p.trained.len() as u64;
    match result {
        Ok(steps) if steps.failed == 0 => {
            if !opts.trace {
                info.stat("error_rate", 0.0, "ratio", "lower", attempted);
            }
            Outcome::passed(attempted, 0, metrics, info)
        }
        Ok(steps) => Outcome::failed_counted(
            attempted + steps.failed,
            steps.failed,
            "a training step failed".into(),
            info,
        ),
        Err(e) => Outcome::failed_counted(attempted + 1, 1, e, info),
    }
}

fn record_check(info: &mut Info, w: &TrainWorkload, c: &Check) {
    info.text("weights_digest", format!("{:016x}", c.digest));
    info.num("plaintext_gap", c.gap);
    info.num("plaintext_tolerance", w.tolerance);
}

/// The untraced run: `--seconds` of steps, the check point included
/// (its check is not timed).
fn untraced(
    w: &TrainWorkload,
    p: &mut Prepared,
    opts: &Opts,
    setup_s: f64,
    metrics: &mut Metrics,
    info: &mut Info,
) -> Result<Steps, String> {
    let (mut steps, _, check) = to_check_point(w, p, opts, None)?;
    record_check(info, w, &check);
    let spent = Duration::from_secs_f64(steps.busy_ms.iter().sum::<f64>() / 1e3);
    let rest = Duration::from_secs_f64(opts.seconds).saturating_sub(spent);
    steps.extend(run_steps(w, p, &opts.scratch, rest, usize::MAX, None));
    let n = steps.step_ms.len() as u64;
    let windows = n / w.set_size as u64;
    let throughput = steps.throughput(w.batch, w.set_size);
    let (p50, rss) = (median(&steps.step_ms), peak_rss_mb());
    metrics.put("setup_s", setup_s, "s");
    metrics.put("throughput_per_s", throughput, "1/s");
    metrics.put("latency_ms_p50", p50, "ms");
    metrics.put("latency_ms_p75", percentile(&steps.step_ms, 75.0), "ms");
    metrics.put("peak_rss_mb", rss, "MB");
    info.count("throughput_samples", windows);
    info.count("latency_samples", n);
    info.count("checkpoints", steps.checkpoint_ms.len() as u64);
    info.stat("samples_per_s", throughput, "1/s", "higher", windows);
    info.stat("step_ms_p50", p50, "ms", "lower", n);
    let p90 = percentile(&steps.step_ms, 90.0);
    info.stat("step_ms_p90", p90, "ms", "lower", n);
    info.stat("peak_rss_mb", rss, "MB", "lower", 1);
    Ok(steps)
}

/// The traced run: the steps up to the check point with tracing on
/// (spans kept in memory and classified per step), the check, an
/// untraced stretch for the step time and overhead ratio, then the
/// replays.
fn traced(
    w: &TrainWorkload,
    p: &mut Prepared,
    opts: &Opts,
    m: &mut Metrics,
    info: &mut Info,
) -> Result<Steps, String> {
    let before = p.trainer.report();
    let mut calls = Calls::default();
    let mut classify_err = None;
    TraceSink::enable();
    let traced = {
        let mut sink = |events: Vec<TraceEvent>| {
            if let Err(e) = replay::classify(&events, w.prefetch, &mut calls) {
                classify_err.get_or_insert(e);
            }
        };
        to_check_point(w, p, opts, Some(&mut sink))
    };
    TraceSink::disable();
    TraceSink::clear();
    let (traced, after, check) = traced?;
    record_check(info, w, &check);
    if let Some(e) = classify_err {
        return Err(format!("trace classification: {e}"));
    }
    let n = traced.step_ms.len() as f64;

    // With prefetch every step provisions its declared schedule; with
    // reused triples the warm-up step provisioned them all.
    let schedule = p.trainer.spec().step_schedule(w.batch);
    let expected: Vec<TripleSpec> = match w.prefetch {
        true => (0..traced.step_ms.len())
            .flat_map(|_| schedule.iter().copied())
            .collect(),
        false => Vec::new(),
    };
    if calls.triples != expected {
        return Err("provisioned triples differ from ModelSpec::step_schedule".into());
    }

    // Untraced stretch of the same run: the step time the layers are
    // attributed against, and the overhead ratio.
    let rest = Duration::from_secs_f64((opts.seconds / 2.0).max(1.0));
    let untraced = run_steps(w, p, &opts.scratch, rest, usize::MAX, None);
    let step_p50 = median(&untraced.step_ms);

    let mut reported = Reported::default();
    reported.add(&before, &after);
    let conv = p.trainer.spec().layers.iter().find_map(|l| match l {
        LayerSpec::Conv2D { shape, .. } => Some(*shape),
        _ => None,
    });
    replay::put_layer_metrics(
        m,
        &Stretch {
            calls: &calls,
            reported: &reported,
            steps: n,
            step_ms: step_p50,
            // One im2col per sample per share, per forward pass.
            conv: conv.map(|s| (s, 2 * w.batch)),
            prefetch_depth: p.trainer.context().config().prefetch_depth,
        },
    )?;
    m.put("datasets.batch_ms", p.datasets_ms, "ms");
    m.put("core.trainer_new_ms", p.trainer_new_ms, "ms");
    m.put("core.warmup_ms", p.warmup_ms, "ms");
    m.put("io.checkpoint_ms", mean(&traced.checkpoint_ms), "ms");
    m.put(
        "io.checkpoint_bytes",
        traced.checkpoint_bytes as f64,
        "bytes",
    );
    m.put(
        "bench.trace_overhead_ratio",
        ratio(median(&traced.step_ms), step_p50),
        "ratio",
    );
    info.count("traced_steps", traced.step_ms.len() as u64);
    info.count("untraced_steps", untraced.step_ms.len() as u64);
    info.count("replayed_sends", calls.sends.len() as u64);
    info.count("accounted_sends", calls.accounted_sends as u64);
    info.put(
        "traffic_check",
        JsonValue::Str("replayed + accounted == RunReport.traffic".into()),
    );

    let mut all = traced;
    all.extend(untraced);
    Ok(all)
}
