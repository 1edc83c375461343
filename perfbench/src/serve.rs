//! The `serve-mixed` workload: two MNIST tenants (`logistic`, `mlp`)
//! behind a `ModelHost`, single-row requests.
//!
//! Phase 1 is a saturating drain of a fixed request count on the
//! simulated arrival clock, driven through `submit`/`poll`/
//! `next_dispatch` exactly as `ModelHost::run` drives them; it gives the
//! reported capacity and, being independent of wall time, the
//! deterministic serving counters. Phase 2 runs on a second host loaded and warmed up
//! the same way: an open loop at a fixed offered rate on the wall clock.
//! A request's simulated arrival is its due time, and its latency runs
//! from that due time to the return of the `poll` that answered it.
//! Everything the second host serves (the traced drain of a traced run,
//! then the open loop) is checked against a sequential reference.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use parsecureml::prelude::*;
use parsecureml::{outputs_digest, InferResponse, ServeError};
use psml_trace::json::JsonValue;

use crate::replay::{self, Calls, Reported, Ring, Stretch};
use crate::stats::{median, ms_since, peak_rss_mb, percentile, ratio, Info, Metrics};
use crate::{Opts, Outcome};

/// Open-loop offered rate, about half of the drain capacity measured on
/// the seed code (2-vCPU x86-64 host).
pub const OFFERED_RPS: f64 = 48.0;
/// Gap between the two requests of an open-loop pair.
const PAIR_OFFSET_MS: f64 = 1.0;
/// Latency limit for `slo_attainment`, from due time to response.
pub const SLO_MS: f64 = 50.0;
/// Micro-batching window and fold limit.
const WINDOW_US: f64 = 200.0;
const MAX_BATCH: usize = 16;
/// The drain submits bursts of one full window per tenant, `BURST_GAP_MS`
/// of simulated time apart, so every window folds `MAX_BATCH` requests
/// and no queue overflows.
const TRACED_DRAIN_BURSTS: usize = 2;
/// The untraced drain runs `DRAIN_CHUNKS` chunks of `CHUNK_BURSTS` bursts
/// (1024 requests); capacity, the gated throughput, is the median of the
/// chunks' rates, so a slow phase of the host that covers a chunk or two
/// does not move it.
const DRAIN_CHUNKS: usize = 8;
const CHUNK_BURSTS: usize = 4;
/// The open loop's gated latency percentiles are medians over this many
/// consecutive windows of its schedule, for the same reason.
const OPEN_LOOP_WINDOWS: usize = 5;
const BURST_GAP_MS: f64 = 50.0;
const TENANT_OFFSET_MS: f64 = 1.0;
/// Where each phase starts on its host's simulated clock; the warm-up
/// runs at 0.
const DRAIN_AT_S: f64 = 1.0;
const TRACED_DRAIN_AT_S: f64 = 100.0;
const OPEN_LOOP_AT_S: f64 = 200.0;
/// Distinct request inputs generated at set-up and cycled.
const INPUTS: usize = 256;
/// The tenants, in load order; the drain alternates between them.
const TENANTS: [(&str, ModelKind); 2] =
    [("logistic", ModelKind::Logistic), ("mlp", ModelKind::Mlp)];

fn spec(kind: ModelKind) -> ModelSpec {
    let d = DatasetKind::Mnist.spec();
    ModelSpec::build(kind, d.features(), None, d.classes).expect("MNIST tenant specs are valid")
}

fn model_seed(seed: u32, i: usize) -> u32 {
    seed.wrapping_mul(31).wrapping_add(i as u32 + 1)
}

/// Wall-clock spans around one dispatching `poll`.
struct Poll {
    ms: f64,
    responses: usize,
    /// Tenant index when every response came from one tenant.
    tenant: Option<usize>,
}

struct Server {
    host: ModelHost<Ring>,
    ids: Vec<ModelId>,
    inputs: Vec<PlainMatrix>,
    next_tag: u64,
    /// `(tag, tenant)` of every admitted request, in admission order.
    admitted: Vec<(u64, usize)>,
    responses: Vec<InferResponse>,
    rejections: Vec<(u64, ServeError)>,
    submitted: u64,
}

impl Server {
    /// A host with both tenants loaded from `seed`.
    fn load(cfg: &ServeConfig, seed: u32, inputs: Vec<PlainMatrix>) -> Result<Server, ServeError> {
        let mut host = ModelHost::<Ring>::new(cfg.clone())?;
        let mut ids = Vec::new();
        for (i, (name, kind)) in TENANTS.iter().enumerate() {
            ids.push(host.load(name, spec(*kind), model_seed(seed, i))?);
        }
        Ok(Server {
            host,
            ids,
            inputs,
            next_tag: 0,
            admitted: Vec::new(),
            responses: Vec::new(),
            rejections: Vec::new(),
            submitted: 0,
        })
    }

    /// One request per tenant, drained.
    fn warm_up(&mut self) -> Result<(), ServeError> {
        self.drain(1, 1, SimTime::ZERO, &mut Vec::new()).map(|_| ())
    }

    fn request(&mut self, tenant: usize) -> InferRequest {
        let tag = self.next_tag;
        self.next_tag += 1;
        let x = self.inputs[tag as usize % self.inputs.len()].clone();
        InferRequest::new(x)
            .for_model(self.ids[tenant])
            .with_tag(tag)
    }

    fn submit(&mut self, req: InferRequest, tenant: usize, at: SimTime) {
        let tag = req.tag;
        self.submitted += 1;
        match self.host.submit(req, at) {
            Ok(()) => self.admitted.push((tag, tenant)),
            Err(e) => self.rejections.push((tag, e)),
        }
    }

    /// Dispatches windows due by `now` one `poll` at a time, timing each.
    fn dispatch_until(&mut self, now: SimTime, polls: &mut Vec<Poll>) -> Result<(), ServeError> {
        while let Some(due) = self.host.next_dispatch().filter(|&d| d <= now) {
            self.poll_once(due, polls)?;
        }
        Ok(())
    }

    fn poll_once(&mut self, due: SimTime, polls: &mut Vec<Poll>) -> Result<usize, ServeError> {
        let first = self.responses.len();
        let t = Instant::now();
        self.host
            .poll(due, &mut self.responses, &mut self.rejections)?;
        let ms = ms_since(t);
        let fresh = &self.responses[first..];
        let tenant_of = |r: &InferResponse| self.ids.iter().position(|&id| id == r.model);
        let tenant = fresh
            .first()
            .and_then(tenant_of)
            .filter(|&t0| fresh.iter().all(|r| tenant_of(r) == Some(t0)));
        polls.push(Poll {
            ms,
            responses: fresh.len(),
            tenant,
        });
        Ok(fresh.len())
    }

    /// Saturating drain: `bursts` bursts on the simulated clock from
    /// `base`, each `per_tenant` requests to the first tenant, then as
    /// many to the second `TENANT_OFFSET_MS` later (so each `poll`
    /// dispatches one tenant's window). Returns the wall seconds.
    fn drain(
        &mut self,
        bursts: usize,
        per_tenant: usize,
        base: SimTime,
        polls: &mut Vec<Poll>,
    ) -> Result<f64, ServeError> {
        let t = Instant::now();
        for b in 0..bursts {
            for tenant in 0..TENANTS.len() {
                let at = base
                    + SimDuration::from_millis(
                        b as f64 * BURST_GAP_MS + tenant as f64 * TENANT_OFFSET_MS,
                    );
                for _ in 0..per_tenant {
                    self.dispatch_until(at, polls)?;
                    let req = self.request(tenant);
                    self.submit(req, tenant, at);
                }
            }
        }
        while let Some(due) = self.host.next_dispatch() {
            self.poll_once(due, polls)?;
        }
        Ok(t.elapsed().as_secs_f64())
    }
}

/// Open-loop results.
#[derive(Default)]
struct OpenLoop {
    latency_ms: Vec<f64>,
    /// Due time (s from the loop's start) of each `latency_ms` entry.
    due_s: Vec<f64>,
    /// Length of the arrival schedule, s.
    span_s: f64,
    /// Tenant of each `latency_ms` entry.
    tenant: Vec<usize>,
    queue_wait_ms: Vec<f64>,
    gen_late_ms_max: f64,
    offered: u64,
}

impl OpenLoop {
    /// Which of the `OPEN_LOOP_WINDOWS` consecutive windows of the
    /// schedule a due time falls in.
    fn window(&self, due_s: f64) -> usize {
        let width = self.span_s / OPEN_LOOP_WINDOWS as f64;
        ((due_s / width) as usize).min(OPEN_LOOP_WINDOWS - 1)
    }

    /// The `p`th latency percentile, as the median over the windows.
    fn windowed_latency(&self, p: f64) -> f64 {
        let per_window: Vec<f64> = (0..OPEN_LOOP_WINDOWS)
            .map(|k| {
                let own: Vec<f64> = self
                    .latency_ms
                    .iter()
                    .zip(&self.due_s)
                    .filter(|(_, &d)| self.window(d) == k)
                    .map(|(l, _)| *l)
                    .collect();
                percentile(&own, p)
            })
            .collect();
        median(&per_window)
    }
}

/// Phase 2: requests come in tenant pairs, an `mlp` request and a
/// `logistic` one `PAIR_OFFSET_MS` later, one pair every
/// `2 / OFFERED_RPS` seconds, on schedule whatever the server is doing.
/// The cheap request of each pair lands while the expensive one is being
/// served, so every pair shows head-of-line blocking between tenants.
fn open_loop(s: &mut Server, budget: Duration, base: SimTime) -> Result<OpenLoop, ServeError> {
    let due = |i: u64| (i / 2) as f64 * 2.0 / OFFERED_RPS + (i % 2) as f64 * PAIR_OFFSET_MS / 1e3;
    let mut out = OpenLoop {
        span_s: budget.as_secs_f64(),
        ..OpenLoop::default()
    };
    let first_tag = s.next_tag;
    let mut due_of: Vec<f64> = Vec::new();
    let mut polls = Vec::new();
    let sim = |secs: f64| base + SimDuration::from_secs(secs);
    let limit = budget.as_secs_f64();
    let start = Instant::now();
    let mut next_due = due(0);
    loop {
        let now = start.elapsed().as_secs_f64();
        while next_due <= now && next_due < limit {
            // The pair's first request goes to `mlp`, its second to `logistic`.
            let tenant = 1 - (due_of.len() % 2);
            let req = s.request(tenant);
            due_of.push(next_due);
            out.gen_late_ms_max = out.gen_late_ms_max.max((now - next_due) * 1e3);
            out.offered += 1;
            s.submit(req, tenant, sim(next_due));
            next_due = due(due_of.len() as u64);
        }
        if let Some(due) = s.host.next_dispatch() {
            if due <= sim(now) {
                let first = s.responses.len();
                let poll_start = start.elapsed().as_secs_f64();
                s.poll_once(due, &mut polls)?;
                let done = start.elapsed().as_secs_f64();
                for r in &s.responses[first..] {
                    let due = due_of[(r.tag - first_tag) as usize];
                    out.latency_ms.push((done - due) * 1e3);
                    out.due_s.push(due);
                    out.tenant
                        .push(s.ids.iter().position(|&id| id == r.model).unwrap_or(0));
                    out.queue_wait_ms.push((poll_start - due).max(0.0) * 1e3);
                }
                continue;
            }
        }
        let pending = s
            .host
            .next_dispatch()
            .map(|d| (d.saturating_since(base)).as_secs());
        let wake = match (next_due < limit, pending) {
            (true, Some(p)) => next_due.min(p),
            (true, None) => next_due,
            (false, Some(p)) => p,
            (false, None) => break,
        };
        if wake > now {
            std::thread::sleep(Duration::from_secs_f64(wake - now));
        }
    }
    Ok(out)
}

pub fn run(opts: &Opts) -> Outcome {
    let seed = opts.seed;
    let mut info = Info::default();

    // ---- set-up: inputs, host + tenants, one warm-up request each ----
    let t = Instant::now();
    let inputs: Vec<PlainMatrix> = (0..INPUTS)
        .map(|i| batch(DatasetKind::Mnist, 1, i, seed).x)
        .collect();
    let datasets_ms = ms_since(t);
    let cfg = match ServeConfig::builder()
        .batch_window_micros(WINDOW_US)
        .max_batch(MAX_BATCH)
        .run_id(u64::from(seed))
        .build()
    {
        Ok(c) => c,
        Err(e) => return Outcome::failed(format!("serve config: {e}")),
    };
    let t = Instant::now();
    let mut drain_host = match Server::load(&cfg, seed, inputs.clone()) {
        Ok(s) => s,
        Err(e) => return Outcome::failed(format!("load: {e}")),
    };
    let serve_load_ms = ms_since(t);
    let t = Instant::now();
    if let Err(e) = drain_host.warm_up() {
        return Outcome::failed(format!("warm-up: {e}"));
    }
    let warmup_ms = ms_since(t);
    let setup_s = opts.started.elapsed().as_secs_f64();
    if opts.setup_only {
        let mut m = Metrics::default();
        m.put("setup_s", setup_s, "s");
        return Outcome::passed(TENANTS.len() as u64, 0, m, info);
    }

    // ---- phase 1: saturating drain on the simulated clock ----
    let mut polls = Vec::new();
    let mut drain_s = 0.0;
    let mut chunk_rps = Vec::with_capacity(DRAIN_CHUNKS);
    for c in 0..DRAIN_CHUNKS {
        let first = polls.len();
        let at = DRAIN_AT_S + (c * CHUNK_BURSTS) as f64 * BURST_GAP_MS / 1e3;
        match drain_host.drain(CHUNK_BURSTS, MAX_BATCH, SimTime::from_secs(at), &mut polls) {
            Ok(d) => {
                let served: usize = polls[first..].iter().map(|p| p.responses).sum();
                chunk_rps.push(served as f64 / d);
                drain_s += d;
            }
            Err(e) => return Outcome::failed(format!("drain: {e}")),
        }
    }
    let drained = polls.iter().map(|p| p.responses).sum::<usize>();
    let capacity = median(&chunk_rps);
    let report = drain_host.host.report();

    // ---- a second host, set up the same way, for the checked phases ----
    let mut s = match Server::load(&cfg, seed, inputs) {
        Ok(s) => s,
        Err(e) => return Outcome::failed(format!("load: {e}")),
    };
    if let Err(e) = s.warm_up() {
        return Outcome::failed(format!("warm-up: {e}"));
    }

    // ---- traced drain ----
    let mut traced_tags = BTreeSet::new();
    let mut calls = Calls::default();
    let mut traced_s = 0.0;
    if opts.trace {
        let first_tag = s.next_tag;
        TraceSink::enable();
        TraceSink::clear();
        let mut traced_polls = Vec::new();
        let res = s.drain(
            TRACED_DRAIN_BURSTS,
            MAX_BATCH,
            SimTime::from_secs(TRACED_DRAIN_AT_S),
            &mut traced_polls,
        );
        let events = TraceSink::drain();
        TraceSink::disable();
        match res {
            Ok(d) => traced_s = d,
            Err(e) => return Outcome::failed(format!("traced drain: {e}")),
        }
        // Serving hosts always prefetch: triple distribution is charge-only.
        if let Err(e) = replay::classify(&events, true, &mut calls) {
            return Outcome::failed(format!("trace classification: {e}"));
        }
        traced_tags.extend(first_tag..s.next_tag);
    }

    // ---- phase 2: open loop at the fixed offered rate ----
    let elapsed = opts.started.elapsed().as_secs_f64();
    let budget = Duration::from_secs_f64((opts.seconds - (elapsed - setup_s)).max(5.0));
    let open = match open_loop(&mut s, budget, SimTime::from_secs(OPEN_LOOP_AT_S)) {
        Ok(o) => o,
        Err(e) => return Outcome::failed(format!("open loop: {e}")),
    };
    let rss = peak_rss_mb();
    let failed = (drain_host.rejections.len() + s.rejections.len()) as u64;
    let attempted = drain_host.submitted + s.submitted;
    let within_slo = open.latency_ms.iter().filter(|&&l| l <= SLO_MS).count();
    let completed = open.latency_ms.len() as u64;
    info.count("throughput_samples", DRAIN_CHUNKS as u64);
    info.count("latency_samples", completed);
    info.num("offered_rps", OFFERED_RPS);
    info.num("slo_ms", SLO_MS);
    for (i, (name, _)) in TENANTS.iter().enumerate() {
        let own: Vec<f64> = open
            .latency_ms
            .iter()
            .zip(&open.tenant)
            .filter(|(_, &t)| t == i)
            .map(|(l, _)| *l)
            .collect();
        info.num(&format!("latency_ms_p50.{name}"), median(&own));
    }
    info.stat(
        "capacity_rps",
        capacity,
        "1/s",
        "higher",
        DRAIN_CHUNKS as u64,
    );
    info.stat(
        "latency_ms_p50",
        open.windowed_latency(50.0),
        "ms",
        "lower",
        completed,
    );
    info.stat(
        "latency_ms_p95",
        percentile(&open.latency_ms, 95.0),
        "ms",
        "lower",
        completed,
    );
    info.stat(
        "slo_attainment",
        ratio(within_slo as f64, open.offered as f64),
        "ratio",
        "higher",
        open.offered,
    );
    info.stat(
        "error_rate",
        ratio(failed as f64, attempted as f64),
        "ratio",
        "lower",
        attempted,
    );
    info.stat("peak_rss_mb", rss, "MB", "lower", 1);

    // ---- correctness gate: batched == a sequential infer_request loop,
    // over everything the second host served ----
    let gate = sequential(&s, &cfg, seed, &traced_tags);
    let (seq_digest, traced_report) = match gate {
        Ok(g) => g,
        Err(e) => return Outcome::failed(format!("sequential reference: {e}")),
    };
    let mut served = s.responses.clone();
    served.sort_by_key(|r| r.tag);
    let served_digest = outputs_digest(&served);
    info.text("outputs_digest", format!("{served_digest:016x}"));
    info.text("sequential_digest", format!("{seq_digest:016x}"));
    if served.len() != s.admitted.len() || served_digest != seq_digest {
        return Outcome::failed_counted(
            attempted,
            failed,
            "batched serving outputs differ from the sequential loop".into(),
            info,
        );
    }

    let mut m = Metrics::default();
    if !opts.trace {
        m.put("setup_s", setup_s, "s");
        m.put("throughput_per_s", capacity, "1/s");
        m.put("latency_ms_p50", open.windowed_latency(50.0), "ms");
        m.put("latency_ms_p75", open.windowed_latency(75.0), "ms");
        m.put("peak_rss_mb", rss, "MB");
        return Outcome::passed(attempted, failed, m, info);
    }

    // ---- per-layer metrics (traced run) ----
    let n = traced_tags.len() as f64;
    let per_request_ms = drain_s * 1e3 / drained as f64;
    let stretch = Stretch {
        calls: &calls,
        reported: &traced_report,
        steps: n,
        step_ms: per_request_ms,
        conv: None,
        prefetch_depth: cfg.engine_for_host().prefetch_depth,
    };
    if let Err(e) = replay::put_layer_metrics(&mut m, &stretch) {
        return Outcome::failed(e);
    }
    let service = |tenant: usize| {
        let per: Vec<f64> = polls
            .iter()
            .filter(|p| p.tenant == Some(tenant) && p.responses > 0)
            .map(|p| p.ms / p.responses as f64)
            .collect();
        median(&per)
    };
    let poll_ms: Vec<f64> = polls
        .iter()
        .filter(|p| p.responses > 0)
        .map(|p| p.ms)
        .collect();
    m.put("datasets.batch_ms", datasets_ms, "ms");
    m.put("core.serve_load_ms", serve_load_ms, "ms");
    m.put("core.warmup_ms", warmup_ms, "ms");
    m.put("serve.windows", report.windows as f64, "count");
    m.put("serve.fold_width_mean", report.mean_window, "count");
    m.put(
        "serve.max_queue_depth",
        report.max_queue_depth as f64,
        "count",
    );
    m.put(
        "serve.rejected",
        (report.rejected_overload + report.rejected_deadline) as f64,
        "count",
    );
    m.put("serve.poll_ms_p50", median(&poll_ms), "ms");
    m.put("serve.service_ms.logistic", service(0), "ms");
    m.put("serve.service_ms.mlp", service(1), "ms");
    m.put(
        "serve.queue_wait_ms_p95",
        percentile(&open.queue_wait_ms, 95.0),
        "ms",
    );
    m.put("serve.gen_late_ms_max", open.gen_late_ms_max, "ms");
    m.put("sim.serve_p99_ms", report.p99.as_secs() * 1e3, "ms");
    m.put(
        "bench.trace_overhead_ratio",
        ratio(traced_s * 1e3 / n, per_request_ms),
        "ratio",
    );
    info.count("replayed_sends", calls.sends.len() as u64);
    info.count("accounted_sends", calls.accounted_sends as u64);
    info.put(
        "traffic_check",
        JsonValue::Str("replayed + accounted == sequential RunReport.traffic".into()),
    );
    Outcome::passed(attempted, failed, m, info)
}

/// Replays every admitted request through a fresh trainer per tenant
/// with plain `SecureTrainer::infer_request` calls, in admission order.
/// Returns the tag-sorted outputs digest and the traced requests' share
/// of the trainers' `RunReport`s.
fn sequential(
    s: &Server,
    cfg: &ServeConfig,
    seed: u32,
    traced: &BTreeSet<u64>,
) -> Result<(u64, Reported), EngineError> {
    let mut trainers = Vec::new();
    for (i, (_, kind)) in TENANTS.iter().enumerate() {
        trainers.push(SecureTrainer::<Ring>::new(
            cfg.engine_for_host(),
            spec(*kind),
            model_seed(seed, i),
        )?);
    }
    let mut out = Vec::with_capacity(s.admitted.len());
    let mut tr = Reported::default();
    for &(tag, tenant) in &s.admitted {
        let x = s.inputs[tag as usize % s.inputs.len()].clone();
        let trainer = &mut trainers[tenant];
        let before = traced.contains(&tag).then(|| trainer.report());
        out.push(trainer.infer_request(&InferRequest::new(x).with_tag(tag))?);
        if let Some(b) = before {
            tr.add(&b, &trainer.report());
        }
    }
    out.sort_by_key(|r| r.tag);
    Ok((outputs_digest(&out), tr))
}
