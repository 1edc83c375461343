//! Per-layer attribution by replay.
//!
//! A traced step (or serving request) leaves the engine thread's
//! `TraceEvent`s: one span per wire send, one `compute2` phase span per
//! secure multiplication and one `gen_triple` span per provisioned Beaver
//! triple. [`classify`] sorts them into the calls each inner layer really
//! made; the `replay_*` functions re-issue those calls through the
//! layer's public function, outside the measured run, and time them.
//!
//! Only sends that were actually serialized are replayed. Under prefetch
//! the engine charges triple distribution through
//! `Endpoint::send_accounted`, which advances the clocks and counters
//! but encodes nothing; those sends are identified (the six sends
//! directly before each `gen_triple` span, checked against the triple's
//! `U`/`V`/`Z` wire sizes) and counted, not replayed.

use std::hint::black_box;
use std::time::Instant;

use parsecureml::RunReport;
use psml_mpc::{gen_triples_streamed, Fixed64, TripleSpec};
use psml_net::codec::{self, FRAME_HEADER_BYTES};
use psml_net::Payload;
use psml_tensor::{gemm_auto, gemm_batch, im2col, ConvShape, Csr, Matrix};
use psml_trace::{Phase, TraceEvent};

use crate::stats::{ratio, Metrics};

/// Ring element the secure workloads run on.
pub type Ring = Fixed64;

const RING_BYTES: usize = 8;
/// Passes of each replay; the best one is kept.
const REPLAY_REPS: usize = 2;

/// Encoded size of a dense `elems`-element payload inside its frame.
fn dense_wire_bytes(elems: usize) -> usize {
    FRAME_HEADER_BYTES + codec::dense_payload_bytes::<Ring>(1, elems)
}

/// Kind of payload a traced send carried.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendKind {
    Dense,
    SparseDelta,
    Control,
}

/// One serialized send: its payload kind and exact wire size.
#[derive(Clone, Copy, Debug)]
pub struct Send {
    pub kind: SendKind,
    pub wire_bytes: usize,
}

/// The inner-layer calls of one or more traced steps.
#[derive(Default)]
pub struct Calls {
    /// Sends that were encoded, framed, checksummed and decoded.
    pub sends: Vec<Send>,
    /// Charge-only triple-distribution sends (counted, not replayed).
    pub accounted_sends: usize,
    pub accounted_bytes: usize,
    /// Server-to-server sends of masked operands (the delta-compressible
    /// stream) and how many of them went out as sparse deltas.
    pub compressible_sends: usize,
    pub sparse_delta_sends: usize,
    /// `(m, k, n)` of every secure multiplication's reconstruction GEMM
    /// (`compute2` spans carry `(m, 2k, n)`; each server evaluates one).
    pub compute2: Vec<(usize, usize, usize)>,
    /// Triples provisioned, in order.
    pub triples: Vec<TripleSpec>,
}

impl Calls {
    /// Total messages, real and charge-only.
    pub fn messages(&self) -> usize {
        self.sends.len() + self.accounted_sends
    }

    /// Total wire bytes, real and charge-only.
    pub fn wire_bytes(&self) -> usize {
        self.sends.iter().map(|s| s.wire_bytes).sum::<usize>() + self.accounted_bytes
    }

    /// Multiply-accumulates of the replayed GEMMs (two servers each).
    pub fn gemm_macs(&self) -> f64 {
        self.compute2
            .iter()
            .map(|&(m, k, n)| 2.0 * (m * k * n) as f64)
            .sum()
    }

    /// Ring elements of randomness the provisioned triples drew.
    pub fn rng_elems(&self) -> usize {
        self.triples.iter().map(TripleSpec::random_elems).sum()
    }
}

/// What the program's `RunReport`s say a traced stretch did.
#[derive(Default)]
pub struct Reported {
    pub messages: usize,
    pub wire_bytes: usize,
    pub dense_bytes: usize,
    pub online_ms: f64,
    pub offline_ms: f64,
}

impl Reported {
    /// Adds what one trainer did between two of its reports.
    pub fn add(&mut self, before: &RunReport, after: &RunReport) {
        let (b, a) = (&before.traffic, &after.traffic);
        self.messages += a.total_messages() - b.total_messages();
        self.wire_bytes += a.total_wire_bytes() - b.total_wire_bytes();
        self.dense_bytes += a.total_dense_bytes() - b.total_dense_bytes();
        self.online_ms += (after.online_time - before.online_time).as_secs() * 1e3;
        self.offline_ms += (after.offline_time - before.offline_time).as_secs() * 1e3;
    }
}

/// A traced stretch of `steps` steps (or serving requests).
pub struct Stretch<'a> {
    pub calls: &'a Calls,
    pub reported: &'a Reported,
    pub steps: f64,
    /// Wall time of one untraced step, ms.
    pub step_ms: f64,
    /// The convolution's shape and the `im2col` calls per step, if any.
    pub conv: Option<(ConvShape, usize)>,
    /// The provider's window of same-shape triples.
    pub prefetch_depth: usize,
}

/// Checks that the calls account for exactly the reported traffic,
/// replays every layer and puts the `net.*`, `tensor.*`, `mpc.*`,
/// `parallel.*`, `provider.*`, per-step `sim.*` and
/// `bench.unattributed_ms_per_step` metrics.
pub fn put_layer_metrics(m: &mut Metrics, s: &Stretch) -> Result<(), String> {
    let (calls, r, n) = (s.calls, s.reported, s.steps);
    if calls.messages() != r.messages || calls.wire_bytes() != r.wire_bytes {
        return Err(format!(
            "replay covers {} messages / {} bytes, RunReport.traffic has {} / {}",
            calls.messages(),
            calls.wire_bytes(),
            r.messages,
            r.wire_bytes
        ));
    }
    let codec = replay_codec(&calls.sends)?;
    let codec_ms = codec.ms / n;
    let gemm_ms = replay_gemm(&calls.compute2) / n;
    let im2col_ms = s
        .conv
        .map_or(0.0, |(shape, images)| replay_im2col(&shape, images));
    let triple_ms = replay_triples(&calls.triples, s.prefetch_depth) / n;

    m.put("net.messages_per_step", r.messages as f64 / n, "count");
    m.put("net.wire_bytes_per_step", r.wire_bytes as f64 / n, "bytes");
    m.put(
        "net.compress.saved_ratio",
        1.0 - ratio(r.wire_bytes as f64, r.dense_bytes as f64),
        "ratio",
    );
    m.put(
        "net.compress.hit_ratio",
        ratio(
            calls.sparse_delta_sends as f64,
            calls.compressible_sends as f64,
        ),
        "ratio",
    );
    m.put("net.codec_ms_per_step", codec_ms, "ms");
    m.put(
        "net.codec_mb_per_s",
        ratio(codec.bytes as f64 / 1e6, codec.ms / 1e3),
        "MB/s",
    );
    m.put(
        "tensor.gemm_gmacs_per_step",
        calls.gemm_macs() / n / 1e9,
        "GMAC",
    );
    m.put("tensor.gemm_ms_per_step", gemm_ms, "ms");
    m.put("tensor.im2col_ms_per_step", im2col_ms, "ms");
    m.put(
        "mpc.triples_per_step",
        calls.triples.len() as f64 / n,
        "count",
    );
    m.put(
        "parallel.rng_elems_per_step",
        calls.rng_elems() as f64 / n,
        "count",
    );
    m.put("mpc.triple_ms_per_step", triple_ms, "ms");
    m.put("provider.load_ratio", ratio(triple_ms, s.step_ms), "ratio");
    m.put("sim.online_ms_per_step", r.online_ms / n, "ms");
    m.put("sim.offline_ms_per_step", r.offline_ms / n, "ms");
    m.put(
        "sim.wall_ratio",
        ratio(s.step_ms, (r.online_ms + r.offline_ms) / n),
        "ratio",
    );
    m.put(
        "bench.unattributed_ms_per_step",
        s.step_ms - codec_ms - gemm_ms - im2col_ms,
        "ms",
    );
    Ok(())
}

fn spec_of(shape: [u32; 3]) -> TripleSpec {
    let [m, k, n] = shape.map(|d| d as usize);
    if k == 0 {
        TripleSpec::Hadamard { m, n }
    } else {
        TripleSpec::Gemm { m, k, n }
    }
}

/// Sorts one traced stretch of engine-thread events into layer calls.
/// `prefetch` says whether triple distribution was charge-only.
pub fn classify(events: &[TraceEvent], prefetch: bool, calls: &mut Calls) -> Result<(), String> {
    // Sends since the last provisioned triple, as (kind, bytes, is server link + communicate).
    let mut pending: Vec<(Send, bool)> = Vec::new();
    for ev in events {
        if let Some(kind) = ev.op.strip_prefix("send:") {
            let kind = match kind {
                "dense" => SendKind::Dense,
                "sparse-delta" => SendKind::SparseDelta,
                "control" => SendKind::Control,
                other => return Err(format!("unknown send kind {other}")),
            };
            let server_link = ev.track.starts_with("net:server");
            let compressible = server_link && ev.phase == Phase::Communicate;
            pending.push((
                Send {
                    kind,
                    wire_bytes: ev.bytes as usize,
                },
                compressible,
            ));
            continue;
        }
        if ev.track != "engine" {
            continue;
        }
        match (ev.op.as_str(), ev.shape) {
            ("gen_triple", Some(shape)) => {
                let spec = spec_of(shape);
                calls.triples.push(spec);
                if prefetch {
                    let expect: Vec<usize> = [spec.u_shape(), spec.v_shape(), spec.z_shape()]
                        .iter()
                        .flat_map(|&(r, c)| [dense_wire_bytes(r * c); 2])
                        .collect();
                    if pending.len() < expect.len() {
                        return Err(format!("{spec:?}: fewer than six distribution sends"));
                    }
                    let tail = pending.split_off(pending.len() - expect.len());
                    for ((send, _), want) in tail.iter().zip(&expect) {
                        if send.kind != SendKind::Dense || send.wire_bytes != *want {
                            return Err(format!(
                                "{spec:?}: distribution send of {} bytes, expected {want}",
                                send.wire_bytes
                            ));
                        }
                    }
                    calls.accounted_sends += expect.len();
                    calls.accounted_bytes += expect.iter().sum::<usize>();
                }
            }
            ("compute2", Some([m, k2, n])) => {
                calls.compute2.push((m as usize, k2 as usize, n as usize));
            }
            _ => {}
        }
        flush(&mut pending, calls);
    }
    flush(&mut pending, calls);
    Ok(())
}

fn flush(pending: &mut Vec<(Send, bool)>, calls: &mut Calls) {
    for (send, compressible) in pending.drain(..) {
        if compressible {
            calls.compressible_sends += 1;
            if send.kind == SendKind::SparseDelta {
                calls.sparse_delta_sends += 1;
            }
        }
        calls.sends.push(send);
    }
}

/// Builds a payload whose framed encoding is exactly `send.wire_bytes`
/// long. Dense payloads are a one-row matrix of the traced element
/// count; sparse deltas a one-row CSR whose row pointer, column indices
/// and values fill the traced size (the encoder's per-byte loops are the
/// same for every row split).
fn payload_for(send: Send) -> Result<Payload<Ring>, String> {
    let body = send
        .wire_bytes
        .checked_sub(FRAME_HEADER_BYTES)
        .ok_or("send shorter than a frame header")?;
    let bad = || {
        format!(
            "{:?} send of {} bytes has no exact payload",
            send.kind, send.wire_bytes
        )
    };
    match send.kind {
        SendKind::Dense => {
            let elems = body.checked_sub(9).ok_or_else(bad)?;
            if elems % RING_BYTES != 0 {
                return Err(bad());
            }
            let n = elems / RING_BYTES;
            Ok(Payload::Dense(Matrix::from_fn(1, n, |_, c| {
                Fixed64(c as u64 * 0x9E37_79B9)
            })))
        }
        SendKind::SparseDelta => {
            // 13-byte header + (rows + 1) u32 row pointers + nnz (u32 + ring).
            let rest = body.checked_sub(13 + 4).ok_or_else(bad)?;
            // Smallest row count that leaves a whole number of entries.
            let rows = (1..=3)
                .find(|r| rest >= 4 * r && (rest - 4 * r) % (4 + RING_BYTES) == 0)
                .ok_or_else(bad)?;
            let nnz = (rest - 4 * rows) / (4 + RING_BYTES);
            let cols = nnz.max(1);
            let mut row_ptr = vec![0u32; rows + 1];
            for p in row_ptr.iter_mut().skip(1) {
                *p = nnz as u32;
            }
            let col_idx: Vec<u32> = (0..nnz as u32).collect();
            let values: Vec<Ring> = (0..nnz).map(|i| Fixed64(i as u64 + 1)).collect();
            Ok(Payload::SparseDelta(Csr::from_raw_parts(
                rows, cols, row_ptr, col_idx, values,
            )))
        }
        SendKind::Control => {
            let len = body.checked_sub(5).ok_or_else(bad)?;
            Ok(Payload::Control("c".repeat(len)))
        }
    }
}

/// Result of replaying the wire codec.
struct CodecReplay {
    ms: f64,
    bytes: usize,
}

/// Re-encodes, frames, verifies and decodes every serialized send:
/// the work `Endpoint::send`/`recv` do per message. Returns the best of
/// `REPLAY_REPS` passes.
fn replay_codec(sends: &[Send]) -> Result<CodecReplay, String> {
    let payloads: Vec<Payload<Ring>> = sends
        .iter()
        .map(|&s| payload_for(s))
        .collect::<Result<_, _>>()?;
    let mut best = f64::INFINITY;
    let mut bytes = 0;
    for _ in 0..REPLAY_REPS {
        bytes = 0;
        let t = Instant::now();
        for (seq, (p, s)) in payloads.iter().zip(sends).enumerate() {
            let body = codec::encode(black_box(p));
            let frame = codec::encode_frame(seq as u64, &body);
            if frame.len() != s.wire_bytes {
                return Err(format!(
                    "replayed frame {} != traced {}",
                    frame.len(),
                    s.wire_bytes
                ));
            }
            let (_, view) = codec::decode_frame(&frame).map_err(|e| e.to_string())?;
            black_box(codec::decode::<Ring>(view).map_err(|e| e.to_string())?);
            bytes += frame.len();
        }
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(CodecReplay { ms: best, bytes })
}

fn ring_matrix(rows: usize, cols: usize, salt: u64) -> Matrix<Ring> {
    Matrix::from_fn(rows, cols, |r, c| {
        Fixed64((r as u64 * 131 + c as u64 + salt).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    })
}

/// Re-runs every reconstruction GEMM through `gemm_auto` on the ring
/// type, once per server. Best of `REPLAY_REPS` passes, in ms.
fn replay_gemm(compute2: &[(usize, usize, usize)]) -> f64 {
    let operands: Vec<(Matrix<Ring>, Matrix<Ring>)> = compute2
        .iter()
        .map(|&(m, k, n)| (ring_matrix(m, k, 1), ring_matrix(k, n, 2)))
        .collect();
    best_of(|| {
        for (a, b) in &operands {
            for _ in 0..2 {
                black_box(gemm_auto(black_box(a), black_box(b)));
            }
        }
    })
}

/// Re-runs the forward pass's im2col calls: one per sample per share.
fn replay_im2col(shape: &ConvShape, images: usize) -> f64 {
    let img = ring_matrix(shape.channels, shape.height * shape.width, 3);
    best_of(|| {
        for _ in 0..images {
            black_box(im2col(black_box(&img), shape));
        }
    })
}

/// Regenerates the provisioned triples the way the prefetch provider
/// does: consecutive same-shape specs in windows of up to `depth`, each
/// window one `gen_triples_streamed` call over `gemm_batch`.
fn replay_triples(triples: &[TripleSpec], depth: usize) -> f64 {
    let mut windows: Vec<(TripleSpec, usize)> = Vec::new();
    for &spec in triples {
        match windows.last_mut() {
            Some((s, n)) if *s == spec && *n < depth.max(1) => *n += 1,
            _ => windows.push((spec, 1)),
        }
    }
    best_of(|| {
        let mut seq = 0;
        for &(spec, count) in &windows {
            black_box(gen_triples_streamed::<Ring>(
                spec, 0x7EB1, seq, count, gemm_batch,
            ));
            seq += count as u64;
        }
    })
}

fn best_of(mut f: impl FnMut()) -> f64 {
    (0..REPLAY_REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_payloads_hit_the_traced_size() {
        for kind in [SendKind::Dense, SendKind::SparseDelta, SendKind::Control] {
            let base = match kind {
                SendKind::Dense => dense_wire_bytes(100),
                SendKind::SparseDelta => FRAME_HEADER_BYTES + 13 + 4 * 3 + 12 * 40,
                SendKind::Control => FRAME_HEADER_BYTES + 5 + 7,
            };
            let s = Send {
                kind,
                wire_bytes: base,
            };
            let p = payload_for(s).unwrap();
            assert_eq!(
                codec::encode_frame(0, &codec::encode(&p)).len(),
                base,
                "{kind:?}"
            );
        }
    }
}
