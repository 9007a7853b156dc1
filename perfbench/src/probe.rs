//! Per-layer probes: the benchmark times the public calls of the codec,
//! kernel and persistence layers on the workload's own messages, cues and
//! checkpoints. They run only in the traced run, after its load phases.

use std::path::Path;

use cqm_core::pipeline::QualifiedClassification;
use cqm_persist::CheckpointHandle;
use cqm_serve::protocol::{decode_payload, encode_frame, parse_header, FRAME_HEADER_LEN};
use cqm_serve::{Engine, EngineScratch, Request, RequestId, Response, ServeCheckpoint};

use crate::rig::Result;
use crate::trace::Tracer;

/// Times each message is encoded and decoded.
const CODEC_ROUNDS: usize = 3;
/// Passes of the kernel over the workload's cues.
const KERNEL_ROUNDS: usize = 20;
/// Rows per `classify_rows` slab (the `batch` request size).
pub const SLAB_ROWS: usize = 64;
/// Checkpoint saves and loads timed.
const PERSIST_ROUNDS: usize = 20;

/// Decode one complete frame the way the server and client do.
fn decode<T: serde::Deserialize>(frame: &[u8]) -> Result<T> {
    let header: &[u8; FRAME_HEADER_LEN] = frame[..FRAME_HEADER_LEN]
        .try_into()
        .map_err(|_| "frame shorter than its header")?;
    let header = parse_header(header)?;
    Ok(decode_payload(&header, &frame[FRAME_HEADER_LEN..])?)
}

/// Mean encoded sizes of the probed messages, in bytes.
pub struct FrameBytes {
    pub req: f64,
    pub resp: f64,
}

/// `Classify` requests for `(tenant, cues, answer)` triples and the
/// `Classified` responses the server owes them.
pub fn classify_messages<'a>(
    calls: impl IntoIterator<Item = (Option<&'a str>, &'a [f64], QualifiedClassification)>,
) -> (Vec<Request>, Vec<Response>) {
    calls
        .into_iter()
        .enumerate()
        .map(|(i, (tenant, cues, result))| {
            let id = RequestId {
                session: 1,
                request: i as u64 + 1,
            };
            let request = Request::Classify {
                id,
                tenant: tenant.map(str::to_string),
                cues: cues.to_vec(),
            };
            (request, Response::Classified { result })
        })
        .unzip()
}

/// Encode and decode each request and response as one span apiece.
pub fn codec(
    tr: &mut Tracer,
    parent: u64,
    requests: &[Request],
    responses: &[Response],
) -> Result<FrameBytes> {
    let (mut req_bytes, mut resp_bytes) = (0usize, 0usize);
    for _ in 0..CODEC_ROUNDS {
        for (req, resp) in requests.iter().zip(responses) {
            let frame = tr.time("codec.req_encode", parent, || encode_frame(req))?;
            let back: Request = tr.time("codec.req_decode", parent, || decode(&frame))?;
            if &back != req {
                return Err("request frame did not round-trip".into());
            }
            let rframe = tr.time("codec.resp_encode", parent, || encode_frame(resp))?;
            let rback: Response = tr.time("codec.resp_decode", parent, || decode(&rframe))?;
            if &rback != resp {
                return Err("response frame did not round-trip".into());
            }
            req_bytes += frame.len();
            resp_bytes += rframe.len();
        }
    }
    let n = (CODEC_ROUNDS * requests.len().min(responses.len())).max(1) as f64;
    Ok(FrameBytes {
        req: req_bytes as f64 / n,
        resp: resp_bytes as f64 / n,
    })
}

/// Time `Engine::classify_one` per cue and `classify_rows` per 64-row
/// slab, checking both against the expected answers.
pub fn kernel(
    tr: &mut Tracer,
    parent: u64,
    engine: &Engine,
    cues: &[Vec<f64>],
    expected: &[QualifiedClassification],
) -> Result<()> {
    let mut scratch = EngineScratch::new();
    let mut out = Vec::with_capacity(SLAB_ROWS);
    for _ in 0..KERNEL_ROUNDS {
        for (chunk, want) in cues.chunks(SLAB_ROWS).zip(expected.chunks(SLAB_ROWS)) {
            let span = tr.open("kernel.one", parent, 0);
            let mut same = true;
            for (c, w) in chunk.iter().zip(want) {
                let got = engine.classify_one(std::hint::black_box(c), &mut scratch)?;
                same &= crate::rig::identical(&got, w);
            }
            tr.close_ops(span, chunk.len() as u32);
            let span = tr.open("kernel.rows", parent, 0);
            engine.classify_rows(std::hint::black_box(chunk), &mut scratch, &mut out)?;
            tr.close_ops(span, chunk.len() as u32);
            same &= out
                .iter()
                .zip(want)
                .all(|(g, w)| crate::rig::identical(g, w));
            if !same {
                return Err("kernel probe answer differs from the expected answer".into());
            }
        }
    }
    Ok(())
}

/// Save and load the workload's checkpoint; returns its size in bytes.
pub fn persist(tr: &mut Tracer, parent: u64, dir: &Path, ckpt: &ServeCheckpoint) -> Result<u64> {
    let handle = CheckpointHandle::new(dir.join("probe.ckpt"));
    for _ in 0..PERSIST_ROUNDS {
        tr.time("persist.save", parent, || handle.save(ckpt))?;
        let back: ServeCheckpoint = tr.time("persist.load", parent, || handle.load())?;
        if &back != ckpt {
            return Err("checkpoint did not round-trip".into());
        }
    }
    let bytes = std::fs::metadata(handle.path())?.len();
    std::fs::remove_file(handle.path())?;
    Ok(bytes)
}
