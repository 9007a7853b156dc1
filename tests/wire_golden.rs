//! Byte-identity of everything the JSON codec writes to a wire or a disk.
//!
//! Served answers are compared bit for bit across versions, checkpoints
//! written by one build are loaded by the next, and journals are replayed
//! byte by byte, so the encoder's output is a contract in its own right:
//! a faster codec must write exactly the bytes the old one did. This suite
//! encodes a fixed corpus — every [`Request`] and [`Response`] variant, a
//! [`ServeCheckpoint`] file, journal records, and the awkward values
//! (whole-valued floats, `-0.0`, `5e-324`, `1e300`, `u64::MAX` ids, a
//! non-ASCII tenant, control characters) — and compares the bytes against
//! `tests/golden/wire_v3.txt`, captured from the encoder that shipped
//! protocol version 3.
//!
//! Each golden line is `<name> <hex of the binary header> <JSON payload>`.
//! The header (length, version, CRC) depends only on the payload, so a
//! payload change shows up twice; the JSON stays readable in a diff. A
//! deliberate format change must bump `PROTOCOL_VERSION` or the checkpoint
//! version and replace the file; the failing assertion prints each new
//! line.

use std::path::{Path, PathBuf};

use cqm::classify::FisClassifier;
use cqm::core::classifier::ClassId;
use cqm::core::filter::Decision;
use cqm::core::model::{CqmModel, MODEL_VERSION};
use cqm::core::normalize::Quality;
use cqm::core::pipeline::QualifiedClassification;
use cqm::core::QualityMeasure;
use cqm::fuzzy::{MembershipFunction, TskFis, TskRule};
use cqm::persist::checkpoint::{load_checkpoint, save_checkpoint};
use cqm::persist::journal::scan;
use cqm::persist::records::{JournalRecord, RunHeader};
use cqm::persist::JournalWriter;
use cqm::resilience::fault::{FaultKind, ScheduledFault};
use cqm::resilience::supervisor::SupervisorConfig;
use cqm::serve::model::ServeCheckpoint;
use cqm::serve::protocol::{
    decode_payload, encode_frame, parse_header, Request, RequestId, Response, ServerHealth,
    SnapshotInfo, WireError, FRAME_HEADER_LEN, PROTOCOL_VERSION,
};
use cqm::serve::ServedModel;

/// Bytes before the JSON payload in a checkpoint file: magic, version,
/// length, CRC.
const CHECKPOINT_HEADER_LEN: usize = 8 + 4 + 8 + 4;

/// Bytes before the JSON payload in a journal record: length, CRC.
const JOURNAL_HEADER_LEN: usize = 4 + 4;

/// The awkward tenant: non-ASCII (2-, 3- and 4-byte UTF-8) plus every
/// escape class the writer knows (quote, backslash, the short escapes and
/// the `\u00XX` form for other control characters).
const AWKWARD_TENANT: &str = "küche-☕-😀 \"q\" \\ \n\r\t \u{1}\u{8}\u{c}\u{1f} /end";

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/wire_v3.txt")
}

fn qc(class: usize, quality: Quality, decision: Decision) -> QualifiedClassification {
    QualifiedClassification {
        class: ClassId(class),
        quality,
        decision,
    }
}

/// The awkward floats, each a cue or quality somewhere in the corpus.
fn awkward_floats() -> Vec<f64> {
    vec![1.0, -3.0, 0.0, -0.0, 5e-324, 1e300, -1e300, 0.1, 1.0 / 3.0, f64::MAX, 4096.0]
}

fn served_model() -> ServedModel {
    let g = |mu: f64, s: f64| MembershipFunction::gaussian(mu, s).expect("gaussian");
    let class_fis = TskFis::new(vec![
        TskRule::new(vec![g(0.0, 0.3)], vec![0.0, 0.0]).expect("rule"),
        TskRule::new(vec![g(1.0, 0.3)], vec![0.25, 1.0]).expect("rule"),
    ])
    .expect("class fis");
    let classifier = FisClassifier::from_fis(class_fis, 2).expect("classifier");
    let quality_fis = TskFis::new(vec![
        TskRule::new(vec![g(0.0, 0.25), g(0.0, 0.25)], vec![0.0, 0.0, 1.0]).expect("rule"),
        TskRule::new(vec![g(1.0, 0.25), g(1.0, 0.25)], vec![-0.0, 5e-324, 1.0]).expect("rule"),
    ])
    .expect("quality fis");
    let model = CqmModel {
        version: MODEL_VERSION,
        measure: QualityMeasure::new(quality_fis).expect("measure"),
        threshold: 0.5,
        note: format!("golden corpus for {AWKWARD_TENANT}"),
    };
    ServedModel::new(classifier, model).expect("served model")
}

fn health() -> ServerHealth {
    ServerHealth {
        requests: u64::MAX,
        rows_classified: 1 << 40,
        rejected: 0,
        shed: 1,
        queue_highwater: 64,
        session_errors: 2,
        dedup_hits: 3,
        duplicate_executions: 0,
        degraded_served: 5,
        ladder: Some("failsafe".into()),
        workers: 2,
        draining: true,
        tenants: 16,
        tenants_quarantined: 1,
        warm_loads: 7,
        evictions: 8,
        swaps: 9,
        swap_rollbacks: 10,
        tenant_overloads: 11,
        quarantined_answers: 12,
        version_rejections: 13,
    }
}

/// Every request and response variant, as wire frames.
fn frames() -> Vec<(String, Vec<u8>)> {
    let max_id = RequestId {
        session: u64::MAX,
        request: u64::MAX,
    };
    let requests = vec![
        (
            "req.classify",
            Request::Classify {
                id: RequestId {
                    session: 7,
                    request: 1,
                },
                tenant: None,
                cues: vec![0.5, 0.25],
            },
        ),
        (
            "req.classify.awkward",
            Request::Classify {
                id: max_id,
                tenant: Some(AWKWARD_TENANT.into()),
                cues: awkward_floats(),
            },
        ),
        (
            "req.batch",
            Request::ClassifyBatch {
                id: max_id,
                tenant: Some("pen-0".into()),
                rows: vec![awkward_floats(), vec![], vec![-0.0], vec![2.5, -7.0]],
            },
        ),
        ("req.snapshot", Request::Snapshot),
        ("req.health", Request::Health),
        ("req.shutdown", Request::Shutdown),
    ];
    let responses = vec![
        (
            "resp.classified",
            Response::Classified {
                result: qc(1, Quality::Value(1.0), Decision::Accept),
            },
        ),
        (
            "resp.batch",
            Response::ClassifiedBatch {
                results: awkward_floats()
                    .into_iter()
                    .enumerate()
                    .map(|(i, q)| qc(i, Quality::Value(q), Decision::Discard))
                    .chain([qc(usize::MAX, Quality::Epsilon, Decision::Discard)])
                    .collect(),
            },
        ),
        (
            "resp.degraded",
            Response::ClassifiedDegraded {
                result: qc(0, Quality::Value(-0.0), Decision::Discard),
            },
        ),
        (
            "resp.snapshot",
            Response::Snapshot {
                info: SnapshotInfo {
                    checkpoint_seq: u64::MAX,
                    warm_started: true,
                    cue_dim: 2,
                    num_classes: 3,
                    threshold: 0.5,
                    note: AWKWARD_TENANT.into(),
                },
            },
        ),
        ("resp.health", Response::Health { health: health() }),
        ("resp.shutting_down", Response::ShuttingDown),
        (
            "resp.error.overloaded",
            Response::Error {
                error: WireError::overloaded(),
            },
        ),
        (
            "resp.error.bad_request",
            Response::Error {
                error: WireError::bad_request("closing connection: bad \"frame\"\n"),
            },
        ),
        (
            "resp.error.internal",
            Response::Error {
                error: WireError::internal("worker gone"),
            },
        ),
        (
            "resp.error.shutting_down",
            Response::Error {
                error: WireError::shutting_down(),
            },
        ),
        (
            "resp.error.unsupported_version",
            Response::Error {
                error: WireError::unsupported_version(PROTOCOL_VERSION + 1),
            },
        ),
        (
            "resp.error.tenant_quarantined",
            Response::Error {
                error: WireError::tenant_quarantined(AWKWARD_TENANT, "checkpoint CRC"),
            },
        ),
    ];
    let mut out = Vec::new();
    for (name, msg) in requests {
        out.push((name.to_string(), encode_frame(&msg).expect("encode request")));
    }
    for (name, msg) in responses {
        out.push((name.to_string(), encode_frame(&msg).expect("encode response")));
    }
    out
}

/// A `ServeCheckpoint` file and a two-record journal, as written to disk.
fn persisted(dir: &Path) -> Vec<(String, usize, Vec<u8>)> {
    let ck_path = dir.join("serve.ckpt");
    save_checkpoint(
        &ck_path,
        &ServeCheckpoint {
            seq: u64::MAX,
            model: served_model(),
        },
    )
    .expect("save checkpoint");
    let ck = std::fs::read(&ck_path).expect("read checkpoint");

    let header = JournalRecord::Header(RunHeader {
        seed: u64::MAX,
        faults: vec![
            ScheduledFault {
                channel: Some(1),
                kind: FaultKind::StuckAt(Some(-0.0)),
                from: 3,
                until: 9,
            },
            ScheduledFault {
                channel: None,
                kind: FaultKind::Spike {
                    magnitude: 1e300,
                    p: 5e-324,
                },
                from: 0,
                until: usize::MAX,
            },
        ],
        windows: vec![awkward_floats(), vec![0.1, 0.2]],
        config: SupervisorConfig::default(),
        monitor: None,
    });
    let mark = JournalRecord::CheckpointMark { seq: u64::MAX };
    let mut records = Vec::new();
    for (name, record) in [("journal.header", header), ("journal.mark", mark)] {
        let path = dir.join(format!("{name}.wal"));
        let mut w = JournalWriter::create(&path, 1).expect("journal");
        w.append(&record).expect("append");
        drop(w);
        records.push((name.to_string(), std::fs::read(&path).expect("read journal")));
    }

    let mut out = vec![("checkpoint.serve".to_string(), CHECKPOINT_HEADER_LEN, ck)];
    for (name, bytes) in records {
        out.push((name, JOURNAL_HEADER_LEN, bytes));
    }
    out
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Render one corpus entry as its golden line.
fn golden_line(name: &str, header_len: usize, bytes: &[u8]) -> String {
    let (header, payload) = bytes.split_at(header_len);
    let payload = std::str::from_utf8(payload).expect("payload is UTF-8 JSON");
    assert!(
        !payload.contains('\n'),
        "{name}: compact JSON never carries a raw newline"
    );
    format!("{name} {} {payload}", hex(header))
}

fn corpus_lines() -> Vec<String> {
    let dir = std::env::temp_dir().join(format!("cqm_wire_golden_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let mut lines: Vec<String> = frames()
        .iter()
        .map(|(name, bytes)| golden_line(name, FRAME_HEADER_LEN, bytes))
        .collect();
    for (name, header_len, bytes) in persisted(&dir) {
        lines.push(golden_line(&name, header_len, &bytes));
    }
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    lines
}

/// The golden file's entries as `(name, bytes as written)`.
fn golden_entries() -> Vec<(String, Vec<u8>)> {
    let text = std::fs::read_to_string(golden_path()).expect("golden file");
    text.lines()
        .map(|line| {
            let mut parts = line.splitn(3, ' ');
            let name = parts.next().expect("name").to_string();
            let header = parts.next().expect("header hex");
            let payload = parts.next().expect("payload");
            let mut bytes: Vec<u8> = (0..header.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&header[i..i + 2], 16).expect("hex"))
                .collect();
            bytes.extend_from_slice(payload.as_bytes());
            (name, bytes)
        })
        .collect()
}

#[test]
fn encoder_output_is_byte_identical_to_the_golden_corpus() {
    let lines = corpus_lines();
    let golden = std::fs::read_to_string(golden_path()).expect("golden file");
    let golden: Vec<&str> = golden.lines().collect();
    assert_eq!(
        golden.len(),
        lines.len(),
        "corpus size changed; replace the golden file only with a format version bump"
    );
    for (want, got) in golden.iter().zip(&lines) {
        assert_eq!(*want, got.as_str(), "encoded bytes drifted from the golden corpus");
    }
}

#[test]
fn golden_bytes_decode_and_reencode_unchanged() {
    // Frames and checkpoints written by the old encoder stay readable, and
    // decoding then re-encoding them is the identity.
    let dir = std::env::temp_dir().join(format!("cqm_wire_golden_load_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    for (name, bytes) in golden_entries() {
        if name.starts_with("req.") || name.starts_with("resp.") {
            let header: &[u8; FRAME_HEADER_LEN] =
                bytes[..FRAME_HEADER_LEN].try_into().expect("header bytes");
            let header = parse_header(header).expect("header");
            let payload = &bytes[FRAME_HEADER_LEN..];
            let again = if name.starts_with("req.") {
                let msg: Request = decode_payload(&header, payload).expect("decode request");
                encode_frame(&msg).expect("re-encode")
            } else {
                let msg: Response = decode_payload(&header, payload).expect("decode response");
                encode_frame(&msg).expect("re-encode")
            };
            assert_eq!(again, bytes, "{name}: decode then encode is not the identity");
        } else if name == "checkpoint.serve" {
            let path = dir.join("golden.ckpt");
            std::fs::write(&path, &bytes).expect("write golden checkpoint");
            let loaded: ServeCheckpoint = load_checkpoint(&path).expect("golden checkpoint loads");
            assert_eq!(loaded.seq, u64::MAX);
            assert_eq!(loaded.model, served_model());
        } else {
            let path = dir.join(format!("{name}.wal"));
            std::fs::write(&path, &bytes).expect("write golden journal");
            let scan = scan::<JournalRecord>(&path).expect("golden journal scans");
            assert_eq!(scan.records.len(), 1, "{name}");
            assert_eq!(scan.truncated_bytes, 0, "{name}");
        }
    }
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}
