//! The wire protocol: length-prefixed, versioned, CRC-guarded frames.
//!
//! On-the-wire frame layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     payload length in bytes (u32)
//! 4       4     protocol version (u32)
//! 8       4     CRC-32 (IEEE) over length ‖ version ‖ payload (u32)
//! 12      n     payload: JSON of a [`Request`] or [`Response`]
//! ```
//!
//! The CRC covers the length and version fields as well as the payload, so
//! a bit flip anywhere in the frame is detected — the same discipline as
//! `cqm-persist`'s journal records, applied to a socket instead of a file.
//! Quality values ride the wire as JSON floats; the vendored `serde_json`
//! is built with `float_roundtrip`, so an `f64` survives encode → decode
//! bit-exactly (the same property the checkpoint tests prove), which is
//! what makes "served answers match in-process answers bit-for-bit" a
//! meaningful claim rather than an approximation.
//!
//! Reading distinguishes three non-frame outcomes, all typed and none a
//! panic: a clean EOF before any header byte ([`FrameRead::Eof`], the peer
//! hung up between frames), a read timeout before any header byte
//! ([`FrameRead::Idle`], nothing in flight — the server's shutdown poll
//! tick), and everything else — torn headers, truncated payloads, CRC
//! mismatches, impossible lengths — as [`ServeError`] values.

use std::io::{ErrorKind, Read, Write};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use cqm_core::pipeline::QualifiedClassification;
use cqm_persist::crc32::Crc32;

use crate::{Result, ServeError};

/// Current protocol version, stamped into every frame.
///
/// Version history:
///
/// * **1** — PR 5: anonymous `Classify`/`ClassifyBatch` requests.
/// * **2** — PR 7: classify requests carry a client-assigned
///   [`RequestId`] so retries are idempotent; responses gained
///   [`Response::ClassifiedDegraded`] (a last-good answer served in
///   Failsafe, flagged as degraded on the wire); [`ServerHealth`] gained
///   the dedup/ladder counters.
/// * **3** — PR 8: classify requests carry an optional tenant key routed
///   through the model registry (`None` = the default tenant); errors
///   gained [`WireErrorKind::UnsupportedVersion`] and
///   [`WireErrorKind::TenantQuarantined`]; [`ServerHealth`] gained the
///   fleet counters. v2 `Classify` frames omit the tenant field, which
///   would decode as `None` here — semantically compatible — but the
///   dedup-window and degraded-answer semantics are keyed per tenant now,
///   so cross-version traffic is refused outright (see
///   [`MIN_PROTOCOL_VERSION`]) rather than half-supported.
pub const PROTOCOL_VERSION: u32 = 3;

/// Oldest protocol version this build still accepts. Frames older than
/// this (and newer than [`PROTOCOL_VERSION`]) are rejected at the header —
/// before any payload allocation — with a typed
/// [`ServeError::ProtocolVersion`], which the server answers with a
/// [`WireErrorKind::UnsupportedVersion`] goodbye instead of hanging or
/// failing the CRC.
pub const MIN_PROTOCOL_VERSION: u32 = 3;

/// Bytes before the payload: length, version, CRC.
pub const FRAME_HEADER_LEN: usize = 4 + 4 + 4;

/// Stand-in for the header while the payload is serialized behind it.
const HEADER_PLACEHOLDER: &str = "\0\0\0\0\0\0\0\0\0\0\0\0";
const _: () = assert!(HEADER_PLACEHOLDER.len() == FRAME_HEADER_LEN);

/// Initial frame buffer size: a classify answer fits without regrowing.
const FRAME_START_CAPACITY: usize = 1024;

/// Refuse frames beyond this payload size (a corrupt or hostile length
/// field must not turn into an OOM): 16 MiB.
pub const MAX_FRAME_LEN: u32 = 16 << 20;

/// Consecutive mid-frame read timeouts tolerated before the peer is
/// declared gone. Only reachable on sockets with a read timeout set (the
/// server polls at ~50 ms, so this is roughly a five-second stall budget).
///
/// This counter resets on any byte of progress, so on its own it does not
/// stop a slow-loris peer trickling one byte per poll interval; the
/// overall frame deadline of [`read_frame_within`] is the real defense,
/// and this is the backstop for callers without one.
const MAX_MID_FRAME_STALLS: u32 = 100;

/// A parsed frame header, CRC not yet verified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Payload length in bytes.
    pub payload_len: u32,
    /// Protocol version the frame was written with.
    pub version: u32,
    /// CRC-32 over length ‖ version ‖ payload.
    pub crc: u32,
}

/// A client-assigned idempotency key: `(session, request)`.
///
/// The client owns both halves — `session` is unique per client instance,
/// `request` increments per logical call — and a retry *reuses* the id of
/// the call it retries. The server's dedup window keys on the pair, so a
/// request whose answer was lost in transit is replayed from cache rather
/// than executed twice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RequestId {
    /// The issuing client session (unique per client instance).
    pub session: u64,
    /// Monotone per-session call counter.
    pub request: u64,
}

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.session, self.request)
    }
}

/// What a client asks the service.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Classify one cue vector.
    Classify {
        /// Idempotency key; retries reuse it.
        id: RequestId,
        /// Which tenant's model answers; `None` routes to the default
        /// tenant.
        tenant: Option<String>,
        /// The cue vector `v_C`.
        cues: Vec<f64>,
    },
    /// Classify a batch atomically: all rows answer or none do.
    ClassifyBatch {
        /// Idempotency key; retries reuse it.
        id: RequestId,
        /// Which tenant's model answers; `None` routes to the default
        /// tenant.
        tenant: Option<String>,
        /// One cue vector per row.
        rows: Vec<Vec<f64>>,
    },
    /// Describe the model being served.
    Snapshot,
    /// Report server load counters.
    Health,
    /// Ask the server to drain and stop.
    Shutdown,
}

/// What the service answers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Answer to [`Request::Classify`].
    Classified {
        /// Class, quality and filter verdict.
        result: QualifiedClassification,
    },
    /// Answer to [`Request::ClassifyBatch`].
    ClassifiedBatch {
        /// One result per request row, in request order.
        results: Vec<QualifiedClassification>,
    },
    /// A *degraded* answer to [`Request::Classify`]: the server is in
    /// Failsafe and serves its last known-good classification instead of
    /// evaluating. The degradation is typed on the wire — a consumer can
    /// (and should) treat this with the suspicion the quality measure
    /// exists to encode, rather than mistake it for a fresh answer.
    ClassifiedDegraded {
        /// The last fresh classification the server produced.
        result: QualifiedClassification,
    },
    /// Answer to [`Request::Snapshot`].
    Snapshot {
        /// The served model's description.
        info: SnapshotInfo,
    },
    /// Answer to [`Request::Health`].
    Health {
        /// Load counters at the time of the request.
        health: ServerHealth,
    },
    /// Acknowledgement of [`Request::Shutdown`].
    ShuttingDown,
    /// Any request the server could not serve, with a typed reason.
    Error {
        /// Why the request failed.
        error: WireError,
    },
}

/// Why a request failed, in vocabulary a client can act on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WireErrorKind {
    /// The bounded queue was full and admission control rejected the
    /// request. Retryable.
    Overloaded,
    /// The request itself was unserviceable (wrong cue dimension,
    /// non-finite cues, uncovered input, malformed frame). Not retryable.
    BadRequest,
    /// The server failed internally. Not the client's fault.
    Internal,
    /// The server is draining; no new work is admitted. Not retryable on
    /// this server instance.
    ShuttingDown,
    /// The peer spoke a protocol version outside
    /// [`MIN_PROTOCOL_VERSION`]..=[`PROTOCOL_VERSION`]. Not retryable on
    /// this connection; upgrade (or downgrade) the client.
    UnsupportedVersion,
    /// The addressed tenant's model is quarantined (its checkpoint failed
    /// to load and the per-tenant breaker is open). Retryable after the
    /// breaker cooldown; peers are unaffected.
    TenantQuarantined,
}

/// A typed error shipped back over the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireError {
    /// Machine-actionable category.
    pub kind: WireErrorKind,
    /// Human-readable specifics.
    pub detail: String,
}

impl WireError {
    /// An admission-control rejection.
    pub fn overloaded() -> Self {
        WireError {
            kind: WireErrorKind::Overloaded,
            detail: "request queue full".into(),
        }
    }

    /// A request the server refuses on its merits.
    pub fn bad_request(detail: impl Into<String>) -> Self {
        WireError {
            kind: WireErrorKind::BadRequest,
            detail: detail.into(),
        }
    }

    /// A server-side failure.
    pub fn internal(detail: impl Into<String>) -> Self {
        WireError {
            kind: WireErrorKind::Internal,
            detail: detail.into(),
        }
    }

    /// The drain-phase refusal.
    pub fn shutting_down() -> Self {
        WireError {
            kind: WireErrorKind::ShuttingDown,
            detail: "server is draining".into(),
        }
    }

    /// The version-negotiation refusal, naming the offending version and
    /// the window this build accepts.
    pub fn unsupported_version(found: u32) -> Self {
        WireError {
            kind: WireErrorKind::UnsupportedVersion,
            detail: format!(
                "frame version {found} outside supported \
                 {MIN_PROTOCOL_VERSION}..={PROTOCOL_VERSION}"
            ),
        }
    }

    /// The bulkhead refusal for a quarantined tenant.
    pub fn tenant_quarantined(tenant: &str, reason: impl Into<String>) -> Self {
        WireError {
            kind: WireErrorKind::TenantQuarantined,
            detail: format!("tenant {tenant:?} quarantined: {}", reason.into()),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.kind {
            WireErrorKind::Overloaded => "overloaded",
            WireErrorKind::BadRequest => "bad request",
            WireErrorKind::Internal => "internal",
            WireErrorKind::ShuttingDown => "shutting down",
            WireErrorKind::UnsupportedVersion => "unsupported version",
            WireErrorKind::TenantQuarantined => "tenant quarantined",
        };
        write!(f, "{kind}: {}", self.detail)
    }
}

/// Description of the model a server is holding.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotInfo {
    /// Checkpoint sequence the server started from (0 = fresh).
    pub checkpoint_seq: u64,
    /// Whether the model came from a checkpoint rather than a fresh load.
    pub warm_started: bool,
    /// Cue dimensionality `n` the model expects.
    pub cue_dim: usize,
    /// Number of context classes the classifier can emit.
    pub num_classes: usize,
    /// The quality filter's operating threshold.
    pub threshold: f64,
    /// Provenance note carried by the model.
    pub note: String,
}

/// Server load counters, as answered to [`Request::Health`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerHealth {
    /// Requests admitted into the queue.
    pub requests: u64,
    /// Cue rows successfully classified.
    pub rows_classified: u64,
    /// Requests turned away by admission control.
    pub rejected: u64,
    /// Admitted requests later evicted by [`DropOldest`].
    ///
    /// [`DropOldest`]: crate::queue::AdmissionPolicy::DropOldest
    pub shed: u64,
    /// Deepest the queue has been.
    pub queue_highwater: u64,
    /// Sessions that ended on a protocol or I/O error.
    pub session_errors: u64,
    /// Retried requests answered from the dedup window instead of being
    /// re-executed.
    pub dedup_hits: u64,
    /// Requests the server executed more than once. The exactly-once
    /// invariant is precisely "this stays 0"; the chaos soak asserts it.
    pub duplicate_executions: u64,
    /// Failsafe answers served from the last-good cache, flagged as
    /// [`Response::ClassifiedDegraded`] on the wire.
    pub degraded_served: u64,
    /// Current degradation-ladder state (`"healthy"`, `"degraded"`,
    /// `"failsafe"`, `"recovering"`), or `None` when no ladder is
    /// configured.
    pub ladder: Option<String>,
    /// Worker threads evaluating requests.
    pub workers: usize,
    /// Whether the server is draining toward shutdown.
    pub draining: bool,
    /// Tenants known to the registry (active + cold + quarantined).
    pub tenants: u64,
    /// Tenants currently quarantined.
    pub tenants_quarantined: u64,
    /// Models loaded from the checkpoint store (cold → active).
    pub warm_loads: u64,
    /// Active models evicted back to their checkpoints by the LRU.
    pub evictions: u64,
    /// Hot swaps that flipped a tenant's routing slot.
    pub swaps: u64,
    /// Hot swaps that failed validation and rolled back to last-good.
    pub swap_rollbacks: u64,
    /// Requests shed by a per-tenant admission budget (the global queue
    /// counters above are untouched by these).
    pub tenant_overloads: u64,
    /// Requests answered with [`WireErrorKind::TenantQuarantined`].
    pub quarantined_answers: u64,
    /// Connections refused for speaking an unsupported protocol version.
    pub version_rejections: u64,
}

/// Encode one message as a complete frame.
///
/// # Errors
///
/// * [`ServeError::Decode`] if the message does not serialize;
/// * [`ServeError::FrameTooLarge`] if the payload exceeds
///   [`MAX_FRAME_LEN`].
pub fn encode_frame<T: Serialize>(msg: &T) -> Result<Vec<u8>> {
    encode_frame_with_version(PROTOCOL_VERSION, msg)
}

/// Encode one message as a frame stamped with an explicit `version` — the
/// cross-version test surface (build the frames an older or newer peer
/// would send) and the version-rejection goodbye path (a goodbye stamped
/// with *our* version so the peer's own header check types the mismatch).
///
/// # Errors
///
/// Same conditions as [`encode_frame`].
pub fn encode_frame_with_version<T: Serialize>(version: u32, msg: &T) -> Result<Vec<u8>> {
    // Serialize straight into the frame behind a placeholder header (NUL
    // bytes keep the buffer valid UTF-8), then fill the header in place.
    let mut text = String::with_capacity(FRAME_START_CAPACITY);
    text.push_str(HEADER_PLACEHOLDER);
    serde_json::to_string_into(&mut text, msg).map_err(|e| ServeError::Decode(e.to_string()))?;
    let mut bytes = text.into_bytes();
    let payload_len = bytes.len() - FRAME_HEADER_LEN;
    if payload_len as u64 > u64::from(MAX_FRAME_LEN) {
        return Err(ServeError::FrameTooLarge {
            len: payload_len as u64,
            max: u64::from(MAX_FRAME_LEN),
        });
    }
    let len_le = (payload_len as u32).to_le_bytes();
    let version_le = version.to_le_bytes();
    let mut crc = Crc32::new();
    crc.update(&len_le);
    crc.update(&version_le);
    crc.update(&bytes[FRAME_HEADER_LEN..]);
    bytes[0..4].copy_from_slice(&len_le);
    bytes[4..8].copy_from_slice(&version_le);
    bytes[8..12].copy_from_slice(&crc.finalize().to_le_bytes());
    Ok(bytes)
}

/// Parse and sanity-check a frame header.
///
/// # Errors
///
/// * [`ServeError::FrameTooLarge`] on a length beyond [`MAX_FRAME_LEN`]
///   (rejected before any allocation);
/// * [`ServeError::ProtocolVersion`] on a frame outside
///   [`MIN_PROTOCOL_VERSION`]..=[`PROTOCOL_VERSION`], in either direction.
pub fn parse_header(bytes: &[u8; FRAME_HEADER_LEN]) -> Result<FrameHeader> {
    let payload_len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    let crc = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if payload_len > MAX_FRAME_LEN {
        return Err(ServeError::FrameTooLarge {
            len: u64::from(payload_len),
            max: u64::from(MAX_FRAME_LEN),
        });
    }
    if !(MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION).contains(&version) {
        return Err(ServeError::ProtocolVersion {
            found: version,
            supported: PROTOCOL_VERSION,
        });
    }
    Ok(FrameHeader {
        payload_len,
        version,
        crc,
    })
}

/// Verify the CRC and decode the payload.
///
/// # Errors
///
/// * [`ServeError::Protocol`] on CRC mismatch or non-UTF-8 payload;
/// * [`ServeError::Decode`] if the intact payload is not a `T`.
pub fn decode_payload<T: Deserialize>(header: &FrameHeader, payload: &[u8]) -> Result<T> {
    let mut crc = Crc32::new();
    crc.update(&header.payload_len.to_le_bytes());
    crc.update(&header.version.to_le_bytes());
    crc.update(payload);
    let actual = crc.finalize();
    if actual != header.crc {
        return Err(ServeError::Protocol(format!(
            "frame CRC mismatch (stored {:#010x}, computed {actual:#010x})",
            header.crc
        )));
    }
    let text = std::str::from_utf8(payload)
        .map_err(|e| ServeError::Protocol(format!("frame payload not UTF-8: {e}")))?;
    serde_json::from_str(text).map_err(|e| ServeError::Decode(e.to_string()))
}

/// Write one message as a frame and flush it.
///
/// # Errors
///
/// Same conditions as [`encode_frame`], plus [`ServeError::Io`] on the
/// socket write.
pub fn write_frame<W: Write, T: Serialize>(w: &mut W, msg: &T) -> Result<()> {
    let bytes = encode_frame(msg)?;
    w.write_all(&bytes)
        .map_err(|e| ServeError::io("writing frame", &e))?;
    w.flush().map_err(|e| ServeError::io("flushing frame", &e))
}

/// Outcome of one read attempt.
#[derive(Debug)]
pub enum FrameRead<T> {
    /// A complete, CRC-verified, decoded frame.
    Frame(T),
    /// Clean EOF before any header byte: the peer hung up between frames.
    Eof,
    /// Read timeout before any header byte: nothing in flight. Only
    /// reachable on sockets with a read timeout configured.
    Idle,
}

/// How far a fill got.
enum Fill {
    Done,
    Eof { got: usize },
    Idle,
}

/// Read exactly `buf.len()` bytes, tolerating interrupts and bounded
/// mid-frame stalls. `started` says whether earlier bytes of this frame
/// were already consumed (a timeout then is a stall, not idleness).
///
/// `deadline` is the shared per-frame deadline: it is armed from `budget`
/// the moment the first byte of the frame has been consumed (never while
/// idling between frames) and then carried across the header and payload
/// fills, so a peer cannot reset the clock with one byte of progress.
fn fill<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    started: bool,
    budget: Option<Duration>,
    deadline: &mut Option<Instant>,
) -> Result<Fill> {
    let mut got = 0usize;
    let mut stalls = 0u32;
    while got < buf.len() {
        if started || got > 0 {
            if deadline.is_none() {
                *deadline = budget.map(|b| Instant::now() + b);
            }
            if let Some(d) = *deadline {
                if Instant::now() >= d {
                    return Err(ServeError::Protocol(
                        "torn frame: per-frame deadline exceeded mid-frame".into(),
                    ));
                }
            }
        }
        match r.read(&mut buf[got..]) {
            Ok(0) => return Ok(Fill::Eof { got }),
            Ok(n) => {
                got += n;
                stalls = 0;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if got == 0 && !started {
                    return Ok(Fill::Idle);
                }
                stalls += 1;
                if stalls >= MAX_MID_FRAME_STALLS {
                    return Err(ServeError::Protocol(
                        "torn frame: peer stalled mid-frame".into(),
                    ));
                }
            }
            Err(e) => return Err(ServeError::io("reading frame", &e)),
        }
    }
    Ok(Fill::Done)
}

/// Read one frame, distinguishing idle and EOF from corruption.
///
/// Equivalent to [`read_frame_within`] with no frame deadline: the only
/// stall defense is the [`MAX_MID_FRAME_STALLS`] backstop.
///
/// # Errors
///
/// * [`ServeError::Protocol`] on a torn header or payload (EOF or a stall
///   mid-frame) and on CRC mismatch;
/// * [`ServeError::FrameTooLarge`] / [`ServeError::ProtocolVersion`] /
///   [`ServeError::Decode`] as for [`parse_header`] and
///   [`decode_payload`];
/// * [`ServeError::Io`] on any other socket failure.
pub fn read_frame<R: Read, T: Deserialize>(r: &mut R) -> Result<FrameRead<T>> {
    read_frame_within(r, None)
}

/// Read one frame with an overall per-frame deadline — the slow-loris
/// defense.
///
/// The clock starts when the first byte of a frame arrives (idling
/// between frames costs nothing) and covers the whole frame: header and
/// payload share one budget, and byte-at-a-time progress does **not**
/// reset it, unlike the stall counter. A peer that starts a frame and
/// cannot finish it within `budget` gets a typed torn-frame error.
///
/// `budget: None` disables the deadline and behaves as [`read_frame`].
///
/// # Errors
///
/// As [`read_frame`], plus [`ServeError::Protocol`] with a
/// "deadline exceeded" detail when the budget runs out mid-frame.
pub fn read_frame_within<R: Read, T: Deserialize>(
    r: &mut R,
    budget: Option<Duration>,
) -> Result<FrameRead<T>> {
    let mut deadline: Option<Instant> = None;
    let mut header_bytes = [0u8; FRAME_HEADER_LEN];
    match fill(r, &mut header_bytes, false, budget, &mut deadline)? {
        Fill::Done => {}
        Fill::Eof { got: 0 } => return Ok(FrameRead::Eof),
        Fill::Eof { got } => {
            return Err(ServeError::Protocol(format!(
                "torn frame: EOF after {got} of {FRAME_HEADER_LEN} header bytes"
            )));
        }
        Fill::Idle => return Ok(FrameRead::Idle),
    }
    let header = match parse_header(&header_bytes) {
        Ok(header) => header,
        Err(version_err @ ServeError::ProtocolVersion { .. }) => {
            // Drain the payload before surfacing the error, leaving the
            // stream at a frame boundary. Closing the socket with unread
            // bytes resets the connection, which can destroy the typed
            // `UnsupportedVersion` goodbye still in flight to the peer.
            // The length already passed the `MAX_FRAME_LEN` cap (checked
            // before the version), so the drain is bounded; a torn drain
            // changes nothing — the version error stands either way.
            let mut remaining = u32::from_le_bytes([
                header_bytes[0],
                header_bytes[1],
                header_bytes[2],
                header_bytes[3],
            ]) as usize;
            let mut scratch = [0u8; 4096];
            while remaining > 0 {
                let take = remaining.min(scratch.len());
                let (chunk, _) = scratch.split_at_mut(take);
                match fill(r, chunk, true, budget, &mut deadline) {
                    Ok(Fill::Done) => remaining -= take,
                    Ok(_) | Err(_) => break,
                }
            }
            return Err(version_err);
        }
        Err(other) => return Err(other),
    };
    let mut payload = vec![0u8; header.payload_len as usize];
    match fill(r, &mut payload, true, budget, &mut deadline)? {
        Fill::Done => {}
        Fill::Eof { got } => {
            return Err(ServeError::Protocol(format!(
                "torn frame: EOF after {got} of {} payload bytes",
                header.payload_len
            )));
        }
        // Unreachable with started=true, but typed rather than asserted.
        Fill::Idle => {
            return Err(ServeError::Protocol(
                "torn frame: peer stalled before payload".into(),
            ));
        }
    }
    Ok(FrameRead::Frame(decode_payload(&header, &payload)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn rid(request: u64) -> RequestId {
        RequestId {
            session: 11,
            request,
        }
    }

    fn request() -> Request {
        Request::ClassifyBatch {
            id: rid(1),
            tenant: Some("office-7".into()),
            rows: vec![vec![0.25, 1.0 / 3.0], vec![-7.5e-3, 42.0]],
        }
    }

    fn read_one<T: Deserialize>(bytes: &[u8]) -> Result<FrameRead<T>> {
        read_frame(&mut Cursor::new(bytes))
    }

    #[test]
    fn round_trip_preserves_floats_bit_exactly() {
        let bytes = encode_frame(&request()).unwrap();
        let back = match read_one::<Request>(&bytes).unwrap() {
            FrameRead::Frame(r) => r,
            other => panic!("expected frame, got {other:?}"),
        };
        let sent = request();
        let (
            Request::ClassifyBatch { id: ia, tenant: ta, rows: a },
            Request::ClassifyBatch { id: ib, tenant: tb, rows: b },
        ) = (&sent, &back)
        else {
            panic!("variant changed in transit: {back:?}");
        };
        assert_eq!(ia, ib);
        assert_eq!(ta, tb);
        for (ra, rb) in a.iter().zip(b.iter()) {
            for (x, y) in ra.iter().zip(rb.iter()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn clean_eof_between_frames_is_not_an_error() {
        assert!(matches!(
            read_one::<Request>(&[]).unwrap(),
            FrameRead::Eof
        ));
    }

    #[test]
    fn every_truncation_is_torn_or_eof_never_a_panic() {
        let bytes = encode_frame(&request()).unwrap();
        for keep in 1..bytes.len() {
            let r = read_one::<Request>(&bytes[..keep]);
            assert!(
                r.is_err(),
                "truncation to {keep} of {} bytes went undetected",
                bytes.len()
            );
        }
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let bytes = encode_frame(&request()).unwrap();
        for i in 0..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 0x01;
            match read_one::<Request>(&corrupted) {
                Err(_) => {}
                Ok(FrameRead::Frame(back)) => {
                    panic!("byte {i} flip went undetected, decoded {back:?}")
                }
                Ok(other) => panic!("byte {i} flip read as {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut bytes = encode_frame(&Request::Health).unwrap();
        bytes[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = read_one::<Request>(&bytes).unwrap_err();
        assert!(matches!(err, ServeError::FrameTooLarge { .. }), "{err}");
    }

    #[test]
    fn future_version_rejected() {
        // A frame claiming a future version with a valid CRC, so the
        // version check (not the CRC) is what rejects it.
        let bytes =
            encode_frame_with_version(PROTOCOL_VERSION + 1, &Request::Health).unwrap();
        let err = read_one::<Request>(&bytes).unwrap_err();
        assert!(
            matches!(err, ServeError::ProtocolVersion { found, .. } if found == PROTOCOL_VERSION + 1),
            "{err}"
        );
    }

    #[test]
    fn below_min_version_rejected() {
        // An old v2 peer's frame: valid CRC, version below the window.
        // Rejected at the header, not as a CRC failure or a hang.
        let bytes =
            encode_frame_with_version(MIN_PROTOCOL_VERSION - 1, &Request::Health).unwrap();
        let err = read_one::<Request>(&bytes).unwrap_err();
        assert!(
            matches!(
                err,
                ServeError::ProtocolVersion { found, supported }
                    if found == MIN_PROTOCOL_VERSION - 1 && supported == PROTOCOL_VERSION
            ),
            "{err}"
        );
    }

    #[test]
    fn explicit_current_version_is_identical_to_default_encode() {
        let a = encode_frame(&request()).unwrap();
        let b = encode_frame_with_version(PROTOCOL_VERSION, &request()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn wrong_type_payload_is_decode_error_not_panic() {
        let bytes = encode_frame(&Response::ShuttingDown).unwrap();
        let err = read_one::<Request>(&bytes).unwrap_err();
        assert!(matches!(err, ServeError::Decode(_)), "{err}");
    }

    #[test]
    fn back_to_back_frames_stream() {
        let mut bytes = encode_frame(&Request::Health).unwrap();
        bytes.extend_from_slice(&encode_frame(&Request::Snapshot).unwrap());
        let mut cursor = Cursor::new(&bytes[..]);
        assert!(matches!(
            read_frame::<_, Request>(&mut cursor).unwrap(),
            FrameRead::Frame(Request::Health)
        ));
        assert!(matches!(
            read_frame::<_, Request>(&mut cursor).unwrap(),
            FrameRead::Frame(Request::Snapshot)
        ));
        assert!(matches!(
            read_frame::<_, Request>(&mut cursor).unwrap(),
            FrameRead::Eof
        ));
    }

    #[test]
    fn oversized_message_refused_at_encode_time() {
        let rows = vec![vec![1.0 / 3.0; 1 << 16]; 16];
        let req = Request::ClassifyBatch {
            id: rid(9),
            tenant: None,
            rows,
        };
        // ~1M floats at ~19 JSON chars each ≈ 20 MB, past the 16 MiB cap.
        assert!(matches!(
            encode_frame(&req),
            Err(ServeError::FrameTooLarge { .. })
        ));
    }

    /// Yields one byte per read call, sleeping `delay` before each — a
    /// slow-loris peer that always makes progress (so the stall counter
    /// never fires) but never finishes in time.
    struct Trickle {
        bytes: Vec<u8>,
        pos: usize,
        delay: Duration,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            std::thread::sleep(self.delay);
            if self.pos >= self.bytes.len() || buf.is_empty() {
                return Ok(0);
            }
            buf[0] = self.bytes[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn frame_deadline_cuts_off_a_byte_at_a_time_trickler() {
        let mut trickle = Trickle {
            bytes: encode_frame(&request()).unwrap(),
            pos: 0,
            delay: Duration::from_millis(5),
        };
        let err = read_frame_within::<_, Request>(&mut trickle, Some(Duration::from_millis(25)))
            .unwrap_err();
        assert!(
            matches!(&err, ServeError::Protocol(msg) if msg.contains("deadline")),
            "expected a deadline error, got {err}"
        );
        // Progress was made (the deadline, not the first read, cut it off)
        // but the frame never completed.
        assert!(trickle.pos > 0 && trickle.pos < trickle.bytes.len());
    }

    #[test]
    fn frame_deadline_does_not_fire_on_a_frame_that_fits_the_budget() {
        let mut trickle = Trickle {
            bytes: encode_frame(&Request::Health).unwrap(),
            pos: 0,
            delay: Duration::from_millis(0),
        };
        let got = read_frame_within::<_, Request>(&mut trickle, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(matches!(got, FrameRead::Frame(Request::Health)));
    }
}
