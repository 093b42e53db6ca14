//! The `dhtm-svc-v1` wire protocol: length-framed single-line JSON
//! messages over a byte stream.
//!
//! ## Framing
//!
//! Each message is one frame:
//!
//! ```text
//! <decimal payload length>\n<payload bytes>\n
//! ```
//!
//! The header is ASCII digits only (no sign, no leading zeros beyond a
//! lone `0`), capped at [`MAX_FRAME_LEN`]; the payload is exactly that
//! many bytes of UTF-8, followed by one terminating newline. Everything
//! about the frame is bounded and checked *before* any allocation-driven
//! read, so a corrupted or hostile stream produces a
//! [`ProtoError::Malformed`] promptly instead of an unbounded read or a
//! hang — the property the protocol's mutation proptest pins.
//!
//! ## Payloads
//!
//! Payloads are [`JsonValue`] objects tagged `"v": "dhtm-svc-v1"` and a
//! `"type"` discriminator. Specs travel as their canonical TOML text in
//! JSON strings — the wire carries the exact content-hash pre-image, so
//! client and server cannot disagree about a spec's identity. Finished
//! results travel as embedded [`RunRecord`] objects in their canonical
//! form, so a served result re-renders byte-identically on any peer.

use std::io::{BufRead, Write};

use dhtm_obs::json::JsonValue;
use dhtm_scenario::{RunRecord, SimSpec};

/// Protocol version tag carried by every message.
pub const PROTO_SCHEMA: &str = "dhtm-svc-v1";

/// Upper bound on one frame's payload (32 MiB — thousands of specs per
/// batch fit with two orders of magnitude to spare).
pub const MAX_FRAME_LEN: usize = 32 << 20;

/// Maximum digits accepted in a frame-length header (`MAX_FRAME_LEN` has
/// eight; anything longer is garbage, not a bigger frame).
const MAX_HEADER_DIGITS: usize = 9;

/// Protocol failures.
#[derive(Debug)]
pub enum ProtoError {
    /// Transport failure: the socket died, timed out or hit EOF mid-frame.
    Io(std::io::Error),
    /// The bytes violate the framing or message grammar.
    Malformed(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "transport error: {e}"),
            ProtoError::Malformed(msg) => write!(f, "malformed {PROTO_SCHEMA} message: {msg}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e)
    }
}

fn malformed(msg: impl Into<String>) -> ProtoError {
    ProtoError::Malformed(msg.into())
}

/// Writes one frame (header, payload, terminator). Does not flush.
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_frame<W: Write + ?Sized>(w: &mut W, payload: &str) -> std::io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME_LEN, "oversized frame");
    write!(w, "{}\n{}\n", payload.len(), payload)
}

/// Reads one frame's payload. `Ok(None)` on clean EOF *at a frame
/// boundary*; EOF anywhere inside a frame is [`ProtoError::Io`], and any
/// grammar violation (non-digit header, oversized length, missing
/// terminator, non-UTF-8 payload) is [`ProtoError::Malformed`].
///
/// # Errors
///
/// As above.
pub fn read_frame<R: BufRead + ?Sized>(r: &mut R) -> Result<Option<String>, ProtoError> {
    // Header: digits up to '\n', bounded.
    let mut header = Vec::with_capacity(MAX_HEADER_DIGITS + 1);
    let mut byte = [0u8; 1];
    loop {
        match r.read(&mut byte) {
            Ok(0) => {
                if header.is_empty() {
                    return Ok(None); // clean EOF between frames
                }
                return Err(ProtoError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "EOF inside a frame header",
                )));
            }
            Ok(_) => {}
            Err(e) => return Err(ProtoError::Io(e)),
        }
        if byte[0] == b'\n' {
            break;
        }
        if !byte[0].is_ascii_digit() {
            return Err(malformed(format!(
                "frame header contains non-digit byte 0x{:02x}",
                byte[0]
            )));
        }
        header.push(byte[0]);
        if header.len() > MAX_HEADER_DIGITS {
            return Err(malformed("frame header longer than 9 digits"));
        }
    }
    if header.is_empty() {
        return Err(malformed("empty frame header"));
    }
    if header.len() > 1 && header[0] == b'0' {
        return Err(malformed("frame header has a leading zero"));
    }
    let len: usize = std::str::from_utf8(&header)
        .expect("digits are UTF-8")
        .parse()
        .map_err(|_| malformed("unparseable frame length"))?;
    if len > MAX_FRAME_LEN {
        return Err(malformed(format!(
            "frame length {len} exceeds {MAX_FRAME_LEN}"
        )));
    }

    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    r.read_exact(&mut byte)?;
    if byte[0] != b'\n' {
        return Err(malformed("frame payload not newline-terminated"));
    }
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| malformed("frame payload is not UTF-8"))
}

/// A client-to-server request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run (or serve from cache) a batch of specs, streaming events back.
    Submit {
        /// Client-chosen batch id, echoed in every event for this batch.
        batch: u64,
        /// The specs, in submission order.
        specs: Vec<SimSpec>,
    },
    /// Report queue/cache/worker counters.
    Status,
    /// Serve one previously computed result by hash, if stored.
    Result {
        /// The spec's content hash in canonical hex form.
        hash_hex: String,
    },
    /// Drain queued work, then stop the server.
    Shutdown,
}

/// How a submitted spec was classified against the dedup layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Fresh work: enqueued for a worker.
    Queued,
    /// Deduplicated against a job already queued/running for another
    /// client (or an earlier batch on this connection).
    Inflight,
    /// Served from the persistent on-disk store.
    HitDisk,
    /// Served from a completed job still resident in the job table.
    HitMemory,
    /// A duplicate of an earlier index in the *same* batch.
    DupBatch,
}

impl Disposition {
    /// Wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Disposition::Queued => "queued",
            Disposition::Inflight => "inflight",
            Disposition::HitDisk => "hit-disk",
            Disposition::HitMemory => "hit-memory",
            Disposition::DupBatch => "dup-batch",
        }
    }

    /// Parses the wire name.
    pub fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "queued" => Disposition::Queued,
            "inflight" => Disposition::Inflight,
            "hit-disk" => Disposition::HitDisk,
            "hit-memory" => Disposition::HitMemory,
            "dup-batch" => Disposition::DupBatch,
            _ => return None,
        })
    }
}

/// Server counters reported by `status`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatusReport {
    /// Jobs waiting for a worker.
    pub queued: u64,
    /// Jobs currently executing.
    pub running: u64,
    /// Completed jobs still resident in the job table.
    pub done: u64,
    /// Jobs whose execution failed.
    pub failed: u64,
    /// Specs received across all submits.
    pub submitted: u64,
    /// Results served (every spec of every batch, cached or fresh).
    pub served: u64,
    /// Simulations actually executed.
    pub executed: u64,
    /// Serves satisfied by the on-disk store.
    pub hits_disk: u64,
    /// Serves satisfied by a completed in-memory job.
    pub hits_memory: u64,
    /// Serves deduplicated onto an in-flight job.
    pub inflight_dedups: u64,
    /// Store records rejected as corrupt/stale (each forced a recompute).
    pub store_rejects: u64,
    /// Result files currently in the store directory.
    pub store_entries: u64,
    /// Worker-pool size.
    pub workers: u64,
    /// Total nanoseconds workers spent executing simulations.
    pub worker_busy_ns: u64,
}

/// A server-to-client event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Classification of one submitted spec (first event per index).
    Job {
        /// Echo of the submit's batch id.
        batch: u64,
        /// Index of the spec within the batch.
        index: u64,
        /// The spec's content hash.
        hash_hex: String,
        /// How the dedup layers classified it.
        disposition: Disposition,
    },
    /// A worker started executing the job.
    Begin {
        /// The job's content hash.
        hash_hex: String,
    },
    /// Commit-window throughput sample from the running job: sent every
    /// `max(target_commits / 4, 1)` commits.
    Window {
        /// The job's content hash.
        hash_hex: String,
        /// Commits so far.
        commits: u64,
        /// Simulated cycle of the latest commit.
        cycle: u64,
        /// Commits in this window.
        window_commits: u64,
        /// Simulated cycles this window spans.
        window_cycles: u64,
    },
    /// Terminal event for one batch index: the result.
    Done {
        /// Echo of the submit's batch id.
        batch: u64,
        /// Index of the spec within the batch.
        index: u64,
        /// The spec's content hash.
        hash_hex: String,
        /// True when served from a cache layer (disk or completed job)
        /// rather than an execution triggered by this batch.
        cached: bool,
        /// The canonical result record (boxed: it dwarfs every
        /// other variant).
        record: Box<RunRecord>,
    },
    /// Terminal event for one batch index: execution failed.
    Failed {
        /// Echo of the submit's batch id.
        batch: u64,
        /// Index of the spec within the batch.
        index: u64,
        /// The spec's content hash.
        hash_hex: String,
        /// What went wrong.
        error: String,
    },
    /// All indices of the batch have terminal events.
    BatchDone {
        /// Echo of the submit's batch id.
        batch: u64,
        /// Specs in the batch.
        specs: u64,
        /// Distinct content hashes.
        unique: u64,
        /// `specs - unique`.
        duplicates: u64,
        /// Indices served from a cache layer.
        cache_hits: u64,
        /// Simulations this batch caused to execute.
        executed: u64,
    },
    /// Reply to `status`.
    StatusOk(StatusReport),
    /// The request could not be processed (bad spec, unknown hash, ...).
    Error {
        /// Human-readable reason.
        message: String,
    },
    /// Reply to `shutdown`: queued work will drain, then the server exits.
    ShutdownOk,
}

fn tagged(type_name: &str, mut rest: Vec<(String, JsonValue)>) -> JsonValue {
    let mut pairs = vec![
        ("v".to_string(), JsonValue::Str(PROTO_SCHEMA.to_string())),
        ("type".to_string(), JsonValue::Str(type_name.to_string())),
    ];
    pairs.append(&mut rest);
    JsonValue::Object(pairs)
}

fn str_pair(key: &str, value: &str) -> (String, JsonValue) {
    (key.to_string(), JsonValue::Str(value.to_string()))
}

fn uint_pair(key: &str, value: u64) -> (String, JsonValue) {
    (key.to_string(), JsonValue::UInt(value))
}

/// Encodes a request to its payload text.
pub fn encode_request(req: &Request) -> String {
    match req {
        Request::Submit { batch, specs } => tagged(
            "submit",
            vec![
                uint_pair("batch", *batch),
                (
                    "specs".to_string(),
                    JsonValue::Array(specs.iter().map(|s| JsonValue::Str(s.to_toml())).collect()),
                ),
            ],
        ),
        Request::Status => tagged("status", vec![]),
        Request::Result { hash_hex } => tagged("result", vec![str_pair("hash", hash_hex)]),
        Request::Shutdown => tagged("shutdown", vec![]),
    }
    .render()
}

/// Encodes an event to its payload text.
pub fn encode_event(ev: &Event) -> String {
    match ev {
        Event::Job {
            batch,
            index,
            hash_hex,
            disposition,
        } => tagged(
            "job",
            vec![
                uint_pair("batch", *batch),
                uint_pair("index", *index),
                str_pair("hash", hash_hex),
                str_pair("state", disposition.as_str()),
            ],
        ),
        Event::Begin { hash_hex } => tagged("begin", vec![str_pair("hash", hash_hex)]),
        Event::Window {
            hash_hex,
            commits,
            cycle,
            window_commits,
            window_cycles,
        } => tagged(
            "window",
            vec![
                str_pair("hash", hash_hex),
                uint_pair("commits", *commits),
                uint_pair("cycle", *cycle),
                uint_pair("window_commits", *window_commits),
                uint_pair("window_cycles", *window_cycles),
            ],
        ),
        Event::Done {
            batch,
            index,
            hash_hex,
            cached,
            record,
        } => tagged(
            "done",
            vec![
                uint_pair("batch", *batch),
                uint_pair("index", *index),
                str_pair("hash", hash_hex),
                uint_pair("cached", u64::from(*cached)),
                ("record".to_string(), record.to_value()),
            ],
        ),
        Event::Failed {
            batch,
            index,
            hash_hex,
            error,
        } => tagged(
            "failed",
            vec![
                uint_pair("batch", *batch),
                uint_pair("index", *index),
                str_pair("hash", hash_hex),
                str_pair("error", error),
            ],
        ),
        Event::BatchDone {
            batch,
            specs,
            unique,
            duplicates,
            cache_hits,
            executed,
        } => tagged(
            "batch_done",
            vec![
                uint_pair("batch", *batch),
                uint_pair("specs", *specs),
                uint_pair("unique", *unique),
                uint_pair("duplicates", *duplicates),
                uint_pair("cache_hits", *cache_hits),
                uint_pair("executed", *executed),
            ],
        ),
        Event::StatusOk(s) => tagged(
            "status_ok",
            vec![
                uint_pair("queued", s.queued),
                uint_pair("running", s.running),
                uint_pair("done", s.done),
                uint_pair("failed", s.failed),
                uint_pair("submitted", s.submitted),
                uint_pair("served", s.served),
                uint_pair("executed", s.executed),
                uint_pair("hits_disk", s.hits_disk),
                uint_pair("hits_memory", s.hits_memory),
                uint_pair("inflight_dedups", s.inflight_dedups),
                uint_pair("store_rejects", s.store_rejects),
                uint_pair("store_entries", s.store_entries),
                uint_pair("workers", s.workers),
                uint_pair("worker_busy_ns", s.worker_busy_ns),
            ],
        ),
        Event::Error { message } => tagged("error", vec![str_pair("message", message)]),
        Event::ShutdownOk => tagged("shutdown_ok", vec![]),
    }
    .render()
}

fn parse_envelope(payload: &str) -> Result<(String, JsonValue), ProtoError> {
    let v = JsonValue::parse(payload).map_err(malformed)?;
    match v.get("v").and_then(JsonValue::as_str) {
        Some(tag) if tag == PROTO_SCHEMA => {}
        Some(tag) => return Err(malformed(format!("version '{tag}' != '{PROTO_SCHEMA}'"))),
        None => return Err(malformed("missing string field 'v'")),
    }
    let type_name = v
        .get("type")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| malformed("missing string field 'type'"))?
        .to_string();
    Ok((type_name, v))
}

fn need_u64(v: &JsonValue, key: &str) -> Result<u64, ProtoError> {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| malformed(format!("missing unsigned field '{key}'")))
}

fn need_str(v: &JsonValue, key: &str) -> Result<String, ProtoError> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| malformed(format!("missing string field '{key}'")))
}

/// Decodes a request payload.
///
/// # Errors
///
/// [`ProtoError::Malformed`] on any grammar violation, including specs
/// whose TOML does not parse.
pub fn decode_request(payload: &str) -> Result<Request, ProtoError> {
    let (type_name, v) = parse_envelope(payload)?;
    match type_name.as_str() {
        "submit" => {
            let batch = need_u64(&v, "batch")?;
            let specs = v
                .get("specs")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| malformed("missing array field 'specs'"))?
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let toml = s
                        .as_str()
                        .ok_or_else(|| malformed(format!("spec {i} is not a string")))?;
                    SimSpec::from_toml(toml)
                        .map_err(|e| malformed(format!("spec {i} does not parse: {e}")))
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Request::Submit { batch, specs })
        }
        "status" => Ok(Request::Status),
        "result" => Ok(Request::Result {
            hash_hex: need_str(&v, "hash")?,
        }),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(malformed(format!("unknown request type '{other}'"))),
    }
}

/// Decodes an event payload.
///
/// # Errors
///
/// [`ProtoError::Malformed`] on any grammar violation, including embedded
/// records that fail [`RunRecord::from_value`]'s strict checks.
pub fn decode_event(payload: &str) -> Result<Event, ProtoError> {
    let (type_name, v) = parse_envelope(payload)?;
    match type_name.as_str() {
        "job" => {
            let state = need_str(&v, "state")?;
            Ok(Event::Job {
                batch: need_u64(&v, "batch")?,
                index: need_u64(&v, "index")?,
                hash_hex: need_str(&v, "hash")?,
                disposition: Disposition::from_name(&state)
                    .ok_or_else(|| malformed(format!("unknown job state '{state}'")))?,
            })
        }
        "begin" => Ok(Event::Begin {
            hash_hex: need_str(&v, "hash")?,
        }),
        "window" => Ok(Event::Window {
            hash_hex: need_str(&v, "hash")?,
            commits: need_u64(&v, "commits")?,
            cycle: need_u64(&v, "cycle")?,
            window_commits: need_u64(&v, "window_commits")?,
            window_cycles: need_u64(&v, "window_cycles")?,
        }),
        "done" => {
            let record = v
                .get("record")
                .ok_or_else(|| malformed("missing object field 'record'"))?;
            let record = RunRecord::from_value(record)
                .map_err(|e| malformed(format!("embedded record: {e}")))
                .map(Box::new)?;
            let cached = match need_u64(&v, "cached")? {
                0 => false,
                1 => true,
                other => return Err(malformed(format!("cached flag {other} not in {{0,1}}"))),
            };
            let hash_hex = need_str(&v, "hash")?;
            if hash_hex != record.content_hash_hex() {
                return Err(malformed(format!(
                    "done hash '{hash_hex}' does not match its record ('{}')",
                    record.content_hash_hex()
                )));
            }
            Ok(Event::Done {
                batch: need_u64(&v, "batch")?,
                index: need_u64(&v, "index")?,
                hash_hex,
                cached,
                record,
            })
        }
        "failed" => Ok(Event::Failed {
            batch: need_u64(&v, "batch")?,
            index: need_u64(&v, "index")?,
            hash_hex: need_str(&v, "hash")?,
            error: need_str(&v, "error")?,
        }),
        "batch_done" => Ok(Event::BatchDone {
            batch: need_u64(&v, "batch")?,
            specs: need_u64(&v, "specs")?,
            unique: need_u64(&v, "unique")?,
            duplicates: need_u64(&v, "duplicates")?,
            cache_hits: need_u64(&v, "cache_hits")?,
            executed: need_u64(&v, "executed")?,
        }),
        "status_ok" => Ok(Event::StatusOk(StatusReport {
            queued: need_u64(&v, "queued")?,
            running: need_u64(&v, "running")?,
            done: need_u64(&v, "done")?,
            failed: need_u64(&v, "failed")?,
            submitted: need_u64(&v, "submitted")?,
            served: need_u64(&v, "served")?,
            executed: need_u64(&v, "executed")?,
            hits_disk: need_u64(&v, "hits_disk")?,
            hits_memory: need_u64(&v, "hits_memory")?,
            inflight_dedups: need_u64(&v, "inflight_dedups")?,
            store_rejects: need_u64(&v, "store_rejects")?,
            store_entries: need_u64(&v, "store_entries")?,
            workers: need_u64(&v, "workers")?,
            worker_busy_ns: need_u64(&v, "worker_busy_ns")?,
        })),
        "error" => Ok(Event::Error {
            message: need_str(&v, "message")?,
        }),
        "shutdown_ok" => Ok(Event::ShutdownOk),
        other => Err(malformed(format!("unknown event type '{other}'"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhtm_types::config::BaseConfig;
    use dhtm_types::policy::DesignKind;

    fn spec(seed: u64) -> SimSpec {
        SimSpec::builder(DesignKind::Dhtm, "hash")
            .base(BaseConfig::Small)
            .commits(4)
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn frames_round_trip_and_reject_garbage() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello").unwrap();
        write_frame(&mut buf, "").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("hello"));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(""));
        assert_eq!(read_frame(&mut r).unwrap(), None);

        // Non-digit header.
        assert!(matches!(
            read_frame(&mut &b"5x\nhello\n"[..]),
            Err(ProtoError::Malformed(_))
        ));
        // Oversized length: rejected from the header alone.
        assert!(matches!(
            read_frame(&mut &b"999999999\nx\n"[..]),
            Err(ProtoError::Malformed(_))
        ));
        assert!(matches!(
            read_frame(&mut &b"1234567890\nx\n"[..]),
            Err(ProtoError::Malformed(_))
        ));
        // Leading zero and empty header.
        assert!(matches!(
            read_frame(&mut &b"05\nhello\n"[..]),
            Err(ProtoError::Malformed(_))
        ));
        assert!(matches!(
            read_frame(&mut &b"\nhello\n"[..]),
            Err(ProtoError::Malformed(_))
        ));
        // Truncated payload and missing terminator are transport errors,
        // never hangs (a byte slice EOFs; a socket would time out).
        assert!(matches!(
            read_frame(&mut &b"10\nshort\n"[..]),
            Err(ProtoError::Io(_))
        ));
        assert!(matches!(
            read_frame(&mut &b"5\nhelloX"[..]),
            Err(ProtoError::Malformed(_))
        ));
    }

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Submit {
                batch: 7,
                specs: vec![spec(1), spec(2)],
            },
            Request::Submit {
                batch: 0,
                specs: vec![],
            },
            Request::Status,
            Request::Result {
                hash_hex: spec(1).content_hash_hex(),
            },
            Request::Shutdown,
        ];
        for req in &reqs {
            let payload = encode_request(req);
            assert_eq!(&decode_request(&payload).unwrap(), req, "{payload}");
        }
    }

    #[test]
    fn events_round_trip() {
        let s = spec(5);
        let (result, reg) = s.resolve().unwrap().run_probed(None);
        let record = Box::new(RunRecord::from_run(&s, &result.stats, &reg));
        let events = [
            Event::Job {
                batch: 1,
                index: 0,
                hash_hex: s.content_hash_hex(),
                disposition: Disposition::Queued,
            },
            Event::Begin {
                hash_hex: s.content_hash_hex(),
            },
            Event::Window {
                hash_hex: s.content_hash_hex(),
                commits: 4,
                cycle: 900,
                window_commits: 2,
                window_cycles: 300,
            },
            Event::Done {
                batch: 1,
                index: 0,
                hash_hex: s.content_hash_hex(),
                cached: true,
                record: record.clone(),
            },
            Event::Failed {
                batch: 1,
                index: 2,
                hash_hex: s.content_hash_hex(),
                error: "worker panicked".to_string(),
            },
            Event::BatchDone {
                batch: 1,
                specs: 6,
                unique: 3,
                duplicates: 3,
                cache_hits: 2,
                executed: 1,
            },
            Event::StatusOk(StatusReport {
                queued: 1,
                running: 2,
                done: 3,
                failed: 0,
                submitted: 10,
                served: 9,
                executed: 4,
                hits_disk: 3,
                hits_memory: 1,
                inflight_dedups: 1,
                store_rejects: 0,
                store_entries: 4,
                workers: 4,
                worker_busy_ns: 123_456,
            }),
            Event::Error {
                message: "spec 3 does not validate".to_string(),
            },
            Event::ShutdownOk,
        ];
        for ev in &events {
            let payload = encode_event(ev);
            assert_eq!(&decode_event(&payload).unwrap(), ev, "{payload}");
        }
    }

    #[test]
    fn decode_rejects_wrong_version_and_types() {
        let good = encode_request(&Request::Status);
        let wrong_v = good.replacen(PROTO_SCHEMA, "dhtm-svc-v0", 1);
        assert!(decode_request(&wrong_v).is_err());
        assert!(decode_request("{\"type\":\"status\"}").is_err());
        assert!(decode_request(&good.replacen("status", "reboot", 1)).is_err());
        assert!(
            decode_event(&encode_event(&Event::ShutdownOk).replacen("shutdown_ok", "ok", 1))
                .is_err()
        );
        // A done event whose hash disagrees with its embedded record.
        let s = spec(5);
        let (result, reg) = s.resolve().unwrap().run_probed(None);
        let record = Box::new(RunRecord::from_run(&s, &result.stats, &reg));
        let done = encode_event(&Event::Done {
            batch: 0,
            index: 0,
            hash_hex: "0000000000000000".to_string(),
            cached: false,
            record,
        });
        assert!(decode_event(&done).is_err());
    }

    #[test]
    fn submit_rejects_unparseable_specs() {
        let payload = format!(
            "{{\"v\":\"{PROTO_SCHEMA}\",\"type\":\"submit\",\"batch\":1,\"specs\":[\"not toml at all\"]}}"
        );
        assert!(matches!(
            decode_request(&payload),
            Err(ProtoError::Malformed(_))
        ));
    }
}
