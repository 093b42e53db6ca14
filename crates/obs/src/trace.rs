//! Structured NDJSON trace events with a versioned schema and a bounded
//! ring buffer for long runs.
//!
//! One [`TraceEvent`] is one NDJSON line: a flat JSON object whose
//! reserved keys are `schema` (always [`TRACE_SCHEMA`]), `kind`, `cell`,
//! `cycle` and optionally `core`, followed by event-specific numeric
//! fields. Keeping the object flat means the hand-rolled validator
//! ([`validate_line`]) can fully parse every line — strings and unsigned
//! integers only, no nesting — which is what the CI trace gate runs over
//! the harness's emitted file.

use std::fmt::Write as _;

use crate::json::{quote, JsonValue};

/// The trace schema identifier carried by every emitted line. Bump the
/// suffix when the line format changes incompatibly.
pub const TRACE_SCHEMA: &str = "dhtm-trace-v1";

/// Default ring-buffer capacity of a [`TraceWriter`]: enough for every
/// event of a quick-mode matrix, bounded for paper-scale runs.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

/// One structured trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event kind: `begin`, `commit`, `abort`, `durable`, `crash_point`,
    /// `probes` or `run_end`.
    pub kind: String,
    /// The run/cell label the event belongs to (experiment cell
    /// coordinates, spec label, ...).
    pub cell: String,
    /// The core the event happened on, when it is core-attributed.
    pub core: Option<usize>,
    /// Simulated cycle of the event.
    pub cycle: u64,
    /// Event-specific numeric fields, emitted in the given order.
    pub fields: Vec<(String, u64)>,
}

impl TraceEvent {
    /// A new event with no extra fields.
    pub fn new(kind: impl Into<String>, cell: impl Into<String>, cycle: u64) -> Self {
        TraceEvent {
            kind: kind.into(),
            cell: cell.into(),
            core: None,
            cycle,
            fields: Vec::new(),
        }
    }

    /// Sets the core attribution (builder-style).
    pub fn on_core(mut self, core: usize) -> Self {
        self.core = Some(core);
        self
    }

    /// Appends a numeric field (builder-style).
    pub fn field(mut self, name: impl Into<String>, value: u64) -> Self {
        self.fields.push((name.into(), value));
        self
    }

    /// Renders the event as one NDJSON line (no trailing newline).
    pub fn to_ndjson(&self) -> String {
        let mut out = String::with_capacity(96 + self.fields.len() * 24);
        let _ = write!(
            out,
            "{{\"schema\":\"{TRACE_SCHEMA}\",\"kind\":{},\"cell\":{}",
            quote(&self.kind),
            quote(&self.cell),
        );
        if let Some(core) = self.core {
            let _ = write!(out, ",\"core\":{core}");
        }
        let _ = write!(out, ",\"cycle\":{}", self.cycle);
        for (name, value) in &self.fields {
            let _ = write!(out, ",{}:{value}", quote(name));
        }
        out.push('}');
        out
    }
}

/// A bounded ring buffer of trace events rendered to NDJSON on demand.
///
/// Long runs emit far more events than anyone replays; the writer keeps the
/// most recent `capacity` events and counts what it dropped, so the memory
/// bound is fixed no matter how long the simulation runs.
#[derive(Debug, Clone)]
pub struct TraceWriter {
    capacity: usize,
    events: std::collections::VecDeque<TraceEvent>,
    seen: u64,
    dropped: u64,
}

impl Default for TraceWriter {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_TRACE_CAPACITY)
    }
}

impl TraceWriter {
    /// A writer retaining at most `capacity` events (oldest dropped first).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        TraceWriter {
            capacity,
            events: std::collections::VecDeque::new(),
            seen: 0,
            dropped: 0,
        }
    }

    /// Records one event, dropping the oldest retained event when full.
    pub fn record(&mut self, event: TraceEvent) {
        self.seen += 1;
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no event is retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total events ever recorded (retained + dropped).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Events dropped by the ring bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Renders every retained event as NDJSON lines, oldest first.
    pub fn lines(&self) -> Vec<String> {
        self.events.iter().map(TraceEvent::to_ndjson).collect()
    }
}

/// Parses one flat trace-line JSON object into `(key, value)` pairs in
/// source order: [`JsonValue::parse`] plus a check that every value is a
/// string or an unsigned integer (no nesting), which is the subset
/// [`TraceEvent::to_ndjson`] emits.
///
/// # Errors
///
/// Returns a message locating the first malformed construct.
pub fn parse_line(line: &str) -> Result<Vec<(String, JsonValue)>, String> {
    let JsonValue::Object(pairs) = JsonValue::parse(line)? else {
        return Err("a trace line must be a JSON object".to_string());
    };
    if let Some((key, _)) = pairs
        .iter()
        .find(|(_, v)| !matches!(v, JsonValue::Str(_) | JsonValue::UInt(_)))
    {
        return Err(format!(
            "field '{key}' must be a string or an unsigned integer"
        ));
    }
    Ok(pairs)
}

/// Validates one NDJSON trace line against [`TRACE_SCHEMA`]: the line must
/// parse as a flat object, carry `schema == dhtm-trace-v1`, a non-empty
/// string `kind`, a string `cell`, an unsigned `cycle`, an unsigned `core`
/// if present, and nothing but unsigned integers elsewhere.
///
/// # Errors
///
/// Returns a message naming the violated constraint.
pub fn validate_line(line: &str) -> Result<(), String> {
    event_from_line(line).map(drop)
}

/// Parses a validated line back into a [`TraceEvent`] (the inverse of
/// [`TraceEvent::to_ndjson`]).
///
/// # Errors
///
/// Returns the first violated constraint of [`validate_line`].
pub fn event_from_line(line: &str) -> Result<TraceEvent, String> {
    let pairs = parse_line(line)?;
    let get = |key: &str| pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    match get("schema").and_then(JsonValue::as_str) {
        Some(TRACE_SCHEMA) => {}
        Some(s) => return Err(format!("schema '{s}' != '{TRACE_SCHEMA}'")),
        None => return Err("missing string field 'schema'".to_string()),
    }
    let mut event = TraceEvent::new("", "", 0);
    match get("kind").and_then(JsonValue::as_str) {
        Some(kind) if !kind.is_empty() => event.kind = kind.to_string(),
        _ => return Err("missing non-empty string field 'kind'".to_string()),
    }
    match get("cell").and_then(JsonValue::as_str) {
        Some(cell) => event.cell = cell.to_string(),
        None => return Err("missing string field 'cell'".to_string()),
    }
    match get("cycle").and_then(JsonValue::as_u64) {
        Some(cycle) => event.cycle = cycle,
        None => return Err("missing unsigned field 'cycle'".to_string()),
    }
    for (key, value) in &pairs {
        match (key.as_str(), value.as_u64()) {
            ("schema" | "kind" | "cell" | "cycle", _) => {}
            ("core", Some(core)) => event.core = Some(core as usize),
            (_, Some(v)) => event.fields.push((key.clone(), v)),
            (other, None) => return Err(format!("field '{other}' must be an unsigned integer")),
        }
    }
    Ok(event)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_render_the_versioned_schema() {
        let line = TraceEvent::new("commit", "fig5/so/hash", 1234)
            .on_core(3)
            .field("committed", 7)
            .to_ndjson();
        assert_eq!(
            line,
            "{\"schema\":\"dhtm-trace-v1\",\"kind\":\"commit\",\"cell\":\"fig5/so/hash\",\
             \"core\":3,\"cycle\":1234,\"committed\":7}"
        );
        assert!(validate_line(&line).is_ok());
    }

    #[test]
    fn round_trip_preserves_every_field() {
        let event = TraceEvent::new("abort", "cell \"x\"\n", 42)
            .on_core(0)
            .field("reason", 2)
            .field("retry_at", 99);
        let back = event_from_line(&event.to_ndjson()).unwrap();
        assert_eq!(back, event);
        // And without core attribution.
        let bare = TraceEvent::new("probes", "c", u64::MAX);
        assert_eq!(event_from_line(&bare.to_ndjson()).unwrap(), bare);
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        for (line, why) in [
            ("", "empty"),
            ("{\"kind\":\"x\"}", "no schema"),
            (
                "{\"schema\":\"dhtm-trace-v0\",\"kind\":\"x\",\"cell\":\"c\",\"cycle\":1}",
                "wrong schema version",
            ),
            (
                "{\"schema\":\"dhtm-trace-v1\",\"kind\":\"\",\"cell\":\"c\",\"cycle\":1}",
                "empty kind",
            ),
            (
                "{\"schema\":\"dhtm-trace-v1\",\"kind\":\"x\",\"cell\":\"c\"}",
                "missing cycle",
            ),
            (
                "{\"schema\":\"dhtm-trace-v1\",\"kind\":\"x\",\"cell\":\"c\",\"cycle\":-1}",
                "negative cycle",
            ),
            (
                "{\"schema\":\"dhtm-trace-v1\",\"kind\":\"x\",\"cell\":\"c\",\"cycle\":1,\"f\":\"s\"}",
                "string extra field",
            ),
            (
                "{\"schema\":\"dhtm-trace-v1\",\"kind\":\"x\",\"cell\":\"c\",\"cycle\":1}}",
                "trailing garbage",
            ),
            (
                "{\"schema\":\"dhtm-trace-v1\",\"kind\":\"x\",\"cell\":\"c\",\"cycle\":1,\"cycle\":2}",
                "duplicate key",
            ),
            ("not json", "not json"),
        ] {
            assert!(validate_line(line).is_err(), "accepted {why}: {line}");
        }
    }

    #[test]
    fn ring_buffer_bounds_memory_and_counts_drops() {
        let mut w = TraceWriter::with_capacity(3);
        for i in 0..10u64 {
            w.record(TraceEvent::new("begin", "c", i));
        }
        assert_eq!(w.len(), 3);
        assert_eq!(w.seen(), 10);
        assert_eq!(w.dropped(), 7);
        let cycles: Vec<u64> = w.events().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![7, 8, 9], "oldest events dropped first");
        assert_eq!(w.lines().len(), 3);
        assert!(!w.is_empty());
    }

    #[test]
    fn default_capacity_is_bounded_and_positive() {
        let w = TraceWriter::default();
        assert!(w.is_empty());
        assert_eq!(w.seen(), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        TraceWriter::with_capacity(0);
    }

    #[test]
    fn parse_line_handles_escapes_and_overflow() {
        let pairs = parse_line("{\"a\":\"x\\u0041\\n\",\"b\":18446744073709551615}").unwrap();
        assert_eq!(pairs[0].1, JsonValue::Str("xA\n".to_string()));
        assert_eq!(pairs[1].1, JsonValue::UInt(u64::MAX));
        assert!(parse_line("{\"b\":18446744073709551616}").is_err());
    }
}
