#![forbid(unsafe_code)]
//! # dhtm-obs
//!
//! The observability layer: named probes, structured traces and profile
//! tables for the simulator's hot components.
//!
//! The crate sits at the very bottom of the workspace (it depends only on
//! `dhtm_types`), so every component crate — the memory channel, the log
//! buffer, the caches, the coherence layer, the engines — can surface its
//! counters through one vocabulary without dependency cycles:
//!
//! * [`probe::ProbeRegistry`] — a registry of named monotonic counters and
//!   [`probe::PowHistogram`] power-of-two-bucket cycle histograms, with
//!   `scope/component/name` naming (e.g. `core3/log_buffer/peak_occupancy`)
//!   and cheap snapshot/delta semantics.
//! * [`trace::TraceWriter`] — a bounded ring buffer of structured
//!   [`trace::TraceEvent`]s rendered as NDJSON under a versioned schema
//!   ([`trace::TRACE_SCHEMA`]), with a hand-rolled per-line validator (the
//!   container has no serde) used by tests and the CI trace gate.
//! * [`profile`] — end-of-run text tables over flattened probe values
//!   (the `--profile` output of the experiment harness).
//! * [`json::JsonValue`] — a minimal recursive JSON value (objects, arrays,
//!   strings, unsigned integers) with a canonical compact writer, for the
//!   simulation service's `dhtm-svc-v1` protocol and its persisted result
//!   records. The trace validator above parses through it, and
//!   [`json::quote`] is the string escaper of every JSON writer in
//!   the workspace.
//!
//! Components themselves keep plain integer counters that are always on
//! (the same discipline as the coherence layer's `MemStats`: a handful of
//! adds per event). The registry, trace and profile machinery only runs
//! when a caller asks for it after a run — uninstrumented runs never build
//! a registry, never format a string, never touch this crate's code.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod json;
pub mod probe;
pub mod profile;
pub mod trace;

pub use json::JsonValue;
pub use probe::{PowHistogram, ProbeRegistry, ProbeSnapshot, ProbeValue};
pub use trace::{
    event_from_line, parse_line, validate_line, TraceEvent, TraceWriter, TRACE_SCHEMA,
};
