#![forbid(unsafe_code)]
//! # dhtm-scenario
//!
//! The typed scenario API: one serializable entry point —
//! [`spec::SimSpec`] — for constructing any simulation run in the
//! workspace, decoupling experiment *description* from simulator
//! internals.
//!
//! A spec names:
//!
//! * an **engine** by [`dhtm_baselines::registry::EngineId`] (any entry
//!   of the engine table [`dhtm_baselines::registry::ENGINES`]: the six
//!   designs or a built-in DHTM variant),
//! * a **workload** by name,
//! * a machine as a named [`dhtm_types::config::BaseConfig`] plus a sparse
//!   [`dhtm_types::config::ConfigOverlay`],
//! * run **limits** (commit target, cycle cap) and a base **seed**.
//!
//! Specs round-trip through TOML ([`mod@format`]), carry a stable
//! [`spec::SimSpec::content_hash`] identity and reproduce the experiment
//! harness's per-cell seed derivation exactly
//! ([`spec::SimSpec::derived_seed`]), so a spec file is a complete,
//! reproducible description of a run. [`exec`] resolves a spec against the
//! engine table and executes it; to watch a run as it executes, pass a
//! [`dhtm_sim::observer::SimObserver`] to
//! [`exec::ResolvedSpec::run_probed`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod exec;
pub mod format;
pub mod pool;
pub mod result;
pub mod spec;
pub mod trace;

pub use exec::ResolvedSpec;
pub use result::{RunRecord, RESULT_SCHEMA};
pub use spec::{SimSpec, SimSpecBuilder, SpecError, SpecLimits};
pub use trace::TraceRecorder;

/// The base seed every experiment uses unless a spec overrides it (the
/// value `dhtm_harness::EXPERIMENT_SEED` re-exports).
pub const DEFAULT_SEED: u64 = 0x15CA_2018;
