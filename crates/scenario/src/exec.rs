//! Executing a spec: the bridge from the serializable [`SimSpec`] to the
//! simulator.
//!
//! A [`ResolvedSpec`] is the runnable form: the engine has been looked up
//! in the engine table, the config materialised and the workload seed
//! derived. Everything in the workspace that runs a simulation — the
//! harness worker pool, the crash prober, the spec-file CLI — funnels
//! through this one construction path, so "how a run is built" is defined
//! exactly once.

use dhtm_baselines::registry::{self, Engine, EngineId};
use dhtm_baselines::EngineDispatch;
use dhtm_obs::ProbeRegistry;
use dhtm_sim::driver::{RunLimits, SimulationResult, Simulator};
use dhtm_sim::engine::TxEngine;
use dhtm_sim::machine::Machine;
use dhtm_sim::observer::SimObserver;
use dhtm_sim::workload::Workload;
use dhtm_types::config::SystemConfig;

use crate::spec::{SimSpec, SpecLimits};

/// A spec resolved against the engine table: directly runnable, no
/// further lookups or derivations. Unlike [`SimSpec`] it can also carry a
/// raw (non-overlay) configuration and an explicit workload seed, which is
/// what the crash subsystem and legacy harness entry points need.
#[derive(Debug, Clone)]
pub struct ResolvedSpec {
    /// The engine's table entry.
    pub engine: &'static Engine,
    /// The workload name.
    pub workload: String,
    /// The fully materialised machine configuration.
    pub config: SystemConfig,
    /// Termination limits.
    pub limits: SpecLimits,
    /// The exact seed handed to the workload (already derived).
    pub workload_seed: u64,
}

impl ResolvedSpec {
    /// Resolves a validated spec (panics on an engine outside the table —
    /// the caller validates first; see [`SimSpec::resolve`]).
    pub(crate) fn from_spec(spec: &SimSpec) -> Self {
        let engine =
            registry::resolve(&spec.engine).expect("spec validated: engine is in the table");
        ResolvedSpec {
            engine,
            workload: spec.workload.clone(),
            config: spec.config(),
            limits: spec.limits,
            workload_seed: spec.derived_seed(),
        }
    }

    /// Builds a runnable form directly from raw parts, bypassing the
    /// overlay/seed derivation — for callers that already hold a resolved
    /// configuration and an exact workload seed (the crash matrix).
    ///
    /// # Panics
    ///
    /// Panics if `engine` is not in the engine table.
    pub fn from_parts(
        engine: &EngineId,
        workload: impl Into<String>,
        config: SystemConfig,
        limits: SpecLimits,
        workload_seed: u64,
    ) -> Self {
        let engine = registry::resolve(engine)
            .unwrap_or_else(|| panic!("engine '{engine}' is not in the engine table"));
        ResolvedSpec {
            engine,
            workload: workload.into(),
            config,
            limits,
            workload_seed,
        }
    }

    /// Constructs the run's components: a fresh machine, engine and
    /// workload, plus the driver limits. Callers that need a
    /// [`dhtm_sim::driver::SimulationSession`] (stepping, crash arming)
    /// assemble it from these; everyone else uses [`ResolvedSpec::run`].
    ///
    /// # Panics
    ///
    /// Panics if the workload name is unknown (validated specs cannot hit
    /// this).
    ///
    /// The engine comes back as an [`EngineDispatch`]: a closed enum over
    /// the built-in designs, so the driver's step loop monomorphises to a
    /// match instead of a vtable call.
    pub fn components(&self) -> (Machine, EngineDispatch, Box<dyn Workload>, RunLimits) {
        let machine = Machine::new(self.config.clone());
        let engine = self.engine.build(&self.config);
        let workload = dhtm_workloads::try_by_name(&self.workload, self.workload_seed)
            .unwrap_or_else(|e| panic!("{e}"));
        let limits = RunLimits {
            target_commits: self.limits.target_commits,
            max_cycles: self.limits.max_cycles,
        };
        (machine, engine, workload, limits)
    }

    /// Runs the spec to completion on a fresh machine.
    pub fn run(&self) -> SimulationResult {
        let (mut machine, mut engine, mut workload, limits) = self.components();
        Simulator::new().run(&mut machine, &mut engine, workload.as_mut(), &limits)
    }

    /// Runs the spec with every semantic event streamed to `observer`.
    /// Bit-identical to [`ResolvedSpec::run`].
    pub fn run_with_observer(&self, observer: &mut dyn SimObserver) -> SimulationResult {
        let (mut machine, mut engine, mut workload, limits) = self.components();
        Simulator::new().run_with_observer(
            &mut machine,
            &mut engine,
            workload.as_mut(),
            &limits,
            observer,
        )
    }

    /// The engine's table label.
    pub fn label(&self) -> &str {
        self.engine.label
    }

    /// Runs the spec (optionally observed) and collects the component-stat
    /// registry afterwards: per-core L1s/log buffers, LLC, directory,
    /// persistence domain, memory channel and engine internals.
    ///
    /// The probes are read off the machine and engine only *after* the run
    /// finishes — nothing is sampled on the hot path — so a probed run is
    /// bit-identical to [`ResolvedSpec::run`] (the registry parity tests
    /// enforce this across every engine).
    pub fn run_probed(
        &self,
        observer: Option<&mut dyn SimObserver>,
    ) -> (SimulationResult, ProbeRegistry) {
        let (mut machine, mut engine, mut workload, limits) = self.components();
        let result = match observer {
            Some(obs) => Simulator::new().run_with_observer(
                &mut machine,
                &mut engine,
                workload.as_mut(),
                &limits,
                obs,
            ),
            None => Simulator::new().run(&mut machine, &mut engine, workload.as_mut(), &limits),
        };
        let mut reg = ProbeRegistry::new();
        machine.mem.probes_into(result.stats.total_cycles, &mut reg);
        engine.probes_into(&mut reg);
        (result, reg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SimSpec;
    use dhtm_types::config::BaseConfig;
    use dhtm_types::policy::DesignKind;

    #[test]
    fn resolved_run_matches_direct_simulator_run() {
        let spec = SimSpec::builder(DesignKind::SoftwareOnly, "queue")
            .base(BaseConfig::Small)
            .commits(6)
            .seed(3)
            .build()
            .unwrap();
        let via_spec = spec.run().unwrap().stats;

        // The same run assembled by hand.
        let resolved = spec.resolve().unwrap();
        let (mut machine, mut engine, mut workload, limits) = resolved.components();
        let by_hand = Simulator::new()
            .run(&mut machine, &mut engine, workload.as_mut(), &limits)
            .stats;
        assert_eq!(via_spec, by_hand);
    }

    #[test]
    fn probed_run_is_bit_identical_and_collects_probes() {
        let spec = SimSpec::builder(DesignKind::Dhtm, "hash")
            .base(BaseConfig::Small)
            .commits(8)
            .seed(7)
            .build()
            .unwrap();
        let resolved = spec.resolve().unwrap();
        let plain = resolved.run().stats;
        let (probed, reg) = resolved.run_probed(None);
        assert_eq!(plain, probed.stats);
        assert!(!reg.is_empty());
        assert!(reg.get("llc/hits").is_some());
        assert!(reg.get("channel/busy_cycles").is_some());
        assert!(
            reg.get("core0/log_buffer/inserts").is_some(),
            "DHTM exports its log buffers"
        );
        assert!(reg.get("engine/commit_persist_waits").is_some());
    }

    #[test]
    fn from_parts_respects_the_explicit_seed() {
        let a = ResolvedSpec::from_parts(
            &DesignKind::Dhtm.into(),
            "hash",
            BaseConfig::Small.resolve(),
            SpecLimits {
                target_commits: 5,
                max_cycles: 50_000_000,
            },
            42,
        );
        let b = ResolvedSpec::from_parts(
            &DesignKind::Dhtm.into(),
            "hash",
            BaseConfig::Small.resolve(),
            SpecLimits {
                target_commits: 5,
                max_cycles: 50_000_000,
            },
            43,
        );
        assert_eq!(a.run().stats.committed, 5);
        // Different seeds, different streams (almost surely different cycles).
        assert_ne!(a.run().stats, b.run().stats);
        assert_eq!(a.label(), "DHTM");
    }
}
