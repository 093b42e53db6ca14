//! Closed-set engine dispatch for the simulation hot loop.
//!
//! The driver's inner loop calls the engine once or more per simulated
//! step. Routing those calls through `Box<dyn TxEngine>` costs a vtable
//! indirection at every begin/read/write/commit and walls off inlining
//! into the engines' own hot paths. The evaluated designs are a *closed
//! set* — the six canonical engines plus option-carrying DHTM variants —
//! so [`EngineDispatch`] enumerates them and implements
//! [`TxEngine`] by `match`: the generic driver monomorphises over the enum
//! and every engine call becomes direct (and inlinable) dispatch.
//!
//! Specs, matrices and reports resolve engines exclusively by
//! [`crate::registry::EngineId`]; this enum is a dispatch vehicle, not a
//! second identity.

use std::fmt;

use dhtm::DhtmEngine;
use dhtm_sim::engine::{StepOutcome, TxEngine};
use dhtm_sim::locks::LockId;
use dhtm_sim::machine::Machine;
use dhtm_types::addr::Address;
use dhtm_types::ids::CoreId;
use dhtm_types::policy::DesignKind;
use dhtm_types::stats::TxStats;

use crate::{AtomEngine, LogTmAtomEngine, NpEngine, SdTmEngine, SoEngine};

/// An engine built from the engine table: one variant per canonical design
/// (the DHTM variant also carries the paper's ablation options, which are
/// plain fields of [`DhtmEngine`]).
///
/// Implements [`TxEngine`] by match dispatch, so a driver monomorphised
/// over this type calls every engine statically.
pub enum EngineDispatch {
    /// Locks + Mnemosyne-style software redo logging (SO).
    So(SoEngine),
    /// RTM-like HTM with software logging inside the transaction (sdTM).
    SdTm(SdTmEngine),
    /// Locks + hardware undo logging (ATOM).
    Atom(AtomEngine),
    /// LogTM-style eager HTM + ATOM hardware undo logging (LogTM-ATOM).
    LogTmAtom(LogTmAtomEngine),
    /// The paper's proposal, including its option-driven variants (DHTM).
    Dhtm(DhtmEngine),
    /// Volatile RTM-like HTM, no durability (NP).
    Np(NpEngine),
}

impl fmt::Debug for EngineDispatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineDispatch::So(e) => e.fmt(f),
            EngineDispatch::SdTm(e) => e.fmt(f),
            EngineDispatch::Atom(e) => e.fmt(f),
            EngineDispatch::LogTmAtom(e) => e.fmt(f),
            EngineDispatch::Dhtm(e) => e.fmt(f),
            EngineDispatch::Np(e) => e.fmt(f),
        }
    }
}

macro_rules! dispatch {
    ($self:expr, $e:ident => $call:expr) => {
        match $self {
            EngineDispatch::So($e) => $call,
            EngineDispatch::SdTm($e) => $call,
            EngineDispatch::Atom($e) => $call,
            EngineDispatch::LogTmAtom($e) => $call,
            EngineDispatch::Dhtm($e) => $call,
            EngineDispatch::Np($e) => $call,
        }
    };
}

impl TxEngine for EngineDispatch {
    #[inline]
    fn design(&self) -> DesignKind {
        dispatch!(self, e => e.design())
    }

    #[inline]
    fn init(&mut self, machine: &mut Machine) {
        dispatch!(self, e => e.init(machine))
    }

    #[inline]
    fn begin(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        lock_set: &[LockId],
        now: u64,
    ) -> StepOutcome {
        dispatch!(self, e => e.begin(machine, core, lock_set, now))
    }

    #[inline]
    fn read(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        addr: Address,
        now: u64,
    ) -> StepOutcome {
        dispatch!(self, e => e.read(machine, core, addr, now))
    }

    #[inline]
    fn write(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        addr: Address,
        value: u64,
        now: u64,
    ) -> StepOutcome {
        dispatch!(self, e => e.write(machine, core, addr, value, now))
    }

    #[inline]
    fn commit(&mut self, machine: &mut Machine, core: CoreId, now: u64) -> StepOutcome {
        dispatch!(self, e => e.commit(machine, core, now))
    }

    #[inline]
    fn last_tx_stats(&mut self, core: CoreId) -> TxStats {
        dispatch!(self, e => e.last_tx_stats(core))
    }

    #[inline]
    fn fallback_commits(&self) -> u64 {
        dispatch!(self, e => e.fallback_commits())
    }

    #[inline]
    fn probes_into(&self, reg: &mut dhtm_obs::ProbeRegistry) {
        dispatch!(self, e => e.probes_into(reg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhtm_types::config::SystemConfig;

    #[test]
    fn every_variant_reports_its_design() {
        let cfg = SystemConfig::small_test();
        let cases: Vec<(EngineDispatch, DesignKind)> = vec![
            (
                EngineDispatch::So(SoEngine::new(&cfg)),
                DesignKind::SoftwareOnly,
            ),
            (
                EngineDispatch::SdTm(SdTmEngine::new(&cfg)),
                DesignKind::SdTm,
            ),
            (
                EngineDispatch::Atom(AtomEngine::new(&cfg)),
                DesignKind::Atom,
            ),
            (
                EngineDispatch::LogTmAtom(LogTmAtomEngine::new(&cfg)),
                DesignKind::LogTmAtom,
            ),
            (
                EngineDispatch::Dhtm(DhtmEngine::new(&cfg)),
                DesignKind::Dhtm,
            ),
            (
                EngineDispatch::Np(NpEngine::new(&cfg)),
                DesignKind::NonPersistent,
            ),
        ];
        for (engine, design) in &cases {
            assert_eq!(engine.design(), *design);
            assert!(!format!("{engine:?}").is_empty());
        }
    }

    #[test]
    fn dispatch_runs_are_identical_to_boxed_runs() {
        // The enum is a dispatch vehicle only: running a design through it
        // must be bit-identical to running the same design boxed.
        use dhtm_sim::driver::{RunLimits, Simulator};

        let cfg = SystemConfig::small_test();
        let run = |boxed: bool| {
            let mut machine = Machine::new(cfg.clone());
            let mut workload = dhtm_workloads::try_by_name("hash", 7).expect("known workload");
            let limits = RunLimits::quick().with_target_commits(10);
            let sim = Simulator::new();
            if boxed {
                let mut engine: Box<dyn TxEngine> = Box::new(DhtmEngine::new(&cfg));
                sim.run(&mut machine, engine.as_mut(), workload.as_mut(), &limits)
                    .stats
            } else {
                let mut engine = EngineDispatch::Dhtm(DhtmEngine::new(&cfg));
                sim.run(&mut machine, &mut engine, workload.as_mut(), &limits)
                    .stats
            }
        };
        assert_eq!(run(true), run(false));
    }
}
