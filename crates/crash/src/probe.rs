//! Profiling a cell: one fully observed run that records the commit
//! timeline against the durable-mutation clock.
//!
//! Every crash experiment runs its cell (deterministically) twice: the
//! *profile* run streams the [`dhtm_sim::driver::SimulationSession`]'s
//! events through a [`ProfileRecorder`] — an ordinary
//! [`dhtm_sim::observer::SimObserver`] — recording for every commit the
//! span of the durable-mutation clock its commit step occupied and the
//! word writes it made durable; the *capture* run (see [`crate::matrix`])
//! replays the identical execution with the same crash points armed
//! through the session. Because both runs are seeded identically, the
//! profile's timeline indexes the capture run's snapshots exactly. Engines
//! are built through the engine table via the scenario exec layer
//! ([`CrashCell::resolved`]), the same construction path the experiment
//! harness uses.

use std::collections::BTreeSet;

use dhtm_nvm::domain::PersistentDomain;
use dhtm_sim::driver::{SimulationResult, Simulator};
use dhtm_sim::observer::{SimObserver, StepContext};
use dhtm_sim::workload::{Transaction, TxOp};
use dhtm_types::addr::Address;
use dhtm_types::policy::DesignKind;

use crate::matrix::CrashCell;

/// One commit observed by the profile run, positioned on the
/// durable-mutation clock.
#[derive(Debug, Clone)]
pub struct CommitEvent {
    /// Commit order (0-based).
    pub index: usize,
    /// The simulated cycle at which the commit step was processed (the
    /// event's pop time) — the basis for cycle-denominated crash points.
    pub step_time: u64,
    /// Mutation-clock value when the commit step started.
    pub step_start_mutations: u64,
    /// Mutation-clock value when the commit step finished.
    pub step_end_mutations: u64,
    /// The word writes the transaction made, in program order.
    pub writes: Vec<(Address, u64)>,
}

/// The observed timeline of one cell's run.
#[derive(Debug)]
pub struct RunProfile {
    /// The design that ran.
    pub design: DesignKind,
    /// The durable image right after workload setup (the state every crash
    /// image grows from).
    pub base: PersistentDomain,
    /// Every commit in commit order.
    pub commits: Vec<CommitEvent>,
    /// Every word address written by any transaction the driver ever
    /// started — the address universe the oracles check.
    pub tracked: BTreeSet<Address>,
    /// Final value of the durable-mutation clock.
    pub total_mutations: u64,
    /// The completed run's result (same numbers an unprofiled run yields).
    pub result: SimulationResult,
}

impl RunProfile {
    /// Number of commits whose commit step finished at or before crash
    /// point `point` — the committed prefix `k` the recovered state must
    /// reflect.
    pub fn committed_before(&self, point: u64) -> usize {
        self.commits
            .iter()
            .take_while(|c| c.step_end_mutations <= point)
            .count()
    }

    /// The commit whose commit step *contains* `point`, if any: the crash
    /// interrupted that commit mid-flight, so recovery may legitimately
    /// resolve it either way (the log decides).
    pub fn ambiguous_commit(&self, point: u64) -> Option<&CommitEvent> {
        self.commits
            .iter()
            .find(|c| c.step_start_mutations < point && point < c.step_end_mutations)
    }
}

/// The word writes of a transaction, in program order.
pub fn word_writes(tx: &Transaction) -> Vec<(Address, u64)> {
    tx.ops
        .iter()
        .filter_map(|op| match *op {
            TxOp::Write(addr, value) => Some((addr, value)),
            _ => None,
        })
        .collect()
}

/// The profile plus the per-step spans `(pop_time, start_mutations,
/// end_mutations)` of every step that advanced the mutation clock.
#[derive(Debug)]
pub struct ProfiledRun {
    /// The commit/tracking timeline.
    pub profile: RunProfile,
    /// `(pop_time, start, end)` for every mutation-advancing step.
    pub step_spans: Vec<(u64, u64, u64)>,
}

impl ProfiledRun {
    /// Translates a cycle-denominated crash point ("power fails at cycle
    /// `c`") to the mutation clock: the durable state at cycle `c` is the
    /// state after the last mutating step processed before `c`.
    pub fn cycle_to_mutation_point(&self, cycle: u64) -> u64 {
        self.step_spans
            .iter()
            .take_while(|&&(t, _, _)| t < cycle)
            .last()
            .map(|&(_, _, end)| end)
            .unwrap_or(0)
    }
}

/// The crash subsystem's streaming profiler: a [`SimObserver`] that
/// records the commit timeline (mutation-clock spans + word writes), the
/// tracked address universe and every mutation-advancing step span.
#[derive(Debug, Default)]
pub struct ProfileRecorder {
    commits: Vec<CommitEvent>,
    tracked: BTreeSet<Address>,
    step_spans: Vec<(u64, u64, u64)>,
}

impl SimObserver for ProfileRecorder {
    fn on_begin(&mut self, _ctx: &StepContext<'_>, tx: &Transaction) {
        for (addr, _) in word_writes(tx) {
            self.tracked.insert(addr);
        }
    }

    fn on_durable_tick(&mut self, ctx: &StepContext<'_>) {
        self.step_spans
            .push((ctx.now, ctx.mutations_before, ctx.mutations_after));
    }

    fn on_commit(&mut self, ctx: &StepContext<'_>, tx: &Transaction) {
        self.commits.push(CommitEvent {
            index: self.commits.len(),
            step_time: ctx.now,
            step_start_mutations: ctx.mutations_before,
            step_end_mutations: ctx.mutations_after,
            writes: word_writes(tx),
        });
    }
}

/// Runs `cell` once with full observation, producing its timeline.
pub fn profile_cell(cell: &CrashCell) -> ProfiledRun {
    let resolved = cell.resolved();
    let (mut machine, mut engine, mut workload, limits) = resolved.components();
    let sim = Simulator::new();
    let mut session = sim.start(&mut machine, &mut engine, workload.as_mut(), &limits);

    let base = session.domain().crash_snapshot();
    let mut recorder = ProfileRecorder::default();
    session.run_to_completion_with(&mut recorder);

    let total_mutations = session.domain().mutation_count();
    let result = session.into_result();
    ProfiledRun {
        profile: RunProfile {
            design: cell.design,
            base,
            commits: recorder.commits,
            tracked: recorder.tracked,
            total_mutations,
            result,
        },
        step_spans: recorder.step_spans,
    }
}

/// Re-runs `cell` identically with the crash points armed through the
/// session, returning the captured crash images as `(point, image)` pairs
/// in ascending order.
pub fn capture_cell(cell: &CrashCell, points: &[u64]) -> Vec<(u64, PersistentDomain)> {
    let resolved = cell.resolved();
    let (mut machine, mut engine, mut workload, limits) = resolved.components();
    let sim = Simulator::new();
    let mut session = sim.start(&mut machine, &mut engine, workload.as_mut(), &limits);
    session.arm_crash_points(points);
    session.run_to_completion();
    drop(session);
    machine.mem.domain_mut().take_crash_captures()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhtm_types::config::SystemConfig;

    fn cell(design: DesignKind) -> CrashCell {
        CrashCell {
            design,
            workload: "hash".to_string(),
            config: SystemConfig::small_test(),
            config_name: "small".to_string(),
            commits: 8,
            seed: 0x15CA_2018,
        }
    }

    #[test]
    fn profile_records_every_commit_with_monotone_spans() {
        let run = profile_cell(&cell(DesignKind::Dhtm));
        let p = &run.profile;
        assert_eq!(p.commits.len(), 8);
        assert!(p.total_mutations > 0);
        for pair in p.commits.windows(2) {
            assert!(pair[0].step_end_mutations <= pair[1].step_start_mutations);
        }
        for c in &p.commits {
            assert!(c.step_start_mutations < c.step_end_mutations);
            assert!(!c.writes.is_empty(), "hash transactions write");
        }
        assert!(!p.tracked.is_empty());
        assert_eq!(p.result.stats.committed, 8);
    }

    #[test]
    fn profile_is_deterministic() {
        let a = profile_cell(&cell(DesignKind::Dhtm));
        let b = profile_cell(&cell(DesignKind::Dhtm));
        assert_eq!(a.profile.total_mutations, b.profile.total_mutations);
        assert_eq!(a.profile.commits.len(), b.profile.commits.len());
        assert_eq!(a.step_spans, b.step_spans);
    }

    #[test]
    fn captures_align_with_the_profiled_timeline() {
        let run = profile_cell(&cell(DesignKind::Dhtm));
        let p = &run.profile;
        // Capture right before the 3rd commit's step and right after it.
        let c = &p.commits[2];
        let points = [c.step_start_mutations, c.step_end_mutations];
        let captures = capture_cell(&cell(DesignKind::Dhtm), &points);
        assert_eq!(captures.len(), 2);
        assert_eq!(captures[0].1.mutation_count(), c.step_start_mutations);
        assert_eq!(captures[1].1.mutation_count(), c.step_end_mutations);
        assert_eq!(p.committed_before(c.step_start_mutations), 2);
        assert_eq!(p.committed_before(c.step_end_mutations), 3);
    }

    #[test]
    fn committed_before_and_ambiguity() {
        let run = profile_cell(&cell(DesignKind::SoftwareOnly));
        let p = &run.profile;
        let c = &p.commits[0];
        let mid = (c.step_start_mutations + c.step_end_mutations) / 2;
        if mid > c.step_start_mutations {
            assert!(p.ambiguous_commit(mid).is_some());
        }
        assert!(p.ambiguous_commit(c.step_end_mutations).is_none());
        assert_eq!(p.committed_before(0), 0);
        assert_eq!(p.committed_before(p.total_mutations), p.commits.len());
    }
}
