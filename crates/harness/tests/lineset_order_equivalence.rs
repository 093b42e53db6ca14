//! Order-pinning property test for the `LineSet` engine-state swap.
//!
//! PR7 replaced every engine's `BTreeSet<LineAddr>` shadow sets (write
//! set, read set, overflow set, undo/log tracking) with the flat sorted
//! [`dhtm_cache::lineset::LineSet`], and the commit/abort `Vec`
//! materialisations with scratch-buffer walks. Set iteration order leaks
//! straight into the log/flush schedule, so the swap is only safe if the
//! new structure iterates *exactly* like the `BTreeSet` it replaced, on
//! every engine, at every core count.
//!
//! The pin has three layers, each covering what the others cannot:
//!
//! 1. `crates/cache/tests/flat_structures_property.rs` drives `LineSet`
//!    vs a real `BTreeSet<LineAddr>` through random op streams and
//!    asserts the *exact iteration order* after every mutation — the
//!    structure-level vs-reference pin, including the inline→spill
//!    boundary.
//! 2. The golden lattice (`golden_stats`/`golden_recovery`/`golden_spec`)
//!    pins absolute cycle-level outcomes against the pre-swap
//!    implementation for the fixed golden configurations — if the swap
//!    had reordered a single flush, those exact-equality pins would trip.
//! 3. This test widens layer 2 across the whole catalogue: every one of
//!    the 9 table engines × 1–16 cores × random workloads/seeds, run
//!    through the real driver twice. The complete `RunStats` fingerprint
//!    must be bit-identical between the two runs — a `LineSet` whose
//!    order depended on insertion history, allocation reuse, or spill
//!    state would diverge here, because the second run starts from a
//!    freshly allocated engine while a long run reuses cleared
//!    (capacity-retaining) sets.

use proptest::prelude::*;

use dhtm_baselines::registry::{EngineId, ENGINES};
use dhtm_scenario::{ResolvedSpec, SpecLimits};
use dhtm_sim::Simulator;
use dhtm_types::config::BaseConfig;

/// Runs `(engine, workload, cores, seed)` through the real driver and
/// returns the complete outcome fingerprint: every field of the final
/// `RunStats` (committed, cycles, aborts by reason, per-tx footprints,
/// log traffic), which is downstream of every set-iteration order in the
/// engine's commit/abort paths.
fn run_fingerprint(engine_idx: usize, workload: &str, cores: usize, seed: u64) -> String {
    let engine_id = EngineId::new(ENGINES[engine_idx % ENGINES.len()].id);
    let cfg = BaseConfig::Small.resolve().with_num_cores(cores);
    let target_commits = match workload {
        "tatp" | "tpcc" => 3,
        _ => 12,
    };
    let resolved = ResolvedSpec::from_parts(
        &engine_id,
        workload,
        cfg,
        SpecLimits {
            target_commits,
            max_cycles: 20_000_000,
        },
        seed,
    );
    let (mut machine, mut engine, mut workload, limits) = resolved.components();
    let outcome = Simulator::new().run(&mut machine, &mut engine, workload.as_mut(), &limits);
    format!("{:?}", outcome.stats)
}

proptest! {
    // Each case is two full (if small) simulations; the pinned seed makes
    // failures replayable via proptest-regressions.
    #![proptest_config(ProptestConfig::with_cases(8).with_rng_seed(0xD47A_15CA_2018_0007))]

    #[test]
    fn engine_outcomes_are_bit_identical_across_reruns(
        engine_idx in 0usize..64,
        workload_idx in 0usize..dhtm_workloads::NAMES.len(),
        cores in 1usize..=16,
        seed in 0u64..u64::MAX,
    ) {
        let workload = dhtm_workloads::NAMES[workload_idx];
        let first = run_fingerprint(engine_idx, workload, cores, seed);
        let second = run_fingerprint(engine_idx, workload, cores, seed);
        prop_assert_eq!(
            &first, &second,
            "engine {} on {} with {} cores diverged between identical runs",
            engine_idx, workload, cores
        );
        prop_assert!(
            first.contains("committed"),
            "fingerprint must carry the stats payload"
        );
    }
}

#[test]
fn every_builtin_engine_is_deterministic_on_a_contended_run() {
    // Deterministic sweep across the whole catalogue at the paper's core
    // count plus the 1-core and 16-core extremes: contention produces
    // aborts, and aborts exercise the scratch-buffer invalidation and
    // undo walks that replaced the per-abort `Vec`s.
    let n = ENGINES.len();
    assert_eq!(n, 9, "the engine table should carry 9 engines");
    for engine_idx in 0..n {
        for &cores in &[1usize, 8, 16] {
            let a = run_fingerprint(engine_idx, "hash", cores, 0x15CA_2018);
            let b = run_fingerprint(engine_idx, "hash", cores, 0x15CA_2018);
            assert_eq!(
                a, b,
                "engine {engine_idx} with {cores} cores diverged between identical runs"
            );
            assert!(
                a.contains("committed: "),
                "engine {engine_idx}: fingerprint must carry the stats payload"
            );
        }
    }
}
