//! Observer/probe parity property test for the observability layer.
//!
//! The contract behind every `--trace`/`--profile` run is that
//! instrumentation is pure output: attaching a `SimObserver`, recording an
//! NDJSON trace and harvesting the component-probe registry must leave the
//! simulated run bit-identical to an unobserved one. A probe that mutated
//! state it reads — or an observer hook that perturbed the event calendar —
//! would silently invalidate every instrumented result.
//!
//! Each case runs one (engine, workload, cores, seed) cell twice through
//! the real driver: plain via `ResolvedSpec::run`, and instrumented via
//! `run_probed` with a `TraceRecorder` attached. The complete `RunStats`
//! fingerprint must match exactly, across all 9 table engines and
//! 1–16 cores. The trace stream itself is then held to the NDJSON schema:
//! every emitted line validates against `dhtm-trace-v1` and survives a
//! parse → re-render round trip.

use proptest::prelude::*;

use dhtm_baselines::registry::{EngineId, ENGINES};
use dhtm_obs::{event_from_line, validate_line};
use dhtm_scenario::{ResolvedSpec, SpecLimits, TraceRecorder};
use dhtm_types::config::BaseConfig;

fn resolved_cell(engine_idx: usize, workload: &str, cores: usize, seed: u64) -> ResolvedSpec {
    let engine_id = EngineId::new(ENGINES[engine_idx % ENGINES.len()].id);
    let cfg = BaseConfig::Small.resolve().with_num_cores(cores);
    let target_commits = match workload {
        "tatp" | "tpcc" => 3,
        _ => 12,
    };
    ResolvedSpec::from_parts(
        &engine_id,
        workload,
        cfg,
        SpecLimits {
            target_commits,
            max_cycles: 20_000_000,
        },
        seed,
    )
}

proptest! {
    // Each case is two full (if small) simulations; the pinned seed makes
    // failures replayable via proptest-regressions.
    #![proptest_config(ProptestConfig::with_cases(8).with_rng_seed(0xD47A_15CA_2018_0007))]

    #[test]
    fn instrumented_runs_are_bit_identical_and_traces_validate(
        engine_idx in 0usize..64,
        workload_idx in 0usize..dhtm_workloads::NAMES.len(),
        cores in 1usize..=16,
        seed in 0u64..u64::MAX,
    ) {
        let workload = dhtm_workloads::NAMES[workload_idx];
        let resolved = resolved_cell(engine_idx, workload, cores, seed);

        let plain = resolved.run().stats;
        let mut recorder = TraceRecorder::new(format!("parity/{workload}/c{cores}"));
        let (instrumented, registry) = resolved.run_probed(Some(&mut recorder));
        recorder.finish(&instrumented.stats, Some(&registry));

        prop_assert_eq!(
            format!("{:?}", plain),
            format!("{:?}", instrumented.stats),
            "observer+probes perturbed the run (engine_idx {}, {}, {} cores, seed {})",
            engine_idx, workload, cores, seed
        );

        // Probe registry sanity: it must reflect the run it was read from.
        prop_assert_eq!(registry.counter("mem/nvm_line_reads"), plain.nvm_line_reads);
        prop_assert!(!registry.is_empty());

        // Every trace line obeys the versioned schema and round-trips
        // through the parser: parse → TraceEvent → render → identical line.
        for line in recorder.lines() {
            validate_line(&line)
                .unwrap_or_else(|e| panic!("schema violation: {e}\n  {line}"));
            let event = event_from_line(&line).unwrap();
            prop_assert_eq!(&event.to_ndjson(), &line, "NDJSON round trip drifted");
        }
    }
}
