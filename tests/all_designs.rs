//! Cross-crate integration test: every design runs the same workloads on the
//! same machine configuration, commits the requested number of transactions,
//! and the durable designs leave a recoverable persistent state.

use dhtm_baselines::registry;
use dhtm_sim::driver::{RunLimits, Simulator};
use dhtm_sim::machine::Machine;
use dhtm_types::config::SystemConfig;
use dhtm_types::policy::DesignKind;
use dhtm_workloads::try_by_name;

fn run(
    design: DesignKind,
    workload: &str,
    commits: u64,
) -> (dhtm_sim::driver::SimulationResult, Machine) {
    let cfg = SystemConfig::small_test();
    let mut machine = Machine::new(cfg.clone());
    let mut engine = registry::resolve(&design.into())
        .expect("every design is a builtin engine")
        .build(&cfg);
    let mut wl = try_by_name(workload, 5).unwrap();
    let limits = RunLimits::quick().with_target_commits(commits);
    let res = Simulator::new().run(&mut machine, &mut engine, wl.as_mut(), &limits);
    (res, machine)
}

#[test]
fn every_design_commits_on_every_micro_benchmark() {
    for workload in ["queue", "hash", "sdg", "sps", "btree", "rbtree"] {
        for design in DesignKind::ALL {
            let (res, _) = run(design, workload, 12);
            assert_eq!(
                res.stats.committed, 12,
                "{design} stalled on {workload}: {:?}",
                res.stats
            );
            assert!(res.stats.total_cycles > 0);
        }
    }
}

#[test]
fn durable_designs_generate_log_traffic_np_does_not() {
    for design in [DesignKind::SoftwareOnly, DesignKind::Atom, DesignKind::Dhtm] {
        let (res, _) = run(design, "hash", 10);
        assert!(
            res.stats.log_bytes_written > 0,
            "{design} must write a persistent log"
        );
    }
    let (np, _) = run(DesignKind::NonPersistent, "hash", 10);
    assert_eq!(np.stats.log_bytes_written, 0, "NP writes no log");
}

#[test]
fn dhtm_writes_fewer_log_bytes_than_word_granular_software_logging_would() {
    // Coalescing sanity at the system level: DHTM's log traffic per committed
    // transaction stays within a small factor of the write-set footprint
    // (72 bytes per written line + markers), i.e. coalescing works.
    let (res, _) = run(DesignKind::Dhtm, "hash", 20);
    let lines = res.stats.sum_write_set_lines;
    let upper = lines * 72 * 3; // generous bound: 3 records per line
    assert!(
        res.stats.log_bytes_written < upper,
        "log bytes {} should stay below {upper}",
        res.stats.log_bytes_written
    );
}

#[test]
fn recovery_after_a_run_is_clean_for_dhtm() {
    let (_, machine) = run(DesignKind::Dhtm, "btree", 15);
    let mut crashed = machine.mem.domain().crash_snapshot();
    let report = dhtm::RecoveryManager::new().recover(&mut crashed).unwrap();
    // All work either completed (data in place) or was still active at the
    // "crash"; nothing should need undo in a redo-logged design.
    assert_eq!(report.rolled_back_transactions, 0);
}

#[test]
fn htm_designs_uncover_more_concurrency_than_so_on_partitioned_workloads() {
    // The broad Figure 5 trend on a low-conflict workload: the HTM-based
    // durable design (DHTM) is at least as fast as lock-based SO.
    let (so, _) = run(DesignKind::SoftwareOnly, "hash", 30);
    let (dhtm_res, _) = run(DesignKind::Dhtm, "hash", 30);
    assert!(
        dhtm_res.throughput() >= so.throughput() * 0.9,
        "DHTM ({:.3}) should not be slower than SO ({:.3})",
        dhtm_res.throughput(),
        so.throughput()
    );
}
