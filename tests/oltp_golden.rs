//! Golden-stats lattice for the OLTP workloads: pinned run statistics for
//! the Table VI designs (SO, ATOM, DHTM) on TPC-C and TATP under
//! `SystemConfig::small_test`.
//!
//! `tests/golden_stats.rs` runs only `hash`, whose lock sets hold at most
//! four locks, so it barely reaches the lock-acquire retry path. These
//! transactions carry tens to hundreds of row locks, so SO and ATOM stall
//! at begin again and again: the pins cover the driver's lock-set handling,
//! the lock table's all-or-nothing acquire, and the stall bookkeeping
//! (`lock_wait_cycles`, `total_stall_cycles`, `steps`). Update the
//! constants ONLY when a change to simulated behaviour is intended, and say
//! so in the commit message.

use dhtm_baselines::registry;
use dhtm_sim::driver::{RunLimits, Simulator};
use dhtm_sim::machine::Machine;
use dhtm_types::config::SystemConfig;
use dhtm_types::policy::DesignKind;
use dhtm_types::stats::RunStats;
use dhtm_workloads::try_by_name;

const GOLDEN_SEED: u64 = 0x15CA_2018;

fn run(kind: DesignKind, workload: &str, commits: u64) -> RunStats {
    let cfg = SystemConfig::small_test();
    let mut machine = Machine::new(cfg.clone());
    let mut engine = registry::resolve(&kind.into())
        .expect("every design is a builtin engine")
        .build(&cfg);
    let mut workload = try_by_name(workload, GOLDEN_SEED).expect("golden workload");
    let limits = RunLimits::quick().with_target_commits(commits);
    Simulator::new()
        .run(&mut machine, &mut engine, workload.as_mut(), &limits)
        .stats
}

/// The pinned figures of one run, in [`GOLDEN`]'s column order.
fn pins(s: &RunStats) -> [u64; 6] {
    [
        s.committed,
        s.total_cycles,
        s.total_aborts(),
        s.lock_wait_cycles,
        s.total_stall_cycles,
        s.steps,
    ]
}

/// (design, workload, [committed, total_cycles, total_aborts,
/// lock_wait_cycles, total_stall_cycles, steps])
///
/// Captured before the driver canonicalised each transaction's lock set
/// once at fetch (instead of on every begin attempt) and before the lock
/// table's fast-fail hint: both are pure host-time optimisations, and these
/// pins prove it. Every row stalls at begin for most of its steps. TPC-C
/// transactions are several times longer than TATP's, so they get the
/// smaller commit target.
const GOLDEN: [(DesignKind, &str, [u64; 6]); 6] = [
    (
        DesignKind::SoftwareOnly,
        "tpcc",
        [12, 7_301_116, 0, 20_523_590, 20_523_590, 387_904],
    ),
    (
        DesignKind::Atom,
        "tpcc",
        [12, 4_240_270, 0, 12_241_560, 12_241_560, 248_739],
    ),
    (
        DesignKind::Dhtm,
        "tpcc",
        [12, 10_181_273, 122, 27_974_152, 27_974_152, 509_903],
    ),
    (
        DesignKind::SoftwareOnly,
        "tatp",
        [40, 7_559_100, 0, 22_660_034, 22_660_034, 419_639],
    ),
    (
        DesignKind::Atom,
        "tatp",
        [40, 5_373_343, 0, 15_974_160, 15_974_160, 310_402],
    ),
    (
        DesignKind::Dhtm,
        "tatp",
        [40, 9_894_275, 374, 22_562_342, 22_562_342, 480_659],
    ),
];

#[test]
fn golden_oltp_stats() {
    let mut failures = Vec::new();
    for (kind, workload, want) in GOLDEN {
        // The pinned `committed` is the run's commit target.
        let got = pins(&run(kind, workload, want[0]));
        if got != want {
            failures.push(format!("(DesignKind::{kind:?}, {workload:?}, {got:?}),"));
        }
    }
    assert!(
        failures.is_empty(),
        "OLTP golden stats shifted; if the behaviour change is intended, update GOLDEN to:\n{}",
        failures.join("\n")
    );
}
