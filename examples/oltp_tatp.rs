//! Run the TATP OLTP workload on SO, ATOM and DHTM (a slice of Table VI).
//!
//! ```text
//! cargo run --release --example oltp_tatp
//! ```

use dhtm_baselines::registry;
use dhtm_sim::driver::{RunLimits, Simulator};
use dhtm_sim::machine::Machine;
use dhtm_types::config::SystemConfig;
use dhtm_types::policy::DesignKind;
use dhtm_workloads::TatpWorkload;

fn main() {
    let cfg = SystemConfig::isca18_baseline();
    let limits = RunLimits::quick().with_target_commits(80);
    let designs = [DesignKind::SoftwareOnly, DesignKind::Atom, DesignKind::Dhtm];

    let mut results = Vec::new();
    for design in designs {
        let mut machine = Machine::new(cfg.clone());
        let mut engine = registry::resolve(&design.into())
            .expect("every design is a builtin engine")
            .build(&cfg);
        let mut workload = TatpWorkload::new(11);
        let res = Simulator::new().run(&mut machine, &mut engine, &mut workload, &limits);
        results.push((design, res));
    }
    let so = results[0].1.throughput();
    println!(
        "TATP, {} committed transactions per design",
        limits.target_commits
    );
    println!(
        "{:<8} {:>12} {:>14} {:>16}",
        "design", "norm vs SO", "abort rate %", "mean write set"
    );
    for (design, res) in &results {
        println!(
            "{:<8} {:>12.2} {:>14.1} {:>16.1}",
            design.label(),
            res.throughput() / so,
            res.stats.abort_rate_percent(),
            res.stats.mean_write_set_lines()
        );
    }
}
