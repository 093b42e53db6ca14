//! Tour of the scenario API: build a typed `SimSpec`, round-trip it
//! through TOML, stream a run through a `SimObserver`, run a built-in
//! engine variant by id, and list the engine table.
//!
//! ```text
//! cargo run --release --example scenario_api
//! ```

use dhtm_baselines::registry::{EngineId, ENGINES};
use dhtm_scenario::SimSpec;
use dhtm_sim::observer::{SimObserver, StepContext};
use dhtm_sim::workload::Transaction;
use dhtm_types::config::{BaseConfig, ConfigOverlay};
use dhtm_types::policy::DesignKind;
use dhtm_types::stats::AbortReason;

fn main() {
    // 1. A typed, validated spec: DHTM on the hash benchmark, small
    //    machine with a 16-entry log buffer.
    let spec = SimSpec::builder(DesignKind::Dhtm, "hash")
        .base(BaseConfig::Small)
        .overlay(ConfigOverlay::none().with_log_buffer_entries(16))
        .commits(40)
        .seed(42)
        .build()
        .expect("valid spec");
    println!("--- canonical TOML form ---\n{}", spec.to_toml());
    println!("content hash: {:016x}", spec.content_hash());
    println!("derived workload seed: {:016x}\n", spec.derived_seed());

    // 2. Run it with an observer attached: every callback sees the run
    //    as it executes, read-only, so the result is the same as a plain
    //    run. The probe registry is read off the machine afterwards.
    let mut counts = Counts::default();
    let (result, probes) = spec
        .resolve()
        .expect("spec resolves")
        .run_probed(Some(&mut counts));
    println!(
        "committed {} in {} cycles ({:.1} tx/Mcycle); streamed: {} begins, {} aborts, {} durable ticks; {} probes",
        result.stats.committed,
        result.stats.total_cycles,
        result.throughput(),
        counts.begins,
        counts.aborts,
        counts.durable_ticks,
        probes.len(),
    );

    // 3. Run the same scenario on a built-in variant — DHTM with
    //    instantaneous critical-path writes (the Section VI-D ablation) —
    //    by naming its id.
    let variant_spec = SimSpec {
        engine: EngineId::new("dhtm-instant"),
        ..spec.clone()
    };
    let variant = variant_spec.run().expect("variant runs");
    println!(
        "variant DHTM-instant: {} commits in {} cycles (vs {} for DHTM)",
        variant.stats.committed, variant.stats.total_cycles, result.stats.total_cycles,
    );

    // 4. Same stream, different engines: the derived seed ignores the
    //    engine, so the comparison above is apples-to-apples.
    assert_eq!(spec.derived_seed(), variant_spec.derived_seed());
    println!("\nengines:");
    for engine in &ENGINES {
        println!(
            "  {:<18} {:<14} design={}",
            engine.id,
            engine.label,
            engine.design.label(),
        );
    }
}

/// A minimal observer: counts three of the callbacks, leaves the rest at
/// their no-op defaults.
#[derive(Debug, Default)]
struct Counts {
    begins: u64,
    aborts: u64,
    durable_ticks: u64,
}

impl SimObserver for Counts {
    fn on_begin(&mut self, _ctx: &StepContext<'_>, _tx: &Transaction) {
        self.begins += 1;
    }

    fn on_abort(&mut self, _ctx: &StepContext<'_>, _reason: AbortReason) {
        self.aborts += 1;
    }

    fn on_durable_tick(&mut self, _ctx: &StepContext<'_>) {
        self.durable_ticks += 1;
    }
}
