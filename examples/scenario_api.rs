//! Tour of the scenario API: build a typed `SimSpec`, round-trip it
//! through TOML, stream a run through the `SimObserver` metrics sink, run
//! a built-in engine variant by id, and list the engine table.
//!
//! ```text
//! cargo run --release --example scenario_api
//! ```

use dhtm_baselines::registry::{EngineId, ENGINES};
use dhtm_scenario::{MetricsSink, SimSpec};
use dhtm_types::config::{BaseConfig, ConfigOverlay};
use dhtm_types::policy::DesignKind;

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

    // 2. Run it with a streaming metrics sink attached.
    let mut sink = MetricsSink::new();
    let result = spec.run_with_observer(&mut sink).expect("spec runs");
    println!(
        "committed {} in {} cycles ({:.1} tx/Mcycle); streamed: {} begins, {} aborts, {} durable ticks",
        result.stats.committed,
        result.stats.total_cycles,
        result.throughput(),
        sink.begins,
        sink.total_aborts(),
        sink.durable_ticks,
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
