//! Acceptance tests for the closed engine table: a built-in DHTM variant
//! ("dhtm-instant") runs through the public scenario API (spec files, the
//! harness matrix) by id alone, machine variants are config overlays, and
//! an id outside the table is rejected with a message naming the table.

use dhtm_baselines::registry::{EngineId, ENGINES};
use dhtm_harness::matrix::{CommitSpec, ConfigVariant, Matrix};
use dhtm_harness::runner::run_matrix;
use dhtm_scenario::SimSpec;
use dhtm_types::config::{BaseConfig, ConfigOverlay, SystemConfig};
use dhtm_types::policy::DesignKind;

const VARIANT: &str = "dhtm-instant";

#[test]
fn variant_runs_through_a_spec_without_touching_dispatch_code() {
    let spec = SimSpec::builder(VARIANT, "hash")
        .base(BaseConfig::Small)
        .commits(12)
        .seed(11)
        .build()
        .expect("table variants validate");
    let result = spec.run().unwrap();
    assert_eq!(result.stats.committed, 12);
    assert_eq!(
        result.design,
        DesignKind::Dhtm,
        "variants keep their base design"
    );

    // The spec serialises like any other engine.
    let reloaded = SimSpec::from_toml(&spec.to_toml()).unwrap();
    assert_eq!(reloaded, spec);
    assert_eq!(reloaded.run().unwrap().stats, result.stats);
}

#[test]
fn variant_sits_on_the_matrix_engine_axis_next_to_builtins() {
    let m = Matrix::new()
        .engines([EngineId::from(DesignKind::Dhtm), EngineId::new(VARIANT)])
        .workloads(["hash"])
        .config(ConfigVariant::small())
        .commits(CommitSpec::Fixed(10));
    let rows = run_matrix(&m, 2);
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0].engine, "DHTM");
    assert_eq!(rows[1].engine, "DHTM-instant", "label comes from the table");
    assert_eq!(rows[0].seed, rows[1].seed, "same stream for both engines");
    assert_eq!(rows[1].stats.committed, 10);
    assert_ne!(
        rows[0].stats, rows[1].stats,
        "instant writes change the timing"
    );
}

#[test]
fn log_buffer_overlay_pins_the_buffer_size() {
    // A DHTM with a pinned 4-entry log buffer is the overlay
    // `log_buffer_entries = 4`. Small's default IS 4 entries, so that
    // overlay reproduces plain small-machine DHTM while 16 entries
    // diverge.
    assert_eq!(SystemConfig::small_test().log_buffer_entries, 4);
    let run = |overlay: ConfigOverlay| {
        SimSpec::builder(DesignKind::Dhtm, "hash")
            .base(BaseConfig::Small)
            .overlay(overlay)
            .commits(10)
            .build()
            .unwrap()
            .run()
            .unwrap()
            .stats
    };
    let plain = run(ConfigOverlay::none());
    assert_eq!(
        run(ConfigOverlay::none().with_log_buffer_entries(4)),
        plain,
        "a 4-entry overlay reproduces the small default"
    );
    assert_ne!(
        run(ConfigOverlay::none().with_log_buffer_entries(16)),
        plain,
        "a 16-entry overlay diverges"
    );
}

#[test]
fn unregistered_engines_fail_spec_validation_with_a_useful_error() {
    let err = SimSpec::builder("dhtm-logbuf512", "hash")
        .base(BaseConfig::Small)
        .build()
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("dhtm-logbuf512"), "{msg}");
    for engine in &ENGINES {
        assert!(msg.contains(engine.id), "{msg} should list {}", engine.id);
    }
}
