//! End-to-end smoke of the `dhtm_experiments` CLI in quick mode: every
//! catalogue experiment runs to completion and prints its table, and the
//! observability surface (`--trace/--profile`) writes a valid NDJSON stream
//! and a profile table that `trace_validate` (the CI gate) accepts, while it
//! rejects a corrupted one. This drives the real binaries, so it covers the
//! whole path: matrix → instrumented runner → trace file → validator.

use std::process::Command;

use dhtm_harness::experiments::ALL;

fn scratch(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("dhtm_{name}_{}", std::process::id()))
}

/// Each paper artifact's entry point: an experiment that panics, hangs or
/// prints nothing is a broken figure. Iterating the catalogue covers a new
/// experiment as soon as it is registered.
#[test]
fn every_catalogue_experiment_runs_in_quick_mode() {
    for experiment in ALL {
        let name = experiment.name;
        let output = Command::new(env!("CARGO_BIN_EXE_dhtm_experiments"))
            .env("DHTM_BENCH_QUICK", "1")
            .args(["--experiment", name])
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn dhtm_experiments for {name}: {e}"));
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(
            output.status.success(),
            "{name} exited with {:?}\nstdout:\n{stdout}\nstderr:\n{}",
            output.status.code(),
            String::from_utf8_lossy(&output.stderr),
        );
        assert!(
            stdout.lines().count() >= 2,
            "{name} printed almost nothing:\n{stdout}"
        );
    }
}

#[test]
fn traced_profiled_experiment_round_trips_through_the_validator() {
    let trace = scratch("trace.ndjson");
    let results = scratch("traced.json");
    let run = Command::new(env!("CARGO_BIN_EXE_dhtm_experiments"))
        .env("DHTM_BENCH_QUICK", "1")
        .args([
            "--experiment",
            "fig6",
            "--jobs",
            "2",
            "--trace",
            trace.to_str().unwrap(),
            "--profile",
            "--format",
            "json",
            "--out",
            results.to_str().unwrap(),
        ])
        .output()
        .expect("spawn dhtm_experiments");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "traced run failed:\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(
        stdout.contains("Component-stat profile"),
        "--profile printed no table:\n{stdout}"
    );
    assert!(
        stdout.contains("channel/busy_cycles"),
        "profile table misses channel probes:\n{stdout}"
    );

    let text = std::fs::read_to_string(&trace).expect("trace file written");
    assert!(text.lines().count() > 0);
    assert!(text.lines().all(|l| l.contains("dhtm-trace-v1")));
    let json = std::fs::read_to_string(&results).expect("results written");
    assert!(
        json.contains("\"probes\": {"),
        "instrumented rows must carry probe objects"
    );
    assert!(json.contains("probe_channel_busy_cycles"));

    let validate = |path: &std::path::Path| {
        Command::new(env!("CARGO_BIN_EXE_trace_validate"))
            .arg(path)
            .output()
            .expect("spawn trace_validate")
    };
    let ok = validate(&trace);
    assert!(
        ok.status.success(),
        "validator rejected a harness-emitted trace:\n{}",
        String::from_utf8_lossy(&ok.stderr)
    );
    assert!(String::from_utf8_lossy(&ok.stdout).contains("events valid"));

    // A corrupted stream (schema field clobbered) must fail the gate.
    let bad = scratch("bad.ndjson");
    std::fs::write(&bad, text.replace("dhtm-trace-v1", "dhtm-trace-v0")).unwrap();
    let rejected = validate(&bad);
    assert!(
        !rejected.status.success(),
        "validator accepted a wrong-schema trace"
    );

    for f in [&trace, &results, &bad] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn plain_and_traced_runs_emit_identical_statistics() {
    let run = |extra: &[&str]| {
        let out = scratch(&format!("cmp{}.json", extra.len()));
        let mut args = vec![
            "--experiment",
            "fig6",
            "--jobs",
            "2",
            "--format",
            "json",
            "--out",
            out.to_str().unwrap(),
        ];
        args.extend_from_slice(extra);
        let status = Command::new(env!("CARGO_BIN_EXE_dhtm_experiments"))
            .env("DHTM_BENCH_QUICK", "1")
            .args(&args)
            .status()
            .expect("spawn dhtm_experiments");
        assert!(status.success());
        let json = std::fs::read_to_string(&out).expect("results written");
        let _ = std::fs::remove_file(&out);
        json
    };
    let plain = run(&[]);
    let profiled = run(&["--profile"]);
    // Strip everything probe-derived (the probe_* aggregate columns and
    // the nested probes object — both sit at the tail of each row):
    // every remaining statistic of every row must be byte-identical
    // between plain and instrumented runs.
    let strip = |json: &str| -> String {
        json.lines()
            .map(|line| match line.find(", \"probe_") {
                Some(i) => {
                    let trailing_comma = line.trim_end().ends_with("},");
                    format!("{}}}{}", &line[..i], if trailing_comma { "," } else { "" })
                }
                None => line.to_string(),
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        strip(&plain),
        strip(&profiled),
        "instrumentation perturbed a run"
    );
    assert!(!plain.contains("\"probes\""));
    assert!(profiled.contains("\"probes\""));
}
