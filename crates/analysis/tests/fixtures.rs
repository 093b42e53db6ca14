//! End-to-end checks over the committed fixture tree — every rule fires on
//! its violation fixture, every accepted twin stays quiet — plus the
//! self-check: the real workspace is clean under the committed
//! configuration and every suppression in the tree carries a reason.

use std::path::Path;

use dhtm_analysis::analyze_workspace;
use dhtm_analysis::config::{rules, Allow, Config, CrateConfig, LockHierarchy, Tier};

/// The configuration the fixture tree is judged under: detcrate is
/// deterministic, lockcrate declares `outer` → `inner`, rawcrate exists to
/// miss `#![forbid(unsafe_code)]`.
fn fixture_config() -> Config {
    let base = Config::workspace();
    Config {
        crates: vec![
            CrateConfig {
                dir: "crates/detcrate",
                tier: Tier::Deterministic,
                require_forbid_unsafe: true,
            },
            CrateConfig {
                dir: "crates/lockcrate",
                tier: Tier::WallClock,
                require_forbid_unsafe: true,
            },
            CrateConfig {
                dir: "crates/rawcrate",
                tier: Tier::WallClock,
                require_forbid_unsafe: true,
            },
        ],
        allows: vec![Allow {
            path_suffix: "detcrate/src/lib.rs",
            item: "Report::ratio",
            rule: rules::FLOAT_IN_DET,
            reason: "fixture allowlist twin",
        }],
        hierarchies: vec![LockHierarchy {
            crate_dir: "crates/lockcrate",
            order: &["outer", "inner"],
        }],
        // The blocking-call catalogue is policy, not fixture-specific:
        // reuse the committed one.
        blocking: base.blocking,
    }
}

#[test]
fn fixture_findings_are_exactly_pinned() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let report = analyze_workspace(&root, &fixture_config()).expect("fixture tree scans");

    let got: Vec<String> = report
        .findings
        .iter()
        .map(|f| format!("{}:{} {}", f.file, f.line, f.rule))
        .collect();
    let expected = [
        "crates/detcrate/src/lib.rs:10 float-in-det",
        "crates/detcrate/src/lib.rs:11 float-in-det",
        "crates/detcrate/src/lib.rs:11 float-in-det",
        "crates/detcrate/src/lib.rs:27 unordered-iter",
        "crates/detcrate/src/lib.rs:45 wall-clock",
        "crates/detcrate/src/lib.rs:46 wall-clock",
        "crates/detcrate/src/lib.rs:52 bad-suppression",
        "crates/detcrate/src/lib.rs:53 unordered-iter",
        "crates/detcrate/src/lib.rs:58 bad-suppression",
        "crates/lockcrate/src/lib.rs:26 lock-order",
        "crates/lockcrate/src/lib.rs:34 lock-order",
        "crates/lockcrate/src/lib.rs:41 lock-blocking",
        "crates/lockcrate/src/lib.rs:58 lock-order",
        "crates/rawcrate/src/lib.rs:1 forbid-unsafe",
    ];
    assert_eq!(got, expected, "fixture finding set drifted");

    // The accepted twins: one allowlisted float getter, one reasoned
    // suppression.
    assert_eq!(report.allowed, 3, "Report::ratio has three f64 tokens");
    let suppressed: Vec<String> = report
        .suppressed
        .iter()
        .map(|s| format!("{}:{} {}", s.file, s.line, s.rule))
        .collect();
    assert_eq!(suppressed, ["crates/detcrate/src/lib.rs:41 unordered-iter"]);
}

#[test]
fn workspace_is_clean_under_committed_config() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let report = analyze_workspace(&root, &Config::workspace()).expect("workspace scans");

    let findings: Vec<String> = report
        .findings
        .iter()
        .map(|f| format!("{}:{} {} {}", f.file, f.line, f.rule, f.message))
        .collect();
    assert!(
        findings.is_empty(),
        "dhtm_lint must be clean on the workspace:\n{}",
        findings.join("\n")
    );

    // Every inline suppression in the tree carries a reason (reason-less
    // ones surface as bad-suppression findings and fail above), and the
    // suppression set itself is pinned: a new suppression is a reviewable
    // policy change, not drive-by noise.
    let suppressed: Vec<String> = report
        .suppressed
        .iter()
        .map(|s| format!("{} {}", s.file, s.rule))
        .collect();
    let expected = [
        "crates/service/src/server.rs lock-blocking",
        "crates/service/src/server.rs lock-blocking",
        "crates/service/src/server.rs lock-blocking",
        "crates/service/src/server.rs lock-blocking",
        "crates/workloads/src/micro.rs float-in-det",
    ];
    assert_eq!(suppressed, expected, "suppression set drifted");
    assert!(
        report.suppressed.iter().all(|s| !s.reason.is_empty()),
        "every suppression must carry a reason"
    );
}
