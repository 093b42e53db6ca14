//! Rendering crash-matrix verdicts as human-readable summary lines.

use crate::matrix::{CrashCellReport, NegativeControl};

/// One human-readable summary line per cell.
pub fn summary_lines(reports: &[CrashCellReport]) -> Vec<String> {
    reports
        .iter()
        .map(|r| {
            let c = r.counters();
            format!(
                "| {:<10} | {:<7} | {:>3} points | {:>2} replayed | {:>2} rolled back | {} |",
                r.cell.design.label(),
                r.cell.workload,
                c.crash_points,
                c.replayed_transactions,
                c.rolled_back_transactions,
                if r.all_passed() { "PASS" } else { "FAIL" },
            )
        })
        .collect()
}

/// Summary line for the negative control.
pub fn control_line(control: Option<&NegativeControl>) -> String {
    match control {
        Some(c) => format!(
            "negative control @m{}: clean {}, corrupted-payload {}, dropped-marker {}",
            c.point,
            if c.clean_passed { "PASS" } else { "FAIL" },
            if c.flip_detected {
                "DETECTED"
            } else {
                "MISSED"
            },
            if c.drop_detected {
                "DETECTED"
            } else {
                "MISSED"
            },
        ),
        None => "negative control: no replayable window found".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::CrashMatrix;
    use dhtm_types::config::SystemConfig;
    use dhtm_types::policy::DesignKind;

    #[test]
    fn summary_renders_every_cell() {
        let mut m = CrashMatrix::new(&[DesignKind::Dhtm], ["hash"], SystemConfig::small_test());
        m.commits = 4;
        m.stratified = 3;
        m.adversarial = 2;
        let reports = m.run(1);
        let lines = summary_lines(&reports);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("PASS"));
        assert!(control_line(None).contains("no replayable window"));
    }
}
