//! End-of-run profile tables over flattened probe values.
//!
//! The harness's `--profile` flag renders the component-stat snapshot of a
//! run (or the sum over a whole experiment matrix) as an aligned text
//! table, grouped by the probe name's leading scope segment so per-core
//! probes sit together under their core.

/// Renders flattened `(name, value)` probe pairs as table lines: a header,
/// then one aligned row per probe with a blank-line break between leading
/// scope segments. Pairs are sorted by name first, so callers can pass
/// accumulations in any order.
pub fn render_flat(pairs: &[(String, u64)]) -> Vec<String> {
    let mut sorted: Vec<&(String, u64)> = pairs.iter().collect();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));
    let width = sorted
        .iter()
        .map(|(n, _)| n.len())
        .max()
        .unwrap_or(5)
        .max(5);
    let mut lines = vec![format!("| {:<width$} | {:>16} |", "probe", "value")];
    let mut last_scope: Option<&str> = None;
    for (name, value) in sorted {
        let scope = name.split('/').next().unwrap_or(name);
        if last_scope.is_some_and(|s| s != scope) {
            lines.push(format!("| {:<width$} | {:>16} |", "", ""));
        }
        last_scope = Some(scope);
        lines.push(format!("| {name:<width$} | {value:>16} |"));
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_sorted_aligned_and_scope_grouped() {
        let pairs = vec![
            ("core1/l1/hits".to_string(), 10),
            ("channel/busy_cycles".to_string(), 999),
            ("core0/l1/hits".to_string(), 5),
        ];
        let lines = render_flat(&pairs);
        assert_eq!(lines.len(), 1 + 3 + 2, "header + rows + 2 scope breaks");
        assert!(lines[0].contains("probe"));
        assert!(lines[1].contains("channel/busy_cycles"));
        assert!(lines[1].contains("999"));
        // Scope break between channel and core0, and between core0 and core1.
        assert!(lines[2].trim_matches(['|', ' ']).is_empty());
        assert!(lines[3].contains("core0/l1/hits"));
        // All rows align to the same width.
        let widths: Vec<usize> = lines.iter().map(String::len).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "{lines:?}");
    }

    #[test]
    fn empty_input_renders_just_the_header() {
        assert_eq!(render_flat(&[]).len(), 1);
    }
}
