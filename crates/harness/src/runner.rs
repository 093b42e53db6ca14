//! The worker pool: shards the independent cells of a matrix across
//! `std::thread` workers and collects results in deterministic matrix order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

use dhtm_scenario::TraceRecorder;
use dhtm_types::stats::RunStats;

use crate::matrix::{Cell, Matrix};

/// One collected result row: the cell's coordinates plus the run statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Name of the experiment the row belongs to (filled in by the
    /// experiment definitions; empty for ad-hoc matrices).
    pub experiment: String,
    /// Engine label ("SO", "DHTM", "DHTM-instant", ...).
    pub engine: String,
    /// Workload name.
    pub workload: String,
    /// Simulated core count.
    pub cores: usize,
    /// Config-variant name.
    pub config: String,
    /// The workload seed the cell ran with.
    pub seed: u64,
    /// The commit target the cell ran to.
    pub target_commits: u64,
    /// Aggregate statistics of the run.
    pub stats: RunStats,
    /// Flattened component-stat probes collected for this cell (empty on
    /// uninstrumented runs — the default path never builds a registry).
    pub probes: Vec<(String, u64)>,
}

impl Row {
    /// Committed transactions per million cycles.
    pub fn throughput(&self) -> f64 {
        self.stats.throughput_per_mcycle()
    }

    /// Sum of every flattened probe whose name equals `suffix` or ends with
    /// `/suffix` — aggregates per-core/per-thread scopes (e.g.
    /// `log_buffer/evictions` sums all `coreN/log_buffer/evictions`).
    /// Zero when no probes were collected.
    pub fn probe_sum(&self, suffix: &str) -> u64 {
        self.probes
            .iter()
            .filter(|(name, _)| {
                name == suffix
                    || (name.ends_with(suffix) && name[..name.len() - suffix.len()].ends_with('/'))
            })
            .map(|&(_, v)| v)
            .sum()
    }
}

/// Runs a single cell to completion on the calling thread: the cell's
/// [`dhtm_scenario::SimSpec`] is validated, resolved against the engine
/// table and executed.
///
/// # Panics
///
/// Panics if the cell's spec fails validation (an engine id outside the table
/// or unknown workload on the matrix axes is a caller bug).
pub fn run_cell(cell: &Cell) -> Row {
    let result = cell
        .spec
        .run()
        .unwrap_or_else(|e| panic!("matrix cell {}: {e}", cell.index));
    Row {
        experiment: String::new(),
        engine: cell.engine_label(),
        workload: cell.workload().to_string(),
        cores: cell.cores,
        config: cell.config_name.clone(),
        seed: cell.seed,
        target_commits: cell.commits(),
        stats: result.stats,
        probes: Vec::new(),
    }
}

/// A fully instrumented cell result: the row (probes included) plus the
/// cell's NDJSON trace lines.
pub type TracedRow = (Row, Vec<String>);

/// Runs a single cell with full instrumentation: an NDJSON [`TraceRecorder`]
/// observes the run, the component-stat registry is collected afterwards and
/// flattened into the row, and the cell's trace lines are returned alongside.
///
/// The simulated run is bit-identical to [`run_cell`] — observers cannot
/// perturb the simulation and probes are read only after it finishes.
///
/// # Panics
///
/// Panics if the cell's spec fails validation (same contract as
/// [`run_cell`]).
pub fn run_cell_traced(cell: &Cell, label_prefix: &str) -> TracedRow {
    let resolved = cell
        .spec
        .resolve()
        .unwrap_or_else(|e| panic!("matrix cell {}: {e}", cell.index));
    let label = format!(
        "{label_prefix}{}{}/{}/c{}/{}",
        if label_prefix.is_empty() { "" } else { "/" },
        cell.engine_label(),
        cell.workload(),
        cell.cores,
        cell.config_name,
    );
    let mut recorder = TraceRecorder::new(label);
    let (result, registry) = resolved.run_probed(Some(&mut recorder));
    recorder.finish(&result.stats, Some(&registry));
    let row = Row {
        experiment: String::new(),
        engine: cell.engine_label(),
        workload: cell.workload().to_string(),
        cores: cell.cores,
        config: cell.config_name.clone(),
        seed: cell.seed,
        target_commits: cell.commits(),
        stats: result.stats,
        probes: registry.flatten(),
    };
    (row, recorder.lines())
}

/// Expands `matrix` into cells and runs them on `jobs` workers.
///
/// Rows come back in matrix-enumeration order and are bit-identical for any
/// `jobs` value: each cell builds its own machine, engine and workload from
/// the cell's deterministic seed, so no state is shared between cells.
pub fn run_matrix(matrix: &Matrix, jobs: usize) -> Vec<Row> {
    run_cells(&matrix.cells(), jobs)
}

/// Runs pre-expanded cells on `jobs` workers (1 = serial on this thread).
pub fn run_cells(cells: &[Cell], jobs: usize) -> Vec<Row> {
    let jobs = jobs.clamp(1, cells.len().max(1));
    if jobs == 1 {
        return cells.iter().map(run_cell).collect();
    }

    // Work-stealing by atomic cursor: workers pull the next unclaimed cell
    // index; each result lands in its cell's dedicated slot, so collection
    // order is matrix order no matter which worker ran what.
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Row>>> = cells.iter().map(|_| Mutex::new(None)).collect();
    thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = cells.get(i) else {
                    break;
                };
                let row = run_cell(cell);
                *slots[i].lock().expect("result slot poisoned") = Some(row);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every cell ran")
        })
        .collect()
}

/// Runs `matrix` fully instrumented on `jobs` workers: every cell is
/// executed through [`run_cell_traced`], so each row carries its flattened
/// probe registry and each cell contributes its NDJSON trace lines.
///
/// Rows and trace blocks come back in matrix-enumeration order regardless
/// of `jobs`, so the concatenated trace stream is deterministic.
pub fn run_matrix_traced(matrix: &Matrix, jobs: usize, label_prefix: &str) -> Vec<TracedRow> {
    run_cells_traced(&matrix.cells(), jobs, label_prefix)
}

/// Runs pre-expanded cells instrumented on `jobs` workers (the traced
/// counterpart of [`run_cells`]).
pub fn run_cells_traced(cells: &[Cell], jobs: usize, label_prefix: &str) -> Vec<TracedRow> {
    let jobs = jobs.clamp(1, cells.len().max(1));
    if jobs == 1 {
        return cells
            .iter()
            .map(|cell| run_cell_traced(cell, label_prefix))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<TracedRow>>> = cells.iter().map(|_| Mutex::new(None)).collect();
    thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = cells.get(i) else {
                    break;
                };
                let traced = run_cell_traced(cell, label_prefix);
                *slots[i].lock().expect("result slot poisoned") = Some(traced);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every cell ran")
        })
        .collect()
}

/// A sensible default worker count: the machine's available parallelism.
pub fn default_jobs() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::CommitSpec;
    use crate::matrix::ConfigVariant;
    use dhtm_types::policy::DesignKind;

    fn tiny_matrix() -> Matrix {
        Matrix::new()
            .engines([DesignKind::SoftwareOnly, DesignKind::Dhtm])
            .workloads(["queue"])
            .core_counts([2])
            .config(ConfigVariant::small())
            .commits(CommitSpec::Fixed(6))
    }

    #[test]
    fn serial_run_produces_one_row_per_cell() {
        let m = tiny_matrix();
        let rows = run_matrix(&m, 1);
        assert_eq!(rows.len(), m.cells().len());
        assert!(rows.iter().all(|r| r.stats.committed == 6));
        assert_eq!(rows[0].engine, "SO");
        assert_eq!(rows[1].engine, "DHTM");
    }

    #[test]
    fn parallel_run_matches_serial_bit_for_bit() {
        let m = tiny_matrix();
        let serial = run_matrix(&m, 1);
        for jobs in [2, 3, 8] {
            assert_eq!(run_matrix(&m, jobs), serial, "jobs={jobs}");
        }
    }

    #[test]
    fn oversized_job_count_is_clamped() {
        let m = tiny_matrix();
        let rows = run_matrix(&m, 1000);
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn traced_matrix_matches_plain_stats_and_collects_probes() {
        let m = tiny_matrix();
        let plain = run_matrix(&m, 1);
        let traced = run_matrix_traced(&m, 1, "test");
        assert_eq!(plain.len(), traced.len());
        for (p, (t, lines)) in plain.iter().zip(&traced) {
            assert_eq!(p.stats, t.stats, "instrumentation must not perturb runs");
            assert!(!t.probes.is_empty(), "traced rows carry probes");
            assert!(!lines.is_empty(), "traced cells emit NDJSON lines");
            assert!(lines[0].starts_with('{'));
        }
        // Cell labels embed the prefix and the cell coordinates.
        let (row, lines) = &traced[0];
        assert!(lines[0].contains(&format!("test/{}/{}", row.engine, row.workload)));
        // Parallel traced runs are bit-identical to serial ones.
        assert_eq!(run_matrix_traced(&m, 4, "test"), traced);
    }
}
