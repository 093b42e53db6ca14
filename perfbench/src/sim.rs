//! The `micro` (Figure 5) and `oltp` (Table VI) workloads: a catalogue
//! matrix run on a pool of worker threads, with set-up and body timed
//! apart.
//!
//! Workers claim cells in matrix order through an atomic cursor, as
//! `dhtm_harness::runner::run_cells` does, and build, start and run each
//! cell they claim. A cell's set-up (`SimSpec::resolve`,
//! `ResolvedSpec::components`, `Simulator::start`, which applies the
//! workload's set-up transactions) is timed apart and left out of the
//! body's wall-clock.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use dhtm_harness::experiments::catalogue_matrices;
use dhtm_harness::matrix::Cell;
use dhtm_harness::report::{geometric_mean, so_normalised};
use dhtm_harness::runner::Row;
use dhtm_obs::ProbeRegistry;
use dhtm_sim::driver::{RunLimits, SimulationResult, Simulator};
use dhtm_sim::engine::TxEngine;
use dhtm_sim::machine::Machine;
use dhtm_sim::workload::Workload;
use dhtm_types::stats::{AbortReason, RunStats};

use crate::stats::Fnv;
use crate::trace::{
    enter, ns_since, EngineTally, TimedEngine, TimedWorkload, Tracer, WorkloadTally, ENGINE_CALLS,
};
use crate::{Bench, Layers, Rep};

/// The paper's SO-normalised values a workload's fidelity is scored
/// against: (engine label, workloads, paper value). The measured value is
/// the geometric mean of the engine's SO-normalised throughput over the
/// listed workloads.
pub type PaperRef<'a> = [(&'a str, &'a [&'a str], f64)];

/// Figure 5 averages over the six micro-benchmarks.
pub const FIG5: &PaperRef<'static> = &[
    ("sdTM", &dhtm_harness::MICRO_NAMES, 1.20),
    ("ATOM", &dhtm_harness::MICRO_NAMES, 1.35),
    ("LogTM-ATOM", &dhtm_harness::MICRO_NAMES, 1.44),
    ("DHTM", &dhtm_harness::MICRO_NAMES, 1.61),
];

/// The same Figure 5 averages, measured on the two micro-benchmarks the
/// crash matrix runs.
pub const FIG5_ON_HASH_QUEUE: &PaperRef<'static> = &[
    ("sdTM", &["hash", "queue"], 1.20),
    ("ATOM", &["hash", "queue"], 1.35),
    ("LogTM-ATOM", &["hash", "queue"], 1.44),
    ("DHTM", &["hash", "queue"], 1.61),
];

/// Table VI, per OLTP workload.
pub const TABLE6: &PaperRef<'static> = &[
    ("ATOM", &["tpcc"], 1.67),
    ("DHTM", &["tpcc"], 1.88),
    ("ATOM", &["tatp"], 1.27),
    ("DHTM", &["tatp"], 1.53),
];

/// Mean |measured/paper − 1| in percent over `reference`, computed with
/// the arithmetic (`so_normalised`, `geometric_mean`) the harness's figure
/// and table renderers use.
pub fn paper_err_pct(rows: &[Row], reference: &PaperRef<'_>, config: &str, cores: usize) -> f64 {
    let errs: Vec<f64> = reference
        .iter()
        .map(|&(engine, workloads, paper)| {
            let norms: Vec<f64> = workloads
                .iter()
                .map(|wl| so_normalised(rows, engine, wl, config, cores))
                .collect();
            (geometric_mean(&norms) / paper - 1.0).abs()
        })
        .collect();
    100.0 * errs.iter().sum::<f64>() / errs.len() as f64
}

/// Sum of every probe named `suffix` or ending in `/suffix`.
fn probe_sum(probes: &[(String, u64)], suffix: &str) -> u64 {
    probes
        .iter()
        .filter(|(n, _)| n == suffix || n.strip_suffix(suffix).is_some_and(|p| p.ends_with('/')))
        .map(|&(_, v)| v)
        .sum()
}

fn probe_max(probes: &[(String, u64)], suffix: &str) -> u64 {
    probes
        .iter()
        .filter(|(n, _)| n == suffix || n.strip_suffix(suffix).is_some_and(|p| p.ends_with('/')))
        .map(|&(_, v)| v)
        .max()
        .unwrap_or(0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The simulated per-layer counters of a set of runs, exactly as the runs
/// exported them (`RunStats` and the post-run probe registry). `probes` may
/// be empty (the crash prober exports none), which zeroes the probe-only
/// counters.
pub fn simulated_counters(runs: &[(&RunStats, &[(String, u64)])], out: &mut Layers) {
    let sum = |f: &dyn Fn(&RunStats) -> u64| runs.iter().map(|(s, _)| f(s)).sum::<u64>() as f64;
    let psum = |name: &str| runs.iter().map(|(_, p)| probe_sum(p, name)).sum::<u64>() as f64;
    let l1_miss = sum(&|s| s.l1_misses);
    let llc_miss = sum(&|s| s.llc_misses);
    out.insert(
        "cache.l1.miss_ratio",
        ratio(l1_miss, l1_miss + sum(&|s| s.l1_hits)),
    );
    out.insert(
        "cache.llc.miss_ratio",
        ratio(llc_miss, llc_miss + sum(&|s| s.llc_hits)),
    );
    out.insert("cache.log_buffer.evictions", psum("log_buffer/evictions"));
    let peak = runs
        .iter()
        .map(|(_, p)| probe_max(p, "log_buffer/peak_occupancy"))
        .max();
    out.insert("cache.log_buffer.peak", peak.unwrap_or(0) as f64);
    out.insert("coherence.dir.invalidations", psum("dir/invalidations"));
    let busy = psum("channel/busy_cycles");
    out.insert(
        "nvm.channel.busy_share",
        ratio(busy, busy + psum("channel/idle_cycles")),
    );
    out.insert(
        "nvm.channel.queue_delay_cycles",
        psum("channel/queue_delay_cycles"),
    );
    let committed = sum(&|s| s.committed);
    out.insert(
        "nvm.log_bytes_per_commit",
        ratio(sum(&|s| s.log_bytes_written), committed),
    );
    out.insert("nvm.overflow.appended", psum("overflow/appended"));
    let aborts = sum(&|s| s.total_aborts());
    out.insert(
        "htm.abort_rate_pct",
        100.0 * ratio(aborts, aborts + committed),
    );
    for (name, reason) in [
        ("htm.aborts.conflict", AbortReason::Conflict),
        ("htm.aborts.capacity", AbortReason::Capacity),
        ("htm.aborts.log_overflow", AbortReason::LogOverflow),
        ("htm.aborts.fallback", AbortReason::Fallback),
    ] {
        out.insert(name, sum(&|s| s.aborts.get(&reason).copied().unwrap_or(0)));
    }
}

/// Host-time tallies of one traced cell.
#[derive(Debug, Default, Clone, Copy)]
struct CellTrace {
    engine: EngineTally,
    workload: WorkloadTally,
    step_calls: u64,
    step_ns: u64,
}

#[derive(Debug)]
struct CellOut {
    index: usize,
    stats: RunStats,
    probes: Vec<(String, u64)>,
    /// `resolve` + `components` + `Simulator::start`.
    setup_ns: u64,
    /// The stepping loop and collecting the result.
    run_ns: u64,
    /// Work the benchmark adds around the cell: reading the probe registry
    /// and, in a traced repetition, recording the hot spans.
    bookkeeping_ns: u64,
    trace: Option<CellTrace>,
}

/// What [`drive`] reports for one cell.
struct Driven {
    result: SimulationResult,
    start_ns: u64,
    run_ns: u64,
    step_calls: u64,
    step_ns: u64,
    /// When the stepping loop started and ended.
    steps_window: (Instant, Instant),
    run_span: Option<usize>,
}

/// Starts one cell's session (set-up transactions) and runs it to
/// completion. Generic over the engine and workload so the untraced path
/// runs the exact monomorphised session the harness runs, and the traced
/// path the same session over the timing wrappers.
fn drive<E: TxEngine + ?Sized, W: Workload + ?Sized>(
    machine: &mut Machine,
    engine: &mut E,
    workload: &mut W,
    limits: &RunLimits,
    tracer: Option<&Tracer>,
    cell_span: Option<usize>,
) -> Driven {
    let t = Instant::now();
    let mut session = Simulator::new().start(machine, engine, workload, limits);
    let start_ns = ns_since(t);
    let run = enter(tracer, "sim.run", cell_span);
    // Timing each step would cost a clock read per step; the steps' total
    // is the whole stepping loop, so the run's remainder past it is
    // collecting the result.
    let t = Instant::now();
    session.run_to_completion();
    let stepped = Instant::now();
    let step_ns = ns_since(t);
    let result = session.into_result();
    let run_ns = ns_since(t);
    let step_calls = result.stats.steps;
    Driven {
        result,
        start_ns,
        run_ns,
        step_calls,
        step_ns,
        steps_window: (t, stepped),
        run_span: run.id(),
    }
}

/// Builds, starts and runs one cell on the calling worker thread, as
/// `dhtm_harness::runner::run_cell` does, with its set-up timed apart.
fn run_cell(cell: &Cell, tracer: Option<&Tracer>, rep_span: Option<usize>) -> CellOut {
    let span = enter(
        tracer,
        &format!("cell:{}/{}", cell.engine().as_str(), cell.workload()),
        rep_span,
    );
    let cell_span = span.id();
    let t = Instant::now();
    let (mut machine, mut engine, mut workload, limits) = {
        let _g = enter(tracer, "scenario.components", cell_span);
        cell.spec
            .resolve()
            .expect("catalogue specs validate")
            .components()
    };
    let build_ns = ns_since(t);

    let mut trace = CellTrace::default();
    let d = if tracer.is_some() {
        let mut e = TimedEngine::new(&mut engine);
        let mut w = TimedWorkload::new(workload.as_mut());
        let d = drive(&mut machine, &mut e, &mut w, &limits, tracer, cell_span);
        trace.engine = e.tally;
        trace.workload = w.tally;
        d
    } else {
        drive(
            &mut machine,
            &mut engine,
            workload.as_mut(),
            &limits,
            None,
            cell_span,
        )
    };

    let t = Instant::now();
    let mut reg = ProbeRegistry::new();
    machine
        .mem
        .probes_into(d.result.stats.total_cycles, &mut reg);
    engine.probes_into(&mut reg);
    let probes = reg.flatten();
    if let Some(tr) = tracer {
        trace.step_calls = d.step_calls;
        trace.step_ns = d.step_ns;
        record_hot_spans(tr, d.run_span, d.steps_window, &trace);
    }
    CellOut {
        index: cell.index,
        stats: d.result.stats,
        probes,
        setup_ns: build_ns + d.start_ns,
        run_ns: d.run_ns,
        bookkeeping_ns: ns_since(t),
        trace: tracer.map(|_| trace),
    }
}

/// Folds a cell's hot calls into aggregate spans: `sim.step` under the
/// cell's `sim.run`, and the engine and workload calls under `sim.step`.
fn record_hot_spans(
    tracer: &Tracer,
    run_span: Option<usize>,
    window: (Instant, Instant),
    t: &CellTrace,
) {
    let step = tracer.aggregate("sim.step", run_span, window, t.step_calls, t.step_ns);
    for (k, name) in ENGINE_CALLS.iter().enumerate() {
        tracer.aggregate(
            &format!("engine.{name}"),
            Some(step),
            window,
            t.engine.calls[k],
            t.engine.ns[k],
        );
    }
    tracer.aggregate(
        "workloads.next_tx",
        Some(step),
        window,
        t.workload.calls,
        t.workload.ns,
    );
}

/// A catalogue matrix as a benchmark workload.
pub struct SimBench {
    cells: Vec<Cell>,
    reference: &'static PaperRef<'static>,
    jobs: usize,
}

impl SimBench {
    /// `experiment` names a catalogue matrix ("fig5", "table6"); the matrix
    /// is re-seeded with `seed` and each cell's commit target divided by
    /// `length_divisor`.
    pub fn new(
        experiment: &str,
        reference: &'static PaperRef<'static>,
        seed: u64,
        length_divisor: u64,
        jobs: usize,
    ) -> Self {
        let (_, matrix) = catalogue_matrices()
            .into_iter()
            .find(|(name, _)| *name == experiment)
            .expect("catalogue experiment exists");
        let mut cells = matrix.seed(seed).cells();
        for cell in &mut cells {
            cell.spec.limits.target_commits = (cell.commits() / length_divisor).max(1);
        }
        let jobs = jobs.clamp(1, cells.len());
        SimBench {
            cells,
            reference,
            jobs,
        }
    }

    fn rows(&self, outs: &[CellOut]) -> Vec<Row> {
        outs.iter()
            .map(|o| {
                let cell = &self.cells[o.index];
                Row {
                    experiment: String::new(),
                    engine: cell.engine_label(),
                    workload: cell.workload().to_string(),
                    cores: cell.cores,
                    config: cell.config_name.clone(),
                    seed: cell.seed,
                    target_commits: cell.commits(),
                    stats: o.stats.clone(),
                    probes: Vec::new(),
                }
            })
            .collect()
    }
}

impl Bench for SimBench {
    fn rep(&mut self, tracer: Option<&Tracer>) -> Rep {
        let rep_span = enter(tracer, "rep", None);
        let rep_id = rep_span.id();
        // Cells are handed out as `dhtm_harness::runner::run_cells` hands
        // them out: an atomic cursor in matrix order, each worker building
        // and running the cell it claims.
        let next = AtomicUsize::new(0);
        let cells = &self.cells;
        let t0 = Instant::now();
        let workers: Vec<(Vec<CellOut>, f64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.jobs)
                .map(|_| {
                    scope.spawn(|| {
                        let mut outs = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(cell) = cells.get(i) else {
                                break;
                            };
                            outs.push(run_cell(cell, tracer, rep_id));
                        }
                        let excluded: u64 =
                            outs.iter().map(|o| o.setup_ns + o.bookkeeping_ns).sum();
                        (outs, t0.elapsed().as_secs_f64() - excluded as f64 / 1e9)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker thread panicked"))
                .collect()
        });
        drop(rep_span);
        // The body ends with the last worker; each worker's clock leaves
        // out the set-up of its cells and the benchmark's bookkeeping.
        let wall_s = workers.iter().map(|w| w.1).fold(0.0, f64::max);
        let mut outs: Vec<CellOut> = workers.into_iter().flat_map(|w| w.0).collect();
        outs.sort_by_key(|o| o.index);
        let setup_s = outs.iter().map(|o| o.setup_ns).sum::<u64>() as f64 / 1e9;

        let mut rep = Rep {
            wall_s,
            setup_s,
            ..Rep::default()
        };
        let mut fp = Fnv::new();
        for o in &outs {
            let cell = &self.cells[o.index];
            rep.checks.check(o.stats.committed == cell.commits(), || {
                format!(
                    "cell {} ({} {}) committed {} of {} before max_cycles",
                    o.index,
                    cell.engine_label(),
                    cell.workload(),
                    o.stats.committed,
                    cell.commits()
                )
            });
            fp.write(format!("{}:{:?}", o.index, o.stats).as_bytes());
            for (name, v) in &o.probes {
                fp.write(format!("{name}={v}").as_bytes());
            }
            rep.steps += o.stats.steps;
        }
        rep.items = outs.len() as u64;
        rep.latencies_ms.push(wall_s * 1e3);
        rep.fingerprint = fp.finish();
        let first = &self.cells[0];
        rep.paper_err_pct = paper_err_pct(
            &self.rows(&outs),
            self.reference,
            &first.config_name,
            first.cores,
        );

        if let Some(tracer) = tracer {
            self.layers(tracer, &outs, wall_s, &mut rep.layers);
        }
        rep
    }
}

impl SimBench {
    fn layers(&self, tracer: &Tracer, outs: &[CellOut], wall_s: f64, l: &mut Layers) {
        let selfs = tracer.self_time_by_name();
        let self_ns = |name: &str| selfs.get(name).map_or(0.0, |&(ns, _)| ns as f64);
        let run_ns: f64 = outs.iter().map(|o| o.run_ns as f64).sum();
        let traces: Vec<CellTrace> = outs.iter().filter_map(|o| o.trace).collect();
        let step_calls: u64 = traces.iter().map(|t| t.step_calls).sum();
        let engine_self: f64 = ENGINE_CALLS
            .iter()
            .map(|c| self_ns(&format!("engine.{c}")))
            .sum();

        l.insert(
            "sim.steps",
            outs.iter().map(|o| o.stats.steps).sum::<u64>() as f64,
        );
        l.insert(
            "sim.self_ns_per_step",
            ratio(self_ns("sim.step"), step_calls as f64),
        );
        l.insert("sim.self_share", ratio(self_ns("sim.step"), run_ns));
        l.insert(
            "sim.begin_stalls",
            traces.iter().map(|t| t.engine.stalls[0]).sum::<u64>() as f64,
        );
        l.insert("engine.self_share", ratio(engine_self, run_ns));
        l.insert(
            "workloads.self_share",
            ratio(self_ns("workloads.next_tx"), run_ns),
        );
        l.insert("obs.unattributed_share", ratio(self_ns("sim.run"), run_ns));

        let mut engine = EngineTally::default();
        for t in &traces {
            for k in 0..ENGINE_CALLS.len() {
                engine.calls[k] += t.engine.calls[k];
                engine.ns[k] += t.engine.ns[k];
                engine.stalls[k] += t.engine.stalls[k];
            }
            engine.commits += t.engine.commits;
        }
        for (k, name) in ENGINE_CALLS.iter().enumerate() {
            l.insert(format!("engine.{name}.calls"), engine.calls[k] as f64);
            l.insert(
                format!("engine.{name}.ns"),
                ratio(engine.ns[k] as f64, engine.calls[k] as f64),
            );
        }
        let calls: u64 = engine.calls.iter().sum();
        let engine_ns: u64 = engine.ns.iter().sum();
        l.insert(
            "engine.stall_ratio",
            ratio(engine.stalls.iter().sum::<u64>() as f64, calls as f64),
        );
        l.insert(
            "engine.commit_ratio",
            ratio(engine.commits as f64, engine.calls[0] as f64),
        );
        let mut by_engine: BTreeMap<String, u64> = BTreeMap::new();
        for o in outs {
            let ns: u64 = o.trace.map_or(0, |t| t.engine.ns.iter().sum());
            *by_engine
                .entry(self.cells[o.index].engine().as_str().to_string())
                .or_default() += ns;
        }
        for (id, ns) in by_engine {
            l.insert(
                format!("engine.share.{id}"),
                ratio(ns as f64, engine_ns as f64),
            );
        }

        let wl: WorkloadTally =
            traces
                .iter()
                .fold(WorkloadTally::default(), |a, t| WorkloadTally {
                    calls: a.calls + t.workload.calls,
                    ns: a.ns + t.workload.ns,
                    ops: a.ops + t.workload.ops,
                });
        l.insert("workloads.next_tx.calls", wl.calls as f64);
        l.insert("workloads.next_tx.ns", ratio(wl.ns as f64, wl.calls as f64));
        l.insert(
            "workloads.ops_per_tx",
            ratio(wl.ops as f64, wl.calls as f64),
        );

        let setup_ns: f64 = outs.iter().map(|o| o.setup_ns as f64).sum();
        l.insert("scenario.components_ms", setup_ns / 1e6 / outs.len() as f64);
        let cell_max = outs.iter().map(|o| o.run_ns).max().unwrap_or(0);
        l.insert("harness.cell_max_s", cell_max as f64 / 1e9);
        l.insert(
            "harness.pool_busy_share",
            ratio(run_ns / 1e9, self.jobs as f64 * wall_s),
        );

        let runs: Vec<(&RunStats, &[(String, u64)])> = outs
            .iter()
            .map(|o| (&o.stats, o.probes.as_slice()))
            .collect();
        simulated_counters(&runs, l);
    }
}
