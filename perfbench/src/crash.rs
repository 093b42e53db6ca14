//! The `crash` workload: the `recovery` experiment's crash matrix (all six
//! designs × hash and queue, stratified and adversarial crash points) and
//! its fault-injected DHTM negative control, driven through the crash
//! crate's public steps — `profile_cell`, `plan_points`, `capture_cell`,
//! `RecoveryAuditor::audit` — so each step can be timed.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use dhtm_crash::plan::plan_points;
use dhtm_crash::{capture_cell, negative_control, profile_cell, CrashCell, CrashMatrix};
use dhtm_crash::{NegativeControl, RecoveryAuditor};
use dhtm_harness::runner::Row;
use dhtm_types::policy::DesignKind;
use dhtm_types::stats::{RecoveryCounters, RunStats};

use crate::sim::{paper_err_pct, simulated_counters, FIG5_ON_HASH_QUEUE};
use crate::stats::Fnv;
use crate::trace::{enter, ns_since, Tracer};
use crate::{Bench, Layers, Rep};

/// Commit target, crash-point plan and machine of the catalogue's
/// `recovery` experiment at real scale.
const COMMITS: u64 = 64;
const STRATIFIED: usize = 8;
const ADVERSARIAL: usize = 4;

/// One work item of a repetition: a matrix cell, or the negative control.
enum Item<'a> {
    Cell(&'a CrashCell),
    Control(&'a CrashCell),
}

#[derive(Debug, Default)]
struct ItemOut {
    stats: Option<RunStats>,
    total_mutations: u64,
    counters: RecoveryCounters,
    points: u64,
    failed_points: Vec<u64>,
    control: Option<Option<NegativeControl>>,
    item_ns: u64,
    profile_ns: u64,
    capture_ns: u64,
    audit_ns: u64,
}

fn run_cell(cell: &CrashCell, tracer: Option<&Tracer>, parent: Option<usize>) -> ItemOut {
    let mut out = ItemOut::default();
    let t = Instant::now();
    let run = {
        let _g = enter(tracer, "crash.profile_cell", parent);
        profile_cell(cell)
    };
    out.profile_ns = ns_since(t);
    let plan = plan_points(&run, STRATIFIED, ADVERSARIAL, &[], &[]);
    let points: Vec<u64> = plan.iter().map(|p| p.point).collect();
    let t = Instant::now();
    let captures = {
        let _g = enter(tracer, "crash.capture_cell", parent);
        capture_cell(cell, &points)
    };
    out.capture_ns = ns_since(t);
    let mut auditor = RecoveryAuditor::new(&run.profile, cell.design);
    for (point, snapshot) in &captures {
        let _g = enter(tracer, "crash.audit", parent);
        let t = Instant::now();
        let outcome = auditor.audit(*point, snapshot);
        out.audit_ns += ns_since(t);
        outcome.accumulate(&mut out.counters);
        if !outcome.passed {
            out.failed_points.push(*point);
        }
    }
    out.points = captures.len() as u64;
    // A capture run that lost points would shrink the audit silently.
    if captures.len() != plan.len() {
        out.failed_points.push(u64::MAX);
    }
    out.total_mutations = run.profile.total_mutations;
    out.stats = Some(run.profile.result.stats);
    out
}

/// The crash matrix as a benchmark workload.
pub struct CrashBench {
    cells: Vec<CrashCell>,
    jobs: usize,
}

impl CrashBench {
    pub fn new(seed: u64, jobs: usize) -> Self {
        let workloads = ["hash", "queue"];
        let mut matrix = CrashMatrix::new(
            &DesignKind::ALL,
            workloads,
            dhtm_harness::experiment_config(),
        );
        matrix.commits = COMMITS;
        matrix.seed = seed;
        matrix.stratified = STRATIFIED;
        matrix.adversarial = ADVERSARIAL;
        CrashBench {
            cells: matrix.cells(),
            jobs: jobs.max(1),
        }
    }
}

impl Bench for CrashBench {
    fn rep(&mut self, tracer: Option<&Tracer>) -> Rep {
        let rep_span = enter(tracer, "rep", None);
        let rep_id = rep_span.id();

        // Set-up: build every cell's components. The profile and capture
        // runs build their own again; this measures what one build costs.
        let t = Instant::now();
        {
            let _g = enter(tracer, "scenario.components", rep_id);
            for cell in &self.cells {
                std::hint::black_box(cell.resolved().components());
            }
        }
        let setup_s = t.elapsed().as_secs_f64();

        let control_cell = self
            .cells
            .iter()
            .find(|c| c.design == DesignKind::Dhtm)
            .expect("the matrix has a DHTM cell");
        let mut items: Vec<Item> = self.cells.iter().map(Item::Cell).collect();
        items.push(Item::Control(control_cell));

        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<ItemOut>>> = items.iter().map(|_| Mutex::new(None)).collect();
        let t_run = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..self.jobs.min(items.len()) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    let t = Instant::now();
                    let mut out = match item {
                        Item::Cell(cell) => {
                            let g = enter(
                                tracer,
                                &format!("crash.cell:{}/{}", cell.design.id(), cell.workload),
                                rep_id,
                            );
                            run_cell(cell, tracer, g.id())
                        }
                        Item::Control(cell) => {
                            let _g = enter(tracer, "crash.negative_control", rep_id);
                            ItemOut {
                                control: Some(negative_control(cell)),
                                ..ItemOut::default()
                            }
                        }
                    };
                    out.item_ns = ns_since(t);
                    *slots[i].lock().expect("slot poisoned") = Some(out);
                });
            }
        });
        let wall_s = t_run.elapsed().as_secs_f64();
        drop(rep_span);
        let outs: Vec<ItemOut> = slots
            .into_iter()
            .map(|s| s.into_inner().expect("slot poisoned").expect("item ran"))
            .collect();

        let mut rep = Rep {
            wall_s,
            setup_s,
            items: outs.len() as u64,
            ..Rep::default()
        };
        let mut fp = Fnv::new();
        let mut rows = Vec::new();
        for (cell, out) in self.cells.iter().zip(&outs) {
            let stats = out.stats.as_ref().expect("cell items carry stats");
            let label = format!("{} {}", cell.design.label(), cell.workload);
            rep.checks.check(stats.committed == cell.commits, || {
                format!("{label}: committed {} of {}", stats.committed, cell.commits)
            });
            rep.checks.attempted += out.points;
            for p in &out.failed_points {
                rep.checks
                    .fail(format!("{label}: recovery oracle failed at point {p}"));
            }
            fp.write(
                format!(
                    "{label}:{:?}:{:?}:{}",
                    stats, out.counters, out.total_mutations
                )
                .as_bytes(),
            );
            // The capture run replays the profile run step for step.
            rep.steps += 2 * stats.steps;
            rows.push(Row {
                experiment: String::new(),
                engine: cell.design.label().to_string(),
                workload: cell.workload.clone(),
                cores: cell.config.num_cores,
                config: cell.config_name.clone(),
                seed: cell.seed,
                target_commits: cell.commits,
                stats: stats.clone(),
                probes: Vec::new(),
            });
        }
        let control = outs
            .last()
            .and_then(|o| o.control)
            .expect("the last item is the control");
        let detected = control.map_or([false; 3], |c| {
            [c.clean_passed, c.flip_detected, c.drop_detected]
        });
        for (ok, what) in detected.into_iter().zip([
            "negative control: clean image failed the oracles",
            "negative control: flipped redo payload went undetected",
            "negative control: dropped commit marker went undetected",
        ]) {
            rep.checks.check(ok, || what.to_string());
        }
        fp.write(format!("control:{detected:?}").as_bytes());
        let control_steps = rows
            .iter()
            .find(|r| {
                r.engine == control_cell.design.label() && r.workload == control_cell.workload
            })
            .map_or(0, |r| r.stats.steps);
        rep.steps += 2 * control_steps;
        rep.fingerprint = fp.finish();
        rep.latencies_ms.push(wall_s * 1e3);
        let first = &self.cells[0];
        rep.paper_err_pct = paper_err_pct(
            &rows,
            FIG5_ON_HASH_QUEUE,
            &first.config_name,
            first.config.num_cores,
        );

        if tracer.is_some() {
            layers(&outs, &rows, wall_s, self.jobs, &mut rep.layers);
        }
        rep
    }
}

fn layers(outs: &[ItemOut], rows: &[Row], wall_s: f64, jobs: usize, l: &mut Layers) {
    let cells: Vec<&ItemOut> = outs.iter().filter(|o| o.stats.is_some()).collect();
    let points: u64 = cells.iter().map(|o| o.points).sum();
    let sum_ns = |f: fn(&ItemOut) -> u64| cells.iter().map(|o| f(o)).sum::<u64>() as f64;
    l.insert(
        "crash.profile_ms",
        sum_ns(|o| o.profile_ns) / 1e6 / cells.len() as f64,
    );
    l.insert(
        "crash.capture_ms_per_point",
        sum_ns(|o| o.capture_ns) / 1e6 / points as f64,
    );
    l.insert(
        "crash.audit_ms_per_point",
        sum_ns(|o| o.audit_ns) / 1e6 / points as f64,
    );
    l.insert("crash.points", points as f64);
    l.insert(
        "crash.replayed",
        cells
            .iter()
            .map(|o| o.counters.replayed_transactions)
            .sum::<u64>() as f64,
    );
    l.insert(
        "crash.rolled_back",
        cells
            .iter()
            .map(|o| o.counters.rolled_back_transactions)
            .sum::<u64>() as f64,
    );
    l.insert(
        "sim.steps",
        rows.iter().map(|r| r.stats.steps).sum::<u64>() as f64,
    );
    let item_max = outs.iter().map(|o| o.item_ns).max().unwrap_or(0);
    l.insert("harness.cell_max_s", item_max as f64 / 1e9);
    let busy: f64 = outs.iter().map(|o| o.item_ns as f64 / 1e9).sum();
    l.insert("harness.pool_busy_share", busy / (jobs as f64 * wall_s));
    let runs: Vec<(&RunStats, &[(String, u64)])> =
        rows.iter().map(|r| (&r.stats, &[][..])).collect();
    simulated_counters(&runs, l);
}
