//! The DHTM reproduction's benchmark.
//!
//! ```text
//! dhtm_perfbench --workload micro|oltp|crash|service [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One run builds the workload's inputs from the seed, runs one warm-up
//! repetition (checked, not timed), then repeats the workload body for
//! about `--seconds` seconds. Every repetition's outputs are checked and
//! its simulated outputs fingerprinted; all fingerprints of a run must
//! agree. Human-readable lines (host, fingerprint, each metric with its
//! spread) go to stdout, and the last line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. A run with a failed
//! check exits with status 1 after printing it.
//!
//! With `--trace 0` the metrics are the end-to-end ones, measured with no
//! instrumentation. With `--trace 1` untraced and traced repetitions
//! alternate: the traced ones run with spans around every layer boundary
//! and timing wrappers around the engine and workload, and give the
//! per-layer metrics; the two kinds together give the tracing overhead.
//! The spans are written to `.bench_out/spans-<workload>-<seed>.ndjson`.
//! See `perfbench/README.md` for every metric's definition.

#![forbid(unsafe_code)]

mod crash;
mod layers;
mod service;
mod sim;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use stats::{iqr_share, median, percentile};
use trace::Tracer;

/// End-to-end metrics: (name, unit). Every workload reports every one.
const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("steps_per_s", "events/s"),
    ("peak_rss_mb", "MiB"),
    ("paper_agree_pct", "%"),
    ("svc_p50_ms", "ms"),
    ("svc_p99_ms", "ms"),
    ("svc_specs_per_s", "specs/s"),
    ("ok_share", "ratio"),
];

/// Per-layer metrics of the traced run: (name, unit). A metric of a layer
/// a workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("sim.steps", "count"),
    ("sim.self_ns_per_step", "ns"),
    ("sim.self_share", "ratio"),
    ("sim.begin_stalls", "count"),
    ("engine.begin.ns", "ns"),
    ("engine.begin.calls", "count"),
    ("engine.read.ns", "ns"),
    ("engine.read.calls", "count"),
    ("engine.write.ns", "ns"),
    ("engine.write.calls", "count"),
    ("engine.commit.ns", "ns"),
    ("engine.commit.calls", "count"),
    ("engine.stall_ratio", "ratio"),
    ("engine.commit_ratio", "ratio"),
    ("engine.self_share", "ratio"),
    ("engine.share.so", "ratio"),
    ("engine.share.sdtm", "ratio"),
    ("engine.share.atom", "ratio"),
    ("engine.share.logtm-atom", "ratio"),
    ("engine.share.dhtm", "ratio"),
    ("engine.share.np", "ratio"),
    ("workloads.next_tx.ns", "ns"),
    ("workloads.next_tx.calls", "count"),
    ("workloads.ops_per_tx", "count"),
    ("workloads.self_share", "ratio"),
    ("obs.unattributed_share", "ratio"),
    ("obs.trace_overhead_pct", "%"),
    ("scenario.components_ms", "ms"),
    ("harness.cell_max_s", "s"),
    ("harness.pool_busy_share", "ratio"),
    ("cache.l1.miss_ratio", "ratio"),
    ("cache.llc.miss_ratio", "ratio"),
    ("cache.log_buffer.evictions", "count"),
    ("cache.log_buffer.peak", "count"),
    ("coherence.dir.invalidations", "count"),
    ("nvm.channel.busy_share", "ratio"),
    ("nvm.channel.queue_delay_cycles", "cycles"),
    ("nvm.log_bytes_per_commit", "B"),
    ("nvm.overflow.appended", "count"),
    ("htm.abort_rate_pct", "%"),
    ("htm.aborts.conflict", "count"),
    ("htm.aborts.capacity", "count"),
    ("htm.aborts.log_overflow", "count"),
    ("htm.aborts.fallback", "count"),
    ("sim.calendar.push_pop_ns", "ns"),
    ("cache.set_assoc.probe_ns", "ns"),
    ("cache.lineset.insert64_ns", "ns"),
    ("cache.lineset.insert600_ns", "ns"),
    ("nvm.channel.request_ns", "ns"),
    ("crash.profile_ms", "ms"),
    ("crash.capture_ms_per_point", "ms"),
    ("crash.audit_ms_per_point", "ms"),
    ("crash.points", "count"),
    ("crash.replayed", "count"),
    ("crash.rolled_back", "count"),
    ("service.executed", "count"),
    ("service.hit_ratio", "ratio"),
    ("service.dispositions.queued", "count"),
    ("service.dispositions.inflight", "count"),
    ("service.dispositions.hit_disk", "count"),
    ("service.dispositions.hit_memory", "count"),
    ("service.dispositions.dup_batch", "count"),
    ("service.worker_busy_share", "ratio"),
    ("service.peak_queue_depth", "count"),
    ("service.store.save_ms", "ms"),
    ("service.store.load_ms", "ms"),
    ("service.record.json_us", "us"),
    ("service.frame.codec_us", "us"),
];

const WORKLOADS: [&str; 4] = ["micro", "oltp", "crash", "service"];

/// Table VI cells are an order of magnitude costlier than Figure 5's; the
/// `oltp` workload runs them at this fraction of the catalogue's commit
/// targets (TPC-C 8, TATP 20) so a run holds about ten repetitions.
const OLTP_LENGTH_DIVISOR: u64 = 8;

/// Where the benchmark writes (relative to the working directory, the
/// root of the checkout): span logs and the service's result stores.
const OUT_DIR: &str = ".bench_out";

/// Per-layer metric values of one traced repetition.
#[derive(Debug, Default, Clone)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    pub fn insert(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }
}

/// Output checks: operations attempted and failed, with the first few
/// failures described.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    /// One attempted operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// A failure of an operation already counted as attempted.
    pub fn fail(&mut self, note: String) {
        self.fail_many(1, note);
    }

    /// `n` failures of operations already counted as attempted.
    pub fn fail_many(&mut self, n: u64, note: String) {
        self.failed += n;
        if self.notes.len() < 20 {
            self.notes.push(note);
        }
    }

    fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for note in other.notes {
            if self.notes.len() < 20 {
                self.notes.push(note);
            }
        }
    }
}

/// One repetition of a workload body.
#[derive(Debug, Default)]
pub struct Rep {
    /// Host wall-clock of the body, after set-up.
    pub wall_s: f64,
    pub setup_s: f64,
    /// Simulated driver steps executed by the body.
    pub steps: u64,
    /// Units of work served: cells, crash cells, service specs.
    pub items: u64,
    /// What a client waits for, in the same unit order every repetition:
    /// each service batch's round trip; for the simulation workloads the
    /// whole body (a figure, a table, the crash matrix).
    pub latencies_ms: Vec<f64>,
    pub checks: Checks,
    /// Hash over every simulated output of the repetition.
    pub fingerprint: u64,
    pub paper_err_pct: f64,
    /// Filled by traced repetitions only.
    pub layers: Layers,
}

/// A workload: set up once, then repeated.
pub trait Bench {
    fn rep(&mut self, tracer: Option<&Tracer>) -> Rep;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: dhtm_harness::EXPERIMENT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                args.seed = value
                    .parse()
                    .map_err(|_| format!("--seed needs an unsigned integer, got {value:?}"))?;
            }
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds needs a positive number, got {value:?}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    Ok(args)
}

/// The host a result set was measured on.
fn host_lines(args: &Args, jobs: usize) -> Vec<String> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let run = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let rustc = run("rustc", &["-V"]);
    // Only ask git about a checkout that is itself a repository; git would
    // otherwise report whatever repository encloses it.
    let commit = if std::path::Path::new(".git").exists() {
        run("git", &["rev-parse", "HEAD"])
    } else {
        "none (not a git checkout)".to_string()
    };
    vec![
        format!(
            "# dhtm_perfbench workload={} seed={} seconds={} trace={}",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace)
        ),
        format!("# host: cpu={cpu:?} nproc={nproc} jobs={jobs} rustc={rustc:?} commit={commit}"),
    ]
}

/// Peak resident set of this process (VmHWM), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A metric's value with the per-repetition samples it summarises.
struct Metric {
    value: f64,
    samples: Vec<f64>,
}

impl Metric {
    fn of_median(samples: Vec<f64>) -> Self {
        Metric {
            value: median(&samples),
            samples,
        }
    }

    fn single(value: f64) -> Self {
        Metric {
            value,
            samples: Vec::new(),
        }
    }
}

/// What a run measured.
struct Outcome {
    checks: Checks,
    metrics: BTreeMap<&'static str, Metric>,
    lines: Vec<String>,
}

fn measure(bench: &mut dyn Bench, args: &Args, tracers: &mut Vec<Tracer>) -> Outcome {
    let mut checks = Checks::default();
    let mut lines = Vec::new();
    let mut warm = bench.rep(None);
    let fingerprint = warm.fingerprint;
    checks.absorb(std::mem::take(&mut warm.checks));

    let start = Instant::now();
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    loop {
        let rep = if args.trace && traced.len() < plain.len() {
            let tracer = Tracer::new();
            let rep = bench.rep(Some(&tracer));
            tracers.push(tracer);
            traced.push(rep);
            traced.last_mut()
        } else {
            plain.push(bench.rep(None));
            plain.last_mut()
        }
        .expect("just pushed");
        checks.check(rep.fingerprint == fingerprint, || {
            format!(
                "simulated outputs differ between repetitions: {:016x} vs {fingerprint:016x}",
                rep.fingerprint
            )
        });
        checks.absorb(std::mem::take(&mut rep.checks));

        let reps = plain.len() + traced.len();
        let elapsed = start.elapsed().as_secs_f64();
        let enough = if args.trace {
            traced.len() >= 2 && traced.len() == plain.len()
        } else {
            plain.len() >= 3
        };
        if enough && elapsed + elapsed / reps as f64 > args.seconds {
            break;
        }
    }
    lines.push(format!(
        "# repetitions: 1 warm-up (discarded), {} measured{}",
        plain.len(),
        if args.trace {
            format!(", {} traced", traced.len())
        } else {
            String::new()
        }
    ));
    lines.push(format!(
        "# simulated-output fingerprint: {fingerprint:016x}"
    ));

    let mut metrics = BTreeMap::new();
    let per_rep = |f: fn(&Rep) -> f64| plain.iter().map(f).collect::<Vec<f64>>();
    if args.trace {
        let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for rep in &traced {
            for (name, v) in &rep.layers.0 {
                values.entry(name.clone()).or_default().push(*v);
            }
        }
        let mut micro = Layers::default();
        layers::run(args.seed, &mut micro);
        for (name, v) in micro.0 {
            values.entry(name).or_default().push(v);
        }
        let wall_plain = median(&per_rep(|r| r.wall_s));
        let wall_traced = median(&traced.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        values.insert(
            "obs.trace_overhead_pct".to_string(),
            vec![100.0 * (wall_traced / wall_plain - 1.0)],
        );
        for &(name, _) in PER_LAYER {
            let samples = values.remove(name).unwrap_or_default();
            metrics.insert(name, Metric::of_median(samples));
        }
        for name in values.keys() {
            lines.push(format!("# unlisted layer metric dropped: {name}"));
        }
    } else {
        lines.push(format!(
            "# wall_s per repetition: {}",
            per_rep(|r| r.wall_s)
                .iter()
                .map(|w| format!("{w:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        metrics.insert("wall_s", Metric::of_median(per_rep(|r| r.wall_s)));
        metrics.insert("setup_s", Metric::of_median(per_rep(|r| r.setup_s)));
        metrics.insert(
            "steps_per_s",
            Metric::of_median(per_rep(|r| r.steps as f64 / r.wall_s)),
        );
        metrics.insert("peak_rss_mb", Metric::single(peak_rss_mb()));
        let err = median(&per_rep(|r| r.paper_err_pct));
        lines.push(format!(
            "# paper_err_pct: {err:.4} % (mean |measured/paper - 1| over the paper's SO-normalised values)"
        ));
        metrics.insert(
            "paper_agree_pct",
            Metric::of_median(per_rep(|r| 100.0 / (1.0 + r.paper_err_pct / 100.0))),
        );
        // The inputs repeat, so the k-th latency sample of every repetition
        // is the same unit of work: its latency is its median over the
        // repetitions, and the percentiles run over units. One host hiccup
        // then cannot make a tail.
        let units = plain
            .iter()
            .map(|r| r.latencies_ms.len())
            .min()
            .unwrap_or(0);
        let latencies: Vec<f64> = (0..units)
            .map(|k| median(&plain.iter().map(|r| r.latencies_ms[k]).collect::<Vec<_>>()))
            .collect();
        let tail = tail_percentile(units);
        lines.push(format!(
            "# latency: {units} units, each the median of {} repetitions; svc_p99_ms is p{tail}, the highest percentile up to 99 with at least {TAIL_BEYOND} units beyond it (p50 at the least)",
            plain.len()
        ));
        metrics.insert("svc_p50_ms", Metric::single(percentile(&latencies, 50.0)));
        metrics.insert(
            "svc_p99_ms",
            Metric::single(percentile(&latencies, f64::from(tail))),
        );
        metrics.insert(
            "svc_specs_per_s",
            Metric::of_median(per_rep(|r| r.items as f64 / r.wall_s)),
        );
        let ok = 1.0 - checks.failed as f64 / checks.attempted.max(1) as f64;
        metrics.insert("ok_share", Metric::single(ok.max(0.0)));
    }
    Outcome {
        checks,
        metrics,
        lines,
    }
}

/// Units a tail percentile must leave beyond it to be reported.
const TAIL_BEYOND: usize = 10;

/// The highest whole percentile, at most 99 and at least 50, whose
/// nearest-rank value leaves `TAIL_BEYOND` of `n` units beyond it.
fn tail_percentile(n: usize) -> u32 {
    let max = 100 * n.saturating_sub(TAIL_BEYOND) / n.max(1);
    u32::try_from(max.clamp(50, 99)).expect("clamped to 50..=99")
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dhtm_perfbench: {e}");
            eprintln!(
                "usage: dhtm_perfbench --workload micro|oltp|crash|service [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let jobs = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    for line in host_lines(&args, jobs) {
        println!("{line}");
    }
    let out_dir = PathBuf::from(OUT_DIR);
    let service_dir = out_dir.join(format!("service-{}", std::process::id()));
    let mut bench: Box<dyn Bench> = match args.workload.as_str() {
        "micro" => Box::new(sim::SimBench::new("fig5", sim::FIG5, args.seed, 1, jobs)),
        "oltp" => Box::new(sim::SimBench::new(
            "table6",
            sim::TABLE6,
            args.seed,
            OLTP_LENGTH_DIVISOR,
            jobs,
        )),
        "crash" => Box::new(crash::CrashBench::new(args.seed, jobs)),
        _ => Box::new(service::ServiceBench::new(
            args.seed,
            jobs,
            service_dir.clone(),
        )),
    };
    let mut tracers = Vec::new();
    let outcome = measure(bench.as_mut(), &args, &mut tracers);
    let _ = std::fs::remove_dir_all(&service_dir);
    for line in &outcome.lines {
        println!("{line}");
    }
    if !tracers.is_empty() {
        let path = out_dir.join(format!("spans-{}-{}.ndjson", args.workload, args.seed));
        match write_spans(&tracers, &path) {
            Ok(()) => println!("# spans: {}", path.display()),
            Err(e) => println!("# spans not written to {}: {e}", path.display()),
        }
    }
    for note in &outcome.checks.notes {
        println!("# CHECK FAILED: {note}");
    }

    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut json = Vec::new();
    for &(name, unit) in table {
        let m = &outcome.metrics[name];
        let spread = if m.samples.len() > 1 {
            format!(
                "  (median of {}, IQR {:.1}% of median)",
                m.samples.len(),
                100.0 * iqr_share(&m.samples)
            )
        } else {
            String::new()
        };
        println!("{name:<32} {:>16.6} {unit}{spread}", m.value);
        json.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(m.value)
        ));
    }
    let checks = &outcome.checks;
    println!(
        "# checks: {} attempted, {} failed",
        checks.attempted, checks.failed
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed,
        json.join(", ")
    );
    // `ok_share` is a share of all checks of the run, so a few failures
    // move it little; the exit code makes any failure fail the run.
    if checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Writes every traced repetition's spans to one NDJSON file.
fn write_spans(tracers: &[Tracer], path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (rep, tracer) in tracers.iter().enumerate() {
        tracer.write_ndjson(rep, &mut out)?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"<key>": "<value>"` string pair of `key` in `json`, in order.
    fn values_of<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
        let pat = format!("\"{key}\": \"");
        json.match_indices(&pat)
            .map(|(i, _)| {
                let rest = &json[i + pat.len()..];
                &rest[..rest.find('"').expect("closing quote")]
            })
            .collect()
    }

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(1100), 99);
        assert_eq!(tail_percentile(85), 88);
        assert_eq!(tail_percentile(13), 50);
        for n in [20, 28, 85, 1000, 1100] {
            let p = tail_percentile(n) as usize;
            let rank = (p * n).div_ceil(100);
            assert!(n - rank >= TAIL_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn benchmark_json_lists_the_metrics_this_program_prints() {
        let json = include_str!("../../BENCHMARK.json");
        let names = values_of(json, "name");
        let units = values_of(json, "unit");
        let expected: Vec<&str> = WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|m| m.0))
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        assert_eq!(names, expected);
        let expected_units: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.1)
            .collect();
        assert_eq!(units, expected_units);
    }
}
