//! The traced run's instruments, all outside the program: spans around the
//! calls into each layer, and timing wrappers around the `TxEngine` and
//! `Workload` trait objects a cell's components hand out.
//!
//! Spans are kept in memory and written out once, when the benchmark ends.
//! Boundary calls that happen a handful of times per cell (set-up, a cell's
//! run, a crash capture, a service batch) each get a span of their own. The
//! hot calls inside a simulation step (millions per cell) are folded into
//! one aggregate span per cell and call kind, carrying the call count and
//! the summed duration. A span's self time is its duration minus the
//! durations of its children.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use dhtm_sim::engine::{StepOutcome, TxEngine};
use dhtm_sim::locks::LockId;
use dhtm_sim::machine::Machine;
use dhtm_sim::workload::{Transaction, Workload};
use dhtm_types::addr::Address;
use dhtm_types::ids::CoreId;
use dhtm_types::policy::DesignKind;
use dhtm_types::stats::TxStats;

/// Nanoseconds elapsed since `t`, saturating at `u64::MAX`.
pub fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[derive(Debug, Clone)]
struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    /// Calls folded into the span: 1 for a boundary call.
    count: u64,
    /// Summed duration of the calls (end − start for a boundary call).
    total_ns: u64,
}

/// In-memory span log shared by every thread of one run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn at(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(&self, span: Span) -> usize {
        let mut spans = self.spans.lock().expect("span log poisoned");
        spans.push(span);
        spans.len() - 1
    }

    /// Records a finished aggregate span: `count` calls summing to
    /// `total_ns`, issued between `start` and `end`.
    pub fn aggregate(
        &self,
        name: &str,
        parent: Option<usize>,
        (start, end): (Instant, Instant),
        count: u64,
        total_ns: u64,
    ) -> usize {
        self.push(Span {
            name: name.to_string(),
            parent,
            start_ns: self.at(start),
            end_ns: self.at(end),
            count,
            total_ns,
        })
    }

    /// Summed self time (duration minus children) and call count per span
    /// name.
    pub fn self_time_by_name(&self) -> BTreeMap<String, (u64, u64)> {
        let spans = self.spans.lock().expect("span log poisoned");
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.total_ns;
            }
        }
        let mut out: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for (s, children) in spans.iter().zip(child_ns) {
            let e = out.entry(s.name.clone()).or_default();
            e.0 += s.total_ns.saturating_sub(children);
            e.1 += s.count;
        }
        out
    }

    /// Writes every span as one NDJSON line tagged with repetition `rep`.
    pub fn write_ndjson(&self, rep: usize, out: &mut impl std::io::Write) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span log poisoned");
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"rep\":{rep},\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"count\":{},\"total_ns\":{}}}",
                s.name, s.start_ns, s.end_ns, s.count, s.total_ns
            )?;
        }
        Ok(())
    }
}

/// An open boundary span; closes when dropped. Inert without a tracer, so
/// untraced runs pay one branch per boundary call.
#[derive(Debug)]
pub struct Guard<'t> {
    tracer: Option<&'t Tracer>,
    id: usize,
}

impl Guard<'_> {
    /// The span's id, to parent child spans on.
    pub fn id(&self) -> Option<usize> {
        self.tracer.map(|_| self.id)
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(t) = self.tracer {
            let end = t.at(Instant::now());
            let mut spans = t.spans.lock().expect("span log poisoned");
            let s = &mut spans[self.id];
            s.end_ns = end;
            s.total_ns = end.saturating_sub(s.start_ns);
        }
    }
}

/// Opens a boundary span `name` under `parent`.
pub fn enter<'t>(tracer: Option<&'t Tracer>, name: &str, parent: Option<usize>) -> Guard<'t> {
    let start = Instant::now();
    let id = tracer.map_or(0, |t| {
        t.push(Span {
            name: name.to_string(),
            parent,
            start_ns: t.at(start),
            end_ns: 0,
            count: 1,
            total_ns: 0,
        })
    });
    Guard { tracer, id }
}

/// Engine entry points the timing wrapper distinguishes.
pub const ENGINE_CALLS: [&str; 4] = ["begin", "read", "write", "commit"];

/// Per-cell tally of the wrapped engine's calls.
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineTally {
    pub calls: [u64; 4],
    pub ns: [u64; 4],
    /// Calls that returned `Stall` (same index as `calls`).
    pub stalls: [u64; 4],
    /// `commit` calls that completed.
    pub commits: u64,
}

/// A `TxEngine` that times every call into the engine it wraps. It only
/// observes: every call is forwarded unchanged, so the run stays
/// bit-identical (the fingerprint check proves it).
#[derive(Debug)]
pub struct TimedEngine<'a, E: ?Sized> {
    inner: &'a mut E,
    pub tally: EngineTally,
}

impl<'a, E: TxEngine + ?Sized> TimedEngine<'a, E> {
    pub fn new(inner: &'a mut E) -> Self {
        TimedEngine {
            inner,
            tally: EngineTally::default(),
        }
    }

    fn timed(&mut self, kind: usize, f: impl FnOnce(&mut E) -> StepOutcome) -> StepOutcome {
        let t = Instant::now();
        let out = f(self.inner);
        self.tally.ns[kind] += ns_since(t);
        self.tally.calls[kind] += 1;
        if matches!(out, StepOutcome::Stall { .. }) {
            self.tally.stalls[kind] += 1;
        }
        out
    }
}

impl<E: TxEngine + ?Sized> TxEngine for TimedEngine<'_, E> {
    fn design(&self) -> DesignKind {
        self.inner.design()
    }

    fn init(&mut self, machine: &mut Machine) {
        self.inner.init(machine);
    }

    fn begin(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        lock_set: &[LockId],
        now: u64,
    ) -> StepOutcome {
        self.timed(0, |e| e.begin(machine, core, lock_set, now))
    }

    fn read(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        addr: Address,
        now: u64,
    ) -> StepOutcome {
        self.timed(1, |e| e.read(machine, core, addr, now))
    }

    fn write(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        addr: Address,
        value: u64,
        now: u64,
    ) -> StepOutcome {
        self.timed(2, |e| e.write(machine, core, addr, value, now))
    }

    fn commit(&mut self, machine: &mut Machine, core: CoreId, now: u64) -> StepOutcome {
        let out = self.timed(3, |e| e.commit(machine, core, now));
        if out.is_done() {
            self.tally.commits += 1;
        }
        out
    }

    fn last_tx_stats(&mut self, core: CoreId) -> TxStats {
        self.inner.last_tx_stats(core)
    }

    fn fallback_commits(&self) -> u64 {
        self.inner.fallback_commits()
    }

    fn probes_into(&self, reg: &mut dhtm_obs::ProbeRegistry) {
        self.inner.probes_into(reg);
    }
}

/// Per-cell tally of the wrapped workload's transaction generation.
#[derive(Debug, Default, Clone, Copy)]
pub struct WorkloadTally {
    pub calls: u64,
    pub ns: u64,
    pub ops: u64,
}

/// A `Workload` that times `next_transaction` on the workload it wraps.
#[derive(Debug)]
pub struct TimedWorkload<'a, W: ?Sized> {
    inner: &'a mut W,
    pub tally: WorkloadTally,
}

impl<'a, W: Workload + ?Sized> TimedWorkload<'a, W> {
    pub fn new(inner: &'a mut W) -> Self {
        TimedWorkload {
            inner,
            tally: WorkloadTally::default(),
        }
    }
}

impl<W: Workload + ?Sized> Workload for TimedWorkload<'_, W> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn next_transaction(&mut self, core: CoreId) -> Transaction {
        let t = Instant::now();
        let tx = self.inner.next_transaction(core);
        self.tally.ns += ns_since(t);
        self.tally.calls += 1;
        self.tally.ops += tx.ops.len() as u64;
        tx
    }

    fn setup_transactions(&mut self) -> Vec<Transaction> {
        self.inner.setup_transactions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new();
        let now = Instant::now();
        let root = t.aggregate("run", None, (now, now), 1, 100);
        let step = t.aggregate("step", Some(root), (now, now), 10, 80);
        t.aggregate("engine", Some(step), (now, now), 10, 50);
        let by_name = t.self_time_by_name();
        assert_eq!(by_name["run"], (20, 1));
        assert_eq!(by_name["step"], (30, 10));
        assert_eq!(by_name["engine"], (50, 10));
    }
}
