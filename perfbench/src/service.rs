//! The `service` workload: an in-process `dhtm_serve` on a fresh store,
//! driven as a closed loop by `ServiceClient` connections, each sending its
//! next batch only after the previous `batch_done`.
//!
//! A repetition has two phases over the same load. Phase 1 is cold: the
//! store is empty, so distinct specs execute, duplicates dedup against
//! in-flight jobs or completed ones, and results are written to the store.
//! Phase 2 restarts the server on the same store and replays the load:
//! each distinct spec is first a verified disk hit, then a memory hit, and
//! nothing executes.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use dhtm_harness::runner::Row;
use dhtm_scenario::{RunRecord, SimSpec};
use dhtm_service::proto::{decode_event, encode_event};
use dhtm_service::{Event, LoadOutcome, ResultStore, Server, ServerConfig, ServiceClient};
use dhtm_types::config::BaseConfig;
use dhtm_types::policy::DesignKind;

use crate::sim::{paper_err_pct, FIG5};
use crate::stats::{splitmix64, Fnv};
use crate::trace::{enter, ns_since, Tracer};
use crate::{Bench, Layers, Rep};

/// The engines of each pool group, SO first (the normalisation base).
const ENGINES: [DesignKind; 4] = [
    DesignKind::SoftwareOnly,
    DesignKind::SdTm,
    DesignKind::Atom,
    DesignKind::Dhtm,
];
/// Pool groups; each group is one workload stream run under every engine.
const GROUPS: u64 = 12;
/// Specs per batch. `dhtm_client loadgen` sends 32; at 32, whether a round
/// trip waits out the client's delayed ACK changes from connection to
/// connection, so repetitions of the same load took either ~1.4 s or
/// ~2.4 s. At 16 every round trip waits it out (see README).
const BATCH_SIZE: u64 = 16;
/// Batches of one phase, split over the connections as loadgen splits
/// them: loadgen's default traffic of 64 batches of 32 specs.
const BATCHES: u64 = 64 * 32 / BATCH_SIZE;
/// Chance (in percent) that a batch slot repeats a spec the connection
/// already sent, as in `dhtm_client loadgen`.
const DUP_PERCENT: u64 = 50;

/// The spec pool of `dhtm_client loadgen` (cheap specs on the small
/// machine, 4–10 commits), arranged in groups that share one workload,
/// seed and commit target across the four engines, so that the records
/// the service returns also yield SO-normalised throughputs. The commit
/// targets walk loadgen's range by group rather than by seed, so the seed
/// changes the workloads' random streams and the traffic but not how much
/// is simulated (seed-drawn targets spread `steps_per_s` 25% over five
/// seeds).
fn build_pool(seed: u64) -> Vec<(u64, SimSpec)> {
    let mut pool = Vec::new();
    for g in 0..GROUPS {
        let workload = ["queue", "hash"][(g % 2) as usize];
        let commits = 4 + g % 7;
        for engine in ENGINES {
            let spec = SimSpec::builder(engine, workload)
                .base(BaseConfig::Small)
                .commits(commits)
                .seed(seed ^ (g << 1 | 1))
                .build()
                .expect("pool specs are valid");
            pool.push((g, spec));
        }
    }
    pool
}

/// The batches each connection sends. Slot by slot, a connection repeats a
/// spec it already sent with probability `DUP_PERCENT`, else sends a fresh
/// one. Fresh specs walk a seeded permutation of the pool, dealt out across
/// connections, so every spec is served at least once; once a connection's
/// share is used up, fresh draws are uniform over the pool, as in
/// `dhtm_client loadgen`. The batches are split over the connections as
/// loadgen splits them.
fn connection_loads(seed: u64, connections: u64, pool_len: usize) -> Vec<Vec<Vec<usize>>> {
    let mut state = seed;
    let mut order: Vec<usize> = (0..pool_len).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, (splitmix64(&mut state) % (i as u64 + 1)) as usize);
    }
    (0..connections)
        .map(|c| {
            let mut share = order
                .iter()
                .copied()
                .skip(c as usize)
                .step_by(connections as usize);
            let mut rng = seed ^ (c.wrapping_mul(0x9E37_79B9) | 1);
            let mut used: Vec<usize> = Vec::new();
            let batches = BATCHES / connections + u64::from(c < BATCHES % connections);
            (0..batches)
                .map(|_| {
                    (0..BATCH_SIZE)
                        .map(|_| {
                            if splitmix64(&mut rng) % 100 < DUP_PERCENT && !used.is_empty() {
                                used[(splitmix64(&mut rng) % used.len() as u64) as usize]
                            } else {
                                let fresh = share.next().unwrap_or_else(|| {
                                    (splitmix64(&mut rng) % pool_len as u64) as usize
                                });
                                used.push(fresh);
                                fresh
                            }
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// What one connection saw in one phase. Served results are folded in as
/// they arrive, one record kept per content hash, so the benchmark's own
/// memory stays small next to the server's in `peak_rss_mb`.
#[derive(Debug, Default)]
struct ConnOut {
    latencies_ms: Vec<f64>,
    served: u64,
    dispositions: BTreeMap<&'static str, u64>,
    /// The first record served for each content hash.
    records: BTreeMap<String, RunRecord>,
    /// Hashes served again with a record that differs from the first.
    mismatched: Vec<String>,
    executed: u64,
    error: Option<String>,
}

fn run_connection(
    addr: std::net::SocketAddr,
    pool: &[(u64, SimSpec)],
    load: &[Vec<usize>],
    tracer: Option<&Tracer>,
    parent: Option<usize>,
) -> ConnOut {
    let mut out = ConnOut::default();
    let mut client = match ServiceClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.error = Some(format!("connect: {e}"));
            return out;
        }
    };
    for (b, batch) in load.iter().enumerate() {
        let specs = batch.iter().map(|&i| pool[i].1.clone()).collect();
        let g = enter(tracer, "service.batch", parent);
        let t = Instant::now();
        let res = client.submit(b as u64, specs);
        out.latencies_ms.push(ns_since(t) as f64 / 1e6);
        drop(g);
        match res {
            Ok(outcome) => {
                out.executed += outcome.executed;
                for r in outcome.results {
                    out.served += 1;
                    *out.dispositions.entry(r.disposition.as_str()).or_default() += 1;
                    match out.records.entry(r.hash_hex) {
                        Entry::Vacant(v) => {
                            v.insert(r.record);
                        }
                        Entry::Occupied(o) => {
                            if *o.get() != r.record {
                                out.mismatched.push(o.key().clone());
                            }
                        }
                    }
                }
            }
            Err(e) => {
                out.error = Some(format!("batch {b}: {e}"));
                return out;
            }
        }
    }
    out
}

/// One phase: bind a server on `store`, run every connection's load, read
/// the server's status, shut it down.
struct PhaseOut {
    bind_s: f64,
    wall_s: f64,
    conns: Vec<ConnOut>,
    worker_busy_ns: u64,
    workers: u64,
    peak_queue_depth: u64,
    error: Option<String>,
}

fn run_phase(
    name: &str,
    store: &Path,
    jobs: usize,
    pool: &[(u64, SimSpec)],
    loads: &[Vec<Vec<usize>>],
    tracer: Option<&Tracer>,
    parent: Option<usize>,
) -> PhaseOut {
    let phase = enter(tracer, name, parent);
    let t = Instant::now();
    let server = {
        let _g = enter(tracer, "service.bind", phase.id());
        Server::bind("127.0.0.1:0", ServerConfig::new(store, jobs))
    };
    let bind_s = t.elapsed().as_secs_f64();
    let server = match server {
        Ok(s) => s,
        Err(e) => {
            return PhaseOut {
                bind_s,
                wall_s: 0.0,
                conns: Vec::new(),
                worker_busy_ns: 0,
                workers: 0,
                peak_queue_depth: 0,
                error: Some(format!("bind: {e}")),
            }
        }
    };
    let handle = server.spawn();
    let addr = handle.addr;
    let phase_id = phase.id();
    let t = Instant::now();
    let conns: Vec<ConnOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = loads
            .iter()
            .map(|load| scope.spawn(move || run_connection(addr, pool, load, tracer, phase_id)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    let wall_s = t.elapsed().as_secs_f64();
    let mut error = None;
    let mut worker_busy_ns = 0;
    let mut workers = 0;
    match ServiceClient::connect(addr) {
        Ok(mut c) => {
            match c.status() {
                Ok(s) => {
                    worker_busy_ns = s.worker_busy_ns;
                    workers = s.workers;
                }
                Err(e) => error = Some(format!("status: {e}")),
            }
            if let Err(e) = c.shutdown() {
                error = Some(format!("shutdown: {e}"));
            }
        }
        Err(e) => error = Some(format!("control connection: {e}")),
    }
    let peak_queue_depth = match handle.join() {
        Ok(reg) => reg.counter("svc/peak_queue_depth"),
        Err(e) => {
            error = Some(format!("server: {e}"));
            0
        }
    };
    PhaseOut {
        bind_s,
        wall_s,
        conns,
        worker_busy_ns,
        workers,
        peak_queue_depth,
        error,
    }
}

/// The service as a benchmark workload.
pub struct ServiceBench {
    pool: Vec<(u64, SimSpec)>,
    loads: Vec<Vec<Vec<usize>>>,
    jobs: usize,
    dir: PathBuf,
    reps: u64,
}

impl ServiceBench {
    /// `dir` is a directory the benchmark owns; each repetition's store
    /// lives and dies under it.
    pub fn new(seed: u64, jobs: usize, dir: PathBuf) -> Self {
        let pool = build_pool(seed);
        let jobs = jobs.max(1);
        let loads = connection_loads(seed, jobs as u64, pool.len());
        ServiceBench {
            pool,
            loads,
            jobs,
            dir,
            reps: 0,
        }
    }
}

impl Bench for ServiceBench {
    fn rep(&mut self, tracer: Option<&Tracer>) -> Rep {
        self.reps += 1;
        let store = self
            .dir
            .join(format!("store-{}-{}", std::process::id(), self.reps));
        let _ = std::fs::remove_dir_all(&store);
        let rep_span = enter(tracer, "rep", None);
        let cold = run_phase(
            "service.cold",
            &store,
            self.jobs,
            &self.pool,
            &self.loads,
            tracer,
            rep_span.id(),
        );
        let restart = run_phase(
            "service.restart",
            &store,
            self.jobs,
            &self.pool,
            &self.loads,
            tracer,
            rep_span.id(),
        );
        drop(rep_span);

        let mut rep = Rep {
            wall_s: cold.wall_s + restart.wall_s,
            setup_s: cold.bind_s + restart.bind_s,
            ..Rep::default()
        };
        // Every spec of both phases is one attempted operation: it fails
        // when it is not served, or served with a record that differs from
        // another result for the same content hash (within a connection by
        // value, across connections and phases by JSON bytes).
        let expected: u64 = 2 * self
            .loads
            .iter()
            .flatten()
            .map(|b| b.len() as u64)
            .sum::<u64>();
        rep.checks.attempted += expected;
        let mut by_hash: BTreeMap<String, String> = BTreeMap::new();
        let mut records: BTreeMap<String, RunRecord> = BTreeMap::new();
        let mut dispositions: BTreeMap<&'static str, u64> = BTreeMap::new();
        for phase in [&cold, &restart] {
            if let Some(e) = &phase.error {
                rep.checks.notes.push(e.clone());
            }
            for conn in &phase.conns {
                if let Some(e) = &conn.error {
                    rep.checks.notes.push(e.clone());
                }
                rep.latencies_ms.extend(&conn.latencies_ms);
                rep.items += conn.served;
                for (name, n) in &conn.dispositions {
                    *dispositions.entry(*name).or_default() += n;
                }
                for hash in &conn.mismatched {
                    rep.checks
                        .fail(format!("hash {hash} served two different results"));
                }
                for (hash, record) in &conn.records {
                    let json = record.to_json();
                    if *by_hash.entry(hash.clone()).or_insert_with(|| json.clone()) != json {
                        rep.checks
                            .fail(format!("hash {hash} served two different results"));
                    }
                    records
                        .entry(hash.clone())
                        .or_insert_with(|| record.clone());
                }
            }
        }
        let missing = expected.saturating_sub(rep.items);
        if missing > 0 {
            rep.checks.fail_many(
                missing,
                format!("{} of {expected} specs were served", rep.items),
            );
        }
        if cold.error.is_some() || restart.error.is_some() {
            rep.checks
                .fail("the server did not shut down cleanly".to_string());
        }
        let executed_cold: u64 = cold.conns.iter().map(|c| c.executed).sum();
        let executed_restart: u64 = restart.conns.iter().map(|c| c.executed).sum();
        rep.checks.check(executed_restart == 0, || {
            format!("restart phase executed {executed_restart} specs (expected 0)")
        });

        let mut fp = Fnv::new();
        for (hash, json) in &by_hash {
            fp.write(hash.as_bytes());
            fp.write(json.as_bytes());
        }
        rep.fingerprint = fp.finish();
        // Every distinct spec executes once, in the cold phase.
        rep.steps = records.values().map(|r| r.stats.steps).sum();
        rep.paper_err_pct = self.paper_err_pct(&records);

        if tracer.is_some() {
            let l = &mut rep.layers;
            l.insert("service.executed", executed_cold as f64);
            let cached = dispositions.get("hit-disk").copied().unwrap_or(0)
                + dispositions.get("hit-memory").copied().unwrap_or(0);
            l.insert("service.hit_ratio", cached as f64 / rep.items.max(1) as f64);
            for (name, key) in [
                ("service.dispositions.queued", "queued"),
                ("service.dispositions.inflight", "inflight"),
                ("service.dispositions.hit_disk", "hit-disk"),
                ("service.dispositions.hit_memory", "hit-memory"),
                ("service.dispositions.dup_batch", "dup-batch"),
            ] {
                l.insert(name, dispositions.get(key).copied().unwrap_or(0) as f64);
            }
            l.insert(
                "service.worker_busy_share",
                cold.worker_busy_ns as f64 / 1e9 / (cold.workers.max(1) as f64 * cold.wall_s),
            );
            l.insert("service.peak_queue_depth", cold.peak_queue_depth as f64);
            l.insert("sim.steps", rep.steps as f64);
            self.codec_layers(&records, &store, tracer, l);
        }
        let _ = std::fs::remove_dir_all(&store);
        rep
    }
}

impl ServiceBench {
    /// Figure 5 fidelity of the served records: each pool group stands in
    /// for a workload, so an engine's value is the geometric mean over
    /// groups of its throughput over SO's, against the paper's average.
    fn paper_err_pct(&self, records: &BTreeMap<String, RunRecord>) -> f64 {
        let rows: Vec<Row> = self
            .pool
            .iter()
            .filter_map(|(g, spec)| {
                let record = records.get(&spec.content_hash_hex())?;
                Some(Row {
                    experiment: String::new(),
                    engine: dhtm_baselines::registry::label_of(&spec.engine),
                    workload: format!("g{g}"),
                    cores: spec.config().num_cores,
                    config: spec.base.to_string(),
                    seed: spec.derived_seed(),
                    target_commits: spec.limits.target_commits,
                    stats: record.stats.clone(),
                    probes: Vec::new(),
                })
            })
            .collect();
        let groups: Vec<String> = (0..GROUPS).map(|g| format!("g{g}")).collect();
        let groups: Vec<&str> = groups.iter().map(String::as_str).collect();
        let reference: Vec<(&str, &[&str], f64)> = FIG5
            .iter()
            .filter(|(engine, _, _)| ENGINES.iter().any(|d| d.label() == *engine))
            .map(|&(engine, _, paper)| (engine, groups.as_slice(), paper))
            .collect();
        let (_, first) = &self.pool[0];
        paper_err_pct(
            &rows,
            &reference,
            &first.base.to_string(),
            first.config().num_cores,
        )
    }

    /// Times the store, record-codec and frame-codec paths on the records
    /// this repetition produced.
    fn codec_layers(
        &self,
        records: &BTreeMap<String, RunRecord>,
        store: &Path,
        tracer: Option<&Tracer>,
        l: &mut Layers,
    ) {
        let g = enter(tracer, "service.codecs", None);
        let specs: BTreeMap<String, &SimSpec> = self
            .pool
            .iter()
            .map(|(_, s)| (s.content_hash_hex(), s))
            .collect();
        let dir = store.with_extension("codec");
        let n = records.len().max(1) as f64;
        let (mut save, mut load, mut json, mut frame) = (0u64, 0u64, 0u64, 0u64);
        if let Ok(st) = ResultStore::open(&dir) {
            for (hash, record) in records {
                let t = Instant::now();
                let saved = st.save(record).is_ok();
                save += ns_since(t);
                if let (true, Some(spec)) = (saved, specs.get(hash)) {
                    let t = Instant::now();
                    let hit = matches!(st.load(spec), LoadOutcome::Hit(_));
                    load += ns_since(t);
                    std::hint::black_box(hit);
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        for (hash, record) in records {
            let t = Instant::now();
            let back = RunRecord::from_json(&record.to_json());
            json += ns_since(t);
            std::hint::black_box(back.is_ok());
            let ev = Event::Done {
                batch: 0,
                index: 0,
                hash_hex: hash.clone(),
                cached: false,
                record: Box::new(record.clone()),
            };
            let t = Instant::now();
            let back = decode_event(&encode_event(&ev));
            frame += ns_since(t);
            std::hint::black_box(back.is_ok());
        }
        drop(g);
        l.insert("service.store.save_ms", save as f64 / 1e6 / n);
        l.insert("service.store.load_ms", load as f64 / 1e6 / n);
        l.insert("service.record.json_us", json as f64 / 1e3 / n);
        l.insert("service.frame.codec_us", frame as f64 / 1e3 / n);
    }
}
