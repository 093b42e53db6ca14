//! Microbenchmarks of the layers that sit inside engine calls, where the
//! traced run's wrappers cannot reach: the simulation driver's calendar queue, the
//! set-associative cache array, the engines' `LineSet` shadow sets and the
//! NVM channel. Each times the public functions on seeded inputs and
//! reports the median of several trials, in nanoseconds per operation.

use std::hint::black_box;
use std::time::Instant;

use dhtm_cache::lineset::LineSet;
use dhtm_cache::set_assoc::SetAssocCache;
use dhtm_nvm::bandwidth::MemoryChannel;
use dhtm_sim::calendar::CalendarQueue;
use dhtm_types::addr::LineAddr;

use crate::stats::{median, splitmix64};
use crate::Layers;

const TRIALS: usize = 5;

/// Median over trials of `op`'s nanoseconds per operation; `op` performs
/// `ops` operations per call.
fn ns_per_op(ops: u64, mut op: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..TRIALS)
        .map(|_| {
            let t = Instant::now();
            op();
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples)
}

/// The simulation driver's pattern: one pending event per core; pop the earliest and
/// push that core back a seeded latency later.
fn calendar(seed: u64) -> f64 {
    const CORES: usize = 8;
    const OPS: u64 = 400_000;
    let mut state = seed;
    let delays: Vec<u64> = (0..4096)
        .map(|_| 1 + splitmix64(&mut state) % 600)
        .collect();
    ns_per_op(OPS, || {
        let mut q = CalendarQueue::new();
        for core in 0..CORES {
            q.push(0, core);
        }
        for i in 0..OPS as usize {
            let (t, core) = q.pop().expect("one event per core");
            q.push(t + delays[i % delays.len()], core);
        }
        black_box(q.len());
    })
}

/// Lookups in an L1-shaped (32 KiB, 8-way) array filled with seeded lines;
/// about half the probes hit.
fn set_assoc(seed: u64) -> f64 {
    const OPS: u64 = 400_000;
    let geometry = dhtm_harness::experiment_config().l1;
    let mut cache: SetAssocCache<u64> = SetAssocCache::new(geometry);
    let mut state = seed;
    let lines = geometry.capacity_bytes / geometry.line_size;
    let span = 2 * lines as u64;
    for _ in 0..4 * lines {
        let line = splitmix64(&mut state) % span;
        cache.insert(LineAddr::new(line), line);
    }
    let probes: Vec<LineAddr> = (0..4096)
        .map(|_| LineAddr::new(splitmix64(&mut state) % span))
        .collect();
    ns_per_op(OPS, || {
        let mut hits = 0u64;
        for i in 0..OPS as usize {
            hits += u64::from(cache.contains(probes[i % probes.len()]));
        }
        black_box(hits);
    })
}

/// Inserts of `n` seeded lines into a cleared set (the engines reuse their
/// sets across transactions), per insert.
fn lineset(seed: u64, n: usize) -> f64 {
    let rounds = 400_000 / n;
    let mut state = seed ^ n as u64;
    let lines: Vec<LineAddr> = (0..n)
        .map(|_| LineAddr::new(splitmix64(&mut state) % (1 << 24)))
        .collect();
    let mut set = LineSet::new();
    ns_per_op((rounds * n) as u64, || {
        for _ in 0..rounds {
            set.clear();
            for &l in &lines {
                set.insert(l);
            }
            black_box(set.len());
        }
    })
}

/// 64-byte requests to the paper's baseline channel at seeded arrival gaps.
fn channel(seed: u64) -> f64 {
    const OPS: u64 = 400_000;
    let mut state = seed;
    let gaps: Vec<u64> = (0..4096).map(|_| splitmix64(&mut state) % 48).collect();
    ns_per_op(OPS, || {
        let mut ch = MemoryChannel::isca18_baseline();
        let mut now = 0u64;
        for i in 0..OPS as usize {
            now += gaps[i % gaps.len()];
            black_box(ch.request(now, 64));
        }
    })
}

/// Runs every layer microbenchmark.
pub fn run(seed: u64, l: &mut Layers) {
    l.insert("sim.calendar.push_pop_ns", calendar(seed));
    l.insert("cache.set_assoc.probe_ns", set_assoc(seed));
    l.insert("cache.lineset.insert64_ns", lineset(seed, 64));
    l.insert("cache.lineset.insert600_ns", lineset(seed, 600));
    l.insert("nvm.channel.request_ns", channel(seed));
}
