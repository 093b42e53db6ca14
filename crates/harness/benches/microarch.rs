//! Criterion micro-benchmarks of the core hardware structures: the log
//! buffer (coalescing), the read-set signature, the memory channel and the
//! recovery manager. These quantify the per-operation cost of the structures
//! that the DHTM engine exercises on every transactional store. The lock
//! table benches cover the lock-based designs' begin path (SO, ATOM), whose
//! stalled retries dominate TPC-C and TATP runs.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dhtm_cache::log_buffer::LogBuffer;
use dhtm_cache::signature::ReadSignature;
use dhtm_nvm::bandwidth::MemoryChannel;
use dhtm_nvm::domain::PersistentDomain;
use dhtm_nvm::record::LogRecord;
use dhtm_nvm::recovery::RecoveryManager;
use dhtm_sim::locks::{LockId, LockTable};
use dhtm_types::ids::CoreId;
use dhtm_types::{LineAddr, ThreadId, TxId};

fn bench_log_buffer(c: &mut Criterion) {
    c.bench_function("log_buffer/coalescing_64_entries", |b| {
        b.iter_batched(
            || LogBuffer::new(64),
            |mut buf| {
                for i in 0..1000u64 {
                    let _ = buf.record_store(LineAddr::new(i % 128));
                }
                buf.drain().len()
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_signature(c: &mut Criterion) {
    c.bench_function("signature/insert_and_probe_2048_bits", |b| {
        b.iter_batched(
            || ReadSignature::new(2048),
            |mut sig| {
                for i in 0..256u64 {
                    sig.insert(LineAddr::new(i * 3));
                }
                (0..256u64)
                    .filter(|&i| sig.maybe_contains(LineAddr::new(i)))
                    .count()
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_channel(c: &mut Criterion) {
    c.bench_function("memory_channel/1000_line_transfers", |b| {
        b.iter_batched(
            MemoryChannel::isca18_baseline,
            |mut ch| {
                let mut t = 0;
                for i in 0..1000u64 {
                    t = ch.request(i * 10, 64);
                }
                t
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_recovery(c: &mut Criterion) {
    c.bench_function("recovery/replay_100_transactions", |b| {
        b.iter_batched(
            || {
                let mut d = PersistentDomain::new(4, 4096, 256);
                for i in 0..100u64 {
                    let tx = TxId::new(i + 1);
                    let t = ThreadId::new((i % 4) as usize);
                    for j in 0..8u64 {
                        d.log_mut(t)
                            .append(LogRecord::redo(tx, LineAddr::new(i * 8 + j), [i; 8]))
                            .unwrap();
                    }
                    d.log_mut(t).append(LogRecord::commit(tx)).unwrap();
                }
                d
            },
            |mut d| {
                RecoveryManager::new()
                    .recover(&mut d)
                    .unwrap()
                    .replayed_transactions
            },
            BatchSize::SmallInput,
        )
    });
}

/// A canonical (ascending, duplicate-free) 200-lock set, the size of a
/// large TPC-C lock set.
fn lock_set_200() -> Vec<LockId> {
    (0..200u64).map(|i| LockId(i * 7)).collect()
}

fn bench_locks(c: &mut Criterion) {
    let set = lock_set_200();
    c.bench_function("locks/contended_retry_200", |b| {
        b.iter_batched(
            || {
                // Core 0 holds a lock in the middle of core 1's set, and
                // core 1 has already failed once against it.
                let mut t = LockTable::new();
                assert!(t.try_acquire_all(CoreId::new(0), &[set[150]]));
                assert!(!t.try_acquire_all(CoreId::new(1), &set));
                t
            },
            |mut t| {
                (0..1000)
                    .filter(|_| !t.try_acquire_all(CoreId::new(1), &set))
                    .count()
            },
            BatchSize::SmallInput,
        )
    });
    c.bench_function("locks/acquire_release_200", |b| {
        b.iter_batched(
            LockTable::new,
            |mut t| {
                let mut released = 0;
                for i in 0..100 {
                    let core = CoreId::new(i % 8);
                    assert!(t.try_acquire_all(core, &set));
                    released += t.release_all(core);
                }
                released
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_log_buffer, bench_signature, bench_channel, bench_recovery, bench_locks
}
criterion_main!(benches);
