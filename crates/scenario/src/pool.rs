//! The ordered worker pool every independent-run sweep shares: the
//! harness's matrix cells and the crash matrix's cells.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Maps `f` over `items` on `jobs` scoped worker threads (1 = serially on
/// the calling thread) and returns the results in `items` order.
///
/// Workers pull the next unclaimed index from an atomic cursor and keep
/// their `(index, result)` pairs; the pairs are scattered back into place
/// after every worker has joined, so the output order never depends on
/// which worker ran what. A panic in `f` is re-raised on the calling
/// thread with its original payload.
pub fn map_ordered<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let jobs = jobs.clamp(1, items.len().max(1));
    if jobs == 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
    thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            return done;
                        };
                        done.push((i, f(item)));
                    }
                })
            })
            .collect();
        for worker in workers {
            let done = worker
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (i, result) in done {
                slots[i] = Some(result);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every item ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_item_order_for_any_job_count() {
        let items: Vec<u64> = (0..37).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x).collect();
        for jobs in [0, 1, 2, 3, 8, 100] {
            assert_eq!(map_ordered(&items, jobs, |x| x * x), serial, "jobs={jobs}");
        }
        assert!(map_ordered(&[] as &[u64], 4, |x| *x).is_empty());
    }

    #[test]
    #[should_panic(expected = "item 5 failed")]
    fn a_worker_panic_reaches_the_caller_with_its_message() {
        let items: Vec<u32> = (0..8).collect();
        map_ordered(&items, 2, |&x| {
            assert!(x != 5, "item {x} failed");
            x
        });
    }
}
