//! The lock table used by lock-based designs (SO, ATOM) and by the software
//! fallback path of the HTM designs.
//!
//! The paper's SO and ATOM designs use fine-grained locking for the OLTP
//! workloads and coarse-grained partition locks for the micro-benchmarks
//! (Section V). Both map onto the same abstraction here: a transaction is
//! annotated with the set of [`LockId`]s it needs; the engine acquires them
//! all at begin time, all or nothing (which makes deadlock impossible), and
//! releases them after commit. The driver hands every engine the set in
//! canonical order: ascending and duplicate-free.

use std::collections::BTreeMap;
use std::fmt;

use dhtm_types::ids::CoreId;

/// Identifier of one lock (a data-structure partition, a database row group,
/// or a global lock for single-lock fallback paths).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LockId(pub u64);

impl LockId {
    /// The single global lock used by software fallback paths.
    pub const GLOBAL: LockId = LockId(u64::MAX);
}

impl fmt::Display for LockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lock{}", self.0)
    }
}

/// A table of currently held locks.
#[derive(Debug, Clone, Default)]
pub struct LockTable {
    held: BTreeMap<LockId, CoreId>,
    /// Per core, the lock that blocked that core's last failed acquire. A
    /// stalled transaction retries the same lock set, usually against the
    /// same holder, so re-checking this lock first fails the retry in
    /// O(log n) instead of re-scanning the whole set.
    last_blocker: Vec<Option<LockId>>,
    acquisitions: u64,
    contended_attempts: u64,
}

impl LockTable {
    /// Creates an empty lock table.
    pub fn new() -> Self {
        LockTable::default()
    }

    /// Attempts to acquire every lock in `locks` for `core`.
    ///
    /// Either all locks are acquired (returns `true`) or none are (returns
    /// `false`, and the attempt counts as contended); taking nothing while
    /// waiting keeps the system deadlock-free whatever the order of
    /// `locks`. Locks already held by the same core are treated as
    /// re-entrant, and duplicates in `locks` are harmless.
    ///
    /// The result never depends on the order of `locks`, but a sorted set
    /// (as the simulation driver passes) lets a retry fail fast on the
    /// lock that blocked the core's previous attempt.
    pub fn try_acquire_all(&mut self, core: CoreId, locks: &[LockId]) -> bool {
        if let Some(&Some(hint)) = self.last_blocker.get(core.get()) {
            // `binary_search` only reports `Ok` for an index holding `hint`,
            // so an unsorted set can miss the fast path but never takes it
            // wrongly.
            if locks.binary_search(&hint).is_ok() && self.held_by_other(hint, core) {
                self.contended_attempts += 1;
                return false;
            }
        }
        if let Some(&blocker) = locks.iter().find(|&&l| self.held_by_other(l, core)) {
            if self.last_blocker.len() <= core.get() {
                self.last_blocker.resize(core.get() + 1, None);
            }
            self.last_blocker[core.get()] = Some(blocker);
            self.contended_attempts += 1;
            return false;
        }
        for &l in locks {
            if self.held.insert(l, core).is_none() {
                self.acquisitions += 1;
            }
        }
        true
    }

    fn held_by_other(&self, lock: LockId, core: CoreId) -> bool {
        self.held.get(&lock).is_some_and(|&owner| owner != core)
    }

    /// Releases every lock held by `core`. Returns how many were released.
    pub fn release_all(&mut self, core: CoreId) -> usize {
        let before = self.held.len();
        self.held.retain(|_, &mut owner| owner != core);
        before - self.held.len()
    }

    /// Whether `lock` is currently held (by anyone).
    pub fn is_held(&self, lock: LockId) -> bool {
        self.held.contains_key(&lock)
    }

    /// The current owner of `lock`, if held.
    pub fn owner(&self, lock: LockId) -> Option<CoreId> {
        self.held.get(&lock).copied()
    }

    /// Number of locks currently held across all cores.
    pub fn held_count(&self) -> usize {
        self.held.len()
    }

    /// Lifetime count of successful lock acquisitions.
    pub fn acquisitions(&self) -> u64 {
        self.acquisitions
    }

    /// Lifetime count of acquisition attempts that found a lock busy.
    pub fn contended_attempts(&self) -> u64 {
        self.contended_attempts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: usize) -> CoreId {
        CoreId::new(i)
    }

    #[test]
    fn acquire_and_release() {
        let mut t = LockTable::new();
        assert!(t.try_acquire_all(c(0), &[LockId(1), LockId(2)]));
        assert!(t.is_held(LockId(1)));
        assert_eq!(t.owner(LockId(2)), Some(c(0)));
        assert_eq!(t.release_all(c(0)), 2);
        assert!(!t.is_held(LockId(1)));
    }

    #[test]
    fn contention_blocks_all_or_nothing() {
        let mut t = LockTable::new();
        assert!(t.try_acquire_all(c(0), &[LockId(1)]));
        // Core 1 wants locks 1 and 2: it gets neither.
        assert!(!t.try_acquire_all(c(1), &[LockId(2), LockId(1)]));
        assert!(!t.is_held(LockId(2)));
        assert_eq!(t.contended_attempts(), 1);
        // After release it succeeds.
        t.release_all(c(0));
        assert!(t.try_acquire_all(c(1), &[LockId(2), LockId(1)]));
    }

    #[test]
    fn reentrant_acquisition_by_same_core() {
        let mut t = LockTable::new();
        assert!(t.try_acquire_all(c(0), &[LockId(7)]));
        assert!(t.try_acquire_all(c(0), &[LockId(7), LockId(8)]));
        assert_eq!(t.held_count(), 2);
        // Acquisition count only increments for newly taken locks.
        assert_eq!(t.acquisitions(), 2);
    }

    #[test]
    fn release_only_affects_own_locks() {
        let mut t = LockTable::new();
        t.try_acquire_all(c(0), &[LockId(1)]);
        t.try_acquire_all(c(1), &[LockId(2)]);
        assert_eq!(t.release_all(c(0)), 1);
        assert!(t.is_held(LockId(2)));
    }

    #[test]
    fn global_lock_constant_is_distinct() {
        let mut t = LockTable::new();
        assert!(t.try_acquire_all(c(0), &[LockId::GLOBAL]));
        assert!(t.try_acquire_all(c(0), &[LockId(0)]));
        assert!(!t.try_acquire_all(c(1), &[LockId::GLOBAL]));
    }

    /// Blocks core 1 on lock 5 (held by core 0), leaving 5 as core 1's hint.
    fn table_with_hint_on_lock5() -> LockTable {
        let mut t = LockTable::new();
        assert!(t.try_acquire_all(c(0), &[LockId(5)]));
        assert!(!t.try_acquire_all(c(1), &[LockId(2), LockId(5), LockId(9)]));
        assert_eq!(t.contended_attempts(), 1);
        t
    }

    #[test]
    fn retry_fails_fast_while_the_blocker_is_held() {
        let mut t = table_with_hint_on_lock5();
        for attempt in 2..=4 {
            assert!(!t.try_acquire_all(c(1), &[LockId(2), LockId(5), LockId(9)]));
            assert_eq!(t.contended_attempts(), attempt);
        }
        assert!(!t.is_held(LockId(2)) && !t.is_held(LockId(9)));
    }

    #[test]
    fn stale_hint_released_blocker_does_not_fail() {
        let mut t = table_with_hint_on_lock5();
        t.release_all(c(0));
        assert!(t.try_acquire_all(c(1), &[LockId(2), LockId(5), LockId(9)]));
        assert_eq!(t.owner(LockId(5)), Some(c(1)));
        assert_eq!(t.contended_attempts(), 1);
    }

    #[test]
    fn stale_hint_outside_the_new_set_does_not_fail() {
        let mut t = table_with_hint_on_lock5();
        // Lock 5 is still held by core 0, but core 1 no longer asks for it.
        assert!(t.try_acquire_all(c(1), &[LockId(2), LockId(9)]));
        assert_eq!(t.owner(LockId(5)), Some(c(0)));
        assert_eq!(t.contended_attempts(), 1);
    }

    #[test]
    fn stale_hint_on_the_cores_own_lock_does_not_fail() {
        let mut t = table_with_hint_on_lock5();
        t.release_all(c(0));
        assert!(t.try_acquire_all(c(1), &[LockId(5)]));
        // The hint names a lock core 1 now holds itself: re-entrant.
        assert!(t.try_acquire_all(c(1), &[LockId(5), LockId(6)]));
        assert_eq!(t.owner(LockId(6)), Some(c(1)));
        assert_eq!(t.contended_attempts(), 1);
    }

    #[test]
    fn hint_held_by_a_new_owner_still_blocks() {
        let mut t = table_with_hint_on_lock5();
        t.release_all(c(0));
        assert!(t.try_acquire_all(c(2), &[LockId(5)]));
        assert!(!t.try_acquire_all(c(1), &[LockId(2), LockId(5), LockId(9)]));
        // An unsorted set misses the fast path; the full scan still blocks.
        assert!(!t.try_acquire_all(c(1), &[LockId(9), LockId(5), LockId(2)]));
        assert_eq!(t.contended_attempts(), 3);
        assert!(!t.is_held(LockId(2)) && !t.is_held(LockId(9)));
    }

    /// The specification, stated naively: a list of `(lock, owner)` pairs,
    /// an all-or-nothing acquire that scans the whole set, and no hints.
    #[derive(Debug, Default)]
    struct ModelTable {
        held: Vec<(LockId, CoreId)>,
        acquisitions: u64,
        contended_attempts: u64,
    }

    impl ModelTable {
        fn owner(&self, lock: LockId) -> Option<CoreId> {
            self.held.iter().find(|(l, _)| *l == lock).map(|&(_, o)| o)
        }

        fn try_acquire_all(&mut self, core: CoreId, locks: &[LockId]) -> bool {
            if locks
                .iter()
                .any(|&l| self.owner(l).is_some_and(|o| o != core))
            {
                self.contended_attempts += 1;
                return false;
            }
            for &l in locks {
                if self.owner(l).is_none() {
                    self.held.push((l, core));
                    self.acquisitions += 1;
                }
            }
            true
        }

        fn release_all(&mut self, core: CoreId) -> usize {
            let before = self.held.len();
            self.held.retain(|&(_, o)| o != core);
            before - self.held.len()
        }
    }

    /// Lock ids are drawn from `0..LOCK_UNIVERSE`, small enough that cores
    /// collide often and hints go stale in every way.
    const LOCK_UNIVERSE: u64 = 16;

    /// Replays `ops` against both tables. Each op is `(kind, core, ids)`:
    /// kind 0 releases the core's locks; 1 acquires `ids` sorted and
    /// deduplicated (the driver's canonical form); 2 acquires them as drawn
    /// (unsorted, possibly repeated); 3 acquires them reversed with every
    /// id repeated.
    fn check_against_model(ops: &[(u8, usize, Vec<u64>)]) {
        let mut table = LockTable::new();
        let mut model = ModelTable::default();
        for (step, (kind, core, ids)) in ops.iter().enumerate() {
            let core = c(*core);
            let mut locks: Vec<LockId> = ids.iter().map(|&i| LockId(i)).collect();
            let (got, want) = match kind {
                0 => (table.release_all(core), model.release_all(core)),
                _ => {
                    match kind {
                        1 => {
                            locks.sort_unstable();
                            locks.dedup();
                        }
                        2 => {}
                        _ => {
                            locks.reverse();
                            locks = locks.iter().flat_map(|&l| [l, l]).collect();
                        }
                    }
                    (
                        usize::from(table.try_acquire_all(core, &locks)),
                        usize::from(model.try_acquire_all(core, &locks)),
                    )
                }
            };
            assert_eq!(got, want, "step {step}: {kind} by {core:?} on {locks:?}");
            for l in (0..LOCK_UNIVERSE).map(LockId) {
                assert_eq!(table.owner(l), model.owner(l), "step {step}: owner of {l}");
            }
            assert_eq!(table.held_count(), model.held.len(), "step {step}");
            assert_eq!(table.acquisitions(), model.acquisitions, "step {step}");
            assert_eq!(
                table.contended_attempts(),
                model.contended_attempts,
                "step {step}"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(128)
            .with_rng_seed(0xD47A_15CA_2018_0014))]

        #[test]
        fn lock_table_matches_naive_model(
            ops in proptest::collection::vec(
                (
                    0u8..4,
                    0usize..8,
                    proptest::collection::vec(0u64..LOCK_UNIVERSE, 0..8),
                ),
                0..200,
            ),
        ) {
            check_against_model(&ops);
        }
    }
}
