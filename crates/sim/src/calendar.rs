//! The driver's event scheduler: a bucketed calendar queue over dense
//! small event times.
//!
//! The driver schedules one pending event per core, keyed by
//! `(time, core_index)` with ascending-time, ascending-index order — the
//! rule that makes every run bit-identical to the historical linear-scan
//! and `BinaryHeap` drivers. Event times are dense small integers (a step
//! advances a core's clock by a cache/NVM latency, a stall wait or a
//! bounded back-off), so a ring of time-indexed buckets beats a heap:
//! pushes and pops are O(1) with no comparison tree.
//!
//! The structure is tuned for the driver's actual working set — one event
//! per core, spread over thousands of distinct times — and sized to stay
//! L1-resident (the whole queue state is ~3 KB):
//!
//! * **Buckets are 16 cycles wide** (the classic calendar-queue tuning:
//!   width ≈ the mean inter-event gap), so 512 buckets cover the full
//!   8192-cycle scheduling window — past the driver's back-off cap, which
//!   abort-heavy engines (LogTM-ATOM, DHTM under contention) hit
//!   constantly — in a 2 KB array. A one-bucket-per-cycle ring covering
//!   the same span would cycle 32 KB of bucket heads through L1 every
//!   lap, evicting the simulator's own hot data; that costs the fastest
//!   engines ~10% throughput.
//! * **Buckets are intrusive linked lists**, not `Vec`s: `head[bucket]`
//!   holds the first queued core and `next[core]` chains the rest. Each
//!   core has at most one pending event (a precondition the driver
//!   guarantees), so `next`/`etime` are indexed by core and nothing ever
//!   allocates on the hot path.
//! * **Finding the next event is O(1)**, not a ring walk: a per-word
//!   occupancy bitmap finds the bucket within a 64-bucket word, and a
//!   word-level summary bitmap (8 bits) finds the word with two shifts
//!   and a trailing-zeros.
//!
//! Two schedule-divergence traps are handled explicitly (and pinned by the
//! `calendar_schedule_equivalence` property test):
//!
//! * **Order inside a shared bucket.** A bucket spans 16 cycles and can
//!   hold several cores, so its list is kept sorted by `(time, core)` —
//!   `etime[core]` holds each queued core's event time — and popped from
//!   the head. Equal-time events drain in ascending core order — exactly
//!   the heap's `(time, index)` tie-break.
//! * **The ring horizon.** An event scheduled past the window would alias
//!   a nearer bucket. The window is sized past the driver's back-off cap
//!   so no engine hits this in steady state, but nothing *bounds*
//!   scheduling deltas (queueing delays compound), so such events overflow
//!   into a small `BinaryHeap` ([`far`]) and migrate into buckets once the
//!   window reaches them; the pop path takes the minimum across both
//!   structures, so an overflowed event can never be popped late (or
//!   early) relative to the heap schedule.
//!
//! [`far`]: CalendarQueue#structfield.far

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Log2 of the bucket width in cycles: each bucket spans 16 consecutive
/// event times, approximately the mean inter-event gap.
const WIDTH_SHIFT: u64 = 4;
/// Number of ring buckets. Power of two; together with the bucket width
/// this puts the scheduling window at `512 * 16 = 8192` cycles, past the
/// driver's back-off cap (4096 plus per-core skew), while the bucket-head
/// array stays a cache-friendly 2 KB.
const NUM_BUCKETS: usize = 512;
const WORD_BITS: usize = 64;
/// Number of occupancy words (8, so the word-level summary fits easily).
const WORDS: usize = NUM_BUCKETS / WORD_BITS;
/// List terminator / empty-bucket marker for `head` and `next`.
const NONE: u32 = u32::MAX;
/// Ring-index mask; a compile-time constant so the bucket index provably
/// fits the arrays and indexing needs no bounds checks.
const MASK: u64 = (NUM_BUCKETS - 1) as u64;

/// A calendar event queue with exact `(time, core_index)` ordering.
///
/// Precondition (guaranteed by the driver, debug-asserted here): each core
/// has at most one queued event — `next` and `etime` are indexed by core,
/// so a second push for an already-queued core would corrupt its bucket
/// list.
///
/// Invariants:
/// * every bucketed event's bucket lies in the window of `NUM_BUCKETS`
///   buckets starting at the cursor's bucket, so a ring index never
///   aliases two live buckets;
/// * each bucket's list is sorted ascending by `(etime, core)` (pop takes
///   the head);
/// * events whose bucket falls outside the window live in the `far`
///   overflow heap until the window reaches them;
/// * `cursor` never decreases, and no event is ever pushed in the past
///   (the driver schedules follow-up events at `time >= now`), so every
///   queued event time is `>= cursor`.
#[derive(Debug)]
pub struct CalendarQueue {
    /// Per bucket: the first queued core in `(etime, core)` order, or
    /// [`NONE`].
    head: Box<[u32; NUM_BUCKETS]>,
    /// Per core: the next core in its bucket's sorted list, or [`NONE`].
    next: Vec<u32>,
    /// Per core: the event time it is queued at (valid while queued).
    etime: Vec<u64>,
    /// One bit per bucket: set iff the bucket is non-empty.
    occupancy: [u64; WORDS],
    /// One bit per occupancy word: set iff the word is non-zero.
    summary: u64,
    /// Lower bound on every queued event time; the last popped time.
    cursor: u64,
    /// Bucketed events (excludes `far`).
    bucketed: usize,
    /// Overflow events past the ring horizon, in exact `(time, index)`
    /// order.
    far: BinaryHeap<Reverse<(u64, usize)>>,
}

impl Default for CalendarQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl CalendarQueue {
    /// An empty queue with the window starting at time 0.
    pub fn new() -> Self {
        CalendarQueue {
            head: Box::new([NONE; NUM_BUCKETS]),
            next: Vec::new(),
            etime: Vec::new(),
            occupancy: [0; WORDS],
            summary: 0,
            cursor: 0,
            bucketed: 0,
            far: BinaryHeap::new(),
        }
    }

    /// Total queued events.
    pub fn len(&self) -> usize {
        self.bucketed + self.far.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules `core` at `time`. `time` must be at or after the last
    /// popped time (the driver never schedules into the past), and `core`
    /// must not already be queued.
    #[inline]
    pub fn push(&mut self, time: u64, core: usize) {
        debug_assert!(time >= self.cursor, "event pushed into the past");
        if (time >> WIDTH_SHIFT) >= (self.cursor >> WIDTH_SHIFT) + NUM_BUCKETS as u64 {
            // Past the ring horizon: the bucket index would alias a nearer
            // bucket. Park it in the far heap; it migrates into a bucket
            // once the window reaches it.
            self.far.push(Reverse((time, core)));
            return;
        }
        self.insert_bucketed(time, core);
    }

    /// Removes and returns the earliest event, ties broken by the lower
    /// core index — the exact `BinaryHeap<Reverse<(time, index)>>` order.
    #[inline]
    pub fn pop(&mut self) -> Option<(u64, usize)> {
        if !self.far.is_empty() {
            // Slow path: the window may have advanced past far events.
            // Advance the cursor to the overall minimum time and merge
            // every far event the window now covers into its bucket, so
            // the ring scan below sees them in exact `(time, core)` order.
            let t = self.next_time()?;
            self.cursor = t;
            self.migrate_far();
        }
        let (b, core, t) = self.scan_ring()?;
        self.cursor = t;
        let rest = self.next[core];
        self.head[b] = rest;
        if rest == NONE {
            let w = b / WORD_BITS;
            self.occupancy[w] &= !(1u64 << (b % WORD_BITS));
            if self.occupancy[w] == 0 {
                self.summary &= !(1u64 << w);
            }
        }
        self.bucketed -= 1;
        Some((t, core))
    }

    /// The earliest queued event time, without popping.
    pub fn peek_time(&self) -> Option<u64> {
        self.next_time()
    }

    /// The minimum event time across the ring and the far heap.
    fn next_time(&self) -> Option<u64> {
        let bucket_min = self.scan_ring().map(|(_, _, t)| t);
        let far_min = self.far.peek().map(|Reverse((t, _))| *t);
        match (bucket_min, far_min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// The earliest bucketed event as `(bucket, core, time)`: the head of
    /// the first occupied bucket at or after the cursor's ring position.
    /// Every live bucket lies inside one window, so ring order from the
    /// cursor is time order, and each bucket's sorted list puts its
    /// earliest `(time, core)` at the head. Constant-time: one masked
    /// occupancy word for the cursor's own word, then one shift over the
    /// doubled summary for everything else.
    fn scan_ring(&self) -> Option<(usize, usize, u64)> {
        if self.bucketed == 0 {
            return None;
        }
        let start = ((self.cursor >> WIDTH_SHIFT) & MASK) as usize;
        let first_word = start / WORD_BITS;
        // The cursor's own word: only buckets at or after the cursor's.
        let above = self.occupancy[first_word] & (!0u64 << (start % WORD_BITS));
        let b = if above != 0 {
            first_word * WORD_BITS + above.trailing_zeros() as usize
        } else {
            // Doubling the summary turns the ring rotation into a plain
            // shift: the first set bit at or after position `first_word+1`
            // is the next occupied word in ring order. A full-lap wrap
            // back to `first_word` needs no re-masking: its at-or-after
            // buckets were checked above, so any remaining bits are before
            // the cursor's bucket, i.e. one lap ahead.
            let doubled = self.summary | (self.summary << WORDS);
            let dist = (doubled >> (first_word + 1)).trailing_zeros() as usize;
            debug_assert!(dist < WORDS, "bucketed > 0 but no summary bit set");
            let w = (first_word + 1 + dist) % WORDS;
            let bits = self.occupancy[w];
            debug_assert_ne!(bits, 0, "summary bit set for a zero occupancy word");
            w * WORD_BITS + bits.trailing_zeros() as usize
        };
        let core = self.head[b];
        debug_assert_ne!(core, NONE, "occupancy bit set for an empty bucket");
        let core = core as usize;
        Some((b, core, self.etime[core]))
    }

    /// Moves far-heap events that now fall inside the ring window into
    /// their buckets. Called after the cursor advances.
    fn migrate_far(&mut self) {
        let horizon_bucket = (self.cursor >> WIDTH_SHIFT) + NUM_BUCKETS as u64;
        while let Some(&Reverse((t, core))) = self.far.peek() {
            if (t >> WIDTH_SHIFT) >= horizon_bucket {
                break;
            }
            self.far.pop();
            self.insert_bucketed(t, core);
        }
    }

    /// Inserts into the ring, keeping the bucket's list sorted ascending by
    /// `(etime, core)` so the head is always the bucket's earliest event
    /// with the heap's exact tie-break.
    #[inline]
    fn insert_bucketed(&mut self, time: u64, core: usize) {
        let b = ((time >> WIDTH_SHIFT) & MASK) as usize;
        if core >= self.next.len() {
            self.next.resize(core + 1, NONE);
            self.etime.resize(core + 1, 0);
        }
        self.etime[core] = time;
        let core32 = core as u32;
        let key = (time, core32);
        let first = self.head[b];
        if first == NONE || key < (self.etime[first as usize], first) {
            self.next[core] = first;
            self.head[b] = core32;
        } else {
            debug_assert_ne!(first, core32, "core already queued");
            let mut prev = first as usize;
            loop {
                let after = self.next[prev];
                if after == NONE || key < (self.etime[after as usize], after) {
                    break;
                }
                debug_assert_ne!(after, core32, "core already queued");
                prev = after as usize;
            }
            self.next[core] = self.next[prev];
            self.next[prev] = core32;
        }
        let w = b / WORD_BITS;
        self.occupancy[w] |= 1u64 << (b % WORD_BITS);
        self.summary |= 1u64 << w;
        self.bucketed += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The retired `BinaryHeap` scheduler: the reference model
    /// `ring_wrap_preserves_order_across_many_laps` replays against.
    #[derive(Default)]
    struct HeapQueue {
        heap: BinaryHeap<Reverse<(u64, usize)>>,
    }

    impl HeapQueue {
        fn push(&mut self, time: u64, core: usize) {
            self.heap.push(Reverse((time, core)));
        }

        fn pop(&mut self) -> Option<(u64, usize)> {
            self.heap.pop().map(|Reverse(e)| e)
        }
    }

    /// The full scheduling window in cycles.
    const SPAN: u64 = (NUM_BUCKETS as u64) << WIDTH_SHIFT;

    #[test]
    fn pops_in_time_then_index_order() {
        let mut q = CalendarQueue::new();
        q.push(5, 2);
        q.push(3, 7);
        q.push(5, 0);
        q.push(3, 1);
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop(), Some((3, 1)));
        assert_eq!(q.pop(), Some((3, 7)));
        assert_eq!(q.pop(), Some((5, 0)));
        assert_eq!(q.pop(), Some((5, 2)));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn repush_at_the_popped_time_keeps_the_tie_break() {
        // Core 0 steps at t and is rescheduled at the same t: it must come
        // back before core 1's pending event at t (index order), exactly
        // like the heap.
        let mut q = CalendarQueue::new();
        q.push(10, 0);
        q.push(10, 1);
        assert_eq!(q.pop(), Some((10, 0)));
        q.push(10, 0);
        assert_eq!(q.pop(), Some((10, 0)));
        assert_eq!(q.pop(), Some((10, 1)));
    }

    #[test]
    fn shared_bucket_orders_distinct_times_correctly() {
        // A bucket spans 16 cycles: events at distinct times land in the
        // same bucket and must still pop in (time, core) order even when
        // inserted in reverse.
        let mut q = CalendarQueue::new();
        q.push(34, 0);
        q.push(33, 1);
        q.push(32, 2);
        assert_eq!(q.pop(), Some((32, 2)));
        assert_eq!(q.pop(), Some((33, 1)));
        assert_eq!(q.pop(), Some((34, 0)));
    }

    #[test]
    fn horizon_overflow_is_scheduled_exactly() {
        let mut q = CalendarQueue::new();
        // One near event and one far past the ring horizon that would alias
        // an early bucket if bucketed naively.
        q.push(1, 0);
        let far_t = 1 + SPAN * 3;
        q.push(far_t, 1);
        assert_eq!(q.pop(), Some((1, 0)));
        // The far event must neither be lost nor popped early.
        q.push(2, 0);
        assert_eq!(q.pop(), Some((2, 0)));
        assert_eq!(q.pop(), Some((far_t, 1)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn far_events_merge_with_bucketed_events_at_the_same_time() {
        let mut q = CalendarQueue::new();
        let t = SPAN + 100;
        q.push(t, 5); // beyond horizon from cursor 0 -> far heap
        q.push(0, 0);
        assert_eq!(q.pop(), Some((0, 0)));
        q.push(t, 2); // window may now include t -> bucketed
        q.push(t - 1, 9);
        assert_eq!(q.pop(), Some((t - 1, 9)));
        // Both the migrated far event and the bucketed one share time t;
        // index order must hold across the two origins.
        assert_eq!(q.pop(), Some((t, 2)));
        assert_eq!(q.pop(), Some((t, 5)));
    }

    #[test]
    fn ring_wrap_preserves_order_across_many_laps() {
        let mut q = CalendarQueue::new();
        let mut reference = HeapQueue::default();
        // March a few cores forward over many ring laps with varied deltas,
        // including deltas beyond the horizon.
        let deltas = [1u64, 15, 16, 17, 511, 4095, 4209, 8191, 8192, 20000];
        for core in 0..4usize {
            q.push(core as u64, core);
            reference.push(core as u64, core);
        }
        for d in 0..5000usize {
            let a = q.pop();
            let b = reference.pop();
            assert_eq!(a, b);
            let (t, core) = a.unwrap();
            let next = t + deltas[d % deltas.len()];
            q.push(next, core);
            reference.push(next, core);
        }
    }

    #[test]
    fn peek_matches_next_pop() {
        let mut q = CalendarQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(7, 3);
        q.push(SPAN * 2, 1);
        assert_eq!(q.peek_time(), Some(7));
        assert_eq!(q.pop(), Some((7, 3)));
        assert_eq!(q.peek_time(), Some(SPAN * 2));
        assert_eq!(q.pop(), Some((SPAN * 2, 1)));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn shared_bucket_lists_keep_ascending_order_for_any_insert_order() {
        // Exhaust the three insert paths: new head, middle, and tail.
        let mut q = CalendarQueue::new();
        for &core in &[4usize, 1, 9, 0, 6] {
            q.push(42, core);
        }
        for expect in [0usize, 1, 4, 6, 9] {
            assert_eq!(q.pop(), Some((42, expect)));
        }
        assert!(q.is_empty());
    }
}
