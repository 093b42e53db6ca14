//! The persistence domain: everything that survives a crash.

use dhtm_types::addr::{Address, LineAddr, LineData};
use dhtm_types::error::Result;
use dhtm_types::ids::{ThreadId, TxId};

use crate::log::TransactionLog;
use crate::memory::PersistentMemory;
use crate::overflow::OverflowList;
use crate::record::LogRecord;

/// The set of persistent structures visible to the recovery manager: the
/// in-place data image, one transaction log per thread and one overflow list
/// per thread.
///
/// The simulator mutates the domain as the hardware would (log appends on log
/// buffer evictions, in-place line writes on write-backs). Because volatile
/// state (caches, registers, log buffer) lives elsewhere, *cloning* the
/// domain is exactly a crash: the clone contains precisely the durable state
/// at that instant, and running the [`crate::recovery::RecoveryManager`] on
/// the clone reproduces the paper's recovery procedure.
///
/// # The durable-mutation clock
///
/// Every content mutation that reaches the domain through the first-class
/// mutator methods ([`PersistentDomain::append_log`],
/// [`PersistentDomain::write_line`], [`PersistentDomain::reclaim_log`], ...)
/// ticks a monotone *mutation clock*. The clock defines the persist-boundary
/// semantics of the crash-injection subsystem (`dhtm_crash`): a crash point
/// `n` means "power was lost after exactly the first `n` durable mutations
/// became persistent". Arming the domain with
/// [`PersistentDomain::arm_crash_captures`] makes it snapshot itself at each
/// requested clock value, *without* disturbing the run — the simulation
/// continues to completion and the snapshots are collected afterwards with
/// [`PersistentDomain::take_crash_captures`].
///
/// Direct access through [`PersistentDomain::log_mut`] /
/// [`PersistentDomain::memory_mut`] bypasses the clock; it is meant for
/// setup, recovery (which operates on a crashed copy) and tests.
#[derive(Debug, Clone)]
pub struct PersistentDomain {
    memory: PersistentMemory,
    logs: Vec<TransactionLog>,
    overflow_lists: Vec<OverflowList>,
    /// Durable-mutation clock: number of content mutations applied through
    /// the counting mutator methods.
    mutations: u64,
    /// Pending crash-capture points (ascending clock values).
    armed: Vec<u64>,
    /// Captured crash images, as (clock value, image) pairs.
    captured: Vec<(u64, PersistentDomain)>,
}

impl PersistentDomain {
    /// Creates a domain with `threads` per-thread logs of `log_capacity`
    /// records each and overflow lists of `overflow_capacity` entries each.
    pub fn new(threads: usize, log_capacity: usize, overflow_capacity: usize) -> Self {
        PersistentDomain {
            memory: PersistentMemory::new(),
            logs: (0..threads)
                .map(|t| TransactionLog::new(ThreadId::new(t), log_capacity))
                .collect(),
            overflow_lists: (0..threads)
                .map(|t| OverflowList::new(ThreadId::new(t), overflow_capacity))
                .collect(),
            mutations: 0,
            armed: Vec::new(),
            captured: Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // The durable-mutation clock and crash captures.
    // ------------------------------------------------------------------

    /// Number of durable content mutations applied so far through the
    /// counting mutator methods.
    pub fn mutation_count(&self) -> u64 {
        self.mutations
    }

    /// Arms the domain to capture a crash image at each of the given clock
    /// values: the image at point `n` reflects exactly the first `n` counted
    /// mutations. Points are sorted and de-duplicated; points at or beyond
    /// the final clock value resolve to the end-of-run state when the
    /// captures are taken.
    pub fn arm_crash_captures<I: IntoIterator<Item = u64>>(&mut self, points: I) {
        self.armed.extend(points);
        self.armed.sort_unstable();
        self.armed.dedup();
    }

    /// Takes the captured crash images, resolving any still-armed points
    /// (at or beyond the current clock) with the current state. Returns
    /// (clock value, image) pairs in ascending clock order.
    pub fn take_crash_captures(&mut self) -> Vec<(u64, PersistentDomain)> {
        if !self.armed.is_empty() {
            let image = self.capture_image();
            let rest: Vec<u64> = std::mem::take(&mut self.armed);
            for n in rest {
                self.captured.push((n.min(self.mutations), image.clone()));
            }
        }
        std::mem::take(&mut self.captured)
    }

    /// Captures a crash image for every armed point at or below the current
    /// clock value. Called by each counting mutator *before* it applies its
    /// change: a crash at point `n` preserves exactly the first `n`
    /// mutations, so the image must be taken before mutation `n` lands.
    /// (Calling this ahead of an operation that then fails or turns out to
    /// be a no-op is harmless — the content is unchanged until the next
    /// successful mutation, so the image is identical.)
    fn pre_mutation_capture(&mut self) {
        while self.armed.first().is_some_and(|&n| n <= self.mutations) {
            let n = self.armed.remove(0);
            let image = self.capture_image();
            self.captured.push((n, image));
        }
    }

    /// An exact copy of the durable state at this instant, with the capture
    /// instrumentation stripped (a crash image is never itself armed).
    fn capture_image(&self) -> PersistentDomain {
        PersistentDomain {
            memory: self.memory.clone(),
            logs: self.logs.clone(),
            overflow_lists: self.overflow_lists.clone(),
            mutations: self.mutations,
            armed: Vec::new(),
            captured: Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // Counting mutators: the paths hardware/engines use to reach NVM.
    // ------------------------------------------------------------------

    /// Appends a record to `thread`'s transaction log, ticking the mutation
    /// clock on success.
    ///
    /// # Errors
    ///
    /// Returns [`dhtm_types::error::DhtmError::LogOverflow`] when the log is
    /// full (nothing becomes durable and the clock does not tick).
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    pub fn append_log(&mut self, thread: ThreadId, record: LogRecord) -> Result<()> {
        self.pre_mutation_capture();
        self.logs[thread.get()].append(record)?;
        self.mutations += 1;
        Ok(())
    }

    /// Reclaims complete/aborted transactions from `thread`'s log (the
    /// head-pointer advance). Ticks the clock only when records were
    /// actually reclaimed. Returns the number of reclaimed records.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    pub fn reclaim_log(&mut self, thread: ThreadId) -> usize {
        self.pre_mutation_capture();
        let reclaimed = self.logs[thread.get()].reclaim();
        if reclaimed > 0 {
            self.mutations += 1;
        }
        reclaimed
    }

    /// Removes every record of `tx` from `thread`'s log regardless of
    /// markers (see [`TransactionLog::purge_tx`]). Ticks the clock only when
    /// records were removed. Returns the number of removed records.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    pub fn purge_log_tx(&mut self, thread: ThreadId, tx: TxId) -> usize {
        self.pre_mutation_capture();
        let purged = self.logs[thread.get()].purge_tx(tx);
        if purged > 0 {
            self.mutations += 1;
        }
        purged
    }

    /// Appends `(tx, line)` to `thread`'s overflow list, ticking the clock
    /// on success.
    ///
    /// # Errors
    ///
    /// Returns [`dhtm_types::error::DhtmError::OverflowListFull`] when the
    /// list is full.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    pub fn append_overflow(&mut self, thread: ThreadId, tx: TxId, line: LineAddr) -> Result<()> {
        self.pre_mutation_capture();
        self.overflow_lists[thread.get()].append(tx, line)?;
        self.mutations += 1;
        Ok(())
    }

    /// Removes every overflow-list entry of `tx` on `thread`, ticking the
    /// clock only when entries were removed. Returns the number removed.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    pub fn clear_overflow_tx(&mut self, thread: ThreadId, tx: TxId) -> usize {
        self.pre_mutation_capture();
        let list = &mut self.overflow_lists[thread.get()];
        let before = list.len();
        list.clear_tx(tx);
        let cleared = before - list.len();
        if cleared > 0 {
            self.mutations += 1;
        }
        cleared
    }

    /// Number of per-thread logs (== number of threads).
    pub fn threads(&self) -> usize {
        self.logs.len()
    }

    /// Immutable access to the in-place data image.
    pub fn memory(&self) -> &PersistentMemory {
        &self.memory
    }

    /// Mutable access to the in-place data image.
    pub fn memory_mut(&mut self) -> &mut PersistentMemory {
        &mut self.memory
    }

    /// Convenience: reads a full line from the in-place image.
    pub fn read_line(&self, line: LineAddr) -> LineData {
        self.memory.read_line(line)
    }

    /// Writes a full line to the in-place image (a data write-back reaching
    /// persistent memory), ticking the mutation clock.
    pub fn write_line(&mut self, line: LineAddr, data: LineData) {
        self.pre_mutation_capture();
        self.memory.write_line(line, data);
        self.mutations += 1;
    }

    /// Convenience: reads one word from the in-place image.
    pub fn read_word(&self, addr: Address) -> u64 {
        self.memory.read_word(addr)
    }

    /// Writes one word to the in-place image, ticking the mutation clock.
    pub fn write_word(&mut self, addr: Address, value: u64) {
        self.pre_mutation_capture();
        self.memory.write_word(addr, value);
        self.mutations += 1;
    }

    /// The transaction log owned by `thread`.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    pub fn log(&self, thread: ThreadId) -> &TransactionLog {
        &self.logs[thread.get()]
    }

    /// Mutable access to the transaction log owned by `thread`.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    pub fn log_mut(&mut self, thread: ThreadId) -> &mut TransactionLog {
        &mut self.logs[thread.get()]
    }

    /// The overflow list owned by `thread`.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    pub fn overflow_list(&self, thread: ThreadId) -> &OverflowList {
        &self.overflow_lists[thread.get()]
    }

    /// Mutable access to the overflow list owned by `thread`.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    pub fn overflow_list_mut(&mut self, thread: ThreadId) -> &mut OverflowList {
        &mut self.overflow_lists[thread.get()]
    }

    /// Iterates over all per-thread logs.
    pub fn logs(&self) -> impl Iterator<Item = &TransactionLog> {
        self.logs.iter()
    }

    /// The thread whose overflow list records `line`, if any — i.e. some
    /// in-flight transaction's speculative copy of the line lives in the
    /// LLC. Such lines must never be written in place on an LLC eviction:
    /// redo logging forbids uncommitted data in persistent memory.
    pub fn speculative_overflow_owner(&self, line: LineAddr) -> Option<ThreadId> {
        self.overflow_lists
            .iter()
            .find(|l| l.contains_line(line))
            .map(|l| l.owner())
    }

    /// Takes a crash snapshot: an exact copy of the durable state at this
    /// instant. All volatile state (caches, log buffer contents, transaction
    /// status registers) is implicitly discarded because it simply is not
    /// part of the domain. Capture instrumentation is not carried over.
    pub fn crash_snapshot(&self) -> PersistentDomain {
        self.capture_image()
    }

    /// Total log bytes appended across all threads (bandwidth accounting).
    pub fn total_log_bytes(&self) -> u64 {
        self.logs.iter().map(|l| l.appended_bytes()).sum()
    }

    /// Total log records appended across all threads.
    pub fn total_log_records(&self) -> u64 {
        self.logs.iter().map(|l| l.appended_records()).sum()
    }

    /// Registers the domain's durable-structure counters: aggregate log
    /// traffic plus per-thread overflow-list growth (`threadN/overflow/...`).
    pub fn probes_into(&self, reg: &mut dhtm_obs::ProbeRegistry) {
        reg.add("domain/log_bytes", self.total_log_bytes());
        reg.add("domain/log_records", self.total_log_records());
        reg.add("domain/mutations", self.mutations);
        for list in &self.overflow_lists {
            let t = list.owner().get();
            reg.add(&format!("thread{t}/overflow/appended"), list.appended());
            reg.set(
                &format!("thread{t}/overflow/peak_len"),
                list.peak_len() as u64,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::LogRecord;
    use dhtm_types::ids::TxId;

    #[test]
    fn domain_construction() {
        let d = PersistentDomain::new(4, 100, 50);
        assert_eq!(d.threads(), 4);
        for t in 0..4 {
            assert_eq!(d.log(ThreadId::new(t)).capacity(), 100);
            assert_eq!(d.overflow_list(ThreadId::new(t)).capacity(), 50);
        }
    }

    #[test]
    fn snapshot_isolates_later_mutations() {
        let mut d = PersistentDomain::new(1, 16, 16);
        d.write_line(LineAddr::new(1), [1; 8]);
        let snap = d.crash_snapshot();
        d.write_line(LineAddr::new(1), [2; 8]);
        d.log_mut(ThreadId::new(0))
            .append(LogRecord::commit(TxId::new(1)))
            .unwrap();
        assert_eq!(snap.read_line(LineAddr::new(1)), [1; 8]);
        assert!(snap.log(ThreadId::new(0)).is_empty());
        assert_eq!(d.read_line(LineAddr::new(1)), [2; 8]);
    }

    #[test]
    fn total_log_accounting_spans_threads() {
        let mut d = PersistentDomain::new(2, 16, 16);
        d.log_mut(ThreadId::new(0))
            .append(LogRecord::redo(TxId::new(1), LineAddr::new(1), [0; 8]))
            .unwrap();
        d.log_mut(ThreadId::new(1))
            .append(LogRecord::commit(TxId::new(2)))
            .unwrap();
        assert_eq!(d.total_log_records(), 2);
        assert_eq!(d.total_log_bytes(), 72 + 16);
    }

    #[test]
    fn domain_probes_cover_logs_and_overflow_lists() {
        let mut d = PersistentDomain::new(2, 16, 16);
        let t1 = ThreadId::new(1);
        d.append_log(t1, LogRecord::commit(TxId::new(1))).unwrap();
        d.append_overflow(t1, TxId::new(1), LineAddr::new(3))
            .unwrap();
        let mut reg = dhtm_obs::ProbeRegistry::new();
        d.probes_into(&mut reg);
        assert_eq!(reg.counter("domain/log_records"), 1);
        assert_eq!(reg.counter("domain/mutations"), 2);
        assert_eq!(reg.counter("thread0/overflow/appended"), 0);
        assert_eq!(reg.counter("thread1/overflow/appended"), 1);
        assert_eq!(reg.counter("thread1/overflow/peak_len"), 1);
    }

    #[test]
    #[should_panic]
    fn out_of_range_thread_panics() {
        let d = PersistentDomain::new(1, 16, 16);
        let _ = d.log(ThreadId::new(5));
    }

    #[test]
    fn mutation_clock_counts_content_mutations_only() {
        let mut d = PersistentDomain::new(2, 16, 16);
        let t0 = ThreadId::new(0);
        assert_eq!(d.mutation_count(), 0);
        d.append_log(t0, LogRecord::redo(TxId::new(1), LineAddr::new(1), [1; 8]))
            .unwrap();
        d.write_line(LineAddr::new(9), [2; 8]);
        d.write_word(dhtm_types::addr::Address::new(0x80), 7);
        assert_eq!(d.mutation_count(), 3);
        // Reads do not tick the clock.
        let _ = d.read_line(LineAddr::new(9));
        assert_eq!(d.mutation_count(), 3);
        // Reclaiming when nothing is reclaimable does not tick the clock.
        assert_eq!(d.reclaim_log(t0), 0);
        assert_eq!(d.mutation_count(), 3);
        // Direct log_mut access bypasses the clock (setup/test path).
        d.log_mut(t0)
            .append(LogRecord::commit(TxId::new(1)))
            .unwrap();
        assert_eq!(d.mutation_count(), 3);
    }

    #[test]
    fn overflow_log_failure_does_not_tick_the_clock() {
        let mut d = PersistentDomain::new(1, 1, 1);
        let t0 = ThreadId::new(0);
        d.append_log(t0, LogRecord::commit(TxId::new(1))).unwrap();
        assert!(d.append_log(t0, LogRecord::commit(TxId::new(2))).is_err());
        assert_eq!(d.mutation_count(), 1);
        d.append_overflow(t0, TxId::new(1), LineAddr::new(4))
            .unwrap();
        assert!(d
            .append_overflow(t0, TxId::new(2), LineAddr::new(5))
            .is_err());
        assert_eq!(d.mutation_count(), 2);
    }

    #[test]
    fn armed_captures_freeze_state_at_the_requested_clock_values() {
        let mut d = PersistentDomain::new(1, 16, 16);
        d.arm_crash_captures([0, 2, 100]);
        d.write_line(LineAddr::new(1), [1; 8]); // mutation 0
        d.write_line(LineAddr::new(1), [2; 8]); // mutation 1
        d.write_line(LineAddr::new(1), [3; 8]); // mutation 2
        let captures = d.take_crash_captures();
        assert_eq!(captures.len(), 3);
        // Point 0: before any mutation.
        assert_eq!(captures[0].0, 0);
        assert_eq!(captures[0].1.read_line(LineAddr::new(1)), [0; 8]);
        // Point 2: exactly two mutations durable.
        assert_eq!(captures[1].0, 2);
        assert_eq!(captures[1].1.read_line(LineAddr::new(1)), [2; 8]);
        // Point 100: beyond the run, resolved to the final state (clamped).
        assert_eq!(captures[2].0, 3);
        assert_eq!(captures[2].1.read_line(LineAddr::new(1)), [3; 8]);
        // Captures were drained.
        assert!(d.take_crash_captures().is_empty());
    }

    #[test]
    fn captured_images_carry_logs_and_overflow_lists() {
        let mut d = PersistentDomain::new(1, 16, 16);
        let t0 = ThreadId::new(0);
        let tx = TxId::new(1);
        d.arm_crash_captures([2]);
        d.append_log(t0, LogRecord::redo(tx, LineAddr::new(1), [1; 8]))
            .unwrap();
        d.append_overflow(t0, tx, LineAddr::new(2)).unwrap();
        d.append_log(t0, LogRecord::commit(tx)).unwrap(); // not in the capture
        let captures = d.take_crash_captures();
        let image = &captures[0].1;
        assert_eq!(image.log(t0).len(), 1, "commit marker is past the cut");
        assert!(image.overflow_list(t0).contains(tx, LineAddr::new(2)));
        assert!(!image.log(t0).is_committed(tx));
    }
}
