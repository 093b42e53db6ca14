//! The workload abstraction: transactions as sequences of memory operations.
//!
//! Workloads (the six micro-benchmarks, TATP and TPC-C) are implemented in
//! the `dhtm-workloads` crate as real data structures laid out in simulated
//! memory; each operation they perform is rendered down to a sequence of
//! [`TxOp`]s — loads and stores of concrete simulated addresses plus local
//! compute delays — which every design executes identically. This keeps the
//! comparison between designs apples-to-apples: only the concurrency-control
//! and durability mechanisms differ.

use dhtm_types::addr::{Address, LineAddr};
use dhtm_types::ids::CoreId;

use crate::locks::LockId;

/// One operation inside a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxOp {
    /// Load the word at the address.
    Read(Address),
    /// Store the value to the word at the address.
    Write(Address, u64),
    /// Local computation taking the given number of cycles (no memory
    /// traffic).
    Compute(u64),
}

impl TxOp {
    /// The address touched by the operation, if it is a memory operation.
    pub fn address(&self) -> Option<Address> {
        match self {
            TxOp::Read(a) | TxOp::Write(a, _) => Some(*a),
            TxOp::Compute(_) => None,
        }
    }

    /// Whether the operation is a store.
    pub fn is_write(&self) -> bool {
        matches!(self, TxOp::Write(..))
    }
}

/// A transaction: the operations to execute and the lock set a lock-based
/// design would acquire for it.
#[derive(Debug, Clone, Default)]
pub struct Transaction {
    /// Operations, in program order.
    pub ops: Vec<TxOp>,
    /// Locks protecting the data this transaction touches, for lock-based
    /// designs, in any order. The driver sorts and deduplicates them once,
    /// in place, when it fetches the transaction, so every `begin` attempt
    /// (and any observer) sees them ascending and duplicate-free.
    pub locks: Vec<LockId>,
    /// A label for debugging/characterisation (e.g. "new-order", "insert").
    pub label: &'static str,
}

impl Transaction {
    /// Creates a transaction from operations and a lock set.
    pub fn new(ops: Vec<TxOp>, locks: Vec<LockId>, label: &'static str) -> Self {
        Transaction { ops, locks, label }
    }

    /// Number of store operations.
    pub fn store_count(&self) -> usize {
        self.ops.iter().filter(|op| op.is_write()).count()
    }

    /// Number of load operations.
    pub fn load_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, TxOp::Read(_)))
            .count()
    }

    /// The distinct cache lines written by the transaction (the write-set
    /// footprint of Table IV).
    pub fn write_set_lines(&self) -> Vec<LineAddr> {
        let mut lines: Vec<LineAddr> = self
            .ops
            .iter()
            .filter(|op| op.is_write())
            .filter_map(|op| op.address())
            .map(|a| a.line())
            .collect();
        lines.sort_unstable();
        lines.dedup();
        lines
    }

    /// The distinct cache lines read by the transaction.
    pub fn read_set_lines(&self) -> Vec<LineAddr> {
        let mut lines: Vec<LineAddr> = self
            .ops
            .iter()
            .filter(|op| matches!(op, TxOp::Read(_)))
            .filter_map(|op| op.address())
            .map(|a| a.line())
            .collect();
        lines.sort_unstable();
        lines.dedup();
        lines
    }
}

/// A source of transactions for each core.
///
/// Implementations are deterministic given their seed, so that every design
/// executes the same transaction stream.
pub trait Workload {
    /// Short name used in experiment output ("hash", "tpcc", ...).
    fn name(&self) -> &'static str;

    /// Produces the next transaction to run on `core`.
    fn next_transaction(&mut self, core: CoreId) -> Transaction;

    /// One-time initialisation transactions (data-structure population) that
    /// the driver executes before measurement begins, single-threaded on
    /// core 0 with conflicts impossible. Default: none.
    fn setup_transactions(&mut self) -> Vec<Transaction> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txop_accessors() {
        let r = TxOp::Read(Address::new(64));
        let w = TxOp::Write(Address::new(128), 5);
        let c = TxOp::Compute(10);
        assert_eq!(r.address(), Some(Address::new(64)));
        assert_eq!(c.address(), None);
        assert!(w.is_write());
        assert!(!r.is_write());
    }

    #[test]
    fn transaction_footprints() {
        let tx = Transaction::new(
            vec![
                TxOp::Read(Address::new(0)),
                TxOp::Write(Address::new(8), 1),  // line 0 again
                TxOp::Write(Address::new(64), 2), // line 1
                TxOp::Write(Address::new(72), 3), // line 1 again
                TxOp::Compute(5),
            ],
            vec![LockId(1)],
            "test",
        );
        assert_eq!(tx.store_count(), 3);
        assert_eq!(tx.load_count(), 1);
        assert_eq!(tx.write_set_lines().len(), 2);
        assert_eq!(tx.read_set_lines().len(), 1);
    }

    #[test]
    fn default_transaction_is_empty() {
        let tx = Transaction::default();
        assert_eq!(tx.ops.len(), 0);
        assert_eq!(tx.write_set_lines().len(), 0);
    }
}
