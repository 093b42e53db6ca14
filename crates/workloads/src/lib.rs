#![forbid(unsafe_code)]
//! # dhtm-workloads
//!
//! The workloads of the paper's evaluation (Section V, Table IV), implemented
//! as data structures laid out in *simulated* persistent memory so that every
//! access a workload performs becomes a concrete cache-line access in the
//! simulator:
//!
//! * the six NVHeaps-style micro-benchmarks — [`micro::QueueWorkload`],
//!   [`micro::HashWorkload`], [`micro::SdgWorkload`], [`micro::SpsWorkload`],
//!   [`micro::BTreeWorkload`] and [`micro::RbTreeWorkload`] — each performing
//!   batches of atomic insert/delete/swap operations sized to reproduce the
//!   write-set footprints of Table IV;
//! * the OLTP workloads — [`oltp::TatpWorkload`] and [`oltp::TpccWorkload`] —
//!   in-memory row stores whose transactions have write working sets
//!   comparable to (TATP) or exceeding (TPC-C) the 32 KB L1.
//!
//! Each workload keeps a host-side model of its data structure (so that the
//! operations are semantically real — collisions, splits, rotations, row
//! look-ups) and renders every operation into the [`dhtm_sim::workload::TxOp`]
//! stream the simulator executes.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod heap;
pub mod micro;
pub mod oltp;
pub mod trace;

pub use heap::SimHeap;
pub use micro::{
    BTreeWorkload, HashWorkload, QueueWorkload, RbTreeWorkload, SdgWorkload, SpsWorkload,
};
pub use oltp::{TatpWorkload, TpccWorkload};
pub use trace::TraceBuilder;

use dhtm_sim::workload::Workload;

/// Builds any of the paper's eight workloads by name: the six
/// micro-benchmarks plus `"tatp"` and `"tpcc"`. The error names the
/// rejected workload and lists everything that would have resolved, so a
/// typo in a CLI flag or spec file is self-correcting.
///
/// # Errors
///
/// Returns [`WorkloadError::Unknown`] when `name` is not one of [`NAMES`].
pub fn try_by_name(name: &str, seed: u64) -> Result<Box<dyn Workload>, WorkloadError> {
    Ok(match name {
        "queue" => Box::new(QueueWorkload::new(seed)),
        "hash" => Box::new(HashWorkload::new(seed)),
        "sdg" => Box::new(SdgWorkload::new(seed)),
        "sps" => Box::new(SpsWorkload::new(seed)),
        "btree" => Box::new(BTreeWorkload::new(seed)),
        "rbtree" => Box::new(RbTreeWorkload::new(seed)),
        "tatp" => Box::new(TatpWorkload::new(seed)),
        "tpcc" => Box::new(TpccWorkload::new(seed)),
        _ => return Err(WorkloadError::Unknown(name.to_string())),
    })
}

/// All eight workload names, in the paper's order: the six
/// micro-benchmarks as its figures present them, then the OLTP pair.
pub const NAMES: [&str; 8] = [
    "queue", "hash", "sdg", "sps", "btree", "rbtree", "tatp", "tpcc",
];

/// Errors from name-based workload resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadError {
    /// No workload with this name exists; the display form lists [`NAMES`]
    /// so a typo in a CLI flag or spec file is self-correcting.
    Unknown(String),
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::Unknown(name) => {
                write!(f, "no workload '{name}': known workloads are ")?;
                for (i, known) in NAMES.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "'{known}'")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for WorkloadError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_by_name_covers_all_eight_workloads_in_paper_order() {
        assert_eq!(
            NAMES[..6],
            ["queue", "hash", "sdg", "sps", "btree", "rbtree"],
            "the micro-benchmarks come first, in the figures' order"
        );
        for name in NAMES {
            assert_eq!(try_by_name(name, 7).unwrap().name(), name);
        }
        assert!(try_by_name("nope", 7).is_err());
    }

    #[test]
    fn try_by_name_lists_the_catalogue_on_unknown_names() {
        assert_eq!(try_by_name("hash", 7).unwrap().name(), "hash");
        let Err(err) = try_by_name("hsah", 7) else {
            panic!("'hsah' must not resolve");
        };
        assert_eq!(err, WorkloadError::Unknown("hsah".to_string()));
        let msg = err.to_string();
        assert!(msg.contains("'hsah'"), "{msg}");
        for name in NAMES {
            assert!(msg.contains(name), "{msg} should list {name}");
        }
    }
}
