//! The closed engine table: every engine a spec, matrix or report can name.
//!
//! The paper evaluates a fixed set of designs (Table I), the volatile NP
//! bound and the Section VI-D ablation variants, so the catalogue is one
//! static table, [`ENGINES`]: the six designs under their canonical
//! [`DesignKind::id`]s followed by the built-in DHTM variants. An id names
//! the same engine in every process, which is what lets spec files,
//! content hashes and the service's result store refer to engines by id
//! alone. Variants that only change the machine (a 4-entry log buffer, 2x
//! bandwidth, ...) are spec config overlays, not engines.
//!
//! ```
//! use dhtm_baselines::registry::{self, EngineId};
//! use dhtm_sim::engine::TxEngine;
//! use dhtm_types::config::SystemConfig;
//! use dhtm_types::policy::DesignKind;
//!
//! let engine = registry::resolve(&EngineId::new("dhtm-instant")).unwrap();
//! assert_eq!(engine.label, "DHTM-instant");
//! let built = engine.build(&SystemConfig::small_test());
//! assert_eq!(built.design(), DesignKind::Dhtm);
//! ```

use std::fmt;

use dhtm::{DhtmEngine, DhtmOptions};
use dhtm_types::config::SystemConfig;
use dhtm_types::policy::DesignKind;

use crate::dispatch::EngineDispatch;
use crate::{AtomEngine, LogTmAtomEngine, NpEngine, SdTmEngine, SoEngine};

/// The name of an engine in [`ENGINES`] — the sole identity scenario
/// specs, matrices and reports refer to engines by.
///
/// Canonical ids are lowercase kebab-case: the six designs use
/// [`DesignKind::id`] ("so", "sdtm", "atom", "logtm-atom", "dhtm", "np"),
/// the built-in DHTM variants "dhtm-instant", "dhtm-word" and
/// "dhtm-no-overflow". An id outside the table is representable (a spec
/// file may name one) and fails spec validation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EngineId(String);

impl EngineId {
    /// Wraps a name as an engine id.
    pub fn new(name: impl Into<String>) -> Self {
        EngineId(name.into())
    }

    /// The raw name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for EngineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<DesignKind> for EngineId {
    fn from(d: DesignKind) -> Self {
        EngineId::new(d.id())
    }
}

impl From<&str> for EngineId {
    fn from(s: &str) -> Self {
        EngineId::new(s)
    }
}

impl From<String> for EngineId {
    fn from(s: String) -> Self {
        EngineId::new(s)
    }
}

/// One entry of [`ENGINES`]: an id, the label tables print, the design the
/// built engine reports, and its constructor.
#[derive(Debug)]
pub struct Engine {
    /// Table id ("dhtm", "dhtm-instant", ...). Ids land verbatim in spec
    /// files, content hashes and report columns, so they are restricted to
    /// `[a-z0-9-]` (checked by this module's tests).
    pub id: &'static str,
    /// Short label used in result rows and tables ("DHTM", "DHTM-instant").
    pub label: &'static str,
    /// The design the built engine reports via
    /// [`TxEngine::design`](dhtm_sim::engine::TxEngine::design) — variants
    /// keep their base design's kind, which is what the recovery oracles
    /// key on.
    pub design: DesignKind,
    build: fn(&SystemConfig) -> EngineDispatch,
}

impl Engine {
    /// Builds a fresh engine for `cfg`.
    pub fn build(&self, cfg: &SystemConfig) -> EngineDispatch {
        (self.build)(cfg)
    }
}

/// Every engine, in catalogue order: the six evaluated designs, then the
/// DHTM variants of the paper's ablations.
pub const ENGINES: [Engine; 9] = [
    Engine {
        id: "so",
        label: "SO",
        design: DesignKind::SoftwareOnly,
        build: |cfg| EngineDispatch::So(SoEngine::new(cfg)),
    },
    Engine {
        id: "sdtm",
        label: "sdTM",
        design: DesignKind::SdTm,
        build: |cfg| EngineDispatch::SdTm(SdTmEngine::new(cfg)),
    },
    Engine {
        id: "atom",
        label: "ATOM",
        design: DesignKind::Atom,
        build: |cfg| EngineDispatch::Atom(AtomEngine::new(cfg)),
    },
    Engine {
        id: "logtm-atom",
        label: "LogTM-ATOM",
        design: DesignKind::LogTmAtom,
        build: |cfg| EngineDispatch::LogTmAtom(LogTmAtomEngine::new(cfg)),
    },
    Engine {
        id: "dhtm",
        label: "DHTM",
        design: DesignKind::Dhtm,
        build: |cfg| EngineDispatch::Dhtm(DhtmEngine::new(cfg)),
    },
    Engine {
        id: "np",
        label: "NP",
        design: DesignKind::NonPersistent,
        build: |cfg| EngineDispatch::Np(NpEngine::new(cfg)),
    },
    // Instantaneous critical-path writes (Section VI-D ablation).
    Engine {
        id: "dhtm-instant",
        label: "DHTM-instant",
        design: DesignKind::Dhtm,
        build: |cfg| {
            EngineDispatch::Dhtm(DhtmEngine::with_options(cfg, DhtmOptions::instant_writes()))
        },
    },
    // Word-granular logging, no coalescing (Figure 2b).
    Engine {
        id: "dhtm-word",
        label: "DHTM-word",
        design: DesignKind::Dhtm,
        build: |cfg| {
            EngineDispatch::Dhtm(DhtmEngine::with_options(cfg, DhtmOptions::word_granular()))
        },
    },
    // L1-limited DHTM: write-set overflow to the LLC disabled.
    Engine {
        id: "dhtm-no-overflow",
        label: "DHTM-noovf",
        design: DesignKind::Dhtm,
        build: |cfg| {
            EngineDispatch::Dhtm(DhtmEngine::with_options(
                cfg,
                DhtmOptions::without_overflow(),
            ))
        },
    },
];

/// Looks an id up in [`ENGINES`].
pub fn resolve(id: &EngineId) -> Option<&'static Engine> {
    ENGINES.iter().find(|e| e.id == id.as_str())
}

/// The table label for an engine id: the table's label, or the raw id for
/// an id outside the table (reports should never panic over a name).
pub fn label_of(id: &EngineId) -> String {
    resolve(id).map_or_else(|| id.to_string(), |e| e.label.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhtm_sim::engine::TxEngine;

    #[test]
    fn ids_are_unique_kebab_case_and_every_engine_builds_its_design() {
        let cfg = SystemConfig::small_test();
        for (i, e) in ENGINES.iter().enumerate() {
            assert!(
                !e.id.is_empty()
                    && e.id
                        .bytes()
                        .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-'),
                "{:?} must match [a-z0-9-]+",
                e.id
            );
            assert!(
                ENGINES[..i].iter().all(|other| other.id != e.id),
                "duplicate id {:?}",
                e.id
            );
            assert_eq!(e.build(&cfg).design(), e.design, "{}", e.id);
        }
    }

    #[test]
    fn every_design_resolves_under_its_canonical_id() {
        for design in DesignKind::ALL {
            let e = resolve(&design.into()).expect("design in the table");
            assert_eq!(e.design, design);
            assert_eq!(e.label, design.label());
        }
        assert_eq!(
            ENGINES.len(),
            DesignKind::ALL.len() + 3,
            "three DHTM variants"
        );
    }

    #[test]
    fn variants_report_dhtm_with_distinct_labels() {
        let variants = ["dhtm-instant", "dhtm-word", "dhtm-no-overflow"];
        let labels: Vec<&str> = variants
            .iter()
            .map(|&name| {
                let e = resolve(&EngineId::new(name)).expect("variant in the table");
                assert_eq!(e.design, DesignKind::Dhtm);
                e.label
            })
            .collect();
        for (i, label) in labels.iter().enumerate() {
            assert_ne!(*label, "DHTM", "variants need distinct labels");
            assert!(!labels[..i].contains(label), "duplicate label {label}");
        }
    }

    #[test]
    fn unknown_engine_resolves_to_none_and_label_falls_back_to_id() {
        let ghost = EngineId::new("ghost");
        assert!(resolve(&ghost).is_none());
        assert_eq!(label_of(&ghost), "ghost");
        assert_eq!(label_of(&DesignKind::Dhtm.into()), "DHTM");
    }
}
