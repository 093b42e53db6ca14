//! The extensible engine registry: named [`EngineFactory`] entries with
//! capability metadata, replacing the old closed `match` over
//! [`DesignKind`].
//!
//! Every place that used to dispatch on the enum — the harness matrix, the
//! crash matrix, the examples — now resolves an
//! [`EngineId`] through a registry, so design *variants* (DHTM with a
//! 4-entry log buffer, sdTM with a different fallback policy, ...) become
//! first-class named engines:
//!
//! ```
//! use dhtm_baselines::registry::{self, EngineFactory, EngineId, EngineInfo, LogDiscipline};
//! use dhtm_sim::engine::TxEngine;
//! use dhtm_types::config::SystemConfig;
//! use dhtm_types::policy::DesignKind;
//!
//! // Register an out-of-tree variant without touching any dispatch code:
//! registry::register_global(EngineFactory::new(
//!     EngineInfo {
//!         id: EngineId::new("dhtm-logbuf4-doc"),
//!         label: "DHTM-lb4".to_string(),
//!         description: "DHTM with a 4-entry log buffer".to_string(),
//!         design: DesignKind::Dhtm,
//!         durable: true,
//!         log: LogDiscipline::HardwareRedo,
//!         has_fallback: true,
//!     },
//!     |cfg| {
//!         let cfg = cfg.clone().with_log_buffer_entries(4);
//!         Box::new(dhtm::DhtmEngine::new(&cfg))
//!     },
//! ))
//! .unwrap();
//!
//! let engine = registry::resolve(&EngineId::new("dhtm-logbuf4-doc"))
//!     .unwrap()
//!     .build(&SystemConfig::small_test());
//! assert_eq!(engine.design(), DesignKind::Dhtm);
//! ```

use std::fmt;
use std::sync::{Arc, OnceLock, RwLock};

use dhtm::{DhtmEngine, DhtmOptions};
use dhtm_sim::engine::TxEngine;
use dhtm_types::config::SystemConfig;
use dhtm_types::policy::DesignKind;

use crate::dispatch::EngineDispatch;
use crate::{AtomEngine, LogTmAtomEngine, NpEngine, SdTmEngine, SoEngine};

/// The name of a registered engine — the sole identity scenario specs,
/// matrices and reports refer to engines by.
///
/// Canonical ids are lowercase kebab-case: the six designs register under
/// [`DesignKind::id`] ("so", "sdtm", "atom", "logtm-atom", "dhtm", "np"),
/// built-in DHTM variants under "dhtm-instant", "dhtm-word" and
/// "dhtm-no-overflow".
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

/// How a design makes transactions durable — capability metadata used by
/// reports and by the crash subsystem's expectations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LogDiscipline {
    /// No durability log (the volatile NP upper bound).
    None,
    /// Software redo logging (Mnemosyne-like).
    SoftwareRedo,
    /// Hardware redo logging (DHTM).
    HardwareRedo,
    /// Hardware undo logging (ATOM, LogTM-ATOM).
    HardwareUndo,
}

impl fmt::Display for LogDiscipline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LogDiscipline::None => "none",
            LogDiscipline::SoftwareRedo => "software-redo",
            LogDiscipline::HardwareRedo => "hardware-redo",
            LogDiscipline::HardwareUndo => "hardware-undo",
        };
        f.write_str(s)
    }
}

/// Metadata describing one registered engine: its identity, the labels the
/// tables print, and its durability capabilities.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineInfo {
    /// Registry id ("dhtm", "dhtm-instant", ...).
    pub id: EngineId,
    /// Short label used in result rows and tables ("DHTM", "DHTM-instant").
    pub label: String,
    /// One-line human description.
    pub description: String,
    /// The underlying design the built engine reports via
    /// [`TxEngine::design`] — variants keep their base design's kind, which
    /// is what the recovery oracles key on.
    pub design: DesignKind,
    /// Whether the engine provides atomic durability.
    pub durable: bool,
    /// How durability is achieved.
    pub log: LogDiscipline,
    /// Whether the engine has a software fallback path after exhausting
    /// hardware retries.
    pub has_fallback: bool,
}

impl EngineInfo {
    /// Metadata for one of the six evaluated designs under its canonical id.
    pub fn for_design(design: DesignKind) -> Self {
        let (description, log, has_fallback) = match design {
            DesignKind::SoftwareOnly => (
                "locks + Mnemosyne-style software redo logging (normalisation baseline)",
                LogDiscipline::SoftwareRedo,
                false,
            ),
            DesignKind::SdTm => (
                "RTM-like HTM with software logging inside the transaction (PHyTM-like)",
                LogDiscipline::SoftwareRedo,
                true,
            ),
            DesignKind::Atom => (
                "locks + hardware undo logging, data flushed in place at commit",
                LogDiscipline::HardwareUndo,
                false,
            ),
            DesignKind::LogTmAtom => (
                "LogTM-style eager HTM with NACK stalling + ATOM hardware undo logging",
                LogDiscipline::HardwareUndo,
                false,
            ),
            DesignKind::Dhtm => (
                "the paper's proposal: RTM-like HTM + hardware redo logging + LLC overflow",
                LogDiscipline::HardwareRedo,
                true,
            ),
            DesignKind::NonPersistent => (
                "volatile RTM-like HTM, no durability (upper bound)",
                LogDiscipline::None,
                true,
            ),
        };
        EngineInfo {
            id: design.into(),
            label: design.label().to_string(),
            description: description.to_string(),
            design,
            durable: design.is_durable(),
            log,
            has_fallback,
        }
    }
}

/// The factory function type: builds a fresh engine for a machine
/// configuration. Must be `Send + Sync` because matrix cells are sharded
/// across a worker pool.
///
/// Factories return [`EngineDispatch`] so the driver's hot loop dispatches
/// the built-in designs by `match` instead of vtable; out-of-tree factories
/// created with [`EngineFactory::new`] land in [`EngineDispatch::Custom`].
pub type BuildFn = dyn Fn(&SystemConfig) -> EngineDispatch + Send + Sync;

/// A named engine constructor plus its capability metadata. Cloning is
/// cheap (the builder is shared behind an [`Arc`]).
#[derive(Clone)]
pub struct EngineFactory {
    info: EngineInfo,
    build: Arc<BuildFn>,
}

impl EngineFactory {
    /// Creates a factory from metadata and a build function returning a
    /// boxed engine — the extension point for out-of-tree variants. The
    /// built engine rides in [`EngineDispatch::Custom`], i.e. it keeps
    /// virtual dispatch; only the closed built-in set gets the static path.
    pub fn new(
        info: EngineInfo,
        build: impl Fn(&SystemConfig) -> Box<dyn TxEngine> + Send + Sync + 'static,
    ) -> Self {
        EngineFactory {
            info,
            build: Arc::new(move |cfg| EngineDispatch::Custom(build(cfg))),
        }
    }

    /// Creates a factory that builds a specific [`EngineDispatch`] variant
    /// directly — how the built-in catalogue stays on the static-dispatch
    /// path.
    pub fn new_dispatch(
        info: EngineInfo,
        build: impl Fn(&SystemConfig) -> EngineDispatch + Send + Sync + 'static,
    ) -> Self {
        EngineFactory {
            info,
            build: Arc::new(build),
        }
    }

    /// The factory's metadata.
    pub fn info(&self) -> &EngineInfo {
        &self.info
    }

    /// The factory's registry id.
    pub fn id(&self) -> &EngineId {
        &self.info.id
    }

    /// Builds a fresh engine for `cfg`.
    pub fn build(&self, cfg: &SystemConfig) -> EngineDispatch {
        (self.build)(cfg)
    }
}

impl fmt::Debug for EngineFactory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EngineFactory")
            .field("info", &self.info)
            .finish_non_exhaustive()
    }
}

/// An ordered collection of named engine factories.
#[derive(Debug, Clone, Default)]
pub struct EngineRegistry {
    entries: Vec<EngineFactory>,
}

impl EngineRegistry {
    /// An empty registry.
    pub fn empty() -> Self {
        EngineRegistry::default()
    }

    /// The built-in catalogue: the six evaluated designs under their
    /// canonical ids plus the named DHTM variants used by the paper's
    /// ablations ("dhtm-instant", "dhtm-word", "dhtm-no-overflow").
    pub fn builtin() -> Self {
        let mut r = EngineRegistry::empty();
        let must = |res: Result<(), RegistryError>| res.expect("builtin ids are unique");
        must(r.register(EngineFactory::new_dispatch(
            EngineInfo::for_design(DesignKind::SoftwareOnly),
            |cfg| EngineDispatch::So(SoEngine::new(cfg)),
        )));
        must(r.register(EngineFactory::new_dispatch(
            EngineInfo::for_design(DesignKind::SdTm),
            |cfg| EngineDispatch::SdTm(SdTmEngine::new(cfg)),
        )));
        must(r.register(EngineFactory::new_dispatch(
            EngineInfo::for_design(DesignKind::Atom),
            |cfg| EngineDispatch::Atom(AtomEngine::new(cfg)),
        )));
        must(r.register(EngineFactory::new_dispatch(
            EngineInfo::for_design(DesignKind::LogTmAtom),
            |cfg| EngineDispatch::LogTmAtom(LogTmAtomEngine::new(cfg)),
        )));
        must(r.register(EngineFactory::new_dispatch(
            EngineInfo::for_design(DesignKind::Dhtm),
            |cfg| EngineDispatch::Dhtm(DhtmEngine::new(cfg)),
        )));
        must(r.register(EngineFactory::new_dispatch(
            EngineInfo::for_design(DesignKind::NonPersistent),
            |cfg| EngineDispatch::Np(NpEngine::new(cfg)),
        )));
        must(
            r.register(EngineFactory::new_dispatch(
                EngineInfo {
                    id: EngineId::new("dhtm-instant"),
                    label: "DHTM-instant".to_string(),
                    description:
                        "DHTM with instantaneous critical-path writes (Section VI-D ablation)"
                            .to_string(),
                    ..EngineInfo::for_design(DesignKind::Dhtm)
                },
                |cfg| {
                    EngineDispatch::Dhtm(DhtmEngine::with_options(
                        cfg,
                        DhtmOptions::instant_writes(),
                    ))
                },
            )),
        );
        must(r.register(EngineFactory::new_dispatch(
            EngineInfo {
                id: EngineId::new("dhtm-word"),
                label: "DHTM-word".to_string(),
                description:
                    "DHTM with word-granular logging, no coalescing (Figure 2b)".to_string(),
                ..EngineInfo::for_design(DesignKind::Dhtm)
            },
            |cfg| EngineDispatch::Dhtm(DhtmEngine::with_options(cfg, DhtmOptions::word_granular())),
        )));
        must(r.register(EngineFactory::new_dispatch(
            EngineInfo {
                id: EngineId::new("dhtm-no-overflow"),
                label: "DHTM-noovf".to_string(),
                description: "L1-limited DHTM: write-set overflow to the LLC disabled".to_string(),
                ..EngineInfo::for_design(DesignKind::Dhtm)
            },
            |cfg| {
                EngineDispatch::Dhtm(DhtmEngine::with_options(
                    cfg,
                    DhtmOptions::without_overflow(),
                ))
            },
        )));
        r
    }

    /// Registers a factory.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::DuplicateId`] if the id is already taken —
    /// silently shadowing an engine would corrupt result labelling — and
    /// [`RegistryError::InvalidId`] if the id is not a well-formed engine
    /// name. Ids end up verbatim inside spec files, content hashes and
    /// report columns, so they are restricted to non-empty
    /// `[A-Za-z0-9._-]` (no quotes, whitespace, `#` or escapes that would
    /// break the TOML/JSON round-trip contract).
    pub fn register(&mut self, factory: EngineFactory) -> Result<(), RegistryError> {
        let id = factory.id();
        let well_formed = !id.as_str().is_empty()
            && id
                .as_str()
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'));
        if !well_formed {
            return Err(RegistryError::InvalidId(id.clone()));
        }
        if self.get(id).is_some() {
            return Err(RegistryError::DuplicateId(id.clone()));
        }
        self.entries.push(factory);
        Ok(())
    }

    /// Looks up a factory by id.
    pub fn get(&self, id: &EngineId) -> Option<&EngineFactory> {
        self.entries.iter().find(|e| e.id() == id)
    }

    /// Builds an engine by id.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::UnknownEngine`] naming the id and listing
    /// what is registered.
    pub fn build(
        &self,
        id: &EngineId,
        cfg: &SystemConfig,
    ) -> Result<EngineDispatch, RegistryError> {
        self.get(id)
            .map(|f| f.build(cfg))
            .ok_or_else(|| RegistryError::UnknownEngine(id.clone()))
    }

    /// Iterates over the registered factories in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &EngineFactory> {
        self.entries.iter()
    }

    /// Iterates the registered ids in registration order, borrowing — the
    /// form for hot or per-cell paths; [`EngineRegistry::ids`] is the
    /// allocating convenience for tests and one-shot reports.
    pub fn ids_iter(&self) -> impl Iterator<Item = &EngineId> {
        self.entries.iter().map(|e| e.id())
    }

    /// The registered ids, in registration order. Allocates (a `Vec` and a
    /// `String` clone per id): fine for report headers and tests, wrong in
    /// a loop — iterate [`EngineRegistry::ids_iter`] there instead.
    pub fn ids(&self) -> Vec<EngineId> {
        self.ids_iter().cloned().collect()
    }

    /// Number of registered engines.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Errors from registry operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// An engine with this id is already registered.
    DuplicateId(EngineId),
    /// No engine with this id is registered.
    UnknownEngine(EngineId),
    /// The id contains characters outside `[A-Za-z0-9._-]` (or is empty)
    /// and would break spec serialisation.
    InvalidId(EngineId),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::DuplicateId(id) => {
                write!(f, "engine '{id}' is already registered")
            }
            RegistryError::UnknownEngine(id) => {
                write!(f, "no engine '{id}' is registered")
            }
            RegistryError::InvalidId(id) => {
                write!(
                    f,
                    "invalid engine id '{id}': ids must be non-empty [A-Za-z0-9._-]"
                )
            }
        }
    }
}

impl std::error::Error for RegistryError {}

fn global_lock() -> &'static RwLock<EngineRegistry> {
    static GLOBAL: OnceLock<RwLock<EngineRegistry>> = OnceLock::new();
    GLOBAL.get_or_init(|| RwLock::new(EngineRegistry::builtin()))
}

/// Registers a factory in the process-wide registry every harness and crash
/// entry point resolves through — the public extension point for
/// out-of-tree engine variants.
///
/// # Errors
///
/// Returns [`RegistryError::DuplicateId`] if the id is taken.
pub fn register_global(factory: EngineFactory) -> Result<(), RegistryError> {
    global_lock()
        .write()
        .expect("engine registry poisoned")
        .register(factory)
}

/// Resolves an id against the process-wide registry. The returned factory
/// is a cheap clone and stays valid regardless of later registrations.
pub fn resolve(id: &EngineId) -> Option<EngineFactory> {
    global_lock()
        .read()
        .expect("engine registry poisoned")
        .get(id)
        .cloned()
}

/// Snapshot of the process-wide registry (builtin entries plus everything
/// registered via [`register_global`] so far).
pub fn global_snapshot() -> EngineRegistry {
    global_lock()
        .read()
        .expect("engine registry poisoned")
        .clone()
}

/// The table label for an engine id: the registered label, or the raw id
/// for unregistered engines (reports should never panic over a name).
///
/// Clones one `String` under the registry read lock — it no longer clones
/// the whole factory on the way (the old `resolve(id)` detour). Still a
/// per-call allocation, so report rows should cache the result rather than
/// call this per event.
pub fn label_of(id: &EngineId) -> String {
    global_lock()
        .read()
        .expect("engine registry poisoned")
        .get(id)
        .map_or_else(|| id.to_string(), |f| f.info().label.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_covers_every_design_under_its_canonical_id() {
        let r = EngineRegistry::builtin();
        let cfg = SystemConfig::small_test();
        for design in DesignKind::ALL {
            let id = EngineId::from(design);
            let f = r.get(&id).expect("design registered");
            assert_eq!(f.info().design, design);
            assert_eq!(f.info().label, design.label());
            assert_eq!(f.info().durable, design.is_durable());
            assert_eq!(f.build(&cfg).design(), design);
        }
        assert_eq!(r.len(), DesignKind::ALL.len() + 3, "three DHTM variants");
    }

    #[test]
    fn variants_report_their_base_design() {
        let r = EngineRegistry::builtin();
        let cfg = SystemConfig::small_test();
        for name in ["dhtm-instant", "dhtm-word", "dhtm-no-overflow"] {
            let f = r.get(&EngineId::new(name)).expect("variant registered");
            assert_eq!(f.info().design, DesignKind::Dhtm);
            assert_eq!(f.build(&cfg).design(), DesignKind::Dhtm);
            assert_ne!(f.info().label, "DHTM", "variants need distinct labels");
        }
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let mut r = EngineRegistry::builtin();
        let err = r
            .register(EngineFactory::new(
                EngineInfo::for_design(DesignKind::Dhtm),
                |cfg| Box::new(DhtmEngine::new(cfg)),
            ))
            .unwrap_err();
        assert_eq!(err, RegistryError::DuplicateId(DesignKind::Dhtm.into()));
    }

    #[test]
    fn malformed_ids_are_rejected_at_registration() {
        // Ids land verbatim in TOML/JSON spec files; quotes, spaces and
        // comment characters would break the round-trip contract.
        for bad in ["", "dhtm \"v2\"", "dhtm v2", "dhtm#4", "dhtm\\x"] {
            let mut r = EngineRegistry::empty();
            let err = r
                .register(EngineFactory::new(
                    EngineInfo {
                        id: EngineId::new(bad),
                        ..EngineInfo::for_design(DesignKind::Dhtm)
                    },
                    |cfg| Box::new(DhtmEngine::new(cfg)),
                ))
                .unwrap_err();
            assert!(matches!(err, RegistryError::InvalidId(_)), "{bad:?}");
        }
    }

    #[test]
    fn unknown_engine_errors_and_label_falls_back_to_id() {
        let r = EngineRegistry::builtin();
        let ghost = EngineId::new("ghost");
        assert!(matches!(
            r.build(&ghost, &SystemConfig::small_test()),
            Err(RegistryError::UnknownEngine(_))
        ));
        assert_eq!(label_of(&ghost), "ghost");
        assert_eq!(label_of(&DesignKind::Dhtm.into()), "DHTM");
    }

    #[test]
    fn global_registration_is_visible_to_resolution() {
        let id = EngineId::new("so-test-variant");
        register_global(EngineFactory::new(
            EngineInfo {
                id: id.clone(),
                label: "SO*".to_string(),
                description: "test variant".to_string(),
                ..EngineInfo::for_design(DesignKind::SoftwareOnly)
            },
            |cfg| Box::new(SoEngine::new(cfg)),
        ))
        .unwrap();
        let f = resolve(&id).expect("globally visible");
        assert_eq!(f.info().label, "SO*");
        assert_eq!(
            f.build(&SystemConfig::small_test()).design(),
            DesignKind::SoftwareOnly
        );
        // Re-registering the same id must fail.
        assert!(register_global(EngineFactory::new(
            EngineInfo {
                id: id.clone(),
                label: "SO**".to_string(),
                description: String::new(),
                ..EngineInfo::for_design(DesignKind::SoftwareOnly)
            },
            |cfg| Box::new(SoEngine::new(cfg)),
        ))
        .is_err());
    }

    #[test]
    fn factories_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EngineFactory>();
        assert_send_sync::<EngineRegistry>();
    }
}
