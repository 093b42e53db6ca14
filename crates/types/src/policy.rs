//! Conflict-resolution policies and the catalogue of evaluated designs.

use std::fmt;

/// HTM conflict resolution policy (Section II-A of the paper).
///
/// When a coherence request from a transactional core reaches a line in
/// another core's read or write set, one of the two transactions must abort.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConflictPolicy {
    /// The requesting transaction wins and the current holder aborts
    /// (Intel RTM behaviour).
    RequesterWins,
    /// The transaction that first wrote the line wins and the requester
    /// aborts (IBM POWER8 behaviour; the paper's default).
    FirstWriterWins,
}

impl ConflictPolicy {
    /// Decides which side aborts for a conflict where the *holder* has the
    /// line in its write set.
    ///
    /// Returns `true` if the **requester** must abort, `false` if the
    /// **holder** must abort.
    pub fn requester_aborts_on_write_conflict(self) -> bool {
        match self {
            ConflictPolicy::RequesterWins => false,
            ConflictPolicy::FirstWriterWins => true,
        }
    }

    /// Decides which side aborts for a conflict where the holder only has the
    /// line in its read set and the requester wants to write it.
    ///
    /// Returns `true` if the requester must abort. Under both policies the
    /// writer (requester) wins a read-write conflict: under requester-wins by
    /// definition, and under first-writer-wins because the requester is the
    /// first *writer* of the line.
    pub fn requester_aborts_on_read_conflict(self) -> bool {
        false
    }
}

impl fmt::Display for ConflictPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConflictPolicy::RequesterWins => write!(f, "requester-wins"),
            ConflictPolicy::FirstWriterWins => write!(f, "first-writer-wins"),
        }
    }
}

impl std::str::FromStr for ConflictPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "requester-wins" => Ok(ConflictPolicy::RequesterWins),
            "first-writer-wins" => Ok(ConflictPolicy::FirstWriterWins),
            other => Err(format!(
                "unknown conflict policy '{other}' (requester-wins|first-writer-wins)"
            )),
        }
    }
}

/// The designs evaluated in Section V of the paper (plus the volatile NP
/// upper bound of Section VI-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DesignKind {
    /// Software only: locks for visibility, Mnemosyne-style software redo
    /// logging for durability. The normalisation baseline of every figure.
    SoftwareOnly,
    /// PHyTM-like: RTM HTM for visibility, software logging for durability
    /// (log writes inflate the HTM write set).
    SdTm,
    /// ATOM: locks for visibility, hardware undo logging for durability.
    Atom,
    /// LogTM-style HTM for visibility integrated with ATOM hardware undo
    /// logging for durability (novel combination studied by the paper).
    LogTmAtom,
    /// The paper's proposal: RTM-like HTM plus hardware redo logging and
    /// L1→LLC write-set overflow.
    Dhtm,
    /// Non-persistent volatile HTM (no durability), the upper bound of
    /// Section VI-D.
    NonPersistent,
}

impl DesignKind {
    /// All designs, in the order the paper's figures present them.
    pub const ALL: [DesignKind; 6] = [
        DesignKind::SoftwareOnly,
        DesignKind::SdTm,
        DesignKind::Atom,
        DesignKind::LogTmAtom,
        DesignKind::Dhtm,
        DesignKind::NonPersistent,
    ];

    /// Short label used in experiment output (matches the paper's labels).
    pub fn label(self) -> &'static str {
        match self {
            DesignKind::SoftwareOnly => "SO",
            DesignKind::SdTm => "sdTM",
            DesignKind::Atom => "ATOM",
            DesignKind::LogTmAtom => "LogTM-ATOM",
            DesignKind::Dhtm => "DHTM",
            DesignKind::NonPersistent => "NP",
        }
    }

    /// Whether the design provides atomic durability (all except NP).
    pub fn is_durable(self) -> bool {
        !matches!(self, DesignKind::NonPersistent)
    }

    /// Whether the design uses an HTM for atomic visibility.
    pub fn uses_htm(self) -> bool {
        matches!(
            self,
            DesignKind::SdTm | DesignKind::LogTmAtom | DesignKind::Dhtm | DesignKind::NonPersistent
        )
    }

    /// Whether durability is provided by hardware logging.
    pub fn hardware_durability(self) -> bool {
        matches!(
            self,
            DesignKind::Atom | DesignKind::LogTmAtom | DesignKind::Dhtm
        )
    }

    /// The canonical lowercase engine id of the design — its id in the
    /// engine table and the spelling scenario spec files use.
    pub fn id(self) -> &'static str {
        match self {
            DesignKind::SoftwareOnly => "so",
            DesignKind::SdTm => "sdtm",
            DesignKind::Atom => "atom",
            DesignKind::LogTmAtom => "logtm-atom",
            DesignKind::Dhtm => "dhtm",
            DesignKind::NonPersistent => "np",
        }
    }
}

impl fmt::Display for DesignKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for DesignKind {
    type Err = String;

    /// Parses either the canonical engine id ("dhtm") or the paper label
    /// ("DHTM").
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DesignKind::ALL
            .into_iter()
            .find(|d| d.id() == s || d.label() == s)
            .ok_or_else(|| format!("unknown design '{s}'"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_decisions_match_paper_descriptions() {
        // RTM requester-wins: the holder of the written line aborts.
        assert!(!ConflictPolicy::RequesterWins.requester_aborts_on_write_conflict());
        // POWER8 first-writer-wins: the requester aborts on a write conflict.
        assert!(ConflictPolicy::FirstWriterWins.requester_aborts_on_write_conflict());
        // A writer requesting a line that is only in a reader's read set wins
        // under both policies.
        assert!(!ConflictPolicy::RequesterWins.requester_aborts_on_read_conflict());
        assert!(!ConflictPolicy::FirstWriterWins.requester_aborts_on_read_conflict());
    }

    #[test]
    fn design_classification_matches_table_i() {
        use DesignKind::*;
        assert!(!SoftwareOnly.uses_htm());
        assert!(!Atom.uses_htm());
        assert!(SdTm.uses_htm());
        assert!(LogTmAtom.uses_htm());
        assert!(Dhtm.uses_htm());
        assert!(NonPersistent.uses_htm());

        assert!(!SoftwareOnly.hardware_durability());
        assert!(!SdTm.hardware_durability());
        assert!(Atom.hardware_durability());
        assert!(LogTmAtom.hardware_durability());
        assert!(Dhtm.hardware_durability());

        assert!(SoftwareOnly.is_durable());
        assert!(!NonPersistent.is_durable());
    }

    #[test]
    fn labels_are_unique_and_nonempty() {
        let labels: Vec<_> = DesignKind::ALL.iter().map(|d| d.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
        assert!(labels.iter().all(|l| !l.is_empty()));
    }

    #[test]
    fn display_matches_label() {
        for d in DesignKind::ALL {
            assert_eq!(format!("{d}"), d.label());
        }
    }

    #[test]
    fn ids_parse_back_to_the_design() {
        for d in DesignKind::ALL {
            assert_eq!(d.id().parse::<DesignKind>().unwrap(), d);
            assert_eq!(d.label().parse::<DesignKind>().unwrap(), d);
        }
        assert!("phytm".parse::<DesignKind>().is_err());
    }

    #[test]
    fn conflict_policy_parses_its_display_form() {
        for p in [
            ConflictPolicy::RequesterWins,
            ConflictPolicy::FirstWriterWins,
        ] {
            assert_eq!(format!("{p}").parse::<ConflictPolicy>().unwrap(), p);
        }
        assert!("coin-flip".parse::<ConflictPolicy>().is_err());
    }
}
