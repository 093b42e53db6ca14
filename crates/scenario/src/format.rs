//! The canonical TOML form of a [`SimSpec`].
//!
//! The container this repository builds in has no crates registry, so the
//! (de)serialiser is hand-rolled for exactly the spec grammar — a flat
//! table of scalars plus one optional `[config]` overlay table — and are
//! strict: unknown keys, sections or malformed values are errors, never
//! silently ignored (a typo'd overlay key must not silently run the
//! default machine).
//!
//! The writer emits fields in one canonical order with `None` overlay fields
//! omitted, so the emitted text doubles as the spec's content-hash input.

use dhtm_baselines::registry::EngineId;
use dhtm_types::config::{BaseConfig, ConfigOverlay};
use dhtm_types::policy::ConflictPolicy;

use crate::spec::{SimSpec, SpecError, SpecLimits};

// ---------------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------------

/// Overlay fields as (key, rendered value) pairs, canonical order, set
/// fields only.
fn overlay_fields(o: &ConfigOverlay) -> Vec<(&'static str, String)> {
    let mut fields = Vec::new();
    if let Some(v) = o.num_cores {
        fields.push(("num_cores", v.to_string()));
    }
    if let Some(v) = o.log_buffer_entries {
        fields.push(("log_buffer_entries", v.to_string()));
    }
    if let Some(v) = o.bandwidth_multiplier {
        // {:?} prints the shortest representation that round-trips to the
        // same f64 (e.g. "2.0", "0.1"), which keeps hashes and parses exact.
        fields.push(("bandwidth_multiplier", format!("{v:?}")));
    }
    if let Some(v) = o.conflict_policy {
        fields.push(("conflict_policy", format!("\"{v}\"")));
    }
    if let Some(v) = o.max_htm_retries {
        fields.push(("max_htm_retries", v.to_string()));
    }
    if let Some(v) = o.mshrs {
        fields.push(("mshrs", v.to_string()));
    }
    if let Some(v) = o.read_signature_bits {
        fields.push(("read_signature_bits", v.to_string()));
    }
    if let Some(v) = o.llc_capacity_bytes {
        fields.push(("llc_capacity_bytes", v.to_string()));
    }
    if let Some(v) = o.llc_ways {
        fields.push(("llc_ways", v.to_string()));
    }
    fields
}

/// Serialises a spec to canonical TOML.
pub fn to_toml(spec: &SimSpec) -> String {
    let mut out = String::new();
    out.push_str(&format!("engine = \"{}\"\n", spec.engine));
    out.push_str(&format!("workload = \"{}\"\n", spec.workload));
    out.push_str(&format!("base_config = \"{}\"\n", spec.base));
    out.push_str(&format!("seed = {}\n", spec.seed));
    out.push_str(&format!("commits = {}\n", spec.limits.target_commits));
    out.push_str(&format!("max_cycles = {}\n", spec.limits.max_cycles));
    let overlay = overlay_fields(&spec.overlay);
    if !overlay.is_empty() {
        out.push_str("\n[config]\n");
        for (key, value) in overlay {
            out.push_str(&format!("{key} = {value}\n"));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Field assembly
// ---------------------------------------------------------------------------

/// One parsed scalar value.
#[derive(Debug, Clone, PartialEq)]
enum Scalar {
    Str(String),
    Int(u64),
    Float(f64),
}

impl Scalar {
    fn type_name(&self) -> &'static str {
        match self {
            Scalar::Str(_) => "string",
            Scalar::Int(_) => "integer",
            Scalar::Float(_) => "float",
        }
    }

    fn as_str(&self, key: &str) -> Result<&str, SpecError> {
        match self {
            Scalar::Str(s) => Ok(s),
            other => Err(SpecError::Parse(format!(
                "{key} must be a string, got {}",
                other.type_name()
            ))),
        }
    }

    fn as_u64(&self, key: &str) -> Result<u64, SpecError> {
        match self {
            Scalar::Int(n) => Ok(*n),
            other => Err(SpecError::Parse(format!(
                "{key} must be an integer, got {}",
                other.type_name()
            ))),
        }
    }

    fn as_usize(&self, key: &str) -> Result<usize, SpecError> {
        usize::try_from(self.as_u64(key)?)
            .map_err(|_| SpecError::Parse(format!("{key} out of range")))
    }

    fn as_f64(&self, key: &str) -> Result<f64, SpecError> {
        match self {
            Scalar::Float(v) => Ok(*v),
            Scalar::Int(n) => Ok(*n as f64),
            other => Err(SpecError::Parse(format!(
                "{key} must be a number, got {}",
                other.type_name()
            ))),
        }
    }
}

/// Builds a [`SimSpec`] from parsed `(section, key, value)` triples.
/// `section` is `None` for top-level keys, `Some("config")` for overlay
/// keys.
fn assemble(fields: Vec<(Option<String>, String, Scalar)>) -> Result<SimSpec, SpecError> {
    let mut engine: Option<EngineId> = None;
    let mut workload: Option<String> = None;
    let mut base = BaseConfig::Isca18;
    let mut overlay = ConfigOverlay::none();
    let mut limits = SpecLimits::default();
    let mut seed = crate::DEFAULT_SEED;

    for (section, key, value) in fields {
        match (section.as_deref(), key.as_str()) {
            (None, "engine") => engine = Some(EngineId::new(value.as_str("engine")?)),
            (None, "workload") => workload = Some(value.as_str("workload")?.to_string()),
            (None, "base_config") => {
                base = value
                    .as_str("base_config")?
                    .parse()
                    .map_err(SpecError::Parse)?;
            }
            (None, "seed") => seed = value.as_u64("seed")?,
            (None, "commits") => limits.target_commits = value.as_u64("commits")?,
            (None, "max_cycles") => limits.max_cycles = value.as_u64("max_cycles")?,
            (Some("config"), "num_cores") => {
                overlay.num_cores = Some(value.as_usize("num_cores")?);
            }
            (Some("config"), "log_buffer_entries") => {
                overlay.log_buffer_entries = Some(value.as_usize("log_buffer_entries")?);
            }
            (Some("config"), "bandwidth_multiplier") => {
                overlay.bandwidth_multiplier = Some(value.as_f64("bandwidth_multiplier")?);
            }
            (Some("config"), "conflict_policy") => {
                let p: ConflictPolicy = value
                    .as_str("conflict_policy")?
                    .parse()
                    .map_err(SpecError::Parse)?;
                overlay.conflict_policy = Some(p);
            }
            (Some("config"), "max_htm_retries") => {
                overlay.max_htm_retries = Some(value.as_usize("max_htm_retries")?);
            }
            (Some("config"), "mshrs") => overlay.mshrs = Some(value.as_usize("mshrs")?),
            (Some("config"), "read_signature_bits") => {
                overlay.read_signature_bits = Some(value.as_usize("read_signature_bits")?);
            }
            (Some("config"), "llc_capacity_bytes") => {
                overlay.llc_capacity_bytes = Some(value.as_usize("llc_capacity_bytes")?);
            }
            (Some("config"), "llc_ways") => {
                overlay.llc_ways = Some(value.as_usize("llc_ways")?);
            }
            (section, key) => {
                let place = section.map_or_else(String::new, |s| format!(" in [{s}]"));
                return Err(SpecError::Parse(format!("unknown key '{key}'{place}")));
            }
        }
    }

    let engine = engine.ok_or_else(|| SpecError::Parse("missing required key 'engine'".into()))?;
    let workload =
        workload.ok_or_else(|| SpecError::Parse("missing required key 'workload'".into()))?;
    Ok(SimSpec {
        engine,
        workload,
        base,
        overlay,
        limits,
        seed,
    })
}

/// Parses one scalar literal: `"string"`, integer or float.
fn parse_scalar(raw: &str) -> Result<Scalar, SpecError> {
    let raw = raw.trim();
    if let Some(rest) = raw.strip_prefix('"') {
        let Some(inner) = rest.strip_suffix('"') else {
            return Err(SpecError::Parse(format!("unterminated string {raw}")));
        };
        if inner.contains('"') || inner.contains('\\') {
            return Err(SpecError::Parse(format!(
                "escapes are not supported in spec strings: {raw}"
            )));
        }
        return Ok(Scalar::Str(inner.to_string()));
    }
    if raw.contains('.') || raw.contains('e') || raw.contains('E') {
        return raw
            .parse::<f64>()
            .map(Scalar::Float)
            .map_err(|_| SpecError::Parse(format!("malformed number '{raw}'")));
    }
    raw.parse::<u64>()
        .map(Scalar::Int)
        .map_err(|_| SpecError::Parse(format!("malformed value '{raw}'")))
}

// ---------------------------------------------------------------------------
// TOML parser
// ---------------------------------------------------------------------------

/// Parses the spec's TOML subset: `key = value` lines, one optional
/// `[config]` section, `#` comments.
pub fn from_toml(input: &str) -> Result<SimSpec, SpecError> {
    let mut section: Option<String> = None;
    let mut fields = Vec::new();
    for (lineno, raw_line) in input.lines().enumerate() {
        let line = match raw_line.find('#') {
            // A '#' inside a quoted value is content, not a comment.
            Some(pos) if raw_line[..pos].matches('"').count() % 2 == 0 => &raw_line[..pos],
            _ => raw_line,
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let err = |msg: String| SpecError::Parse(format!("line {}: {msg}", lineno + 1));
        if let Some(name) = line.strip_prefix('[') {
            let Some(name) = name.strip_suffix(']') else {
                return Err(err(format!("malformed section header '{line}'")));
            };
            if name != "config" {
                return Err(err(format!("unknown section [{name}] (only [config])")));
            }
            section = Some(name.to_string());
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(err(format!("expected 'key = value', got '{line}'")));
        };
        let scalar = parse_scalar(value).map_err(|e| match e {
            SpecError::Parse(msg) => err(msg),
            other => other,
        })?;
        fields.push((section.clone(), key.trim().to_string(), scalar));
    }
    assemble(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhtm_types::policy::DesignKind;

    fn rich_spec() -> SimSpec {
        SimSpec::builder(DesignKind::Dhtm, "tatp")
            .base(BaseConfig::Small)
            .overlay(ConfigOverlay {
                num_cores: Some(2),
                log_buffer_entries: Some(16),
                bandwidth_multiplier: Some(2.5),
                conflict_policy: Some(ConflictPolicy::RequesterWins),
                max_htm_retries: Some(4),
                mshrs: Some(16),
                read_signature_bits: Some(512),
                llc_capacity_bytes: Some(64 * 1024),
                llc_ways: Some(4),
            })
            .commits(9)
            .max_cycles(123_456_789)
            .seed(0xDEAD_BEEF)
            .build()
            .unwrap()
    }

    #[test]
    fn toml_round_trips_a_rich_spec() {
        let spec = rich_spec();
        let text = to_toml(&spec);
        assert_eq!(SimSpec::from_toml(&text).unwrap(), spec);
    }

    #[test]
    fn minimal_spec_round_trips_with_defaults() {
        let spec = SimSpec::builder("so", "hash").build_unchecked();
        assert_eq!(SimSpec::from_toml(&to_toml(&spec)).unwrap(), spec);
        // A hand-written two-line file is enough.
        let parsed = SimSpec::from_toml("engine = \"so\"\nworkload = \"hash\"\n").unwrap();
        assert_eq!(parsed, spec);
    }

    #[test]
    fn toml_comments_and_whitespace_are_tolerated() {
        let text = "\n# a spec\nengine = \"dhtm\"  # the proposal\n\nworkload = \"queue\"\n\n[config]\nnum_cores = 2\n";
        let spec = SimSpec::from_toml(text).unwrap();
        assert_eq!(spec.engine.as_str(), "dhtm");
        assert_eq!(spec.workload, "queue");
        assert_eq!(spec.overlay.num_cores, Some(2));
    }

    #[test]
    fn unknown_keys_and_sections_are_rejected() {
        assert!(SimSpec::from_toml("engine = \"so\"\nworkload = \"hash\"\nwarp = 9\n").is_err());
        assert!(SimSpec::from_toml("[turbo]\n").is_err());
        assert!(SimSpec::from_toml(
            "engine = \"so\"\nworkload = \"hash\"\n[config]\nlog_bufer_entries = 4\n"
        )
        .is_err());
        // Spec files are TOML only: any other extension is rejected before
        // the file is read.
        assert!(matches!(
            SimSpec::load(std::path::Path::new("spec.json")),
            Err(SpecError::Parse(msg)) if msg.contains("unsupported spec extension")
        ));
    }

    #[test]
    fn missing_required_keys_are_rejected() {
        assert!(matches!(
            SimSpec::from_toml("workload = \"hash\"\n"),
            Err(SpecError::Parse(msg)) if msg.contains("engine")
        ));
        assert!(matches!(
            SimSpec::from_toml("engine = \"so\"\n"),
            Err(SpecError::Parse(msg)) if msg.contains("workload")
        ));
    }

    #[test]
    fn malformed_values_are_rejected() {
        assert!(SimSpec::from_toml("engine = so\nworkload = \"hash\"\n").is_err());
        assert!(
            SimSpec::from_toml("engine = \"so\"\nworkload = \"hash\"\nseed = \"x\"\n").is_err()
        );
        assert!(SimSpec::from_toml(
            "engine = \"so\"\nworkload = \"hash\"\n[config]\nconflict_policy = \"dice\"\n"
        )
        .is_err());
    }

    #[test]
    fn float_rendering_round_trips_exactly() {
        for mult in [0.1, 1.0, 2.5, 10.0, 1.0 / 3.0] {
            let spec = SimSpec::builder("dhtm", "hash")
                .overlay(ConfigOverlay::none().with_bandwidth_multiplier(mult))
                .build_unchecked();
            let back = SimSpec::from_toml(&to_toml(&spec)).unwrap();
            assert_eq!(back.overlay.bandwidth_multiplier, Some(mult));
        }
    }
}
