//! Named probes: monotonic counters and power-of-two cycle histograms.
//!
//! Probe names are slash-separated paths — `scope/component/metric`, e.g.
//! `channel/busy_cycles` or `core3/l1/hits`. The registry is a plain
//! `BTreeMap`, so iteration (and therefore every serialised form) is in
//! deterministic name order. It is filled *after* a run from the
//! components' own always-on integer counters; nothing on the simulation
//! hot path ever touches a registry.

use std::collections::BTreeMap;

/// Number of histogram buckets: one for the value 0 plus one per possible
/// bit length of a `u64`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A histogram with power-of-two bucket boundaries.
///
/// Bucket 0 holds the value 0; bucket `i` (1..=64) holds values in
/// `[2^(i-1), 2^i)`. Recording is one `leading_zeros` plus an indexed add,
/// cheap enough to live in cold per-transaction paths (log-buffer drains,
/// commit persist waits). The histogram also tracks count, sum and max so
/// summaries never need a bucket walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PowHistogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for PowHistogram {
    fn default() -> Self {
        PowHistogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl PowHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index a value falls into.
    #[inline]
    pub fn bucket_of(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// The half-open value range `[lo, hi)` covered by bucket `index`
    /// (`hi` is `u64::MAX` for the last bucket, whose true bound does not
    /// fit the type).
    pub fn bucket_bounds(index: usize) -> (u64, u64) {
        match index {
            0 => (0, 1),
            64 => (1 << 63, u64::MAX),
            i => (1 << (i - 1), 1 << i),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation; 0.0 when empty (never NaN).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The non-empty buckets as `(lower_bound, count)` pairs in ascending
    /// value order.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_bounds(i).0, c))
    }

    /// Adds every observation of `other` into `self`.
    pub fn merge(&mut self, other: &PowHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

/// One registered probe value.
#[derive(Debug, Clone, PartialEq)]
pub enum ProbeValue {
    /// A monotonic counter (or a high-water mark, which is monotonic too).
    Counter(u64),
    /// A power-of-two-bucket histogram (boxed: the inline bucket array
    /// would otherwise dwarf the `Counter` variant).
    Histogram(Box<PowHistogram>),
}

impl ProbeValue {
    /// The counter value, or `None` for a histogram.
    pub fn as_counter(&self) -> Option<u64> {
        match self {
            ProbeValue::Counter(v) => Some(*v),
            ProbeValue::Histogram(_) => None,
        }
    }

    /// The histogram, or `None` for a counter.
    pub fn as_histogram(&self) -> Option<&PowHistogram> {
        match self {
            ProbeValue::Counter(_) => None,
            ProbeValue::Histogram(h) => Some(h),
        }
    }
}

/// A registry of named probes with per-core/per-component scoped names.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProbeRegistry {
    entries: BTreeMap<String, ProbeValue>,
}

impl ProbeRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the counter `name`, creating it at 0 first.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a histogram.
    pub fn add(&mut self, name: &str, delta: u64) {
        match self
            .entries
            .entry(name.to_string())
            .or_insert(ProbeValue::Counter(0))
        {
            ProbeValue::Counter(v) => *v += delta,
            ProbeValue::Histogram(_) => panic!("probe '{name}' is a histogram, not a counter"),
        }
    }

    /// Sets the counter `name` to `value` (for high-water marks and other
    /// values that are computed rather than accumulated).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a histogram.
    pub fn set(&mut self, name: &str, value: u64) {
        match self
            .entries
            .entry(name.to_string())
            .or_insert(ProbeValue::Counter(0))
        {
            ProbeValue::Counter(v) => *v = value,
            ProbeValue::Histogram(_) => panic!("probe '{name}' is a histogram, not a counter"),
        }
    }

    /// Records one observation into the histogram `name`, creating it
    /// empty first.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a counter.
    pub fn record(&mut self, name: &str, value: u64) {
        match self
            .entries
            .entry(name.to_string())
            .or_insert_with(|| ProbeValue::Histogram(Box::default()))
        {
            ProbeValue::Histogram(h) => h.record(value),
            ProbeValue::Counter(_) => panic!("probe '{name}' is a counter, not a histogram"),
        }
    }

    /// Merges a component-owned histogram into the histogram `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a counter.
    pub fn merge_histogram(&mut self, name: &str, hist: &PowHistogram) {
        match self
            .entries
            .entry(name.to_string())
            .or_insert_with(|| ProbeValue::Histogram(Box::default()))
        {
            ProbeValue::Histogram(h) => h.merge(hist),
            ProbeValue::Counter(_) => panic!("probe '{name}' is a counter, not a histogram"),
        }
    }

    /// Looks up a probe by name.
    pub fn get(&self, name: &str) -> Option<&ProbeValue> {
        self.entries.get(name)
    }

    /// The counter `name`, or 0 when absent (histograms read as 0 too).
    pub fn counter(&self, name: &str) -> u64 {
        self.get(name).and_then(ProbeValue::as_counter).unwrap_or(0)
    }

    /// Iterates `(name, value)` in deterministic (sorted) name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &ProbeValue)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of registered probes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no probe has been registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Flattens every probe to `(name, u64)` pairs in sorted name order:
    /// counters verbatim, histograms as `name/count`, `name/sum` and
    /// `name/max`. This is the form result rows and trace events carry.
    pub fn flatten(&self) -> Vec<(String, u64)> {
        let mut out = Vec::with_capacity(self.entries.len());
        for (name, value) in &self.entries {
            match value {
                ProbeValue::Counter(v) => out.push((name.clone(), *v)),
                ProbeValue::Histogram(h) => {
                    out.push((format!("{name}/count"), h.count()));
                    out.push((format!("{name}/sum"), h.sum()));
                    out.push((format!("{name}/max"), h.max()));
                }
            }
        }
        out
    }
}

/// Builds a scoped probe name: `scope("core3", "l1", "hits")` →
/// `"core3/l1/hits"`. Collection-time only — never on the hot path.
pub fn scope(parts: &[&str]) -> String {
    parts.join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_bit_length() {
        assert_eq!(PowHistogram::bucket_of(0), 0);
        assert_eq!(PowHistogram::bucket_of(1), 1);
        assert_eq!(PowHistogram::bucket_of(2), 2);
        assert_eq!(PowHistogram::bucket_of(3), 2);
        assert_eq!(PowHistogram::bucket_of(4), 3);
        assert_eq!(PowHistogram::bucket_of(1023), 10);
        assert_eq!(PowHistogram::bucket_of(1024), 11);
        assert_eq!(PowHistogram::bucket_of(u64::MAX), 64);
        // Bounds agree with the bucketing function.
        for v in [0u64, 1, 2, 3, 7, 8, 1 << 20, u64::MAX - 1] {
            let (lo, hi) = PowHistogram::bucket_bounds(PowHistogram::bucket_of(v));
            assert!(lo <= v && (v < hi || hi == u64::MAX), "{v} in [{lo},{hi})");
        }
    }

    #[test]
    fn histogram_summary_statistics() {
        let mut h = PowHistogram::new();
        for v in [0u64, 1, 5, 10, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 116);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 23.2).abs() < 1e-9);
        let buckets: Vec<_> = h.nonzero_buckets().collect();
        assert_eq!(buckets, vec![(0, 1), (1, 1), (4, 1), (8, 1), (64, 1)]);
        assert_eq!(PowHistogram::new().mean(), 0.0);
    }

    #[test]
    fn histogram_merge_equals_recording_both_streams() {
        let mut early = PowHistogram::new();
        early.record(3);
        early.record(40);
        let mut rest = PowHistogram::new();
        rest.record(500);
        rest.record(0);
        let mut all = early.clone();
        all.record(500);
        all.record(0);
        let mut merged = early.clone();
        merged.merge(&rest);
        assert_eq!(merged, all);
        assert_eq!(merged.count(), 4);
        assert_eq!(merged.sum(), 543);
        assert_eq!(merged.max(), 500);
    }

    #[test]
    fn registry_counters_accumulate_and_flatten_sorted() {
        let mut reg = ProbeRegistry::new();
        reg.add("core1/l1/hits", 2);
        reg.add("channel/busy_cycles", 10);
        reg.add("core1/l1/hits", 3);
        reg.set("core0/log_buffer/peak", 7);
        assert_eq!(reg.counter("core1/l1/hits"), 5);
        assert_eq!(reg.counter("missing"), 0);
        let flat = reg.flatten();
        let names: Vec<&str> = flat.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "channel/busy_cycles",
                "core0/log_buffer/peak",
                "core1/l1/hits"
            ]
        );
        assert!(!reg.is_empty());
        assert_eq!(reg.len(), 3);
    }

    #[test]
    fn registry_histograms_flatten_to_summary_fields() {
        let mut reg = ProbeRegistry::new();
        reg.record("log_buffer/drain_cycles", 12);
        reg.record("log_buffer/drain_cycles", 20);
        let flat = reg.flatten();
        assert_eq!(
            flat,
            vec![
                ("log_buffer/drain_cycles/count".to_string(), 2),
                ("log_buffer/drain_cycles/sum".to_string(), 32),
                ("log_buffer/drain_cycles/max".to_string(), 20),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "is a histogram")]
    fn counter_histogram_name_clash_panics() {
        let mut reg = ProbeRegistry::new();
        reg.record("x", 1);
        reg.add("x", 1);
    }

    #[test]
    fn scope_joins_with_slashes() {
        assert_eq!(scope(&["core3", "l1", "hits"]), "core3/l1/hits");
    }
}
