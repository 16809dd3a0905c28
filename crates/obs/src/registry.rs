//! The metrics registry: counters, gauges, and log-bucketed histograms,
//! with a deterministic Prometheus-style text exposition.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::stable_f64;

/// Number of histogram buckets. Bucket `i` covers
/// `(bound(i-1), bound(i)]` with `bound(i) = 2^(i - 26)` — from
/// ~1.5e-8 up to ~1.4e11, which spans sub-microsecond service times to
/// multi-day horizons when values are in milliseconds. The final bucket
/// is the overflow (`+Inf`) bucket.
pub const HIST_BUCKETS: usize = 64;

/// Exponent offset: `bound(i) = 2^(i - BUCKET_EXP_OFFSET)`.
const BUCKET_EXP_OFFSET: i32 = 26;

/// Fixed-point scale for histogram sums: values accumulate in units of
/// `2^-12`. Integer addition is exactly associative and commutative, so
/// parallel observation and merges in any order produce bit-identical
/// sums — the property the whole determinism contract leans on.
const SUM_FP_BITS: u32 = 12;

/// Upper bound of bucket `i` (a power of two, exact in `f64`).
fn bucket_bound(i: usize) -> f64 {
    f64::powi(2.0, i as i32 - BUCKET_EXP_OFFSET)
}

/// A mergeable log-bucketed histogram of nonnegative values.
///
/// Counts land in power-of-two buckets; the sum accumulates in
/// fixed-point (`2^-12` units), so [`Histogram::merge`] is
/// order-invariant and count-preserving bit-for-bit — there is a
/// proptest pinning exactly that. Negative observations clamp to 0;
/// non-finite observations are dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: [u64; HIST_BUCKETS],
    count: u64,
    sum_fp: u128,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; HIST_BUCKETS],
            count: 0,
            sum_fp: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation. Negative values clamp to 0; non-finite
    /// values are dropped.
    pub fn observe(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        let v = value.max(0.0);
        let idx = self.bucket_index(v);
        self.counts[idx] += 1;
        self.count += 1;
        // Round-to-nearest fixed-point; saturate rather than wrap on
        // absurd magnitudes (~3e29 ms before u128 strain at this scale).
        let fp = (v * f64::powi(2.0, SUM_FP_BITS as i32)).round();
        self.sum_fp = self.sum_fp.saturating_add(fp as u128);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    fn bucket_index(&self, v: f64) -> usize {
        // First bucket whose upper bound contains v; the last bucket is
        // the overflow. partition_point over exact powers of two is
        // deterministic for every input.
        (0..HIST_BUCKETS - 1)
            .position(|i| v <= bucket_bound(i))
            .unwrap_or(HIST_BUCKETS - 1)
    }

    /// Folds `other` into `self`. Exact: merging any permutation of
    /// parts yields bit-identical state.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum_fp = self.sum_fp.saturating_add(other.sum_fp);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Total observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (fixed-point, so deterministic; resolution
    /// `2^-12` per observation).
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum_fp as f64 / f64::powi(2.0, SUM_FP_BITS as i32)
    }

    /// Smallest observation (`None` when empty).
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Non-empty buckets as `(upper_bound, cumulative_count)` pairs.
    pub fn cumulative_buckets(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        let mut cum = 0;
        self.counts.iter().enumerate().filter_map(move |(i, &c)| {
            cum += c;
            (c > 0).then_some((bucket_bound(i), cum))
        })
    }
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, Histogram>,
}

/// A thread-safe collection of named counters, gauges, and histograms.
///
/// Counter and histogram updates commute, so totals are deterministic
/// regardless of thread interleaving; [`Registry::render_prometheus`]
/// renders sorted by name with `{:.17e}` floats, so the exposition of a
/// deterministic workload is byte-stable.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("registry lock poisoned")
    }

    /// Adds `by` to the named counter (created at 0).
    pub fn counter_add(&self, name: &str, by: u64) {
        let mut g = self.lock();
        match g.counters.get_mut(name) {
            Some(v) => *v += by,
            None => {
                g.counters.insert(name.to_string(), by);
            }
        }
    }

    /// Sets the named gauge.
    pub fn gauge_set(&self, name: &str, value: f64) {
        self.lock().gauges.insert(name.to_string(), value);
    }

    /// Records one observation into the named histogram.
    pub fn observe(&self, name: &str, value: f64) {
        let mut g = self.lock();
        match g.hists.get_mut(name) {
            Some(h) => h.observe(value),
            None => {
                let mut h = Histogram::new();
                h.observe(value);
                g.hists.insert(name.to_string(), h);
            }
        }
    }

    /// Current value of a counter (0 when absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.lock().gauges.get(name).copied()
    }

    /// Snapshot of a histogram.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.lock().hists.get(name).cloned()
    }

    /// Drops every metric (tests).
    pub fn clear(&self) {
        let mut g = self.lock();
        g.counters.clear();
        g.gauges.clear();
        g.hists.clear();
    }

    /// Renders the Prometheus-style text exposition: for each metric,
    /// sorted by name, a `# TYPE` line then the sample lines. Histograms
    /// render non-empty buckets as cumulative `_bucket{le="…"}` samples
    /// plus `_bucket{le="+Inf"}`, `_sum`, and `_count`. Floats are
    /// `{:.17e}`, so the exposition of a deterministic workload is
    /// byte-stable.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let g = self.lock();
        let mut out = String::new();
        for (name, v) in &g.counters {
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        for (name, v) in &g.gauges {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", stable_f64(*v)));
        }
        for (name, h) in &g.hists {
            out.push_str(&format!("# TYPE {name} histogram\n"));
            for (bound, cum) in h.cumulative_buckets() {
                out.push_str(&format!(
                    "{name}_bucket{{le=\"{}\"}} {cum}\n",
                    stable_f64(bound)
                ));
            }
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
            out.push_str(&format!("{name}_sum {}\n", stable_f64(h.sum())));
            out.push_str(&format!("{name}_count {}\n", h.count()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log_spaced_and_cover_extremes() {
        let mut h = Histogram::new();
        h.observe(0.0);
        h.observe(1e-12); // below the first bound → bucket 0
        h.observe(1.0);
        h.observe(3.0);
        h.observe(1e30); // overflow bucket
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), Some(0.0));
        assert_eq!(h.max(), Some(1e30));
        let buckets: Vec<_> = h.cumulative_buckets().collect();
        assert_eq!(buckets.last().unwrap().1, 5);
        // 1.0 lands in the bucket bounded by exactly 1.0 (2^0).
        assert!(buckets.iter().any(|&(b, _)| b == 1.0));
    }

    #[test]
    fn merge_is_exact() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for (i, v) in [0.5, 12.25, 700.0, 0.001, 3.5e6].iter().enumerate() {
            if i % 2 == 0 {
                a.observe(*v);
            } else {
                b.observe(*v);
            }
            whole.observe(*v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab, whole);
    }

    #[test]
    fn exposition_is_sorted_and_stable() {
        let r = Registry::new();
        r.counter_add("b_total", 2);
        r.counter_add("a_total", 1);
        r.gauge_set("g", 0.5);
        r.observe("h_ms", 3.0);
        let text = r.render_prometheus();
        let a = text.find("a_total").unwrap();
        let b = text.find("b_total").unwrap();
        assert!(a < b, "sorted by name");
        assert!(text.contains("# TYPE h_ms histogram"));
        assert!(text.contains("h_ms_count 1"));
        assert!(text.contains(&format!("g {}", stable_f64(0.5))));
        assert_eq!(text, r.render_prometheus());
    }
}
