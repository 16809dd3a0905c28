//! Streaming and sample statistics.

/// A streaming accumulator (Welford's algorithm): mean, variance, extrema —
/// constant memory, suitable for millions of observations.
///
/// # Examples
///
/// ```
/// use qp_des::Tally;
///
/// let mut t = Tally::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     t.add(x);
/// }
/// assert_eq!(t.mean(), 5.0);
/// assert_eq!(t.population_std_dev(), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tally {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Tally {
    /// An empty accumulator.
    pub fn new() -> Self {
        Tally {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds an observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN.
    pub fn add(&mut self, x: f64) {
        assert!(!x.is_nan(), "NaN observation");
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population standard deviation (0 when fewer than 2 observations).
    pub fn population_std_dev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / self.n as f64).sqrt()
        }
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Adds `n` identical observations of value `x` in one step
    /// (aggregated flows: a batch of clients sharing one measured value).
    ///
    /// Numerically identical to merging a tally holding `n` copies of `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN.
    pub fn add_n(&mut self, x: f64, n: u64) {
        assert!(!x.is_nan(), "NaN observation");
        if n == 0 {
            return;
        }
        self.merge(&Tally {
            n,
            mean: x,
            m2: 0.0,
            min: x,
            max: x,
        });
    }

    /// Merges another tally into this one (parallel-runs aggregation).
    pub fn merge(&mut self, other: &Tally) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Default for Tally {
    /// The empty accumulator of [`Tally::new`], extrema at ±∞.
    fn default() -> Self {
        Tally::new()
    }
}

/// A value-retaining sample, for percentiles.
///
/// # Examples
///
/// ```
/// use qp_des::Sample;
///
/// let mut s = Sample::new();
/// for x in 1..=100 {
///     s.add(x as f64);
/// }
/// assert_eq!(s.percentile(50.0), 50.0);
/// assert_eq!(s.percentile(99.0), 99.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Sample {
    values: Vec<f64>,
    sorted: bool,
}

impl Sample {
    /// An empty sample.
    pub fn new() -> Self {
        Sample {
            values: Vec::new(),
            sorted: true,
        }
    }

    /// Adds an observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN.
    pub fn add(&mut self, x: f64) {
        assert!(!x.is_nan(), "NaN observation");
        self.values.push(x);
        self.sorted = false;
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// The `p`-th percentile (nearest-rank method).
    ///
    /// # Panics
    ///
    /// Panics if the sample is empty or `p` is outside `[0, 100]`.
    pub fn percentile(&mut self, p: f64) -> f64 {
        assert!(!self.values.is_empty(), "percentile of an empty sample");
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
        if !self.sorted {
            self.values
                .sort_by(|a, b| a.partial_cmp(b).expect("no NaN stored"));
            self.sorted = true;
        }
        let rank = ((p / 100.0) * self.values.len() as f64).ceil() as usize;
        self.values[rank.clamp(1, self.values.len()) - 1]
    }
}

impl Extend<f64> for Sample {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.add(x);
        }
    }
}

/// Sub-buckets per power of two in a [`LogHistogram`]: 2^`SUB_BITS`.
const SUB_BITS: u32 = 7;

/// Low bits of an `f64` below a [`LogHistogram`] bucket index: the 52
/// mantissa bits less the `SUB_BITS` that select the sub-bucket.
const SHIFT: u32 = 52 - SUB_BITS;

/// A bounded-memory streaming quantile estimator: a histogram with 2^7
/// logarithmic buckets per power of two, indexed straight from the bits
/// of the `f64` (its exponent and top seven mantissa bits). Zero has a
/// bucket of its own.
///
/// A quantile is the midpoint of the bucket holding the nearest-rank
/// observation (the one [`Sample::percentile`] returns), clamped to the
/// observed minimum and maximum. A bucket spans at most 2^-7 of its lower
/// edge, so every quantile is within 2^-8 (≈0.39%) of the exact value
/// whenever that value is zero or normal (at least [`f64::MIN_POSITIVE`]).
/// One repeated value, or a single observation, is reported exactly.
///
/// Memory is one counter for each bucket from the smallest positive
/// observation's to the largest's: 128 counters (1 KiB) per power of two
/// spanned.
///
/// # Examples
///
/// ```
/// use qp_des::LogHistogram;
///
/// let mut h = LogHistogram::new();
/// for x in 1..=1000 {
///     h.add(x as f64);
/// }
/// let median = h.quantile(0.5);
/// assert!((median - 500.0).abs() <= 500.0 / 256.0);
/// assert_eq!(h.quantile(1.0), 1000.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    /// Observations equal to zero.
    zeros: u64,
    /// Positive observations per bucket, for the buckets
    /// `first..first + len`.
    counts: Vec<u64>,
    /// Bucket index of `counts[0]`.
    first: usize,
    n: u64,
    min: f64,
    max: f64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            zeros: 0,
            counts: Vec::new(),
            first: 0,
            n: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The value halfway through `bucket`: its lower edge's bits with the
    /// next mantissa bit set.
    fn midpoint(bucket: usize) -> f64 {
        f64::from_bits(((bucket as u64) << SHIFT) | (1 << (SHIFT - 1)))
    }

    /// Adds an observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is negative, infinite or NaN.
    pub fn add(&mut self, x: f64) {
        assert!(
            x >= 0.0 && x.is_finite(),
            "observation must be a nonnegative finite number, got {x}"
        );
        if x == 0.0 {
            self.zeros += 1;
        } else {
            // The bits of a positive `f64` order like its value.
            let bucket = (x.to_bits() >> SHIFT) as usize;
            match self.counts.get_mut(bucket.wrapping_sub(self.first)) {
                Some(count) => *count += 1,
                None => self.add_outside(bucket),
            }
        }
        self.n += 1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Counts one observation in a bucket outside the stored range,
    /// widening the range to reach it.
    #[cold]
    fn add_outside(&mut self, bucket: usize) {
        if self.counts.is_empty() {
            self.first = bucket;
            self.counts.push(1);
        } else if bucket < self.first {
            let gap = self.first - bucket;
            self.counts.splice(0..0, std::iter::repeat_n(0, gap));
            self.first = bucket;
            self.counts[0] = 1;
        } else {
            self.counts.resize(bucket - self.first, 0);
            self.counts.push(1);
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// The `p`-quantile, `p` in `[0, 1]` (e.g. `0.95` for the 95th
    /// percentile), within 2^-8 of the nearest-rank observation; 0 when
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&p),
            "quantile must be in [0, 1], got {p}"
        );
        if self.n == 0 {
            return 0.0;
        }
        // Nearest rank, as `Sample::percentile` computes it.
        let rank = ((p * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = self.zeros;
        if seen >= rank {
            return 0.0;
        }
        for (i, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Self::midpoint(self.first + i).clamp(self.min, self.max);
            }
        }
        unreachable!("bucket counts sum to the observation count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_basics() {
        let mut t = Tally::new();
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.min(), None);
        t.add(1.0);
        t.add(3.0);
        assert_eq!(t.mean(), 2.0);
        assert_eq!(t.min(), Some(1.0));
        assert_eq!(t.max(), Some(3.0));
        assert_eq!(t.count(), 2);
    }

    #[test]
    fn default_tally_tracks_extrema_like_new() {
        let mut up = Tally::default();
        up.add(5.0);
        up.add(7.0);
        assert_eq!((up.min(), up.max()), (Some(5.0), Some(7.0)));
        let mut down = Tally::default();
        down.add(-3.0);
        assert_eq!((down.min(), down.max()), (Some(-3.0), Some(-3.0)));
        assert_eq!(Tally::default(), Tally::new());
    }

    #[test]
    fn tally_merge_matches_combined() {
        let xs: Vec<f64> = (0..50).map(|i| (i as f64).sqrt() * 3.7).collect();
        let mut whole = Tally::new();
        for &x in &xs {
            whole.add(x);
        }
        let mut a = Tally::new();
        let mut b = Tally::new();
        for (i, &x) in xs.iter().enumerate() {
            if i % 2 == 0 {
                a.add(x);
            } else {
                b.add(x);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert!((a.population_std_dev() - whole.population_std_dev()).abs() < 1e-12);
    }

    #[test]
    fn sample_percentiles() {
        let mut s = Sample::new();
        s.extend((1..=10).map(|i| i as f64));
        assert_eq!(s.percentile(10.0), 1.0);
        assert_eq!(s.percentile(100.0), 10.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.mean(), 5.5);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn percentile_of_empty_panics() {
        let mut s = Sample::new();
        let _ = s.percentile(50.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn tally_rejects_nan() {
        let mut t = Tally::new();
        t.add(f64::NAN);
    }

    #[test]
    fn add_n_matches_repeated_add() {
        let mut bulk = Tally::new();
        let mut loops = Tally::new();
        for (x, n) in [(3.5, 4u64), (1.25, 1), (9.0, 7), (2.0, 0)] {
            bulk.add_n(x, n);
            for _ in 0..n {
                loops.add(x);
            }
        }
        assert_eq!(bulk.count(), loops.count());
        assert!((bulk.mean() - loops.mean()).abs() < 1e-12);
        assert!((bulk.population_std_dev() - loops.population_std_dev()).abs() < 1e-12);
        assert_eq!(bulk.min(), loops.min());
        assert_eq!(bulk.max(), loops.max());
    }

    #[test]
    fn histogram_within_bound_on_small_samples() {
        // One to five observations: every quantile lies within 2^-8 of the
        // nearest-rank one, and a single observation is exact.
        let xs = [7.0, 1.0, 4.0, 9.0, 2.0];
        for upto in 1..=xs.len() {
            for pct in [0.0, 25.0, 50.0, 95.0, 100.0] {
                let mut h = LogHistogram::new();
                let mut sample = Sample::new();
                for &x in &xs[..upto] {
                    h.add(x);
                    sample.add(x);
                }
                let (est, exact) = (h.quantile(pct / 100.0), sample.percentile(pct));
                assert!(
                    (est - exact).abs() <= exact / 256.0,
                    "n={upto} p={pct}: {est} vs {exact}"
                );
                if upto == 1 {
                    assert_eq!(est, exact);
                }
            }
        }
    }

    #[test]
    fn histogram_tracks_large_streams() {
        // Deterministic scrambled stream over [0, 1000).
        let mut h = LogHistogram::new();
        let mut sample = Sample::new();
        for i in 0u64..10_000 {
            let x = (i.wrapping_mul(2654435761) % 100_000) as f64 / 100.0;
            h.add(x);
            sample.add(x);
        }
        for pct in [50.0, 95.0, 99.0] {
            let exact = sample.percentile(pct);
            let est = h.quantile(pct / 100.0);
            assert!(
                (est - exact).abs() <= exact / 256.0,
                "p{pct}: {est} vs {exact}"
            );
        }
        assert_eq!(h.count(), 10_000);
    }

    #[test]
    fn histogram_midpoints_split_their_buckets() {
        // 136.495 lies in [136, 137): 128 · (1 + 8/128) up to the next
        // 1/128 step.
        let mut h = LogHistogram::new();
        h.add(136.495);
        h.add(200.0);
        assert_eq!(h.quantile(0.5), 136.5);
        // Zero keeps a bucket of its own and reads back as zero.
        let mut z = LogHistogram::new();
        z.add(0.0);
        z.add(0.0);
        z.add(3.0);
        assert_eq!(z.quantile(0.5), 0.0);
        assert_eq!(z.quantile(1.0), 3.0);
    }

    #[test]
    fn histogram_empty_quantile_is_zero() {
        assert_eq!(LogHistogram::new().quantile(0.5), 0.0);
        assert_eq!(LogHistogram::default().count(), 0);
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0, 1]")]
    fn histogram_rejects_out_of_range_quantile() {
        let _ = LogHistogram::new().quantile(1.5);
    }

    #[test]
    #[should_panic(expected = "nonnegative finite")]
    fn histogram_rejects_nan() {
        LogHistogram::new().add(f64::NAN);
    }
}
