//! Counting and distribution helpers behind the dataset-overview artifacts:
//! Table 1 (top ports), Figure 1a (port-rank ECDF), Figure 2a
//! (packets-per-sender ECDF) and Figure 2b (cumulative distinct senders).

use std::collections::HashMap;
use std::hash::Hash;

/// A frequency counter over arbitrary hashable keys.
///
/// This is the workhorse for "top-N ports", "packets per sender" and
/// "fraction of traffic to port p" style questions.
#[derive(Clone, Debug, Default)]
pub struct Counter<K: Eq + Hash> {
    counts: HashMap<K, u64>,
    total: u64,
}

impl<K: Eq + Hash + Clone> Counter<K> {
    /// An empty counter.
    pub fn new() -> Self {
        Counter {
            counts: HashMap::new(),
            total: 0,
        }
    }

    /// Adds one observation of `key`.
    pub fn add(&mut self, key: K) {
        self.add_n(key, 1);
    }

    /// Adds `n` observations of `key`.
    pub fn add_n(&mut self, key: K, n: u64) {
        *self.counts.entry(key).or_insert(0) += n;
        self.total += n;
    }

    /// Count for `key` (0 if never seen).
    pub fn get(&self, key: &K) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// Total observations across all keys.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct keys.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Fraction of all observations that hit `key` (0 if the counter is empty).
    pub fn fraction(&self, key: &K) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.get(key) as f64 / self.total as f64
        }
    }

    /// Keys sorted by decreasing count. Ties are broken by the key's own
    /// ordering when available via the caller sorting again; here insertion
    /// ties are broken arbitrarily but deterministically per build, so the
    /// top-k helpers below sort with an explicit tie-break instead.
    pub fn iter(&self) -> impl Iterator<Item = (&K, u64)> {
        self.counts.iter().map(|(k, &v)| (k, v))
    }

    /// The `n` most frequent keys with their counts, largest first.
    /// Ties are broken by key order so results are deterministic.
    pub fn top(&self, n: usize) -> Vec<(K, u64)>
    where
        K: Ord,
    {
        let mut all: Vec<(K, u64)> = self.counts.iter().map(|(k, &v)| (k.clone(), v)).collect();
        all.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        all.truncate(n);
        all
    }

    /// All counts, unordered — useful as ECDF input.
    pub fn values(&self) -> Vec<u64> {
        self.counts.values().copied().collect()
    }
}

impl<K: Eq + Hash + Clone> FromIterator<K> for Counter<K> {
    fn from_iter<I: IntoIterator<Item = K>>(iter: I) -> Self {
        let mut c = Counter::new();
        for k in iter {
            c.add(k);
        }
        c
    }
}

/// An empirical cumulative distribution function over `f64` samples.
///
/// `Ecdf::eval(x)` is the fraction of samples ≤ x; `quantile(q)` inverts it.
#[derive(Clone, Debug)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from samples. Non-finite samples are rejected.
    ///
    /// # Panics
    /// Panics if any sample is NaN or infinite.
    pub fn new(mut samples: Vec<f64>) -> Self {
        assert!(
            samples.iter().all(|x| x.is_finite()),
            "ECDF samples must be finite"
        );
        samples.sort_by(|a, b| a.total_cmp(b));
        Ecdf { sorted: samples }
    }

    /// Builds an ECDF from integer counts.
    pub fn from_counts(counts: &[u64]) -> Self {
        Ecdf::new(counts.iter().map(|&c| c as f64).collect())
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// P(X ≤ x). Returns 0 for an empty ECDF.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        // partition_point returns the number of samples <= x because the
        // slice is sorted ascending.
        let le = self.sorted.partition_point(|&s| s <= x);
        le as f64 / self.sorted.len() as f64
    }

    /// The q-quantile (0 ≤ q ≤ 1), using the nearest-rank definition.
    ///
    /// # Panics
    /// Panics if the ECDF is empty or `q` is outside [0, 1].
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "quantile of empty ECDF");
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0,1]");
        if q == 0.0 {
            return self.sorted[0];
        }
        let rank = (q * self.sorted.len() as f64).ceil() as usize;
        self.sorted[rank.min(self.sorted.len()) - 1]
    }

    /// Evenly re-sampled `(x, F(x))` points suitable for plotting; returns
    /// at most `points` pairs covering the full sample range.
    pub fn curve(&self, points: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || points == 0 {
            return Vec::new();
        }
        let n = self.sorted.len();
        let step = (n.max(points) / points.max(1)).max(1);
        let mut out = Vec::with_capacity(points + 1);
        let mut i = 0;
        while i < n {
            out.push((self.sorted[i], (i + 1) as f64 / n as f64));
            i += step;
        }
        if out.last().map(|&(x, _)| x) != Some(self.sorted[n - 1]) {
            out.push((self.sorted[n - 1], 1.0));
        }
        out
    }
}

/// Ranks values by decreasing count and reports, for each rank, the
/// cumulative traffic fraction — the shape behind Figure 1a's port ranking.
pub fn rank_cumulative<K: Eq + Hash + Clone + Ord>(counter: &Counter<K>) -> Vec<(K, u64, f64)> {
    let ranked = counter.top(counter.distinct());
    let total = counter.total().max(1) as f64;
    let mut cum = 0u64;
    ranked
        .into_iter()
        .map(|(k, c)| {
            cum += c;
            (k, c, cum as f64 / total)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        c.add("a");
        c.add("a");
        c.add_n("b", 3);
        assert_eq!(c.get(&"a"), 2);
        assert_eq!(c.get(&"b"), 3);
        assert_eq!(c.get(&"z"), 0);
        assert_eq!(c.total(), 5);
        assert_eq!(c.distinct(), 2);
        assert!((c.fraction(&"b") - 0.6).abs() < 1e-12);
    }

    #[test]
    fn counter_from_iterator() {
        let c: Counter<u16> = [23u16, 23, 445, 23].into_iter().collect();
        assert_eq!(c.get(&23), 3);
        assert_eq!(c.get(&445), 1);
    }

    #[test]
    fn counter_top_breaks_ties_deterministically() {
        let c: Counter<u16> = [5u16, 3, 3, 5, 9].into_iter().collect();
        // 3 and 5 both have count 2; the smaller key wins the tie.
        assert_eq!(c.top(3), vec![(3, 2), (5, 2), (9, 1)]);
    }

    #[test]
    fn counter_fraction_of_empty_is_zero() {
        let c: Counter<u8> = Counter::new();
        assert_eq!(c.fraction(&1), 0.0);
    }

    #[test]
    fn ecdf_eval_step_function() {
        let e = Ecdf::new(vec![1.0, 2.0, 2.0, 10.0]);
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(2.0), 0.75);
        assert_eq!(e.eval(9.99), 0.75);
        assert_eq!(e.eval(10.0), 1.0);
        assert_eq!(e.eval(1e9), 1.0);
    }

    #[test]
    fn ecdf_quantiles() {
        let e = Ecdf::from_counts(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(e.quantile(0.0), 1.0);
        assert_eq!(e.quantile(0.5), 5.0);
        assert_eq!(e.quantile(1.0), 10.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn ecdf_rejects_nan() {
        Ecdf::new(vec![f64::NAN]);
    }

    #[test]
    fn ecdf_empty() {
        let e = Ecdf::new(vec![]);
        assert!(e.is_empty());
        assert_eq!(e.eval(3.0), 0.0);
        assert!(e.curve(10).is_empty());
    }

    #[test]
    fn ecdf_curve_reaches_one() {
        let e = Ecdf::from_counts(&(0..1000).collect::<Vec<u64>>());
        let curve = e.curve(50);
        assert!(curve.len() <= 52);
        assert_eq!(curve.last().unwrap().1, 1.0);
        // Curve is non-decreasing in both coordinates.
        for pair in curve.windows(2) {
            assert!(pair[1].0 >= pair[0].0);
            assert!(pair[1].1 >= pair[0].1);
        }
    }

    #[test]
    fn rank_cumulative_sums_to_one() {
        let c: Counter<u16> = [23u16, 23, 23, 445, 445, 80].into_iter().collect();
        let ranked = rank_cumulative(&c);
        assert_eq!(ranked[0].0, 23);
        assert!((ranked.last().unwrap().2 - 1.0).abs() < 1e-12);
        // Cumulative fractions are non-decreasing.
        for pair in ranked.windows(2) {
            assert!(pair[1].2 >= pair[0].2);
        }
    }
}
