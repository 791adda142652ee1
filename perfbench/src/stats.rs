//! Small numeric helpers: a seeded generator and order statistics.

/// SplitMix64: a tiny seeded generator, so the benchmark's inputs depend
/// on `--seed` alone and on no library's generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6A09_E667_F3BC_C909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// In-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Samples per stretch of [`tail`].
const STRETCH: usize = 200;

/// The tail of a latency series in op order. The series is cut into
/// consecutive stretches of [`STRETCH`] samples (the last one takes the
/// remainder; a shorter series is one stretch). In each stretch the tail
/// is the highest order statistic with at least ten samples above it, but
/// never below the stretch's median; the value is the median over the
/// stretches. A whole-run p99.9 is decided by the few slowest moments of a
/// shared machine and swung by half from run to run; a p95 per stretch is
/// what a client sees in a typical stretch, and it repeats. Returns
/// `(value, percentile, samples)`; the percentile is the share of a
/// stretch's samples at or below its tail.
pub fn tail(series: &[f64]) -> (f64, f64, usize) {
    if series.is_empty() {
        return (0.0, 0.0, 0);
    }
    let chunks = (series.len() / STRETCH).max(1);
    let len = series.len() / chunks;
    let mut tails = Vec::new();
    let mut pct = 0.0;
    for c in 0..chunks {
        let end = if c + 1 == chunks {
            series.len()
        } else {
            (c + 1) * len
        };
        let mut v = series[c * len..end].to_vec();
        v.sort_by(f64::total_cmp);
        let rank = v.len().saturating_sub(11).max(v.len() / 2);
        tails.push(v[rank]);
        pct = (rank + 1) as f64 / v.len() as f64 * 100.0;
    }
    (median(&tails), pct, series.len())
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_above() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, pct, n) = tail(&v);
        assert_eq!((value, n), (90.0, 100));
        assert!((pct - 90.0).abs() < 1e-9);
        // Too few samples for a tail above the median: the median.
        assert_eq!(tail(&[3.0, 1.0, 2.0]).0, 2.0);
    }

    #[test]
    fn tail_ignores_one_slow_stretch() {
        let mut v: Vec<f64> = (0..1000).map(|i| f64::from(i % 200)).collect();
        v[..200].iter_mut().for_each(|x| *x += 1000.0);
        assert_eq!(tail(&v), (189.0, 95.0, 1000));
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
