//! Order statistics for timing samples, and the seeded generator every
//! workload input is drawn from.

/// Median of `values` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice.
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

/// The `p`-th percentile (nearest rank) of `values`; 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Percentiles a tail may be reported at, ascending, in tenths of a
/// percent (integers, so that "ten beyond" is decided exactly).
const TAIL_CANDIDATES_PERMILLE: [usize; 4] = [900, 950, 990, 999];

/// How many samples must lie beyond a reported percentile.
const MIN_BEYOND: usize = 10;

/// The highest candidate percentile with at least ten samples beyond it,
/// or `None` when even p90 has fewer (under 100 samples: such a sample
/// supports no tail percentile at all).
pub fn tail_percentile(samples: usize) -> Option<f64> {
    TAIL_CANDIDATES_PERMILLE
        .iter()
        .rev()
        .find(|&&p| samples * (1000 - p) >= MIN_BEYOND * 1000)
        .map(|&p| p as f64 / 10.0)
}

/// SplitMix64: the benchmark's own generator, so the id streams depend on
/// the `--seed` argument and on nothing in the program under test.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        SplitMix64(seed ^ stream.wrapping_mul(0xd1342543de82ef95))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
        x ^ (x >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile_pick_the_expected_ranks() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(5), None);
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        // The serving workloads' open phase: p95 has 18 beyond, p99 only 3.6.
        assert_eq!(tail_percentile(360), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn generator_repeats_per_seed_and_differs_across_streams() {
        let a: Vec<u64> = {
            let mut g = SplitMix64::new(7, 0);
            (0..8).map(|_| g.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut g = SplitMix64::new(7, 0);
            (0..8).map(|_| g.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut g = SplitMix64::new(7, 1);
            (0..8).map(|_| g.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut g = SplitMix64::new(1, 2);
        assert!((0..1000).all(|_| g.below(10) < 10));
        assert!((0..1000).all(|_| (0.0..1.0).contains(&g.unit())));
    }
}
