//! Deterministic pseudo-random generation for workload synthesis.
//!
//! The entire reproduction must be replayable from a single seed: the
//! workload generator, data generators, and failure injection all draw from
//! [`DetRng`] (xoshiro256** seeded via SplitMix64). We implement it here
//! rather than pulling `rand` into every crate so that the exact bit stream
//! is pinned by this repository, not by an external crate version.

/// Deterministic RNG: xoshiro256** with SplitMix64 seeding.
#[derive(Debug, Clone)]
pub struct DetRng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl DetRng {
    /// Seed the generator. Any seed (including 0) is valid.
    pub fn seed(seed: u64) -> DetRng {
        let mut sm = seed;
        DetRng {
            s: [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)],
        }
    }

    /// Derive an independent child stream, e.g. one per day or per template,
    /// so that adding draws in one component never perturbs another.
    pub fn fork(&mut self, label: u64) -> DetRng {
        let a = self.next_u64();
        DetRng::seed(a ^ label.wrapping_mul(0xd134_2543_de82_ef95))
    }

    /// Core xoshiro256** step.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[lo, hi)`. Panics if the range is empty.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        let span = hi - lo;
        // Multiply-shift rejection-free mapping is fine here; the tiny
        // modulo bias at span ≈ 2^64 is irrelevant for workload synthesis.
        lo + (((self.next_u64() as u128) * (span as u128)) >> 64) as u64
    }

    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.range_u64(0, (hi - lo) as u64) as i64
    }

    /// Uniform float in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Bernoulli draw.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Pick one element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose from empty slice");
        &items[self.range_usize(0, items.len())]
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range_usize(0, i + 1);
            items.swap(i, j);
        }
    }

    /// Exponential with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u = 1.0 - self.next_f64(); // avoid ln(0)
        -mean * u.ln()
    }

    /// Standard normal via Box–Muller (one value per call; simple > fast here).
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + std_dev * z
    }

    /// Log-normal: useful for heavy-tailed sizes (dataset bytes, work units).
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Sample from a Zipf distribution over `{0, .., n-1}` with exponent `s`.
    ///
    /// Used to reproduce the heavy-tailed dataset-consumer distribution of
    /// paper Fig. 2 (a few datasets consumed thousands of times, most a few).
    pub fn zipf(&mut self, n: usize, s: f64) -> usize {
        debug_assert!(n > 0);
        // Inverse-CDF on the (cached-free) harmonic weights. n is small in
        // our workloads (≤ a few thousand), so a linear scan is fine and
        // keeps the generator allocation-free.
        let norm: f64 = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).sum();
        let mut u = self.next_f64() * norm;
        for k in 1..=n {
            u -= 1.0 / (k as f64).powf(s);
            if u <= 0.0 {
                return k - 1;
            }
        }
        n - 1
    }

    /// Sample an index according to explicit non-negative weights.
    pub fn weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must not all be zero");
        let mut u = self.next_f64() * total;
        for (i, w) in weights.iter().enumerate() {
            u -= w;
            if u <= 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }
}

/// A pre-normalized Zipf sampler for hot loops (amortizes the harmonic sum).
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    pub fn new(n: usize, s: f64) -> ZipfSampler {
        assert!(n > 0);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let norm = acc;
        for v in &mut cdf {
            *v /= norm;
        }
        ZipfSampler { cdf }
    }

    pub fn sample(&self, rng: &mut DetRng) -> usize {
        let u = rng.next_f64();
        // The CDF and `u` are non-negative and never NaN: the total order is
        // the numeric one.
        match self.cdf.binary_search_by(|p| p.total_cmp(&u)) {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = DetRng::seed(42);
        let mut b = DetRng::seed(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::seed(1);
        let mut b = DetRng::seed(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_streams_are_independent_of_parent_consumption() {
        let mut p1 = DetRng::seed(9);
        let c1 = p1.fork(7);
        let mut p2 = DetRng::seed(9);
        let c2 = p2.fork(7);
        let mut c1 = c1;
        let mut c2 = c2;
        assert_eq!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn range_bounds_respected() {
        let mut r = DetRng::seed(3);
        for _ in 0..10_000 {
            let v = r.range_u64(10, 20);
            assert!((10..20).contains(&v));
            let f = r.range_f64(-1.0, 1.0);
            assert!((-1.0..1.0).contains(&f));
            let i = r.range_i64(-5, 5);
            assert!((-5..5).contains(&i));
        }
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = DetRng::seed(11);
        for _ in 0..10_000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn uniform_mean_is_centered() {
        let mut r = DetRng::seed(5);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean was {mean}");
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = DetRng::seed(6);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| r.exponential(4.0)).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.15, "mean was {mean}");
    }

    #[test]
    fn normal_moments_are_close() {
        let mut r = DetRng::seed(7);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn zipf_is_monotone_decreasing_in_rank() {
        let mut r = DetRng::seed(8);
        let n = 20;
        let mut counts = vec![0usize; n];
        for _ in 0..100_000 {
            counts[r.zipf(n, 1.1)] += 1;
        }
        assert!(counts[0] > counts[4]);
        assert!(counts[4] > counts[15]);
    }

    #[test]
    fn zipf_sampler_matches_direct_distribution_shape() {
        let sampler = ZipfSampler::new(50, 1.0);
        let mut r = DetRng::seed(10);
        let mut counts = vec![0usize; 50];
        for _ in 0..100_000 {
            counts[sampler.sample(&mut r)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[40]);
    }

    #[test]
    fn weighted_respects_zero_weights() {
        let mut r = DetRng::seed(12);
        for _ in 0..1000 {
            let i = r.weighted(&[0.0, 1.0, 0.0]);
            assert_eq!(i, 1);
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = DetRng::seed(13);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle should move something");
    }

    #[test]
    fn choose_covers_all_elements_eventually() {
        let mut r = DetRng::seed(14);
        let items = [1, 2, 3, 4];
        let mut seen = crate::HashSet::default();
        for _ in 0..1000 {
            seen.insert(*r.choose(&items));
        }
        assert_eq!(seen.len(), items.len());
    }
}
