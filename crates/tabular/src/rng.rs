//! Deterministic pseudo-random number generation.
//!
//! The whole study depends on reproducible randomised decisions (splits,
//! sampling, model seeds). Rather than depending on a specific version of
//! an external RNG crate — whose stream may change between releases — we
//! implement a small, well-known generator (xoshiro256**, seeded via
//! SplitMix64) whose output is fixed forever by this crate.

/// A seedable, fast, deterministic PRNG (xoshiro256**).
///
/// Not cryptographically secure; statistical quality is more than adequate
/// for sampling, shuffling and synthetic data generation.
#[derive(Debug, Clone)]
pub struct Rng64 {
    s: [u64; 4],
    /// Cached second value of the Box–Muller transform.
    gauss_cache: Option<f64>,
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl Rng64 {
    /// Creates a generator from a 64-bit seed.
    ///
    /// Different seeds yield statistically independent streams; the same
    /// seed always yields the same stream.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng64 { s, gauss_cache: None }
    }

    /// Derives an independent child generator; used to hand out
    /// per-configuration seeds without correlating their streams.
    pub fn fork(&mut self) -> Self {
        Rng64::seed_from_u64(self.next_u64())
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    ///
    /// Uses Lemire's multiply-shift rejection method to avoid modulo bias.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is undefined");
        let n = n as u64;
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(n as u128);
            let lo = m as u64;
            if lo >= n {
                return (m >> 64) as usize;
            }
            // Rejection zone: recompute threshold only on the slow path.
            let t = n.wrapping_neg() % n;
            if lo >= t {
                return (m >> 64) as usize;
            }
        }
    }

    /// Uniform integer in `[lo, hi)`. Panics if the range is empty.
    #[inline]
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.below(hi - lo)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Standard normal draw (Box–Muller with caching).
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.gauss_cache.take() {
            return z;
        }
        // Draw u1 in (0, 1] to avoid ln(0).
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.gauss_cache = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal draw with the given mean and standard deviation.
    #[inline]
    pub fn normal_with(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.normal()
    }

    /// Draw from a log-normal distribution with the given parameters of the
    /// underlying normal. Produces the heavy right tails typical of income
    /// and balance columns (and hence natural outliers).
    #[inline]
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.normal()).exp()
    }

    /// Draw from an exponential distribution with rate `lambda`.
    #[inline]
    pub fn exponential(&mut self, lambda: f64) -> f64 {
        let u = 1.0 - self.next_f64();
        -u.ln() / lambda
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i + 1);
            slice.swap(i, j);
        }
    }

    /// Samples an index according to (unnormalised, non-negative) weights.
    /// Panics if all weights are zero or the slice is empty.
    pub fn choose_weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "choose_weighted requires a positive total weight");
        let mut target = self.next_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            target -= w;
            if target < 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Samples `m` distinct indices from `[0, n)` (Floyd's algorithm order
    /// is not preserved; result is sorted for determinism downstream).
    pub fn sample_indices(&mut self, n: usize, m: usize) -> Vec<usize> {
        let mut out = Vec::new();
        self.sample_indices_into(n, m, &mut out);
        out
    }

    /// [`Rng64::sample_indices`] writing into a caller-provided buffer —
    /// identical draws and result, and no allocation beyond growing `out`,
    /// so tight loops (GBDT's per-round row subsample) reuse one buffer.
    pub fn sample_indices_into(&mut self, n: usize, m: usize, out: &mut Vec<usize>) {
        assert!(m <= n, "cannot sample {m} from {n}");
        out.clear();
        // For dense samples a shuffle-prefix is cheaper and simpler.
        if m * 3 >= n {
            out.extend(0..n);
            self.shuffle(out);
            // The prefix holds m distinct values in [0, n); sort it in O(n)
            // by marking value v in the top bit of slot v (values are below
            // n <= isize::MAX, so that bit is free), then sweeping the
            // slots in ascending order. The sweep writes slot w <= v, which
            // it has already read.
            const MARK: usize = 1 << (usize::BITS - 1);
            for k in 0..m {
                let v = out[k] & !MARK;
                out[v] |= MARK;
            }
            let mut w = 0;
            for v in 0..n {
                let marked = out[v] >> (usize::BITS - 1);
                out[w] = v;
                w += marked;
            }
            out.truncate(m);
            return;
        }
        // Rejection sampling until m distinct values are held. Drawing the
        // missing count at once, then sorting and deduplicating, consumes
        // exactly the draws a one-at-a-time loop would: a batch reaches m
        // distinct values only if every draw in it was new.
        while out.len() < m {
            for _ in out.len()..m {
                out.push(self.below(n));
            }
            out.sort_unstable();
            out.dedup();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng64::seed_from_u64(42);
        let mut b = Rng64::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng64::seed_from_u64(1);
        let mut b = Rng64::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 3);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Rng64::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_uniform_enough() {
        let mut rng = Rng64::seed_from_u64(3);
        let mut counts = [0usize; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[rng.below(10)] += 1;
        }
        for &c in &counts {
            let expected = n as f64 / 10.0;
            assert!((c as f64 - expected).abs() < expected * 0.1, "count {c}");
        }
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        Rng64::seed_from_u64(0).below(0);
    }

    #[test]
    fn normal_moments() {
        let mut rng = Rng64::seed_from_u64(11);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Rng64::seed_from_u64(5);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct_and_sorted() {
        let mut rng = Rng64::seed_from_u64(9);
        for &(n, m) in &[(100usize, 5usize), (100, 90), (10, 10), (1, 1), (50, 0)] {
            let s = rng.sample_indices(n, m);
            assert_eq!(s.len(), m);
            for w in s.windows(2) {
                assert!(w[0] < w[1]);
            }
            assert!(s.iter().all(|&i| i < n));
        }
    }

    #[test]
    fn sample_indices_into_output_is_pinned() {
        // FNV digest of every draw (and of the generator's next output,
        // so the number of values each call consumes is pinned too) over
        // both the shuffle-prefix and the rejection paths, through one
        // reused buffer. Study scores depend on these draws (GBDT row
        // subsamples, pool samples), so any change in what the sampler
        // returns or consumes must move the journal fingerprint too.
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| digest = (digest ^ v).wrapping_mul(0x0000_0100_0000_01b3);
        let mut out = vec![usize::MAX; 7];
        for n in [0usize, 1, 2, 3, 7, 10, 31, 64, 100, 257, 1000] {
            let ms = [0, 1, n / 3, n / 3 + 1, (n * 4).div_ceil(5), n.saturating_sub(1), n];
            for m in ms.into_iter().filter(|&m| m <= n) {
                for seed in [0u64, 1, 42, u64::MAX] {
                    let mut rng = Rng64::seed_from_u64(seed ^ (n as u64) << 20 ^ m as u64);
                    rng.sample_indices_into(n, m, &mut out);
                    assert_eq!(out.len(), m);
                    assert!(out.windows(2).all(|w| w[0] < w[1]) && out.iter().all(|&i| i < n));
                    out.iter().for_each(|&i| mix(i as u64));
                    mix(rng.next_u64());
                }
            }
        }
        assert_eq!(digest, 0xb805_4776_e0bc_82e2, "sample_indices_into output moved");
    }

    #[test]
    fn choose_weighted_respects_weights() {
        let mut rng = Rng64::seed_from_u64(13);
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[rng.choose_weighted(&weights)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn fork_produces_independent_streams() {
        let mut parent = Rng64::seed_from_u64(21);
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        let same = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert!(same < 3);
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut rng = Rng64::seed_from_u64(17);
        let n = 100_000;
        let mean = (0..n).map(|_| rng.exponential(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn bernoulli_rate() {
        let mut rng = Rng64::seed_from_u64(19);
        let hits = (0..100_000).filter(|_| rng.bernoulli(0.3)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate}");
    }
}
