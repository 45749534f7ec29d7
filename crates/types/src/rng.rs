//! Deterministic pseudo-random number generation.
//!
//! Every stochastic choice in the workload models draws from this small
//! SplitMix64-based generator so that a simulation is a pure function of
//! its configuration and seed: identical runs produce identical traces,
//! identical statistics and identical figures. SplitMix64 passes BigCrush,
//! is a single multiply-xor-shift pipeline per draw, and — unlike
//! process-global RNGs — costs nothing to seed per processor.

/// A SplitMix64 pseudo-random generator.
#[derive(Clone, Debug)]
pub struct Rng64 {
    state: u64,
}

impl Rng64 {
    /// Create a generator from a seed. Any seed (including 0) is fine.
    pub fn new(seed: u64) -> Self {
        Rng64 { state: seed }
    }

    /// Derive an independent child generator; used to give each simulated
    /// processor its own stream from one experiment seed.
    pub fn fork(&mut self, salt: u64) -> Rng64 {
        Rng64::new(self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next raw 64-bit value (SplitMix64).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, n)`. `n` must be non-zero.
    /// Uses Lemire's multiply-shift reduction (no modulo bias worth noting
    /// at the ranges used here, and branch-free in the common case).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform value in `[lo, hi)`.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo < hi);
        lo + self.below(hi - lo)
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn f64_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64_unit() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Pick a uniformly random element.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }
}

/// Zipf-distributed sampler over `0..n` with exponent `s`, built once
/// per workload and shared by all its processors.
///
/// A draw inverts the Zipf CDF at a uniform variate in expected O(1):
/// one guide-table load plus a short forward scan over integer
/// thresholds. For every variate it returns the first CDF entry at least
/// [`Rng64::f64_unit`]'s `u`, exactly, because that `u` is a 53-bit
/// integer `m` scaled by 2⁻⁵³ ([`ZipfSampler::index`] has the argument).
/// Where the `f64` CDF is strictly increasing (every catalog workload's
/// is), that is also the index a binary search of it returns.
///
/// Workload models use this for hot-spot access patterns (e.g. upper
/// octree levels in Barnes, popular scene objects in Raytrace), where a
/// small set of lines is touched far more often than the tail.
#[derive(Clone, Debug)]
pub struct ZipfSampler {
    /// One block of exactly `8n` bytes: the `n` packed thresholds, one
    /// pad byte, the guide table, then zeros.
    ///
    /// * Threshold `i` (bytes `[7i, 7i + 7)`, little-endian) is
    ///   `⌊cdf[i] · 2⁵³⌋` for `i < n − 1`, and [`THRESHOLD_MASK`] (above
    ///   every variate) for `i = n − 1`. A threshold is at most 2⁵³, so 7
    ///   bytes hold it; the pad byte lets the last one load as a `u64`.
    /// * Guide entry `b` (a little-endian `u32` at `7n + 1 + 4b`, for
    ///   `b < g = ⌊(n − 1) / 4⌋`) is the first index whose threshold
    ///   reaches bucket `b`, where variate `m` falls in bucket
    ///   `⌊m · g / 2⁵³⌋`. The answer for any `m` in bucket `b` is at least
    ///   that entry. With `g = 0` (`n < 5`) every scan starts at 0.
    ///
    /// `8n` bytes is the `f64` CDF the block is built in and replaces, so
    /// building needs no second allocation and no copy.
    table: Box<[u8]>,
}

/// Bytes per packed threshold.
const THRESHOLD_BYTES: usize = 7;
/// Low 56 bits: one packed threshold, and the last index's sentinel.
const THRESHOLD_MASK: u64 = (1 << 56) - 1;
/// Bits of the uniform variate a draw consumes ([`Rng64::f64_unit`]'s).
const VARIATE_BITS: u32 = 53;

impl ZipfSampler {
    /// Build a sampler over `0..n` (1 ≤ n ≤ 2³²) with exponent `s ≥ 0`.
    /// `s = 0` degenerates to the uniform distribution. It holds `8n`
    /// bytes, the size of the `f64` CDF it is tabulated from.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n >= 1, "ZipfSampler needs at least one element");
        assert!(n <= 1 << 32, "ZipfSampler indices are u32");
        assert!(s >= 0.0 && s.is_finite());
        // The unnormalized CDF is accumulated as f64s in the block the
        // thresholds are then packed into, front to back.
        let mut table = vec![0u8; 8 * n];
        let mut acc = 0.0f64;
        for k in 1..=n {
            acc += (k as f64).powf(-s);
            table[8 * (k - 1)..8 * k].copy_from_slice(&acc.to_le_bytes());
        }
        let total = acc;
        let scale = (1u64 << VARIATE_BITS) as f64;
        for i in 0..n {
            let at = 8 * i;
            let cum = f64::from_le_bytes(table[at..at + 8].try_into().expect("8 bytes"));
            // `cum / total` is the CDF entry; scaling it by 2⁵³ is exact,
            // and the cast truncates: the floor.
            let t = if i + 1 == n {
                THRESHOLD_MASK
            } else {
                (cum / total * scale) as u64
            };
            // Entry i's packed slot [7i, 7i + 7) ends before entry i + 1
            // starts at 8i + 8, and entry i itself has been read.
            let to = THRESHOLD_BYTES * i;
            table[to..to + THRESHOLD_BYTES].copy_from_slice(&t.to_le_bytes()[..THRESHOLD_BYTES]);
        }
        table[THRESHOLD_BYTES * n..].fill(0);
        let mut z = ZipfSampler {
            table: table.into_boxed_slice(),
        };
        let (g, guide_at) = (z.buckets(), z.guide_at());
        let mut i = 0;
        for b in 0..g {
            while bucket(z.threshold(i), g) < b {
                i += 1;
            }
            let at = guide_at + 4 * b;
            z.table[at..at + 4].copy_from_slice(&(i as u32).to_le_bytes());
        }
        z
    }

    /// Number of elements in the support.
    pub fn len(&self) -> usize {
        self.table.len() / 8
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Draw an index in `0..n`; index 0 is the most popular. Consumes
    /// one `next_u64`, exactly as [`Rng64::f64_unit`] does.
    #[inline]
    pub fn sample(&self, rng: &mut Rng64) -> usize {
        self.index(rng.next_u64() >> (64 - VARIATE_BITS))
    }

    /// The index for the 53-bit variate `m < 2⁵³`: the first `i` with
    /// `cdf[i] ≥ m · 2⁻⁵³`, or `n − 1` if there is none.
    ///
    /// Exactness: `cdf[i] · 2⁵³` is exact, and for an integer `m`,
    /// `cdf[i] · 2⁵³ ≥ m` holds exactly when `⌊cdf[i] · 2⁵³⌋ ≥ m`, so
    /// the first threshold at least `m` marks the same index. Thresholds
    /// never decrease, so the scan from the bucket's guide entry passes
    /// only indices whose threshold is below `m`, and it ends at `n − 1`
    /// at the latest, whose sentinel exceeds every variate.
    #[inline]
    pub fn index(&self, m: u64) -> usize {
        debug_assert!(m < 1 << VARIATE_BITS);
        let g = self.buckets();
        let mut i = if g == 0 {
            0
        } else {
            let at = self.guide_at() + 4 * bucket(m, g);
            u32::from_le_bytes(self.table[at..at + 4].try_into().expect("4 bytes")) as usize
        };
        while self.threshold(i) < m {
            i += 1;
        }
        i
    }

    /// Threshold of index `i`.
    #[inline]
    fn threshold(&self, i: usize) -> u64 {
        let at = THRESHOLD_BYTES * i;
        let word: [u8; 8] = self.table[at..at + 8].try_into().expect("8 bytes");
        u64::from_le_bytes(word) & THRESHOLD_MASK
    }

    /// Guide buckets `g = ⌊(n − 1) / 4⌋`: the most whose `u32` entries
    /// fit in the `n − 1` bytes after the thresholds and the pad byte.
    #[inline]
    fn buckets(&self) -> usize {
        (self.len() - 1) / 4
    }

    /// Byte offset of the guide table.
    #[inline]
    fn guide_at(&self) -> usize {
        THRESHOLD_BYTES * self.len() + 1
    }
}

/// Bucket of variate (or threshold) `m` among `g` equal buckets of
/// `[0, 2⁵³)`; monotone in `m`, and `g` or more for `m ≥ 2⁵³`.
#[inline]
fn bucket(m: u64, g: usize) -> usize {
    ((m as u128 * g as u128) >> VARIATE_BITS) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Rng64::new(42);
        let mut b = Rng64::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng64::new(1);
        let mut b = Rng64::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn below_in_range() {
        let mut r = Rng64::new(7);
        for _ in 0..10_000 {
            let v = r.below(13);
            assert!(v < 13);
        }
    }

    #[test]
    fn below_reaches_all_buckets() {
        let mut r = Rng64::new(99);
        let mut seen = [false; 8];
        for _ in 0..10_000 {
            seen[r.below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn f64_unit_in_unit_interval() {
        let mut r = Rng64::new(3);
        for _ in 0..10_000 {
            let v = r.f64_unit();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn forked_streams_are_independent() {
        let mut root = Rng64::new(5);
        let mut a = root.fork(0);
        let mut b = root.fork(1);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 3);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng64::new(11);
        let mut xs: Vec<u32> = (0..100).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_prefers_head() {
        let z = ZipfSampler::new(1000, 1.0);
        let mut r = Rng64::new(17);
        let mut head = 0usize;
        const N: usize = 20_000;
        for _ in 0..N {
            if z.sample(&mut r) < 10 {
                head += 1;
            }
        }
        // With s=1 over 1000 elements the top-10 mass is ~39%.
        assert!(head > N / 4, "head mass too small: {head}/{N}");
    }

    #[test]
    fn zipf_zero_exponent_is_uniformish() {
        let z = ZipfSampler::new(10, 0.0);
        let mut r = Rng64::new(23);
        let mut counts = [0usize; 10];
        for _ in 0..50_000 {
            counts[z.sample(&mut r)] += 1;
        }
        for &c in &counts {
            assert!((3500..6500).contains(&c), "not uniform: {counts:?}");
        }
    }

    #[test]
    fn zipf_tables_fit_in_one_f64_cdf() {
        for n in (1..=64).chain([1000, 16_384, 16_385, 100_003]) {
            let z = ZipfSampler::new(n, 1.0);
            assert_eq!(z.table.len(), 8 * n);
            assert!(z.guide_at() + 4 * z.buckets() <= 8 * n, "n={n}");
        }
    }

    #[test]
    fn zipf_index_spans_the_support_monotonically() {
        for (n, s) in [(1, 0.0), (7, 0.0), (100, 1.2), (5000, 3.0)] {
            let z = ZipfSampler::new(n, s);
            assert_eq!(z.index(0), 0);
            assert_eq!(z.index((1 << 53) - 1), n - 1);
            let mut r = Rng64::new(n as u64);
            let mut ms: Vec<u64> = (0..2000).map(|_| r.next_u64() >> 11).collect();
            ms.sort_unstable();
            let idx: Vec<usize> = ms.iter().map(|&m| z.index(m)).collect();
            assert!(idx.windows(2).all(|w| w[0] <= w[1]), "n={n} s={s}");
        }
    }

    #[test]
    fn zipf_single_element() {
        let z = ZipfSampler::new(1, 1.5);
        let mut r = Rng64::new(1);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut r), 0);
        }
    }
}
