//! Seeded input generation: SplitMix64 streams and a Zipf sampler.
//! Dependency-free so the same seed gives the same inputs on every host.

/// SplitMix64 generator.
pub struct Rng(u64);

impl Rng {
    /// An independent stream derived from `seed` and a tag.
    pub fn derived(seed: u64, tag: u64) -> Self {
        let mut r = Rng(seed ^ 0x5851_f42d_4c95_7f2d ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }
}

/// Zipf(s) sampler over ranks `0..n` via the cumulative weight table.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|rank| {
                acc += 1.0 / ((rank + 1) as f64).powf(s);
                acc
            })
            .collect();
        for w in &mut cdf {
            *w /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}
