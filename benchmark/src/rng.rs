//! The benchmark's own random numbers: every request stream is a pure
//! function of `--seed`, and nothing here depends on the repo's crates
//! (a change to `dego-metrics::rng` must not move a workload).

/// xorshift64* (Vigna 2016): 64 bits of state, passes BigCrush on the
/// high bits, and is a dozen instructions per draw.
#[derive(Clone, Debug)]
pub struct XorShift(u64);

impl XorShift {
    /// Seed through splitmix64 so nearby seeds give unrelated streams
    /// and seed 0 does not stick at the all-zero fixed point.
    pub fn new(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        XorShift((z ^ (z >> 31)) | 1)
    }

    /// A stream for one (seed, workload, connection, purpose) tuple.
    pub fn derive(seed: u64, salt: &[u64]) -> Self {
        let mut rng = XorShift::new(seed);
        for s in salt {
            rng = XorShift::new(rng.next_u64() ^ s.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        }
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-32 for
    /// every `n` the workloads use).
    pub fn below(&mut self, n: u64) -> u64 {
        (((self.next_u64() >> 32) * n) >> 32).min(n - 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf over ranks `0..n` with exponent `alpha`, by inverse CDF lookup.
/// Built once per stream; only pool generation draws from it, never a
/// measured loop.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, alpha: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut sum = 0.0;
        for rank in 1..=n {
            sum += 1.0 / (rank as f64).powf(alpha);
            cdf.push(sum);
        }
        for c in &mut cdf {
            *c /= sum;
        }
        Zipf { cdf }
    }

    /// A rank in `0..n`; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut XorShift) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|c| *c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_seeds_differ() {
        let mut a = XorShift::derive(7, &[1, 2]);
        let mut b = XorShift::derive(7, &[1, 2]);
        let mut c = XorShift::derive(8, &[1, 2]);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = XorShift::new(3);
        for n in [1u64, 2, 7, 4096, 20_000] {
            for _ in 0..1000 {
                assert!(rng.below(n) < n);
            }
        }
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let zipf = Zipf::new(1000, 1.0);
        let mut rng = XorShift::new(11);
        let mut head = 0;
        for _ in 0..10_000 {
            let r = zipf.sample(&mut rng);
            assert!(r < 1000);
            if r < 10 {
                head += 1;
            }
        }
        // H(10)/H(1000) = 2.93/7.49 = 39% of the mass sits on the top ten.
        assert!((3400..4400).contains(&head), "top-ten picks {head}");
    }
}
