//! Seeded input generators. The seed decides every draw; the shares of
//! operation kinds are exact per hundred operations, so no percentile
//! rides on how many slow operations a seed happened to draw.

/// splitmix64-seeded xorshift64*: small, fast, and the benchmark's own,
/// so the stream never changes under it.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A seeded permutation of `0..n`.
pub fn permutation(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    order
}

/// Zipf ranks `0..n` with exponent `s`, from a cumulative table. (The
/// repo's `p3_datasets::synth::Zipf` owns a generator of the repo's; this
/// one draws from the benchmark's, so a seed means the same stream
/// whatever the program becomes.)
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|i| {
                acc += 1.0 / ((i + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// Operation kinds in exact shares: every block of `sum(counts)` draws
/// holds each kind exactly `count` times, in a seeded order.
#[derive(Debug, Clone)]
pub struct StratifiedMix<K: Copy> {
    block: Vec<K>,
    at: usize,
    rng: Rng,
}

impl<K: Copy> StratifiedMix<K> {
    pub fn new(counts: &[(K, usize)], rng: Rng) -> StratifiedMix<K> {
        let block: Vec<K> = counts.iter().flat_map(|&(k, n)| std::iter::repeat_n(k, n)).collect();
        assert!(!block.is_empty(), "a mix needs at least one kind");
        let at = block.len();
        StratifiedMix { block, at, rng }
    }

    pub fn draw(&mut self) -> K {
        if self.at == self.block.len() {
            self.rng.shuffle(&mut self.block);
            self.at = 0;
        }
        self.at += 1;
        self.block[self.at - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zipf_stream(seed: u64) -> Vec<usize> {
        let z = Zipf::new(48, 1.1);
        let mut rng = Rng::new(seed);
        (0..500).map(|_| z.draw(&mut rng)).collect()
    }

    fn mix_stream(seed: u64) -> Vec<char> {
        let mut mix = StratifiedMix::new(&[('g', 90), ('p', 7), ('d', 3)], Rng::new(seed));
        (0..300).map(|_| mix.draw()).collect()
    }

    #[test]
    fn generators_repeat_per_seed_and_differ_across_seeds() {
        assert_eq!(zipf_stream(7), zipf_stream(7));
        assert_ne!(zipf_stream(7), zipf_stream(8));
        assert_eq!(mix_stream(7), mix_stream(7));
        assert_ne!(mix_stream(7), mix_stream(8));
        let perm = |seed| permutation(64, &mut Rng::new(seed));
        assert_eq!(perm(7), perm(7));
        assert_ne!(perm(7), perm(8));
    }

    #[test]
    fn zipf_favours_low_ranks_and_stays_in_range() {
        let draws = zipf_stream(3);
        assert!(draws.iter().all(|&r| r < 48));
        let head = draws.iter().filter(|&&r| r < 4).count();
        assert!(head > draws.len() / 3, "ranks 0..4 carry ~45% of Zipf(1.1) over 48: got {head}");
    }

    #[test]
    fn mix_is_exact_per_hundred() {
        let stream = mix_stream(11);
        for block in stream.chunks(100) {
            assert_eq!(block.iter().filter(|&&k| k == 'g').count(), 90);
            assert_eq!(block.iter().filter(|&&k| k == 'p').count(), 7);
            assert_eq!(block.iter().filter(|&&k| k == 'd').count(), 3);
        }
    }

    #[test]
    fn permutation_visits_everything_once() {
        let mut p = permutation(64, &mut Rng::new(5));
        p.sort_unstable();
        assert_eq!(p, (0..64).collect::<Vec<_>>());
    }
}
