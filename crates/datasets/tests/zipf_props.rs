//! Property tests for the Zipfian popularity sampler: the workload
//! model `p3 simulate` trusts for its latency-under-load numbers.

use p3_datasets::synth::Zipf;
use proptest::prelude::*;

/// Total probability mass of ranks `0..k` (the "head").
fn head_mass(z: &Zipf, k: usize) -> f64 {
    (0..k).map(|rank| z.weight(rank)).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Rank-frequency must be monotone non-increasing: rank i is never
    /// less probable than rank i+1, across exponents and sizes.
    #[test]
    fn rank_frequency_is_monotone(n in 2usize..500, exp_millis in 0u32..3000) {
        let z = Zipf::new(n, f64::from(exp_millis) / 1000.0, 1);
        for i in 1..n {
            prop_assert!(
                z.weight(i) <= z.weight(i - 1) + 1e-12,
                "rank {} weight {} > rank {} weight {}",
                i, z.weight(i), i - 1, z.weight(i - 1)
            );
        }
        // And the masses form a distribution.
        prop_assert!((head_mass(&z, n) - 1.0).abs() < 1e-9);
    }

    /// Same (n, exponent, seed) → byte-identical draw sequence; a
    /// different seed must diverge somewhere.
    #[test]
    fn same_seed_same_sequence(n in 2usize..2000, seed in any::<u64>()) {
        let draws = |s: u64| -> Vec<usize> {
            let mut z = Zipf::new(n, 1.1, s);
            (0..200).map(|_| z.next_rank()).collect()
        };
        prop_assert_eq!(draws(seed), draws(seed));
        let other = draws(seed.wrapping_add(1));
        let same = draws(seed);
        prop_assert!(same.iter().zip(&other).any(|(a, b)| a != b),
                     "independent seeds produced identical 200-draw sequences");
    }

    /// Empirical head mass tracks the analytic mass for the configured
    /// exponent: heavier exponents concentrate more of the draws in the
    /// top ranks, within sampling tolerance.
    #[test]
    fn tail_mass_matches_exponent(exp_centis in 50u32..250, seed in any::<u64>()) {
        let n = 1000usize;
        let exponent = f64::from(exp_centis) / 100.0;
        let mut z = Zipf::new(n, exponent, seed);
        let head = n / 10;
        let draws = 4000usize;
        let mut hits = 0usize;
        for _ in 0..draws {
            if z.next_rank() < head {
                hits += 1;
            }
        }
        let empirical = hits as f64 / draws as f64;
        let analytic = head_mass(&z, head);
        // Binomial stddev is at most 0.5/sqrt(draws) ≈ 0.008; allow 5σ.
        prop_assert!(
            (empirical - analytic).abs() < 0.04,
            "exponent {exponent}: empirical head mass {empirical:.4} vs analytic {analytic:.4}"
        );
    }
}

#[test]
fn zipf_draws_stay_in_range_and_skew() {
    let mut z = Zipf::new(1_000_000, 1.0, 7);
    let mut top10 = 0usize;
    for _ in 0..10_000 {
        let r = z.next_rank();
        assert!(r < 1_000_000);
        if r < 10 {
            top10 += 1;
        }
    }
    // With s=1.0 over 1M items, the top 10 ranks carry ~20% of the mass.
    let analytic = head_mass(&z, 10);
    assert!(analytic > 0.15 && analytic < 0.25, "head mass {analytic}");
    let empirical = top10 as f64 / 10_000.0;
    assert!((empirical - analytic).abs() < 0.05, "{empirical} vs {analytic}");
}
