//! §3.4 — the guessing attack, measured.
//!
//! Replays the paper's adversary on real splits: guess the threshold
//! from the public histogram, then compare the attacker's options on the
//! clipped positions (zero-replacement vs keeping +T vs random sign).

use crate::experiments::common::{prepare, PreparedImage};
use crate::util::{f1, mean_std, Scale, Table};
use p3_core::attack::{
    guess_threshold, guess_threshold_most_frequent, nonzero_guess_mse_lower_bound, sign_attack,
    zero_guess_mse,
};
use p3_core::split::split_coeffs;

/// Results per threshold.
#[derive(Debug, Clone)]
struct AttackPoint {
    /// True threshold.
    t: u16,
    /// Fraction of images where the spike-detector attacker recovers T.
    guess_rate: f64,
    /// Fraction using the paper's most-frequent heuristic.
    guess_rate_paper: f64,
    /// Mean empirical MSE of zero-replacement on clipped positions.
    mse_zero: f64,
    /// Mean empirical MSE of keeping +T.
    mse_keep: f64,
    /// Mean empirical MSE of random-sign ±T.
    mse_random: f64,
}

/// Run the attack sweep.
fn sweep(images: &[PreparedImage], thresholds: &[u16]) -> Vec<AttackPoint> {
    let mut out = Vec::new();
    for &t in thresholds {
        let mut hits = 0usize;
        let mut hits_paper = 0usize;
        let mut zeros = Vec::new();
        let mut keeps = Vec::new();
        let mut randoms = Vec::new();
        for img in images {
            let (public, _, _) = split_coeffs(&img.coeffs, t).expect("split");
            if guess_threshold(&public) == Some(t) {
                hits += 1;
            }
            if guess_threshold_most_frequent(&public) == Some(t) {
                hits_paper += 1;
            }
            let report = sign_attack(&img.coeffs, &public, t);
            if report.clipped_positions > 0 {
                zeros.push(report.mse_zero);
                keeps.push(report.mse_keep_t);
                randoms.push(report.mse_random_sign);
            }
        }
        out.push(AttackPoint {
            t,
            guess_rate: hits as f64 / images.len() as f64,
            guess_rate_paper: hits_paper as f64 / images.len() as f64,
            mse_zero: mean_std(&zeros).0,
            mse_keep: mean_std(&keeps).0,
            mse_random: mean_std(&randoms).0,
        });
    }
    out
}

/// Run and print the table.
pub fn run(scale: Scale) -> Vec<Table> {
    let images = prepare(p3_datasets::usc_sipi_like(scale.usc_count(), 1));
    let points = sweep(&images, &[5, 10, 15, 20]);
    let mut table = Table::new(
        "Guessing attack (§3.4): threshold recovery and sign-blind MSE (quantized units)",
        &[
            "T",
            "guess%",
            "guess% (paper)",
            "MSE zero",
            "MSE keep+T",
            "MSE ±T",
            "T² bound",
            "2T² bound",
        ],
    );
    for p in &points {
        table.row(vec![
            p.t.to_string(),
            f1(p.guess_rate * 100.0),
            f1(p.guess_rate_paper * 100.0),
            f1(p.mse_zero),
            f1(p.mse_keep),
            f1(p.mse_random),
            f1(zero_guess_mse(p.t)),
            f1(nonzero_guess_mse_lower_bound(p.t)),
        ]);
    }
    table.emit("tbl_guessing_attack");
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attacker_best_option_is_zero_replacement() {
        let images = prepare(p3_datasets::usc_sipi_like(3, 1));
        let points = sweep(&images, &[10]);
        let p = &points[0];
        assert!(p.guess_rate >= 0.5, "spike attacker should usually recover T: {}", p.guess_rate);
        assert!(p.mse_zero < p.mse_random, "zero {} !< random {}", p.mse_zero, p.mse_random);
        assert!(p.mse_zero < p.mse_keep, "zero {} !< keep {}", p.mse_zero, p.mse_keep);
    }
}
