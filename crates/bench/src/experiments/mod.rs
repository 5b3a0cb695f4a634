//! One module per paper table/figure, plus ablations, and [`ALL`]: the
//! one list of them `run_all` selects from and writes `EXPERIMENTS.md`
//! from.

use crate::util::{Scale, Table};

mod ablations;
mod common;
mod fig10_bandwidth;
mod fig5_size;
mod fig6_psnr;
mod fig7_visuals;
mod fig8a_edges;
mod fig8b_faces;
mod fig8c_sift;
mod fig8d_recognition;
mod fig9_edge_visuals;
mod tbl_attack;
mod tbl_reconstruction;

/// One experiment `run_all` regenerates, by name or with all the others.
pub struct Experiment {
    /// The name `run_all <name>` selects it by.
    pub name: &'static str,
    /// Its section heading in `EXPERIMENTS.md`.
    pub heading: &'static str,
    /// What the paper claims, and any deviation note (markdown).
    pub paper: &'static str,
    /// Run it at a scale: its tables print and are saved as `.txt` files
    /// under [`crate::util::output_dir`], its images are written there,
    /// and the tables come back.
    pub run: fn(Scale) -> Vec<Table>,
}

/// Every experiment, in `EXPERIMENTS.md` order.
pub const ALL: &[Experiment] = &[
    Experiment {
        name: "fig5_threshold_size",
        heading: "Figure 5 — threshold vs normalized size",
        paper: "Paper: combined ≈ 1.2× at T=1 (public ≈ secret ≈ 50% of total); at the \
                T=15–20 knee the secret is ≈ 20% of the original and total overhead 5–10%.",
        run: fig5_size::run,
    },
    Experiment {
        name: "fig6_psnr",
        heading: "Figure 6 — threshold vs PSNR",
        paper: "Paper: public ≈ 10–15 dB flat; secret ≈ 35–40 dB.",
        run: fig6_psnr::run,
    },
    Experiment {
        name: "fig7_visuals",
        heading: "Figure 7 — visual outputs",
        paper: "PPM files under `target/experiments/fig7`: the original and its \
                public/secret pairs at T ∈ {1,5,10,15,20}.",
        run: fig7_visuals::run,
    },
    Experiment {
        name: "fig8a_edges",
        heading: "Figure 8a — edge-detection attack",
        paper: "Paper: ≈ 20% matching pixels below T=20, spurious-match bump at very low T, \
                rising toward 100% as T grows. (Our Canny finds *no* edges at all in the \
                near-noise public parts rather than spurious ones — a stricter version \
                of the same collapse; the rising tail above T=30 matches.)",
        run: fig8a_edges::run,
    },
    Experiment {
        name: "fig8b_face_detection",
        heading: "Figure 8b — face-detection attack",
        paper: "Paper: detection completely foiled below T≈20, occasional detections above \
                T≈35; originals ≈ 1+ faces/image.",
        run: fig8b_faces::run,
    },
    Experiment {
        name: "fig8c_sift",
        heading: "Figure 8c — SIFT attack",
        paper: "Paper: no features below T=10; ≈ 25% detected below T=20; matched fraction \
                ≤ 4% even at T=100.",
        run: fig8c_sift::run,
    },
    Experiment {
        name: "fig8d_face_recognition",
        heading: "Figure 8d — face-recognition attack (CMC)",
        paper: "Paper: Normal-Normal > 80% rank-1; T ≤ 20 public attacks < 20% rank-1; \
                T=20 reaches only ≈ 45% by rank 50.\n\n\
                *Deviation note:* our Public-Public curves run higher than the paper's. \
                The synthetic identities differ partly in coarse geometry (face/eye \
                ellipse sizes) whose low-magnitude AC signature survives below the \
                threshold, and a PCA retrained on that residual distribution exploits \
                it. Real FERET identity cues live predominantly in DC-and-large-AC \
                detail, which P3 removes — so treat Normal-Public here as the \
                comparable series, and Public-Public as an upper bound under an \
                unusually favourable identity model.",
        run: fig8d_recognition::run,
    },
    Experiment {
        name: "fig9_edge_visuals",
        heading: "Figure 9 — edge maps",
        paper: "PGM files under `target/experiments/fig9`: Canny edge maps of four \
                originals and of their public parts at T ∈ {1,20}.",
        run: fig9_edge_visuals::run,
    },
    Experiment {
        name: "fig10_bandwidth",
        heading: "Figure 10 — bandwidth usage cost",
        paper: "Paper: ≤ 20 KB overhead across resolutions for T in 10–20.",
        run: fig10_bandwidth::run,
    },
    Experiment {
        name: "tbl_reconstruction",
        heading: "§5.3 — reconstruction accuracy",
        paper: "*Deviation note:* the PSP serves its small rung (130 px Facebook, \
                240 px Flickr), which every corpus photo is larger than, so its hidden \
                filter and unsharp act. The search scores candidates against the served \
                public part and does not recover Facebook's Lanczos3 (it picks Mitchell \
                or Triangle for every photo); reconstructing with the true pipeline \
                instead gives 40.0 dB Facebook and 45.6 dB Flickr on this corpus, so the \
                search costs about 1 dB and 0.1 dB. Both beat the paper's 34.4/39.8 dB \
                because the simulated PSP only resizes, sharpens and re-encodes, with no \
                colour adjustment, where the paper searched ImageMagick approximations \
                of unknown production pipelines. The ordering (known ≥ \
                reverse-engineered ≫ public alone) is the reproducible shape.",
        run: tbl_reconstruction::run,
    },
    Experiment {
        name: "tbl_guessing_attack",
        heading: "§3.4 — guessing attack",
        paper: "Paper argument: best attacker MSE is T² (zero replacement); any non-zero \
                guess ≥ 2T² because signs are hidden.",
        run: tbl_attack::run,
    },
    Experiment {
        name: "tbl_ablations",
        heading: "Ablations",
        paper: "Not in the paper: what DC extraction, sign hiding and optimized Huffman \
                tables each buy.",
        run: ablations::run,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = ALL.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL.len(), "duplicate experiment name in ALL");
    }
}
