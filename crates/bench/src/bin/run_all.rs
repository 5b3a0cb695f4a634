//! Regenerate every table and figure, then rewrite `EXPERIMENTS.md` with
//! paper-vs-measured values — or, given experiment names, regenerate
//! just those (their tables print; `EXPERIMENTS.md` is left alone).
//!
//! ```text
//! cargo run --release -p p3-bench --bin run_all            # quick scale
//! P3_SCALE=full cargo run --release -p p3-bench --bin run_all
//! cargo run --release -p p3-bench --bin run_all -- fig5_threshold_size tbl_ablations
//! ```

use p3_bench::experiments as ex;
use p3_bench::Scale;
use std::fmt::Write as _;

/// An experiment `run_all <name>…` can regenerate on its own.
type Experiment = (&'static str, fn(Scale));

const EXPERIMENTS: &[Experiment] = &[
    ("fig5_threshold_size", |s| _ = ex::fig5_size::run(s)),
    ("fig6_psnr", |s| _ = ex::fig6_psnr::run(s)),
    ("fig7_visuals", |s| _ = ex::fig7_visuals::run(s)),
    ("fig8a_edges", |s| _ = ex::fig8a_edges::run(s)),
    ("fig8b_face_detection", |s| _ = ex::fig8b_faces::run(s)),
    ("fig8c_sift", |s| _ = ex::fig8c_sift::run(s)),
    ("fig8d_face_recognition", |s| _ = ex::fig8d_recognition::run(s)),
    ("fig9_edge_visuals", |s| _ = ex::fig9_edge_visuals::run(s)),
    ("fig10_bandwidth", |s| _ = ex::fig10_bandwidth::run(s)),
    ("tbl_reconstruction", |s| _ = ex::tbl_reconstruction::run(s)),
    ("tbl_guessing_attack", |s| _ = ex::tbl_attack::run(s)),
    ("tbl_ablations", |s| _ = ex::ablations::run(s)),
];

fn main() {
    let scale = Scale::from_env();
    let wanted: Vec<String> = std::env::args().skip(1).collect();
    if !wanted.is_empty() {
        let mut chosen = Vec::with_capacity(wanted.len());
        for name in &wanted {
            match EXPERIMENTS.iter().find(|(known, _)| known == name) {
                Some((_, run)) => chosen.push(run),
                None => {
                    let valid: Vec<&str> = EXPERIMENTS.iter().map(|(known, _)| *known).collect();
                    eprintln!("error: unknown experiment {name:?}; valid: {}", valid.join(" "));
                    std::process::exit(2);
                }
            }
        }
        for run in chosen {
            run(scale);
        }
        return;
    }
    eprintln!("running all experiments at {scale:?} scale…");

    let fig5 = ex::fig5_size::run(scale);
    let fig6 = ex::fig6_psnr::run(scale);
    let _fig7 = ex::fig7_visuals::run(scale);
    let fig8a = ex::fig8a_edges::run(scale);
    let fig8b = ex::fig8b_faces::run(scale);
    let fig8c = ex::fig8c_sift::run(scale);
    let fig8d = ex::fig8d_recognition::run(scale);
    let _fig9 = ex::fig9_edge_visuals::run(scale);
    let fig10 = ex::fig10_bandwidth::run(scale);
    let recon = ex::tbl_reconstruction::run(scale);
    let attack = ex::tbl_attack::run(scale);
    let ablations = ex::ablations::run(scale);

    // ---- EXPERIMENTS.md ---------------------------------------------------
    let mut md = String::new();
    let _ = writeln!(md, "# EXPERIMENTS — paper vs. measured\n");
    let _ = writeln!(
        md,
        "Generated by `cargo run --release -p p3-bench --bin run_all` at `{scale:?}` \
         scale (set `P3_SCALE=full` for paper-sized corpora). All corpora are \
         deterministic synthetic analogues (see ARCHITECTURE.md § Crate \
         responsibilities); absolute numbers therefore differ from the paper, \
         while the *shapes* — who wins, by what factor, where the knees fall — \
         are the reproduction targets.\n"
    );

    let _ = writeln!(md, "## Figure 5 — threshold vs normalized size\n");
    let _ = writeln!(
        md,
        "Paper: combined ≈ 1.2× at T=1 (public ≈ secret ≈ 50% of total); at the \
         T=15–20 knee the secret is ≈ 20% of the original and total overhead 5–10%.\n"
    );
    for sweep in &fig5 {
        let _ = writeln!(md, "**{}**\n", sweep.dataset);
        let _ = writeln!(md, "| T | public | secret | combined |");
        let _ = writeln!(md, "|---|---|---|---|");
        for p in &sweep.points {
            let _ =
                writeln!(md, "| {} | {:.3} | {:.3} | {:.3} |", p.t, p.public, p.secret, p.combined);
        }
        let _ = writeln!(md);
    }

    let _ = writeln!(md, "## Figure 6 — threshold vs PSNR\n");
    let _ = writeln!(md, "Paper: public ≈ 10–15 dB flat; secret ≈ 35–40 dB.\n");
    for sweep in &fig6 {
        let _ = writeln!(md, "**{}**\n", sweep.dataset);
        let _ = writeln!(md, "| T | public dB | secret dB |");
        let _ = writeln!(md, "|---|---|---|");
        for p in &sweep.points {
            let _ = writeln!(md, "| {} | {:.1} | {:.1} |", p.t, p.public, p.secret);
        }
        let _ = writeln!(md);
    }

    let _ = writeln!(md, "## Figure 7 / Figure 9 — visual outputs\n");
    let _ = writeln!(
        md,
        "PPM/PGM files under `target/experiments/fig7` and `fig9`: public/secret \
         pairs at T ∈ {{1,5,10,15,20}} and Canny edge maps at T ∈ {{1,20}}.\n"
    );

    let _ = writeln!(md, "## Figure 8a — edge-detection attack\n");
    let _ = writeln!(
        md,
        "Paper: ≈ 20% matching pixels below T=20, spurious-match bump at very low T, \
         rising toward 100% as T grows. (Our Canny finds *no* edges at all in the \
         near-noise public parts rather than spurious ones — a stricter version \
         of the same collapse; the rising tail above T=30 matches.)\n"
    );
    let _ = writeln!(md, "| T | match % |");
    let _ = writeln!(md, "|---|---|");
    for p in &fig8a {
        let _ = writeln!(md, "| {} | {:.1} |", p.t, p.match_ratio);
    }

    let _ = writeln!(md, "\n## Figure 8b — face-detection attack\n");
    let _ = writeln!(
        md,
        "Paper: detection completely foiled below T≈20, occasional detections above \
         T≈35; originals ≈ 1+ faces/image. Measured original baseline: {:.2} \
         (ground truth {:.2}).\n",
        fig8b.detected_original, fig8b.actual_faces
    );
    let _ = writeln!(md, "| T | faces detected on public part |");
    let _ = writeln!(md, "|---|---|");
    for p in &fig8b.points {
        let _ = writeln!(md, "| {} | {:.3} |", p.t, p.detected_public);
    }

    let _ = writeln!(md, "\n## Figure 8c — SIFT attack\n");
    let _ = writeln!(
        md,
        "Paper: no features below T=10; ≈ 25% detected below T=20; matched fraction \
         ≤ 4% even at T=100.\n"
    );
    let _ = writeln!(md, "| T | detected (norm) | matched (norm) |");
    let _ = writeln!(md, "|---|---|---|");
    for p in &fig8c {
        let _ = writeln!(md, "| {} | {:.3} | {:.3} |", p.t, p.detected_norm, p.matched_norm);
    }

    let _ = writeln!(md, "\n## Figure 8d — face-recognition attack (CMC)\n");
    let _ = writeln!(
        md,
        "Paper: Normal-Normal > 80% rank-1; T ≤ 20 public attacks < 20% rank-1; \
         T=20 reaches only ≈ 45% by rank 50.\n\n\
         *Deviation note:* our Public-Public curves run higher than the paper's. \
         The synthetic identities differ partly in coarse geometry (face/eye \
         ellipse sizes) whose low-magnitude AC signature survives below the \
         threshold, and a PCA retrained on that residual distribution exploits \
         it. Real FERET identity cues live predominantly in DC-and-large-AC \
         detail, which P3 removes — so treat Normal-Public here as the \
         comparable series, and Public-Public as an upper bound under an \
         unusually favourable identity model.\n"
    );
    let _ = writeln!(md, "| curve | rank-1 | rank-5 | rank-10 |");
    let _ = writeln!(md, "|---|---|---|---|");
    for c in &fig8d {
        let r5 = c.curve.get(4).copied().unwrap_or(f64::NAN);
        let r10 = c.curve.get(9).copied().unwrap_or(f64::NAN);
        let _ = writeln!(md, "| {} | {:.3} | {:.3} | {:.3} |", c.label, c.curve[0], r5, r10);
    }

    let _ = writeln!(md, "\n## Figure 10 — bandwidth usage cost\n");
    let _ = writeln!(md, "Paper: ≤ 20 KB overhead across resolutions for T in 10–20.\n");
    let _ = writeln!(md, "| T | uploaded KB | ovh 720 KB | ovh 130 KB | ovh 75 KB |");
    let _ = writeln!(md, "|---|---|---|---|---|");
    for p in &fig10 {
        let _ = writeln!(
            md,
            "| {} | {:.1} | {:.1} | {:.1} | {:.1} |",
            p.t, p.uploaded_kb, p.overhead_kb[0], p.overhead_kb[1], p.overhead_kb[2]
        );
    }

    let _ = writeln!(md, "\n## §5.3 — reconstruction accuracy\n");
    let _ = writeln!(
        md,
        "*Deviation note:* our reverse-engineered reconstructions beat the \
         paper's 34–40 dB because the proxy's candidate grid draws from the \
         same filter/sharpen/gamma families the PSP simulator uses — the paper \
         searched ImageMagick approximations of an unknown production \
         pipeline. The ordering (known ≥ reverse-engineered ≫ public alone) is \
         the reproducible shape.\n"
    );
    let _ = writeln!(md, "| setting | paper dB | measured dB |");
    let _ = writeln!(md, "|---|---|---|");
    let _ = writeln!(md, "| known transforms | 49.2 | {:.1} |", recon.known_db);
    let _ =
        writeln!(md, "| Facebook profile (reverse-engineered) | 34.4 | {:.1} |", recon.facebook_db);
    let _ = writeln!(md, "| Flickr profile (reverse-engineered) | 39.8 | {:.1} |", recon.flickr_db);
    let _ = writeln!(md, "| public part alone (context) | — | {:.1} |", recon.public_only_db);

    let _ = writeln!(md, "\n## §3.4 — guessing attack\n");
    let _ = writeln!(
        md,
        "Paper argument: best attacker MSE is T² (zero replacement); any non-zero \
         guess ≥ 2T² because signs are hidden.\n"
    );
    let _ = writeln!(md, "| T | guess rate | MSE zero | MSE keep +T | MSE random ±T |");
    let _ = writeln!(md, "|---|---|---|---|---|");
    for p in &attack {
        let _ = writeln!(
            md,
            "| {} | {:.0}% | {:.1} | {:.1} | {:.1} |",
            p.t,
            p.guess_rate * 100.0,
            p.mse_zero,
            p.mse_keep,
            p.mse_random
        );
    }

    let _ = writeln!(md, "\n## Ablations\n");
    let _ = writeln!(
        md,
        "| T | P3 public dB | DC kept dB | sign leaked dB | size opt | size Annex-K |"
    );
    let _ = writeln!(md, "|---|---|---|---|---|---|");
    for r in &ablations {
        let _ = writeln!(
            md,
            "| {} | {:.1} | {:.1} | {:.1} | {:.3} | {:.3} |",
            r.t,
            r.public_psnr,
            r.public_psnr_dc_kept,
            r.public_psnr_sign_leak,
            r.combined_optimized,
            r.combined_default
        );
    }

    let _ = writeln!(
        md,
        "\n## §5.3 — processing costs\n\nRun `cargo bench -p p3-bench` (Criterion; \
         results land in `bench_output.txt`). Paper (Galaxy S3, 720×720): split \
         ≈ 152 ms, AES ≈ 55 ms, reconstruction ≈ 191 ms. Shapes to verify: \
         split < reconstruct; AES cheapest by far.\n"
    );

    let path = std::path::Path::new("EXPERIMENTS.md");
    std::fs::write(path, &md).expect("write EXPERIMENTS.md");
    eprintln!("wrote {}", path.display());
}
