//! Eigenfaces (Turk & Pentland, 1991) with the CSU-style evaluation the
//! paper uses for Figure 8(d).
//!
//! The paper evaluates face recognition with the Eigenface algorithm and
//! two distance metrics — Euclidean and Mahalanobis Cosine — reporting
//! cumulative match characteristic (CMC) curves: "a data point at (x, y)
//! means that y% of the time, the correct answer is contained in the top
//! x answers". This module implements PCA training (via the N×N Gram
//! matrix trick + a Jacobi eigensolver), subspace projection, both
//! distances, and [`cmc_curve`].

use crate::image::ImageF32;

/// Distance metric in the PCA subspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distance {
    /// Plain Euclidean distance between coefficient vectors.
    Euclidean,
    /// Mahalanobis Cosine (CSU): coefficients whitened by 1/√λ, then
    /// negative cosine similarity.
    MahalanobisCosine,
}

/// A trained eigenface subspace.
#[derive(Debug, Clone)]
pub struct EigenfaceModel {
    /// Image width all faces must share.
    pub width: usize,
    /// Image height.
    pub height: usize,
    /// Mean face (length `width*height`).
    pub mean: Vec<f32>,
    /// Eigenfaces, one per retained component (each length `width*height`,
    /// unit norm), sorted by decreasing eigenvalue.
    pub basis: Vec<Vec<f32>>,
    /// Eigenvalues matching `basis`.
    pub eigenvalues: Vec<f32>,
}

/// Jacobi eigensolver for symmetric matrices (returns eigenvalues and
/// eigenvectors as columns).
// Index loops mirror the textbook rotation formulas (paired reads and
// writes across two rows/columns at once); iterator forms would
// obscure the algebra.
#[allow(clippy::needless_range_loop)]
fn jacobi_eigen(mut a: Vec<Vec<f64>>) -> (Vec<f64>, Vec<Vec<f64>>) {
    let n = a.len();
    let mut v = vec![vec![0f64; n]; n];
    for (i, row) in v.iter_mut().enumerate() {
        row[i] = 1.0;
    }
    for _sweep in 0..100 {
        // Largest off-diagonal element.
        let mut off = 0f64;
        for i in 0..n {
            for j in i + 1..n {
                off += a[i][j] * a[i][j];
            }
        }
        if off < 1e-18 {
            break;
        }
        for p in 0..n {
            for q in p + 1..n {
                if a[p][q].abs() < 1e-15 {
                    continue;
                }
                let theta = (a[q][q] - a[p][p]) / (2.0 * a[p][q]);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                for k in 0..n {
                    let akp = a[k][p];
                    let akq = a[k][q];
                    a[k][p] = c * akp - s * akq;
                    a[k][q] = s * akp + c * akq;
                }
                for k in 0..n {
                    let apk = a[p][k];
                    let aqk = a[q][k];
                    a[p][k] = c * apk - s * aqk;
                    a[q][k] = s * apk + c * aqk;
                }
                for k in 0..n {
                    let vkp = v[k][p];
                    let vkq = v[k][q];
                    v[k][p] = c * vkp - s * vkq;
                    v[k][q] = s * vkp + c * vkq;
                }
            }
        }
    }
    let eigenvalues: Vec<f64> = (0..n).map(|i| a[i][i]).collect();
    (eigenvalues, v)
}

impl EigenfaceModel {
    /// Train a PCA subspace from equally-sized face images, keeping the
    /// top `k` components (capped at `n_samples - 1`).
    ///
    /// Uses the Gram-matrix trick: for N images of dimension D (N ≪ D) the
    /// eigenvectors of the D×D covariance are recovered from the N×N inner
    /// product matrix.
    pub fn train(faces: &[ImageF32], k: usize) -> Option<EigenfaceModel> {
        let n = faces.len();
        if n < 2 {
            return None;
        }
        let width = faces[0].width;
        let height = faces[0].height;
        let d = width * height;
        if faces.iter().any(|f| f.width != width || f.height != height) {
            return None;
        }
        // Mean face.
        let mut mean = vec![0f32; d];
        for f in faces {
            for (m, &v) in mean.iter_mut().zip(f.data.iter()) {
                *m += v;
            }
        }
        for m in mean.iter_mut() {
            *m /= n as f32;
        }
        // Centered data (rows).
        let centered: Vec<Vec<f32>> = faces
            .iter()
            .map(|f| f.data.iter().zip(mean.iter()).map(|(&v, &m)| v - m).collect())
            .collect();
        // Gram matrix G = X Xᵀ / n.
        let mut gram = vec![vec![0f64; n]; n];
        for i in 0..n {
            for j in i..n {
                let dot: f64 = centered[i]
                    .iter()
                    .zip(centered[j].iter())
                    .map(|(&a, &b)| f64::from(a) * f64::from(b))
                    .sum();
                gram[i][j] = dot / n as f64;
                gram[j][i] = gram[i][j];
            }
        }
        let (eigenvalues, eigenvectors) = jacobi_eigen(gram);
        // Sort by eigenvalue descending.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| eigenvalues[b].total_cmp(&eigenvalues[a]));
        let keep = k.min(n - 1);
        let mut basis = Vec::with_capacity(keep);
        let mut vals = Vec::with_capacity(keep);
        for &idx in order.iter().take(keep) {
            let lambda = eigenvalues[idx];
            if lambda <= 1e-9 {
                break;
            }
            // Map Gram eigenvector u to image space: e = Xᵀ u, normalize.
            let mut e = vec![0f32; d];
            for (i, row) in centered.iter().enumerate() {
                let w = eigenvectors[i][idx] as f32;
                if w == 0.0 {
                    continue;
                }
                for (ev, &cv) in e.iter_mut().zip(row.iter()) {
                    *ev += w * cv;
                }
            }
            let norm: f32 = e.iter().map(|v| v * v).sum::<f32>().sqrt();
            if norm < 1e-9 {
                continue;
            }
            for ev in e.iter_mut() {
                *ev /= norm;
            }
            basis.push(e);
            vals.push(lambda as f32);
        }
        if basis.is_empty() {
            return None;
        }
        Some(EigenfaceModel { width, height, mean, basis, eigenvalues: vals })
    }

    /// Project a face into the subspace, producing its coefficient vector.
    fn project(&self, face: &ImageF32) -> Vec<f32> {
        assert_eq!(face.width, self.width, "face width mismatch");
        assert_eq!(face.height, self.height, "face height mismatch");
        let centered: Vec<f32> =
            face.data.iter().zip(self.mean.iter()).map(|(&v, &m)| v - m).collect();
        self.basis
            .iter()
            .map(|e| e.iter().zip(centered.iter()).map(|(&a, &b)| a * b).sum())
            .collect()
    }

    /// Distance between two projected coefficient vectors.
    fn distance(&self, a: &[f32], b: &[f32], metric: Distance) -> f32 {
        match metric {
            Distance::Euclidean => {
                a.iter().zip(b.iter()).map(|(&x, &y)| (x - y) * (x - y)).sum::<f32>().sqrt()
            }
            Distance::MahalanobisCosine => {
                // CSU-style: whiten only well-conditioned components;
                // tiny-eigenvalue axes amplify noise and are dropped.
                let lambda_floor = self.eigenvalues.first().copied().unwrap_or(1.0) * 1e-3;
                let mut dot = 0f32;
                let mut na = 0f32;
                let mut nb = 0f32;
                for ((&x, &y), &l) in a.iter().zip(b.iter()).zip(self.eigenvalues.iter()) {
                    if l < lambda_floor {
                        break;
                    }
                    let s = 1.0 / l.max(1e-9).sqrt();
                    let xw = x * s;
                    let yw = y * s;
                    dot += xw * yw;
                    na += xw * xw;
                    nb += yw * yw;
                }
                if na <= 0.0 || nb <= 0.0 {
                    return 1.0;
                }
                // Negative cosine similarity mapped so smaller = closer.
                -dot / (na.sqrt() * nb.sqrt())
            }
        }
    }
}

/// A labelled gallery of projected faces.
#[derive(Debug, Clone)]
pub struct Gallery {
    /// Identity label per entry.
    pub labels: Vec<usize>,
    /// Projected coefficients per entry.
    pub coeffs: Vec<Vec<f32>>,
}

impl Gallery {
    /// Project and store labelled faces.
    pub fn build(model: &EigenfaceModel, faces: &[(usize, ImageF32)]) -> Gallery {
        let mut labels = Vec::with_capacity(faces.len());
        let mut coeffs = Vec::with_capacity(faces.len());
        for (label, img) in faces {
            labels.push(*label);
            coeffs.push(model.project(img));
        }
        Gallery { labels, coeffs }
    }

    /// Rank gallery entries by distance to the probe; returns identity
    /// labels best-first (duplicate identities collapsed to best rank).
    pub fn rank(&self, model: &EigenfaceModel, probe: &[f32], metric: Distance) -> Vec<usize> {
        let mut scored: Vec<(f32, usize)> = self
            .coeffs
            .iter()
            .zip(self.labels.iter())
            .map(|(c, &l)| (model.distance(probe, c, metric), l))
            .collect();
        scored.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for (_, l) in scored {
            if seen.insert(l) {
                out.push(l);
            }
        }
        out
    }
}

/// Cumulative match characteristic: `out[r]` = fraction of probes whose
/// true identity appears within the top `r+1` ranked answers.
pub fn cmc_curve(
    model: &EigenfaceModel,
    gallery: &Gallery,
    probes: &[(usize, ImageF32)],
    metric: Distance,
    max_rank: usize,
) -> Vec<f64> {
    let mut hits = vec![0usize; max_rank];
    let mut total = 0usize;
    for (label, img) in probes {
        let coeffs = model.project(img);
        let ranking = gallery.rank(model, &coeffs, metric);
        if let Some(pos) = ranking.iter().position(|l| l == label) {
            if pos < max_rank {
                hits[pos] += 1;
            }
        }
        total += 1;
    }
    // Convert per-rank hits into a cumulative curve.
    let mut out = Vec::with_capacity(max_rank);
    let mut acc = 0usize;
    for h in hits {
        acc += h;
        out.push(if total == 0 { 0.0 } else { acc as f64 / total as f64 });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic "identity" images: smooth per-identity pattern + noise.
    fn face(identity: usize, variant: u32, w: usize, h: usize) -> ImageF32 {
        let mut img = ImageF32::new(w, h);
        let fx = 0.15 + identity as f32 * 0.07;
        let fy = 0.23 + identity as f32 * 0.05;
        let mut state = identity as u32 * 7919 + variant * 104729 + 1;
        for y in 0..h {
            for x in 0..w {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                let noise = ((state >> 24) as f32 / 255.0 - 0.5) * 14.0;
                let v = 128.0 + 60.0 * (x as f32 * fx).sin() + 50.0 * (y as f32 * fy).cos() + noise;
                img.set(x, y, v.clamp(0.0, 255.0));
            }
        }
        img
    }

    fn training_set(ids: usize, variants: u32) -> Vec<ImageF32> {
        let mut out = Vec::new();
        for i in 0..ids {
            for v in 0..variants {
                out.push(face(i, v, 24, 24));
            }
        }
        out
    }

    #[test]
    fn jacobi_diagonalizes_known_matrix() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let (vals, vecs) = jacobi_eigen(vec![vec![2.0, 1.0], vec![1.0, 2.0]]);
        let mut sorted = vals.clone();
        sorted.sort_by(|a, b| b.total_cmp(a));
        assert!((sorted[0] - 3.0).abs() < 1e-9);
        assert!((sorted[1] - 1.0).abs() < 1e-9);
        // Eigenvector for λ=3 is (1,1)/√2.
        let idx = if vals[0] > vals[1] { 0 } else { 1 };
        let ratio = vecs[0][idx] / vecs[1][idx];
        assert!((ratio - 1.0).abs() < 1e-6);
    }

    #[test]
    fn train_produces_orthonormal_basis() {
        let faces = training_set(6, 3);
        let model = EigenfaceModel::train(&faces, 10).unwrap();
        assert!(!model.basis.is_empty());
        for i in 0..model.basis.len() {
            let ni: f32 = model.basis[i].iter().map(|v| v * v).sum::<f32>().sqrt();
            assert!((ni - 1.0).abs() < 1e-3, "basis {i} norm {ni}");
            for j in i + 1..model.basis.len() {
                let dot: f32 =
                    model.basis[i].iter().zip(model.basis[j].iter()).map(|(a, b)| a * b).sum();
                assert!(dot.abs() < 1e-2, "basis {i}·{j} = {dot}");
            }
        }
        // Eigenvalues decreasing.
        for w in model.eigenvalues.windows(2) {
            assert!(w[0] >= w[1] - 1e-6);
        }
    }

    #[test]
    fn recognition_on_clean_variants() {
        let ids = 8;
        let gallery_faces: Vec<(usize, ImageF32)> =
            (0..ids).map(|i| (i, face(i, 0, 24, 24))).collect();
        let train: Vec<ImageF32> = training_set(ids, 2);
        let model = EigenfaceModel::train(&train, 12).unwrap();
        let gallery = Gallery::build(&model, &gallery_faces);
        // Probe with different variants of the same identities.
        let mut correct = 0;
        for i in 0..ids {
            let probe = model.project(&face(i, 5, 24, 24));
            let ranking = gallery.rank(&model, &probe, Distance::MahalanobisCosine);
            if ranking[0] == i {
                correct += 1;
            }
        }
        assert!(correct >= ids * 3 / 4, "only {correct}/{ids} rank-1 correct");
    }

    #[test]
    fn cmc_is_monotone_and_bounded() {
        let ids = 6;
        let train = training_set(ids, 2);
        let model = EigenfaceModel::train(&train, 10).unwrap();
        let gallery =
            Gallery::build(&model, &(0..ids).map(|i| (i, face(i, 0, 24, 24))).collect::<Vec<_>>());
        let probes: Vec<(usize, ImageF32)> = (0..ids).map(|i| (i, face(i, 3, 24, 24))).collect();
        let cmc = cmc_curve(&model, &gallery, &probes, Distance::Euclidean, ids);
        for w in cmc.windows(2) {
            assert!(w[1] >= w[0], "CMC must be nondecreasing");
        }
        assert!(*cmc.last().unwrap() <= 1.0 + 1e-9);
        // At rank = #identities every probe's label must have appeared.
        assert!((cmc[ids - 1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn noise_probes_rank_poorly() {
        let ids = 6;
        let train = training_set(ids, 2);
        let model = EigenfaceModel::train(&train, 10).unwrap();
        let gallery =
            Gallery::build(&model, &(0..ids).map(|i| (i, face(i, 0, 24, 24))).collect::<Vec<_>>());
        // White-noise probes labelled with identity 0: rank-1 accuracy
        // should be ≈ chance.
        let mut hits = 0;
        for v in 0..12u32 {
            let mut img = ImageF32::new(24, 24);
            let mut state = v * 31 + 7;
            for p in img.data.iter_mut() {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                *p = (state >> 24) as f32;
            }
            let probe = model.project(&img);
            if gallery.rank(&model, &probe, Distance::MahalanobisCosine)[0] == 0 {
                hits += 1;
            }
        }
        assert!(hits <= 6, "noise matched identity 0 {hits}/12 times");
    }

    #[test]
    fn train_rejects_degenerate_input() {
        assert!(EigenfaceModel::train(&[], 5).is_none());
        assert!(EigenfaceModel::train(&[ImageF32::new(8, 8)], 5).is_none());
        let mixed = vec![ImageF32::new(8, 8), ImageF32::new(9, 8)];
        assert!(EigenfaceModel::train(&mixed, 5).is_none());
    }
}
