//! Principal-component classifier (Shyu et al. 2003), PyOD's `PCA`
//! detector with `weighted=True` over all components.
//!
//! After centring, the anomaly score of `x` is the eigenvalue-weighted
//! squared distance in component space: `Σ_j z_j² / λ_j` over components
//! with non-negligible variance — i.e. the Mahalanobis distance, which
//! penalises deviation along minor components heavily (those capture the
//! data's invariants).

use crate::traits::{Detector, DetectorError};
use uadb_linalg::colstats::{col_means, covariance};
use uadb_linalg::eigen::sym_eigen;
use uadb_linalg::Matrix;

/// Relative eigenvalue cutoff below which a component is ignored.
const EIGEN_TOL: f64 = 1e-10;

/// The PCA detector.
#[derive(Default)]
pub struct Pca {
    fitted: Option<Fitted>,
}

struct Fitted {
    means: Vec<f64>,
    /// Eigenvectors as columns, one per retained component.
    components: Matrix,
    /// Matching eigenvalues (descending).
    eigenvalues: Vec<f64>,
}

impl Detector for Pca {
    fn name(&self) -> &'static str {
        "PCA"
    }

    fn fit(&mut self, x: &Matrix) -> Result<(), DetectorError> {
        let (n, d) = x.shape();
        if n < 2 || d == 0 {
            return Err(DetectorError::EmptyInput);
        }
        let cov = covariance(x)?;
        let eig = sym_eigen(&cov)?;
        let max_ev = eig.values.first().copied().unwrap_or(0.0).max(1e-300);
        // Retain components with non-degenerate variance.
        let keep: Vec<usize> = eig
            .values
            .iter()
            .enumerate()
            .filter(|(_, &v)| v > EIGEN_TOL * max_ev && v > 0.0)
            .map(|(i, _)| i)
            .collect();
        if keep.is_empty() {
            return Err(DetectorError::NoConvergence("pca: no informative components"));
        }
        let components = eig.vectors.select_cols(&keep);
        let eigenvalues: Vec<f64> = keep.iter().map(|&i| eig.values[i]).collect();
        self.fitted = Some(Fitted { means: col_means(x), components, eigenvalues });
        Ok(())
    }

    fn score(&self, x: &Matrix) -> Result<Vec<f64>, DetectorError> {
        let f = self.fitted.as_ref().ok_or(DetectorError::NotFitted)?;
        let d = f.means.len();
        if x.cols() != d {
            return Err(DetectorError::DimensionMismatch { expected: d, got: x.cols() });
        }
        let k = f.eigenvalues.len();
        let mut centered = vec![0.0; d];
        Ok(x.row_iter()
            .map(|row| {
                for ((c, &v), &m) in centered.iter_mut().zip(row).zip(&f.means) {
                    *c = v - m;
                }
                let mut score = 0.0;
                for j in 0..k {
                    // z_j = centered . component_j
                    let mut z = 0.0;
                    for (i, &c) in centered.iter().enumerate() {
                        z += c * f.components.get(i, j);
                    }
                    score += z * z / f.eigenvalues[j];
                }
                score
            })
            .collect())
    }
}

// ------------------------------ snapshot ------------------------------

use crate::snapshot::{self, DetectorSnapshot, SnapshotError};
use crate::traits::DetectorKind;
use std::io::{Read, Write};

impl DetectorSnapshot for Pca {
    fn kind(&self) -> DetectorKind {
        DetectorKind::Pca
    }

    fn fitted_dim(&self) -> usize {
        self.fitted.as_ref().map_or(0, |f| f.means.len())
    }

    fn write_fitted(&self, w: &mut dyn Write) -> Result<(), SnapshotError> {
        let f = self.fitted.as_ref().ok_or(SnapshotError::InvalidState("pca: not fitted"))?;
        snapshot::ensure_finite(&f.means, "pca: non-finite mean")?;
        snapshot::ensure_finite(f.components.as_slice(), "pca: non-finite component")?;
        if !f.eigenvalues.iter().all(|v| v.is_finite() && *v > 0.0) {
            return Err(SnapshotError::InvalidState("pca: non-positive eigenvalue"));
        }
        snapshot::write_u64(w, f.means.len() as u64)?;
        snapshot::write_f64s(w, &f.means)?;
        snapshot::write_matrix(w, &f.components)?;
        snapshot::write_u64(w, f.eigenvalues.len() as u64)?;
        snapshot::write_f64s(w, &f.eigenvalues)?;
        Ok(())
    }
}

impl Pca {
    /// Restores the centring means, retained components and eigenvalues
    /// written by [`DetectorSnapshot::write_fitted`].
    pub(crate) fn read_fitted(r: &mut dyn Read) -> Result<Self, SnapshotError> {
        let d = snapshot::read_len(r, snapshot::MAX_DIM, "pca dimension count")?;
        if d == 0 {
            return Err(SnapshotError::Corrupt("pca: zero dimensions"));
        }
        let means = snapshot::read_f64s(r, d)?;
        snapshot::check_finite(&means, "pca: non-finite mean")?;
        let components = snapshot::read_matrix(r, "pca components")?;
        if components.rows() != d {
            return Err(SnapshotError::Corrupt("pca: component height mismatch"));
        }
        snapshot::check_finite(components.as_slice(), "pca: non-finite component")?;
        let k = snapshot::read_len(r, snapshot::MAX_DIM, "pca eigenvalue count")?;
        if k != components.cols() || k == 0 {
            return Err(SnapshotError::Corrupt("pca: eigenvalue count mismatch"));
        }
        let eigenvalues = snapshot::read_f64s(r, k)?;
        // Scoring divides by each eigenvalue; zero/negative/NaN would
        // poison every score.
        if !eigenvalues.iter().all(|v| v.is_finite() && *v > 0.0) {
            return Err(SnapshotError::Corrupt("pca: non-positive eigenvalue"));
        }
        Ok(Self { fitted: Some(Fitted { means, components, eigenvalues }) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rand::SeedableRng;

    fn correlated_cloud() -> Matrix {
        // y ≈ 2x with small noise; an anomaly breaks the correlation.
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut rows: Vec<Vec<f64>> = (0..100)
            .map(|_| {
                let t: f64 = rng.gen_range(-1.0..1.0);
                let noise: f64 = rng.gen_range(-0.05..0.05);
                vec![t, 2.0 * t + noise]
            })
            .collect();
        rows.push(vec![0.5, -1.0]); // far off the principal axis
        Matrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn off_axis_point_scores_highest() {
        let x = correlated_cloud();
        let s = Pca::default().fit_score(&x).unwrap();
        let max_idx = s.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
        assert_eq!(max_idx, 100);
    }

    #[test]
    fn score_is_mahalanobis_like() {
        // For isotropic data the score approximates squared z-norm.
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let rows: Vec<Vec<f64>> =
            (0..500).map(|_| vec![rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)]).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let mut p = Pca::default();
        p.fit(&x).unwrap();
        let q = Matrix::from_rows(&[vec![0.0, 0.0], vec![3.0, 3.0]]).unwrap();
        let s = p.score(&q).unwrap();
        assert!(s[1] > 10.0 * s[0].max(1e-9), "centre {} vs corner {}", s[0], s[1]);
    }

    #[test]
    fn degenerate_dimension_handled() {
        // One constant column: its component must be dropped, not divide
        // by zero.
        let mut rows: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64, 7.0]).collect();
        rows.push(vec![25.0, 7.0]);
        let x = Matrix::from_rows(&rows).unwrap();
        let s = Pca::default().fit_score(&x).unwrap();
        assert!(s.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn guards() {
        let p = Pca::default();
        assert_eq!(p.score(&Matrix::zeros(1, 1)), Err(DetectorError::NotFitted));
        let mut p = Pca::default();
        assert_eq!(p.fit(&Matrix::zeros(1, 2)), Err(DetectorError::EmptyInput));
        p.fit(&correlated_cloud()).unwrap();
        assert!(matches!(
            p.score(&Matrix::zeros(1, 9)),
            Err(DetectorError::DimensionMismatch { .. })
        ));
    }
}
