//! Local Outlier Factor (Breunig et al. 2000).
//!
//! PyOD default: `n_neighbors = 20`. LOF compares each point's local
//! reachability density (lrd) with the densities of its neighbours:
//! `LOF(p) = mean_{o ∈ N_k(p)} lrd(o) / lrd(p)`, with
//! `lrd(p) = 1 / mean_{o ∈ N_k(p)} reach-dist_k(p, o)` and
//! `reach-dist_k(p, o) = max(k-distance(o), d(p, o))`.

use crate::neighbors::{knn_search, Neighbors};
use crate::traits::{Detector, DetectorError};
use uadb_linalg::Matrix;

/// Density used in place of an infinite lrd (duplicate-point clusters
/// have zero reachability distance; sklearn caps the same way).
const LRD_CAP: f64 = 1e10;

/// The LOF detector.
pub struct Lof {
    /// Neighbour count (PyOD default 20).
    pub n_neighbors: usize,
    fitted: Option<Fitted>,
}

struct Fitted {
    train: Matrix,
    /// k-distance of every training point.
    k_dist: Vec<f64>,
    /// Local reachability density of every training point.
    lrd: Vec<f64>,
}

impl Default for Lof {
    fn default() -> Self {
        Self { n_neighbors: 20, fitted: None }
    }
}

impl Lof {
    /// lrd of each query given its neighbour list in the training set.
    fn lrds(&self, fitted: &Fitted, nn: &[Neighbors]) -> Vec<f64> {
        nn.iter()
            .map(|n| {
                let mut sum = 0.0;
                for (&j, &d) in n.indices.iter().zip(&n.distances) {
                    sum += d.max(fitted.k_dist[j]);
                }
                let mean = sum / n.indices.len().max(1) as f64;
                if mean <= 0.0 {
                    LRD_CAP
                } else {
                    1.0 / mean
                }
            })
            .collect()
    }
}

impl Detector for Lof {
    fn name(&self) -> &'static str {
        "LOF"
    }

    fn fit(&mut self, x: &Matrix) -> Result<(), DetectorError> {
        let (n, d) = x.shape();
        if n == 0 || d == 0 {
            return Err(DetectorError::EmptyInput);
        }
        if n < 2 {
            return Err(DetectorError::EmptyInput);
        }
        let nn = knn_search(x, x, self.n_neighbors, true);
        let k_dist: Vec<f64> =
            nn.iter().map(|n| n.distances.last().copied().unwrap_or(0.0)).collect();
        let mut fitted = Fitted { train: x.clone(), k_dist, lrd: Vec::new() };
        fitted.lrd = self.lrds(&fitted, &nn);
        self.fitted = Some(fitted);
        Ok(())
    }

    fn score(&self, x: &Matrix) -> Result<Vec<f64>, DetectorError> {
        let fitted = self.fitted.as_ref().ok_or(DetectorError::NotFitted)?;
        if x.cols() != fitted.train.cols() {
            return Err(DetectorError::DimensionMismatch {
                expected: fitted.train.cols(),
                got: x.cols(),
            });
        }
        let self_query =
            fitted.train.shape() == x.shape() && fitted.train.as_slice() == x.as_slice();
        let nn = knn_search(&fitted.train, x, self.n_neighbors, self_query);
        let query_lrd = self.lrds(fitted, &nn);
        Ok(nn
            .iter()
            .zip(&query_lrd)
            .map(|(n, &lrd_p)| {
                let neighbour_lrd_sum: f64 = n.indices.iter().map(|&j| fitted.lrd[j]).sum();
                let mean = neighbour_lrd_sum / n.indices.len().max(1) as f64;
                if lrd_p <= 0.0 {
                    1.0
                } else {
                    mean / lrd_p
                }
            })
            .collect())
    }
}

// ------------------------------ snapshot ------------------------------

use crate::snapshot::{self, DetectorSnapshot, SnapshotError};
use crate::traits::DetectorKind;
use std::io::{Read, Write};

impl DetectorSnapshot for Lof {
    fn kind(&self) -> DetectorKind {
        DetectorKind::Lof
    }

    fn fitted_dim(&self) -> usize {
        self.fitted.as_ref().map_or(0, |f| f.train.cols())
    }

    fn write_fitted(&self, w: &mut dyn Write) -> Result<(), SnapshotError> {
        let f = self.fitted.as_ref().ok_or(SnapshotError::InvalidState("lof: not fitted"))?;
        snapshot::ensure_finite(f.train.as_slice(), "lof: non-finite training point")?;
        snapshot::ensure_finite(&f.k_dist, "lof: non-finite k-distance")?;
        snapshot::ensure_finite(&f.lrd, "lof: non-finite lrd")?;
        snapshot::write_u64(w, self.n_neighbors as u64)?;
        snapshot::write_matrix(w, &f.train)?;
        snapshot::write_f64s(w, &f.k_dist)?;
        snapshot::write_f64s(w, &f.lrd)?;
        Ok(())
    }
}

impl Lof {
    /// Restores the training set plus the per-point k-distances and
    /// local reachability densities written by
    /// [`DetectorSnapshot::write_fitted`].
    pub(crate) fn read_fitted(r: &mut dyn Read) -> Result<Self, SnapshotError> {
        let n_neighbors = snapshot::read_len(r, snapshot::MAX_LEN, "lof neighbour count")?;
        if n_neighbors == 0 {
            return Err(SnapshotError::Corrupt("lof: zero neighbours"));
        }
        let train = snapshot::read_matrix(r, "lof training matrix")?;
        if train.rows() < 2 || train.cols() == 0 {
            return Err(SnapshotError::Corrupt("lof: degenerate training matrix"));
        }
        snapshot::check_finite(train.as_slice(), "lof: non-finite training point")?;
        let k_dist = snapshot::read_f64s(r, train.rows())?;
        snapshot::check_finite(&k_dist, "lof: non-finite k-distance")?;
        let lrd = snapshot::read_f64s(r, train.rows())?;
        snapshot::check_finite(&lrd, "lof: non-finite lrd")?;
        Ok(Self { n_neighbors, fitted: Some(Fitted { train, k_dist, lrd }) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_plus_outlier() -> Matrix {
        let mut rows: Vec<Vec<f64>> = Vec::new();
        for i in 0..7 {
            for j in 0..7 {
                rows.push(vec![i as f64, j as f64]);
            }
        }
        rows.push(vec![30.0, 30.0]);
        Matrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn outlier_has_lof_well_above_one() {
        let x = grid_plus_outlier();
        let mut lof = Lof { n_neighbors: 5, fitted: None };
        let s = lof.fit_score(&x).unwrap();
        let outlier = s[49];
        assert!(outlier > 2.0, "outlier LOF {outlier} should be >> 1");
        // Interior grid points sit near density parity (LOF ≈ 1).
        let interior = s[24]; // centre of the grid
        assert!((interior - 1.0).abs() < 0.3, "interior LOF {interior}");
    }

    #[test]
    fn uniform_data_scores_near_one() {
        let x = Matrix::from_vec(20, 1, (0..20).map(|i| i as f64).collect()).unwrap();
        let mut lof = Lof { n_neighbors: 3, fitted: None };
        let s = lof.fit_score(&x).unwrap();
        // Edge points have slightly elevated LOF; middle points near 1.
        assert!((s[10] - 1.0).abs() < 0.3);
    }

    #[test]
    fn duplicates_do_not_produce_nan() {
        let mut rows = vec![vec![1.0, 1.0]; 10];
        rows.push(vec![5.0, 5.0]);
        let x = Matrix::from_rows(&rows).unwrap();
        let mut lof = Lof { n_neighbors: 3, fitted: None };
        let s = lof.fit_score(&x).unwrap();
        assert!(s.iter().all(|v| v.is_finite()), "scores: {s:?}");
    }

    #[test]
    fn out_of_sample_scoring() {
        let x = grid_plus_outlier();
        let mut lof = Lof { n_neighbors: 5, fitted: None };
        lof.fit(&x).unwrap();
        let q = Matrix::from_rows(&[vec![3.0, 3.0], vec![100.0, 100.0]]).unwrap();
        let s = lof.score(&q).unwrap();
        assert!(s[1] > s[0], "far query should outscore interior query");
    }

    #[test]
    fn guards() {
        let lof = Lof::default();
        assert_eq!(lof.score(&Matrix::zeros(1, 1)), Err(DetectorError::NotFitted));
        let mut lof = Lof::default();
        assert_eq!(lof.fit(&Matrix::zeros(1, 2)), Err(DetectorError::EmptyInput));
    }
}
