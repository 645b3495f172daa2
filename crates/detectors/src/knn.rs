//! k-Nearest-Neighbour outlier detection (Ramaswamy et al. 2000).
//!
//! PyOD defaults: `n_neighbors = 5`, `method = "largest"` — the anomaly
//! score of a point is its Euclidean distance to its 5th nearest
//! neighbour in the training set.

use crate::neighbors::knn_search;
use crate::traits::{Detector, DetectorError};
use uadb_linalg::Matrix;

/// The KNN detector.
pub struct Knn {
    /// Neighbour count (PyOD default 5).
    pub n_neighbors: usize,
    train: Option<Matrix>,
}

impl Default for Knn {
    fn default() -> Self {
        Self { n_neighbors: 5, train: None }
    }
}

impl Detector for Knn {
    fn name(&self) -> &'static str {
        "KNN"
    }

    fn fit(&mut self, x: &Matrix) -> Result<(), DetectorError> {
        if x.rows() == 0 || x.cols() == 0 {
            return Err(DetectorError::EmptyInput);
        }
        self.train = Some(x.clone());
        Ok(())
    }

    fn score(&self, x: &Matrix) -> Result<Vec<f64>, DetectorError> {
        let train = self.train.as_ref().ok_or(DetectorError::NotFitted)?;
        if x.cols() != train.cols() {
            return Err(DetectorError::DimensionMismatch { expected: train.cols(), got: x.cols() });
        }
        // Self-queries (same buffer) exclude the trivial zero match so
        // train-set scoring matches PyOD's fitted `decision_scores_`.
        let self_query = std::ptr::eq(train, x)
            || (train.shape() == x.shape() && train.as_slice() == x.as_slice());
        let nn = knn_search(train, x, self.n_neighbors, self_query);
        Ok(nn.into_iter().map(|n| n.distances.last().copied().unwrap_or(0.0)).collect())
    }
}

// ------------------------------ snapshot ------------------------------

use crate::snapshot::{self, DetectorSnapshot, SnapshotError};
use crate::traits::DetectorKind;
use std::io::{Read, Write};

impl DetectorSnapshot for Knn {
    fn kind(&self) -> DetectorKind {
        DetectorKind::Knn
    }

    fn fitted_dim(&self) -> usize {
        self.train.as_ref().map_or(0, Matrix::cols)
    }

    fn write_fitted(&self, w: &mut dyn Write) -> Result<(), SnapshotError> {
        let train = self.train.as_ref().ok_or(SnapshotError::InvalidState("knn: not fitted"))?;
        snapshot::ensure_finite(train.as_slice(), "knn: non-finite training point")?;
        snapshot::write_u64(w, self.n_neighbors as u64)?;
        snapshot::write_matrix(w, train)?;
        Ok(())
    }
}

impl Knn {
    /// Restores the stored training set written by
    /// [`DetectorSnapshot::write_fitted`] (KNN's fitted state *is* the
    /// training set).
    pub(crate) fn read_fitted(r: &mut dyn Read) -> Result<Self, SnapshotError> {
        let n_neighbors = snapshot::read_len(r, snapshot::MAX_LEN, "knn neighbour count")?;
        if n_neighbors == 0 {
            return Err(SnapshotError::Corrupt("knn: zero neighbours"));
        }
        let train = snapshot::read_matrix(r, "knn training matrix")?;
        if train.rows() == 0 || train.cols() == 0 {
            return Err(SnapshotError::Corrupt("knn: empty training matrix"));
        }
        snapshot::check_finite(train.as_slice(), "knn: non-finite training point")?;
        Ok(Self { n_neighbors, train: Some(train) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isolated_point_scores_highest() {
        let mut rows: Vec<Vec<f64>> =
            (0..30).map(|i| vec![(i % 6) as f64 * 0.1, (i / 6) as f64 * 0.1]).collect();
        rows.push(vec![50.0, 50.0]);
        let x = Matrix::from_rows(&rows).unwrap();
        let s = Knn::default().fit_score(&x).unwrap();
        let max_idx = s.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
        assert_eq!(max_idx, 30);
    }

    #[test]
    fn score_is_kth_distance() {
        // Points on a line at 0,1,2,3,4,5, k=2: score(0) = d(0 -> 2) = 2.
        let x = Matrix::from_vec(6, 1, (0..6).map(|i| i as f64).collect()).unwrap();
        let mut k = Knn { n_neighbors: 2, train: None };
        let s = k.fit_score(&x).unwrap();
        assert_eq!(s[0], 2.0);
        assert_eq!(s[2], 1.0); // neighbours 1 and 3
    }

    #[test]
    fn out_of_sample_does_not_exclude() {
        let x = Matrix::from_vec(3, 1, vec![0.0, 1.0, 2.0]).unwrap();
        let mut k = Knn { n_neighbors: 1, train: None };
        k.fit(&x).unwrap();
        // Query equal to a training point but in a different buffer of
        // different shape: nearest neighbour at distance 0 counts.
        let q = Matrix::from_vec(1, 1, vec![1.0]).unwrap();
        let s = k.score(&q).unwrap();
        assert_eq!(s[0], 0.0);
    }

    #[test]
    fn guards() {
        let k = Knn::default();
        assert_eq!(k.score(&Matrix::zeros(1, 1)), Err(DetectorError::NotFitted));
        let mut k = Knn::default();
        assert_eq!(k.fit(&Matrix::zeros(0, 1)), Err(DetectorError::EmptyInput));
        k.fit(&Matrix::zeros(5, 2)).unwrap();
        assert!(matches!(
            k.score(&Matrix::zeros(1, 3)),
            Err(DetectorError::DimensionMismatch { .. })
        ));
    }
}
