//! Connectivity-based Outlier Factor (Tang et al. 2002).
//!
//! PyOD default: `n_neighbors = 20`. COF replaces LOF's density with the
//! *average chaining distance*: the cost of greedily connecting a point
//! to its k-neighbourhood one edge at a time (a set-based nearest path),
//! with earlier edges weighted more. The factor is the point's chaining
//! distance relative to its neighbours' — sensitive to low-density
//! *patterns* (e.g. lines) that density-based LOF misses.

use crate::neighbors::knn_search;
use crate::traits::{Detector, DetectorError};
use uadb_linalg::distance::euclidean;
use uadb_linalg::Matrix;

/// The COF detector.
pub struct Cof {
    /// Neighbour count (PyOD default 20).
    pub n_neighbors: usize,
    fitted: Option<Fitted>,
}

struct Fitted {
    train: Matrix,
    /// Average chaining distance of every training point.
    ac_dist: Vec<f64>,
}

impl Default for Cof {
    fn default() -> Self {
        Self { n_neighbors: 20, fitted: None }
    }
}

/// Average chaining distance of `point` through its neighbour set.
///
/// Builds the set-based nearest path: starting from the point itself,
/// repeatedly connect the unvisited neighbour closest to *any* connected
/// vertex; the i-th edge (1-based) gets weight `2(k+1-i) / (k(k+1))`.
fn avg_chaining_distance(point: &[f64], neighbours: &Matrix) -> f64 {
    let k = neighbours.rows();
    if k == 0 {
        return 0.0;
    }
    let mut connected: Vec<&[f64]> = Vec::with_capacity(k + 1);
    connected.push(point);
    let mut remaining: Vec<usize> = (0..k).collect();
    let kf = k as f64;
    let mut total = 0.0;
    for step in 1..=k {
        // Closest remaining vertex to the connected component.
        let mut best_pos = 0usize;
        let mut best_d = f64::INFINITY;
        for (pos, &r) in remaining.iter().enumerate() {
            let row = neighbours.row(r);
            for c in &connected {
                let d = euclidean(row, c);
                if d < best_d {
                    best_d = d;
                    best_pos = pos;
                }
            }
        }
        let weight = 2.0 * (kf + 1.0 - step as f64) / (kf * (kf + 1.0));
        total += weight * best_d;
        let chosen = remaining.swap_remove(best_pos);
        connected.push(neighbours.row(chosen));
    }
    total
}

impl Detector for Cof {
    fn name(&self) -> &'static str {
        "COF"
    }

    fn fit(&mut self, x: &Matrix) -> Result<(), DetectorError> {
        let (n, d) = x.shape();
        if n < 2 || d == 0 {
            return Err(DetectorError::EmptyInput);
        }
        let nn = knn_search(x, x, self.n_neighbors, true);
        let ac_dist: Vec<f64> = nn
            .iter()
            .enumerate()
            .map(|(i, n)| avg_chaining_distance(x.row(i), &x.select_rows(&n.indices)))
            .collect();
        self.fitted = Some(Fitted { train: x.clone(), ac_dist });
        Ok(())
    }

    fn score(&self, x: &Matrix) -> Result<Vec<f64>, DetectorError> {
        let f = self.fitted.as_ref().ok_or(DetectorError::NotFitted)?;
        if x.cols() != f.train.cols() {
            return Err(DetectorError::DimensionMismatch {
                expected: f.train.cols(),
                got: x.cols(),
            });
        }
        let self_query = f.train.shape() == x.shape() && f.train.as_slice() == x.as_slice();
        let nn = knn_search(&f.train, x, self.n_neighbors, self_query);
        Ok(nn
            .iter()
            .enumerate()
            .map(|(i, n)| {
                let own = avg_chaining_distance(x.row(i), &f.train.select_rows(&n.indices));
                let neigh_mean: f64 = n.indices.iter().map(|&j| f.ac_dist[j]).sum::<f64>()
                    / n.indices.len().max(1) as f64;
                if neigh_mean <= 0.0 {
                    if own <= 0.0 {
                        1.0
                    } else {
                        f64::MAX.sqrt()
                    }
                } else {
                    own / neigh_mean
                }
            })
            .collect())
    }
}

// ------------------------------ snapshot ------------------------------

use crate::snapshot::{self, DetectorSnapshot, SnapshotError};
use crate::traits::DetectorKind;
use std::io::{Read, Write};

impl DetectorSnapshot for Cof {
    fn kind(&self) -> DetectorKind {
        DetectorKind::Cof
    }

    fn fitted_dim(&self) -> usize {
        self.fitted.as_ref().map_or(0, |f| f.train.cols())
    }

    fn write_fitted(&self, w: &mut dyn Write) -> Result<(), SnapshotError> {
        let f = self.fitted.as_ref().ok_or(SnapshotError::InvalidState("cof: not fitted"))?;
        snapshot::ensure_finite(f.train.as_slice(), "cof: non-finite training point")?;
        snapshot::ensure_finite(&f.ac_dist, "cof: non-finite chaining distance")?;
        snapshot::write_u64(w, self.n_neighbors as u64)?;
        snapshot::write_matrix(w, &f.train)?;
        snapshot::write_f64s(w, &f.ac_dist)?;
        Ok(())
    }
}

impl Cof {
    /// Restores the training set plus every point's average chaining
    /// distance written by [`DetectorSnapshot::write_fitted`].
    pub(crate) fn read_fitted(r: &mut dyn Read) -> Result<Self, SnapshotError> {
        let n_neighbors = snapshot::read_len(r, snapshot::MAX_LEN, "cof neighbour count")?;
        if n_neighbors == 0 {
            return Err(SnapshotError::Corrupt("cof: zero neighbours"));
        }
        let train = snapshot::read_matrix(r, "cof training matrix")?;
        if train.rows() < 2 || train.cols() == 0 {
            return Err(SnapshotError::Corrupt("cof: degenerate training matrix"));
        }
        snapshot::check_finite(train.as_slice(), "cof: non-finite training point")?;
        let ac_dist = snapshot::read_f64s(r, train.rows())?;
        snapshot::check_finite(&ac_dist, "cof: non-finite chaining distance")?;
        Ok(Self { n_neighbors, fitted: Some(Fitted { train, ac_dist }) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_off_a_line_is_flagged() {
        // COF's signature case: inliers on a 1-d line, outlier beside it.
        let mut rows: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 * 0.5, 0.0]).collect();
        rows.push(vec![7.0, 3.0]);
        let x = Matrix::from_rows(&rows).unwrap();
        let mut cof = Cof { n_neighbors: 5, fitted: None };
        let s = cof.fit_score(&x).unwrap();
        let max_idx = s.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
        assert_eq!(max_idx, 30, "scores {s:?}");
    }

    #[test]
    fn chaining_distance_of_evenly_spaced_points() {
        // Point at 0, neighbours at 1 and 2: the path edges are 1 and 1.
        // Weights (k=2): 2*(2)/(2*3)=2/3 and 2*(1)/(2*3)=1/3 -> total 1.
        let p = [0.0];
        let nb = Matrix::from_vec(2, 1, vec![1.0, 2.0]).unwrap();
        let ac = avg_chaining_distance(&p, &nb);
        assert!((ac - 1.0).abs() < 1e-12, "got {ac}");
    }

    #[test]
    fn empty_neighbourhood_is_zero() {
        assert_eq!(avg_chaining_distance(&[1.0], &Matrix::zeros(0, 1)), 0.0);
    }

    #[test]
    fn uniform_line_scores_near_one() {
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64]).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let mut cof = Cof { n_neighbors: 4, fitted: None };
        let s = cof.fit_score(&x).unwrap();
        assert!((s[20] - 1.0).abs() < 0.2, "interior COF {}", s[20]);
    }

    #[test]
    fn duplicates_do_not_produce_nan() {
        let mut rows = vec![vec![0.0, 0.0]; 8];
        rows.push(vec![1.0, 1.0]);
        let x = Matrix::from_rows(&rows).unwrap();
        let mut cof = Cof { n_neighbors: 3, fitted: None };
        let s = cof.fit_score(&x).unwrap();
        assert!(s.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn guards() {
        let cof = Cof::default();
        assert_eq!(cof.score(&Matrix::zeros(1, 1)), Err(DetectorError::NotFitted));
        let mut cof = Cof::default();
        assert_eq!(cof.fit(&Matrix::zeros(1, 2)), Err(DetectorError::EmptyInput));
    }
}
