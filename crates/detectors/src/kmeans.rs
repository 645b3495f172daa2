//! Lloyd's k-means with k-means++ initialisation.
//!
//! Substrate for CBLOF (cluster assignment) and the GMM initialiser.

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use uadb_linalg::distance::sq_euclidean;
use uadb_linalg::Matrix;

/// Fitted k-means model.
#[derive(Debug, Clone)]
pub struct KMeans {
    /// Cluster centroids, one per row.
    pub centroids: Matrix,
    /// Assignment of each training row to a centroid.
    pub assignment: Vec<usize>,
    /// Cluster sizes.
    pub sizes: Vec<usize>,
    /// Final within-cluster sum of squares.
    pub inertia: f64,
}

/// Runs k-means; `k` is clamped to the number of rows.
///
/// # Panics
/// If `x` has no rows — callers validate emptiness first.
pub fn kmeans(x: &Matrix, k: usize, max_iter: usize, seed: u64) -> KMeans {
    let (n, d) = x.shape();
    assert!(n > 0, "kmeans on empty data");
    let k = k.clamp(1, n);
    let mut rng = StdRng::seed_from_u64(seed);

    // k-means++ seeding.
    let mut centers: Vec<usize> = Vec::with_capacity(k);
    centers.push(rng.gen_range(0..n));
    let mut d2 = vec![f64::INFINITY; n];
    while centers.len() < k {
        let last = *centers.last().expect("non-empty");
        for (i, slot) in d2.iter_mut().enumerate() {
            let dist = sq_euclidean(x.row(i), x.row(last));
            if dist < *slot {
                *slot = dist;
            }
        }
        let total: f64 = d2.iter().sum();
        let next = if total <= 0.0 {
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut pick = n - 1;
            for (i, &w) in d2.iter().enumerate() {
                target -= w;
                if target <= 0.0 {
                    pick = i;
                    break;
                }
            }
            pick
        };
        centers.push(next);
    }
    let mut centroids = x.select_rows(&centers);

    let mut assignment = vec![0usize; n];
    let mut inertia = f64::INFINITY;
    for _iter in 0..max_iter {
        // Assign.
        let mut new_inertia = 0.0;
        for (i, row) in x.row_iter().enumerate() {
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for c in 0..k {
                let dist = sq_euclidean(row, centroids.row(c));
                if dist < best_d {
                    best_d = dist;
                    best = c;
                }
            }
            assignment[i] = best;
            new_inertia += best_d;
        }
        // Update.
        let mut sums = Matrix::zeros(k, d);
        let mut counts = vec![0usize; k];
        for (i, row) in x.row_iter().enumerate() {
            let c = assignment[i];
            counts[c] += 1;
            let dst = sums.row_mut(c);
            for (s, &v) in dst.iter_mut().zip(row) {
                *s += v;
            }
        }
        for (c, count) in counts.iter_mut().enumerate().take(k) {
            if *count == 0 {
                // Re-seed an empty cluster at a random point.
                let pick = rng.gen_range(0..n);
                let src: Vec<f64> = x.row(pick).to_vec();
                sums.row_mut(c).copy_from_slice(&src);
                *count = 1;
            }
            let inv = 1.0 / *count as f64;
            for v in sums.row_mut(c) {
                *v *= inv;
            }
        }
        centroids = sums;
        // Converged when inertia stops improving meaningfully.
        if (inertia - new_inertia).abs() <= 1e-10 * inertia.max(1.0) {
            inertia = new_inertia;
            break;
        }
        inertia = new_inertia;
    }
    let mut sizes = vec![0usize; k];
    for &a in &assignment {
        sizes[a] += 1;
    }
    KMeans { centroids, assignment, sizes, inertia }
}

// ------------------------------ snapshot ------------------------------

use crate::snapshot::{self, SnapshotError};
use std::io::{Read, Write};

impl KMeans {
    /// Serialises the fitted clustering (substrate form used by
    /// cluster-backed detectors and available to future ones): centroids,
    /// assignment, sizes and inertia, in the snapshot codec.
    pub fn write_to(&self, w: &mut dyn Write) -> Result<(), SnapshotError> {
        snapshot::ensure_finite(self.centroids.as_slice(), "kmeans: non-finite centroid")?;
        if !self.inertia.is_finite() {
            return Err(SnapshotError::InvalidState("kmeans: non-finite inertia"));
        }
        if self.sizes.len() != self.centroids.rows() {
            return Err(SnapshotError::InvalidState("kmeans: sizes/centroids mismatch"));
        }
        snapshot::write_matrix(w, &self.centroids)?;
        snapshot::write_u64(w, self.assignment.len() as u64)?;
        for &a in &self.assignment {
            snapshot::write_u64(w, a as u64)?;
        }
        for &s in &self.sizes {
            snapshot::write_u64(w, s as u64)?;
        }
        snapshot::write_f64(w, self.inertia)?;
        Ok(())
    }

    /// Restores a clustering written by [`KMeans::write_to`].
    pub fn read_from(r: &mut dyn Read) -> Result<Self, SnapshotError> {
        let centroids = snapshot::read_matrix(r, "kmeans centroids")?;
        if centroids.rows() == 0 || centroids.cols() == 0 {
            return Err(SnapshotError::Corrupt("kmeans: empty centroids"));
        }
        snapshot::check_finite(centroids.as_slice(), "kmeans: non-finite centroid")?;
        let k = centroids.rows();
        let n = snapshot::read_len(r, snapshot::MAX_LEN, "kmeans assignment length")?;
        let mut assignment = Vec::with_capacity(n.min(8192));
        for _ in 0..n {
            let a = snapshot::read_len(r, snapshot::MAX_LEN, "kmeans assignment")?;
            if a >= k {
                return Err(SnapshotError::Corrupt("kmeans: assignment out of range"));
            }
            assignment.push(a);
        }
        let mut sizes = Vec::with_capacity(k);
        for _ in 0..k {
            sizes.push(snapshot::read_len(r, snapshot::MAX_LEN, "kmeans cluster size")?);
        }
        let inertia = snapshot::read_f64(r)?;
        if !inertia.is_finite() {
            return Err(SnapshotError::Corrupt("kmeans: non-finite inertia"));
        }
        Ok(Self { centroids, assignment, sizes, inertia })
    }
}

#[cfg(test)]
mod snapshot_tests {
    use super::*;

    #[test]
    fn kmeans_round_trips_exactly() {
        let x = Matrix::from_vec(6, 1, vec![0.0, 0.1, 0.2, 9.0, 9.1, 9.2]).unwrap();
        let km = kmeans(&x, 2, 50, 7);
        let mut bytes = Vec::new();
        km.write_to(&mut bytes).unwrap();
        let back = KMeans::read_from(&mut &bytes[..]).unwrap();
        assert_eq!(back.centroids.as_slice(), km.centroids.as_slice());
        assert_eq!(back.assignment, km.assignment);
        assert_eq!(back.sizes, km.sizes);
        assert_eq!(back.inertia.to_bits(), km.inertia.to_bits());
    }

    #[test]
    fn kmeans_corrupt_assignment_is_rejected() {
        let x = Matrix::from_vec(4, 1, vec![0.0, 0.1, 9.0, 9.1]).unwrap();
        let km = kmeans(&x, 2, 50, 3);
        let mut bytes = Vec::new();
        km.write_to(&mut bytes).unwrap();
        // The first assignment slot sits after the centroid matrix
        // header+data and the assignment length field.
        let offset = 8 + 8 + 8 * km.centroids.as_slice().len() + 8;
        bytes[offset..offset + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            KMeans::read_from(&mut &bytes[..]),
            Err(SnapshotError::Corrupt("kmeans assignment"))
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs() -> Matrix {
        let mut rows = Vec::new();
        for i in 0..20 {
            let j = i as f64 * 0.01;
            rows.push(vec![j, j]);
            rows.push(vec![10.0 + j, 10.0 + j]);
        }
        Matrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn separates_two_blobs() {
        let x = two_blobs();
        let km = kmeans(&x, 2, 50, 0);
        assert_eq!(km.sizes.iter().sum::<usize>(), 40);
        // The two blobs must not share a cluster.
        let a0 = km.assignment[0];
        for i in (0..40).step_by(2) {
            assert_eq!(km.assignment[i], a0);
        }
        for i in (1..40).step_by(2) {
            assert_ne!(km.assignment[i], a0);
        }
        assert!(km.inertia < 1.0);
    }

    #[test]
    fn k_clamped_and_singleton_clusters() {
        let x = Matrix::from_vec(3, 1, vec![0.0, 5.0, 10.0]).unwrap();
        let km = kmeans(&x, 10, 20, 1);
        assert_eq!(km.centroids.rows(), 3);
        assert!(km.inertia < 1e-12);
    }

    #[test]
    fn deterministic_given_seed() {
        let x = two_blobs();
        let a = kmeans(&x, 3, 50, 42);
        let b = kmeans(&x, 3, 50, 42);
        assert_eq!(a.assignment, b.assignment);
    }

    #[test]
    fn centroid_is_cluster_mean() {
        let x = Matrix::from_vec(4, 1, vec![0.0, 1.0, 10.0, 11.0]).unwrap();
        let km = kmeans(&x, 2, 50, 3);
        for c in 0..2 {
            let members: Vec<f64> =
                (0..4).filter(|&i| km.assignment[i] == c).map(|i| x.get(i, 0)).collect();
            let mean = members.iter().sum::<f64>() / members.len() as f64;
            assert!((km.centroids.get(c, 0) - mean).abs() < 1e-9);
        }
    }
}
