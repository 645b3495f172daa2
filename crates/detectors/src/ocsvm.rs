//! One-class SVM (Schölkopf et al. 1999) with an SMO solver built here.
//!
//! PyOD/sklearn defaults: RBF kernel, `nu = 0.5`,
//! `gamma = 1 / (d · Var(X))` (`"scale"`). The dual problem
//!
//! ```text
//! min_α ½ αᵀ K α   s.t.  0 ≤ α_i ≤ 1/(νn),  Σ α_i = 1
//! ```
//!
//! is solved by libsvm-style sequential minimal optimisation with
//! maximal-violating-pair working-set selection. The anomaly score is
//! `ρ − Σ_i α_i K(x_i, x)` (negated sklearn decision function, higher =
//! more anomalous).

use crate::traits::{Detector, DetectorError};
use uadb_linalg::colstats::total_variance;
use uadb_linalg::distance::sq_euclidean;
use uadb_linalg::Matrix;

/// KKT violation tolerance (libsvm default 1e-3).
const TOL: f64 = 1e-3;

/// The one-class SVM detector.
pub struct OcSvm {
    /// Fraction-of-outliers / margin-errors bound (sklearn default 0.5).
    pub nu: f64,
    /// SMO iteration cap.
    pub max_iter: usize,
    fitted: Option<Fitted>,
}

struct Fitted {
    /// Support vectors (training rows with α > 0).
    support: Matrix,
    /// Their dual coefficients.
    alpha: Vec<f64>,
    gamma: f64,
    rho: f64,
}

impl Default for OcSvm {
    fn default() -> Self {
        Self { nu: 0.5, max_iter: 20_000, fitted: None }
    }
}

#[inline]
fn rbf(a: &[f64], b: &[f64], gamma: f64) -> f64 {
    (-gamma * sq_euclidean(a, b)).exp()
}

impl Detector for OcSvm {
    fn name(&self) -> &'static str {
        "OCSVM"
    }

    fn fit(&mut self, x: &Matrix) -> Result<(), DetectorError> {
        let (n, d) = x.shape();
        if n < 2 || d == 0 {
            return Err(DetectorError::EmptyInput);
        }
        let var = total_variance(x);
        let gamma = if var > 0.0 { 1.0 / (d as f64 * var) } else { 1.0 / d as f64 };

        // Upper box bound; nu in (0, 1].
        let nu = self.nu.clamp(1e-3, 1.0);
        let c = 1.0 / (nu * n as f64);

        // Kernel matrix (n ≤ a few thousand at suite scale).
        let mut kmat = vec![0.0; n * n];
        for i in 0..n {
            kmat[i * n + i] = 1.0;
            for j in (i + 1)..n {
                let k = rbf(x.row(i), x.row(j), gamma);
                kmat[i * n + j] = k;
                kmat[j * n + i] = k;
            }
        }

        // libsvm one-class init: fill the first ⌊νn⌋ alphas at the box
        // bound, the next takes the remainder.
        let mut alpha = vec![0.0; n];
        let n_full = (nu * n as f64).floor() as usize;
        let mut remaining = 1.0;
        for a in alpha.iter_mut().take(n_full.min(n)) {
            *a = c.min(remaining);
            remaining -= *a;
        }
        if remaining > 0.0 && n_full < n {
            alpha[n_full] = remaining;
        }

        // Gradient G = K α.
        let mut grad = vec![0.0; n];
        for i in 0..n {
            let krow = &kmat[i * n..(i + 1) * n];
            grad[i] = krow.iter().zip(&alpha).map(|(k, a)| k * a).sum();
        }

        // SMO with maximal violating pair.
        for _iter in 0..self.max_iter {
            // i: smallest gradient among α_i < C (can grow);
            // j: largest gradient among α_j > 0 (can shrink).
            let mut i_best = usize::MAX;
            let mut i_val = f64::INFINITY;
            let mut j_best = usize::MAX;
            let mut j_val = f64::NEG_INFINITY;
            for t in 0..n {
                if alpha[t] < c - 1e-15 && grad[t] < i_val {
                    i_val = grad[t];
                    i_best = t;
                }
                if alpha[t] > 1e-15 && grad[t] > j_val {
                    j_val = grad[t];
                    j_best = t;
                }
            }
            if i_best == usize::MAX || j_best == usize::MAX || j_val - i_val < TOL {
                break; // KKT satisfied
            }
            let (i, j) = (i_best, j_best);
            let kii = kmat[i * n + i];
            let kjj = kmat[j * n + j];
            let kij = kmat[i * n + j];
            let denom = (kii + kjj - 2.0 * kij).max(1e-12);
            // Move t mass from j to i.
            let mut t = (grad[j] - grad[i]) / denom;
            t = t.min(alpha[j]).min(c - alpha[i]);
            if t <= 0.0 {
                break;
            }
            alpha[i] += t;
            alpha[j] -= t;
            let (ki, kj) = (i * n, j * n);
            for g in 0..n {
                grad[g] += t * (kmat[ki + g] - kmat[kj + g]);
            }
        }

        // rho = average gradient over free support vectors (0 < α < C);
        // fall back to the mid-violation estimate if none are free.
        let free: Vec<usize> =
            (0..n).filter(|&t| alpha[t] > 1e-12 && alpha[t] < c - 1e-12).collect();
        let rho = if free.is_empty() {
            let lo = (0..n)
                .filter(|&t| alpha[t] > 1e-12)
                .map(|t| grad[t])
                .fold(f64::NEG_INFINITY, f64::max);
            let hi = (0..n)
                .filter(|&t| alpha[t] < c - 1e-12)
                .map(|t| grad[t])
                .fold(f64::INFINITY, f64::min);
            0.5 * (lo + hi)
        } else {
            free.iter().map(|&t| grad[t]).sum::<f64>() / free.len() as f64
        };

        // Keep only support vectors for scoring.
        let sv: Vec<usize> = (0..n).filter(|&t| alpha[t] > 1e-12).collect();
        let support = x.select_rows(&sv);
        let alpha: Vec<f64> = sv.iter().map(|&t| alpha[t]).collect();
        self.fitted = Some(Fitted { support, alpha, gamma, rho });
        Ok(())
    }

    fn score(&self, x: &Matrix) -> Result<Vec<f64>, DetectorError> {
        let f = self.fitted.as_ref().ok_or(DetectorError::NotFitted)?;
        if x.cols() != f.support.cols() {
            return Err(DetectorError::DimensionMismatch {
                expected: f.support.cols(),
                got: x.cols(),
            });
        }
        Ok(x.row_iter()
            .map(|row| {
                let decision: f64 = f
                    .support
                    .row_iter()
                    .zip(&f.alpha)
                    .map(|(sv, &a)| a * rbf(sv, row, f.gamma))
                    .sum();
                f.rho - decision
            })
            .collect())
    }
}

// ------------------------------ snapshot ------------------------------

use crate::snapshot::{self, DetectorSnapshot, SnapshotError};
use crate::traits::DetectorKind;
use std::io::{Read, Write};

impl DetectorSnapshot for OcSvm {
    fn kind(&self) -> DetectorKind {
        DetectorKind::Ocsvm
    }

    fn fitted_dim(&self) -> usize {
        self.fitted.as_ref().map_or(0, |f| f.support.cols())
    }

    fn write_fitted(&self, w: &mut dyn Write) -> Result<(), SnapshotError> {
        let f = self.fitted.as_ref().ok_or(SnapshotError::InvalidState("ocsvm: not fitted"))?;
        snapshot::ensure_finite(f.support.as_slice(), "ocsvm: non-finite support vector")?;
        snapshot::ensure_finite(&f.alpha, "ocsvm: non-finite dual coefficient")?;
        if !(f.gamma.is_finite() && f.gamma > 0.0 && f.rho.is_finite()) {
            return Err(SnapshotError::InvalidState("ocsvm: invalid kernel constants"));
        }
        snapshot::write_matrix(w, &f.support)?;
        snapshot::write_f64s(w, &f.alpha)?;
        snapshot::write_f64(w, f.gamma)?;
        snapshot::write_f64(w, f.rho)?;
        Ok(())
    }
}

impl OcSvm {
    /// Restores the support vectors, dual coefficients and kernel
    /// constants written by [`DetectorSnapshot::write_fitted`].
    pub(crate) fn read_fitted(r: &mut dyn Read) -> Result<Self, SnapshotError> {
        let support = snapshot::read_matrix(r, "ocsvm support vectors")?;
        if support.rows() == 0 || support.cols() == 0 {
            return Err(SnapshotError::Corrupt("ocsvm: empty support set"));
        }
        snapshot::check_finite(support.as_slice(), "ocsvm: non-finite support vector")?;
        let alpha = snapshot::read_f64s(r, support.rows())?;
        snapshot::check_finite(&alpha, "ocsvm: non-finite dual coefficient")?;
        let gamma = snapshot::read_f64(r)?;
        let rho = snapshot::read_f64(r)?;
        if !(gamma.is_finite() && gamma > 0.0 && rho.is_finite()) {
            return Err(SnapshotError::Corrupt("ocsvm: invalid kernel constants"));
        }
        let defaults = OcSvm::default();
        Ok(Self {
            nu: defaults.nu,
            max_iter: defaults.max_iter,
            fitted: Some(Fitted { support, alpha, gamma, rho }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_with_outlier() -> Matrix {
        let mut rows: Vec<Vec<f64>> = (0..80)
            .map(|i| {
                let t = i as f64 * std::f64::consts::TAU / 80.0;
                vec![t.cos(), t.sin()]
            })
            .collect();
        rows.push(vec![6.0, 6.0]);
        Matrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn far_point_scores_highest() {
        let x = ring_with_outlier();
        let s = OcSvm::default().fit_score(&x).unwrap();
        let max_idx = s.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
        assert_eq!(max_idx, 80);
    }

    #[test]
    fn dual_constraints_hold() {
        let x = ring_with_outlier();
        let mut svm = OcSvm::default();
        svm.fit(&x).unwrap();
        let f = svm.fitted.as_ref().unwrap();
        let sum: f64 = f.alpha.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "Σα = {sum}");
        let c = 1.0 / (0.5 * 81.0);
        assert!(f.alpha.iter().all(|&a| a > 0.0 && a <= c + 1e-9));
    }

    #[test]
    fn nu_bounds_margin_errors() {
        // With nu = 0.5 roughly half the training points lie outside the
        // learned boundary (score > 0) — the nu-property.
        let x = ring_with_outlier();
        let mut svm = OcSvm::default();
        let s = svm.fit_score(&x).unwrap();
        let outside = s.iter().filter(|&&v| v > 0.0).count();
        let frac = outside as f64 / s.len() as f64;
        assert!((0.25..=0.75).contains(&frac), "outside fraction {frac}");
    }

    #[test]
    fn monotone_in_distance_from_mass() {
        let x = ring_with_outlier();
        let mut svm = OcSvm::default();
        svm.fit(&x).unwrap();
        let q = Matrix::from_rows(&[vec![0.0, 1.0], vec![0.0, 3.0], vec![0.0, 9.0]]).unwrap();
        let s = svm.score(&q).unwrap();
        assert!(s[0] < s[1] && s[1] < s[2], "scores {s:?}");
    }

    #[test]
    fn guards() {
        let svm = OcSvm::default();
        assert_eq!(svm.score(&Matrix::zeros(1, 1)), Err(DetectorError::NotFitted));
        let mut svm = OcSvm::default();
        assert_eq!(svm.fit(&Matrix::zeros(1, 2)), Err(DetectorError::EmptyInput));
    }

    #[test]
    fn constant_data_does_not_crash() {
        let x = Matrix::filled(10, 2, 1.0);
        let s = OcSvm::default().fit_score(&x).unwrap();
        assert!(s.iter().all(|v| v.is_finite()));
    }
}
