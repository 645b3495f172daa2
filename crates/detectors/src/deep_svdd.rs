//! Deep Support Vector Data Description (Ruff et al. 2018).
//!
//! PyOD defaults: an MLP encoder with hidden layers `[64, 32]` and ReLU.
//! The hypersphere centre is the mean embedding of the untrained network
//! over the training data (with the usual ±0.1 floor to avoid the trivial
//! all-zero solution); training minimises the mean squared distance to
//! the centre; the anomaly score is the squared embedding distance.
//!
//! Training epochs are scaled to 20 (PyOD uses 100) — DeepSVDD's
//! *relative* behaviour (weakest of the 14, biggest UADB gains, cf.
//! Table IV) is insensitive to this and it keeps the full-suite
//! experiments laptop-sized.

use crate::traits::{Detector, DetectorError};
use uadb_linalg::Matrix;
use uadb_nn::{train_svdd, Activation, Mlp, MlpConfig, TrainConfig};

/// The DeepSVDD detector.
pub struct DeepSvdd {
    /// Encoder hidden widths (PyOD default `[64, 32]`).
    pub hidden: Vec<usize>,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size (PyOD default 32).
    pub batch_size: usize,
    seed: u64,
    fitted: Option<Fitted>,
}

struct Fitted {
    mlp: Mlp,
    center: Vec<f64>,
    n_features: usize,
}

impl DeepSvdd {
    /// PyOD-default architecture with an explicit seed.
    pub fn with_seed(seed: u64) -> Self {
        Self { hidden: vec![64, 32], epochs: 20, batch_size: 32, seed, fitted: None }
    }
}

impl Default for DeepSvdd {
    fn default() -> Self {
        Self::with_seed(0)
    }
}

impl Detector for DeepSvdd {
    fn name(&self) -> &'static str {
        "DeepSVDD"
    }

    fn fit(&mut self, x: &Matrix) -> Result<(), DetectorError> {
        let (n, d) = x.shape();
        if n == 0 || d == 0 {
            return Err(DetectorError::EmptyInput);
        }
        let rep_dim = *self.hidden.last().unwrap_or(&32);
        let encoder_hidden: Vec<usize> =
            self.hidden[..self.hidden.len().saturating_sub(1)].to_vec();
        let mut mlp = Mlp::new(&MlpConfig {
            input_dim: d,
            hidden: encoder_hidden,
            output_dim: rep_dim,
            activation: Activation::Identity,
            seed: self.seed,
        });
        // Centre = mean embedding of the *initial* network, with the
        // standard epsilon floor so the network cannot collapse onto a
        // trivially reachable centre.
        let init = mlp.forward(x);
        let mut center = vec![0.0; rep_dim];
        for r in 0..init.rows() {
            for (c, &v) in center.iter_mut().zip(init.row(r)) {
                *c += v;
            }
        }
        for c in &mut center {
            *c /= n as f64;
            if c.abs() < 0.1 {
                *c = if *c >= 0.0 { 0.1 } else { -0.1 };
            }
        }
        let cfg = TrainConfig {
            epochs: self.epochs,
            batch_size: self.batch_size,
            shuffle_seed: self.seed ^ 0xdeadbeef,
            ..TrainConfig::default()
        };
        train_svdd(&mut mlp, x, &center, &cfg);
        self.fitted = Some(Fitted { mlp, center, n_features: d });
        Ok(())
    }

    fn score(&self, x: &Matrix) -> Result<Vec<f64>, DetectorError> {
        let f = self.fitted.as_ref().ok_or(DetectorError::NotFitted)?;
        if x.cols() != f.n_features {
            return Err(DetectorError::DimensionMismatch { expected: f.n_features, got: x.cols() });
        }
        let emb = f.mlp.forward(x);
        Ok((0..emb.rows())
            .map(|r| {
                emb.row(r)
                    .iter()
                    .zip(&f.center)
                    .map(|(e, c)| {
                        let d = e - c;
                        d * d
                    })
                    .sum()
            })
            .collect())
    }
}

// ------------------------------ snapshot ------------------------------

use crate::snapshot::{self, DetectorSnapshot, SnapshotError};
use crate::traits::DetectorKind;
use std::io::{Read, Write};
use uadb_nn::linear::Linear;

impl DetectorSnapshot for DeepSvdd {
    fn kind(&self) -> DetectorKind {
        DetectorKind::DeepSvdd
    }

    fn fitted_dim(&self) -> usize {
        self.fitted.as_ref().map_or(0, |f| f.n_features)
    }

    fn write_fitted(&self, w: &mut dyn Write) -> Result<(), SnapshotError> {
        let f = self.fitted.as_ref().ok_or(SnapshotError::InvalidState("deepsvdd: not fitted"))?;
        snapshot::ensure_finite(&f.center, "deepsvdd: non-finite centre")?;
        for layer in f.mlp.layers() {
            snapshot::ensure_finite(layer.weights().as_slice(), "deepsvdd: non-finite weight")?;
            snapshot::ensure_finite(layer.bias(), "deepsvdd: non-finite bias")?;
        }
        snapshot::write_u64(w, f.n_features as u64)?;
        snapshot::write_u64(w, f.center.len() as u64)?;
        snapshot::write_f64s(w, &f.center)?;
        snapshot::write_u8(
            w,
            match f.mlp.activation() {
                Activation::Sigmoid => 0,
                Activation::Identity => 1,
            },
        )?;
        snapshot::write_u64(w, f.mlp.n_layers() as u64)?;
        for layer in f.mlp.layers() {
            snapshot::write_u64(w, layer.input_dim() as u64)?;
            snapshot::write_u64(w, layer.output_dim() as u64)?;
            snapshot::write_f64s(w, layer.weights().as_slice())?;
            snapshot::write_f64s(w, layer.bias())?;
        }
        Ok(())
    }
}

impl DeepSvdd {
    /// Restores the trained encoder and hypersphere centre written by
    /// [`DetectorSnapshot::write_fitted`].
    pub(crate) fn read_fitted(r: &mut dyn Read) -> Result<Self, SnapshotError> {
        let n_features = snapshot::read_len(r, snapshot::MAX_DIM, "deepsvdd feature count")?;
        if n_features == 0 {
            return Err(SnapshotError::Corrupt("deepsvdd: zero features"));
        }
        let rep_dim = snapshot::read_len(r, snapshot::MAX_DIM, "deepsvdd representation dim")?;
        if rep_dim == 0 {
            return Err(SnapshotError::Corrupt("deepsvdd: zero representation dim"));
        }
        let center = snapshot::read_f64s(r, rep_dim)?;
        snapshot::check_finite(&center, "deepsvdd: non-finite centre")?;
        let activation = match snapshot::read_u8(r)? {
            0 => Activation::Sigmoid,
            1 => Activation::Identity,
            _ => return Err(SnapshotError::Corrupt("deepsvdd: unknown activation")),
        };
        let n_layers = snapshot::read_len(r, 1 << 8, "deepsvdd layer count")?;
        if n_layers == 0 {
            return Err(SnapshotError::Corrupt("deepsvdd: no layers"));
        }
        let mut layers = Vec::with_capacity(n_layers);
        let mut expected_in = n_features;
        for _ in 0..n_layers {
            let in_dim = snapshot::read_len(r, snapshot::MAX_DIM, "deepsvdd layer input")?;
            let out_dim = snapshot::read_len(r, snapshot::MAX_DIM, "deepsvdd layer output")?;
            if in_dim != expected_in || out_dim == 0 {
                return Err(SnapshotError::Corrupt("deepsvdd: layer dimensions do not chain"));
            }
            if (in_dim as u64).saturating_mul(out_dim as u64) > snapshot::MAX_LEN {
                return Err(SnapshotError::Corrupt("deepsvdd: layer too large"));
            }
            let weights = snapshot::read_f64s(r, in_dim * out_dim)?;
            snapshot::check_finite(&weights, "deepsvdd: non-finite weight")?;
            let bias = snapshot::read_f64s(r, out_dim)?;
            snapshot::check_finite(&bias, "deepsvdd: non-finite bias")?;
            let w = Matrix::from_vec(in_dim, out_dim, weights)
                .map_err(|_| SnapshotError::Corrupt("deepsvdd: weight shape mismatch"))?;
            layers.push(Linear::from_parts(w, bias));
            expected_in = out_dim;
        }
        if expected_in != rep_dim {
            return Err(SnapshotError::Corrupt("deepsvdd: encoder output != centre dim"));
        }
        // `hidden` is reconstructed from the layer shapes so the struct
        // stays self-consistent; epochs/batch/seed only matter to `fit`.
        let hidden: Vec<usize> = layers.iter().map(Linear::output_dim).collect();
        let defaults = DeepSvdd::with_seed(0);
        Ok(Self {
            hidden,
            epochs: defaults.epochs,
            batch_size: defaults.batch_size,
            seed: defaults.seed,
            fitted: Some(Fitted { mlp: Mlp::from_layers(layers, activation), center, n_features }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob_with_outlier() -> Matrix {
        let mut rows: Vec<Vec<f64>> = (0..60)
            .map(|i| {
                let t = i as f64 * 0.1;
                vec![t.sin() * 0.3, t.cos() * 0.3]
            })
            .collect();
        rows.push(vec![15.0, -15.0]);
        Matrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn far_point_scores_higher_than_typical() {
        let x = blob_with_outlier();
        let mut d = DeepSvdd::with_seed(0);
        let s = d.fit_score(&x).unwrap();
        let inlier_mean: f64 = s[..60].iter().sum::<f64>() / 60.0;
        assert!(s[60] > inlier_mean, "outlier {} vs inlier mean {}", s[60], inlier_mean);
    }

    #[test]
    fn deterministic_given_seed() {
        let x = blob_with_outlier();
        let a = DeepSvdd::with_seed(3).fit_score(&x).unwrap();
        let b = DeepSvdd::with_seed(3).fit_score(&x).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn center_floor_applied() {
        let x = blob_with_outlier();
        let mut d = DeepSvdd::with_seed(1);
        d.fit(&x).unwrap();
        let f = d.fitted.as_ref().unwrap();
        assert!(f.center.iter().all(|c| c.abs() >= 0.1 - 1e-12));
    }

    #[test]
    fn guards() {
        let d = DeepSvdd::default();
        assert_eq!(d.score(&Matrix::zeros(1, 1)), Err(DetectorError::NotFitted));
        let mut d = DeepSvdd::default();
        assert_eq!(d.fit(&Matrix::zeros(0, 2)), Err(DetectorError::EmptyInput));
    }
}
