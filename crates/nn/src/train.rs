//! Mini-batch training loops: pseudo-supervised regression (the UADB
//! booster objective) and the DeepSVDD one-class objective.
//!
//! Both loops run on the zero-allocation [`TrainScratch`] engine
//! (`crate::scratch`): batch rows are gathered once into a reusable
//! buffer (no per-chunk `select_rows` allocation), and activations and
//! gradients live in persistent buffers. A call trains one network on
//! the calling thread; callers that fit several independent networks
//! (the UADB booster's fold members and probe) run calls side by side.

use crate::adam::AdamParams;
use crate::mlp::Mlp;
use crate::scratch::{train_batch_step, Objective, TrainScratch};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use uadb_linalg::Matrix;

/// Per-epoch training observer: called once after every completed
/// epoch with `(epoch index, row-weighted mean loss, epoch wall-clock
/// ms)`. Purely observational — the hook cannot influence training, so
/// trained weights stay bit-identical whether or not one is installed.
#[derive(Clone)]
pub struct ProgressHook(std::sync::Arc<dyn Fn(usize, f64, u64) + Send + Sync>);

impl ProgressHook {
    /// Wraps a callback as a progress hook.
    pub fn new(f: impl Fn(usize, f64, u64) + Send + Sync + 'static) -> Self {
        Self(std::sync::Arc::new(f))
    }

    /// Invokes the hook for one completed epoch.
    pub fn call(&self, epoch: usize, mean_loss: f64, elapsed_ms: u64) {
        (self.0)(epoch, mean_loss, elapsed_ms);
    }
}

impl std::fmt::Debug for ProgressHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ProgressHook(..)")
    }
}

/// Mini-batch schedule. Defaults follow the paper's §IV-A: Adam lr 1e-3,
/// batch 256, 10 epochs per UADB step.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Adam hyper-parameters.
    pub adam: AdamParams,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Passes over the data.
    pub epochs: usize,
    /// Shuffle seed (re-seeded per call so repeated calls differ only via
    /// this value).
    pub shuffle_seed: u64,
    /// Optional per-epoch observer (`None` trains silently).
    pub progress: Option<ProgressHook>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            adam: AdamParams::default(),
            batch_size: 256,
            epochs: 10,
            shuffle_seed: 0,
            progress: None,
        }
    }
}

/// Trains `mlp` to regress `targets` from `x` under MSE, returning the
/// row-weighted mean loss of the final epoch (`Σ squared error / n` —
/// every row counts equally, regardless of how the epoch splits into
/// batches).
///
/// The gradient of the per-batch mean-squared error w.r.t. the sigmoid
/// output is `2 (o - t) / B`; the network applies the chain rule inward.
///
/// # Panics
/// If `targets.len() != x.rows()` or (debug builds) the network output
/// is not 1-wide — both checked before the empty-input early return.
pub fn train_regression(mlp: &mut Mlp, x: &Matrix, targets: &[f64], cfg: &TrainConfig) -> f64 {
    assert_eq!(x.rows(), targets.len(), "target count must match rows");
    debug_assert_eq!(mlp.output_dim(), 1, "regression head must be 1-wide");
    train_loop(mlp, x, cfg, Some(targets), None)
}

/// Trains `mlp` under the DeepSVDD objective: minimise the mean squared
/// distance of embeddings to a fixed `center`. Returns the row-weighted
/// mean distance of the final epoch (`Σ squared distance / n`).
///
/// # Panics
/// If `center.len()` differs from the network output width — checked
/// before the empty-input early return, so the contract holds for
/// zero-row inputs too.
pub fn train_svdd(mlp: &mut Mlp, x: &Matrix, center: &[f64], cfg: &TrainConfig) -> f64 {
    assert_eq!(mlp.output_dim(), center.len(), "center width must match output");
    train_loop(mlp, x, cfg, None, Some(center))
}

/// Shared epoch/batch driver. Exactly one of `targets` (MSE) or
/// `center` (SVDD) must be `Some`.
fn train_loop(
    mlp: &mut Mlp,
    x: &Matrix,
    cfg: &TrainConfig,
    targets: Option<&[f64]>,
    center: Option<&[f64]>,
) -> f64 {
    let n = x.rows();
    if n == 0 {
        return 0.0;
    }
    let batch = cfg.batch_size.max(1);
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.shuffle_seed);
    let mut scratch = TrainScratch::default();
    let mut last_epoch_loss = 0.0;
    for epoch in 0..cfg.epochs {
        let epoch_started = std::time::Instant::now();
        order.shuffle(&mut rng);
        let mut epoch_sum = 0.0;
        for chunk in order.chunks(batch) {
            // Grow-only: after the first epoch every buffer is sized and
            // the steady-state loop allocates nothing.
            scratch.prepare(mlp, chunk.len());
            scratch.gather(x, chunk);
            let objective = match (targets, center) {
                (Some(t), None) => {
                    scratch.gather_targets(t, chunk);
                    Objective::Mse
                }
                (None, Some(c)) => Objective::Svdd { center: c },
                _ => unreachable!("exactly one objective"),
            };
            epoch_sum += train_batch_step(mlp, &mut scratch, chunk.len(), &objective, &cfg.adam);
        }
        last_epoch_loss = epoch_sum / n as f64;
        if let Some(hook) = &cfg.progress {
            hook.call(epoch, last_epoch_loss, epoch_started.elapsed().as_millis() as u64);
        }
    }
    last_epoch_loss
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::{Activation, MlpConfig};

    #[test]
    fn regression_overfits_tiny_dataset() {
        // Two separable blobs with opposite targets must be learnable.
        let x = Matrix::from_vec(
            8,
            2,
            vec![
                0.0, 0.0, 0.1, 0.1, -0.1, 0.0, 0.0, -0.1, // cluster A
                3.0, 3.0, 3.1, 3.0, 2.9, 3.1, 3.0, 2.9, // cluster B
            ],
        )
        .unwrap();
        let t = vec![0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0];
        let mut mlp = Mlp::new(&MlpConfig {
            input_dim: 2,
            hidden: vec![16],
            output_dim: 1,
            activation: Activation::Sigmoid,
            seed: 0,
        });
        let cfg = TrainConfig {
            epochs: 300,
            batch_size: 8,
            adam: AdamParams { lr: 0.01, ..AdamParams::default() },
            shuffle_seed: 1,
            progress: None,
        };
        let loss = train_regression(&mut mlp, &x, &t, &cfg);
        assert!(loss < 0.01, "final loss {loss} too high");
        let pred = mlp.predict_vec(&x);
        for (p, t) in pred.iter().zip(&t) {
            assert!((p - t).abs() < 0.2, "pred {p} vs target {t}");
        }
    }

    #[test]
    fn training_loss_decreases() {
        let x = Matrix::from_vec(16, 1, (0..16).map(|i| i as f64 / 16.0).collect()).unwrap();
        let t: Vec<f64> = (0..16).map(|i| if i < 8 { 0.2 } else { 0.8 }).collect();
        let mut mlp = Mlp::new(&MlpConfig {
            input_dim: 1,
            hidden: vec![8],
            output_dim: 1,
            activation: Activation::Sigmoid,
            seed: 3,
        });
        let short = TrainConfig { epochs: 1, batch_size: 4, ..TrainConfig::default() };
        let first = train_regression(&mut mlp, &x, &t, &short);
        let long = TrainConfig { epochs: 100, batch_size: 4, ..TrainConfig::default() };
        let later = train_regression(&mut mlp, &x, &t, &long);
        assert!(later < first, "loss should decrease: {later} vs {first}");
    }

    #[test]
    fn svdd_pulls_embeddings_to_center() {
        let x = Matrix::from_vec(12, 2, (0..24).map(|i| (i as f64) * 0.1).collect()).unwrap();
        let mut mlp = Mlp::new(&MlpConfig {
            input_dim: 2,
            hidden: vec![8],
            output_dim: 2,
            activation: Activation::Identity,
            seed: 5,
        });
        let center = vec![0.5, -0.5];
        let cfg = TrainConfig {
            epochs: 200,
            batch_size: 12,
            adam: AdamParams { lr: 0.01, ..AdamParams::default() },
            shuffle_seed: 0,
            progress: None,
        };
        let final_dist = train_svdd(&mut mlp, &x, &center, &cfg);
        assert!(final_dist < 0.05, "embeddings should collapse: {final_dist}");
    }

    #[test]
    fn empty_input_is_noop() {
        let mut mlp = Mlp::new(&MlpConfig {
            input_dim: 2,
            hidden: vec![4],
            output_dim: 1,
            activation: Activation::Sigmoid,
            seed: 0,
        });
        let loss = train_regression(&mut mlp, &Matrix::zeros(0, 2), &[], &TrainConfig::default());
        assert_eq!(loss, 0.0);
        let loss = train_svdd(&mut mlp, &Matrix::zeros(0, 2), &[0.0], &TrainConfig::default());
        assert_eq!(loss, 0.0);
    }

    #[test]
    #[should_panic(expected = "center width must match output")]
    fn svdd_center_width_checked_even_for_empty_input() {
        // Regression test: the width validation used to live inside the
        // batch loop, so a zero-row input silently skipped it.
        let mut mlp = Mlp::new(&MlpConfig {
            input_dim: 2,
            hidden: vec![4],
            output_dim: 2,
            activation: Activation::Identity,
            seed: 0,
        });
        let _ = train_svdd(&mut mlp, &Matrix::zeros(0, 2), &[0.0], &TrainConfig::default());
    }

    #[test]
    #[should_panic(expected = "target count")]
    fn mismatched_targets_panic() {
        let mut mlp = Mlp::new(&MlpConfig {
            input_dim: 2,
            hidden: vec![4],
            output_dim: 1,
            activation: Activation::Sigmoid,
            seed: 0,
        });
        let _ = train_regression(&mut mlp, &Matrix::zeros(3, 2), &[0.0], &TrainConfig::default());
    }

    #[test]
    fn progress_hook_sees_every_epoch_and_final_loss() {
        let x = Matrix::from_vec(12, 1, (0..12).map(|i| i as f64 / 12.0).collect()).unwrap();
        let t: Vec<f64> = (0..12).map(|i| (i % 2) as f64).collect();
        let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = std::sync::Arc::clone(&seen);
        let cfg = TrainConfig {
            epochs: 4,
            batch_size: 5,
            progress: Some(ProgressHook::new(move |epoch, loss, ms| {
                sink.lock().unwrap().push((epoch, loss, ms));
            })),
            ..TrainConfig::default()
        };
        let mut mlp = Mlp::new(&MlpConfig {
            input_dim: 1,
            hidden: vec![4],
            output_dim: 1,
            activation: Activation::Sigmoid,
            seed: 11,
        });
        let final_loss = train_regression(&mut mlp, &x, &t, &cfg);
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 4);
        assert_eq!(seen.iter().map(|e| e.0).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        assert_eq!(seen.last().unwrap().1, final_loss);

        // The hook is observational: weights are bit-identical without it.
        let mut silent = Mlp::new(&MlpConfig {
            input_dim: 1,
            hidden: vec![4],
            output_dim: 1,
            activation: Activation::Sigmoid,
            seed: 11,
        });
        let quiet_cfg = TrainConfig { epochs: 4, batch_size: 5, ..TrainConfig::default() };
        let quiet_loss = train_regression(&mut silent, &x, &t, &quiet_cfg);
        assert_eq!(quiet_loss, final_loss);
        assert_eq!(silent.predict_vec(&x), mlp.predict_vec(&x));
    }

    #[test]
    fn deterministic_given_seeds() {
        let x = Matrix::from_vec(10, 2, (0..20).map(|i| i as f64 * 0.05).collect()).unwrap();
        let t: Vec<f64> = (0..10).map(|i| (i % 2) as f64).collect();
        let run = || {
            let mut mlp = Mlp::new(&MlpConfig {
                input_dim: 2,
                hidden: vec![6],
                output_dim: 1,
                activation: Activation::Sigmoid,
                seed: 9,
            });
            let cfg = TrainConfig { epochs: 5, batch_size: 4, ..TrainConfig::default() };
            train_regression(&mut mlp, &x, &t, &cfg);
            mlp.predict_vec(&x)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn ragged_batch_loss_is_row_weighted_mean() {
        // 10 rows with batch 4 splits 4/4/2. With lr = 0 the weights
        // never move, so the reported final-epoch loss must equal
        // Σ (f(x_r) - t_r)² / n computed independently — the historic
        // mean-of-batch-means over-weighted the trailing 2-row batch.
        let x = Matrix::from_vec(10, 2, (0..20).map(|i| i as f64 * 0.17 - 1.5).collect()).unwrap();
        let t: Vec<f64> = (0..10).map(|i| (i % 3) as f64 * 0.4).collect();
        let mut mlp = Mlp::new(&MlpConfig {
            input_dim: 2,
            hidden: vec![5],
            output_dim: 1,
            activation: Activation::Sigmoid,
            seed: 21,
        });
        let expect = {
            let pred = mlp.predict_vec(&x);
            pred.iter().zip(&t).map(|(o, tv)| (o - tv) * (o - tv)).sum::<f64>() / 10.0
        };
        let cfg = TrainConfig {
            epochs: 3,
            batch_size: 4,
            adam: AdamParams { lr: 0.0, ..AdamParams::default() },
            shuffle_seed: 7,
            progress: None,
        };
        let got = train_regression(&mut mlp, &x, &t, &cfg);
        assert!((got - expect).abs() < 1e-12, "loss {got} should be row-weighted mean {expect}");
    }

    #[test]
    fn ragged_batch_svdd_loss_is_row_weighted_mean() {
        // Same invariant for the SVDD objective: 7 rows, batch 3 → 3/3/1.
        let x = Matrix::from_vec(7, 2, (0..14).map(|i| i as f64 * 0.11 - 0.6).collect()).unwrap();
        let center = vec![0.3, -0.2];
        let mut mlp = Mlp::new(&MlpConfig {
            input_dim: 2,
            hidden: vec![6],
            output_dim: 2,
            activation: Activation::Identity,
            seed: 4,
        });
        let expect = {
            let out = mlp.forward(&x);
            let mut sum = 0.0;
            for r in 0..7 {
                for (o, c) in out.row(r).iter().zip(&center) {
                    sum += (o - c) * (o - c);
                }
            }
            sum / 7.0
        };
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 3,
            adam: AdamParams { lr: 0.0, ..AdamParams::default() },
            shuffle_seed: 2,
            progress: None,
        };
        let got = train_svdd(&mut mlp, &x, &center, &cfg);
        assert!((got - expect).abs() < 1e-12, "loss {got} should be row-weighted mean {expect}");
    }
}
