//! Property-based tests for the neural-network substrate.

use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use uadb_linalg::Matrix;
use uadb_nn::{train_regression, train_svdd, Activation, AdamParams, Mlp, MlpConfig, TrainConfig};

/// The crate exposes its numerically-stable sigmoid via `mlp::sigmoid`.
fn sigmoid_of(x: f64) -> f64 {
    uadb_nn::mlp::sigmoid(x)
}

/// Every weight and bias of the network as raw `f64` bits — the
/// comparison currency for the bit-identity properties below.
fn weight_bits(mlp: &Mlp) -> Vec<u64> {
    let mut bits = Vec::new();
    for l in mlp.layers() {
        bits.extend(l.weights().as_slice().iter().map(|v| v.to_bits()));
        bits.extend(l.bias().iter().map(|v| v.to_bits()));
    }
    bits
}

/// The pre-scratch training loop, reconstructed from the public
/// `forward_cached`/`backward_and_step` API exactly as `train.rs`
/// historically drove it (per-chunk `select_rows`, per-batch grad
/// matrix). It is the bit-identity *reference*: the scratch engine must
/// land on exactly these weights.
fn legacy_train_regression(mlp: &mut Mlp, x: &Matrix, targets: &[f64], cfg: &TrainConfig) {
    let n = x.rows();
    let batch = cfg.batch_size.max(1);
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.shuffle_seed);
    for _epoch in 0..cfg.epochs {
        order.shuffle(&mut rng);
        for chunk in order.chunks(batch) {
            let xb = x.select_rows(chunk);
            let cache = mlp.forward_cached(&xb);
            let b = chunk.len() as f64;
            let mut grad = Matrix::zeros(chunk.len(), 1);
            for (row, (&idx, g)) in chunk.iter().zip(grad.as_mut_slice().iter_mut()).enumerate() {
                let o = cache.output().get(row, 0);
                *g = 2.0 * (o - targets[idx]) / b;
            }
            mlp.backward_and_step(&cache, &grad, &cfg.adam);
        }
    }
}

/// Legacy reference for the SVDD objective (same construction).
fn legacy_train_svdd(mlp: &mut Mlp, x: &Matrix, center: &[f64], cfg: &TrainConfig) {
    let n = x.rows();
    let batch = cfg.batch_size.max(1);
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.shuffle_seed);
    for _epoch in 0..cfg.epochs {
        order.shuffle(&mut rng);
        for chunk in order.chunks(batch) {
            let xb = x.select_rows(chunk);
            let cache = mlp.forward_cached(&xb);
            let out = cache.output();
            let b = chunk.len() as f64;
            let mut grad = Matrix::zeros(out.rows(), out.cols());
            for r in 0..out.rows() {
                let orow = out.row(r);
                let grow = grad.row_mut(r);
                for ((g, &o), &c) in grow.iter_mut().zip(orow).zip(center) {
                    *g = 2.0 * (o - c) / b;
                }
            }
            mlp.backward_and_step(&cache, &grad, &cfg.adam);
        }
    }
}

proptest! {
    #[test]
    fn sigmoid_bounded_and_monotone(a in -50.0..50.0f64, b in -50.0..50.0f64) {
        let sa = sigmoid_of(a);
        let sb = sigmoid_of(b);
        prop_assert!((0.0..=1.0).contains(&sa));
        if a < b {
            prop_assert!(sa <= sb + 1e-15);
        }
    }

    #[test]
    fn forward_is_deterministic_and_finite(
        seed in 0u64..1000,
        data in prop::collection::vec(-5.0..5.0f64, 12),
    ) {
        let cfg = MlpConfig {
            input_dim: 3,
            hidden: vec![6, 4],
            output_dim: 1,
            activation: Activation::Sigmoid,
            seed,
        };
        let mlp = Mlp::new(&cfg);
        let x = Matrix::from_vec(4, 3, data).unwrap();
        let a = mlp.forward(&x);
        let b = mlp.forward(&x);
        prop_assert_eq!(a.as_slice(), b.as_slice());
        prop_assert!(a.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn training_never_produces_nan(
        seed in 0u64..200,
        targets in prop::collection::vec(0.0..1.0f64, 16),
    ) {
        let mut mlp = Mlp::new(&MlpConfig {
            input_dim: 2,
            hidden: vec![8],
            output_dim: 1,
            activation: Activation::Sigmoid,
            seed,
        });
        let x = Matrix::from_vec(16, 2, (0..32).map(|i| (i as f64) * 0.1 - 1.6).collect()).unwrap();
        let cfg = TrainConfig { epochs: 5, batch_size: 4, shuffle_seed: seed, ..TrainConfig::default() };
        let loss = train_regression(&mut mlp, &x, &targets, &cfg);
        prop_assert!(loss.is_finite());
        let pred = mlp.predict_vec(&x);
        prop_assert!(pred.iter().all(|v| v.is_finite() && (0.0..=1.0).contains(v)));
    }

    /// The determinism contract: the scratch engine lands on
    /// *bit-identical* weights to the legacy
    /// `forward_cached`/`backward_and_step` loop — including ragged
    /// final batches. Hidden widths reach past two of the GEMM's
    /// 32-wide strips, so both backward products, the packed `Wᵀ`
    /// included, run whole strips (multiples of 32) and ragged widths.
    #[test]
    fn scratch_training_bit_matches_legacy(
        seed in 0u64..64,
        n in 5usize..21,
        batch in 1usize..9,
        h1 in 1usize..73,
        h2 in 1usize..73,
    ) {
        let x = Matrix::from_vec(
            n,
            3,
            (0..n * 3).map(|i| ((i as f64) * 0.37 + seed as f64 * 0.11).sin()).collect(),
        )
        .unwrap();
        let targets: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) % 10) as f64 / 10.0).collect();
        let build = || Mlp::new(&MlpConfig {
            input_dim: 3,
            hidden: vec![h1, h2],
            output_dim: 1,
            activation: Activation::Sigmoid,
            seed,
        });
        let cfg = TrainConfig {
            adam: AdamParams::default(),
            batch_size: batch,
            epochs: 3,
            shuffle_seed: seed ^ 0xabcd,
            progress: None,
        };
        let mut reference = build();
        legacy_train_regression(&mut reference, &x, &targets, &cfg);
        let mut mlp = build();
        train_regression(&mut mlp, &x, &targets, &cfg);
        prop_assert_eq!(weight_bits(&mlp), weight_bits(&reference), "diverged from legacy loop");
    }

    /// Same contract for the SVDD objective (multi-column output
    /// exercises the grad-row layout and the identity head). The hidden
    /// and output widths reach past two 32-wide strips.
    #[test]
    fn svdd_scratch_training_bit_matches_legacy(
        seed in 0u64..48,
        n in 4usize..17,
        batch in 1usize..7,
        hidden in 1usize..73,
        out in 1usize..73,
    ) {
        let x = Matrix::from_vec(
            n,
            2,
            (0..n * 2).map(|i| ((i as f64) * 0.23 - seed as f64 * 0.05).cos()).collect(),
        )
        .unwrap();
        let center: Vec<f64> = (0..out).map(|j| ((j * 5 + 1) % 7) as f64 * 0.15 - 0.45).collect();
        let build = || Mlp::new(&MlpConfig {
            input_dim: 2,
            hidden: vec![hidden],
            output_dim: out,
            activation: Activation::Identity,
            seed,
        });
        let cfg = TrainConfig {
            adam: AdamParams::default(),
            batch_size: batch,
            epochs: 2,
            shuffle_seed: seed.wrapping_mul(31),
            progress: None,
        };
        let mut reference = build();
        legacy_train_svdd(&mut reference, &x, &center, &cfg);
        let mut mlp = build();
        train_svdd(&mut mlp, &x, &center, &cfg);
        prop_assert_eq!(weight_bits(&mlp), weight_bits(&reference), "diverged from legacy loop");
    }
}

/// The bit-identity contract past the GEMM's blocking: hidden layers
/// wider than its 64-row block and a batch deeper than its 256-deep `k`
/// block, so `grad_w = xᵀ·g` runs more than one block on both `m` and
/// `k`, and `grad_in = g·Wᵀ` more than one row block.
#[test]
fn scratch_training_bit_matches_legacy_across_gemm_blocks() {
    let n = 330;
    let x =
        Matrix::from_vec(n, 5, (0..n * 5).map(|i| ((i as f64) * 0.29 + 0.4).sin() * 1.5).collect())
            .unwrap();
    let targets: Vec<f64> = (0..n).map(|i| ((i * 11 + 2) % 13) as f64 / 12.0).collect();
    let build = || {
        Mlp::new(&MlpConfig {
            input_dim: 5,
            hidden: vec![80, 70],
            output_dim: 1,
            activation: Activation::Sigmoid,
            seed: 17,
        })
    };
    // 330 rows at batch 300 also leave a ragged 30-row batch.
    let cfg = TrainConfig {
        adam: AdamParams::default(),
        batch_size: 300,
        epochs: 2,
        shuffle_seed: 5,
        progress: None,
    };
    let mut reference = build();
    legacy_train_regression(&mut reference, &x, &targets, &cfg);
    let mut mlp = build();
    train_regression(&mut mlp, &x, &targets, &cfg);
    assert!(weight_bits(&mlp) == weight_bits(&reference), "diverged from legacy loop");
}

/// The bit-identity contract at the booster's real training shape: one
/// `6_cardio` fold member, 18 → 128 → 128 → 1 over 504 rows at its
/// effective batch of 31 (16 full batches and an 8-row tail per epoch).
/// Every hidden product runs four whole 32-column strips, and the
/// packed `Wᵀ` of both the hidden layer and the head.
#[test]
fn scratch_training_bit_matches_legacy_at_booster_shape() {
    let n = 504;
    let x = Matrix::from_vec(
        n,
        18,
        (0..n * 18).map(|i| ((i as f64) * 0.41 + 0.3).sin() * 2.0 - 0.2).collect(),
    )
    .unwrap();
    let targets: Vec<f64> = (0..n).map(|i| ((i * 13 + 5) % 97) as f64 / 96.0).collect();
    let build = || Mlp::new(&MlpConfig::booster(18, 11));
    let cfg = TrainConfig {
        adam: AdamParams::default(),
        batch_size: 31,
        epochs: 2,
        shuffle_seed: 23,
        progress: None,
    };
    let mut reference = build();
    legacy_train_regression(&mut reference, &x, &targets, &cfg);
    let mut mlp = build();
    train_regression(&mut mlp, &x, &targets, &cfg);
    assert!(weight_bits(&mlp) == weight_bits(&reference), "diverged from legacy loop");
}
