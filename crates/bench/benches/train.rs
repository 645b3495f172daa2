//! Training benchmarks: the legacy `forward_cached` +
//! `backward_and_step` loop against the zero-allocation `TrainScratch`
//! engine, and one whole UADB fit at 1 and 2 training workers.
//!
//! `legacy_b256` reconstructs the pre-scratch training loop verbatim
//! (per-chunk `select_rows`, per-batch grad matrix, cache cloning the
//! batch) from the still-public `forward_cached`/`backward_and_step`
//! API; `scratch_b256` runs the shipping `train_regression` on the same
//! epoch. `legacy_b31`/`scratch_b31` are the same pair at the shape one
//! fold member trains on in `fit_cardio` (504 × 18 rows, batch 31, the
//! fold's `effective_batch`), where the backward products dominate.
//! `fit_w1`/`fit_w2` time `Uadb::fit_with` on a fixed suite
//! dataset, whose fold members and probe train side by side at 2
//! workers. Before timing anything, `main` asserts the scratch engine
//! lands on the legacy loop's weights at both pair shapes and the
//! 2-worker fit on the 1-worker model bit for bit — the determinism
//! contract behind every `--train-workers` value.
//!
//! `UADB_BENCH_SMOKE` and `UADB_BENCH_JSON` work as in `common`; the
//! summary goes to `<workspace>/BENCH_train.json` by default.

mod common;

use common::{filled_matrix, samples};
use criterion::{black_box, criterion_group, Criterion};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use uadb::{Uadb, UadbConfig, UadbModel};
use uadb_data::suite::{generate_by_name, SuiteScale};
use uadb_detectors::DetectorKind;
use uadb_linalg::Matrix;
use uadb_nn::{train_regression, Activation, Mlp, MlpConfig, TrainConfig};

/// The §IV-A booster shape at an `input_dim`-feature dataset.
fn booster(input_dim: usize, seed: u64) -> Mlp {
    Mlp::new(&MlpConfig {
        input_dim,
        hidden: vec![128, 128],
        output_dim: 1,
        activation: Activation::Sigmoid,
        seed,
    })
}

fn targets_for(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 13 + 5) % 97) as f64 / 96.0).collect()
}

/// The historic training loop, reconstructed from the public API: one
/// `select_rows` allocation per chunk, a fresh grad matrix per batch,
/// and the allocating `forward_cached` path. Same shuffle stream as
/// `train_regression`, so weights stay comparable bit-for-bit.
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

fn weight_bits(mlp: &Mlp) -> Vec<u64> {
    let mut bits = Vec::new();
    for l in mlp.layers() {
        bits.extend(l.weights().as_slice().iter().map(|v| v.to_bits()));
        bits.extend(l.bias().iter().map(|v| v.to_bits()));
    }
    bits
}

/// Every bit a fit leaves behind: member weights, both histories and
/// the calibration constants.
fn model_bits(model: &UadbModel) -> Vec<u64> {
    let mut bits: Vec<u64> = model.ensemble().iter().flat_map(weight_bits).collect();
    for h in model.booster_history().iter().chain(model.pseudo_history()) {
        bits.extend(h.iter().map(|v| v.to_bits()));
    }
    let cal = model.calibration();
    bits.extend([cal.min.to_bits(), cal.range.to_bits()]);
    bits
}

/// The whole-fit cases' input: `6_cardio` at quick scale, standardised,
/// with its IForest teacher's scores, and a paper-default booster cut
/// to 2 UADB steps so one sample stays well under a second.
fn fit_inputs() -> (Uadb, Matrix, Vec<f64>) {
    let d = generate_by_name("6_cardio", SuiteScale::Quick, 0)
        .expect("6_cardio is a roster entry")
        .standardized();
    let teacher = DetectorKind::IForest.build(0).fit_score(&d.x).expect("teacher fits");
    (Uadb::new(UadbConfig { t_steps: 2, ..UadbConfig::with_seed(0) }), d.x, teacher)
}

/// Refuses to time anything if the scratch engine does not land on
/// exactly the legacy loop's weights (ragged 300/64 and 504/31 splits
/// included), or if a 2-worker fit differs from the 1-worker one in
/// any bit.
fn assert_bit_identity() {
    for (rows, features, batch) in [(300, 32, 64), (504, 18, 31)] {
        let x = filled_matrix(rows, features, 23);
        let t = targets_for(rows);
        let cfg =
            TrainConfig { batch_size: batch, epochs: 2, shuffle_seed: 9, ..TrainConfig::default() };
        let mut reference = booster(features, 3);
        legacy_train_regression(&mut reference, &x, &t, &cfg);
        let mut mlp = booster(features, 3);
        train_regression(&mut mlp, &x, &t, &cfg);
        assert!(
            weight_bits(&mlp) == weight_bits(&reference),
            "scratch diverged from the legacy loop at {rows}x{features}, batch {batch}"
        );
    }

    let (uadb, x, teacher) = fit_inputs();
    let fit = |workers| model_bits(&uadb.fit_with(&x, &teacher, workers).expect("fit"));
    assert!(fit(1) == fit(2), "the 2-worker fit diverged from the 1-worker fit");
    println!("bit-identity: legacy == scratch; fit at 1 worker == fit at 2 workers");
}

fn bench(c: &mut Criterion) {
    let sample_size = samples();

    // One epoch over 1024 rows at the paper's batch 256 per sample; each
    // case trains its own persistent network so Adam state and the
    // scratch/pack reuse stay warm across samples (the steady state the
    // zero-allocation claim is about).
    let n = 1024usize;
    let x = filled_matrix(n, 32, 41);
    let t = targets_for(n);
    let base =
        TrainConfig { batch_size: 256, epochs: 1, shuffle_seed: 17, ..TrainConfig::default() };

    let mut g = c.benchmark_group("train");
    g.sample_size(sample_size);

    let mut legacy_mlp = booster(32, 7);
    g.bench_function("legacy_b256", |bch| {
        bch.iter(|| {
            legacy_train_regression(&mut legacy_mlp, &x, &t, &base);
            black_box(legacy_mlp.layer(0).bias()[0])
        })
    });

    let mut scratch_mlp = booster(32, 7);
    g.bench_function("scratch_b256", |bch| {
        bch.iter(|| black_box(train_regression(&mut scratch_mlp, &x, &t, &base)))
    });

    // One epoch of a `fit_cardio` fold member: 504 of 756 rows × 18
    // features at the fold's effective batch of 31.
    let (n31, d31) = (504usize, 18usize);
    let x31 = filled_matrix(n31, d31, 43);
    let t31 = targets_for(n31);
    let b31 = TrainConfig { batch_size: 31, epochs: 1, shuffle_seed: 19, ..TrainConfig::default() };

    let mut legacy_mlp31 = booster(d31, 7);
    g.bench_function("legacy_b31", |bch| {
        bch.iter(|| {
            legacy_train_regression(&mut legacy_mlp31, &x31, &t31, &b31);
            black_box(legacy_mlp31.layer(0).bias()[0])
        })
    });

    let mut scratch_mlp31 = booster(d31, 7);
    g.bench_function("scratch_b31", |bch| {
        bch.iter(|| black_box(train_regression(&mut scratch_mlp31, &x31, &t31, &b31)))
    });

    // One whole fit per sample: 2 steps × (3 fold members + the probe).
    let (uadb, fit_x, teacher) = fit_inputs();
    for workers in [1usize, 2] {
        g.bench_function(format!("fit_w{workers}"), |bch| {
            bch.iter(|| black_box(uadb.fit_with(&fit_x, &teacher, workers).expect("fit")))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);

/// Custom main: proves the determinism contract, runs the groups, then
/// writes `BENCH_train.json`.
fn main() {
    assert_bit_identity();
    benches();
    common::write_results("train");
}
