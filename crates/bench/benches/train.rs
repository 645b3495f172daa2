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
//! Environment knobs:
//! * `UADB_BENCH_SMOKE=1` — 3 samples per case (CI smoke mode);
//! * `UADB_BENCH_JSON=path` — where to write the machine-readable
//!   summary (default: `<workspace>/BENCH_train.json`).

use criterion::{black_box, criterion_group, Criterion};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use uadb::{Uadb, UadbConfig, UadbModel};
use uadb_data::suite::{generate_by_name, SuiteScale};
use uadb_detectors::DetectorKind;
use uadb_linalg::Matrix;
use uadb_nn::{train_regression, Activation, Mlp, MlpConfig, TrainConfig};

/// Deterministic pseudo-random fill (no timing entropy; xorshift64*).
fn filled_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let bits = state.wrapping_mul(0x2545_f491_4f6c_dd1d);
        (bits >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    };
    let data: Vec<f64> = (0..rows * cols).map(|_| next()).collect();
    Matrix::from_vec(rows, cols, data).expect("shape matches data")
}

fn samples() -> usize {
    if std::env::var("UADB_BENCH_SMOKE").is_ok_and(|v| v == "1") {
        3
    } else {
        30
    }
}

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

/// JSON escape for benchmark names (they are ASCII identifiers, but be
/// strict anyway).
fn esc(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Custom main: proves the determinism contract, runs the groups, then
/// persists every recorded timing as `BENCH_train.json` so the training
/// perf trajectory is tracked across PRs.
fn main() {
    assert_bit_identity();
    benches();
    let results = criterion::take_results();
    let epoch_secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"bench\": \"train\",\n  \"unix_time\": {epoch_secs},\n"));
    json.push_str(&format!("  \"smoke\": {},\n  \"results\": [\n", samples() == 3));
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"group\": \"{}\", \"name\": \"{}\", \"min_ns\": {:.0}, \
             \"mean_ns\": {:.0}, \"samples\": {}}}{}\n",
            esc(&r.group),
            esc(&r.name),
            r.min_ns,
            r.mean_ns,
            r.samples,
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = std::env::var("UADB_BENCH_JSON").unwrap_or_else(|_| {
        // Bench binaries run with the package as cwd; anchor the file
        // at the workspace root regardless.
        format!("{}/../../BENCH_train.json", env!("CARGO_MANIFEST_DIR"))
    });
    match std::fs::write(&path, &json) {
        Ok(()) => println!("bench results written to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
