//! The traced run's in-process spans: each wraps one public library
//! call the `uadb-serve` binary makes, on the same inputs, so its time
//! can be attributed to the layer that owns the call.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use uadb::UadbConfig;
use uadb_data::splits::kfold;
use uadb_data::suite::{generate_by_name, SuiteScale};
use uadb_data::{Dataset, Standardizer};
use uadb_detectors::{snapshot, DetectorKind};
use uadb_linalg::Matrix;
use uadb_nn::ProgressHook;
use uadb_serve::{json, persist, PoolConfig, ScoreWorkspace, ScoringPool, ServedModel};

/// The dataset every workload fits. Its shape is a function of the
/// generator seed, so the fit uses one seed for every workload seed:
/// seed 0 gives 756 rows × 18 features. The workload seed varies the
/// scored rows and their order, never the fit, which keeps the fit
/// bit-identical and its AUROC exact across runs.
pub const DATASET: &str = "6_cardio";
pub const FIT_SEED: u64 = 0;

pub fn dataset() -> Dataset {
    generate_by_name(DATASET, SuiteScale::Full, FIT_SEED).expect("6_cardio is in the roster")
}

pub fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Span times of one in-process fit that mirrors `uadb-serve train`.
pub struct FitTrace {
    pub generate_ms: f64,
    pub standardize_ms: f64,
    pub teacher_fit_ms: f64,
    pub nn_train_ms: f64,
    pub nn_epochs: usize,
    pub nn_gflop: f64,
    pub fit_other_ms: f64,
    pub self_score_ms: f64,
    pub save_ms: f64,
    /// The wall time of the calls `train` itself makes (generate, the
    /// training call, self-scoring and save), without the standalone
    /// standardize and teacher spans.
    pub wall_ms: f64,
}

/// Fits in process with spans around each public call:
/// `ServedModel::train_with_teacher_workers` is the call `train` makes;
/// the standardiser and teacher spans time the same calls it makes
/// inside, run once more on their own; the `UadbConfig.progress` hook
/// times every epoch. What is left of the training call is `core`.
pub fn traced_fit(steps: usize, workers: usize, out: &Path) -> Result<FitTrace, String> {
    let seed = FIT_SEED;
    let t = Instant::now();
    let data = dataset();
    let generate_ms = ms(t);

    let t = Instant::now();
    let standardizer = Standardizer::fit(&data.x);
    let x = standardizer.transform(&data.x);
    let standardize_ms = ms(t);

    let t = Instant::now();
    let mut detector = snapshot::build(DetectorKind::IForest, seed);
    let teacher_scores = detector.fit_score(&x).map_err(|e| format!("teacher: {e}"))?;
    let teacher_fit_ms = ms(t);
    drop((detector, teacher_scores));

    let mut cfg = UadbConfig::with_seed(seed);
    cfg.t_steps = steps;
    let epoch_ends: Arc<Mutex<Vec<(usize, Instant)>>> = Arc::default();
    let hook_ends = Arc::clone(&epoch_ends);
    cfg.progress = Some(ProgressHook::new(move |epoch, _loss, _ms| {
        hook_ends.lock().expect("epoch log poisoned").push((epoch, Instant::now()));
    }));
    let nn_gflop = train_flops(&cfg, &data) / 1e9;
    let t = Instant::now();
    let (served, _teacher) =
        ServedModel::train_with_teacher_workers(&data, DetectorKind::IForest, cfg, workers)
            .map_err(|e| format!("training: {e}"))?;
    let train_ms = ms(t);
    let ends = epoch_ends.lock().expect("epoch log poisoned").clone();
    let (nn_train_ms, nn_epochs) = epoch_time_ms(&ends);

    let t = Instant::now();
    let scores = served.score_rows(&data.x).map_err(|e| format!("self-scoring: {e}"))?;
    std::hint::black_box(uadb_metrics::roc_auc(&data.labels_f64(), &scores));
    let self_score_ms = ms(t);

    let t = Instant::now();
    persist::save_file(&served, out).map_err(|e| format!("saving: {e}"))?;
    let save_ms = ms(t);

    Ok(FitTrace {
        generate_ms,
        standardize_ms,
        teacher_fit_ms,
        nn_train_ms,
        nn_epochs,
        nn_gflop,
        fit_other_ms: train_ms - standardize_ms - teacher_fit_ms - nn_train_ms,
        self_score_ms,
        save_ms,
        wall_ms: generate_ms + train_ms + self_score_ms + save_ms,
    })
}

/// Sums epoch times from the hook's end-of-epoch instants. A fit's
/// first epoch has no earlier instant inside the fit, so each fit's
/// epochs 1.. are timed exactly and its first epoch counts as their
/// mean. (The hook's own millisecond argument is too coarse for ~10 ms
/// epochs.)
fn epoch_time_ms(ends: &[(usize, Instant)]) -> (f64, usize) {
    let mut total = 0.0;
    let mut fit: Vec<Instant> = Vec::new();
    let mut flush = |fit: &mut Vec<Instant>| {
        if fit.len() > 1 {
            let span = (fit[fit.len() - 1] - fit[0]).as_secs_f64() * 1e3;
            total += span * fit.len() as f64 / (fit.len() - 1) as f64;
        }
        fit.clear();
    };
    for &(epoch, at) in ends {
        if epoch == 0 {
            flush(&mut fit);
        }
        fit.push(at);
    }
    flush(&mut fit);
    (total, ends.len())
}

/// Dense layer widths of the booster for `input` features.
fn widths(cfg: &UadbConfig, input: usize) -> Vec<usize> {
    let mut w = vec![input];
    w.extend(&cfg.hidden);
    w.push(1);
    w
}

/// Forward FLOPs of one row through one ensemble member.
pub fn forward_flops_per_row(cfg: &UadbConfig, input: usize) -> f64 {
    widths(cfg, input).windows(2).map(|p| 2.0 * (p[0] * p[1]) as f64).sum()
}

/// Analytic forward plus backward FLOPs of the whole fit: each layer
/// costs 2·in·out forward, 2·in·out for its weight gradient and, past
/// the first layer, 2·in·out for its input gradient; every step trains
/// each fold member and one probe on their fold's training rows.
fn train_flops(cfg: &UadbConfig, data: &Dataset) -> f64 {
    let w = widths(cfg, data.n_features());
    let per_row: f64 = w
        .windows(2)
        .enumerate()
        .map(|(l, p)| (if l == 0 { 4.0 } else { 6.0 }) * (p[0] * p[1]) as f64)
        .sum();
    let folds = kfold(data.n_samples(), cfg.cv_folds.max(1), cfg.seed ^ 0x5eed_f01d);
    let member_rows: usize = folds.iter().map(|f| f.train.len()).sum();
    let rows: usize =
        (1..=cfg.t_steps).map(|t| member_rows + folds[t % folds.len()].train.len()).sum();
    rows as f64 * cfg.epochs_per_step as f64 * per_row
}

/// Median wall time in µs of `f`, after two warm-up calls, over up to
/// `reps` calls or about `budget_ms` of calls, whichever ends first.
pub fn median_us(reps: usize, budget_ms: f64, mut f: impl FnMut(usize)) -> f64 {
    f(0);
    f(1);
    let started = Instant::now();
    let mut times = Vec::with_capacity(reps);
    for i in 0..reps {
        let t = Instant::now();
        f(i);
        times.push(t.elapsed().as_secs_f64() * 1e6);
        if ms(started) > budget_ms && times.len() >= 5 {
            break;
        }
    }
    crate::stats::median(&times)
}

/// Per-request layer timings on the workload's own request rows.
pub struct RequestLayers {
    pub json_parse_us: f64,
    pub json_serialize_us: f64,
    pub model_score_us: f64,
    pub model_gemm_gflops: f64,
    pub pool_score_us: f64,
    pub pool_new_ms: f64,
    pub pool_drop_ms: f64,
    pub load_ms: f64,
}

/// `batches` are the rows of the workload's score requests (row-major,
/// `cols` wide) and `bodies` their JSON request bodies.
pub fn request_layers(
    model_path: &Path,
    model: &Arc<ServedModel>,
    batches: &[Vec<f64>],
    bodies: &[String],
    workers: usize,
) -> RequestLayers {
    let cols = model.input_dim();
    let matrices: Vec<Arc<Matrix>> = batches
        .iter()
        .map(|b| Arc::new(Matrix::from_vec(b.len() / cols, cols, b.clone()).expect("whole rows")))
        .collect();
    let rows = matrices[0].rows();
    let expected: Vec<Vec<f64>> =
        matrices.iter().map(|m| model.score_rows(m).expect("in-process scoring")).collect();
    // Smaller budgets for big batches keep the traced run short.
    let budget = if rows > 1000 { 1500.0 } else { 300.0 };

    let json_parse_us = median_us(2000, budget, |i| {
        let doc = json::parse(&bodies[i % bodies.len()]).expect("bench bodies are valid JSON");
        let cells: Vec<f64> = doc
            .get("rows")
            .and_then(json::Value::as_array)
            .expect("rows array")
            .iter()
            .flat_map(|r| {
                r.as_array().expect("row array").iter().map(|c| c.as_f64().expect("number"))
            })
            .collect();
        std::hint::black_box(cells);
    });
    let json_serialize_us = median_us(2000, budget, |i| {
        let scores = &expected[i % expected.len()];
        let doc = json::object([("scores", json::number_array(scores))]);
        std::hint::black_box(json::to_string(&doc));
    });

    let mut ws = ScoreWorkspace::default();
    let model_score_us = median_us(5000, budget, |i| {
        let m = &matrices[i % matrices.len()];
        std::hint::black_box(model.score_range_into(m, 0, m.rows(), &mut ws).expect("scores"));
    });
    let flops = rows as f64
        * model.model().ensemble().len() as f64
        * forward_flops_per_row(model.model().config(), cols);
    let model_gemm_gflops = flops / (model_score_us * 1e3);

    let cfg = PoolConfig { workers, shard_rows: PoolConfig::default().shard_rows };
    let pool = ScoringPool::new(Arc::clone(model), cfg.clone());
    let pool_score_us = median_us(5000, budget, |i| {
        let m = &matrices[i % matrices.len()];
        std::hint::black_box(pool.score_shared(m).expect("pool scores"));
    });
    drop(pool);

    let (mut new_ms, mut drop_ms) = (Vec::new(), Vec::new());
    for _ in 0..20 {
        let t = Instant::now();
        let pool = ScoringPool::new(Arc::clone(model), cfg.clone());
        new_ms.push(ms(t));
        let t = Instant::now();
        drop(pool);
        drop_ms.push(ms(t));
    }

    let load_ms = median_us(20, 500.0, |_| {
        std::hint::black_box(persist::load_file(model_path).expect("model file loads"));
    }) / 1e3;

    RequestLayers {
        json_parse_us,
        json_serialize_us,
        model_score_us,
        model_gemm_gflops,
        pool_score_us,
        pool_new_ms: crate::stats::median(&new_ms),
        pool_drop_ms: crate::stats::median(&drop_ms),
        load_ms,
    }
}
