//! The model × dataset experiment harness behind Tables IV–VI and
//! Figs. 6/7/10.
//!
//! Work items (one detector on one dataset, averaged over `n_runs`
//! seeds) are distributed over a crossbeam worker pool; each item is
//! single-threaded and deterministic given its seed, so the full matrix
//! is reproducible regardless of thread count.

use crate::booster::{Uadb, UadbConfig};
use crate::variants::BoosterScheme;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use uadb_data::Dataset;
use uadb_detectors::DetectorKind;
use uadb_metrics::{average_precision, roc_auc};
use uadb_stats::{wilcoxon_signed_rank, WilcoxonResult};

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Booster configuration (paper defaults unless overridden).
    pub booster: UadbConfig,
    /// Independent runs averaged per cell (paper: 10; `repro` in
    /// `uadb_bench` takes it from `UADB_RUNS`, default 1 to stay
    /// laptop-sized).
    pub n_runs: usize,
    /// Worker threads for the matrix (0 = all available cores).
    pub n_threads: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self { booster: UadbConfig::default(), n_runs: 1, n_threads: 0 }
    }
}

/// Result of one (model, dataset) cell, averaged over runs.
#[derive(Debug, Clone)]
pub struct PairResult {
    /// Dataset name.
    pub dataset: String,
    /// Detector display name.
    pub model: &'static str,
    /// Teacher AUCROC.
    pub teacher_auc: f64,
    /// Teacher Average Precision.
    pub teacher_ap: f64,
    /// UADB booster AUCROC (final iteration).
    pub booster_auc: f64,
    /// UADB booster AP (final iteration).
    pub booster_ap: f64,
    /// Booster AUCROC after each iteration `1..=T` (Table V / Fig. 7).
    pub iter_auc: Vec<f64>,
    /// Booster AP after each iteration.
    pub iter_ap: Vec<f64>,
}

impl PairResult {
    /// AUCROC improvement of the booster over its teacher.
    pub fn auc_improvement(&self) -> f64 {
        self.booster_auc - self.teacher_auc
    }

    /// AP improvement of the booster over its teacher.
    pub fn ap_improvement(&self) -> f64 {
        self.booster_ap - self.teacher_ap
    }
}

/// Runs one (model, dataset) cell: teacher fit/score + UADB, averaged
/// over `n_runs` seeds. The dataset is standardised internally (ADBench
/// preprocessing).
pub fn run_pair(kind: DetectorKind, data: &Dataset, cfg: &ExperimentConfig) -> PairResult {
    let std_data = data.standardized();
    let labels = std_data.labels_f64();
    let t_steps = cfg.booster.t_steps;
    let mut teacher_auc = 0.0;
    let mut teacher_ap = 0.0;
    let mut iter_auc = vec![0.0; t_steps];
    let mut iter_ap = vec![0.0; t_steps];
    let runs = cfg.n_runs.max(1);
    for run in 0..runs {
        let seed = cfg.booster.seed ^ (run as u64).wrapping_mul(0x2545_f491_4f6c_dd1d);
        let mut det = kind.build(seed);
        let teacher_scores = det
            .fit_score(&std_data.x)
            .unwrap_or_else(|e| panic!("{} failed on {}: {e}", kind.name(), data.name));
        teacher_auc += roc_auc(&labels, &teacher_scores);
        teacher_ap += average_precision(&labels, &teacher_scores);
        let bcfg = UadbConfig { seed, ..cfg.booster.clone() };
        let model = Uadb::new(bcfg)
            .fit(&std_data.x, &teacher_scores)
            .unwrap_or_else(|e| panic!("UADB failed on {}: {e}", data.name));
        for (t, fb) in model.booster_history().iter().enumerate() {
            iter_auc[t] += roc_auc(&labels, fb);
            iter_ap[t] += average_precision(&labels, fb);
        }
    }
    let inv = 1.0 / runs as f64;
    for v in iter_auc.iter_mut().chain(iter_ap.iter_mut()) {
        *v *= inv;
    }
    PairResult {
        dataset: data.name.clone(),
        model: kind.name(),
        teacher_auc: teacher_auc * inv,
        teacher_ap: teacher_ap * inv,
        booster_auc: iter_auc.last().copied().unwrap_or(0.0),
        booster_ap: iter_ap.last().copied().unwrap_or(0.0),
        iter_auc,
        iter_ap,
    }
}

/// Runs the full model × dataset matrix on a worker pool. Results are
/// returned in `(model-major, dataset-minor)` order regardless of
/// scheduling.
pub fn run_matrix(
    kinds: &[DetectorKind],
    datasets: &[Dataset],
    cfg: &ExperimentConfig,
) -> Vec<PairResult> {
    let work: Vec<(usize, DetectorKind, &Dataset)> = kinds
        .iter()
        .flat_map(|&k| datasets.iter().map(move |d| (k, d)))
        .enumerate()
        .map(|(i, (k, d))| (i, k, d))
        .collect();
    let n_work = work.len();
    let results: Mutex<Vec<Option<PairResult>>> = Mutex::new(vec![None; n_work]);
    let next = AtomicUsize::new(0);
    let threads = effective_threads(cfg.n_threads, n_work);
    crossbeam::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|_| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n_work {
                    break;
                }
                let (slot, kind, data) = work[i];
                let r = run_pair(kind, data, cfg);
                results.lock()[slot] = Some(r);
            });
        }
    })
    .expect("worker pool panicked");
    results.into_inner().into_iter().map(|r| r.expect("all work items completed")).collect()
}

fn effective_threads(requested: usize, n_work: usize) -> usize {
    let avail = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let t = if requested == 0 { avail } else { requested };
    t.clamp(1, n_work.max(1))
}

/// One row of Table IV for one model and one metric.
#[derive(Debug, Clone)]
pub struct ModelSummary {
    /// Detector display name.
    pub model: &'static str,
    /// Mean teacher score over all datasets ("Original").
    pub original: f64,
    /// Mean booster − teacher improvement.
    pub improvement: f64,
    /// Improvement as a percentage of the original.
    pub improvement_pct: f64,
    /// Number of datasets where the booster improved ("Effects").
    pub effects: usize,
    /// Wilcoxon signed-rank p-value over the paired per-dataset scores
    /// (`None` when every pair ties).
    pub p_value: Option<f64>,
    /// Datasets aggregated.
    pub n_datasets: usize,
}

/// Which metric a summary aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Area under the ROC curve.
    AucRoc,
    /// Average precision.
    Ap,
}

/// Builds a Table IV row for `model` from its per-dataset results.
pub fn summarize_model(
    results: &[PairResult],
    model: &'static str,
    metric: Metric,
) -> ModelSummary {
    let rows: Vec<&PairResult> = results.iter().filter(|r| r.model == model).collect();
    let n = rows.len();
    let (teacher, booster): (Vec<f64>, Vec<f64>) = rows
        .iter()
        .map(|r| match metric {
            Metric::AucRoc => (r.teacher_auc, r.booster_auc),
            Metric::Ap => (r.teacher_ap, r.booster_ap),
        })
        .unzip();
    let original = mean(&teacher);
    let boosted = mean(&booster);
    let improvement = boosted - original;
    let effects = teacher.iter().zip(&booster).filter(|(t, b)| b > t).count();
    let p_value = wilcoxon_signed_rank(&booster, &teacher).map(|w: WilcoxonResult| w.p_value);
    ModelSummary {
        model,
        original,
        improvement,
        improvement_pct: if original.abs() > 1e-12 { 100.0 * improvement / original } else { 0.0 },
        effects,
        p_value,
        n_datasets: n,
    }
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Per-scheme metrics for one (model, dataset) cell — the Table VI
/// ingredient.
#[derive(Debug, Clone)]
pub struct SchemeResult {
    /// Dataset name.
    pub dataset: String,
    /// Detector display name.
    pub model: &'static str,
    /// Scheme display name.
    pub scheme: &'static str,
    /// AUCROC of the scheme's final scores.
    pub auc: f64,
    /// AP of the scheme's final scores.
    pub ap: f64,
}

/// Runs every booster scheme on one (model, dataset) cell, sharing the
/// teacher scores so the comparison isolates the booster framework.
pub fn run_pair_schemes(
    kind: DetectorKind,
    data: &Dataset,
    schemes: &[BoosterScheme],
    cfg: &ExperimentConfig,
) -> Vec<SchemeResult> {
    let std_data = data.standardized();
    let labels = std_data.labels_f64();
    let runs = cfg.n_runs.max(1);
    let mut acc: Vec<(f64, f64)> = vec![(0.0, 0.0); schemes.len()];
    for run in 0..runs {
        let seed = cfg.booster.seed ^ (run as u64).wrapping_mul(0x2545_f491_4f6c_dd1d);
        let mut det = kind.build(seed);
        let teacher_scores = det
            .fit_score(&std_data.x)
            .unwrap_or_else(|e| panic!("{} failed on {}: {e}", kind.name(), data.name));
        let bcfg = UadbConfig { seed, ..cfg.booster.clone() };
        for (si, &scheme) in schemes.iter().enumerate() {
            let scores = scheme
                .run(&std_data.x, &teacher_scores, &bcfg)
                .unwrap_or_else(|e| panic!("{} failed on {}: {e}", scheme.name(), data.name));
            acc[si].0 += roc_auc(&labels, &scores);
            acc[si].1 += average_precision(&labels, &scores);
        }
    }
    let inv = 1.0 / runs as f64;
    schemes
        .iter()
        .zip(acc)
        .map(|(&scheme, (auc, ap))| SchemeResult {
            dataset: data.name.clone(),
            model: kind.name(),
            scheme: scheme.name(),
            auc: auc * inv,
            ap: ap * inv,
        })
        .collect()
}

/// Parallel scheme matrix over models × datasets (Table VI).
pub fn run_scheme_matrix(
    kinds: &[DetectorKind],
    datasets: &[Dataset],
    schemes: &[BoosterScheme],
    cfg: &ExperimentConfig,
) -> Vec<SchemeResult> {
    let work: Vec<(usize, DetectorKind, &Dataset)> = kinds
        .iter()
        .flat_map(|&k| datasets.iter().map(move |d| (k, d)))
        .enumerate()
        .map(|(i, (k, d))| (i, k, d))
        .collect();
    let n_work = work.len();
    let results: Mutex<Vec<Vec<SchemeResult>>> = Mutex::new(vec![Vec::new(); n_work]);
    let next = AtomicUsize::new(0);
    let threads = effective_threads(cfg.n_threads, n_work);
    crossbeam::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|_| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n_work {
                    break;
                }
                let (slot, kind, data) = work[i];
                let r = run_pair_schemes(kind, data, schemes, cfg);
                results.lock()[slot] = r;
            });
        }
    })
    .expect("worker pool panicked");
    results.into_inner().into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use uadb_data::synth::{fig5_dataset, AnomalyType};

    fn quick_cfg() -> ExperimentConfig {
        ExperimentConfig { booster: UadbConfig::fast_for_tests(0), n_runs: 1, n_threads: 2 }
    }

    #[test]
    fn run_pair_fills_all_fields() {
        let d = fig5_dataset(AnomalyType::Global, 0);
        let cfg = quick_cfg();
        let r = run_pair(DetectorKind::Hbos, &d, &cfg);
        assert_eq!(r.model, "HBOS");
        assert_eq!(r.iter_auc.len(), cfg.booster.t_steps);
        assert!(r.teacher_auc > 0.0 && r.teacher_auc <= 1.0);
        assert!(r.booster_auc > 0.0 && r.booster_auc <= 1.0);
        assert_eq!(r.booster_auc, *r.iter_auc.last().unwrap());
        assert!((r.auc_improvement() - (r.booster_auc - r.teacher_auc)).abs() < 1e-15);
    }

    #[test]
    fn matrix_preserves_order_and_counts() {
        let datasets =
            vec![fig5_dataset(AnomalyType::Global, 1), fig5_dataset(AnomalyType::Local, 2)];
        let kinds = [DetectorKind::Hbos, DetectorKind::Knn];
        let results = run_matrix(&kinds, &datasets, &quick_cfg());
        assert_eq!(results.len(), 4);
        assert_eq!(results[0].model, "HBOS");
        assert_eq!(results[1].model, "HBOS");
        assert_eq!(results[2].model, "KNN");
        assert_eq!(results[0].dataset, datasets[0].name);
        assert_eq!(results[1].dataset, datasets[1].name);
    }

    #[test]
    fn matrix_deterministic_across_thread_counts() {
        let datasets = vec![fig5_dataset(AnomalyType::Global, 3)];
        let kinds = [DetectorKind::Hbos];
        let mut cfg = quick_cfg();
        cfg.n_threads = 1;
        let a = run_matrix(&kinds, &datasets, &cfg);
        cfg.n_threads = 4;
        let b = run_matrix(&kinds, &datasets, &cfg);
        assert_eq!(a[0].booster_auc, b[0].booster_auc);
    }

    #[test]
    fn summary_aggregates_correctly() {
        let results = vec![
            PairResult {
                dataset: "a".into(),
                model: "HBOS",
                teacher_auc: 0.6,
                teacher_ap: 0.3,
                booster_auc: 0.7,
                booster_ap: 0.35,
                iter_auc: vec![0.7],
                iter_ap: vec![0.35],
            },
            PairResult {
                dataset: "b".into(),
                model: "HBOS",
                teacher_auc: 0.8,
                teacher_ap: 0.5,
                booster_auc: 0.75,
                booster_ap: 0.55,
                iter_auc: vec![0.75],
                iter_ap: vec![0.55],
            },
        ];
        let s = summarize_model(&results, "HBOS", Metric::AucRoc);
        assert!((s.original - 0.7).abs() < 1e-12);
        assert!((s.improvement - 0.025).abs() < 1e-12);
        assert_eq!(s.effects, 1);
        assert_eq!(s.n_datasets, 2);
        let ap = summarize_model(&results, "HBOS", Metric::Ap);
        assert!((ap.original - 0.4).abs() < 1e-12);
        assert_eq!(ap.effects, 2);
    }

    #[test]
    fn scheme_runner_covers_all_schemes() {
        let d = fig5_dataset(AnomalyType::Global, 4);
        let schemes = BoosterScheme::ALL;
        let r = run_pair_schemes(DetectorKind::Knn, &d, &schemes, &quick_cfg());
        assert_eq!(r.len(), 6);
        let names: Vec<&str> = r.iter().map(|s| s.scheme).collect();
        assert!(names.contains(&"UADB"));
        assert!(names.contains(&"Origin"));
        for s in &r {
            assert!(s.auc > 0.0 && s.auc <= 1.0, "{}: {}", s.scheme, s.auc);
        }
    }
}
