//! The alternative booster frameworks of Table VI (RQ4).
//!
//! | Scheme | Training | Inference |
//! |---|---|---|
//! | Naive        | static pseudo labels                  | booster output |
//! | Discrepancy  | static pseudo labels                  | std(booster, teacher) |
//! | Self         | iterative, `ŷ(t+1)=MinMax(f_B(X))`    | booster output |
//! | Discrepancy* | Self-Booster training                 | std(booster, teacher) |
//! | UADB         | Algorithm 1 (variance correction)     | booster output |
//!
//! All five share the identical MLP/CV-ensemble substrate and training
//! budget so the comparison isolates the label-update and inference
//! rules.

use crate::booster::{check_inputs, Uadb, UadbConfig, UadbError};
use uadb_data::preprocess::minmax_vec;
use uadb_data::splits::kfold;
use uadb_linalg::Matrix;
use uadb_nn::{train_regression, AdamParams, Mlp, MlpConfig, TrainConfig};

/// Which booster framework to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoosterScheme {
    /// The teacher itself (the "Origin" row of Table VI).
    Origin,
    /// Static distillation, booster output at inference.
    Naive,
    /// Static distillation, teacher/booster std-dev at inference.
    Discrepancy,
    /// Iterative self-labelled distillation, booster output.
    SelfBooster,
    /// Self-Booster training, teacher/booster std-dev at inference.
    DiscrepancyStar,
    /// Full UADB (Algorithm 1).
    Uadb,
}

impl BoosterScheme {
    /// All six rows of Table VI, in paper order.
    pub const ALL: [BoosterScheme; 6] = [
        BoosterScheme::Origin,
        BoosterScheme::Naive,
        BoosterScheme::Discrepancy,
        BoosterScheme::SelfBooster,
        BoosterScheme::DiscrepancyStar,
        BoosterScheme::Uadb,
    ];

    /// Paper-style row label.
    pub fn name(self) -> &'static str {
        match self {
            BoosterScheme::Origin => "Origin",
            BoosterScheme::Naive => "Naive Booster",
            BoosterScheme::Discrepancy => "Discrepancy Booster",
            BoosterScheme::SelfBooster => "Self Booster",
            BoosterScheme::DiscrepancyStar => "Discrepancy Booster*",
            BoosterScheme::Uadb => "UADB",
        }
    }

    /// Runs the scheme: returns final anomaly scores on the training
    /// rows. `teacher_scores` are the raw detector outputs.
    pub fn run(
        self,
        x: &Matrix,
        teacher_scores: &[f64],
        cfg: &UadbConfig,
    ) -> Result<Vec<f64>, UadbError> {
        match self {
            BoosterScheme::Origin => Ok(teacher_scores.to_vec()),
            BoosterScheme::Uadb => {
                Ok(Uadb::new(cfg.clone()).fit(x, teacher_scores)?.scores().to_vec())
            }
            BoosterScheme::Naive => {
                let fb = train_static(x, teacher_scores, cfg)?;
                Ok(fb)
            }
            BoosterScheme::Discrepancy => {
                let fb = train_static(x, teacher_scores, cfg)?;
                Ok(discrepancy(&fb, teacher_scores))
            }
            BoosterScheme::SelfBooster => {
                let fb = train_self(x, teacher_scores, cfg)?;
                Ok(fb)
            }
            BoosterScheme::DiscrepancyStar => {
                let fb = train_self(x, teacher_scores, cfg)?;
                Ok(discrepancy(&fb, teacher_scores))
            }
        }
    }
}

/// Per-instance standard deviation of {booster output, normalised teacher
/// score} — the "Discrepancy" inference rule.
fn discrepancy(booster: &[f64], teacher_scores: &[f64]) -> Vec<f64> {
    let teacher = minmax_vec(teacher_scores);
    booster
        .iter()
        .zip(&teacher)
        .map(|(&b, &t)| {
            // std of two values = |a - b| / 2 (population convention).
            (b - t).abs() / 2.0
        })
        .collect()
}

/// Builds the CV ensemble shared by the variant trainers.
fn build_ensemble(x: &Matrix, cfg: &UadbConfig) -> (Vec<Mlp>, Vec<Vec<usize>>, Vec<Matrix>) {
    let folds = kfold(x.rows(), cfg.cv_folds.max(1), cfg.seed ^ 0x5eed_f01d);
    let ensemble: Vec<Mlp> = (0..folds.len())
        .map(|f| {
            Mlp::new(&MlpConfig {
                input_dim: x.cols(),
                hidden: cfg.hidden.clone(),
                output_dim: 1,
                activation: uadb_nn::Activation::Sigmoid,
                seed: cfg.seed.wrapping_add(f as u64).wrapping_mul(0x9e37_79b9),
            })
        })
        .collect();
    let train_idx: Vec<Vec<usize>> = folds.iter().map(|f| f.train.clone()).collect();
    let fold_x: Vec<Matrix> = folds.iter().map(|f| x.select_rows(&f.train)).collect();
    (ensemble, train_idx, fold_x)
}

fn ensemble_predict(ensemble: &[Mlp], x: &Matrix) -> Vec<f64> {
    let mut out = vec![0.0; x.rows()];
    for mlp in ensemble {
        for (o, v) in out.iter_mut().zip(mlp.predict_vec(x)) {
            *o += v;
        }
    }
    let inv = 1.0 / ensemble.len().max(1) as f64;
    for o in &mut out {
        *o *= inv;
    }
    out
}

/// Naive/Discrepancy training: the same total budget as UADB
/// (T × epochs_per_step epochs) against *static* pseudo labels.
fn train_static(
    x: &Matrix,
    teacher_scores: &[f64],
    cfg: &UadbConfig,
) -> Result<Vec<f64>, UadbError> {
    check_inputs(x, teacher_scores)?;
    let pseudo = minmax_vec(teacher_scores);
    let (mut ensemble, train_idx, fold_x) = build_ensemble(x, cfg);
    for t in 1..=cfg.t_steps {
        for (f, mlp) in ensemble.iter_mut().enumerate() {
            let targets: Vec<f64> = train_idx[f].iter().map(|&i| pseudo[i]).collect();
            let tc = TrainConfig {
                adam: AdamParams { lr: cfg.learning_rate, ..AdamParams::default() },
                batch_size: cfg.effective_batch(fold_x[f].rows()),
                epochs: cfg.epochs_per_step,
                shuffle_seed: cfg.seed.wrapping_add((t * 31 + f) as u64),
                progress: cfg.progress.clone(),
            };
            train_regression(mlp, &fold_x[f], &targets, &tc);
        }
    }
    Ok(ensemble_predict(&ensemble, x))
}

/// Self-Booster training: iterative, but the next pseudo labels are the
/// booster's own normalised output (no variance term).
fn train_self(x: &Matrix, teacher_scores: &[f64], cfg: &UadbConfig) -> Result<Vec<f64>, UadbError> {
    check_inputs(x, teacher_scores)?;
    let mut pseudo = minmax_vec(teacher_scores);
    let (mut ensemble, train_idx, fold_x) = build_ensemble(x, cfg);
    let mut fb = vec![0.0; x.rows()];
    for t in 1..=cfg.t_steps {
        for (f, mlp) in ensemble.iter_mut().enumerate() {
            let targets: Vec<f64> = train_idx[f].iter().map(|&i| pseudo[i]).collect();
            let tc = TrainConfig {
                adam: AdamParams { lr: cfg.learning_rate, ..AdamParams::default() },
                batch_size: cfg.effective_batch(fold_x[f].rows()),
                epochs: cfg.epochs_per_step,
                shuffle_seed: cfg.seed.wrapping_add((t * 37 + f) as u64),
                progress: cfg.progress.clone(),
            };
            train_regression(mlp, &fold_x[f], &targets, &tc);
        }
        fb = ensemble_predict(&ensemble, x);
        pseudo = minmax_vec(&fb);
    }
    Ok(fb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uadb_data::synth::{fig5_dataset, AnomalyType};
    use uadb_detectors::DetectorKind;
    use uadb_metrics::roc_auc;

    fn setup() -> (uadb_data::Dataset, Vec<f64>) {
        let d = fig5_dataset(AnomalyType::Global, 11).standardized();
        let teacher = DetectorKind::IForest.build(0).fit_score(&d.x).unwrap();
        (d, teacher)
    }

    #[test]
    fn all_schemes_produce_scores() {
        let (d, teacher) = setup();
        let cfg = UadbConfig::fast_for_tests(0);
        for scheme in BoosterScheme::ALL {
            let s = scheme.run(&d.x, &teacher, &cfg).unwrap();
            assert_eq!(s.len(), d.n_samples(), "{}", scheme.name());
            assert!(s.iter().all(|v| v.is_finite()), "{}", scheme.name());
        }
    }

    #[test]
    fn origin_passes_teacher_through() {
        let (d, teacher) = setup();
        let cfg = UadbConfig::fast_for_tests(0);
        let s = BoosterScheme::Origin.run(&d.x, &teacher, &cfg).unwrap();
        assert_eq!(s, teacher);
    }

    #[test]
    fn naive_booster_mimics_teacher_ranking() {
        // Without error correction the booster just distils the teacher;
        // its AUC should land near the teacher's.
        let (d, teacher) = setup();
        let labels = d.labels_f64();
        let cfg = UadbConfig { t_steps: 6, ..UadbConfig::fast_for_tests(1) };
        let s = BoosterScheme::Naive.run(&d.x, &teacher, &cfg).unwrap();
        let teacher_auc = roc_auc(&labels, &teacher);
        let naive_auc = roc_auc(&labels, &s);
        assert!(
            (naive_auc - teacher_auc).abs() < 0.15,
            "naive {naive_auc:.3} vs teacher {teacher_auc:.3}"
        );
    }

    #[test]
    fn discrepancy_scores_differ_from_naive() {
        let (d, teacher) = setup();
        let cfg = UadbConfig::fast_for_tests(2);
        let naive = BoosterScheme::Naive.run(&d.x, &teacher, &cfg).unwrap();
        let disc = BoosterScheme::Discrepancy.run(&d.x, &teacher, &cfg).unwrap();
        assert_ne!(naive, disc);
        // Discrepancy is a std-dev: non-negative and bounded by 0.5.
        assert!(disc.iter().all(|&v| (0.0..=0.5).contains(&v)));
    }

    #[test]
    fn discrepancy_of_identical_vectors_is_zero() {
        let fb = vec![0.2, 0.8, 1.0];
        let d = discrepancy(&fb, &[0.2, 0.8, 1.0]);
        // teacher gets min-max normalised: [0, 0.75, 1]
        assert!((d[0] - 0.1).abs() < 1e-12);
        let d2 = discrepancy(&[0.0, 0.75, 1.0], &[0.2, 0.8, 1.0]);
        assert!(d2.iter().all(|&v| v.abs() < 1e-12));
    }

    #[test]
    fn schemes_validate_input() {
        let cfg = UadbConfig::fast_for_tests(0);
        let x = Matrix::zeros(2, 2);
        for scheme in [BoosterScheme::Naive, BoosterScheme::SelfBooster] {
            let err = scheme.run(&x, &[0.1], &cfg).err().unwrap();
            assert!(matches!(err, UadbError::LengthMismatch { .. }), "{}", scheme.name());
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = BoosterScheme::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 6);
    }
}
