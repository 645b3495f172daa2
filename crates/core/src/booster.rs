//! Algorithm 1 of the paper: iterative pseudo-supervised distillation
//! with variance-based error correction.

use std::fmt;
use uadb_data::preprocess::minmax_vec;
use uadb_data::splits::kfold;
use uadb_linalg::Matrix;
use uadb_nn::{
    train_regression, AdamParams, ForwardScratch, Mlp, MlpConfig, ProgressHook, TrainConfig,
};

/// Scale on which the per-instance dispersion enters the pseudo-label
/// update `ŷ(t+1) = MinMaxScale(ŷ(t) + v̂)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorrectionScale {
    /// Raw population variance — the paper's formula at paper scale.
    Variance,
    /// Standard deviation (√variance) — the same statistic rescaled.
    ///
    /// At the simulated suite's size the boosters track their teachers
    /// far more tightly than paper-scale students do (small n, many
    /// updates), so raw variances land near 1e-3 and the correction
    /// cannot re-order anything before min-max recompression absorbs it.
    /// The √ rescaling restores the paper's effective drip magnitude
    /// (≈0.05–0.1 per step for anomalies) without changing which points
    /// get corrected. `repro ablation` (`uadb_bench`) measures both scales.
    StdDev,
}

/// Configuration of the UADB booster. Defaults are the paper's §IV-A
/// setup verbatim.
#[derive(Debug, Clone)]
pub struct UadbConfig {
    /// Number of UADB steps `T` (paper: 10).
    pub t_steps: usize,
    /// Booster training epochs per step (paper: 10).
    pub epochs_per_step: usize,
    /// Mini-batch size (paper: 256).
    pub batch_size: usize,
    /// Adam learning rate (paper: 1e-3).
    pub learning_rate: f64,
    /// Hidden layer widths (paper: `[128, 128]` — a "3-layer" MLP).
    pub hidden: Vec<usize>,
    /// Cross-validation booster count (paper: 3). `1` disables the
    /// ensemble (used by `repro ablation`).
    pub cv_folds: usize,
    /// Keep booster weights across steps (`true`, the default) or
    /// re-initialise each step (`false`). Warm starting keeps the booster
    /// faithful to the accumulated pseudo labels; per-step fresh members
    /// maximise the checkpoint-instability variance signal of §III-B but
    /// under-fit the final labels at small `n` (`repro ablation`
    /// measures both).
    pub warm_start: bool,
    /// Dispersion scale of the error-correction term (see
    /// [`CorrectionScale`]).
    pub correction: CorrectionScale,
    /// Master seed for weight init, fold splits and batch shuffling.
    pub seed: u64,
    /// Optional per-epoch training observer, forwarded into every
    /// member/probe fit's [`TrainConfig`]. Observational only — weights
    /// are bit-identical with or without it — and never persisted. With
    /// more than one training worker ([`Uadb::fit_with`]) the nets call
    /// it from several threads at once.
    pub progress: Option<ProgressHook>,
}

impl Default for UadbConfig {
    fn default() -> Self {
        Self {
            t_steps: 10,
            epochs_per_step: 10,
            batch_size: 256,
            learning_rate: 1e-3,
            hidden: vec![128, 128],
            cv_folds: 3,
            warm_start: true,
            correction: CorrectionScale::StdDev,
            seed: 0,
            progress: None,
        }
    }
}

impl UadbConfig {
    /// Paper defaults with an explicit seed.
    pub fn with_seed(seed: u64) -> Self {
        Self { seed, ..Self::default() }
    }

    /// A slimmed configuration for unit tests and doctests: fewer steps,
    /// narrower booster, hotter learning rate. NOT used by the benchmark
    /// harness.
    pub fn fast_for_tests(seed: u64) -> Self {
        Self {
            t_steps: 4,
            epochs_per_step: 5,
            batch_size: 64,
            learning_rate: 1e-2,
            hidden: vec![32],
            cv_folds: 3,
            seed,
            ..Self::default()
        }
    }

    /// Effective mini-batch size for `n` training rows.
    ///
    /// The paper's batch of 256 assumes ADBench-scale datasets (typically
    /// thousands of rows, i.e. ≳10 gradient updates per epoch). The
    /// simulated suite is scaled down (240–520 rows per dataset at quick
    /// scale, 400–1200 at full), so a fixed 256 would give the booster
    /// one to five Adam steps per epoch, too few to leave its
    /// initialisation. Capping the batch at `n/16` keeps the *update
    /// count* per epoch at the paper's effective level while converging
    /// to the configured batch size for paper-scale inputs.
    pub fn effective_batch(&self, n: usize) -> usize {
        self.batch_size.min((n / 16).max(16)).max(1)
    }
}

/// Errors from booster fitting.
#[derive(Debug, Clone, PartialEq)]
pub enum UadbError {
    /// Feature matrix and teacher scores disagree in length.
    LengthMismatch {
        /// Rows in the feature matrix.
        rows: usize,
        /// Teacher score count.
        scores: usize,
    },
    /// No training rows.
    EmptyInput,
    /// A feature or teacher score is NaN or infinite. Training on it
    /// would turn every net's weights NaN.
    NonFinite {
        /// The first row holding one.
        row: usize,
        /// `"feature"` or `"teacher score"`.
        what: &'static str,
    },
}

impl fmt::Display for UadbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UadbError::LengthMismatch { rows, scores } => {
                write!(f, "feature rows ({rows}) != teacher scores ({scores})")
            }
            UadbError::EmptyInput => write!(f, "cannot boost an empty dataset"),
            UadbError::NonFinite { row, what } => {
                write!(f, "row {row} has a non-finite {what} (NaN or infinite)")
            }
        }
    }
}

impl std::error::Error for UadbError {}

/// Rejects a NaN or infinite feature, naming the first row holding one.
/// Callers that standardise first run it on the raw rows, where the row
/// is still the one the user wrote (a NaN poisons its column's mean).
pub fn check_features(x: &Matrix) -> Result<(), UadbError> {
    match x.row_iter().position(|row| !row.iter().all(|v| v.is_finite())) {
        Some(row) => Err(UadbError::NonFinite { row, what: "feature" }),
        None => Ok(()),
    }
}

/// What every booster fit needs of its inputs: a row and a feature at
/// least, one teacher score per row, and only finite features and
/// scores.
pub(crate) fn check_inputs(x: &Matrix, teacher_scores: &[f64]) -> Result<(), UadbError> {
    if x.rows() == 0 || x.cols() == 0 {
        return Err(UadbError::EmptyInput);
    }
    if teacher_scores.len() != x.rows() {
        return Err(UadbError::LengthMismatch { rows: x.rows(), scores: teacher_scores.len() });
    }
    check_features(x)?;
    match teacher_scores.iter().position(|s| !s.is_finite()) {
        Some(row) => Err(UadbError::NonFinite { row, what: "teacher score" }),
        None => Ok(()),
    }
}

/// Affine score calibration fitted on the training set's final booster
/// scores and stored with the model.
///
/// Raw ensemble outputs are sigmoid activations whose occupied range
/// depends on the training run (a booster that converged to pseudo
/// labels in `[0.1, 0.6]` never emits 0.9). Calibration maps the
/// training scores onto exactly `[0, 1]` with constants **frozen at fit
/// time**, so at serving time a 1-row request scores bit-identically to
/// the same row inside a 10k-row batch — unlike re-running min-max per
/// request batch, which would rescale every score by its batch-mates.
/// Out-of-sample points may legitimately land slightly outside `[0, 1]`;
/// they are *not* clamped, preserving the ranking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreCalibration {
    /// Minimum raw ensemble score observed on the training set.
    pub min: f64,
    /// Occupied raw score range (guarded to stay positive).
    pub range: f64,
}

impl ScoreCalibration {
    /// Fits the constants from training-set scores. A constant or empty
    /// score vector yields the identity-width guard `range = 1`.
    ///
    /// Non-finite scores (NaN *and* ±inf) are ignored when fitting: an
    /// inf-contaminated training run must not bake `min = -inf` or
    /// `range = inf` into the model, because those constants would be
    /// rejected by persistence ([`ScoreCalibration::from_parts`]
    /// requires finite constants) and would collapse every serving-time
    /// score to NaN/0. The fitted constants are always finite, with
    /// `range > 0`. `range` is additionally guarded against overflow:
    /// `MAX - (-MAX)` rounds to `inf`, which also falls back to the
    /// identity-width guard.
    pub fn fit(scores: &[f64]) -> Self {
        let mut finite = scores.iter().copied().filter(|v| v.is_finite());
        let (mut lo, mut hi) = match finite.next() {
            Some(first) => (first, first),
            None => return Self { min: 0.0, range: 1.0 },
        };
        for v in finite {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        let range = hi - lo;
        if range > 0.0 && range.is_finite() {
            Self { min: lo, range }
        } else {
            Self { min: lo, range: 1.0 }
        }
    }

    /// Rebuilds calibration from persisted constants.
    ///
    /// # Panics
    /// If `range` is not positive and finite or `min` is not finite.
    /// Callers deserialising untrusted data should check
    /// [`ScoreCalibration::is_valid`] first and surface a typed error
    /// instead of reaching this assertion.
    pub fn from_parts(min: f64, range: f64) -> Self {
        let cal = Self { min, range };
        assert!(cal.is_valid(), "calibration constants must be finite with positive range");
        cal
    }

    /// Whether the constants are servable: finite `min` and a positive,
    /// finite `range`. [`ScoreCalibration::fit`] always produces valid
    /// constants; hand-built or deserialised ones may not.
    pub fn is_valid(&self) -> bool {
        self.min.is_finite() && self.range > 0.0 && self.range.is_finite()
    }

    /// Applies the affine map to one raw score.
    pub fn apply(&self, raw: f64) -> f64 {
        (raw - self.min) / self.range
    }

    /// Applies the affine map in place.
    pub fn apply_vec(&self, scores: &mut [f64]) {
        for s in scores {
            *s = self.apply(*s);
        }
    }
}

/// The UADB trainer (unfitted).
#[derive(Debug, Clone)]
pub struct Uadb {
    cfg: UadbConfig,
}

/// A fitted UADB booster: the CV ensemble plus the full iteration
/// history needed by the paper's analyses (Tables V, Figs. 4/7/9).
/// `Clone` duplicates the weights, which lets serving layers derive a
/// modified bundle (e.g. attach a teacher) without mutating one that
/// in-flight requests still score against.
#[derive(Debug, Clone)]
pub struct UadbModel {
    ensemble: Vec<Mlp>,
    cfg: UadbConfig,
    /// `fB(X)` after each step `t = 1..=T` (ensemble-averaged).
    booster_history: Vec<Vec<f64>>,
    /// Pseudo labels `ŷ(1), …, ŷ(T+1)`.
    pseudo_history: Vec<Vec<f64>>,
    /// Train-time score calibration (see [`ScoreCalibration`]).
    calibration: ScoreCalibration,
}

impl Uadb {
    /// Creates a trainer with the given configuration.
    pub fn new(cfg: UadbConfig) -> Self {
        Self { cfg }
    }

    /// Runs Algorithm 1: fits the booster ensemble on `x` using the
    /// teacher's raw decision scores (any scale — they are min-max
    /// normalised into `[0,1]` pseudo labels here, as the paper does).
    pub fn fit(&self, x: &Matrix, teacher_scores: &[f64]) -> Result<UadbModel, UadbError> {
        self.fit_with(x, teacher_scores, 1)
    }

    /// [`Uadb::fit`] with each step's fold members and probe trained
    /// side by side on up to `train_workers` threads, the calling thread
    /// included (`1` = one after another on the calling thread, `0` = all
    /// available cores; never more threads than the step has nets,
    /// `cv_folds + 1`). The nets share nothing while they train: each
    /// runs the serial engine on its own fold, targets and shuffle seed,
    /// and all of them are then scored on the calling thread in a fixed
    /// order. The trained model is therefore bit-identical for every
    /// worker count, so this is purely a throughput knob and deliberately
    /// not part of [`UadbConfig`] (which is persisted with the model).
    pub fn fit_with(
        &self,
        x: &Matrix,
        teacher_scores: &[f64],
        train_workers: usize,
    ) -> Result<UadbModel, UadbError> {
        check_inputs(x, teacher_scores)?;
        let n = x.rows();
        let cfg = &self.cfg;

        // ŷ(1) ← MinMax(f_S(X)); Ŷ ← [ŷ(1)]
        let mut pseudo = minmax_vec(teacher_scores);
        let mut pseudo_history: Vec<Vec<f64>> = vec![pseudo.clone()];
        let mut booster_history: Vec<Vec<f64>> = Vec::with_capacity(cfg.t_steps);

        // 3-fold CV ensemble: each booster trains on 2/3 of the rows.
        let folds = kfold(n, cfg.cv_folds.max(1), cfg.seed ^ 0x5eed_f01d);
        let members = folds.len();
        let build_member = |f: usize, t: usize| {
            Mlp::new(&MlpConfig {
                input_dim: x.cols(),
                hidden: cfg.hidden.clone(),
                output_dim: 1,
                activation: uadb_nn::Activation::Sigmoid,
                seed: cfg.seed.wrapping_add((f + t * 7) as u64).wrapping_mul(0x9e37_79b9),
            })
        };
        let mut ensemble: Vec<Mlp> = (0..members).map(|f| build_member(f, 0)).collect();
        // Pre-select fold training matrices once; pseudo-label slices are
        // re-gathered per step since labels change.
        let fold_x: Vec<Matrix> = folds.iter().map(|f| x.select_rows(&f.train)).collect();
        let train_cfg = |fold: usize, shuffle_seed: u64| TrainConfig {
            adam: AdamParams { lr: cfg.learning_rate, ..AdamParams::default() },
            batch_size: cfg.effective_batch(fold_x[fold].rows()),
            epochs: cfg.epochs_per_step,
            shuffle_seed,
            progress: cfg.progress.clone(),
        };

        // Every step trains `members + 1` nets: the fold members, then
        // the probe. Net `j` gathers its targets into `targets[j]` and
        // its predictions land in `preds[j]`; both are reused per step.
        let lanes = match train_workers {
            0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
            w => w,
        }
        .min(members + 1);
        let mut targets: Vec<Vec<f64>> = vec![Vec::new(); members + 1];
        let mut preds: Vec<Vec<f64>> = vec![Vec::new(); members + 1];
        let mut forward = ForwardScratch::default();
        for t in 1..=cfg.t_steps {
            // Without warm_start, members are re-initialised per step so
            // their outputs on structureless points fluctuate across
            // checkpoints (the §III-B variance signal).
            if !cfg.warm_start && t > 1 {
                for (f, mlp) in ensemble.iter_mut().enumerate() {
                    *mlp = build_member(f, t);
                }
            }
            // Fresh probe student: trained from scratch on the current
            // pseudo labels for one step's budget, used ONLY in the
            // variance sample, then discarded. A freshly-trained
            // checkpoint lands differently on structureless points in
            // every retrain (§III-B's "student model checkpoints at
            // different steps"), keeping the anomaly-variance signal
            // alive even after the warm ensemble has converged.
            let mut probe = build_member(members, t);
            let probe_fold = t % members;

            // Train each fold booster (and the probe) against the
            // current pseudo labels.
            let nets = ensemble.iter_mut().chain(std::iter::once(&mut probe));
            let jobs: Vec<NetJob<'_>> = nets
                .zip(&mut targets)
                .enumerate()
                .map(|(j, (mlp, tgt))| {
                    let (fold, shuffle_seed) = if j < members {
                        let seed = cfg.seed.wrapping_add((t * 31 + j) as u64);
                        (j, seed.wrapping_mul(0x0100_0000_01b3))
                    } else {
                        (probe_fold, cfg.seed.wrapping_add((t * 101) as u64))
                    };
                    tgt.clear();
                    tgt.extend(folds[fold].train.iter().map(|&i| pseudo[i]));
                    NetJob {
                        mlp,
                        x: &fold_x[fold],
                        targets: tgt,
                        cfg: train_cfg(fold, shuffle_seed),
                    }
                })
                .collect();
            train_side_by_side(jobs, lanes);

            // Per-net predictions, on the calling thread. The reported
            // scores average the members (§IV-A: "we average the outputs
            // of the 3 booster models"); the variance sample gets each
            // member's prediction individually, because the paper
            // estimates variance "between different learners" (§III-B)
            // and averaging members first would wash their disagreement
            // out.
            for (p, mlp) in preds.iter_mut().zip(ensemble.iter().chain(std::iter::once(&probe))) {
                p.clear();
                p.extend_from_slice(mlp.forward_scored(x, &mut forward));
            }
            booster_history.push(average_columns(&preds[..members], n));

            // v̂ ← per-instance variance over [Ŷ, f_B(X)].
            let mut variance = vec![0.0; n];
            let mut sample = Vec::with_capacity(pseudo_history.len() + preds.len());
            for (i, slot) in variance.iter_mut().enumerate() {
                sample.clear();
                sample.extend(pseudo_history.iter().map(|h| h[i]));
                sample.extend(preds.iter().map(|p| p[i]));
                let v = uadb_linalg::vecops::population_variance(&sample);
                *slot = match cfg.correction {
                    CorrectionScale::Variance => v,
                    CorrectionScale::StdDev => v.sqrt(),
                };
            }
            // Cap at the 99th percentile: a single flip-flopping point
            // would otherwise stretch the min-max range every step and
            // compress all other pseudo labels toward zero, starving the
            // booster's MSE gradients (a small-n stabilisation this
            // reproduction adds; the paper's update has no cap).
            if let Some(cap) = uadb_stats::quantile(&variance, 0.99) {
                for v in &mut variance {
                    if *v > cap {
                        *v = cap;
                    }
                }
            }
            let mut next = vec![0.0; n];
            for ((nx, &p), &v) in next.iter_mut().zip(&pseudo).zip(&variance) {
                *nx = p + v;
            }
            // ŷ(t+1) ← MinMaxScale(ŷ(t) + v̂)
            pseudo = minmax_vec(&next);
            pseudo_history.push(pseudo.clone());
        }

        let calibration =
            ScoreCalibration::fit(booster_history.last().map(|v| v.as_slice()).unwrap_or(&[]));
        Ok(UadbModel { ensemble, cfg: cfg.clone(), booster_history, pseudo_history, calibration })
    }
}

/// One net's training job within a UADB step.
struct NetJob<'a> {
    mlp: &'a mut Mlp,
    x: &'a Matrix,
    targets: &'a [f64],
    cfg: TrainConfig,
}

/// Trains every job on `lanes >= 1` threads, the calling thread
/// included: job `j` runs on lane `j % lanes`, so the assignment is
/// fixed up front and no two lanes touch the same net or targets. Jobs
/// on one lane run in order.
fn train_side_by_side(jobs: Vec<NetJob<'_>>, lanes: usize) {
    let mut queues: Vec<Vec<NetJob<'_>>> = (0..lanes).map(|_| Vec::new()).collect();
    for (j, job) in jobs.into_iter().enumerate() {
        queues[j % lanes].push(job);
    }
    let run = |queue: Vec<NetJob<'_>>| {
        for job in queue {
            train_regression(job.mlp, job.x, job.targets, &job.cfg);
        }
    };
    std::thread::scope(|s| {
        let mut queues = queues.into_iter();
        let own = queues.next().unwrap_or_default();
        for queue in queues {
            s.spawn(move || run(queue));
        }
        run(own);
    });
}

/// Element-wise mean of equally-long prediction vectors.
fn average_columns(preds: &[Vec<f64>], n: usize) -> Vec<f64> {
    let mut out = vec![0.0; n];
    for p in preds {
        for (o, &v) in out.iter_mut().zip(p) {
            *o += v;
        }
    }
    let inv = 1.0 / preds.len().max(1) as f64;
    for o in &mut out {
        *o *= inv;
    }
    out
}

/// Reusable workspace for [`UadbModel::score_into`] and friends: wraps
/// the booster's MLP forward scratch so repeated scoring calls (one
/// per request, per serving worker) allocate nothing once warm.
#[derive(Debug, Clone, Default)]
pub struct ScoreScratch {
    forward: ForwardScratch,
}

impl UadbModel {
    /// Rebuilds a fitted model from persisted parts (the inverse of
    /// [`UadbModel::ensemble`] + [`UadbModel::config`] +
    /// [`UadbModel::calibration`], used by `uadb-serve`'s model files).
    ///
    /// The iteration histories are training-run artifacts and are not
    /// persisted: on a restored model [`UadbModel::scores`],
    /// [`UadbModel::booster_history`] and [`UadbModel::pseudo_history`]
    /// return empty slices, while [`UadbModel::score`] and
    /// [`UadbModel::score_calibrated`] behave bit-identically to the
    /// original model.
    ///
    /// # Panics
    /// If the ensemble is empty or its members disagree on input width.
    pub fn from_parts(ensemble: Vec<Mlp>, cfg: UadbConfig, calibration: ScoreCalibration) -> Self {
        assert!(!ensemble.is_empty(), "ensemble must have at least one member");
        let dim = ensemble[0].input_dim();
        assert!(
            ensemble.iter().all(|m| m.input_dim() == dim),
            "ensemble members must share an input dimension"
        );
        Self { ensemble, cfg, booster_history: Vec::new(), pseudo_history: Vec::new(), calibration }
    }

    /// Final booster scores on the training rows (the paper's reported
    /// predictions — the booster replaces the teacher as the final UAD
    /// model).
    ///
    /// These are **raw** ensemble-averaged sigmoid outputs, the same
    /// quantity [`UadbModel::score`] computes for arbitrary rows; both
    /// live on the scale induced by the final pseudo labels. For scores
    /// normalised onto the training set's `[0, 1]` with frozen
    /// constants — the form `uadb-serve` returns — see
    /// [`UadbModel::score_calibrated`].
    pub fn scores(&self) -> &[f64] {
        self.booster_history.last().map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Raw scores for arbitrary (e.g. held-out) rows with the fitted
    /// ensemble. Per-row and batch-size independent; on the training
    /// rows this equals [`UadbModel::scores`]. Thin wrapper over
    /// [`UadbModel::score_into`] with a one-shot scratch.
    pub fn score(&self, x: &Matrix) -> Vec<f64> {
        let mut out = Vec::new();
        self.score_into(x, &mut ScoreScratch::default(), &mut out);
        out
    }

    /// Calibrated scores for arbitrary rows: [`UadbModel::score`] mapped
    /// through the stored train-time [`ScoreCalibration`]. Because the
    /// constants are frozen at fit time, a row's calibrated score does
    /// not depend on which batch it arrives in.
    pub fn score_calibrated(&self, x: &Matrix) -> Vec<f64> {
        let mut out = Vec::new();
        self.score_calibrated_into(x, &mut ScoreScratch::default(), &mut out);
        out
    }

    /// Allocation-free raw scoring: ensemble-averaged booster outputs
    /// written into `out` (cleared and resized to `x.rows()`), with all
    /// intermediate activations living in `scratch`. Bit-identical to
    /// [`UadbModel::score`].
    ///
    /// # Panics
    /// If `x` is not as wide as the ensemble's input dimension.
    pub fn score_into(&self, x: &Matrix, scratch: &mut ScoreScratch, out: &mut Vec<f64>) {
        assert_eq!(x.cols(), self.ensemble[0].input_dim(), "feature width mismatch");
        self.score_rows_into(x.as_slice(), x.rows(), scratch, out);
    }

    /// [`UadbModel::score_into`] over a raw row-major slice of `n_rows`
    /// rows — the serving path's form, so standardised feature buffers
    /// never need a `Matrix` wrapper.
    // audit: no_alloc
    pub fn score_rows_into(
        &self,
        rows: &[f64],
        n_rows: usize,
        scratch: &mut ScoreScratch,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        // audit: allow(alloc, grows the reused output buffer to batch size once; steady-state it is a no-op)
        out.resize(n_rows, 0.0);
        for mlp in &self.ensemble {
            let p = mlp.forward_rows(rows, n_rows, &mut scratch.forward);
            debug_assert_eq!(p.len(), n_rows, "booster head must be 1-wide");
            for (o, &v) in out.iter_mut().zip(p) {
                *o += v;
            }
        }
        let inv = 1.0 / self.ensemble.len().max(1) as f64;
        for o in out.iter_mut() {
            *o *= inv;
        }
    }

    /// Allocation-free calibrated scoring: [`UadbModel::score_into`]
    /// followed by the frozen train-time calibration applied in place.
    /// Bit-identical to [`UadbModel::score_calibrated`].
    pub fn score_calibrated_into(
        &self,
        x: &Matrix,
        scratch: &mut ScoreScratch,
        out: &mut Vec<f64>,
    ) {
        self.score_into(x, scratch, out);
        self.calibration.apply_vec(out);
    }

    /// Calibrated scoring over a raw row-major slice (see
    /// [`UadbModel::score_rows_into`]).
    pub fn score_calibrated_rows_into(
        &self,
        rows: &[f64],
        n_rows: usize,
        scratch: &mut ScoreScratch,
        out: &mut Vec<f64>,
    ) {
        self.score_rows_into(rows, n_rows, scratch, out);
        self.calibration.apply_vec(out);
    }

    /// The stored train-time score calibration.
    pub fn calibration(&self) -> ScoreCalibration {
        self.calibration
    }

    /// The fitted CV booster ensemble, in fold order.
    pub fn ensemble(&self) -> &[Mlp] {
        &self.ensemble
    }

    /// Booster output after each step `t = 1..=T` (Table V's `iter k`
    /// columns; Fig. 7's iteration sweep).
    pub fn booster_history(&self) -> &[Vec<f64>] {
        &self.booster_history
    }

    /// Pseudo-label history `ŷ(1), …, ŷ(T+1)` (Fig. 9's ranking traces).
    pub fn pseudo_history(&self) -> &[Vec<f64>] {
        &self.pseudo_history
    }

    /// The configuration the model was trained with.
    pub fn config(&self) -> &UadbConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uadb_data::synth::{fig5_dataset, AnomalyType};
    use uadb_detectors::DetectorKind;
    use uadb_metrics::roc_auc;

    #[test]
    fn histories_have_expected_lengths() {
        let d = fig5_dataset(AnomalyType::Global, 0).standardized();
        let teacher = DetectorKind::Hbos.build(0).fit_score(&d.x).unwrap();
        let cfg = UadbConfig::fast_for_tests(0);
        let t = cfg.t_steps;
        let model = Uadb::new(cfg).fit(&d.x, &teacher).unwrap();
        assert_eq!(model.booster_history().len(), t);
        assert_eq!(model.pseudo_history().len(), t + 1);
        assert_eq!(model.scores().len(), d.n_samples());
    }

    #[test]
    fn pseudo_labels_stay_in_unit_interval() {
        let d = fig5_dataset(AnomalyType::Local, 1).standardized();
        let teacher = DetectorKind::Knn.build(0).fit_score(&d.x).unwrap();
        let model = Uadb::new(UadbConfig::fast_for_tests(1)).fit(&d.x, &teacher).unwrap();
        for h in model.pseudo_history() {
            assert!(h.iter().all(|&v| (0.0..=1.0 + 1e-12).contains(&v)));
        }
        for h in model.booster_history() {
            assert!(h.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn boosts_a_weak_teacher_on_clustered_anomalies() {
        // IForest struggles on clustered anomalies (paper Fig. 5 row 1);
        // UADB should improve its AUC.
        let d = fig5_dataset(AnomalyType::Clustered, 3).standardized();
        let labels = d.labels_f64();
        let teacher = DetectorKind::IForest.build(2).fit_score(&d.x).unwrap();
        let teacher_auc = roc_auc(&labels, &teacher);
        let cfg = UadbConfig { t_steps: 8, ..UadbConfig::fast_for_tests(3) };
        let model = Uadb::new(cfg).fit(&d.x, &teacher).unwrap();
        let booster_auc = roc_auc(&labels, model.scores());
        // The deliberately tiny test config trades fidelity for speed;
        // the bound only guards against ranking collapse (cf. the
        // full-size shape checks in tests/reproduction.rs).
        assert!(
            booster_auc > teacher_auc - 0.10,
            "booster {booster_auc:.3} collapsed below teacher {teacher_auc:.3}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let d = fig5_dataset(AnomalyType::Dependency, 5).standardized();
        let teacher = DetectorKind::Ecod.build(0).fit_score(&d.x).unwrap();
        let a = Uadb::new(UadbConfig::fast_for_tests(7)).fit(&d.x, &teacher).unwrap();
        let b = Uadb::new(UadbConfig::fast_for_tests(7)).fit(&d.x, &teacher).unwrap();
        assert_eq!(a.scores(), b.scores());
        let c = Uadb::new(UadbConfig::fast_for_tests(8)).fit(&d.x, &teacher).unwrap();
        assert_ne!(a.scores(), c.scores());
    }

    #[test]
    fn out_of_sample_scoring_works() {
        let d = fig5_dataset(AnomalyType::Global, 2).standardized();
        let teacher = DetectorKind::Hbos.build(0).fit_score(&d.x).unwrap();
        let model = Uadb::new(UadbConfig::fast_for_tests(0)).fit(&d.x, &teacher).unwrap();
        let q = d.x.select_rows(&[0, 1, 2]);
        let s = model.score(&q);
        assert_eq!(s.len(), 3);
        assert!(s.iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn error_cases() {
        let cfg = UadbConfig::fast_for_tests(0);
        let x = Matrix::zeros(0, 2);
        let err = Uadb::new(cfg.clone()).fit(&x, &[]).err().unwrap();
        assert_eq!(err, UadbError::EmptyInput);
        let x = Matrix::zeros(3, 2);
        let err = Uadb::new(cfg).fit(&x, &[0.5]).err().unwrap();
        assert!(matches!(err, UadbError::LengthMismatch { rows: 3, scores: 1 }));
        assert!(err.to_string().contains('3'));
    }

    /// A NaN teacher score, an infinite one and a NaN feature each used
    /// to train step 1's nets to NaN and then panic in step 2's variance
    /// update; each is now refused up front, naming its row.
    #[test]
    fn non_finite_inputs_are_rejected() {
        let d = fig5_dataset(AnomalyType::Global, 1).standardized();
        let teacher = DetectorKind::Hbos.build(0).fit_score(&d.x).unwrap();
        let uadb = Uadb::new(UadbConfig { t_steps: 2, ..UadbConfig::fast_for_tests(0) });
        for bad in [f64::NAN, f64::INFINITY] {
            let mut scores = teacher.clone();
            scores[5] = bad;
            let err = uadb.fit(&d.x, &scores).err().unwrap();
            assert_eq!(err, UadbError::NonFinite { row: 5, what: "teacher score" }, "{bad}");
            assert!(err.to_string().contains("row 5"), "{err}");
        }
        let mut x = d.x.clone();
        x.set(7, 1, f64::NAN);
        let err = uadb.fit(&x, &teacher).err().unwrap();
        assert_eq!(err, UadbError::NonFinite { row: 7, what: "feature" });
    }

    #[test]
    fn single_fold_config_works() {
        let d = fig5_dataset(AnomalyType::Global, 4).standardized();
        let teacher = DetectorKind::Knn.build(0).fit_score(&d.x).unwrap();
        let cfg = UadbConfig { cv_folds: 1, ..UadbConfig::fast_for_tests(0) };
        let model = Uadb::new(cfg).fit(&d.x, &teacher).unwrap();
        assert_eq!(model.scores().len(), d.n_samples());
    }

    #[test]
    fn calibration_is_batch_size_independent() {
        let d = fig5_dataset(AnomalyType::Global, 8).standardized();
        let teacher = DetectorKind::Hbos.build(0).fit_score(&d.x).unwrap();
        let model = Uadb::new(UadbConfig::fast_for_tests(0)).fit(&d.x, &teacher).unwrap();
        // Training scores map onto exactly [0, 1].
        let cal = model.calibration();
        let calibrated = model.score_calibrated(&d.x);
        let lo = calibrated.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = calibrated.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(lo.abs() < 1e-12 && (hi - 1.0).abs() < 1e-12, "[{lo}, {hi}]");
        // A 1-row batch scores bit-identically to the row inside the
        // full batch (the serving invariant).
        let single = model.score_calibrated(&d.x.select_rows(&[5]));
        assert_eq!(single[0].to_bits(), calibrated[5].to_bits());
        // Round trip through persisted constants.
        let rebuilt = ScoreCalibration::from_parts(cal.min, cal.range);
        assert_eq!(rebuilt, cal);
    }

    #[test]
    fn calibration_fit_survives_poisoned_scores() {
        // Inf-contaminated training scores must not bake non-finite
        // constants into the model (save would then write a file that
        // every loader rejects).
        let poisoned = [0.25, f64::INFINITY, 0.75, f64::NAN, 0.5, f64::NEG_INFINITY];
        let cal = ScoreCalibration::fit(&poisoned);
        assert!(cal.is_valid(), "fit produced {cal:?}");
        assert_eq!(cal.min, 0.25);
        assert_eq!(cal.range, 0.5);
        // All-poisoned input falls back to the identity-width guard.
        let cal = ScoreCalibration::fit(&[f64::NAN, f64::INFINITY]);
        assert!(cal.is_valid());
        assert_eq!((cal.min, cal.range), (0.0, 1.0));
        // A finite range that overflows to inf also falls back.
        let cal = ScoreCalibration::fit(&[f64::MAX, -f64::MAX]);
        assert!(cal.is_valid(), "overflowing range produced {cal:?}");
        assert_eq!(cal.range, 1.0);
        // And hand-built garbage is detectable before from_parts panics.
        assert!(!ScoreCalibration { min: f64::NEG_INFINITY, range: 1.0 }.is_valid());
        assert!(!ScoreCalibration { min: 0.0, range: f64::INFINITY }.is_valid());
        assert!(!ScoreCalibration { min: 0.0, range: 0.0 }.is_valid());
        assert!(!ScoreCalibration { min: 0.0, range: f64::NAN }.is_valid());
    }

    #[test]
    fn from_parts_restores_scoring_exactly() {
        let d = fig5_dataset(AnomalyType::Local, 9).standardized();
        let teacher = DetectorKind::Knn.build(0).fit_score(&d.x).unwrap();
        let model = Uadb::new(UadbConfig::fast_for_tests(4)).fit(&d.x, &teacher).unwrap();
        let restored = UadbModel::from_parts(
            model.ensemble().to_vec(),
            model.config().clone(),
            model.calibration(),
        );
        assert_eq!(model.score(&d.x), restored.score(&d.x));
        assert_eq!(model.score_calibrated(&d.x), restored.score_calibrated(&d.x));
        // Histories are training artifacts and deliberately absent.
        assert!(restored.scores().is_empty());
        assert!(restored.booster_history().is_empty());
        // On the training rows, score() equals the recorded final scores.
        assert_eq!(model.score(&d.x), model.scores());
    }

    /// Every bit a fit leaves behind: member weights, both histories and
    /// the calibration constants.
    fn fit_bits(model: &UadbModel) -> Vec<u64> {
        let mut bits = Vec::new();
        for mlp in model.ensemble() {
            for l in mlp.layers() {
                bits.extend(l.weights().as_slice().iter().map(|v| v.to_bits()));
                bits.extend(l.bias().iter().map(|v| v.to_bits()));
            }
        }
        for h in model.booster_history().iter().chain(model.pseudo_history()) {
            bits.extend(h.iter().map(|v| v.to_bits()));
        }
        let cal = model.calibration();
        bits.extend([cal.min.to_bits(), cal.range.to_bits()]);
        bits
    }

    #[test]
    fn fit_is_bit_identical_for_every_worker_count() {
        let d = fig5_dataset(AnomalyType::Local, 3).standardized();
        let teacher = DetectorKind::Hbos.build(0).fit_score(&d.x).unwrap();
        let configs = [
            ("fast_for_tests", UadbConfig::fast_for_tests(5)),
            ("cv_folds 1", UadbConfig { cv_folds: 1, ..UadbConfig::fast_for_tests(5) }),
            ("cold start", UadbConfig { warm_start: false, ..UadbConfig::fast_for_tests(5) }),
        ];
        for (name, cfg) in configs {
            let uadb = Uadb::new(cfg);
            let want = fit_bits(&uadb.fit_with(&d.x, &teacher, 1).unwrap());
            for workers in [2, 3, 0] {
                let got = fit_bits(&uadb.fit_with(&d.x, &teacher, workers).unwrap());
                assert!(got == want, "{name}: {workers} workers diverged from 1");
            }
        }
    }

    #[test]
    fn nets_of_one_step_train_side_by_side() {
        // The first two nets to finish an epoch 0 wait for each other
        // inside the progress hook. Run side by side, each sees the
        // other's token; run one after another, the first net's wait
        // can only time out, because the second net starts after it.
        use std::sync::{mpsc, Mutex};
        let d = fig5_dataset(AnomalyType::Global, 1).standardized();
        let teacher = DetectorKind::Hbos.build(0).fit_score(&d.x).unwrap();
        let (first_tx, first_rx) = mpsc::channel::<()>();
        let (second_tx, second_rx) = mpsc::channel::<()>();
        // One end per arrival, each behind its own lock, so a waiting
        // arrival never blocks the other.
        let ends = [Mutex::new((first_tx, second_rx)), Mutex::new((second_tx, first_rx))];
        let arrivals = Mutex::new(0usize);
        let (met_tx, met_rx) = mpsc::channel::<bool>();
        let hook = ProgressHook::new(move |epoch, _, _| {
            if epoch != 0 {
                return;
            }
            let arrival = {
                let mut n = arrivals.lock().unwrap();
                *n += 1;
                *n - 1
            };
            let Some(end) = ends.get(arrival) else { return };
            let (tx, rx) = &*end.lock().unwrap();
            tx.send(()).unwrap();
            let met = rx.recv_timeout(std::time::Duration::from_secs(30)).is_ok();
            met_tx.send(met).unwrap();
        });
        let cfg = UadbConfig { t_steps: 1, progress: Some(hook), ..UadbConfig::fast_for_tests(2) };
        let model = Uadb::new(cfg.clone()).fit_with(&d.x, &teacher, 2).unwrap();
        let met: Vec<bool> = met_rx.try_iter().collect();
        assert_eq!(met, [true, true], "the first two nets did not overlap");
        // The hook only observes: the weights match a silent serial fit.
        let serial = Uadb::new(UadbConfig { progress: None, ..cfg }).fit(&d.x, &teacher).unwrap();
        assert!(fit_bits(&model) == fit_bits(&serial));
    }

    #[test]
    fn variance_correction_moves_pseudo_labels() {
        let d = fig5_dataset(AnomalyType::Clustered, 6).standardized();
        let teacher = DetectorKind::IForest.build(1).fit_score(&d.x).unwrap();
        let model = Uadb::new(UadbConfig::fast_for_tests(2)).fit(&d.x, &teacher).unwrap();
        let first = &model.pseudo_history()[0];
        let last = model.pseudo_history().last().unwrap();
        let moved = first.iter().zip(last).filter(|(a, b)| (**a - **b).abs() > 0.05).count();
        assert!(moved > 0, "error correction must adjust some pseudo labels");
    }
}
