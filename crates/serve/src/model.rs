//! The servable unit: a fitted booster plus everything inference needs.
//!
//! UADB's deployment story (paper §III) is that the student MLP
//! *replaces* the teacher as the production detector. What the teacher
//! leaves behind is baked in at training time: the pseudo-label scale
//! the ensemble was distilled onto, the z-score constants of the
//! training features, and the score calibration. [`ServedModel`] bundles
//! all of it so a request row travels the exact numeric path a training
//! row did.
//!
//! The paper's *evaluation* story, though, is booster **versus**
//! teacher — so a served name can optionally carry the frozen fitted
//! teacher next to the booster ([`TeacherModel`], attached via
//! [`ServedModel::attach_teacher`]) and requests pick a [`Variant`]:
//! the distilled booster (default), the teacher, or both paired for
//! online A/B.

use std::fmt;
use std::sync::Arc;
use uadb::booster::{check_features, UadbError};
use uadb::{ScoreCalibration, ScoreScratch, Uadb, UadbConfig, UadbModel};
use uadb_data::preprocess::Standardizer;
use uadb_data::Dataset;
use uadb_detectors::snapshot::{self, DetectorSnapshot};
use uadb_detectors::{DetectorError, DetectorKind};
use uadb_linalg::Matrix;
use uadb_telemetry::{ScoreSketch, SketchSnapshot};

/// Per-worker reusable scoring workspace: standardised-feature buffer,
/// output staging, and the booster's forward scratch. Grown once, then
/// reused for every request a worker handles — the steady-state scoring
/// path performs no allocation.
#[derive(Debug, Clone, Default)]
pub struct ScoreWorkspace {
    std_rows: Vec<f64>,
    scores: Vec<f64>,
    nn: ScoreScratch,
}

/// Provenance carried in the model file and reported by `GET /model`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelMeta {
    /// Training dataset name.
    pub dataset: String,
    /// Teacher detector display name (e.g. `"IForest"`).
    pub teacher: String,
    /// Number of training rows.
    pub n_train: u64,
}

/// Train-time model-quality baseline: what the calibrated score
/// distribution looked like on the training set, and the anomaly rate
/// at the calibration threshold. The drift plane compares live traffic
/// against this; per-feature train means/variances come from the
/// persisted [`Standardizer`], so the baseline only carries what the
/// standardiser doesn't already hold.
///
/// Captured automatically by every `train*` path and persisted as an
/// optional trailing section of the model container (format v3) —
/// models loaded from older files simply have no baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelBaseline {
    /// Calibrated training-score counts over
    /// [`uadb_telemetry::SCORE_BUCKETS`] uniform `[0, 1]` buckets.
    pub score_counts: Vec<u64>,
    /// Fraction of training scores at or above `threshold`.
    pub anomaly_rate: f64,
    /// The anomaly threshold the rate was measured at.
    pub threshold: f64,
    /// Training rows the baseline was computed over.
    pub n: u64,
}

impl ModelBaseline {
    /// The calibration-space anomaly threshold baselines are measured
    /// at: the midpoint of the calibrated `[0, 1]` score range, which
    /// lands exactly on a sketch bucket edge.
    pub const DEFAULT_THRESHOLD: f64 = 0.5;

    /// Sketches a calibrated training-score slice into a baseline.
    pub fn from_scores(calibrated: &[f64]) -> Self {
        let sketch = ScoreSketch::new();
        sketch.record_batch(calibrated);
        let snap = sketch.snapshot();
        Self {
            anomaly_rate: snap.fraction_at_or_above(Self::DEFAULT_THRESHOLD),
            threshold: Self::DEFAULT_THRESHOLD,
            n: snap.total(),
            score_counts: snap.counts,
        }
    }

    /// The baseline score distribution as a sketch snapshot (what PSI
    /// is computed against).
    pub fn snapshot(&self) -> SketchSnapshot {
        SketchSnapshot::from_counts(self.score_counts.clone())
    }
}

/// Which side of the teacher/booster pair a request scores against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The distilled booster ensemble (the default serving path).
    Booster,
    /// The frozen fitted teacher detector.
    Teacher,
}

impl Variant {
    /// Parses the `?variant=` query value ("both" is handled a level up:
    /// it fans out into one request per variant).
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "booster" => Some(Variant::Booster),
            "teacher" => Some(Variant::Teacher),
            _ => None,
        }
    }

    /// The wire name of the variant.
    pub fn name(self) -> &'static str {
        match self {
            Variant::Booster => "booster",
            Variant::Teacher => "teacher",
        }
    }
}

/// A deployable UADB model: booster ensemble + train-time feature
/// standardisation + score calibration + provenance — and optionally
/// the frozen teacher it was distilled from, for teacher/booster A/B.
///
/// `Clone` copies the booster weights (the teacher snapshot is shared
/// via `Arc`); the registry uses it to build a modified bundle — e.g.
/// attach or detach a teacher at runtime — while requests in flight
/// keep scoring against the original.
#[derive(Debug, Clone)]
pub struct ServedModel {
    model: UadbModel,
    standardizer: Standardizer,
    meta: ModelMeta,
    teacher: Option<Arc<TeacherModel>>,
    baseline: Option<ModelBaseline>,
}

/// Errors from scoring raw request rows.
#[derive(Debug, Clone, PartialEq)]
pub enum ScoreError {
    /// Request width differs from the trained feature count.
    DimensionMismatch {
        /// Feature count the model was trained with.
        expected: usize,
        /// Feature count of the request rows.
        got: usize,
    },
    /// A request cell is NaN or infinite.
    NonFiniteFeature {
        /// Row index within the request.
        row: usize,
    },
    /// The teacher variant was requested on a model serving only its
    /// booster.
    TeacherNotLoaded,
    /// The frozen teacher itself failed to score.
    Teacher(DetectorError),
    /// A scoring worker died (panicked) while the batch was in flight.
    /// A server bug, not a request-level condition — reported as an
    /// error instead of hanging or panicking the caller.
    WorkerPanicked,
}

impl ScoreError {
    /// Stable, low-cardinality name for this error class — what the
    /// structured logs and per-model error counters tag failures with
    /// (the `Display` text carries request-specific numbers and would
    /// explode label cardinality).
    pub fn metric_label(&self) -> &'static str {
        match self {
            ScoreError::DimensionMismatch { .. } => "dimension_mismatch",
            ScoreError::NonFiniteFeature { .. } => "non_finite_feature",
            ScoreError::TeacherNotLoaded => "teacher_not_loaded",
            ScoreError::Teacher(_) => "teacher_failed",
            ScoreError::WorkerPanicked => "worker_panicked",
        }
    }
}

impl fmt::Display for ScoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScoreError::DimensionMismatch { expected, got } => {
                write!(f, "rows have {got} features, model expects {expected}")
            }
            ScoreError::NonFiniteFeature { row } => {
                write!(f, "row {row} contains a non-finite feature")
            }
            ScoreError::TeacherNotLoaded => {
                write!(f, "no teacher snapshot is loaded for this model")
            }
            ScoreError::Teacher(e) => write!(f, "teacher failed to score: {e}"),
            ScoreError::WorkerPanicked => {
                write!(f, "a scoring worker died while the batch was in flight")
            }
        }
    }
}

impl std::error::Error for ScoreError {}

/// Why training a [`ServedModel`] failed.
#[derive(Debug, Clone, PartialEq)]
pub enum TrainError {
    /// The teacher could not fit or score the training rows.
    Teacher(DetectorError),
    /// The booster refused its inputs (for example a NaN feature).
    Booster(UadbError),
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::Teacher(e) => write!(f, "teacher failed: {e}"),
            TrainError::Booster(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TrainError {}

/// A frozen fitted teacher, servable next to its distilled booster: the
/// detector's snapshot-restored state, the train-time standardiser, and
/// the min-max calibration fitted on the teacher's training scores (the
/// paper's pseudo-label normalisation — so teacher and booster scores
/// land on the same `[0,1]`-anchored scale and are directly comparable
/// in an A/B response).
pub struct TeacherModel {
    detector: Box<dyn DetectorSnapshot>,
    standardizer: Standardizer,
    calibration: ScoreCalibration,
    meta: ModelMeta,
}

impl fmt::Debug for TeacherModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TeacherModel")
            .field("kind", &self.detector.kind().name())
            .field("input_dim", &self.input_dim())
            .field("meta", &self.meta)
            .finish()
    }
}

impl TeacherModel {
    /// Bundles a fitted, snapshot-capable detector with its train-time
    /// preprocessing and score calibration.
    ///
    /// # Panics
    /// If the detector's fitted width differs from the standardiser's.
    pub fn new(
        detector: Box<dyn DetectorSnapshot>,
        standardizer: Standardizer,
        calibration: ScoreCalibration,
        meta: ModelMeta,
    ) -> Self {
        assert_eq!(
            standardizer.n_features(),
            detector.fitted_dim(),
            "standardizer width must match the teacher's fitted width"
        );
        Self { detector, standardizer, calibration, meta }
    }

    /// The wrapped fitted detector.
    pub fn detector(&self) -> &dyn DetectorSnapshot {
        self.detector.as_ref()
    }

    /// The teacher's detector kind.
    pub fn kind(&self) -> DetectorKind {
        self.detector.kind()
    }

    /// The stored train-time standardiser.
    pub fn standardizer(&self) -> &Standardizer {
        &self.standardizer
    }

    /// The min-max calibration fitted on the teacher's training scores.
    pub fn calibration(&self) -> ScoreCalibration {
        self.calibration
    }

    /// Provenance metadata.
    pub fn meta(&self) -> &ModelMeta {
        &self.meta
    }

    /// Feature count a request row must have.
    pub fn input_dim(&self) -> usize {
        self.standardizer.n_features()
    }

    /// Scores the raw row range `lo..hi`: validates, standardises with
    /// the stored constants, runs the frozen detector, and applies the
    /// stored calibration. Per-row like the booster path, so results are
    /// independent of batch composition and sharding.
    /// [`ScoreError::NonFiniteFeature`] reports the **batch-global** row
    /// index.
    ///
    /// # Panics
    /// If the range is out of bounds.
    pub fn score_range(&self, raw: &Matrix, lo: usize, hi: usize) -> Result<Vec<f64>, ScoreError> {
        assert!(lo <= hi && hi <= raw.rows(), "row range {lo}..{hi} out of bounds");
        let expected = self.standardizer.n_features();
        if raw.cols() != expected && raw.rows() > 0 {
            return Err(ScoreError::DimensionMismatch { expected, got: raw.cols() });
        }
        if raw.rows() == 0 || lo == hi {
            return Ok(Vec::new());
        }
        for r in lo..hi {
            if raw.row(r).iter().any(|v| !v.is_finite()) {
                return Err(ScoreError::NonFiniteFeature { row: r });
            }
        }
        let mut std_rows = Vec::new();
        self.standardizer.transform_rows_into(raw, lo, hi, &mut std_rows);
        let x = Matrix::from_vec(hi - lo, expected, std_rows)
            .expect("standardised range has the declared shape");
        let mut scores = self.detector.score(&x).map_err(|e| match e {
            DetectorError::DimensionMismatch { expected, got } => {
                ScoreError::DimensionMismatch { expected, got }
            }
            other => ScoreError::Teacher(other),
        })?;
        self.calibration.apply_vec(&mut scores);
        Ok(scores)
    }

    /// Scores whole raw rows (wrapper over [`TeacherModel::score_range`]).
    pub fn score_rows(&self, raw: &Matrix) -> Result<Vec<f64>, ScoreError> {
        self.score_range(raw, 0, raw.rows())
    }
}

impl ServedModel {
    /// Bundles a fitted model with its train-time preprocessing.
    ///
    /// # Panics
    /// If the standardiser width differs from the ensemble input width.
    pub fn new(model: UadbModel, standardizer: Standardizer, meta: ModelMeta) -> Self {
        assert_eq!(
            standardizer.n_features(),
            model.ensemble()[0].input_dim(),
            "standardizer width must match ensemble input width"
        );
        Self { model, standardizer, meta, teacher: None, baseline: None }
    }

    /// Trains a booster end to end on a dataset's **raw** features:
    /// fits the standardiser, standardises, runs the teacher, distils
    /// the booster, and returns the deployable bundle (teacher dropped).
    pub fn train(
        data: &Dataset,
        teacher: DetectorKind,
        cfg: UadbConfig,
    ) -> Result<Self, TrainError> {
        let (mut served, _) = Self::train_with_teacher(data, teacher, cfg)?;
        served.teacher = None;
        Ok(served)
    }

    /// Like [`ServedModel::train`], but keeps the fitted teacher: the
    /// returned [`ServedModel`] has the teacher attached (so
    /// `?variant=teacher|both` serve immediately) and the same teacher
    /// is returned separately for snapshotting to its own file. The
    /// teacher's calibration is min-max fitted on its training scores —
    /// exactly the pseudo-label normalisation the booster was distilled
    /// against, making the A/B scales comparable.
    pub fn train_with_teacher(
        data: &Dataset,
        teacher: DetectorKind,
        cfg: UadbConfig,
    ) -> Result<(Self, Arc<TeacherModel>), TrainError> {
        Self::train_with_teacher_workers(data, teacher, cfg, 1)
    }

    /// [`ServedModel::train_with_teacher`] with each UADB step's fold
    /// members and probe trained side by side on up to `train_workers`
    /// threads (`1` = one after another, `0` = all available cores; see
    /// [`Uadb::fit_with`]). The trained model is bit-identical for every
    /// worker count, so the flag never needs persisting. The progress
    /// hook may then run on several threads at once.
    pub fn train_with_teacher_workers(
        data: &Dataset,
        teacher: DetectorKind,
        cfg: UadbConfig,
        train_workers: usize,
    ) -> Result<(Self, Arc<TeacherModel>), TrainError> {
        // Datasets with no rows or no feature columns (e.g. a 1-column
        // CSV whose only column was the label) must error cleanly, not
        // panic inside a teacher or the booster.
        if data.n_samples() == 0 || data.n_features() == 0 {
            return Err(TrainError::Teacher(DetectorError::EmptyInput));
        }
        // Checked on the raw rows: standardising spreads one NaN over
        // its whole column, and the teacher must not see it either.
        check_features(&data.x).map_err(TrainError::Booster)?;
        let standardizer = Standardizer::fit(&data.x);
        let x = standardizer.transform(&data.x);
        let seed = cfg.seed;
        let mut detector = snapshot::build(teacher, seed);
        let teacher_scores = detector.fit_score(&x).map_err(TrainError::Teacher)?;
        // Training-loop observability: every epoch of every member fit
        // bumps the process epoch counter, refreshes the per-model
        // last-loss gauge, and emits a debug-level structured log line.
        // A hook the caller already installed is chained, not replaced.
        let mut cfg = cfg;
        let caller_hook = cfg.progress.take();
        let model_name: Arc<str> = Arc::from(data.name.as_str());
        cfg.progress = Some(uadb_nn::ProgressHook::new(move |epoch, loss, ms| {
            crate::telemetry::metrics().observe_train_epoch(&model_name, loss);
            let epoch_s = epoch.to_string();
            let loss_s = format!("{loss:.6}");
            let ms_s = ms.to_string();
            uadb_telemetry::log::logger().log(
                uadb_telemetry::Level::Debug,
                "train",
                "epoch finished",
                &[("model", &model_name), ("epoch", &epoch_s), ("loss", &loss_s), ("ms", &ms_s)],
            );
            if let Some(hook) = &caller_hook {
                hook.call(epoch, loss, ms);
            }
        }));
        let model = Uadb::new(cfg)
            .fit_with(&x, &teacher_scores, train_workers)
            .map_err(TrainError::Booster)?;
        let meta = ModelMeta {
            dataset: data.name.clone(),
            teacher: teacher.name().to_string(),
            n_train: data.n_samples() as u64,
        };
        let teacher_model = Arc::new(TeacherModel::new(
            detector,
            standardizer.clone(),
            ScoreCalibration::fit(&teacher_scores),
            meta.clone(),
        ));
        let mut served = Self::new(model, standardizer, meta);
        // Capture the model-quality baseline while the training scores
        // are still in hand: the calibrated score distribution live
        // traffic will be PSI-compared against.
        let mut calibrated = served.model.scores().to_vec();
        served.model.calibration().apply_vec(&mut calibrated);
        served.baseline = Some(ModelBaseline::from_scores(&calibrated));
        served.teacher = Some(Arc::clone(&teacher_model));
        Ok((served, teacher_model))
    }

    /// Attaches a frozen teacher so `?variant=teacher|both` can serve.
    /// Rejects a teacher whose feature width differs from the booster's
    /// (scoring it would be meaningless and every request would fail).
    pub fn attach_teacher(&mut self, teacher: Arc<TeacherModel>) -> Result<(), ScoreError> {
        if teacher.input_dim() != self.input_dim() {
            return Err(ScoreError::DimensionMismatch {
                expected: self.input_dim(),
                got: teacher.input_dim(),
            });
        }
        self.teacher = Some(teacher);
        Ok(())
    }

    /// Detaches the frozen teacher, returning it if one was loaded;
    /// afterwards `?variant=teacher|both` requests are 404s again.
    pub fn detach_teacher(&mut self) -> Option<Arc<TeacherModel>> {
        self.teacher.take()
    }

    /// The attached frozen teacher, if one is loaded.
    pub fn teacher(&self) -> Option<&Arc<TeacherModel>> {
        self.teacher.as_ref()
    }

    /// Names of the loaded variants (`booster` always; `teacher` when a
    /// snapshot is attached) — what `GET /model/{name}` reports.
    pub fn variants(&self) -> Vec<&'static str> {
        if self.teacher.is_some() {
            vec![Variant::Booster.name(), Variant::Teacher.name()]
        } else {
            vec![Variant::Booster.name()]
        }
    }

    /// Scores raw (unstandardised) rows: applies the stored train-time
    /// standardisation, the ensemble forward pass, and the stored score
    /// calibration. Every step is per-row, so results are independent of
    /// batch composition and sharding. Thin wrapper over
    /// [`ServedModel::score_range_into`] with a one-shot workspace.
    pub fn score_rows(&self, raw: &Matrix) -> Result<Vec<f64>, ScoreError> {
        let mut ws = ScoreWorkspace::default();
        self.score_range_into(raw, 0, raw.rows(), &mut ws)?;
        Ok(std::mem::take(&mut ws.scores))
    }

    /// Allocation-free scoring of the borrowed row range `lo..hi` of
    /// `raw`: validates, standardises into the workspace, runs the
    /// forward pass through the workspace scratch, calibrates in place,
    /// and returns the calibrated scores as a borrowed slice of length
    /// `hi - lo`. [`ScoreError::NonFiniteFeature`] reports the
    /// **batch-global** row index.
    ///
    /// Scores are bit-identical to [`ServedModel::score_rows`] on the
    /// same rows — the shard-independence property the scoring pool
    /// relies on.
    ///
    /// # Panics
    /// If the range is out of bounds.
    pub fn score_range_into<'w>(
        &self,
        raw: &Matrix,
        lo: usize,
        hi: usize,
        ws: &'w mut ScoreWorkspace,
    ) -> Result<&'w [f64], ScoreError> {
        assert!(lo <= hi && hi <= raw.rows(), "row range {lo}..{hi} out of bounds");
        let expected = self.standardizer.n_features();
        if raw.cols() != expected && raw.rows() > 0 {
            return Err(ScoreError::DimensionMismatch { expected, got: raw.cols() });
        }
        if raw.rows() == 0 {
            ws.scores.clear();
            return Ok(&ws.scores);
        }
        for r in lo..hi {
            if raw.row(r).iter().any(|v| !v.is_finite()) {
                return Err(ScoreError::NonFiniteFeature { row: r });
            }
        }
        self.standardizer.transform_rows_into(raw, lo, hi, &mut ws.std_rows);
        self.model.score_calibrated_rows_into(&ws.std_rows, hi - lo, &mut ws.nn, &mut ws.scores);
        Ok(&ws.scores)
    }

    /// The wrapped booster model.
    pub fn model(&self) -> &UadbModel {
        &self.model
    }

    /// The stored train-time standardiser.
    pub fn standardizer(&self) -> &Standardizer {
        &self.standardizer
    }

    /// Provenance metadata.
    pub fn meta(&self) -> &ModelMeta {
        &self.meta
    }

    /// The train-time model-quality baseline, if this model carries one
    /// (fresh training always captures it; files persisted before
    /// format v3 load without one until re-saved).
    pub fn baseline(&self) -> Option<&ModelBaseline> {
        self.baseline.as_ref()
    }

    /// Installs (or clears) the persisted baseline — the load path's
    /// counterpart to the capture in `train_with_teacher_workers`.
    pub fn set_baseline(&mut self, baseline: Option<ModelBaseline>) {
        self.baseline = baseline;
    }

    /// Feature count a request row must have.
    pub fn input_dim(&self) -> usize {
        self.standardizer.n_features()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use uadb_data::synth::{fig5_dataset, AnomalyType};

    pub(crate) fn tiny_model(seed: u64) -> ServedModel {
        let data = fig5_dataset(AnomalyType::Clustered, seed);
        ServedModel::train(&data, DetectorKind::Hbos, UadbConfig::fast_for_tests(seed)).unwrap()
    }

    #[test]
    fn train_then_score_matches_training_scores() {
        let data = fig5_dataset(AnomalyType::Clustered, 1);
        let served =
            ServedModel::train(&data, DetectorKind::Hbos, UadbConfig::fast_for_tests(1)).unwrap();
        // Scoring the raw training rows reproduces the calibrated
        // training scores exactly (same standardisation constants).
        let again = served.score_rows(&data.x).unwrap();
        let x_std = served.standardizer().transform(&data.x);
        assert_eq!(again, served.model().score_calibrated(&x_std));
        assert_eq!(again.len(), data.n_samples());
    }

    #[test]
    fn single_row_scores_match_batch_scores() {
        let data = fig5_dataset(AnomalyType::Global, 2);
        let served = tiny_model(2);
        let batch = served.score_rows(&data.x).unwrap();
        for i in [0usize, 7, data.n_samples() - 1] {
            let single = served.score_rows(&data.x.select_rows(&[i])).unwrap();
            assert_eq!(single[0].to_bits(), batch[i].to_bits(), "row {i}");
        }
    }

    #[test]
    fn training_captures_a_baseline() {
        let served = tiny_model(5);
        let b = served.baseline().expect("fresh training captures a baseline");
        assert_eq!(b.n, served.meta().n_train, "every training row is sketched");
        assert_eq!(b.score_counts.iter().sum::<u64>(), b.n);
        assert_eq!(b.threshold, ModelBaseline::DEFAULT_THRESHOLD);
        assert!((0.0..=1.0).contains(&b.anomaly_rate));
        // The sketch matches a from-scratch sketch of the calibrated
        // training scores (capture is deterministic).
        let mut cal = served.model().scores().to_vec();
        served.model().calibration().apply_vec(&mut cal);
        assert_eq!(b, &ModelBaseline::from_scores(&cal));
    }

    #[test]
    fn zero_width_training_data_errors_cleanly() {
        use uadb_linalg::Matrix;
        let empty = Dataset::new("empty", Matrix::zeros(5, 0), vec![0; 5], "Test");
        let r = ServedModel::train(&empty, DetectorKind::IForest, UadbConfig::fast_for_tests(0));
        assert!(matches!(r, Err(TrainError::Teacher(DetectorError::EmptyInput))));
        let none = Dataset::new("none", Matrix::zeros(0, 3), vec![], "Test");
        let r = ServedModel::train(&none, DetectorKind::Hbos, UadbConfig::fast_for_tests(0));
        assert!(matches!(r, Err(TrainError::Teacher(DetectorError::EmptyInput))));
    }

    #[test]
    fn dimension_and_finiteness_errors() {
        let served = tiny_model(3);
        let wrong = Matrix::zeros(2, served.input_dim() + 1);
        assert!(matches!(served.score_rows(&wrong), Err(ScoreError::DimensionMismatch { .. })));
        let mut bad = Matrix::zeros(2, served.input_dim());
        bad.set(1, 0, f64::NAN);
        assert_eq!(served.score_rows(&bad), Err(ScoreError::NonFiniteFeature { row: 1 }));
        assert_eq!(served.score_rows(&Matrix::zeros(0, 0)), Ok(vec![]));
    }
}
