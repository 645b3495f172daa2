//! Versioned binary persistence for [`ServedModel`] and
//! [`TeacherModel`] snapshots.
//!
//! Container layout (all integers and floats little-endian):
//!
//! ```text
//! magic   b"UADB"
//! version u32 (currently 3)
//! record  u8 — 1 = booster, 2 = teacher snapshot (version ≥ 2 only)
//! payload record-specific (below)
//! trailer b"BDAU"
//! ```
//!
//! Booster payload (record 1; also the entire body of legacy version-1
//! files, which predate the record byte and still load):
//!
//! ```text
//! meta     dataset: str, teacher: str, n_train: u64
//! scaler   d: u64, means: d×f64, stds: d×f64
//! calib    min: f64, range: f64
//! config   t_steps, epochs_per_step, batch_size, cv_folds, seed: u64,
//!          learning_rate: f64, hidden: u64-len + u64s,
//!          warm_start: u8, correction: u8
//! models   n_members: u64, then per member:
//!            activation: u8, n_layers: u64, per layer:
//!              in_dim: u64, out_dim: u64,
//!              weights: (in·out)×f64 row-major, bias: out×f64
//! baseline (version ≥ 3) present: u8, then when 1:
//!            n_buckets: u64, counts: n_buckets×u64,
//!            threshold: f64, anomaly_rate: f64, n: u64
//! ```
//!
//! The baseline section holds the train-time model-quality baseline
//! (calibrated score distribution + anomaly rate at the calibration
//! threshold) the drift plane compares live traffic against. It sits
//! **after** the ensemble so every earlier field keeps its version-2
//! offset; version ≤ 2 files load with no baseline and re-saving such a
//! model upgrades the file to version 3 (still baseline-less — a
//! baseline can only be captured at training time).
//!
//! Teacher payload (record 2):
//!
//! ```text
//! meta     dataset: str, teacher: str, n_train: u64
//! scaler   d: u64, means: d×f64, stds: d×f64
//! calib    min: f64, range: f64   (min-max over teacher train scores)
//! snapshot kind-tag: u8, then the detector's fitted-state payload
//!          (see uadb_detectors::snapshot for per-detector layouts)
//! ```
//!
//! Strings are `u64` byte length + UTF-8. Floats are stored as raw IEEE
//! bits, so a load reproduces scoring **bit-identically** (asserted by
//! the round-trip property tests in `tests/persistence.rs` and
//! `tests/teacher.rs`, and pinned against checked-in fixtures by
//! `tests/golden.rs`). The version field gates layout changes; readers
//! reject versions they do not know, and the trailer catches truncated
//! writes.

use crate::model::{ModelBaseline, ModelMeta, ServedModel, TeacherModel};
use std::fmt;
use std::io::{self, Read, Write};
use std::path::Path;
use uadb::{CorrectionScale, ScoreCalibration, UadbConfig, UadbModel};
use uadb_data::preprocess::Standardizer;
use uadb_detectors::snapshot::{
    self, read_f64, read_f64s, read_u32, read_u64, read_u8, write_f64, write_f64s, write_u32,
    write_u64, SnapshotError,
};
use uadb_linalg::Matrix;
use uadb_nn::mlp::Activation;
use uadb_nn::{linear::Linear, Mlp};

/// File magic (start) and trailer (end).
pub const MAGIC: [u8; 4] = *b"UADB";
const TRAILER: [u8; 4] = *b"BDAU";

/// Current format version.
pub const FORMAT_VERSION: u32 = 3;

/// Record-type byte of a distilled booster bundle.
pub const RECORD_BOOSTER: u8 = 1;
/// Record-type byte of a fitted teacher snapshot.
pub const RECORD_TEACHER: u8 = 2;

/// Sanity caps while reading untrusted files: any length beyond these is
/// treated as corruption rather than an allocation request.
const MAX_STR: u64 = 1 << 20;
const MAX_DIM: u64 = 1 << 24;
const MAX_MEMBERS: u64 = 1 << 12;
const MAX_LAYERS: u64 = 1 << 8;
const MAX_BASELINE_BUCKETS: u64 = 1 << 10;

/// Errors from [`save`] / [`load`].
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with the `UADB` magic.
    BadMagic,
    /// The file's format version is newer than this reader.
    UnsupportedVersion(u32),
    /// Structurally invalid content (with a description of what).
    Corrupt(&'static str),
    /// The in-memory model is not servable and [`save`] /
    /// [`save_teacher`] refused to write it (e.g. non-finite calibration
    /// constants, NaN-bearing fitted teacher state). Writing it anyway
    /// would produce a file every loader rejects.
    InvalidModel(&'static str),
    /// The file holds a different record type than the caller asked for
    /// (e.g. a teacher snapshot passed where a booster is expected).
    WrongRecord {
        /// What the caller wanted (`"booster"` / `"teacher"`).
        expected: &'static str,
        /// What the file contains.
        found: &'static str,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o failure: {e}"),
            PersistError::BadMagic => write!(f, "not a UADB model file (bad magic)"),
            PersistError::UnsupportedVersion(v) => {
                write!(f, "model format version {v} is newer than supported ({FORMAT_VERSION})")
            }
            PersistError::Corrupt(what) => write!(f, "corrupt model file: {what}"),
            PersistError::InvalidModel(what) => {
                write!(f, "model is not servable and was not written: {what}")
            }
            PersistError::WrongRecord { expected, found } => {
                write!(f, "file holds a {found} record, expected a {expected}")
            }
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<SnapshotError> for PersistError {
    fn from(e: SnapshotError) -> Self {
        match e {
            SnapshotError::Io(io) => PersistError::Io(io),
            SnapshotError::UnknownKind(_) => PersistError::Corrupt("unknown detector kind tag"),
            SnapshotError::Corrupt(what) => PersistError::Corrupt(what),
            SnapshotError::InvalidState(what) => PersistError::InvalidModel(what),
        }
    }
}

/// Writes a model in the current format.
///
/// Refuses models that no loader would accept back — mirroring the
/// checks [`load`] applies — so corruption is caught at save time with
/// [`PersistError::InvalidModel`] rather than as a mysterious
/// `Corrupt` (or, historically, a panic) on the loading side.
pub fn save<W: Write>(model: &ServedModel, mut w: W) -> Result<(), PersistError> {
    if !model.model().calibration().is_valid() {
        return Err(PersistError::InvalidModel("non-finite calibration constants"));
    }
    let scaler = model.standardizer();
    validate_scaler_for_save(scaler)?;
    validate_baseline_for_save(model.baseline())?;
    w.write_all(&MAGIC)?;
    write_u32(&mut w, FORMAT_VERSION)?;
    w.write_all(&[RECORD_BOOSTER])?;
    write_meta(&mut w, model.meta())?;
    write_scaler(&mut w, scaler)?;
    // Calibration.
    let cal = model.model().calibration();
    write_f64(&mut w, cal.min)?;
    write_f64(&mut w, cal.range)?;
    // Config.
    let cfg = model.model().config();
    write_u64(&mut w, cfg.t_steps as u64)?;
    write_u64(&mut w, cfg.epochs_per_step as u64)?;
    write_u64(&mut w, cfg.batch_size as u64)?;
    write_u64(&mut w, cfg.cv_folds as u64)?;
    write_u64(&mut w, cfg.seed)?;
    write_f64(&mut w, cfg.learning_rate)?;
    write_u64(&mut w, cfg.hidden.len() as u64)?;
    for &h in &cfg.hidden {
        write_u64(&mut w, h as u64)?;
    }
    w.write_all(&[u8::from(cfg.warm_start)])?;
    w.write_all(&[match cfg.correction {
        CorrectionScale::Variance => 0u8,
        CorrectionScale::StdDev => 1u8,
    }])?;
    // Ensemble.
    let ensemble = model.model().ensemble();
    write_u64(&mut w, ensemble.len() as u64)?;
    for member in ensemble {
        w.write_all(&[match member.activation() {
            Activation::Sigmoid => 0u8,
            Activation::Identity => 1u8,
        }])?;
        write_u64(&mut w, member.n_layers() as u64)?;
        for layer in member.layers() {
            write_u64(&mut w, layer.input_dim() as u64)?;
            write_u64(&mut w, layer.output_dim() as u64)?;
            write_f64s(&mut w, layer.weights().as_slice())?;
            write_f64s(&mut w, layer.bias())?;
        }
    }
    // Baseline (version ≥ 3).
    match model.baseline() {
        None => w.write_all(&[0u8])?,
        Some(b) => {
            w.write_all(&[1u8])?;
            write_u64(&mut w, b.score_counts.len() as u64)?;
            for &c in &b.score_counts {
                write_u64(&mut w, c)?;
            }
            write_f64(&mut w, b.threshold)?;
            write_f64(&mut w, b.anomaly_rate)?;
            write_u64(&mut w, b.n)?;
        }
    }
    w.write_all(&TRAILER)?;
    w.flush()?;
    Ok(())
}

/// Writes a model to a file path.
pub fn save_file(model: &ServedModel, path: impl AsRef<Path>) -> Result<(), PersistError> {
    let file = std::fs::File::create(path)?;
    save(model, io::BufWriter::new(file))
}

/// Writes a fitted teacher snapshot in the current format.
///
/// Mirrors [`save`]'s validation contract for the teacher record:
/// non-finite standardiser constants, an invalid calibration, a
/// teacher-name/kind mismatch, or NaN-bearing fitted detector state are
/// all refused with [`PersistError::InvalidModel`] **before any byte is
/// written** (the detector payload is staged in memory first), so a
/// failed save never leaves a partial file.
pub fn save_teacher<W: Write>(teacher: &TeacherModel, mut w: W) -> Result<(), PersistError> {
    if !teacher.calibration().is_valid() {
        return Err(PersistError::InvalidModel("non-finite calibration constants"));
    }
    validate_scaler_for_save(teacher.standardizer())?;
    if teacher.meta().teacher != teacher.kind().name() {
        return Err(PersistError::InvalidModel("teacher metadata does not name its kind"));
    }
    // Stage the detector payload first: a NaN-poisoned fitted state
    // must abort the save with nothing written, and this is also where
    // an unfitted detector is caught.
    let mut detector_payload = Vec::new();
    snapshot::save(teacher.detector(), &mut detector_payload)?;

    w.write_all(&MAGIC)?;
    write_u32(&mut w, FORMAT_VERSION)?;
    w.write_all(&[RECORD_TEACHER])?;
    write_meta(&mut w, teacher.meta())?;
    write_scaler(&mut w, teacher.standardizer())?;
    let cal = teacher.calibration();
    write_f64(&mut w, cal.min)?;
    write_f64(&mut w, cal.range)?;
    w.write_all(&detector_payload)?;
    w.write_all(&TRAILER)?;
    w.flush()?;
    Ok(())
}

/// Writes a teacher snapshot to a file path.
pub fn save_teacher_file(
    teacher: &TeacherModel,
    path: impl AsRef<Path>,
) -> Result<(), PersistError> {
    let file = std::fs::File::create(path)?;
    save_teacher(teacher, io::BufWriter::new(file))
}

/// A decoded model file: whichever record type it holds.
pub enum Record {
    /// A distilled booster bundle (boxed: it is several times the size
    /// of a teacher snapshot).
    Booster(Box<ServedModel>),
    /// A fitted teacher snapshot.
    Teacher(TeacherModel),
}

impl Record {
    /// The record's wire name (matches the [`PersistError::WrongRecord`]
    /// vocabulary).
    pub fn kind_name(&self) -> &'static str {
        match self {
            Record::Booster(_) => "booster",
            Record::Teacher(_) => "teacher",
        }
    }
}

/// Reads whichever record a model file holds, across all supported
/// format versions (version-1 files are always boosters).
pub fn load_record<R: Read>(mut r: R) -> Result<Record, PersistError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = read_u32(&mut r)?;
    if version == 0 || version > FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion(version));
    }
    // Version 1 predates the record byte: the payload is a booster.
    let record = if version == 1 { RECORD_BOOSTER } else { read_u8(&mut r)? };
    match record {
        RECORD_BOOSTER => Ok(Record::Booster(Box::new(load_booster_payload(&mut r, version)?))),
        RECORD_TEACHER => Ok(Record::Teacher(load_teacher_payload(&mut r)?)),
        _ => Err(PersistError::Corrupt("unknown record type")),
    }
}

/// Reads whichever record a model file holds, from a path.
pub fn load_record_file(path: impl AsRef<Path>) -> Result<Record, PersistError> {
    let file = std::fs::File::open(path)?;
    load_record(io::BufReader::new(file))
}

/// Reads a booster model written by any supported format version.
/// A teacher-snapshot file is refused with [`PersistError::WrongRecord`].
pub fn load<R: Read>(r: R) -> Result<ServedModel, PersistError> {
    match load_record(r)? {
        Record::Booster(model) => Ok(*model),
        found => Err(PersistError::WrongRecord { expected: "booster", found: found.kind_name() }),
    }
}

/// Reads a teacher snapshot. A booster file is refused with
/// [`PersistError::WrongRecord`].
pub fn load_teacher<R: Read>(r: R) -> Result<TeacherModel, PersistError> {
    match load_record(r)? {
        Record::Teacher(teacher) => Ok(teacher),
        found => Err(PersistError::WrongRecord { expected: "teacher", found: found.kind_name() }),
    }
}

/// Reads a teacher snapshot from a file path.
pub fn load_teacher_file(path: impl AsRef<Path>) -> Result<TeacherModel, PersistError> {
    let file = std::fs::File::open(path)?;
    load_teacher(io::BufReader::new(file))
}

/// Reads the booster payload (everything between the record byte and
/// the trailer). `version` gates the trailing sections added after
/// format v2.
fn load_booster_payload<R: Read>(mut r: R, version: u32) -> Result<ServedModel, PersistError> {
    let (meta, standardizer) = read_meta_and_scaler(&mut r)?;
    let calibration = read_calibration(&mut r)?;
    // Config.
    let t_steps = read_u64(&mut r)? as usize;
    let epochs_per_step = read_u64(&mut r)? as usize;
    let batch_size = read_u64(&mut r)? as usize;
    let cv_folds = read_u64(&mut r)? as usize;
    let seed = read_u64(&mut r)?;
    let learning_rate = read_f64(&mut r)?;
    let n_hidden = read_len(&mut r, MAX_LAYERS, "hidden layer count")?;
    let mut hidden = Vec::with_capacity(n_hidden);
    for _ in 0..n_hidden {
        hidden.push(read_len(&mut r, MAX_DIM, "hidden width")?);
    }
    let warm_start = read_bool(&mut r)?;
    let correction = match read_u8(&mut r)? {
        0 => CorrectionScale::Variance,
        1 => CorrectionScale::StdDev,
        _ => return Err(PersistError::Corrupt("unknown correction scale")),
    };
    let cfg = UadbConfig {
        t_steps,
        epochs_per_step,
        batch_size,
        learning_rate,
        hidden,
        cv_folds,
        warm_start,
        correction,
        seed,
        progress: None,
    };
    // Ensemble.
    let n_members = read_len(&mut r, MAX_MEMBERS, "ensemble size")?;
    if n_members == 0 {
        return Err(PersistError::Corrupt("empty ensemble"));
    }
    let mut ensemble = Vec::with_capacity(n_members);
    for _ in 0..n_members {
        let activation = match read_u8(&mut r)? {
            0 => Activation::Sigmoid,
            1 => Activation::Identity,
            _ => return Err(PersistError::Corrupt("unknown activation")),
        };
        let n_layers = read_len(&mut r, MAX_LAYERS, "layer count")?;
        if n_layers == 0 {
            return Err(PersistError::Corrupt("member with no layers"));
        }
        let mut layers = Vec::with_capacity(n_layers);
        let mut expected_in: Option<usize> = None;
        for _ in 0..n_layers {
            let in_dim = read_len(&mut r, MAX_DIM, "layer input width")?;
            let out_dim = read_len(&mut r, MAX_DIM, "layer output width")?;
            if in_dim == 0 || out_dim == 0 {
                return Err(PersistError::Corrupt("zero layer dimension"));
            }
            if let Some(e) = expected_in {
                if e != in_dim {
                    return Err(PersistError::Corrupt("layer dimensions do not chain"));
                }
            }
            expected_in = Some(out_dim);
            if (in_dim as u64).saturating_mul(out_dim as u64) > MAX_DIM {
                return Err(PersistError::Corrupt("layer too large"));
            }
            let weights = read_f64s(&mut r, in_dim * out_dim)?;
            let bias = read_f64s(&mut r, out_dim)?;
            let w = Matrix::from_vec(in_dim, out_dim, weights)
                .map_err(|_| PersistError::Corrupt("weight shape mismatch"))?;
            layers.push(Linear::from_parts(w, bias));
        }
        // Booster members are scorers: anything but a single output
        // column would make `predict_vec` silently interleave columns.
        if expected_in != Some(1) {
            return Err(PersistError::Corrupt("final layer must have one output"));
        }
        ensemble.push(Mlp::from_layers(layers, activation));
    }
    let dim0 = ensemble[0].input_dim();
    if ensemble.iter().any(|m| m.input_dim() != dim0) || dim0 != standardizer.n_features() {
        return Err(PersistError::Corrupt("input widths disagree"));
    }
    // Baseline (version ≥ 3; earlier files simply have none).
    let baseline = if version >= 3 { read_baseline(&mut r)? } else { None };
    read_trailer(&mut r)?;
    let model = UadbModel::from_parts(ensemble, cfg, calibration);
    let mut served = ServedModel::new(model, standardizer, meta);
    served.set_baseline(baseline);
    Ok(served)
}

/// Reads the optional model-quality baseline section.
fn read_baseline<R: Read>(r: &mut R) -> Result<Option<ModelBaseline>, PersistError> {
    if !read_bool(r).map_err(|_| PersistError::Corrupt("invalid baseline presence byte"))? {
        return Ok(None);
    }
    let n_buckets = read_len(r, MAX_BASELINE_BUCKETS, "baseline bucket count")?;
    if n_buckets == 0 {
        return Err(PersistError::Corrupt("baseline with no buckets"));
    }
    let mut score_counts = Vec::with_capacity(n_buckets);
    for _ in 0..n_buckets {
        score_counts.push(read_u64(r)?);
    }
    let threshold = read_f64(r)?;
    let anomaly_rate = read_f64(r)?;
    let n = read_u64(r)?;
    if !(0.0..=1.0).contains(&threshold) || !(0.0..=1.0).contains(&anomaly_rate) {
        return Err(PersistError::Corrupt("baseline rates out of range"));
    }
    if score_counts.iter().sum::<u64>() != n {
        return Err(PersistError::Corrupt("baseline counts disagree with sample total"));
    }
    Ok(Some(ModelBaseline { score_counts, anomaly_rate, threshold, n }))
}

/// Reads the teacher payload (everything between the record byte and
/// the trailer).
fn load_teacher_payload<R: Read>(mut r: R) -> Result<TeacherModel, PersistError> {
    let (meta, standardizer) = read_meta_and_scaler(&mut r)?;
    let cal = read_calibration(&mut r)?;
    let detector = snapshot::load(&mut r)?;
    if detector.fitted_dim() != standardizer.n_features() {
        return Err(PersistError::Corrupt("teacher width differs from standardizer"));
    }
    if detector.kind().name() != meta.teacher {
        return Err(PersistError::Corrupt("teacher metadata does not name its kind"));
    }
    read_trailer(&mut r)?;
    Ok(TeacherModel::new(detector, standardizer, cal, meta))
}

/// Reads a booster model from a file path.
pub fn load_file(path: impl AsRef<Path>) -> Result<ServedModel, PersistError> {
    let file = std::fs::File::open(path)?;
    load(io::BufReader::new(file))
}

// Shared record-section codecs -----------------------------------------

fn validate_baseline_for_save(baseline: Option<&ModelBaseline>) -> Result<(), PersistError> {
    let Some(b) = baseline else { return Ok(()) };
    if b.score_counts.is_empty() || b.score_counts.len() as u64 > MAX_BASELINE_BUCKETS {
        return Err(PersistError::InvalidModel("baseline bucket count out of range"));
    }
    if !(0.0..=1.0).contains(&b.threshold) || !(0.0..=1.0).contains(&b.anomaly_rate) {
        return Err(PersistError::InvalidModel("baseline rates out of range"));
    }
    if b.score_counts.iter().sum::<u64>() != b.n {
        return Err(PersistError::InvalidModel("baseline counts disagree with sample total"));
    }
    Ok(())
}

fn validate_scaler_for_save(scaler: &Standardizer) -> Result<(), PersistError> {
    if !scaler.means().iter().all(|m| m.is_finite()) {
        return Err(PersistError::InvalidModel("non-finite standardizer mean"));
    }
    if !scaler.stds().iter().all(|s| *s > 0.0 && s.is_finite()) {
        return Err(PersistError::InvalidModel("non-positive standardizer std"));
    }
    Ok(())
}

fn write_meta<W: Write>(w: &mut W, meta: &ModelMeta) -> io::Result<()> {
    write_str(w, &meta.dataset)?;
    write_str(w, &meta.teacher)?;
    write_u64(w, meta.n_train)
}

fn write_scaler<W: Write>(w: &mut W, scaler: &Standardizer) -> io::Result<()> {
    write_u64(w, scaler.n_features() as u64)?;
    write_f64s(w, scaler.means())?;
    write_f64s(w, scaler.stds())
}

fn read_meta_and_scaler<R: Read>(r: &mut R) -> Result<(ModelMeta, Standardizer), PersistError> {
    let dataset = read_str(r)?;
    let teacher = read_str(r)?;
    let n_train = read_u64(r)?;
    let d = read_len(r, MAX_DIM, "feature count")?;
    let means = read_f64s(r, d)?;
    let stds = read_f64s(r, d)?;
    if !means.iter().all(|m| m.is_finite()) {
        // A NaN mean would silently turn every standardised feature —
        // and therefore every served score — into NaN.
        return Err(PersistError::Corrupt("non-finite standardizer mean"));
    }
    if !stds.iter().all(|s| *s > 0.0 && s.is_finite()) {
        return Err(PersistError::Corrupt("non-positive standard deviation"));
    }
    Ok((ModelMeta { dataset, teacher, n_train }, Standardizer::from_parts(means, stds)))
}

fn read_calibration<R: Read>(r: &mut R) -> Result<ScoreCalibration, PersistError> {
    let cal_min = read_f64(r)?;
    let cal_range = read_f64(r)?;
    if !(cal_min.is_finite() && cal_range > 0.0 && cal_range.is_finite()) {
        return Err(PersistError::Corrupt("invalid calibration constants"));
    }
    Ok(ScoreCalibration::from_parts(cal_min, cal_range))
}

fn read_trailer<R: Read>(r: &mut R) -> Result<(), PersistError> {
    let mut trailer = [0u8; 4];
    r.read_exact(&mut trailer)?;
    if trailer != TRAILER {
        return Err(PersistError::Corrupt("missing trailer (truncated write?)"));
    }
    Ok(())
}

fn write_str<W: Write>(w: &mut W, s: &str) -> io::Result<()> {
    write_u64(w, s.len() as u64)?;
    w.write_all(s.as_bytes())
}

fn read_bool<R: Read>(r: &mut R) -> Result<bool, PersistError> {
    match read_u8(r)? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(PersistError::Corrupt("invalid boolean")),
    }
}

fn read_len<R: Read>(r: &mut R, cap: u64, what: &'static str) -> Result<usize, PersistError> {
    let v = read_u64(r)?;
    if v > cap {
        return Err(PersistError::Corrupt(what));
    }
    Ok(v as usize)
}

fn read_str<R: Read>(r: &mut R) -> Result<String, PersistError> {
    let len = read_len(r, MAX_STR, "string length")?;
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|_| PersistError::Corrupt("invalid UTF-8 string"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::tests::tiny_model;

    fn save_to_vec(m: &ServedModel) -> Vec<u8> {
        let mut buf = Vec::new();
        save(m, &mut buf).unwrap();
        buf
    }

    #[test]
    fn round_trip_preserves_everything() {
        let m = tiny_model(7);
        let bytes = save_to_vec(&m);
        let loaded = load(&bytes[..]).unwrap();
        assert_eq!(loaded.meta(), m.meta());
        assert_eq!(loaded.baseline(), m.baseline());
        assert_eq!(loaded.standardizer(), m.standardizer());
        assert_eq!(loaded.model().calibration(), m.model().calibration());
        assert_eq!(loaded.model().config().hidden, m.model().config().hidden);
        assert_eq!(loaded.model().ensemble().len(), m.model().ensemble().len());
        // Bit-identical parameters.
        for (a, b) in loaded.model().ensemble().iter().zip(m.model().ensemble()) {
            for (la, lb) in a.layers().iter().zip(b.layers()) {
                assert_eq!(la.weights().as_slice(), lb.weights().as_slice());
                assert_eq!(la.bias(), lb.bias());
            }
        }
    }

    #[test]
    fn multi_output_final_layer_is_rejected_on_load() {
        // A file whose member ends in a 2-wide layer would make
        // predict_vec interleave columns into nonsense scores; load()
        // must refuse it outright.
        let m = tiny_model(12);
        let wide = Mlp::new(&uadb_nn::MlpConfig {
            input_dim: m.input_dim(),
            hidden: vec![4],
            output_dim: 2,
            activation: Activation::Sigmoid,
            seed: 0,
        });
        let bad = ServedModel::new(
            UadbModel::from_parts(vec![wide], m.model().config().clone(), m.model().calibration()),
            m.standardizer().clone(),
            m.meta().clone(),
        );
        let mut bytes = Vec::new();
        save(&bad, &mut bytes).unwrap();
        assert!(matches!(
            load(&bytes[..]),
            Err(PersistError::Corrupt("final layer must have one output"))
        ));
    }

    #[test]
    fn save_refuses_non_finite_calibration() {
        let m = tiny_model(13);
        let poisoned = ServedModel::new(
            UadbModel::from_parts(
                m.model().ensemble().to_vec(),
                m.model().config().clone(),
                ScoreCalibration { min: f64::NEG_INFINITY, range: f64::INFINITY },
            ),
            m.standardizer().clone(),
            m.meta().clone(),
        );
        let mut sink = Vec::new();
        assert!(matches!(
            save(&poisoned, &mut sink),
            Err(PersistError::InvalidModel("non-finite calibration constants"))
        ));
        // Nothing was written: a failed save must not leave a partial file.
        assert!(sink.is_empty());
    }

    #[test]
    fn poisoned_training_scores_still_round_trip() {
        // An inf-contaminated training run fits *finite* calibration
        // constants (ScoreCalibration::fit filters non-finite scores), so
        // the resulting model saves and loads cleanly.
        let m = tiny_model(14);
        let cal = ScoreCalibration::fit(&[0.1, f64::INFINITY, 0.9, f64::NAN, f64::NEG_INFINITY]);
        assert!(cal.is_valid());
        let served = ServedModel::new(
            UadbModel::from_parts(m.model().ensemble().to_vec(), m.model().config().clone(), cal),
            m.standardizer().clone(),
            m.meta().clone(),
        );
        let bytes = save_to_vec(&served);
        let loaded = load(&bytes[..]).unwrap();
        assert_eq!(loaded.model().calibration(), cal);
        let probe = Matrix::zeros(3, served.input_dim());
        assert_eq!(loaded.score_rows(&probe).unwrap(), served.score_rows(&probe).unwrap());
    }

    #[test]
    fn on_disk_non_finite_calibration_is_an_error_not_a_panic() {
        // A file corrupted (or written by a pre-validation build) with
        // inf calibration constants must surface as Corrupt from load();
        // historically this path could reach from_parts' assertion.
        let m = tiny_model(15);
        let mut bytes = save_to_vec(&m);
        let cal_offset = 4 + 4 + 1 // magic + version + record type
            + 8 + m.meta().dataset.len() + 8 + m.meta().teacher.len() + 8 // meta
            + 8 + 16 * m.input_dim(); // scaler: d + means + stds
        bytes[cal_offset..cal_offset + 8].copy_from_slice(&f64::INFINITY.to_bits().to_le_bytes());
        assert!(matches!(
            load(&bytes[..]),
            Err(PersistError::Corrupt("invalid calibration constants"))
        ));
        // Likewise a NaN standardizer mean (which would otherwise load
        // fine and silently serve NaN scores).
        let mut bytes = save_to_vec(&m);
        let mean_offset = cal_offset - 16 * m.input_dim();
        bytes[mean_offset..mean_offset + 8].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert!(matches!(
            load(&bytes[..]),
            Err(PersistError::Corrupt("non-finite standardizer mean"))
        ));
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let m = tiny_model(8);
        let mut bytes = save_to_vec(&m);
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        assert!(matches!(load(&wrong[..]), Err(PersistError::BadMagic)));
        // Future version.
        bytes[4] = 99;
        assert!(matches!(load(&bytes[..]), Err(PersistError::UnsupportedVersion(99))));
    }

    #[test]
    fn truncation_is_detected() {
        let m = tiny_model(9);
        let bytes = save_to_vec(&m);
        // Cutting anywhere strictly inside the payload must error, never
        // panic or return a half-model. (Step by a prime to keep the
        // test fast while covering every region of the layout.)
        for cut in (4..bytes.len() - 1).step_by(97) {
            assert!(load(&bytes[..cut]).is_err(), "cut at {cut} accepted");
        }
        // Missing trailer only.
        assert!(matches!(
            load(&bytes[..bytes.len() - 4]),
            Err(PersistError::Io(_)) | Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn absurd_lengths_are_corruption_not_allocation() {
        let m = tiny_model(10);
        let mut bytes = save_to_vec(&m);
        // The dataset-name length sits right after magic+version+record.
        bytes[9..17].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(load(&bytes[..]), Err(PersistError::Corrupt("string length"))));
    }

    #[test]
    fn error_display_is_informative() {
        assert!(PersistError::BadMagic.to_string().contains("magic"));
        assert!(PersistError::UnsupportedVersion(3).to_string().contains('3'));
        assert!(PersistError::Corrupt("x").to_string().contains('x'));
        let wrong = PersistError::WrongRecord { expected: "booster", found: "teacher" };
        assert!(wrong.to_string().contains("booster") && wrong.to_string().contains("teacher"));
    }

    /// Strips the version-3 baseline section (presence byte + optional
    /// payload, sitting just before the trailer) from a saved file —
    /// used to synthesise the older layouts, which end at the ensemble.
    fn strip_baseline_section(v3: &[u8]) -> Vec<u8> {
        let body_end = v3.len() - TRAILER.len();
        // present: u8 + n_buckets u64 + counts + threshold +
        // anomaly_rate + n.
        let section = 1 + 8 + 8 * uadb_telemetry::SCORE_BUCKETS + 8 + 8 + 8;
        let start = body_end - section;
        assert_eq!(v3[start], 1, "helper expects a baseline-bearing file");
        let mut out = v3[..start].to_vec();
        out.extend_from_slice(&TRAILER);
        out
    }

    #[test]
    fn legacy_v1_booster_files_still_load() {
        let m = tiny_model(16);
        let v3 = save_to_vec(&m);
        // Synthesise the version-1 layout: version field patched to 1,
        // no record byte, and no baseline section (both postdate v1).
        let stripped = strip_baseline_section(&v3);
        let mut v1 = Vec::new();
        v1.extend_from_slice(&stripped[..4]);
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&stripped[9..]);
        let loaded = load(&v1[..]).unwrap();
        assert_eq!(loaded.meta(), m.meta());
        assert!(loaded.baseline().is_none(), "v1 files carry no baseline");
        let probe = Matrix::zeros(3, m.input_dim());
        assert_eq!(loaded.score_rows(&probe).unwrap(), m.score_rows(&probe).unwrap());
        // Re-saving a legacy file upgrades it to the current version —
        // byte-for-byte the v3 layout with an absent-baseline marker in
        // place of the baseline it never had.
        let mut resaved = Vec::new();
        save(&loaded, &mut resaved).unwrap();
        let mut expected = stripped[..stripped.len() - TRAILER.len()].to_vec();
        expected.push(0); // baseline absent
        expected.extend_from_slice(&TRAILER);
        assert_eq!(resaved, expected);
        assert_eq!(u32::from_le_bytes(resaved[4..8].try_into().unwrap()), FORMAT_VERSION);
    }

    #[test]
    fn v2_files_load_without_baseline_and_resave_upgrades() {
        let m = tiny_model(18);
        assert!(m.baseline().is_some());
        let v3 = save_to_vec(&m);
        // Synthesise the version-2 layout: record byte present, no
        // baseline section, version field 2.
        let mut v2 = strip_baseline_section(&v3);
        v2[4..8].copy_from_slice(&2u32.to_le_bytes());
        let loaded = load(&v2[..]).unwrap();
        assert!(loaded.baseline().is_none(), "v2 files carry no baseline");
        let probe = Matrix::zeros(3, m.input_dim());
        assert_eq!(loaded.score_rows(&probe).unwrap(), m.score_rows(&probe).unwrap());
        // Re-save upgrades the container version; the model still has
        // no baseline (one can only be captured at training time).
        let mut resaved = Vec::new();
        save(&loaded, &mut resaved).unwrap();
        assert_eq!(u32::from_le_bytes(resaved[4..8].try_into().unwrap()), FORMAT_VERSION);
        assert!(load(&resaved[..]).unwrap().baseline().is_none());
    }

    #[test]
    fn v3_round_trips_baseline_bit_identically() {
        let m = tiny_model(19);
        let bytes = save_to_vec(&m);
        let loaded = load(&bytes[..]).unwrap();
        assert_eq!(loaded.baseline(), m.baseline());
        assert!(loaded.baseline().is_some());
        // save → load → save is byte-identical.
        let mut again = Vec::new();
        save(&loaded, &mut again).unwrap();
        assert_eq!(again, bytes);
    }

    #[test]
    fn corrupt_baseline_sections_are_rejected() {
        let m = tiny_model(20);
        let bytes = save_to_vec(&m);
        let presence_at =
            bytes.len() - TRAILER.len() - (1 + 8 + 8 * uadb_telemetry::SCORE_BUCKETS + 8 + 8 + 8);
        assert_eq!(bytes[presence_at], 1);
        // Absurd bucket count: corruption, not an allocation request.
        let mut absurd = bytes.clone();
        absurd[presence_at + 1..presence_at + 9].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(load(&absurd[..]), Err(PersistError::Corrupt("baseline bucket count"))));
        // Invalid presence byte.
        let mut badflag = bytes.clone();
        badflag[presence_at] = 7;
        assert!(matches!(
            load(&badflag[..]),
            Err(PersistError::Corrupt("invalid baseline presence byte"))
        ));
        // A doctored anomaly rate outside [0, 1] is refused.
        let rate_at = bytes.len() - TRAILER.len() - 16;
        let mut badrate = bytes.clone();
        badrate[rate_at..rate_at + 8].copy_from_slice(&2.5f64.to_bits().to_le_bytes());
        assert!(matches!(
            load(&badrate[..]),
            Err(PersistError::Corrupt("baseline rates out of range"))
        ));
        // And save refuses an in-memory baseline that would be rejected
        // on load (mirror-validation contract).
        let mut poisoned = m.clone();
        let mut b = poisoned.baseline().unwrap().clone();
        b.n += 1;
        poisoned.set_baseline(Some(b));
        let mut sink = Vec::new();
        assert!(matches!(
            save(&poisoned, &mut sink),
            Err(PersistError::InvalidModel("baseline counts disagree with sample total"))
        ));
        assert!(sink.is_empty());
    }

    #[test]
    fn unknown_record_type_is_corrupt_and_version_zero_rejected() {
        let m = tiny_model(17);
        let mut bytes = save_to_vec(&m);
        bytes[8] = 99; // record byte
        assert!(matches!(load(&bytes[..]), Err(PersistError::Corrupt("unknown record type"))));
        let mut zeroed = save_to_vec(&m);
        zeroed[4..8].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(load(&zeroed[..]), Err(PersistError::UnsupportedVersion(0))));
    }
}
