//! Named model registry: N servable boosters behind one server.
//!
//! ADBench's core finding — and UADB's premise — is that no single
//! detector wins everywhere, so a production deployment holds one
//! trained booster per dataset/teacher pair. [`ModelRegistry`] maps
//! URL-safe names to [`ServedModel`]s and scores all of them on one
//! process-wide set of worker threads, sized once by the registry's
//! [`PoolConfig`]: the thread count does not grow with the number of
//! models. Each entry is a [`ScoringPool`] handle binding its model to
//! that set.
//!
//! **Hot reload** swaps a registry entry for a freshly loaded model
//! file atomically, without dropping in-flight requests: they hold an
//! `Arc` to the handle they started on and finish against the old
//! weights, which are freed when the last of them completes. A swap
//! spawns and joins no thread.
//!
//! Lock discipline: the registry's `RwLock` is held only to clone or
//! swap an `Arc` — never across model loading or scoring — so a reload
//! cannot stall concurrent requests, and concurrent requests cannot
//! stall a reload.

use crate::model::ServedModel;
use crate::persist::{self, PersistError};
use crate::pool::{PoolConfig, ScoringPool, WorkerSet};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use uadb_telemetry::{log::logger, Level};

/// Longest accepted model name; names route in URLs, so they stay short.
pub const MAX_NAME_LEN: usize = 64;

struct Entry {
    pool: Arc<ScoringPool>,
    /// Where the model was loaded from, when it came from a file;
    /// reload without an explicit path re-reads this.
    source: Option<PathBuf>,
    /// Where the model's teacher snapshot was loaded from, if the entry
    /// serves one; reload re-reads this alongside `source`.
    teacher_source: Option<PathBuf>,
}

/// A concurrent name → scoring-pool map with a designated default.
pub struct ModelRegistry {
    /// The scoring threads every entry's pool runs on.
    workers: Arc<WorkerSet>,
    entries: RwLock<BTreeMap<String, Entry>>,
    default_name: RwLock<Option<String>>,
    /// Per-model score-request counters, kept *outside* the entries so
    /// a hot reload or teacher attach/detach (which swaps the entry)
    /// never resets a model's count.
    counters: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
}

/// Errors from registry operations.
#[derive(Debug)]
pub enum RegistryError {
    /// The name is empty, too long, or contains non-URL-safe characters.
    InvalidName(String),
    /// No model is registered under this name.
    UnknownModel(String),
    /// Reload was requested for a model that was not loaded from a file
    /// and no replacement path was given.
    NoSourcePath(String),
    /// Teacher detach was requested for a model that has no teacher
    /// snapshot attached.
    NoTeacher(String),
    /// The entry was replaced (reload, re-insert) while a teacher
    /// attach/detach was preparing its swap; the operation was
    /// abandoned rather than re-publishing stale weights. Retry.
    ConcurrentSwap(String),
    /// Loading the model file failed.
    Load(PersistError),
    /// The teacher snapshot's feature width differs from its booster's;
    /// serving the pair would fail every `?variant=teacher` request.
    TeacherMismatch {
        /// The booster's feature width.
        expected: usize,
        /// The teacher snapshot's feature width.
        got: usize,
    },
    /// The teacher snapshot holds a different detector kind than the
    /// booster was distilled from; pairing them would serve a
    /// meaningless A/B comparison.
    TeacherKindMismatch {
        /// The detector kind the booster's metadata names.
        expected: String,
        /// The snapshot's actual detector kind.
        got: String,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::InvalidName(name) => write!(
                f,
                "invalid model name `{name}` (want 1-{MAX_NAME_LEN} chars of [A-Za-z0-9._-])"
            ),
            RegistryError::UnknownModel(name) => write!(f, "no model named `{name}`"),
            RegistryError::NoSourcePath(name) => {
                write!(f, "model `{name}` has no source file to reload from")
            }
            RegistryError::NoTeacher(name) => {
                write!(f, "model `{name}` has no teacher snapshot attached")
            }
            RegistryError::ConcurrentSwap(name) => {
                write!(f, "model `{name}` was replaced concurrently; retry the operation")
            }
            RegistryError::Load(e) => write!(f, "loading model file: {e}"),
            RegistryError::TeacherMismatch { expected, got } => {
                write!(f, "teacher snapshot has {got} features, its booster expects {expected}")
            }
            RegistryError::TeacherKindMismatch { expected, got } => {
                write!(f, "teacher snapshot is a {got}, the booster was distilled from {expected}")
            }
        }
    }
}

impl std::error::Error for RegistryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RegistryError::Load(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PersistError> for RegistryError {
    fn from(e: PersistError) -> Self {
        RegistryError::Load(e)
    }
}

/// Loads a booster file and, when given, attaches its teacher snapshot.
/// The pair must actually belong together: the snapshot's detector kind
/// must be the one the booster's metadata says it was distilled from,
/// and the feature widths must agree — a teacher from an unrelated
/// model would otherwise serve a silently meaningless A/B.
fn load_pair(path: &Path, teacher: Option<&Path>) -> Result<ServedModel, RegistryError> {
    let mut model = persist::load_file(path)?;
    if let Some(tp) = teacher {
        attach_validated(&mut model, tp)?;
    }
    Ok(model)
}

/// Loads a teacher snapshot file and attaches it to `model` after the
/// shared validation: the snapshot's detector kind must be the one the
/// booster's metadata says it was distilled from, and the feature
/// widths must agree. Used by startup loading, hot reload, and the
/// runtime `POST /admin/teacher/{name}` attach alike.
fn attach_validated(model: &mut ServedModel, teacher_path: &Path) -> Result<(), RegistryError> {
    let t = persist::load_teacher_file(teacher_path)?;
    if t.kind().name() != model.meta().teacher {
        return Err(RegistryError::TeacherKindMismatch {
            expected: model.meta().teacher.clone(),
            got: t.kind().name().to_string(),
        });
    }
    let (expected, got) = (model.input_dim(), t.input_dim());
    model.attach_teacher(Arc::new(t)).map_err(|_| RegistryError::TeacherMismatch { expected, got })
}

/// Starts a fresh drift window for `name` from the model about to serve
/// under it. Every entry mutation — insert, hot reload, teacher
/// attach/detach — funnels through this, so streaming drift sketches
/// never survive a model swap: the live window always describes traffic
/// scored by the *current* weights against *their* training baseline.
fn install_drift(name: &str, model: &ServedModel) {
    let s = model.standardizer();
    crate::telemetry::metrics().install_drift(name, s.means(), s.stds(), model.baseline());
}

/// Whether `name` can route in a URL path segment: non-empty, at most
/// [`MAX_NAME_LEN`] bytes, only ASCII alphanumerics and `.`/`_`/`-`.
pub fn is_valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= MAX_NAME_LEN
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
}

impl ModelRegistry {
    /// An empty registry, with the worker set every model it serves
    /// will score on. The first inserted model becomes the default
    /// unless [`ModelRegistry::set_default`] chooses otherwise.
    pub fn new(pool_cfg: PoolConfig) -> Self {
        Self {
            workers: WorkerSet::spawn(&pool_cfg),
            entries: RwLock::new(BTreeMap::new()),
            default_name: RwLock::new(None),
            counters: RwLock::new(BTreeMap::new()),
        }
    }

    fn read_entries(&self) -> RwLockReadGuard<'_, BTreeMap<String, Entry>> {
        // Lock poisoning would mean a panic while *swapping an Arc*,
        // which cannot leave the map inconsistent; serving on is safe.
        self.entries.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write_entries(&self) -> RwLockWriteGuard<'_, BTreeMap<String, Entry>> {
        self.entries.write().unwrap_or_else(|e| e.into_inner())
    }

    /// `model` bound to the registry's worker set.
    fn pool(&self, model: Arc<ServedModel>) -> Arc<ScoringPool> {
        Arc::new(ScoringPool::with_workers(model, Arc::clone(&self.workers)))
    }

    /// Registers (or replaces) a model under `name`. In-memory models
    /// have no source path and cannot be reloaded without one.
    pub fn insert(&self, name: &str, model: Arc<ServedModel>) -> Result<(), RegistryError> {
        self.insert_entry(name, model, None, None)
    }

    /// Loads a model file and registers it under `name`, remembering the
    /// path so the entry can be hot-reloaded later.
    pub fn insert_from_file(
        &self,
        name: &str,
        path: impl AsRef<Path>,
    ) -> Result<(), RegistryError> {
        self.insert_from_files(name, path, None::<&Path>)
    }

    /// Loads a booster file — and, when given, its frozen teacher
    /// snapshot — and registers the pair under `name`, remembering both
    /// paths for hot reload. A teacher whose feature width differs from
    /// the booster's is rejected with [`RegistryError::TeacherMismatch`]
    /// at load time, before the pair can serve a request.
    pub fn insert_from_files(
        &self,
        name: &str,
        path: impl AsRef<Path>,
        teacher_path: Option<impl AsRef<Path>>,
    ) -> Result<(), RegistryError> {
        let path = path.as_ref();
        let teacher_path = teacher_path.map(|p| p.as_ref().to_path_buf());
        let model = Arc::new(load_pair(path, teacher_path.as_deref())?);
        self.insert_entry(name, model, Some(path.to_path_buf()), teacher_path)
    }

    fn insert_entry(
        &self,
        name: &str,
        model: Arc<ServedModel>,
        source: Option<PathBuf>,
        teacher_source: Option<PathBuf>,
    ) -> Result<(), RegistryError> {
        if !is_valid_name(name) {
            return Err(RegistryError::InvalidName(name.to_string()));
        }
        let teacher = if model.teacher().is_some() { "yes" } else { "no" };
        logger().log(
            Level::Info,
            "registry",
            "model registered",
            &[("model", name), ("teacher", teacher)],
        );
        install_drift(name, &model);
        let pool = self.pool(model);
        self.write_entries().insert(name.to_string(), Entry { pool, source, teacher_source });
        self.counters
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .entry(name.to_string())
            .or_default();
        let mut default = self.default_name.write().unwrap_or_else(|e| e.into_inner());
        if default.is_none() {
            *default = Some(name.to_string());
        }
        Ok(())
    }

    /// Attaches (or replaces) a frozen teacher snapshot on a live
    /// entry, loaded from `path`, with the same kind/width validation
    /// as startup. Like [`ModelRegistry::reload`], the replacement model
    /// is fully built before the swap: requests in flight keep their
    /// old pool, a failed load leaves the entry untouched, and the new
    /// teacher path is remembered so a later reload re-reads it.
    /// Unlike a reload, the swapped-in bundle is *derived from* the
    /// snapshotted entry, so the swap is conditional: if a concurrent
    /// reload replaced the entry in between, the attach aborts with
    /// [`RegistryError::ConcurrentSwap`] instead of silently
    /// re-publishing the pre-reload weights.
    pub fn attach_teacher(&self, name: &str, path: &Path) -> Result<(), RegistryError> {
        let (seen_pool, source) = self.entry_snapshot(name)?;
        // Clone the bundle outside every lock: the original keeps
        // serving until the swap below.
        let mut new_model = (*Arc::clone(seen_pool.model())).clone();
        attach_validated(&mut new_model, path)?;
        self.swap_entry(name, &seen_pool, Arc::new(new_model), source, Some(path.to_path_buf()))
    }

    /// Detaches the teacher snapshot from a live entry; afterwards
    /// `?variant=teacher|both` requests 404 again. In-flight requests
    /// finish against the old pool (which still holds the teacher).
    /// Conditional on the entry not having been replaced concurrently,
    /// like [`ModelRegistry::attach_teacher`].
    pub fn detach_teacher(&self, name: &str) -> Result<(), RegistryError> {
        let (seen_pool, source) = self.entry_snapshot(name)?;
        if seen_pool.model().teacher().is_none() {
            return Err(RegistryError::NoTeacher(name.to_string()));
        }
        let mut new_model = (*Arc::clone(seen_pool.model())).clone();
        new_model.detach_teacher();
        self.swap_entry(name, &seen_pool, Arc::new(new_model), source, None)
    }

    /// `(pool, source path)` of a live entry; the pool `Arc` doubles as
    /// the identity witness for the conditional swap.
    fn entry_snapshot(
        &self,
        name: &str,
    ) -> Result<(Arc<ScoringPool>, Option<PathBuf>), RegistryError> {
        let entries = self.read_entries();
        let entry =
            entries.get(name).ok_or_else(|| RegistryError::UnknownModel(name.to_string()))?;
        Ok((Arc::clone(&entry.pool), entry.source.clone()))
    }

    /// Swaps `model` in — but only if the entry still holds
    /// `seen_pool`. The swapped bundle was derived from that pool's
    /// model, so if anything replaced the entry in the meantime
    /// (reload, re-insert), applying the swap would resurrect stale
    /// weights; abort instead.
    fn swap_entry(
        &self,
        name: &str,
        seen_pool: &Arc<ScoringPool>,
        model: Arc<ServedModel>,
        source: Option<PathBuf>,
        teacher_source: Option<PathBuf>,
    ) -> Result<(), RegistryError> {
        let drift_model = Arc::clone(&model);
        let pool = self.pool(model);
        let attached = teacher_source.is_some();
        let mut entries = self.write_entries();
        match entries.get_mut(name) {
            Some(entry) if Arc::ptr_eq(&entry.pool, seen_pool) => {
                *entry = Entry { pool, source, teacher_source };
                drop(entries);
                // Only after the swap actually lands: an aborted swap
                // must not reset the serving model's drift window.
                install_drift(name, &drift_model);
                let action = if attached { "teacher attached" } else { "teacher detached" };
                logger().log(Level::Info, "registry", action, &[("model", name)]);
                Ok(())
            }
            _ => Err(RegistryError::ConcurrentSwap(name.to_string())),
        }
    }

    /// Bumps the score-request counter for `name` (the HTTP router
    /// calls this per scoring request).
    pub fn count_request(&self, name: &str) {
        // Names are counted even before/after their entry exists only
        // if a counter was created by insert; unknown names are a 404
        // upstream and never reach here.
        if let Some(counter) = self.counters.read().unwrap_or_else(|e| e.into_inner()).get(name) {
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Per-model score-request counts since startup (survives hot
    /// reloads and teacher attach/detach), sorted by name.
    pub fn request_counts(&self) -> Vec<(String, u64)> {
        self.counters
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(name, counter)| (name.clone(), counter.load(Ordering::Relaxed)))
            .collect()
    }

    /// Atomically replaces `name`'s model with one freshly loaded from
    /// `path` (or, when `path` is `None`, from the entry's remembered
    /// source file). The new model is loaded before the swap and the
    /// old pool's `Arc` is only released, so requests scoring against
    /// the old model finish undisturbed, the swap never waits for them,
    /// and a failed load leaves the entry untouched.
    pub fn reload(&self, name: &str, path: Option<&Path>) -> Result<(), RegistryError> {
        let (resolved, teacher_source) = {
            let entries = self.read_entries();
            let entry =
                entries.get(name).ok_or_else(|| RegistryError::UnknownModel(name.to_string()))?;
            let resolved = match path {
                Some(p) => p.to_path_buf(),
                None => entry
                    .source
                    .clone()
                    .ok_or_else(|| RegistryError::NoSourcePath(name.to_string()))?,
            };
            (resolved, entry.teacher_source.clone())
        };
        // Load the replacement outside any lock; a teacher snapshot,
        // when the entry serves one, is re-read alongside.
        let model = Arc::new(load_pair(&resolved, teacher_source.as_deref())?);
        let drift_model = Arc::clone(&model);
        let entry = Entry { pool: self.pool(model), source: Some(resolved), teacher_source };
        // The entry may have been replaced concurrently; last write wins,
        // exactly as two concurrent reloads would. The old entry drops
        // after the lock is released.
        let old = self.write_entries().insert(name.to_string(), entry);
        drop(old);
        install_drift(name, &drift_model);
        logger().log(Level::Info, "registry", "model reloaded", &[("model", name)]);
        Ok(())
    }

    /// Marks an existing model as the one bare `/score` routes to.
    pub fn set_default(&self, name: &str) -> Result<(), RegistryError> {
        if !self.read_entries().contains_key(name) {
            return Err(RegistryError::UnknownModel(name.to_string()));
        }
        *self.default_name.write().unwrap_or_else(|e| e.into_inner()) = Some(name.to_string());
        Ok(())
    }

    /// Name of the default model, if any model is registered.
    pub fn default_name(&self) -> Option<String> {
        self.default_name.read().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// The scoring pool registered under `name`. The returned `Arc` pins
    /// the pool (and its model) for the caller's lifetime even if the
    /// entry is hot-swapped mid-request.
    pub fn get(&self, name: &str) -> Option<Arc<ScoringPool>> {
        self.read_entries().get(name).map(|e| Arc::clone(&e.pool))
    }

    /// The default model's scoring pool.
    pub fn default_pool(&self) -> Option<Arc<ScoringPool>> {
        let name = self.default_name()?;
        self.get(&name)
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.read_entries().keys().cloned().collect()
    }

    /// The source file `name` was loaded from, if it came from disk.
    pub fn source(&self, name: &str) -> Option<PathBuf> {
        self.read_entries().get(name).and_then(|e| e.source.clone())
    }

    /// The teacher-snapshot file `name`'s teacher was loaded from, if
    /// the entry serves one.
    pub fn teacher_source(&self, name: &str) -> Option<PathBuf> {
        self.read_entries().get(name).and_then(|e| e.teacher_source.clone())
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.read_entries().len()
    }

    /// Whether no models are registered.
    pub fn is_empty(&self) -> bool {
        self.read_entries().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::tests::tiny_model;
    use crate::model::Variant;
    use std::sync::mpsc::channel;
    use std::thread::ThreadId;
    use std::time::Duration;
    use uadb_data::synth::{fig5_dataset, generate, AnomalyType, SynthConfig};
    use uadb_linalg::Matrix;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("uadb_registry_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Scores `rows` through `pool` and reports which thread ran the
    /// completion, with the scores.
    fn scored_on(pool: &ScoringPool, rows: &Matrix, variant: Variant) -> (ThreadId, Vec<f64>) {
        let (tx, rx) = channel();
        pool.submit(
            &Arc::new(rows.clone()),
            variant,
            Box::new(move |scores, _| {
                let _ = tx.send((std::thread::current().id(), scores));
            }),
        );
        let (thread, scores) = rx.recv().unwrap();
        (thread, scores.unwrap())
    }

    fn assert_bits(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (a, b)) in got.iter().zip(want).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what} row {i}");
        }
    }

    #[test]
    fn name_validation() {
        for good in ["a", "iforest-39_thyroid", "v2.1", "A-Z_0.9"] {
            assert!(is_valid_name(good), "{good} should be valid");
        }
        let long = "x".repeat(MAX_NAME_LEN + 1);
        for bad in ["", "a/b", "a b", "ü", "..%2f", long.as_str()] {
            assert!(!is_valid_name(bad), "{bad:?} should be invalid");
        }
    }

    #[test]
    fn first_insert_becomes_default_and_routing_works() {
        let reg = ModelRegistry::new(PoolConfig::default());
        assert!(reg.is_empty());
        assert!(reg.default_pool().is_none());
        reg.insert("alpha", Arc::new(tiny_model(31))).unwrap();
        reg.insert("beta", Arc::new(tiny_model(32))).unwrap();
        assert_eq!(reg.default_name().as_deref(), Some("alpha"));
        assert_eq!(reg.names(), vec!["alpha".to_string(), "beta".to_string()]);
        assert_eq!(reg.len(), 2);
        assert!(reg.get("beta").is_some());
        assert!(reg.get("gamma").is_none());
        reg.set_default("beta").unwrap();
        assert_eq!(reg.default_name().as_deref(), Some("beta"));
        assert!(matches!(reg.set_default("gamma"), Err(RegistryError::UnknownModel(_))));
        assert!(matches!(
            reg.insert("bad/name", Arc::new(tiny_model(33))),
            Err(RegistryError::InvalidName(_))
        ));
    }

    #[test]
    fn reload_swaps_without_invalidating_held_pools() {
        let dir = temp_dir("reload");
        let path = dir.join("m.uadb");
        let first = tiny_model(34);
        crate::persist::save_file(&first, &path).unwrap();

        let reg = ModelRegistry::new(PoolConfig { workers: 1, shard_rows: 64 });
        reg.insert_from_file("m", &path).unwrap();
        let held = reg.get("m").unwrap();
        let first_cal = first.model().calibration();

        // Overwrite the file with a different model and hot-reload.
        let second = tiny_model(35);
        let second_cal = second.model().calibration();
        assert_ne!(first_cal, second_cal, "seeds must produce distinguishable models");
        crate::persist::save_file(&second, &path).unwrap();
        reg.reload("m", None).unwrap();

        // The held Arc still scores against the *old* weights…
        assert_eq!(held.model().model().calibration(), first_cal);
        // …while new lookups see the new model.
        let fresh = reg.get("m").unwrap();
        assert_eq!(fresh.model().model().calibration(), second_cal);
        assert!(!Arc::ptr_eq(&held, &fresh));

        // Reload failure leaves the entry untouched.
        std::fs::write(&path, b"garbage").unwrap();
        assert!(matches!(reg.reload("m", None), Err(RegistryError::Load(_))));
        assert!(Arc::ptr_eq(&reg.get("m").unwrap(), &fresh));

        assert!(matches!(reg.reload("nope", None), Err(RegistryError::UnknownModel(_))));
        let mem = ModelRegistry::new(PoolConfig::default());
        mem.insert("ram", Arc::new(tiny_model(36))).unwrap();
        assert!(matches!(mem.reload("ram", None), Err(RegistryError::NoSourcePath(_))));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reload_does_not_wait_for_in_flight_scoring() {
        let dir = temp_dir("inflight");
        let path = dir.join("m.uadb");
        crate::persist::save_file(&tiny_model(37), &path).unwrap();
        let reg = Arc::new(ModelRegistry::new(PoolConfig { workers: 1, shard_rows: 64 }));
        reg.insert_from_file("m", &path).unwrap();
        let pool = reg.get("m").unwrap();
        let batch = Arc::new(fig5_dataset(AnomalyType::Clustered, 37).x);
        let expected = pool.model().score_rows(&batch).unwrap();

        // Hold the only worker inside a completion until released, and
        // queue a second batch behind it.
        let (held_tx, held_rx) = channel();
        let (release_tx, release_rx) = channel::<()>();
        let (first_tx, first_rx) = channel();
        pool.submit(
            &batch,
            Variant::Booster,
            Box::new(move |scores, _| {
                held_tx.send(()).unwrap();
                let _ = release_rx.recv();
                let _ = first_tx.send(scores);
            }),
        );
        held_rx.recv().unwrap();
        let (second_tx, second_rx) = channel();
        pool.submit(
            &batch,
            Variant::Booster,
            Box::new(move |scores, _| {
                let _ = second_tx.send(scores);
            }),
        );
        // Like the reactor after a submit, drop the handle: the
        // registry's entry is now the last one, and the reload drops it.
        drop(pool);
        let (reloaded_tx, reloaded_rx) = channel();
        let helper = {
            let reg = Arc::clone(&reg);
            std::thread::spawn(move || {
                let _ = reloaded_tx.send(reg.reload("m", None).is_ok());
            })
        };
        let reloaded = reloaded_rx.recv_timeout(Duration::from_secs(10));
        release_tx.send(()).unwrap();
        assert_eq!(reloaded, Ok(true), "reload waited for in-flight scoring");
        helper.join().unwrap();
        assert_bits(&first_rx.recv().unwrap().unwrap(), &expected, "held batch");
        assert_bits(&second_rx.recv().unwrap().unwrap(), &expected, "queued batch");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn models_share_one_worker_set_across_swaps() {
        use uadb::UadbConfig;
        use uadb_detectors::DetectorKind;

        // Two models of different input widths; `narrow` also gets a
        // teacher snapshot file to attach later.
        let dir = temp_dir("shared");
        let narrow_data = fig5_dataset(AnomalyType::Clustered, 38);
        let (narrow, teacher) = ServedModel::train_with_teacher(
            &narrow_data,
            DetectorKind::Hbos,
            UadbConfig::fast_for_tests(38),
        )
        .unwrap();
        let wide_cfg = SynthConfig {
            n_inliers: 90,
            n_anomalies: 10,
            dim: 5,
            seed: 39,
            ..SynthConfig::default()
        };
        let wide_data = generate("wide", "Test", &wide_cfg);
        let wide =
            ServedModel::train(&wide_data, DetectorKind::Hbos, UadbConfig::fast_for_tests(39))
                .unwrap();
        assert_ne!(narrow.input_dim(), wide.input_dim());
        let (narrow_path, wide_path, teacher_path) =
            (dir.join("narrow.uadb"), dir.join("wide.uadb"), dir.join("teacher.uadb"));
        crate::persist::save_file(&narrow, &narrow_path).unwrap();
        crate::persist::save_file(&wide, &wide_path).unwrap();
        crate::persist::save_teacher_file(&teacher, &teacher_path).unwrap();
        let narrow_expected = narrow.score_rows(&narrow_data.x).unwrap();
        let wide_expected = wide.score_rows(&wide_data.x).unwrap();

        let reg = ModelRegistry::new(PoolConfig { workers: 1, shard_rows: 64 });
        reg.insert_from_file("narrow", &narrow_path).unwrap();
        reg.insert_from_file("wide", &wide_path).unwrap();
        let mut threads = Vec::new();
        let mut score = |name: &str, rows: &Matrix, variant: Variant, want: &[f64], what: &str| {
            let pool = reg.get(name).unwrap();
            assert_eq!(pool.n_workers(), 1);
            let (thread, scores) = scored_on(&pool, rows, variant);
            assert_bits(&scores, want, what);
            threads.push(thread);
        };
        score("narrow", &narrow_data.x, Variant::Booster, &narrow_expected, "narrow");
        score("wide", &wide_data.x, Variant::Booster, &wide_expected, "wide");
        reg.reload("wide", None).unwrap();
        score("wide", &wide_data.x, Variant::Booster, &wide_expected, "wide after reload");
        score("narrow", &narrow_data.x, Variant::Booster, &narrow_expected, "narrow after reload");
        reg.attach_teacher("narrow", &teacher_path).unwrap();
        let teacher_expected = teacher.score_rows(&narrow_data.x).unwrap();
        score("narrow", &narrow_data.x, Variant::Teacher, &teacher_expected, "attached teacher");
        score("narrow", &narrow_data.x, Variant::Booster, &narrow_expected, "narrow after attach");
        score("wide", &wide_data.x, Variant::Booster, &wide_expected, "wide after attach");
        assert!(threads.iter().all(|t| *t == threads[0]), "completions ran on {threads:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
