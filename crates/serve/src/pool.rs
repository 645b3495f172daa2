//! Scoring workers that shard score batches across cores.
//!
//! The ensemble forward pass is embarrassingly parallel across rows:
//! every score depends only on its own row (standardisation, matmuls and
//! calibration are all per-row), so a batch can be cut into shards,
//! scored on any worker in any order, and reassembled by shard index
//! with **bit-identical** results to a serial pass — the property the
//! shard-independence test in `tests/server.rs` pins down.
//!
//! A `WorkerSet` is a fixed set of `std::thread`s pulling jobs from
//! one shared queue (work stealing via `Mutex<Receiver>`). A
//! [`ScoringPool`] binds one model to a worker set, and any number of
//! pools can share one set: every job reaches its model through its
//! batch state, and each worker's [`ScoreWorkspace`] regrows for
//! whatever shape it is handed. The registry runs every model it serves
//! on one process-wide set, so a model swap is an `Arc` store — no
//! thread is spawned or joined. [`ScoringPool::new`] still spawns a
//! private set, for in-process callers scoring one model.
//!
//! Completion is **callback-driven**: the last shard to finish invokes
//! the batch's completion callback on its worker thread. The blocking
//! [`ScoringPool::score_shared_variant`] wraps that in a channel wait;
//! the epoll reactor instead passes a callback that enqueues the result
//! and writes its wakeup pipe ([`ScoringPool::submit`]), so scoring
//! never blocks the event loop.
//!
//! Allocation discipline: a job *borrows* its row range from the
//! request batch (one shared `Arc<Matrix>`, no per-shard copy), each
//! worker owns a persistent [`ScoreWorkspace`] reused across jobs, and
//! every shard writes its scores into a disjoint range of one
//! preallocated output vector — on the **booster** variant, steady
//! state allocates nothing per request beyond the response buffer
//! itself. Teacher shards go through the frozen detector's own `score`
//! path, which allocates its staging buffers per shard (A/B traffic is
//! a comparison tool, not the production hot path).

use crate::model::{ScoreError, ScoreWorkspace, ServedModel, Variant};
use crate::telemetry;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use uadb_linalg::Matrix;
use uadb_telemetry::now_ns;

/// Completion callback a scoring submission fires exactly once, on
/// whichever worker thread finishes the batch's last shard (or inline,
/// for batches that never reach the queue). The [`ScoreTiming`] is the
/// batch's measured pool timings, so the HTTP layer can attribute the
/// wait to its request without any shared lookup.
pub type ScoreCallback = Box<dyn FnOnce(Result<Vec<f64>, ScoreError>, ScoreTiming) + Send>;

/// Where a batch's wall time in the pool went: sitting in the queue
/// (submission until a worker dequeued the first shard) versus being
/// scored (first dequeue until the last shard finished). Both zero for
/// batches that short-circuit without reaching the queue.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScoreTiming {
    pub queue_ns: u64,
    pub score_ns: u64,
}

/// Worker-set sizing.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Worker thread count (0 = one per available core).
    pub workers: usize,
    /// Maximum rows per shard; batches smaller than this stay on one
    /// worker, larger ones fan out.
    pub shard_rows: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self { workers: 0, shard_rows: 256 }
    }
}

impl PoolConfig {
    /// The worker count this configuration resolves to on this host:
    /// the explicit count, or one per available core. When core
    /// detection fails the fallback is 2 workers; spawning the workers
    /// logs that degradation instead of absorbing it silently.
    pub fn effective_workers(&self) -> usize {
        self.resolve_workers().0
    }

    /// `(worker count, detection failure)` — the second field is the
    /// error when `available_parallelism` failed and the count is the
    /// blind fallback rather than a measured value.
    fn resolve_workers(&self) -> (usize, Option<std::io::Error>) {
        if self.workers > 0 {
            return (self.workers, None);
        }
        match std::thread::available_parallelism() {
            Ok(n) => (n.get(), None),
            Err(e) => (2, Some(e)),
        }
    }
}

/// Shared per-batch state: what to score (model, variant, rows), the
/// preallocated output vector, the count of shards still in flight, the
/// deterministically chosen error (lowest shard low-row wins regardless
/// of completion order), and the one-shot completion callback.
struct BatchState {
    model: Arc<ServedModel>,
    /// Which side of the teacher/booster pair the batch scores with.
    /// Teacher shards are per-row too, so shard-independence holds for
    /// both variants.
    variant: Variant,
    rows: Arc<Matrix>,
    out: Mutex<Vec<f64>>,
    remaining: AtomicUsize,
    first_err: Mutex<Option<(usize, ScoreError)>>,
    done: Mutex<Option<ScoreCallback>>,
    /// When the batch hit the queue ([`now_ns`] at submission).
    submitted_ns: u64,
    /// When a worker dequeued the batch's first shard (0 = not yet).
    first_dequeue_ns: AtomicU64,
}

impl BatchState {
    /// Marks the moment a worker first picked up a shard of this batch
    /// — the end of the batch's queue wait. Relaxed CAS: only the first
    /// caller wins, later shards are already in the scoring phase.
    // audit: no_panic
    fn mark_dequeued(&self, t: u64) {
        let _ = self.first_dequeue_ns.compare_exchange(0, t, Ordering::Relaxed, Ordering::Relaxed);
    }

    /// Scores rows `lo..hi` into `out[lo..hi]` with `ws`.
    fn score_shard(&self, lo: usize, hi: usize, ws: &mut ScoreWorkspace) -> Result<(), ScoreError> {
        // A poisoned output lock means another shard's copy panicked;
        // the Job drop guard surfaces that, so keep the data path
        // moving.
        let write = |scores: &[f64]| {
            self.out.lock().unwrap_or_else(|e| e.into_inner())[lo..hi].copy_from_slice(scores);
        };
        match self.variant {
            Variant::Booster => write(self.model.score_range_into(&self.rows, lo, hi, ws)?),
            Variant::Teacher => match self.model.teacher() {
                Some(teacher) => write(&teacher.score_range(&self.rows, lo, hi)?),
                None => return Err(ScoreError::TeacherNotLoaded),
            },
        }
        Ok(())
    }

    /// Records one shard's outcome; the call that drops `remaining` to
    /// zero takes the callback and fires it outside every lock.
    /// Panic-free even under poison (`unwrap_or_else(into_inner)`): a
    /// completion that panicked would leak the caller's oneshot forever.
    // audit: no_panic
    fn record(&self, lo: usize, result: Result<(), ScoreError>) {
        if let Err(e) = result {
            let mut guard = self.first_err.lock().unwrap_or_else(|p| p.into_inner());
            if guard.as_ref().is_none_or(|(prev_lo, _)| lo < *prev_lo) {
                *guard = Some((lo, e));
            }
        }
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let done = self.done.lock().unwrap_or_else(|p| p.into_inner()).take();
            let err = self.first_err.lock().unwrap_or_else(|p| p.into_inner()).take();
            let outcome = match err {
                Some((_, e)) => Err(e),
                None => {
                    let mut out = self.out.lock().unwrap_or_else(|p| p.into_inner());
                    Ok(std::mem::take(&mut *out))
                }
            };
            if let Some(done) = done {
                done(outcome, self.timing());
            }
        }
    }

    fn timing(&self) -> ScoreTiming {
        let dequeued = self.first_dequeue_ns.load(Ordering::Relaxed);
        if dequeued == 0 {
            // Never reached a worker (e.g. queue torn down): everything
            // was queue wait.
            return ScoreTiming {
                queue_ns: now_ns().saturating_sub(self.submitted_ns),
                score_ns: 0,
            };
        }
        ScoreTiming {
            queue_ns: dequeued.saturating_sub(self.submitted_ns),
            score_ns: now_ns().saturating_sub(dequeued),
        }
    }
}

/// One shard of a scoring request: rows `lo..hi` of the batch, scored
/// into the batch state's `out[lo..hi]`.
///
/// The `Drop` guard makes shard accounting panic-proof: a job dropped
/// without reporting (worker panicked mid-score, or the queue was torn
/// down with jobs still buffered) counts itself as a
/// [`ScoreError::WorkerPanicked`] failure, so the batch completes with
/// an error instead of hanging its caller forever.
struct Job {
    lo: usize,
    hi: usize,
    state: Arc<BatchState>,
    reported: bool,
}

impl Job {
    // audit: no_panic
    fn finish(mut self, result: Result<(), ScoreError>) {
        self.reported = true;
        self.state.record(self.lo, result);
    }
}

impl Drop for Job {
    fn drop(&mut self) {
        // Every constructed shard leaves the queue-depth gauge exactly
        // once, however it dies (scored, torn down, or panicked).
        telemetry::metrics().pool_queue_depth.dec();
        if !self.reported {
            telemetry::metrics().worker_panics.inc();
            let range = format!("{}..{}", self.lo, self.hi);
            uadb_telemetry::log::logger().log(
                uadb_telemetry::Level::Error,
                "pool",
                "scoring shard lost to a worker panic",
                &[("rows", &range), ("variant", self.state.variant.name())],
            );
            self.state.record(self.lo, Err(ScoreError::WorkerPanicked));
        }
    }
}

/// A fixed set of scoring threads and their job queue, shared by every
/// [`ScoringPool`] bound to it. The threads live until the last pool
/// bound to the set is dropped.
pub(crate) struct WorkerSet {
    queue: Option<Sender<Job>>,
    threads: Vec<JoinHandle<()>>,
    shard_rows: usize,
}

impl WorkerSet {
    /// Spawns the workers.
    pub(crate) fn spawn(cfg: &PoolConfig) -> Arc<Self> {
        let (n_workers, detect_err) = cfg.resolve_workers();
        if let Some(e) = detect_err {
            let err = e.to_string();
            let n = n_workers.to_string();
            uadb_telemetry::log::logger().log(
                uadb_telemetry::Level::Warn,
                "pool",
                "available_parallelism failed; falling back — set PoolConfig.workers \
                 (CLI --workers) to size the pool explicitly",
                &[("error", &err), ("workers", &n)],
            );
        }
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let threads = (0..n_workers)
            .map(|i| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("uadb-score-{i}"))
                    .spawn(move || worker_loop(&rx))
                    .expect("spawn scoring worker")
            })
            .collect();
        Arc::new(Self { queue: Some(tx), threads, shard_rows: cfg.shard_rows.max(1) })
    }
}

impl Drop for WorkerSet {
    fn drop(&mut self) {
        // Closing the queue ends every worker's recv loop once the
        // queued jobs are drained.
        self.queue.take();
        // The last pool handle can be dropped on one of these workers
        // (a completion callback that held it). A thread cannot join
        // itself: that worker finishes its callback, drains the queue
        // and exits on its own.
        let me = std::thread::current().id();
        for handle in self.threads.drain(..) {
            if handle.thread().id() != me {
                let _ = handle.join();
            }
        }
    }
}

/// A model bound to a worker set: the handle everything scores through.
pub struct ScoringPool {
    model: Arc<ServedModel>,
    workers: Arc<WorkerSet>,
}

impl ScoringPool {
    /// Spawns a private worker set for `model`.
    pub fn new(model: Arc<ServedModel>, cfg: PoolConfig) -> Self {
        Self::with_workers(model, WorkerSet::spawn(&cfg))
    }

    /// Binds `model` to an existing worker set; spawns nothing.
    pub(crate) fn with_workers(model: Arc<ServedModel>, workers: Arc<WorkerSet>) -> Self {
        Self { model, workers }
    }

    /// Number of worker threads in the set this pool scores on.
    pub fn n_workers(&self) -> usize {
        self.workers.threads.len()
    }

    /// The model this pool scores with.
    pub fn model(&self) -> &Arc<ServedModel> {
        &self.model
    }

    /// Scores raw rows, sharded across the pool. Output order matches
    /// input order and is independent of worker count and scheduling.
    ///
    /// Convenience form of [`ScoringPool::score_shared`] for callers
    /// holding a plain reference; the batch is copied once into a
    /// shared allocation (the HTTP path hands over its parsed batch
    /// and copies nothing).
    pub fn score(&self, raw: &Matrix) -> Result<Vec<f64>, ScoreError> {
        self.score_shared(&Arc::new(raw.clone()))
    }

    /// Scores a shared batch, sharded across the pool by row range —
    /// workers borrow their rows from `raw` and write into disjoint
    /// ranges of one preallocated output vector, so nothing per-shard
    /// is copied or allocated. Output order matches input order and is
    /// independent of worker count and scheduling; on error, the error
    /// of the lowest-indexed failing shard is returned regardless of
    /// completion order. A worker dying mid-batch (a scoring panic,
    /// i.e. a server bug) reports [`ScoreError::WorkerPanicked`]
    /// instead of hanging.
    pub fn score_shared(&self, raw: &Arc<Matrix>) -> Result<Vec<f64>, ScoreError> {
        self.score_shared_variant(raw, Variant::Booster)
    }

    /// [`ScoringPool::score_shared`] with an explicit teacher/booster
    /// [`Variant`]. Teacher shards run on the same fixed worker set —
    /// the pool, not the connection handler, bounds CPU concurrency for
    /// both sides of an A/B. Returns
    /// [`ScoreError::TeacherNotLoaded`] when the teacher variant is
    /// requested on a booster-only model.
    ///
    /// Blocking wrapper over [`ScoringPool::submit`].
    pub fn score_shared_variant(
        &self,
        raw: &Arc<Matrix>,
        variant: Variant,
    ) -> Result<Vec<f64>, ScoreError> {
        let (tx, rx) = channel();
        self.submit(
            raw,
            variant,
            Box::new(move |result, _timing| {
                // A dropped receiver (caller bailed) is fine — discard.
                let _ = tx.send(result);
            }),
        );
        // The callback is guaranteed to fire (the Job drop guard covers
        // even a worker panic), so a recv error can only mean the
        // sender was dropped on a dead worker's stack mid-send.
        rx.recv().unwrap_or(Err(ScoreError::WorkerPanicked))
    }

    /// Non-blocking scoring submission: shards the shared batch onto
    /// the worker queue and returns immediately; `done` fires exactly
    /// once with the assembled result, on whichever worker thread
    /// completes the last shard (or inline on the calling thread for
    /// batches that short-circuit, e.g. zero rows or a missing
    /// teacher).
    ///
    /// This is the event-loop entry point: the epoll reactor passes a
    /// callback that pushes the finished response onto its completion
    /// queue and writes its wakeup pipe, so the reactor thread never
    /// blocks on scoring.
    pub fn submit(&self, raw: &Arc<Matrix>, variant: Variant, done: ScoreCallback) {
        if variant == Variant::Teacher && self.model.teacher().is_none() {
            return done(Err(ScoreError::TeacherNotLoaded), ScoreTiming::default());
        }
        let n = raw.rows();
        if n == 0 {
            // Preserve the model's validation semantics on empty input.
            return done(
                match variant {
                    Variant::Booster => self.model.score_rows(raw),
                    Variant::Teacher => {
                        self.model.teacher().expect("checked above").score_rows(raw)
                    }
                },
                ScoreTiming::default(),
            );
        }
        // Even a single-shard batch goes through the queue: the fixed
        // worker set is what bounds CPU concurrency, and scoring on the
        // calling thread would let N concurrent small requests run N
        // simultaneous forward passes.
        let shard_rows = self.workers.shard_rows;
        let n_shards = n.div_ceil(shard_rows);
        let queue = self.workers.queue.as_ref().expect("worker set not shut down");
        let state = Arc::new(BatchState {
            model: Arc::clone(&self.model),
            variant,
            rows: Arc::clone(raw),
            out: Mutex::new(vec![0.0; n]),
            remaining: AtomicUsize::new(n_shards),
            first_err: Mutex::new(None),
            done: Mutex::new(Some(done)),
            submitted_ns: now_ns(),
            first_dequeue_ns: AtomicU64::new(0),
        });
        // Balanced by the Job drop guard, which fires exactly once per
        // shard however the shard ends.
        telemetry::metrics().pool_queue_depth.add(n_shards as i64);
        for shard_idx in 0..n_shards {
            let lo = shard_idx * shard_rows;
            let hi = (lo + shard_rows).min(n);
            let job = Job { lo, hi, state: Arc::clone(&state), reported: false };
            // The receiver lives inside the worker threads; if every
            // worker has died (scoring panics — a server bug), the
            // channel is closed and the send returns the job, whose
            // drop guard records the shard as WorkerPanicked. The batch
            // then still completes with a typed error instead of
            // hanging its caller or panicking the submitting thread
            // (which may be the reactor's event loop).
            if let Err(returned) = queue.send(job) {
                drop(returned);
            }
        }
    }
}

fn worker_loop(rx: &Mutex<Receiver<Job>>) {
    // Lives as long as the worker: activation buffers, standardisation
    // buffer and staging scores are reused across every job, whichever
    // model it scores.
    let mut ws = ScoreWorkspace::default();
    loop {
        // Hold the queue lock only to pull one job; scoring runs
        // unlocked so workers overlap.
        let job = match rx.lock() {
            Ok(guard) => guard.recv(),
            Err(_) => return,
        };
        let Ok(job) = job else { return }; // Worker set dropped.
        let t_dequeue = now_ns();
        job.state.mark_dequeued(t_dequeue);
        let result = job.state.score_shard(job.lo, job.hi, &mut ws);
        let busy = now_ns().saturating_sub(t_dequeue);
        let m = telemetry::metrics();
        m.pool_shards_total.inc();
        m.pool_shard_duration.record(busy);
        m.pool_busy_ns.add(busy);
        job.finish(result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::tests::tiny_model;
    use uadb_data::synth::{fig5_dataset, AnomalyType};

    #[test]
    fn pool_output_matches_serial_bit_for_bit() {
        let model = Arc::new(tiny_model(20));
        let data = fig5_dataset(AnomalyType::Local, 20);
        let serial = model.score_rows(&data.x).unwrap();
        // Tiny shards force multi-shard paths; vary worker counts.
        for workers in [1, 2, 4] {
            let pool = ScoringPool::new(Arc::clone(&model), PoolConfig { workers, shard_rows: 7 });
            let pooled = pool.score(&data.x).unwrap();
            assert_eq!(pooled.len(), serial.len());
            for (i, (a, b)) in pooled.iter().zip(&serial).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "row {i} with {workers} workers");
            }
        }
    }

    #[test]
    fn worker_workspaces_survive_varied_batches() {
        // One pool, many batch shapes: per-worker scratch buffers must
        // regrow/shrink without leaking state between requests.
        let model = Arc::new(tiny_model(23));
        let data = fig5_dataset(AnomalyType::Global, 23);
        let pool = ScoringPool::new(Arc::clone(&model), PoolConfig { workers: 2, shard_rows: 5 });
        for rows in [13usize, 1, 40, 3] {
            let idx: Vec<usize> = (0..rows).collect();
            let batch = Arc::new(data.x.select_rows(&idx));
            let serial = model.score_rows(&batch).unwrap();
            let pooled = pool.score_shared(&batch).unwrap();
            for (a, b) in pooled.iter().zip(&serial) {
                assert_eq!(a.to_bits(), b.to_bits(), "batch of {rows}");
            }
        }
    }

    #[test]
    fn errors_propagate_from_shards() {
        let model = Arc::new(tiny_model(21));
        let pool = ScoringPool::new(Arc::clone(&model), PoolConfig { workers: 2, shard_rows: 4 });
        let mut bad = Matrix::zeros(10, model.input_dim());
        bad.set(9, 0, f64::INFINITY); // lands in the last shard
                                      // The reported row index is batch-global, not shard-local.
        assert_eq!(pool.score(&bad), Err(ScoreError::NonFiniteFeature { row: 9 }));
        // With several poisoned shards the lowest row wins
        // deterministically, whatever order workers finish in.
        bad.set(2, 0, f64::NAN);
        bad.set(6, 0, f64::NAN);
        assert_eq!(pool.score(&bad), Err(ScoreError::NonFiniteFeature { row: 2 }));
        let wrong_width = Matrix::zeros(10, model.input_dim() + 2);
        assert!(matches!(pool.score(&wrong_width), Err(ScoreError::DimensionMismatch { .. })));
    }

    #[test]
    fn submit_fires_callback_without_blocking_the_caller() {
        // The async path assembles shard results exactly like the
        // blocking path, and the callback runs off the calling thread
        // for real batches.
        let model = Arc::new(tiny_model(25));
        let data = fig5_dataset(AnomalyType::Local, 25);
        let serial = model.score_rows(&data.x).unwrap();
        let pool = ScoringPool::new(Arc::clone(&model), PoolConfig { workers: 2, shard_rows: 9 });
        let batch = Arc::new(data.x.clone());
        let (tx, rx) = channel();
        pool.submit(
            &batch,
            Variant::Booster,
            Box::new(move |result, timing| {
                let _ =
                    tx.send((std::thread::current().name().map(str::to_string), result, timing));
            }),
        );
        let (worker_name, result, timing) = rx.recv().unwrap();
        let scores = result.unwrap();
        assert_eq!(scores.len(), serial.len());
        for (i, (a, b)) in scores.iter().zip(&serial).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "row {i}");
        }
        // Real batches complete on a pool worker, not the caller.
        assert!(
            worker_name.as_deref().is_some_and(|n| n.starts_with("uadb-score-")),
            "callback ran on {worker_name:?}"
        );
        // A batch that went through the queue reports where its wall
        // time went.
        assert!(timing.score_ns > 0, "scored batches measure scoring time");
        // Short-circuit paths (empty batch, missing teacher) complete
        // inline, still fire exactly once, and report zero pool time.
        let (tx, rx) = channel();
        pool.submit(
            &Arc::new(Matrix::zeros(0, 0)),
            Variant::Booster,
            Box::new(move |r, t| {
                let _ = tx.send((r, t));
            }),
        );
        let (r, t) = rx.recv().unwrap();
        assert_eq!(r.unwrap(), Vec::<f64>::new());
        assert_eq!(t, ScoreTiming::default());
        let (tx, rx) = channel();
        pool.submit(
            &batch,
            Variant::Teacher,
            Box::new(move |r, _| {
                let _ = tx.send(r);
            }),
        );
        assert_eq!(rx.recv().unwrap(), Err(ScoreError::TeacherNotLoaded));
    }

    #[test]
    fn teacher_variant_matches_serial_bit_for_bit_and_404s_when_absent() {
        use uadb::UadbConfig;
        use uadb_detectors::DetectorKind;

        let data = fig5_dataset(AnomalyType::Clustered, 24);
        let (served, _) = crate::model::ServedModel::train_with_teacher(
            &data,
            DetectorKind::Hbos,
            UadbConfig::fast_for_tests(24),
        )
        .unwrap();
        let model = Arc::new(served);
        let serial = model.teacher().unwrap().score_rows(&data.x).unwrap();
        for workers in [1, 3] {
            let pool = ScoringPool::new(Arc::clone(&model), PoolConfig { workers, shard_rows: 7 });
            let pooled =
                pool.score_shared_variant(&Arc::new(data.x.clone()), Variant::Teacher).unwrap();
            assert_eq!(pooled.len(), serial.len());
            for (i, (a, b)) in pooled.iter().zip(&serial).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "row {i} with {workers} workers");
            }
            // The booster variant still scores the booster.
            let boosted =
                pool.score_shared_variant(&Arc::new(data.x.clone()), Variant::Booster).unwrap();
            assert_eq!(boosted, model.score_rows(&data.x).unwrap());
        }
        // A booster-only model reports the teacher as unavailable.
        let bare = Arc::new(tiny_model(24));
        let pool = ScoringPool::new(bare, PoolConfig::default());
        assert_eq!(
            pool.score_shared_variant(&Arc::new(data.x.clone()), Variant::Teacher),
            Err(ScoreError::TeacherNotLoaded)
        );
    }

    #[test]
    fn completion_dropping_the_last_handle_keeps_its_booster_half() {
        // A `variant=both` chain submits its booster half from the
        // teacher completion, through a handle it captured. When that
        // handle is the last one, the worker set is dropped on its own
        // worker: the drop must not join that thread, and the booster
        // job queued just before must still be scored.
        let data = fig5_dataset(AnomalyType::Clustered, 26);
        let (served, _) = crate::model::ServedModel::train_with_teacher(
            &data,
            uadb_detectors::DetectorKind::Hbos,
            uadb::UadbConfig::fast_for_tests(26),
        )
        .unwrap();
        let model = Arc::new(served);
        let expected = model.score_rows(&data.x).unwrap();
        let batch = Arc::new(data.x.clone());
        let pool = Arc::new(ScoringPool::new(
            Arc::clone(&model),
            PoolConfig { workers: 1, shard_rows: 64 },
        ));
        let (outer_dropped_tx, outer_dropped_rx) = channel::<()>();
        let (booster_tx, booster_rx) = channel();
        let captured = Arc::clone(&pool);
        let booster_batch = Arc::clone(&batch);
        pool.submit(
            &batch,
            Variant::Teacher,
            Box::new(move |teacher, _| {
                assert!(teacher.is_ok(), "teacher half failed: {teacher:?}");
                outer_dropped_rx.recv().unwrap();
                captured.submit(
                    &booster_batch,
                    Variant::Booster,
                    Box::new(move |booster, _| {
                        let _ = booster_tx.send(booster);
                    }),
                );
                drop(captured);
            }),
        );
        drop(pool);
        outer_dropped_tx.send(()).unwrap();
        let booster = booster_rx.recv().unwrap().unwrap();
        assert_eq!(booster.len(), expected.len());
        for (i, (a, b)) in booster.iter().zip(&expected).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "row {i}");
        }
    }

    #[test]
    fn empty_batch_and_shutdown() {
        let model = Arc::new(tiny_model(22));
        let pool = ScoringPool::new(Arc::clone(&model), PoolConfig::default());
        assert_eq!(pool.score(&Matrix::zeros(0, 0)).unwrap(), Vec::<f64>::new());
        assert!(pool.n_workers() >= 1);
        assert_eq!(pool.n_workers(), PoolConfig::default().effective_workers());
        drop(pool); // must join cleanly, not hang
    }
}
