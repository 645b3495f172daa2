//! Process-global serving telemetry: the single place every layer of
//! the server reports into, and the single place `/metrics`,
//! `/healthz` summaries, and `/admin/slow` read from.
//!
//! The handles live in one lazily-initialised [`ServeMetrics`] struct
//! so pool workers, the epoll reactor, and the HTTP router all record
//! without threading references through constructors. Recording is the
//! `uadb_telemetry` hot-path budget — relaxed atomics, monotonic clock
//! reads at state-machine transitions the server already makes, no
//! allocation; only genuinely slow paths (a request over the slowness
//! threshold, an operator scrape) take a lock.
//!
//! Metrics are **process**-scoped: two servers in one test process
//! share one registry, so tests assert presence and monotonicity, not
//! exact counts.

use crate::model::{ModelBaseline, ScoreError, Variant};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use uadb_linalg::Matrix;
use uadb_telemetry::{
    now_ns, Counter, DecayStat, FeatureStats, FloatGauge, Gauge, Histogram, HistogramSnapshot,
    Registry, ScoreSketch, SketchSnapshot, SlowRing,
};

/// Stages of a request's life, in order. Each gets its own latency
/// histogram series (`uadb_stage_duration_seconds{stage=...}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// First request byte to complete header block.
    HeadRead = 0,
    /// Complete header block to complete body.
    BodyRead = 1,
    /// Routing and request validation (JSON parse, matrix build).
    Parse = 2,
    /// Batch submitted to the pool until the first shard is dequeued.
    QueueWait = 3,
    /// First shard dequeued until the last shard finished.
    Score = 4,
    /// Response serialization.
    Serialize = 5,
    /// Socket write/flush of buffered response bytes.
    WriteFlush = 6,
}

/// Number of [`Stage`] values (array sizing).
pub const STAGE_COUNT: usize = 7;

impl Stage {
    /// The `stage` label value.
    pub fn name(self) -> &'static str {
        match self {
            Stage::HeadRead => "head_read",
            Stage::BodyRead => "body_read",
            Stage::Parse => "parse",
            Stage::QueueWait => "queue_wait",
            Stage::Score => "score",
            Stage::Serialize => "serialize",
            Stage::WriteFlush => "write_flush",
        }
    }

    /// All stages, in pipeline order.
    pub fn all() -> [Stage; STAGE_COUNT] {
        [
            Stage::HeadRead,
            Stage::BodyRead,
            Stage::Parse,
            Stage::QueueWait,
            Stage::Score,
            Stage::Serialize,
            Stage::WriteFlush,
        ]
    }
}

/// Why a request or connection was turned away — the `reason` label on
/// `uadb_http_rejected_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// 503: connection budget exhausted at accept time.
    OverBudget = 0,
    /// 400: peer closed mid-request (truncated request).
    EarlyClose = 1,
    /// 408: idle deadline expired mid-request.
    Stalled = 2,
}

impl RejectReason {
    fn name(self) -> &'static str {
        match self {
            RejectReason::OverBudget => "over_budget",
            RejectReason::EarlyClose => "early_close",
            RejectReason::Stalled => "stalled",
        }
    }
}

/// Which variant selection a request asked for (the `variant` label on
/// the per-model counters). Unlike [`Variant`] this includes the paired
/// A/B selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VariantTag {
    Booster = 0,
    Teacher = 1,
    Both = 2,
}

impl VariantTag {
    pub fn name(self) -> &'static str {
        match self {
            VariantTag::Booster => "booster",
            VariantTag::Teacher => "teacher",
            VariantTag::Both => "both",
        }
    }

    pub fn from_variant(v: Variant) -> Self {
        match v {
            Variant::Booster => VariantTag::Booster,
            Variant::Teacher => VariantTag::Teacher,
        }
    }
}

/// Request/error/row counters for one `(model, variant)` pair.
#[derive(Debug)]
pub struct VariantCounters {
    pub requests: Arc<Counter>,
    pub errors: Arc<Counter>,
    pub rows: Arc<Counter>,
}

/// Per-model counter block: one [`VariantCounters`] per variant tag,
/// plus the model name as a shared `Arc<str>` so hot-path consumers
/// (trace records, slow-ring entries) can carry the name without
/// allocating.
#[derive(Debug)]
pub struct ModelStats {
    pub name: Arc<str>,
    variants: [VariantCounters; 3],
}

impl ModelStats {
    pub fn variant(&self, tag: VariantTag) -> &VariantCounters {
        &self.variants[tag as usize]
    }
}

/// Row-sampling cap for the per-feature drift accumulators: at most
/// this many rows of a batch feed [`FeatureStats`] (uniform stride, so
/// the mean estimate is unbiased). Score-sketch recording covers every
/// row — it is two relaxed `fetch_add`s — but feature recording costs
/// a CAS pair per feature per row, and the scoring hot path must stay
/// within its bench budget at the 8192-row batch.
const FEATURE_SAMPLE_CAP: usize = 64;

/// The drift gauges for one model name. Registered once per name and
/// kept across model swaps (like the request counters): the *series*
/// is a property of the name, the *window* behind it is not.
#[derive(Debug)]
struct DriftGauges {
    psi: Arc<FloatGauge>,
    feature_max: Arc<FloatGauge>,
    anomaly_live: Arc<FloatGauge>,
    anomaly_train: Arc<FloatGauge>,
}

/// Live drift window for one served model: the score sketch and
/// per-feature accumulators fed from scoring batches, the per-model
/// teacher/booster divergence, and the frozen train-time reference it
/// is all compared against.
///
/// An instance is **immutable in shape** once installed — a model swap
/// (`/admin/reload`, teacher attach/detach) installs a *fresh* one so
/// the new model never inherits the old model's window (in-flight
/// requests may still record into the discarded instance; those rows
/// vanish with it, which is exactly the reset semantics).
#[derive(Debug)]
pub struct ModelDrift {
    name: Arc<str>,
    live: ScoreSketch,
    features: FeatureStats,
    divergence: DecayStat,
    baseline: Option<ModelBaseline>,
    train_means: Vec<f64>,
    train_stds: Vec<f64>,
    window_start_ns: u64,
}

/// Everything the drift scorer derives from one model's window — feeds
/// both the gauge refresh and the `/admin/drift` JSON.
#[derive(Debug, Clone)]
pub struct DriftReport {
    pub name: Arc<str>,
    /// PSI of the live score distribution against the baseline; `None`
    /// when the model has no baseline or the window is empty.
    pub psi: Option<f64>,
    pub live_samples: u64,
    pub baseline_samples: Option<u64>,
    /// Live / train anomaly rate at `threshold` (train `None` without
    /// a baseline).
    pub live_anomaly_rate: f64,
    pub train_anomaly_rate: Option<f64>,
    pub threshold: f64,
    /// Live / baseline score quantiles at p50/p90/p99.
    pub live_quantiles: [f64; 3],
    pub baseline_quantiles: Option<[f64; 3]>,
    /// Per-feature standardized mean shift:
    /// `|live_mean_j − train_mean_j| / train_std_j`.
    pub feature_shifts: Vec<f64>,
    pub live_means: Vec<f64>,
    pub train_means: Vec<f64>,
    pub train_stds: Vec<f64>,
    /// Rows sampled into the feature accumulators this window.
    pub feature_rows: u64,
    pub feature_max: f64,
    pub feature_argmax: Option<usize>,
    /// Per-model decayed teacher/booster divergence (mean, max, n).
    pub divergence: (f64, f64, u64),
    pub window_age_seconds: f64,
}

impl ModelDrift {
    fn new(name: Arc<str>, means: &[f64], stds: &[f64], baseline: Option<&ModelBaseline>) -> Self {
        Self {
            name,
            live: ScoreSketch::new(),
            features: FeatureStats::new(means.len()),
            // Same ~500-sample effective window as the process-global
            // divergence estimate.
            divergence: DecayStat::new(0.002),
            baseline: baseline.cloned(),
            train_means: means.to_vec(),
            train_stds: stds.to_vec(),
            window_start_ns: now_ns(),
        }
    }

    /// The model name this window belongs to.
    pub fn name(&self) -> &Arc<str> {
        &self.name
    }

    /// Folds a batch of calibrated **booster** scores into the live
    /// sketch (teacher-variant scores are not comparable to the
    /// booster's training baseline and must not be recorded).
    // audit: no_alloc
    pub fn record_scores(&self, scores: &[f64]) {
        self.live.record_batch(scores);
    }

    /// Samples raw request rows into the per-feature accumulators at a
    /// uniform stride capped at [`FEATURE_SAMPLE_CAP`] rows per batch.
    // audit: no_alloc
    pub fn record_rows(&self, batch: &Matrix) {
        let rows = batch.rows();
        if rows == 0 || batch.cols() != self.features.dim() {
            return;
        }
        let stride = rows.div_ceil(FEATURE_SAMPLE_CAP).max(1);
        let mut r = 0;
        while r < rows {
            self.features.record_row(batch.row(r));
            r += stride;
        }
    }

    /// Folds one A/B response's paired scores into this model's
    /// divergence estimate.
    pub fn observe_divergence(&self, mean_abs: f64, max_abs: f64, n: usize) {
        self.divergence.observe_batch(mean_abs, max_abs, n);
    }

    /// Computes the full drift report for this window.
    pub fn report(&self) -> DriftReport {
        let live = self.live.snapshot();
        let live_samples = live.total();
        let threshold =
            self.baseline.as_ref().map_or(ModelBaseline::DEFAULT_THRESHOLD, |b| b.threshold);
        let baseline_snap = self.baseline.as_ref().map(|b| b.snapshot());
        let psi = match &baseline_snap {
            Some(b) if live_samples > 0 => Some(live.psi(b)),
            _ => None,
        };
        let quantiles = |s: &SketchSnapshot| [s.quantile(0.5), s.quantile(0.9), s.quantile(0.99)];
        let feats = self.features.snapshot();
        let mut feature_shifts = Vec::with_capacity(self.train_means.len());
        let mut feature_max = 0.0f64;
        let mut feature_argmax = None;
        for j in 0..self.train_means.len() {
            let shift = if feats.rows == 0 || self.train_stds[j] <= 0.0 {
                0.0
            } else {
                (feats.means[j] - self.train_means[j]).abs() / self.train_stds[j]
            };
            if shift > feature_max {
                feature_max = shift;
                feature_argmax = Some(j);
            }
            feature_shifts.push(shift);
        }
        DriftReport {
            name: Arc::clone(&self.name),
            psi,
            live_samples,
            baseline_samples: self.baseline.as_ref().map(|b| b.n),
            live_anomaly_rate: live.fraction_at_or_above(threshold),
            train_anomaly_rate: self.baseline.as_ref().map(|b| b.anomaly_rate),
            threshold,
            live_quantiles: quantiles(&live),
            baseline_quantiles: baseline_snap.as_ref().map(quantiles),
            feature_shifts,
            live_means: feats.means,
            train_means: self.train_means.clone(),
            train_stds: self.train_stds.clone(),
            feature_rows: feats.rows,
            feature_max,
            feature_argmax,
            divergence: (self.divergence.mean(), self.divergence.max(), self.divergence.samples()),
            window_age_seconds: now_ns().saturating_sub(self.window_start_ns) as f64 / 1e9,
        }
    }
}

/// One captured slow request, served by `GET /admin/slow`.
#[derive(Debug, Clone)]
pub struct SlowEntry {
    pub trace_id: u64,
    /// First request byte to end of serialization.
    pub total_ns: u64,
    /// Per-stage durations, indexed by [`Stage`]. `WriteFlush` is
    /// always zero here: flushes are accounted per-socket-write, after
    /// the request has already been captured.
    pub stages: [u64; STAGE_COUNT],
    /// Scored model, when the request reached scoring.
    pub model: Option<Arc<str>>,
    pub variant: Option<VariantTag>,
    pub rows: usize,
    pub status: u16,
}

/// Accumulates one request's stage timings as it moves through the
/// server; [`RequestTimer::finish`] records everything in one shot.
/// Plain value type — it travels with the request (into pool callbacks
/// and reactor completions) rather than living in shared state.
#[derive(Debug, Clone)]
pub struct RequestTimer {
    pub trace_id: u64,
    /// Timestamp of the request's first byte.
    pub t0: u64,
    stages: [u64; STAGE_COUNT],
    model: Option<Arc<str>>,
    variant: Option<VariantTag>,
    rows: usize,
}

impl RequestTimer {
    /// Starts a timer for a request whose first byte arrived at `t0`
    /// (monotonic ns, from [`now_ns`]).
    pub fn start(t0: u64) -> Self {
        Self {
            trace_id: uadb_telemetry::next_trace_id(),
            t0,
            stages: [0; STAGE_COUNT],
            model: None,
            variant: None,
            rows: 0,
        }
    }

    /// Adds `ns` to a stage (stages touched twice — e.g. the two pool
    /// submissions of a `?variant=both` request — accumulate).
    #[inline]
    pub fn add(&mut self, stage: Stage, ns: u64) {
        self.stages[stage as usize] += ns;
    }

    pub fn stage(&self, stage: Stage) -> u64 {
        self.stages[stage as usize]
    }

    /// Tags the timer with what it ended up scoring.
    pub fn set_scored(&mut self, model: Arc<str>, variant: VariantTag, rows: usize) {
        self.model = Some(model);
        self.variant = Some(variant);
        self.rows = rows;
    }

    /// Records the finished request: per-stage histograms, the
    /// end-to-end latency histogram, and — when over the slowness
    /// threshold — a slow-ring entry. `total` spans first byte to end
    /// of serialization (write/flush is accounted separately, per
    /// socket write).
    pub fn finish(self, status: u16) {
        let m = metrics();
        let total = now_ns().saturating_sub(self.t0);
        for stage in Stage::all() {
            let ns = self.stages[stage as usize];
            // Zero means the stage never ran for this request (e.g. no
            // body, or a non-scoring route) — skip, so each stage
            // histogram counts only requests that exercised it.
            if ns > 0 {
                m.stage_hist[stage as usize].record(ns);
            }
        }
        m.request_duration.record(total);
        if total >= m.slow_threshold_ns.load(Ordering::Relaxed) {
            m.slow_ring.push(SlowEntry {
                trace_id: self.trace_id,
                total_ns: total,
                stages: self.stages,
                model: self.model,
                variant: self.variant,
                rows: self.rows,
                status,
            });
        }
    }
}

/// All serving metrics, registered once into one [`Registry`].
pub struct ServeMetrics {
    registry: Registry,
    /// Indexed by [`Stage`].
    stage_hist: [Arc<Histogram>; STAGE_COUNT],
    pub request_duration: Arc<Histogram>,
    pub requests_total: Arc<Counter>,
    /// Indexed by [`RejectReason`].
    rejected: [Arc<Counter>; 3],
    pub connections_opened: Arc<Counter>,
    pub connections_closed: Arc<Counter>,
    pub open_connections: Arc<Gauge>,

    pub pool_queue_depth: Arc<Gauge>,
    pub pool_shards_total: Arc<Counter>,
    pub pool_shard_duration: Arc<Histogram>,
    pub pool_busy_ns: Arc<Counter>,
    pub worker_panics: Arc<Counter>,

    /// Connections the reactor accepted within the budget.
    pub reactor_accepted: Arc<Counter>,
    /// Readiness events the reactor's `epoll_wait` delivered.
    pub reactor_events: Arc<Counter>,

    divergence: DecayStat,
    div_mean: Arc<FloatGauge>,
    div_max: Arc<FloatGauge>,
    div_samples: Arc<Counter>,

    model_stats: RwLock<BTreeMap<String, Arc<ModelStats>>>,
    /// Live drift windows by model name — entries are *replaced* on
    /// model swap (unlike `model_stats`, which deliberately survives).
    drift: RwLock<BTreeMap<String, Arc<ModelDrift>>>,
    /// Drift gauge series by model name — these do survive swaps, the
    /// refreshed values just come from whichever window is installed.
    drift_gauges: RwLock<BTreeMap<String, DriftGauges>>,
    /// PSI warn threshold (`--drift-warn-psi`) as `f64` bits;
    /// `+inf` disables the warning.
    drift_warn_psi_bits: AtomicU64,
    pub train_epochs: Arc<Counter>,
    train_loss: RwLock<BTreeMap<String, Arc<FloatGauge>>>,
    slow_ring: SlowRing<SlowEntry>,
    slow_threshold_ns: AtomicU64,
}

/// Slow-request capture threshold when `--slow-ms` is not given.
pub const DEFAULT_SLOW_THRESHOLD_NS: u64 = 100_000_000; // 100ms

/// Slow-ring capacity: the last N slow requests an operator can pull
/// back out of `/admin/slow`.
pub const SLOW_RING_CAP: usize = 32;

impl ServeMetrics {
    fn new() -> Self {
        let registry = Registry::new();
        let bounds = Histogram::latency_bounds();
        let stage_hist = Stage::all().map(|s| {
            registry.histogram(
                "uadb_stage_duration_seconds",
                "Per-stage request latency.",
                &[("stage", s.name())],
                &bounds,
                9,
            )
        });
        let request_duration = registry.histogram(
            "uadb_request_duration_seconds",
            "End-to-end request latency (first byte to serialized response).",
            &[],
            &bounds,
            9,
        );
        let requests_total =
            registry.counter("uadb_http_requests_total", "HTTP requests routed.", &[]);
        let rejected = [RejectReason::OverBudget, RejectReason::EarlyClose, RejectReason::Stalled]
            .map(|r| {
                registry.counter(
                    "uadb_http_rejected_total",
                    "Requests/connections turned away, by reason.",
                    &[("reason", r.name())],
                )
            });
        let connections_opened =
            registry.counter("uadb_http_connections_opened_total", "Connections accepted.", &[]);
        let connections_closed =
            registry.counter("uadb_http_connections_closed_total", "Connections closed.", &[]);
        let open_connections =
            registry.gauge("uadb_http_open_connections", "Connections currently open.", &[]);

        let pool_queue_depth = registry.gauge(
            "uadb_pool_queue_depth",
            "Scoring shards queued or in flight in the pool.",
            &[],
        );
        let pool_shards_total =
            registry.counter("uadb_pool_shards_total", "Scoring shards executed.", &[]);
        let pool_shard_duration = registry.histogram(
            "uadb_pool_shard_duration_seconds",
            "Per-shard latency from dequeue to scored.",
            &[],
            &bounds,
            9,
        );
        let pool_busy_ns = registry.counter(
            "uadb_pool_worker_busy_nanoseconds_total",
            "Cumulative wall time pool workers spent scoring shards.",
            &[],
        );
        let worker_panics = registry.counter(
            "uadb_pool_worker_panics_total",
            "Scoring shards lost to a worker panic.",
            &[],
        );

        let reactor_accepted = registry.counter(
            "uadb_reactor_accepted_total",
            "Connections the reactor accepted within the budget.",
            &[],
        );
        let reactor_events = registry.counter(
            "uadb_reactor_events_total",
            "Epoll readiness events the reactor's loop delivered.",
            &[],
        );

        let div_mean = registry.float_gauge(
            "uadb_divergence_mean_abs",
            "Decayed mean |teacher - booster| over paired A/B scores.",
            &[],
        );
        let div_max = registry.float_gauge(
            "uadb_divergence_max_abs",
            "Decayed max |teacher - booster| over paired A/B scores.",
            &[],
        );
        let div_samples = registry.counter(
            "uadb_divergence_samples_total",
            "Paired scores folded into the divergence estimate.",
            &[],
        );

        let train_epochs = registry.counter(
            "uadb_train_epochs_total",
            "Booster training epochs completed in this process.",
            &[],
        );

        Self {
            registry,
            stage_hist,
            request_duration,
            requests_total,
            rejected,
            connections_opened,
            connections_closed,
            open_connections,
            pool_queue_depth,
            pool_shards_total,
            pool_shard_duration,
            pool_busy_ns,
            worker_panics,
            reactor_accepted,
            reactor_events,
            // ~1/0.002 = 500-sample effective window: long enough to
            // smooth batch noise, short enough that drift shows within
            // a few requests' worth of rows.
            divergence: DecayStat::new(0.002),
            div_mean,
            div_max,
            div_samples,
            model_stats: RwLock::new(BTreeMap::new()),
            drift: RwLock::new(BTreeMap::new()),
            drift_gauges: RwLock::new(BTreeMap::new()),
            drift_warn_psi_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            train_epochs,
            train_loss: RwLock::new(BTreeMap::new()),
            slow_ring: SlowRing::new(SLOW_RING_CAP),
            slow_threshold_ns: AtomicU64::new(DEFAULT_SLOW_THRESHOLD_NS),
        }
    }

    /// Records a per-stage duration outside a [`RequestTimer`] (used
    /// for `WriteFlush`, which is per socket write, not per request).
    #[inline]
    pub fn record_stage(&self, stage: Stage, ns: u64) {
        self.stage_hist[stage as usize].record(ns);
    }

    /// Bumps a rejection counter.
    #[inline]
    pub fn reject(&self, reason: RejectReason) {
        self.rejected[reason as usize].inc();
    }

    /// Sum over all rejection reasons.
    pub fn rejected_total(&self) -> u64 {
        self.rejected.iter().map(|c| c.get()).sum()
    }

    /// The counter block for one model, registering its nine series
    /// (3 variants × requests/errors/rows) on first sight. Steady state
    /// is a read-lock and a map probe.
    pub fn model_stats(&self, name: &str) -> Arc<ModelStats> {
        if let Some(stats) = self.model_stats.read().unwrap().get(name) {
            return Arc::clone(stats);
        }
        let mut map = self.model_stats.write().unwrap();
        // Double-checked: another thread may have registered between
        // the read unlock and the write lock.
        if let Some(stats) = map.get(name) {
            return Arc::clone(stats);
        }
        let variants = [VariantTag::Booster, VariantTag::Teacher, VariantTag::Both].map(|tag| {
            let labels = [("model", name), ("variant", tag.name())];
            VariantCounters {
                requests: self.registry.counter(
                    "uadb_model_requests_total",
                    "Scoring requests, by model and variant.",
                    &labels,
                ),
                errors: self.registry.counter(
                    "uadb_model_errors_total",
                    "Failed scoring requests, by model and variant.",
                    &labels,
                ),
                rows: self.registry.counter(
                    "uadb_model_rows_total",
                    "Rows scored, by model and variant.",
                    &labels,
                ),
            }
        });
        let stats = Arc::new(ModelStats { name: Arc::from(name), variants });
        map.insert(name.to_string(), Arc::clone(&stats));
        stats
    }

    /// Installs a **fresh** drift window for `name`, replacing any
    /// existing one: called whenever a model is registered, reloaded,
    /// or has its teacher attached/detached, so streaming stats never
    /// leak across model swaps. The gauge series for the name are
    /// registered on first sight and survive swaps.
    pub fn install_drift(
        &self,
        name: &str,
        means: &[f64],
        stds: &[f64],
        baseline: Option<&ModelBaseline>,
    ) -> Arc<ModelDrift> {
        {
            let mut gauges = self.drift_gauges.write().unwrap();
            gauges.entry(name.to_string()).or_insert_with(|| {
                let labels = [("model", name)];
                DriftGauges {
                    psi: self.registry.float_gauge(
                        "uadb_score_drift_psi",
                        "PSI of the live calibrated score distribution vs. the training baseline.",
                        &labels,
                    ),
                    feature_max: self.registry.float_gauge(
                        "uadb_feature_drift_max",
                        "Max standardized per-feature mean shift of live traffic vs. training.",
                        &labels,
                    ),
                    anomaly_live: self.registry.float_gauge(
                        "uadb_anomaly_rate",
                        "Fraction of scores at or above the anomaly threshold, by window.",
                        &[("model", name), ("window", "live")],
                    ),
                    anomaly_train: self.registry.float_gauge(
                        "uadb_anomaly_rate",
                        "Fraction of scores at or above the anomaly threshold, by window.",
                        &[("model", name), ("window", "train")],
                    ),
                }
            });
        }
        let drift = Arc::new(ModelDrift::new(Arc::from(name), means, stds, baseline));
        self.drift.write().unwrap().insert(name.to_string(), Arc::clone(&drift));
        // A fresh window means the last-refreshed gauge values are
        // stale; re-derive them now rather than at the next scrape.
        self.refresh_drift_gauges();
        drift
    }

    /// The installed drift window for `name`, if any.
    pub fn drift(&self, name: &str) -> Option<Arc<ModelDrift>> {
        self.drift.read().unwrap().get(name).map(Arc::clone)
    }

    /// Starts a fresh drift window for `name` (same baseline, empty
    /// sketches) — the `/admin/drift/{name}/reset` operation. Returns
    /// `false` when no window is installed under that name.
    pub fn reset_drift(&self, name: &str) -> bool {
        let Some(old) = self.drift(name) else { return false };
        self.install_drift(name, &old.train_means, &old.train_stds, old.baseline.as_ref());
        true
    }

    /// Drift reports for every installed window, by name.
    pub fn drift_reports(&self) -> Vec<DriftReport> {
        let windows: Vec<Arc<ModelDrift>> =
            self.drift.read().unwrap().values().map(Arc::clone).collect();
        windows.iter().map(|d| d.report()).collect()
    }

    /// Recomputes every model's drift signals and pushes them into the
    /// exported gauges — called on scrape, so gauge values are current
    /// as of the request that reads them. Emits the rate-limited
    /// `--drift-warn-psi` warning for any model over the threshold.
    pub fn refresh_drift_gauges(&self) {
        let warn_at = f64::from_bits(self.drift_warn_psi_bits.load(Ordering::Relaxed));
        for report in self.drift_reports() {
            let gauges = self.drift_gauges.read().unwrap();
            let Some(g) = gauges.get(report.name.as_ref()) else { continue };
            let psi = report.psi.unwrap_or(0.0);
            g.psi.set(psi);
            g.feature_max.set(report.feature_max);
            g.anomaly_live.set(report.live_anomaly_rate);
            g.anomaly_train.set(report.train_anomaly_rate.unwrap_or(0.0));
            drop(gauges);
            if psi > warn_at {
                let psi_s = format!("{psi:.4}");
                let warn_s = format!("{warn_at:.4}");
                let samples = report.live_samples.to_string();
                uadb_telemetry::log::logger().log(
                    uadb_telemetry::Level::Warn,
                    "drift",
                    "live score distribution drifted past the PSI threshold",
                    &[
                        ("model", &report.name),
                        ("psi", &psi_s),
                        ("threshold", &warn_s),
                        ("live_samples", &samples),
                    ],
                );
            }
        }
    }

    /// Sets the PSI warn threshold (`--drift-warn-psi`).
    pub fn set_drift_warn_psi(&self, threshold: f64) {
        self.drift_warn_psi_bits.store(threshold.to_bits(), Ordering::Relaxed);
    }

    /// Registers (on first sight) and returns the per-model last-loss
    /// gauge, and bumps nothing — pair with [`ServeMetrics::train_epochs`].
    pub fn train_loss_gauge(&self, model: &str) -> Arc<FloatGauge> {
        if let Some(g) = self.train_loss.read().unwrap().get(model) {
            return Arc::clone(g);
        }
        let mut map = self.train_loss.write().unwrap();
        if let Some(g) = map.get(model) {
            return Arc::clone(g);
        }
        let g = self.registry.float_gauge(
            "uadb_train_last_loss",
            "Mean training loss of the most recent completed epoch, by model.",
            &[("model", model)],
        );
        map.insert(model.to_string(), Arc::clone(&g));
        g
    }

    /// Records one completed training epoch: bumps the process epoch
    /// counter and refreshes the per-model last-loss gauge.
    pub fn observe_train_epoch(&self, model: &str, loss: f64) {
        self.train_epochs.inc();
        self.train_loss_gauge(model).set(loss);
    }

    /// Folds one A/B response's paired scores into the streaming
    /// divergence estimate and refreshes the exported gauges.
    pub fn observe_divergence(
        &self,
        booster: &[f64],
        teacher: &[f64],
    ) -> Option<(f64, f64, usize)> {
        let n = booster.len().min(teacher.len());
        if n == 0 {
            return None;
        }
        let mut sum = 0.0f64;
        let mut max = 0.0f64;
        for i in 0..n {
            let d = (booster[i] - teacher[i]).abs();
            sum += d;
            if d > max {
                max = d;
            }
        }
        self.divergence.observe_batch(sum / n as f64, max, n);
        self.div_mean.set(self.divergence.mean());
        self.div_max.set(self.divergence.max());
        self.div_samples.add(n as u64);
        // The per-batch stats are returned so callers can fan the same
        // pair into a per-model divergence window without re-scanning.
        Some((sum / n as f64, max, n))
    }

    /// Current decayed (mean |Δ|, max |Δ|, samples) divergence view.
    pub fn divergence_summary(&self) -> (f64, f64, u64) {
        (self.divergence.mean(), self.divergence.max(), self.divergence.samples())
    }

    /// End-to-end latency snapshot (drives the `/healthz` quantiles).
    pub fn latency_snapshot(&self) -> HistogramSnapshot {
        self.request_duration.snapshot()
    }

    /// Last captured slow requests, oldest first.
    pub fn slow_snapshot(&self) -> Vec<SlowEntry> {
        self.slow_ring.snapshot()
    }

    pub fn set_slow_threshold_ms(&self, ms: u64) {
        self.slow_threshold_ns.store(ms.saturating_mul(1_000_000), Ordering::Relaxed);
    }

    /// Bumps the per-model error counter and emits the structured error
    /// log every scoring failure gets (worker panics are server bugs
    /// and log at error level; request-shape failures at debug).
    pub fn record_score_error(
        &self,
        stats: &ModelStats,
        tag: VariantTag,
        err: &ScoreError,
        trace_id: u64,
    ) {
        stats.variant(tag).errors.inc();
        let level = match err {
            ScoreError::WorkerPanicked => uadb_telemetry::Level::Error,
            _ => uadb_telemetry::Level::Debug,
        };
        let trace = trace_id.to_string();
        uadb_telemetry::log::logger().log(
            level,
            "score",
            "scoring failed",
            &[
                ("trace", &trace),
                ("model", &stats.name),
                ("variant", tag.name()),
                ("error", err.metric_label()),
            ],
        );
    }

    /// Renders the full exposition: every registered family, then the
    /// GEMM kernel counters (feature-gated in `uadb_linalg`; all-zero
    /// when compiled out) and the logger's suppression counter, which
    /// live outside the registry.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(8192);
        self.registry.render_into(&mut out);

        let ks = uadb_linalg::gemm::stats::snapshot();
        out.push_str("# HELP uadb_gemm_packs_built_total GEMM weight packings built.\n");
        out.push_str("# TYPE uadb_gemm_packs_built_total counter\n");
        out.push_str(&format!("uadb_gemm_packs_built_total {}\n", ks.packs_built));
        out.push_str(
            "# HELP uadb_gemm_packs_reused_total GEMM calls served from a cached packing.\n",
        );
        out.push_str("# TYPE uadb_gemm_packs_reused_total counter\n");
        out.push_str(&format!("uadb_gemm_packs_reused_total {}\n", ks.packs_reused));
        out.push_str("# HELP uadb_gemm_calls_total GEMM kernel invocations, by ISA path.\n");
        out.push_str("# TYPE uadb_gemm_calls_total counter\n");
        out.push_str(&format!("uadb_gemm_calls_total{{isa=\"avx512\"}} {}\n", ks.calls_avx512));
        out.push_str(&format!("uadb_gemm_calls_total{{isa=\"avx\"}} {}\n", ks.calls_avx));
        out.push_str(&format!("uadb_gemm_calls_total{{isa=\"portable\"}} {}\n", ks.calls_portable));

        out.push_str(
            "# HELP uadb_log_dropped_total Log messages suppressed by the rate limiter.\n",
        );
        out.push_str("# TYPE uadb_log_dropped_total counter\n");
        out.push_str(&format!(
            "uadb_log_dropped_total {}\n",
            uadb_telemetry::log::logger().dropped()
        ));
        out
    }
}

static METRICS: OnceLock<ServeMetrics> = OnceLock::new();

/// The process-global serving metrics.
pub fn metrics() -> &'static ServeMetrics {
    METRICS.get_or_init(ServeMetrics::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_stats_registered_once_and_shared() {
        let m = metrics();
        let a = m.model_stats("telemetry-test-model");
        let b = m.model_stats("telemetry-test-model");
        assert!(Arc::ptr_eq(&a, &b));
        a.variant(VariantTag::Booster).requests.inc();
        a.variant(VariantTag::Booster).rows.add(5);
        let text = m.render();
        assert!(text.contains(
            "uadb_model_requests_total{model=\"telemetry-test-model\",variant=\"booster\"}"
        ));
        assert!(text.contains(
            "uadb_model_rows_total{model=\"telemetry-test-model\",variant=\"teacher\"} 0"
        ));
    }

    #[test]
    fn render_includes_gemm_and_log_sections() {
        let text = metrics().render();
        assert!(text.contains("# TYPE uadb_gemm_calls_total counter"));
        assert!(text.contains("uadb_gemm_calls_total{isa=\"portable\"}"));
        assert!(text.contains("# TYPE uadb_log_dropped_total counter"));
    }

    #[test]
    fn divergence_updates_gauges() {
        let m = metrics();
        let before = m.divergence_summary().2;
        m.observe_divergence(&[0.5, 0.5], &[0.5, 0.7]);
        let (mean, max, samples) = m.divergence_summary();
        assert!(mean > 0.0);
        assert!(max >= 0.2 - 1e-12);
        assert_eq!(samples, before + 2);
    }

    #[test]
    fn timer_records_slow_entry() {
        let m = metrics();
        // Threshold 0: every finished request is captured.
        m.set_slow_threshold_ms(0);
        let mut t = RequestTimer::start(now_ns());
        t.add(Stage::Parse, 1_000);
        t.add(Stage::Score, 2_000);
        t.set_scored(Arc::from("slow-model"), VariantTag::Both, 3);
        let id = t.trace_id;
        t.finish(200);
        m.set_slow_threshold_ms(DEFAULT_SLOW_THRESHOLD_NS / 1_000_000);
        let snap = m.slow_snapshot();
        let entry = snap.iter().rev().find(|e| e.trace_id == id).expect("captured");
        assert_eq!(entry.rows, 3);
        assert_eq!(entry.status, 200);
        assert_eq!(entry.stages[Stage::Score as usize], 2_000);
        assert_eq!(entry.model.as_deref(), Some("slow-model"));
    }

    #[test]
    fn drift_window_tracks_shift_and_resets_clean() {
        let m = metrics();
        // Baseline: scores clustered low, feature means at 0 with unit std.
        let train_scores: Vec<f64> = (0..200).map(|i| 0.1 + (i % 10) as f64 * 0.02).collect();
        let baseline = ModelBaseline::from_scores(&train_scores);
        let d = m.install_drift("drift-test-model", &[0.0, 0.0], &[1.0, 1.0], Some(&baseline));

        // Live traffic: scores shifted high, feature 0 shifted by +5σ.
        let live: Vec<f64> = (0..200).map(|i| 0.8 + (i % 10) as f64 * 0.01).collect();
        d.record_scores(&live);
        let rows: Vec<Vec<f64>> = (0..32).map(|_| vec![5.0, 0.0]).collect();
        d.record_rows(&Matrix::from_rows(&rows).unwrap());

        let report = d.report();
        assert_eq!(report.live_samples, 200);
        assert!(report.psi.unwrap() > 0.25, "shifted scores must exceed the PSI alert band");
        assert!(report.live_anomaly_rate > 0.9);
        assert_eq!(report.feature_argmax, Some(0));
        assert!((report.feature_max - 5.0).abs() < 1e-9);

        m.refresh_drift_gauges();
        let text = m.render();
        assert!(text.contains("uadb_score_drift_psi{model=\"drift-test-model\"}"));
        assert!(text.contains("uadb_feature_drift_max{model=\"drift-test-model\"} 5"));
        assert!(text.contains("uadb_anomaly_rate{model=\"drift-test-model\",window=\"live\"}"));
        assert!(text.contains("uadb_anomaly_rate{model=\"drift-test-model\",window=\"train\"}"));

        // Reset: fresh window, same baseline, handle map re-pointed.
        assert!(m.reset_drift("drift-test-model"));
        let fresh = m.drift("drift-test-model").unwrap();
        assert!(!Arc::ptr_eq(&d, &fresh));
        let report = fresh.report();
        assert_eq!(report.live_samples, 0);
        assert_eq!(report.feature_rows, 0);
        assert!(report.psi.is_none(), "empty window has no PSI yet");
        assert_eq!(report.baseline_samples, Some(200));
        assert!(!m.reset_drift("no-such-model"));
    }

    #[test]
    fn install_drift_replaces_window_but_keeps_gauge_series() {
        let m = metrics();
        let a = m.install_drift("drift-swap-model", &[0.0], &[1.0], None);
        a.record_scores(&[0.9; 50]);
        // Simulate /admin/reload: a new model install starts a clean window.
        let b = m.install_drift("drift-swap-model", &[1.0], &[2.0], None);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(b.report().live_samples, 0);
        // No baseline → PSI gauge reads 0, not stale pre-swap data.
        m.refresh_drift_gauges();
        assert!(m.render().contains("uadb_score_drift_psi{model=\"drift-swap-model\"} 0"));
    }

    #[test]
    fn train_epoch_observations_feed_counter_and_loss_gauge() {
        let m = metrics();
        let before = m.train_epochs.get();
        m.observe_train_epoch("train-obs-model", 0.75);
        m.observe_train_epoch("train-obs-model", 0.5);
        assert_eq!(m.train_epochs.get(), before + 2);
        let text = m.render();
        assert!(text.contains("uadb_train_last_loss{model=\"train-obs-model\"} 0.5"));
        assert!(text.contains("# TYPE uadb_train_epochs_total counter"));
        // Gauge registration is idempotent per model name.
        assert!(Arc::ptr_eq(
            &m.train_loss_gauge("train-obs-model"),
            &m.train_loss_gauge("train-obs-model")
        ));
    }

    #[test]
    fn reject_reasons_accumulate() {
        let m = metrics();
        let before = m.rejected_total();
        m.reject(RejectReason::OverBudget);
        m.reject(RejectReason::Stalled);
        assert_eq!(m.rejected_total(), before + 2);
    }
}
