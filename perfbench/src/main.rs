//! End-to-end benchmark of `uadb-serve`: trains with the release binary
//! (`uadb-serve train`), serves the result (`uadb-serve serve`), drives
//! one of three workloads against it and checks every answer. With
//! `--trace 1` it also attributes the time to the library's layers from
//! spans around public calls made in this process.
//!
//! Usage (normally through `perfbench/run.sh`, which builds both):
//!
//! ```text
//! perfbench --server-bin PATH --workload NAME --seed N --seconds S --trace 0|1 [--quick]
//! ```
//!
//! Scratch model files go under `$CARGO_TARGET_DIR` (default
//! `.bench_build`) and are removed at exit.
//!
//! The last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! Lines before it, prefixed `#`, give sample counts, medians, tails
//! and the machine.

mod child;
mod client;
mod layers;
mod stats;

use child::{proc_status, Scrape, Server};
use client::{LoadResult, Request};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use uadb_data::Dataset;
use uadb_serve::{persist, ServedModel};

/// The workloads; see `perfbench/README.md` for why each exists.
const WORKLOADS: [&str; 3] = ["fit_cardio", "score_rows1_json", "score_rows8192_json"];

/// Offered load of the `score_rows1_json` open loop, in requests/s:
/// about a quarter of what two closed-loop connections reach on an idle
/// 2-vCPU host, so the server still keeps up when the host runs half as
/// fast (at 8000 req/s such a slowdown turned into a growing queue).
const ROWS1_RATE: f64 = 5000.0;
/// Rows per request in `score_rows8192_json`.
const BIG_ROWS: usize = 8192;
/// Server start-ups per run; `setup_s` is their median.
const SERVER_STARTS: usize = 11;
/// Reloads of `a`, one every `RELOAD_PROBE_EVERY`, on each server
/// start-up but the last. Spreading them over the start-ups samples
/// many server processes and a longer stretch of time than one burst
/// would.
const RELOAD_PROBE: u32 = 100;
const RELOAD_PROBE_EVERY: Duration = Duration::from_millis(2);
/// How long `fit_cardio` serves the model it trained, with the
/// `score_rows1_json` traffic.
const SMOKE_SECONDS: f64 = 4.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    server_bin: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut raw = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut quick, mut server_bin) = (false, None);
    while let Some(flag) = raw.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot parse `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value == "1"),
            "--server-bin" => server_bin = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}` (one of {WORKLOADS:?})"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?.max(0.5),
        trace: trace.ok_or("missing --trace")?,
        quick,
        server_bin: server_bin.ok_or("missing --server-bin")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    let dir = Path::new(&target).join("perfbench-work").join(format!(
        "{}-{}",
        args.workload,
        std::process::id()
    ));
    let outcome = std::fs::create_dir_all(&dir)
        .map_err(|e| format!("creating {}: {e}", dir.display()))
        .and_then(|()| run(&args, &dir));
    let _ = std::fs::remove_dir_all(&dir);
    match outcome {
        Ok(report) => {
            println!("{}", report.to_json());
            std::process::exit(if report.correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// SplitMix64: the workload's inputs are a pure function of `--seed`.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// `n` request rows near the training data: a random training row with
/// each feature moved by up to ±10% of its column's spread.
fn request_rows(data: &Dataset, rng: &mut Rng, n: usize) -> Vec<f64> {
    let (rows, cols) = (data.x.rows(), data.x.cols());
    let spread: Vec<f64> = (0..cols)
        .map(|j| {
            let col: Vec<f64> = (0..rows).map(|i| data.x.row(i)[j]).collect();
            let mean = stats::mean(&col);
            (col.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / rows as f64).sqrt()
        })
        .collect();
    let mut out = Vec::with_capacity(n * cols);
    for _ in 0..n {
        let base = data.x.row(rng.below(rows));
        out.extend(base.iter().zip(&spread).map(|(v, s)| v + (rng.unit() - 0.5) * 0.2 * s));
    }
    out
}

fn json_body(rows: &[f64], cols: usize) -> String {
    let mut body = String::with_capacity(rows.len() * 22 + 16);
    body.push_str("{\"rows\":[");
    for (i, row) in rows.chunks(cols).enumerate() {
        body.push_str(if i == 0 { "[" } else { ",[" });
        for (j, v) in row.iter().enumerate() {
            if j > 0 {
                body.push(',');
            }
            body.push_str(&v.to_string());
        }
        body.push(']');
    }
    body.push_str("]}");
    body
}

fn scores(model: &ServedModel, rows: &[f64]) -> Vec<f64> {
    let cols = model.input_dim();
    let m =
        uadb_linalg::Matrix::from_vec(rows.len() / cols, cols, rows.to_vec()).expect("whole rows");
    model.score_rows(&m).expect("in-process scoring")
}

/// The workload's score requests, with the rows and JSON bodies the
/// traced run times the layers on.
struct Traffic {
    reqs: Vec<Request>,
    batches: Vec<Vec<f64>>,
    bodies: Vec<String>,
}

fn build_traffic(workload: &str, data: &Dataset, model: &ServedModel, rng: &mut Rng) -> Traffic {
    let cols = model.input_dim();
    let (n_reqs, rows) = if workload == "score_rows8192_json" { (3, BIG_ROWS) } else { (512, 1) };
    let mut t = Traffic { reqs: Vec::new(), batches: Vec::new(), bodies: Vec::new() };
    for _ in 0..n_reqs {
        let batch = request_rows(data, rng, rows);
        let body = json_body(&batch, cols);
        t.reqs.push(Request::json_score("/score/a", &body, &scores(model, &batch)));
        t.batches.push(batch);
        t.bodies.push(body);
    }
    t
}

/// Runs the workload's own traffic for `seconds`: back-to-back batches
/// on one connection for `score_rows8192_json`, otherwise 1-row
/// requests at `ROWS1_RATE` over `conns` connections.
fn drive(
    workload: &str,
    addr: std::net::SocketAddr,
    reqs: &[Request],
    seconds: f64,
    conns: usize,
    rng: &mut Rng,
) -> LoadResult {
    let n = reqs.len();
    if workload == "score_rows8192_json" {
        let order: Vec<usize> = (0..100_000).map(|_| rng.below(n)).collect();
        return client::closed_loop(addr, reqs, &order, 1, Duration::from_secs_f64(seconds));
    }
    let gap = Duration::from_secs_f64(1.0 / ROWS1_RATE);
    let count = (seconds * ROWS1_RATE) as u32;
    let schedule: Vec<_> = (0..count).map(|i| (gap * i, rng.below(n))).collect();
    client::open_loop(addr, reqs, &schedule, conns)
}

/// A named metric with its unit, in output order.
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Metrics,
}

impl Report {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .0
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { value.to_string() } else { "null".to_string() };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Failed checks, each printed as it happens.
#[derive(Default)]
struct Checks(Vec<String>);

impl Checks {
    fn require(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            let what = what.into();
            println!("# CHECK FAILED: {what}");
            self.0.push(what);
        }
    }
}

fn read(path: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("reading {}: {e}", path.display()))
}

fn run(args: &Args, dir: &Path) -> Result<Report, String> {
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let steps = if args.quick { 1 } else { uadb::UadbConfig::default().t_steps };
    let bin = &args.server_bin;
    let workload = args.workload.as_str();
    let mut rng = Rng(args.seed ^ 0x7065_7266_6265_6e63);
    let mut checks = Checks::default();
    let train_args = |out: &Path| -> Vec<String> {
        let mut v: Vec<String> = ["--dataset", layers::DATASET, "--scale", "full"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        v.extend(["--teacher".into(), "iforest".into(), "--out".into()]);
        v.push(out.display().to_string());
        v.extend(["--train-workers".into(), nproc.to_string(), "--seed".into()]);
        v.extend([layers::FIT_SEED.to_string(), "--steps".into(), steps.to_string()]);
        v
    };

    // Fit: `uadb-serve train` at paper defaults, at least twice so that
    // `fit_s` is never one sample; `fit_cardio` repeats it for the run's
    // seconds. Every repeat must write the same bytes.
    let (min_fits, fit_seconds) = match workload {
        "fit_cardio" if !args.quick => (3, args.seconds),
        _ => (2, 0.0),
    };
    let a_path = dir.join("a.uadb");
    let rep_path = dir.join("a-rep.uadb");
    let fit_started = Instant::now();
    let first = child::train(bin, &train_args(&a_path))?;
    let a_bytes = read(&a_path)?;
    let mut fit_s = vec![first.wall_s];
    let mut train_rss_kb = first.peak_rss_kb;
    while fit_s.len() < min_fits || fit_started.elapsed().as_secs_f64() < fit_seconds {
        let rep = child::train(bin, &train_args(&rep_path))?;
        fit_s.push(rep.wall_s);
        train_rss_kb = train_rss_kb.max(rep.peak_rss_kb);
        checks.require(read(&rep_path)? == a_bytes, "repeated fit wrote different model bytes");
    }
    let fit_median = stats::median(&fit_s);
    println!("# train: {}", first.stdout.lines().last().unwrap_or(""));
    println!("# fit_s median {fit_median:.4} over {} fits", fit_s.len());

    let data = layers::dataset();
    let model = Arc::new(persist::load_file(&a_path).map_err(|e| format!("loading: {e}"))?);
    let train_scores = model.score_rows(&data.x).map_err(|e| format!("self-scoring: {e}"))?;
    let auroc = uadb_metrics::roc_auc(&data.labels_f64(), &train_scores);
    checks.require((0.0..=1.0).contains(&auroc), format!("AUROC {auroc} outside [0, 1]"));

    let traffic = build_traffic(workload, &data, &model, &mut rng);
    let cols = model.input_dim();
    let verify = [
        Request::json_score("/score/a", &json_body(data.x.as_slice(), cols), &train_scores),
        Request::binary_score("/score/a", data.x.as_slice(), cols, &train_scores),
    ];

    let mut attempted = fit_s.len();
    let mut failed = 0;
    let mut account = |r: &LoadResult| {
        attempted += r.samples.len();
        failed += r.failed();
    };

    // Set-up: start the server several times and keep the last one. The
    // untraced run probes reloads on the others, and each reloaded model
    // must still score the training set exactly; the kept server is not
    // probed, so its peak memory is the traffic's alone.
    let serve_args: Vec<String> = ["--model", &format!("a={}", a_path.display())]
        .into_iter()
        .chain(["--workers", &nproc.to_string()])
        .map(String::from)
        .collect();
    let starts = if args.trace { 1 } else { SERVER_STARTS };
    let mut setup_s = Vec::new();
    let mut probes = Vec::new();
    let mut server = None;
    for i in 0..starts {
        let (s, took) = Server::start(bin, &serve_args)?;
        setup_s.push(took);
        if i + 1 < starts {
            let probe = reload_probe(s.addr);
            account(&probe);
            probes.push(probe);
            let verified = verify_training_set(s.addr, &verify);
            account(&verified);
            checks.require(verified.failed() == 0, "a reloaded model scores differently");
        }
        server = Some(s);
    }
    let server = server.expect("at least one start");
    let addr = server.addr;

    let seconds = match workload {
        "fit_cardio" if args.quick => SMOKE_SECONDS / 10.0,
        "fit_cardio" => SMOKE_SECONDS,
        _ => args.seconds,
    };
    let mut report = Metrics(Vec::new());

    if !args.trace {
        let main = drive(workload, addr, &traffic.reqs, seconds, nproc, &mut rng);
        account(&main);
        // Peak memory of the child doing the workload's work.
        let rss_kb = if workload == "fit_cardio" {
            train_rss_kb
        } else {
            proc_status(server.pid(), "VmHWM").unwrap_or(0)
        };
        let verified = verify_training_set(addr, &verify);
        account(&verified);
        checks.require(verified.failed() == 0, "training-set scores over HTTP differ");
        print_machine(&server, nproc);

        let samples: Vec<(u64, f64)> =
            main.score_samples().map(|s| (s.done_ns, s.latency_ns as f64 / 1e3)).collect();
        let lat = stats::summarize_windowed(&samples, (main.wall_s * 1e9) as u64);
        let reload_ms = |p: &LoadResult| -> Vec<f64> {
            p.samples.iter().map(|s| s.service_ns as f64 / 1e6).collect()
        };
        let reloads: Vec<f64> = probes.iter().flat_map(reload_ms).collect();
        let reload_p90s: Vec<f64> =
            probes.iter().map(|p| stats::quantile(&reload_ms(p), 0.9)).collect();
        let (reload_iqm, reload_p90) = (stats::iqm(&reloads), stats::median(&reload_p90s));
        let setup = stats::median(&setup_s);
        println!(
            "# latency over {} requests: p50 {:.1} us, iqm {:.1} us, windowed p90 {:.1} us, \
             p{:.2} {:.1} us; {} connections",
            lat.n, lat.median, lat.iqm, lat.p90, lat.tail_pct, lat.tail, main.connects
        );
        println!(
            "# reload over {} calls on {} servers: p50 {:.3} ms, iqm {reload_iqm:.3} ms, \
             median per-server p90 {reload_p90:.3} ms",
            reloads.len(),
            probes.len(),
            stats::median(&reloads)
        );
        println!("# setup_s median of {} server starts: {setup:.4}", setup_s.len());
        report.put("setup_s", setup, "s");
        report.put("fit_s", fit_median, "s");
        report.put("booster_auroc", auroc, "auroc");
        report.put("latency_iqm_us", lat.iqm, "us");
        report.put("rows_per_s", main.scored_rows() as f64 / main.wall_s, "1/s");
        report.put("reload_iqm_ms", reload_iqm, "ms");
        report.put("success_pct", 100.0 * (1.0 - failed as f64 / attempted as f64), "%");
        report.put("peak_rss_mb", rss_kb as f64 / 1024.0, "MB");
    } else {
        // Traced fit in this process; it must write the CLI's bytes.
        let traced_path = dir.join("a-traced.uadb");
        let ft = layers::traced_fit(steps, nproc, &traced_path)?;
        checks.require(read(&traced_path)? == a_bytes, "traced fit wrote different model bytes");

        // Traffic: the first half untraced, the second half with the
        // server's counters scraped around it. The server's threads are
        // sampled through that half and a reload probe after it.
        let half = seconds / 2.0;
        let plain = drive(workload, addr, &traffic.reqs, half, nproc, &mut rng);
        account(&plain);
        let before = Scrape::take(&server)?;
        let stop = AtomicBool::new(false);
        let peak_threads = AtomicU64::new(0);
        let (traced, wall_ns, after, probe) = std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    if let Some(n) = proc_status(server.pid(), "Threads") {
                        peak_threads.fetch_max(n, Ordering::Relaxed);
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
            let started = Instant::now();
            let r = drive(workload, addr, &traffic.reqs, half, nproc, &mut rng);
            let wall_ns = started.elapsed().as_nanos() as f64;
            let after = Scrape::take(&server);
            let probe = reload_probe(addr);
            stop.store(true, Ordering::Relaxed);
            (r, wall_ns, after, probe)
        });
        let after = after?;
        account(&traced);
        account(&probe);
        let verified = verify_training_set(addr, &verify);
        account(&verified);
        checks.require(verified.failed() == 0, "a reloaded model scores differently");
        print_machine(&server, nproc);
        drop(server);

        let rl = layers::request_layers(&a_path, &model, &traffic.batches, &traffic.bodies, nproc);
        let delta = |name: &str, label: &str| after.sum(name, label) - before.sum(name, label);
        let requests = delta("uadb_http_requests_total", "").max(1.0);
        let score_requests = delta("uadb_model_requests_total", "").max(1.0);
        // Mean per request of the server's own stage timers. Head and
        // body reads are one metric: a body that arrives with its head
        // takes no measurable body-read time, and a stage that reads
        // exactly 0 on every run is no measurement.
        let stage_us = |stages: &[&str]| -> f64 {
            stages
                .iter()
                .map(|s| delta("uadb_stage_duration_seconds_sum", &format!("stage=\"{s}\"")))
                .sum::<f64>()
                * 1e6
                / requests
        };
        let stages: [(&str, &[&str]); 6] = [
            ("server.read_us", &["head_read", "body_read"]),
            ("server.parse_us", &["parse"]),
            ("server.queue_wait_us", &["queue_wait"]),
            ("server.score_us", &["score"]),
            ("server.serialize_us", &["serialize"]),
            ("server.write_flush_us", &["write_flush"]),
        ];
        let service = |r: &LoadResult| {
            stats::mean(&r.score_samples().map(|s| s.service_ns as f64 / 1e3).collect::<Vec<_>>())
        };
        let latency = |r: &LoadResult| {
            stats::iqm(&r.score_samples().map(|s| s.latency_ns as f64 / 1e3).collect::<Vec<_>>())
        };
        let client_us = service(&traced);
        let stage_sum: f64 = stages.iter().map(|(_, s)| stage_us(s)).sum();
        let late: Vec<f64> = traced.score_samples().map(|s| s.late_ns as f64 / 1e3).collect();
        let fit_ms = fit_median * 1e3;
        println!(
            "# fit spans cover {:.1} of {:.1} ms; server stages cover {:.1} of {:.1} us per request",
            ft.wall_ms, fit_ms, stage_sum, client_us
        );

        report.put("data.generate_ms", ft.generate_ms, "ms");
        report.put("data.standardize_ms", ft.standardize_ms, "ms");
        report.put("detectors.teacher_fit_ms", ft.teacher_fit_ms, "ms");
        report.put("nn.train_ms", ft.nn_train_ms, "ms");
        report.put("nn.epochs", ft.nn_epochs as f64, "count");
        report.put("nn.train_gflops", ft.nn_gflop / (ft.nn_train_ms / 1e3), "GFLOP/s");
        report.put("core.fit_other_ms", ft.fit_other_ms, "ms");
        report.put("model.self_score_ms", ft.self_score_ms, "ms");
        report.put("persist.save_ms", ft.save_ms, "ms");
        report.put("persist.load_ms", rl.load_ms, "ms");
        report.put("persist.model_bytes", a_bytes.len() as f64, "bytes");
        report.put("json.parse_us", rl.json_parse_us, "us");
        report.put("json.serialize_us", rl.json_serialize_us, "us");
        report.put("model.score_us", rl.model_score_us, "us");
        report.put("model.gemm_gflops", rl.model_gemm_gflops, "GFLOP/s");
        report.put("pool.score_us", rl.pool_score_us, "us");
        report.put("pool.handoff_us", rl.pool_score_us - rl.model_score_us, "us");
        report.put(
            "pool.shards_per_request",
            delta("uadb_pool_shards_total", "") / score_requests,
            "count",
        );
        report.put(
            "pool.busy_share",
            delta("uadb_pool_worker_busy_nanoseconds_total", "") / (wall_ns * nproc as f64),
            "share",
        );
        report.put("pool.new_ms", rl.pool_new_ms, "ms");
        report.put("pool.drop_ms", rl.pool_drop_ms, "ms");
        for (name, stage) in stages {
            report.put(name, stage_us(stage), "us");
        }
        report.put("server.unattributed_us", client_us - stage_sum, "us");
        report.put(
            "reactor.events_per_request",
            delta("uadb_reactor_events_total", "") / requests,
            "count",
        );
        report.put("server.threads", peak_threads.load(Ordering::Relaxed) as f64, "count");
        report.put("client.late_us", stats::tail(&late), "us");
        report.put("client.service_us", client_us, "us");
        let samples: Vec<(u64, f64)> =
            traced.score_samples().map(|s| (s.done_ns, s.latency_ns as f64 / 1e3)).collect();
        let traced_p90 = stats::summarize_windowed(&samples, (traced.wall_s * 1e9) as u64).p90;
        report.put("client.latency_p90_us", traced_p90, "us");
        report.put("client.connections", (plain.connects + traced.connects) as f64, "count");
        report.put("fit.unattributed_share", 1.0 - ft.wall_ms / fit_ms, "share");
        report.put("score.unattributed_share", 1.0 - stage_sum / client_us, "share");
        report.put("trace.overhead_share", latency(&traced) / latency(&plain) - 1.0, "share");
    }

    Ok(Report { correct: checks.0.is_empty() && failed == 0, attempted, failed, metrics: report })
}

/// Scores the training set once as JSON and once as binary rows.
fn verify_training_set(addr: std::net::SocketAddr, verify: &[Request]) -> LoadResult {
    client::closed_loop(addr, verify, &[0, 1], 1, Duration::from_secs(60))
}

/// Paced reloads of `a` with no other traffic.
fn reload_probe(addr: std::net::SocketAddr) -> LoadResult {
    let reqs = [Request::admin("/admin/reload/a")];
    let schedule: Vec<_> = (0..RELOAD_PROBE).map(|i| (RELOAD_PROBE_EVERY * i, 0)).collect();
    client::open_loop(addr, &reqs, &schedule, 1)
}

/// Prints the machine and the server's resolved sizing.
fn print_machine(server: &Server, nproc: usize) {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines().find_map(|l| {
                Some(l.strip_prefix("model name")?.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string());
    let number_after = |text: &str, key: &str| -> String {
        text.split(key)
            .nth(1)
            .map(|r| r.chars().take_while(|c| c.is_ascii_digit()).collect())
            .unwrap_or_else(|| "?".to_string())
    };
    let shards =
        server.get("/healthz").map(|t| number_after(&t, "\"shards\":")).unwrap_or_default();
    let workers =
        server.get("/model/a").map(|t| number_after(&t, "\"workers\":")).unwrap_or_default();
    let isa = Scrape::take(server)
        .ok()
        .and_then(|s| {
            ["avx512", "avx", "portable"]
                .into_iter()
                .find(|isa| s.sum("uadb_gemm_calls_total", &format!("isa=\"{isa}\"")) > 0.0)
        })
        .unwrap_or("none");
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    println!(
        "# machine: nproc {nproc}, cpu \"{cpu}\", gemm isa {isa}, shards {shards}, \
         scoring workers {workers}, commit {commit}"
    );
}
