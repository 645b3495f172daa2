//! The `uadb-serve` command line: `train`, `score`, `serve`.
//!
//! Argument parsing is hand-rolled (`--flag value` pairs only) to stay
//! dependency-free; every subcommand funnels into the library API, so
//! the binary is a thin shell over [`crate::model`], [`crate::persist`]
//! and [`crate::http`].

use crate::http::{Server, ServerConfig};
use crate::json;
use crate::model::ServedModel;
use crate::persist;
use crate::pool::PoolConfig;
use crate::registry::{self, ModelRegistry};
use crate::telemetry;
use std::sync::Arc;
use std::time::Duration;
use uadb::UadbConfig;
use uadb_data::io::{read_csv_file, LabelColumn};
use uadb_data::suite::{generate_by_name, SuiteScale};
use uadb_data::synth::{fig5_dataset, AnomalyType};
use uadb_data::Dataset;
use uadb_detectors::DetectorKind;
use uadb_metrics::roc_auc;
use uadb_telemetry::{log::logger, Level};

/// Usage text shown on `--help` or argument errors.
pub const USAGE: &str = "\
uadb-serve — persistence and batch-scoring server for UADB models

USAGE:
  uadb-serve train --out FILE [--save-teacher FILE]
                   [--dataset NAME | --synthetic TYPE | --csv FILE]
                   [--teacher KIND] [--seed N] [--steps N] [--scale quick|full]
                   [--train-workers N] [--label-last]
  uadb-serve score --model FILE (--csv FILE | --json JSON) [--label-last] [--out FILE]
  uadb-serve serve --model [NAME=]FILE[,TEACHER_FILE] [--model ...] [--default NAME]
                   [--addr HOST:PORT] [--workers N] [--shard-rows N]
                   [--max-conns N] [--max-requests N] [--idle-timeout-ms N]
                   [--shards N]
                   [--log-level error|warn|info|debug]
                   [--log-json] [--slow-ms N] [--drift-warn-psi T]
  uadb-serve info  --model FILE

SUBCOMMANDS:
  train   Fit a teacher + UADB booster and write a versioned model file.
          --save-teacher FILE additionally snapshots the *fitted* teacher
          (trees, bases, tail tables, …) so the server can A/B it against
          the booster. Datasets: a suite roster name (--dataset 39_thyroid),
          a synthetic anomaly type (--synthetic
          local|global|clustered|dependency), or a numeric CSV (--csv
          data.csv, --label-last if the last column is a 0/1 label used only
          for the AUC report). --train-workers N splits each booster fit
          across N threads (default 1; 0 = all cores) with bit-identical
          trained weights for every value.
  score   Load a model file and score rows from a CSV file or an inline
          JSON array of rows; writes `row,score` CSV to stdout or --out.
  serve   Serve one or more model files over keep-alive HTTP/1.1 (Linux
          only). --model is repeatable; NAME=FILE registers FILE under NAME
          (a bare FILE is registered as `default`), and FILE,TEACHER_FILE
          attaches a teacher snapshot so
          POST /score/NAME?variant=teacher|booster|both serves the paper's
          comparison live. Bare POST /score routes to the default model
          (--default NAME overrides; otherwise the first --model). Every
          model scores on one process-wide set of --workers threads
          (default: one per core), in shards of at most --shard-rows rows.
          Connections are driven by N sharded epoll event loops, so
          --max-conns can grow past thread counts; --shards N sets N
          (default: min(cores, scoring workers)). POST /score also
          accepts the binary row payload (Content-Type:
          application/x-uadb-rows; see README wire-protocol spec) and
          answers with raw little-endian scores. Endpoints:
          POST /score[/NAME][?variant=...], GET /model[/NAME],
          GET /models, POST /admin/reload/NAME,
          POST|DELETE /admin/teacher/NAME (attach/detach a teacher
          snapshot at runtime from {\"path\": ...}), GET /healthz (live
          stats: backend, open connections, per-model request counts,
          latency percentiles), GET /metrics (Prometheus text
          exposition: stage histograms, pool gauges, per-model
          counters, teacher/booster divergence, score/feature drift),
          GET /admin/slow (the last requests slower than --slow-ms,
          with per-stage breakdowns), GET /admin/drift[/NAME] (live
          model-quality report: PSI vs. the training baseline,
          per-feature standardized mean shifts, anomaly rates) and
          POST /admin/drift/NAME/reset (start a fresh live window).
          --log-level sets stderr verbosity (default warn), --log-json
          switches log lines to JSON, --slow-ms sets the slow-request
          capture threshold (default 100), --drift-warn-psi T emits a
          rate-limited warn log when any model's score PSI exceeds T
          (default: off).
  info    Print a model or teacher-snapshot file's metadata as JSON.

Teachers: IForest HBOS LOF KNN PCA OCSVM CBLOF COF SOD ECOD GMM LODA COPOD
DeepSVDD (case-insensitive; default IForest).
";

/// A fatal CLI error carrying the message to print.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Runs the CLI on pre-split arguments (without the program name).
/// Returns the process exit code.
pub fn run(args: &[String]) -> i32 {
    match dispatch(args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{USAGE}");
            1
        }
    }
}

fn dispatch(args: &[String]) -> Result<(), CliError> {
    let (cmd, rest) = args.split_first().ok_or_else(|| err("missing subcommand"))?;
    if cmd == "--help" || cmd == "-h" || cmd == "help" {
        println!("{USAGE}");
        return Ok(());
    }
    let flags = Flags::parse(rest)?;
    match cmd.as_str() {
        "train" => train(&flags),
        "score" => score(&flags),
        "serve" => serve(&flags),
        "info" => info(&flags),
        other => Err(err(format!("unknown subcommand `{other}`"))),
    }
}

/// `--name value` flag pairs.
struct Flags {
    pairs: Vec<(String, String)>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Self, CliError> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(name) = it.next() {
            let name = name
                .strip_prefix("--")
                .ok_or_else(|| err(format!("expected --flag, got `{name}`")))?;
            // Boolean flags take no value.
            if name == "label-last" || name == "log-json" {
                pairs.push((name.to_string(), "true".to_string()));
                continue;
            }
            let value = it.next().ok_or_else(|| err(format!("flag --{name} needs a value")))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Self { pairs })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs.iter().rev().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// All values of a repeatable flag, in the order given.
    fn get_all(&self, name: &str) -> Vec<&str> {
        self.pairs.iter().filter(|(n, _)| n == name).map(|(_, v)| v.as_str()).collect()
    }

    fn require(&self, name: &str) -> Result<&str, CliError> {
        self.get(name).ok_or_else(|| err(format!("missing required --{name}")))
    }

    fn parse_num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| err(format!("--{name} got unparsable value `{v}`"))),
        }
    }
}

fn load_training_data(flags: &Flags) -> Result<Dataset, CliError> {
    let scale = match flags.get("scale").unwrap_or("quick") {
        "quick" => SuiteScale::Quick,
        "full" => SuiteScale::Full,
        other => return Err(err(format!("--scale must be quick|full, got `{other}`"))),
    };
    let seed = flags.parse_num("seed", 0u64)?;
    let sources = ["dataset", "synthetic", "csv"].iter().filter(|s| flags.get(s).is_some()).count();
    if sources > 1 {
        return Err(err("--dataset, --synthetic and --csv are mutually exclusive"));
    }
    if let Some(name) = flags.get("dataset") {
        return generate_by_name(name, scale, seed).ok_or_else(|| {
            err(format!("unknown roster dataset `{name}` (see Table III names like 39_thyroid)"))
        });
    }
    if let Some(ty) = flags.get("synthetic") {
        let ty = match ty.to_ascii_lowercase().as_str() {
            "local" => AnomalyType::Local,
            "global" => AnomalyType::Global,
            "clustered" => AnomalyType::Clustered,
            "dependency" => AnomalyType::Dependency,
            other => {
                return Err(err(format!(
                    "--synthetic must be local|global|clustered|dependency, got `{other}`"
                )))
            }
        };
        return Ok(fig5_dataset(ty, seed));
    }
    if let Some(path) = flags.get("csv") {
        let labels =
            if flags.get("label-last").is_some() { LabelColumn::Last } else { LabelColumn::None };
        return read_csv_file(path, labels).map_err(|e| err(format!("reading {path}: {e}")));
    }
    Err(err("pick a training source: --dataset, --synthetic or --csv"))
}

fn train(flags: &Flags) -> Result<(), CliError> {
    let out = flags.require("out")?;
    let teacher = match flags.get("teacher") {
        None => DetectorKind::IForest,
        Some(name) => {
            DetectorKind::from_name(name).ok_or_else(|| err(format!("unknown teacher `{name}`")))?
        }
    };
    let seed = flags.parse_num("seed", 0u64)?;
    let train_workers = flags.parse_num("train-workers", 1usize)?;
    let data = load_training_data(flags)?;
    let mut cfg = UadbConfig::with_seed(seed);
    cfg.t_steps = flags.parse_num("steps", cfg.t_steps)?;
    if cfg.t_steps == 0 {
        return Err(err("--steps must be at least 1 (0 would write an untrained model)"));
    }
    println!(
        "training UADB on {} ({} rows × {} features), teacher {} …",
        data.name,
        data.n_samples(),
        data.n_features(),
        teacher.name()
    );
    let (served, fitted_teacher) =
        ServedModel::train_with_teacher_workers(&data, teacher, cfg, train_workers)
            .map_err(|e| err(format!("teacher failed: {e}")))?;
    // Ground-truth labels, when present, are used for reporting only.
    if data.n_anomalies() > 0 {
        let scores =
            served.score_rows(&data.x).map_err(|e| err(format!("self-scoring failed: {e}")))?;
        let auc = roc_auc(&data.labels_f64(), &scores);
        println!("training-set AUCROC (evaluation only): {auc:.4}");
    }
    persist::save_file(&served, out).map_err(|e| err(format!("writing {out}: {e}")))?;
    println!("wrote {out}");
    if let Some(teacher_out) = flags.get("save-teacher") {
        persist::save_teacher_file(&fitted_teacher, teacher_out)
            .map_err(|e| err(format!("writing {teacher_out}: {e}")))?;
        println!("wrote teacher snapshot {teacher_out}");
    }
    Ok(())
}

fn load_model(flags: &Flags) -> Result<ServedModel, CliError> {
    let path = flags.require("model")?;
    persist::load_file(path).map_err(|e| err(format!("loading {path}: {e}")))
}

fn score(flags: &Flags) -> Result<(), CliError> {
    let served = load_model(flags)?;
    let x = match (flags.get("csv"), flags.get("json")) {
        (Some(_), Some(_)) => return Err(err("--csv and --json are mutually exclusive")),
        (Some(path), None) => {
            // --label-last mirrors `train`: the same labelled CSV can be
            // scored without stripping its label column first.
            let labels = if flags.get("label-last").is_some() {
                LabelColumn::Last
            } else {
                LabelColumn::None
            };
            read_csv_file(path, labels).map_err(|e| err(format!("reading {path}: {e}")))?.x
        }
        (None, Some(text)) => match json::read_rows_array(text.as_bytes()) {
            Some(x) => x,
            // Not a canonical `[[…]]`: the generic parser says what is
            // wrong with it.
            None => {
                let rows = json::parse(text).map_err(|e| err(format!("--json: {e}")))?;
                let rows =
                    rows.as_array().ok_or_else(|| err("--json must be an array of row arrays"))?;
                crate::http::rows_to_matrix(rows).map_err(err)?
            }
        },
        (None, None) => return Err(err("pick an input: --csv FILE or --json '[[…]]'")),
    };
    let scores = served.score_rows(&x).map_err(|e| err(format!("scoring failed: {e}")))?;
    match flags.get("out") {
        None => {
            uadb_data::io::write_scores(std::io::stdout().lock(), &scores)
                .map_err(|e| err(format!("writing stdout: {e}")))?;
        }
        Some(path) => {
            let file =
                std::fs::File::create(path).map_err(|e| err(format!("creating {path}: {e}")))?;
            uadb_data::io::write_scores(file, &scores)
                .map_err(|e| err(format!("writing {path}: {e}")))?;
            println!("wrote {} scores to {path}", scores.len());
        }
    }
    Ok(())
}

/// Splits a `--model` value into `(name, path, teacher_path)`:
/// `NAME=FILE` names the model explicitly, a bare `FILE` registers as
/// `default`, and `FILE,TEACHER_FILE` attaches a teacher snapshot.
fn parse_model_flag(value: &str) -> Result<(&str, &str, Option<&str>), CliError> {
    let (name, files) = match value.split_once('=') {
        Some((name, files)) => {
            if !registry::is_valid_name(name) {
                return Err(err(format!(
                    "invalid model name `{name}` (want 1-{} chars of [A-Za-z0-9._-])",
                    registry::MAX_NAME_LEN
                )));
            }
            (name, files)
        }
        None => ("default", value),
    };
    let (path, teacher) = match files.split_once(',') {
        Some((path, teacher)) => {
            if teacher.is_empty() {
                return Err(err(format!("--model {value}: empty teacher path")));
            }
            (path, Some(teacher))
        }
        None => (files, None),
    };
    if path.is_empty() {
        return Err(err(format!("--model {value}: empty path")));
    }
    Ok((name, path, teacher))
}

fn serve(flags: &Flags) -> Result<(), CliError> {
    let model_flags = flags.get_all("model");
    if model_flags.is_empty() {
        return Err(err("missing required --model (repeatable; NAME=FILE or FILE)"));
    }
    let pool_cfg = PoolConfig {
        workers: flags.parse_num("workers", 0usize)?,
        shard_rows: flags.parse_num("shard-rows", PoolConfig::default().shard_rows)?,
    };
    let registry = Arc::new(ModelRegistry::new(pool_cfg.clone()));
    let mut first_name: Option<String> = None;
    for value in model_flags {
        let (name, path, teacher) = parse_model_flag(value)?;
        if registry.get(name).is_some() {
            return Err(err(format!("model name `{name}` given twice")));
        }
        registry
            .insert_from_files(name, path, teacher)
            .map_err(|e| err(format!("loading {path}: {e}")))?;
        first_name.get_or_insert_with(|| name.to_string());
    }
    // Bare /score routes to --default, or the first --model.
    let default_name = match flags.get("default") {
        Some(name) => name.to_string(),
        None => first_name.expect("at least one model registered"),
    };
    registry
        .set_default(&default_name)
        .map_err(|_| err(format!("--default {default_name} does not name a --model")))?;

    let defaults = ServerConfig::default();
    // `--shards 0` (the default) auto-sizes to min(cores, scoring
    // workers): more reactor loops than cores just contend, and more
    // than scoring workers cannot be fed. Explicit values are taken
    // as-is.
    let shards = match flags.parse_num("shards", 0usize)? {
        0 => {
            let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
            let workers = if pool_cfg.workers == 0 { cores } else { pool_cfg.workers };
            cores.min(workers).max(1)
        }
        n => n,
    };
    let server_cfg = ServerConfig {
        max_connections: flags.parse_num("max-conns", defaults.max_connections)?,
        max_requests_per_conn: flags.parse_num("max-requests", defaults.max_requests_per_conn)?,
        idle_timeout: Duration::from_millis(
            flags.parse_num("idle-timeout-ms", defaults.idle_timeout.as_millis() as u64)?,
        ),
        io_timeout: defaults.io_timeout,
        shards,
    };
    if server_cfg.max_connections == 0 || server_cfg.max_requests_per_conn == 0 {
        return Err(err("--max-conns and --max-requests must be at least 1"));
    }
    if server_cfg.idle_timeout.is_zero() {
        // A zero read timeout cannot be set on a socket; it would mean
        // "no timeout", the opposite of what the operator asked for.
        return Err(err("--idle-timeout-ms must be at least 1"));
    }

    // Telemetry plane knobs: stderr verbosity/format and the slow-request
    // capture threshold.
    if let Some(name) = flags.get("log-level") {
        let level = Level::parse(name).ok_or_else(|| {
            err(format!("--log-level must be error|warn|info|debug, got `{name}`"))
        })?;
        logger().set_level(level);
    }
    if flags.get("log-json").is_some() {
        logger().set_json(true);
    }
    let slow_ms = flags.parse_num("slow-ms", 100u64)?;
    telemetry::metrics().set_slow_threshold_ms(slow_ms);
    let drift_warn = flags.parse_num("drift-warn-psi", f64::INFINITY)?;
    if drift_warn.is_finite() {
        if drift_warn <= 0.0 {
            return Err(err("--drift-warn-psi must be positive (PSI alert bands start ~0.1)"));
        }
        telemetry::metrics().set_drift_warn_psi(drift_warn);
    }

    let addr = flags.get("addr").unwrap_or("127.0.0.1:7878");
    let server = Server::bind(addr, Arc::clone(&registry), server_cfg)
        .map_err(|e| err(format!("binding {addr}: {e}")))?;
    println!(
        "serving {} model(s) [default: {default_name}] on http://{} (epoll, {shards} shard(s))",
        registry.len(),
        server.local_addr().map_err(|e| err(e.to_string()))?,
    );
    println!(
        "endpoints: POST /score[/NAME], GET /model[/NAME], GET /models, \
         POST /admin/reload/NAME, POST|DELETE /admin/teacher/NAME, GET /healthz, \
         GET /metrics, GET /admin/slow, GET /admin/drift[/NAME], \
         POST /admin/drift/NAME/reset"
    );
    server.run().map_err(|e| err(format!("server failed: {e}")))
}

fn info(flags: &Flags) -> Result<(), CliError> {
    let path = flags.require("model")?;
    // Same serializers as `GET /model`, so the CLI and the server can
    // never drift apart on what a model file contains. `info` accepts
    // either record type; `score`/`serve` stay booster-first.
    let record =
        persist::load_record_file(path).map_err(|e| err(format!("loading {path}: {e}")))?;
    let doc = match &record {
        persist::Record::Booster(served) => crate::http::model_info(served, None),
        persist::Record::Teacher(teacher) => crate::http::teacher_info(teacher),
    };
    println!("{}", json::to_string(&doc));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_parse_pairs_and_booleans() {
        let args: Vec<String> = ["--out", "m.uadb", "--label-last", "--seed", "7"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let f = Flags::parse(&args).unwrap();
        assert_eq!(f.get("out"), Some("m.uadb"));
        assert_eq!(f.get("label-last"), Some("true"));
        assert_eq!(f.parse_num("seed", 0u64).unwrap(), 7);
        assert_eq!(f.parse_num("steps", 5usize).unwrap(), 5);
        assert!(f.require("model").is_err());
    }

    #[test]
    fn flags_reject_malformed_input() {
        let bad: Vec<String> = vec!["out".into()];
        assert!(Flags::parse(&bad).is_err());
        let dangling: Vec<String> = vec!["--out".into()];
        assert!(Flags::parse(&dangling).is_err());
    }

    #[test]
    fn model_flag_values_parse() {
        assert_eq!(parse_model_flag("m.uadb").unwrap(), ("default", "m.uadb", None));
        assert_eq!(
            parse_model_flag("fraud=models/fraud.uadb").unwrap(),
            ("fraud", "models/fraud.uadb", None)
        );
        assert_eq!(
            parse_model_flag("fraud=m.uadb,t.uadb").unwrap(),
            ("fraud", "m.uadb", Some("t.uadb"))
        );
        assert_eq!(
            parse_model_flag("m.uadb,t.uadb").unwrap(),
            ("default", "m.uadb", Some("t.uadb"))
        );
        assert!(parse_model_flag("bad name=x.uadb").is_err());
        assert!(parse_model_flag("=x.uadb").is_err());
        assert!(parse_model_flag("a=").is_err());
        assert!(parse_model_flag("a=x.uadb,").is_err());
        assert!(parse_model_flag(",t.uadb").is_err());
        let args: Vec<String> =
            ["--model", "a=1.uadb", "--model", "b=2.uadb"].iter().map(|s| s.to_string()).collect();
        let f = Flags::parse(&args).unwrap();
        assert_eq!(f.get_all("model"), vec!["a=1.uadb", "b=2.uadb"]);
        assert_eq!(f.get_all("nope"), Vec::<&str>::new());
    }

    #[test]
    fn serve_flag_validation() {
        let none = Flags::parse(&[]).unwrap();
        assert!(serve(&none).unwrap_err().0.contains("--model"));
        let dup: Vec<String> =
            ["--model", "a=x.uadb", "--model", "a=y.uadb"].iter().map(|s| s.to_string()).collect();
        // Duplicate names fail before any file I/O only if the first
        // load succeeds, so here the missing file errors first; both are
        // rejections either way.
        assert!(serve(&Flags::parse(&dup).unwrap()).is_err());
    }

    #[test]
    fn info_document_reports_the_train_baseline() {
        let data = fig5_dataset(AnomalyType::Clustered, 17);
        let model =
            ServedModel::train(&data, DetectorKind::Hbos, UadbConfig::fast_for_tests(17)).unwrap();
        let path =
            std::env::temp_dir().join(format!("uadb-info-baseline-{}.uadb", std::process::id()));
        persist::save_file(&model, &path).unwrap();

        // The exact document `info --model FILE` prints: fresh training
        // always captures a baseline, and `info` must surface it.
        let record = persist::load_record_file(&path).unwrap();
        let persist::Record::Booster(served) = &record else { panic!("expected booster record") };
        let doc = crate::http::model_info(served, None);
        let baseline = doc.get("baseline").expect("info output lost the baseline summary");
        let samples = baseline.get("samples").and_then(json::Value::as_f64).unwrap();
        assert_eq!(samples, data.n_samples() as f64);
        assert_eq!(baseline.get("threshold").and_then(json::Value::as_f64), Some(0.5));
        let rate = baseline.get("anomaly_rate").and_then(json::Value::as_f64).unwrap();
        assert!((0.0..=1.0).contains(&rate), "anomaly rate {rate}");
        let q = baseline.get("score_quantiles").expect("quantile summary");
        let p50 = q.get("p50").and_then(json::Value::as_f64).unwrap();
        let p99 = q.get("p99").and_then(json::Value::as_f64).unwrap();
        assert!(p50 <= p99, "p50 {p50} > p99 {p99}");
        // The rendered JSON (what actually lands on stdout) carries it.
        assert!(json::to_string(&doc).contains("\"baseline\""));

        // Piggy-back on the saved file: `serve` must reject a
        // non-positive PSI warn threshold after loading the model.
        let args: Vec<String> =
            ["--model", &format!("infotest={}", path.display()), "--drift-warn-psi", "0"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let e = serve(&Flags::parse(&args).unwrap()).unwrap_err();
        assert!(e.0.contains("--drift-warn-psi"), "message: {}", e.0);

        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn dispatch_rejects_unknown_subcommand() {
        let args: Vec<String> = vec!["frobnicate".into()];
        assert!(dispatch(&args).is_err());
        assert!(dispatch(&[]).is_err());
    }

    #[test]
    fn train_source_validation() {
        let both: Vec<String> = ["--dataset", "12_glass", "--synthetic", "local"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let f = Flags::parse(&both).unwrap();
        assert!(load_training_data(&f).is_err());
        let none = Flags::parse(&[]).unwrap();
        assert!(load_training_data(&none).is_err());
        let unknown: Vec<String> = ["--dataset", "nope"].iter().map(|s| s.to_string()).collect();
        assert!(load_training_data(&Flags::parse(&unknown).unwrap()).is_err());
    }

    #[test]
    fn zero_steps_is_rejected() {
        let args: Vec<String> =
            ["train", "--synthetic", "local", "--steps", "0", "--out", "/dev/null"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let e = dispatch(&args).unwrap_err();
        assert!(e.0.contains("--steps"), "message: {}", e.0);
    }

    #[test]
    fn synthetic_types_parse() {
        for ty in ["local", "global", "clustered", "dependency"] {
            let args: Vec<String> = ["--synthetic", ty].iter().map(|s| s.to_string()).collect();
            let d = load_training_data(&Flags::parse(&args).unwrap()).unwrap();
            assert!(d.n_samples() > 0);
        }
    }
}
