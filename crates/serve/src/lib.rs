//! # uadb-serve — model persistence and batch-scoring server
//!
//! Takes a fitted [`uadb::UadbModel`] from training to production, the
//! deployment shape the paper implies (§III: the distilled student
//! *replaces* the teacher as the serving detector):
//!
//! 1. **Persistence** — [`persist`] writes a self-describing versioned
//!    binary format (magic + version + config + per-layer weights + the
//!    train-time standardisation and calibration constants) through any
//!    `std::io::{Read, Write}`; loads reproduce scoring bit-identically.
//! 2. **Batch scoring engine** — [`pool::ScoringPool`] shards request
//!    batches across a fixed `std::thread` worker set; per-row math makes
//!    the output independent of sharding and scheduling. Many pools can
//!    share one worker set: the server scores every model it serves on
//!    one process-wide set.
//! 3. **Scoring server + CLI** — [`http::Server`] speaks HTTP/1.1 with
//!    **persistent connections** (keep-alive, idle timeout, bounded
//!    connection budget, pipelined-burst batched writes), routing `POST
//!    /score[/{name}]`, `GET /model[/{name}]`, `GET /models`, `POST
//!    /admin/reload/{name}`, `POST`/`DELETE /admin/teacher/{name}`,
//!    `GET /healthz`, `GET /metrics` (Prometheus text exposition from
//!    the process-global [`telemetry`] plane) and `GET /admin/slow`
//!    (the last captured slow requests); the `uadb-serve` binary wires
//!    `train`/`score`/`serve`/`info` subcommands to the existing
//!    teachers and datasets. Request parsing and response
//!    serialization are **sans-io** functions over byte buffers,
//!    driven by the `reactor`: one **epoll** readiness loop that owns
//!    every client socket, so the connection budget scales past thread
//!    counts. The server is Linux-only; elsewhere
//!    [`http::Server::bind`] returns [`std::io::ErrorKind::Unsupported`].
//! 4. **Multi-model routing** — [`registry::ModelRegistry`] holds N
//!    named models behind one port, all scored on one worker set, with
//!    atomic hot reload that never drops in-flight connections and
//!    never spawns or joins a thread.
//! 5. **Teacher/booster A/B** — a served name can carry the *frozen
//!    fitted teacher* next to its distilled booster:
//!    [`model::TeacherModel`] wraps a detector snapshot (see
//!    `uadb_detectors::snapshot`), [`persist`] stores it as its own
//!    record type in the same versioned container, and
//!    `POST /score/{name}?variant=teacher|booster|both` serves the
//!    paper's comparison online (`both` returns paired scores for the
//!    same rows in one response).
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use uadb::UadbConfig;
//! use uadb_data::synth::{fig5_dataset, AnomalyType};
//! use uadb_detectors::DetectorKind;
//! use uadb_serve::model::ServedModel;
//! use uadb_serve::{persist, pool};
//!
//! // Train on raw features; the bundle captures the standardiser.
//! let data = fig5_dataset(AnomalyType::Clustered, 7);
//! let served = ServedModel::train(
//!     &data,
//!     DetectorKind::IForest,
//!     UadbConfig::fast_for_tests(7),
//! )
//! .unwrap();
//!
//! // Round-trip through the binary format.
//! let mut file = Vec::new();
//! persist::save(&served, &mut file).unwrap();
//! let loaded = persist::load(&file[..]).unwrap();
//!
//! // Concurrent batch scoring matches in-process scoring exactly.
//! let pool = pool::ScoringPool::new(Arc::new(loaded), pool::PoolConfig::default());
//! let scores = pool.score(&data.x).unwrap();
//! assert_eq!(scores, served.score_rows(&data.x).unwrap());
//! ```
//!
//! For the HTTP layer see [`http::Server`] and `examples/serve_and_score.rs`
//! at the workspace root.

// Off Linux the reactor is compiled out, and with it the only caller of
// the router, the request parser and the wire codecs; `Server::bind`
// reports `Unsupported` there.
#![cfg_attr(not(target_os = "linux"), allow(dead_code))]

pub mod cli;
pub mod http;
pub mod json;
pub mod model;
pub mod persist;
pub mod pool;
#[cfg(target_os = "linux")]
pub mod reactor;
pub mod registry;
pub mod telemetry;

pub use http::{Server, ServerConfig, ServerHandle, ServerStats, StopSignal};
pub use model::{
    ModelMeta, ScoreError, ScoreWorkspace, ServedModel, TeacherModel, TrainError, Variant,
};
pub use persist::{
    load, load_file, load_record, load_record_file, load_teacher, load_teacher_file, save,
    save_file, save_teacher, save_teacher_file, PersistError, Record, FORMAT_VERSION,
};
pub use pool::{PoolConfig, ScoreCallback, ScoreTiming, ScoringPool};
pub use registry::{ModelRegistry, RegistryError};
pub use telemetry::{metrics, RequestTimer, ServeMetrics, Stage};
