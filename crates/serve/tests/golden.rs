//! Golden-format tests: checked-in fixture files pin today's on-disk
//! layout, so any future format drift breaks CI here instead of
//! breaking production loads.
//!
//! The fixtures live in `tests/golden/` and were generated once by
//! running this test with `UADB_REGEN_GOLDEN=1` (only needed again on a
//! *deliberate*, version-bumped format change — regenerate, re-commit,
//! and add a legacy-load test for the previous version). The assertions
//! are pure byte-level decoding — no float math — so they hold on any
//! platform:
//!
//! 1. the loader accepts the fixture and decodes the expected fields
//!    bit-exactly (spot-checked constants below), and
//! 2. re-serialising the loaded value reproduces the fixture **byte for
//!    byte** (the format is canonical, so load∘save is the identity).
//!
//! The same directory pins the JSON wire format of `POST /score`:
//! `score_booster.json` and `score_both.json` are the exact response
//! bodies for [`GOLDEN_ROWS`] scored by the booster fixture, alone and
//! with `variant=both` against the teacher fixture. Any change to how
//! numbers or keys are written breaks the byte comparison.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use uadb::UadbConfig;
use uadb_data::Dataset;
use uadb_detectors::DetectorKind;
use uadb_linalg::Matrix;
use uadb_serve::model::ServedModel;
use uadb_serve::persist;
use uadb_serve::{ModelRegistry, PoolConfig, Server, ServerConfig};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// The deterministic tiny model the fixtures were generated from.
fn fixture_pair() -> (ServedModel, std::sync::Arc<uadb_serve::model::TeacherModel>) {
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for i in 0..30 {
        let t = i as f64;
        let anomalous = i >= 27;
        let off = if anomalous { 7.0 } else { 0.0 };
        rows.push(vec![(t * 0.37).sin() + off, (t * 0.53).cos() * 0.5 - off]);
        labels.push(u8::from(anomalous));
    }
    let data = Dataset::new("golden", Matrix::from_rows(&rows).unwrap(), labels, "Test");
    let mut cfg = UadbConfig::fast_for_tests(42);
    cfg.t_steps = 1;
    cfg.epochs_per_step = 1;
    ServedModel::train_with_teacher(&data, DetectorKind::Hbos, cfg).unwrap()
}

#[test]
fn golden_fixtures_load_bit_exactly_and_reencode_canonically() {
    let dir = golden_dir();
    let booster_path = dir.join("booster.uadb");
    let teacher_path = dir.join("teacher.uadb");

    if std::env::var_os("UADB_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(&dir).unwrap();
        let (served, teacher) = fixture_pair();
        persist::save_file(&served, &booster_path).unwrap();
        persist::save_teacher_file(&teacher, &teacher_path).unwrap();
        eprintln!("regenerated {} and {}", booster_path.display(), teacher_path.display());
    }

    let booster_bytes = std::fs::read(&booster_path).expect(
        "tests/golden/booster.uadb is checked in; regenerate with UADB_REGEN_GOLDEN=1 \
         only on a deliberate format change",
    );
    let teacher_bytes = std::fs::read(&teacher_path).expect("tests/golden/teacher.uadb missing");

    // Header: magic, current version, record byte.
    assert_eq!(&booster_bytes[..4], b"UADB");
    assert_eq!(
        u32::from_le_bytes(booster_bytes[4..8].try_into().unwrap()),
        persist::FORMAT_VERSION,
        "fixture predates a version bump: regenerate it AND add a legacy-load test"
    );
    assert_eq!(booster_bytes[8], persist::RECORD_BOOSTER);
    assert_eq!(&teacher_bytes[..4], b"UADB");
    assert_eq!(teacher_bytes[8], persist::RECORD_TEACHER);

    // Decode and spot-check fields (pure byte decoding, no float math).
    let served = persist::load(&booster_bytes[..]).unwrap();
    assert_eq!(served.meta().dataset, "golden");
    assert_eq!(served.meta().teacher, "HBOS");
    assert_eq!(served.meta().n_train, 30);
    assert_eq!(served.input_dim(), 2);

    let teacher = persist::load_teacher(&teacher_bytes[..]).unwrap();
    assert_eq!(teacher.kind(), DetectorKind::Hbos);
    assert_eq!(teacher.meta(), served.meta());
    assert_eq!(teacher.input_dim(), 2);
    assert_eq!(teacher.standardizer(), served.standardizer());

    // Canonical re-encode: load∘save must be the identity on both
    // records — a single drifted byte in any field fails here.
    let mut booster_again = Vec::new();
    persist::save(&served, &mut booster_again).unwrap();
    assert_eq!(booster_again, booster_bytes, "booster re-encode drifted from fixture");
    let mut teacher_again = Vec::new();
    persist::save_teacher(&teacher, &mut teacher_again).unwrap();
    assert_eq!(teacher_again, teacher_bytes, "teacher re-encode drifted from fixture");
}

/// The version-2 fixtures (checked in before the v3 baseline section
/// existed) must keep loading forever: they are the committed proof
/// that old production files survive the format bump. A v2 booster has
/// no baseline; re-saving upgrades the container to the current
/// version.
#[test]
fn golden_v2_fixtures_still_load() {
    let dir = golden_dir();
    let booster_bytes = std::fs::read(dir.join("booster_v2.uadb"))
        .expect("tests/golden/booster_v2.uadb is a frozen legacy fixture; never regenerate it");
    let teacher_bytes = std::fs::read(dir.join("teacher_v2.uadb"))
        .expect("tests/golden/teacher_v2.uadb is a frozen legacy fixture; never regenerate it");
    assert_eq!(u32::from_le_bytes(booster_bytes[4..8].try_into().unwrap()), 2);

    let served = persist::load(&booster_bytes[..]).unwrap();
    assert_eq!(served.meta().dataset, "golden");
    assert_eq!(served.meta().n_train, 30);
    assert!(served.baseline().is_none(), "v2 files carry no model-quality baseline");
    let teacher = persist::load_teacher(&teacher_bytes[..]).unwrap();
    assert_eq!(teacher.kind(), DetectorKind::Hbos);

    // Re-save upgrades to the current container version and loads back.
    let mut upgraded = Vec::new();
    persist::save(&served, &mut upgraded).unwrap();
    assert_eq!(u32::from_le_bytes(upgraded[4..8].try_into().unwrap()), persist::FORMAT_VERSION);
    let reloaded = persist::load(&upgraded[..]).unwrap();
    assert_eq!(reloaded.meta(), served.meta());
    assert!(reloaded.baseline().is_none());
}

/// Request rows for the response goldens: plain decimals, exponents in
/// both cases, a negative zero, integers, and rows far outside the
/// training range (their calibrated scores leave `[0, 1]`).
const GOLDEN_ROWS: &str = "{\"rows\": [[0.1, -0.25], [1e-3, 2.5E2], [-0, 0], [3.75, -7.5], \
     [1e6, -1e6], [-123.456, 0.000001], [0.5, 0.5], [7, -7]]}";

/// One `Connection: close` POST; returns `(status, body)`.
fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let head = format!(
        "POST {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("head/body separator");
    let status = head.split_whitespace().nth(1).expect("status").parse().expect("u16");
    (status, body.to_string())
}

#[test]
fn golden_score_responses_are_byte_identical() {
    let dir = golden_dir();
    let regen = std::env::var_os("UADB_REGEN_GOLDEN").is_some();
    let registry = Arc::new(ModelRegistry::new(PoolConfig { workers: 2, shard_rows: 3 }));
    registry
        .insert_from_files("golden", dir.join("booster.uadb"), Some(dir.join("teacher.uadb")))
        .unwrap();
    let handle =
        Server::bind("127.0.0.1:0", registry, ServerConfig::default()).unwrap().spawn().unwrap();
    for (path, fixture) in
        [("/score/golden", "score_booster.json"), ("/score/golden?variant=both", "score_both.json")]
    {
        let (status, body) = post(handle.addr(), path, GOLDEN_ROWS);
        assert_eq!(status, 200, "{path}: {body}");
        let fixture = dir.join(fixture);
        if regen {
            std::fs::write(&fixture, &body).unwrap();
        }
        let expected = std::fs::read_to_string(&fixture).expect("response fixture missing");
        assert_eq!(body, expected, "{path} drifted from {}", fixture.display());
    }
    handle.shutdown();
}
