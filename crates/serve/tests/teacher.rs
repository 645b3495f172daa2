//! Teacher-snapshot persistence: the serve-container side of the
//! detector round-trip suite. Every teacher kind must survive
//! `train → save_teacher → load_teacher` with **bit-identical** raw-row
//! scores, record types must not be confusable, corrupt/truncated bytes
//! must yield typed errors, and save-time validation must refuse
//! NaN-bearing fitted state before writing a byte.

use std::sync::Arc;
use uadb::{ScoreCalibration, UadbConfig};
use uadb_data::Dataset;
use uadb_detectors::snapshot;
use uadb_detectors::DetectorKind;
use uadb_linalg::Matrix;
use uadb_serve::model::{ModelMeta, ServedModel, TeacherModel};
use uadb_serve::persist::{self, PersistError};
use uadb_serve::pool::PoolConfig;
use uadb_serve::registry::{ModelRegistry, RegistryError};

/// Small deterministic training set: blob + drifting anomalies, enough
/// structure for every detector family.
fn tiny_dataset(n: usize, d: usize, seed: u64) -> Dataset {
    let mut rows = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    for i in 0..n {
        let anomalous = i % 11 == 10;
        let mut row = Vec::with_capacity(d);
        for j in 0..d {
            let base = next() + j as f64 * 0.3;
            row.push(if anomalous { base + 5.0 } else { base });
        }
        rows.push(row);
        labels.push(u8::from(anomalous));
    }
    Dataset::new("tiny", Matrix::from_rows(&rows).unwrap(), labels, "Test")
}

fn queries(d: usize) -> Matrix {
    let rows: Vec<Vec<f64>> =
        (0..7).map(|i| (0..d).map(|j| i as f64 * 0.7 - 1.0 + j as f64 * 0.4).collect()).collect();
    Matrix::from_rows(&rows).unwrap()
}

fn teacher_bytes(t: &TeacherModel) -> Vec<u8> {
    let mut buf = Vec::new();
    persist::save_teacher(t, &mut buf).unwrap();
    buf
}

#[test]
fn every_teacher_kind_round_trips_through_the_container() {
    let data = tiny_dataset(66, 3, 2);
    let q = queries(3);
    let mut cfg = UadbConfig::fast_for_tests(0);
    cfg.t_steps = 1;
    cfg.epochs_per_step = 1;
    for kind in DetectorKind::ALL {
        let (_, teacher) = ServedModel::train_with_teacher(&data, kind, cfg.clone()).unwrap();
        let bytes = teacher_bytes(&teacher);
        let loaded = persist::load_teacher(&bytes[..]).unwrap();
        assert_eq!(loaded.kind(), kind);
        assert_eq!(loaded.meta(), teacher.meta());
        assert_eq!(loaded.standardizer(), teacher.standardizer());
        assert_eq!(loaded.calibration(), teacher.calibration());
        let a = teacher.score_rows(&q).unwrap();
        let b = loaded.score_rows(&q).unwrap();
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{} query row {i}", kind.name());
        }
        // Canonical bytes: a second save reproduces the file exactly.
        assert_eq!(teacher_bytes(&loaded), bytes, "{} bytes drifted", kind.name());
    }
}

#[test]
fn teacher_calibration_matches_training_pseudo_labels() {
    // The stored teacher calibration is the paper's min-max pseudo-label
    // map: scoring the training rows through the loaded teacher must
    // reproduce exactly the normalised scores the booster was distilled
    // against (0 at the train min, 1 at the train max).
    let data = tiny_dataset(55, 2, 9);
    let (_, teacher) =
        ServedModel::train_with_teacher(&data, DetectorKind::Hbos, UadbConfig::fast_for_tests(1))
            .unwrap();
    let loaded = persist::load_teacher(&teacher_bytes(&teacher)[..]).unwrap();
    let scores = loaded.score_rows(&data.x).unwrap();
    let lo = scores.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    assert!((lo - 0.0).abs() < 1e-12, "train min must calibrate to 0, got {lo}");
    assert!((hi - 1.0).abs() < 1e-12, "train max must calibrate to 1, got {hi}");
}

#[test]
fn record_types_are_not_confusable() {
    let data = tiny_dataset(40, 2, 3);
    let (served, teacher) =
        ServedModel::train_with_teacher(&data, DetectorKind::Ecod, UadbConfig::fast_for_tests(3))
            .unwrap();
    let mut booster_bytes = Vec::new();
    persist::save(&served, &mut booster_bytes).unwrap();
    let tbytes = teacher_bytes(&teacher);

    assert!(matches!(
        persist::load(&tbytes[..]),
        Err(PersistError::WrongRecord { expected: "booster", found: "teacher" })
    ));
    assert!(matches!(
        persist::load_teacher(&booster_bytes[..]),
        Err(PersistError::WrongRecord { expected: "teacher", found: "booster" })
    ));
    // load_record accepts either.
    assert!(matches!(persist::load_record(&tbytes[..]), Ok(persist::Record::Teacher(_))));
    assert!(matches!(persist::load_record(&booster_bytes[..]), Ok(persist::Record::Booster(_))));
}

#[test]
fn teacher_header_and_truncation_errors_are_typed() {
    let data = tiny_dataset(40, 2, 4);
    let (_, teacher) =
        ServedModel::train_with_teacher(&data, DetectorKind::Pca, UadbConfig::fast_for_tests(4))
            .unwrap();
    let bytes = teacher_bytes(&teacher);

    // Bad magic.
    let mut wrong = bytes.clone();
    wrong[0] = b'X';
    assert!(matches!(persist::load_teacher(&wrong[..]), Err(PersistError::BadMagic)));

    // Future version.
    let mut future = bytes.clone();
    future[4..8].copy_from_slice(&99u32.to_le_bytes());
    assert!(matches!(
        persist::load_teacher(&future[..]),
        Err(PersistError::UnsupportedVersion(99))
    ));

    // Truncation anywhere inside the payload: typed error, never a
    // panic or a half-teacher.
    for cut in (4..bytes.len() - 1).step_by(89) {
        assert!(persist::load_teacher(&bytes[..cut]).is_err(), "cut at {cut} accepted");
    }

    // Flipped bytes across the payload must never panic.
    for pos in (8..bytes.len()).step_by(97) {
        let mut forged = bytes.clone();
        forged[pos] ^= 0xff;
        let _ = persist::load_teacher(&forged[..]);
    }
}

#[test]
fn nan_poisoned_teacher_state_is_refused_at_save_time() {
    // A KNN teacher snapshots its training rows verbatim; NaN smuggled
    // through fit() must abort the save with InvalidModel and an empty
    // output, not produce a file every loader rejects.
    let mut x = Matrix::zeros(12, 2);
    for i in 0..12 {
        x.set(i, 0, i as f64);
        x.set(i, 1, 1.0 + i as f64 * 0.5);
    }
    x.set(5, 1, f64::NAN);
    let mut det = snapshot::build(DetectorKind::Knn, 0);
    det.fit(&x).unwrap();
    let teacher = TeacherModel::new(
        det,
        uadb_data::preprocess::Standardizer::from_parts(vec![0.0; 2], vec![1.0; 2]),
        ScoreCalibration::fit(&[0.0, 1.0]),
        ModelMeta { dataset: "t".into(), teacher: "KNN".into(), n_train: 12 },
    );
    let mut sink = Vec::new();
    assert!(matches!(
        persist::save_teacher(&teacher, &mut sink),
        Err(PersistError::InvalidModel(_))
    ));
    assert!(sink.is_empty(), "a refused save must write nothing");
}

#[test]
fn teacher_meta_kind_mismatch_is_refused_at_save_and_load() {
    let data = tiny_dataset(40, 2, 6);
    let (_, teacher) =
        ServedModel::train_with_teacher(&data, DetectorKind::Hbos, UadbConfig::fast_for_tests(6))
            .unwrap();
    // Forge a teacher whose metadata names a different detector.
    let forged = TeacherModel::new(
        snapshot::load(&snapshot::save_to_vec(teacher.detector()).unwrap()[..]).unwrap(),
        teacher.standardizer().clone(),
        teacher.calibration(),
        ModelMeta { teacher: "IForest".into(), ..teacher.meta().clone() },
    );
    let mut sink = Vec::new();
    assert!(matches!(
        persist::save_teacher(&forged, &mut sink),
        Err(PersistError::InvalidModel("teacher metadata does not name its kind"))
    ));

    // And a file whose metadata was corrupted the same way fails closed.
    let bytes = teacher_bytes(&teacher);
    let name_offset = 4 + 4 + 1 // magic + version + record
        + 8 + teacher.meta().dataset.len() + 8; // dataset str + teacher len
    let mut corrupt = bytes.clone();
    // "HBOS" -> "HBOZ": same length, wrong name.
    corrupt[name_offset + 3] = b'Z';
    assert!(matches!(
        persist::load_teacher(&corrupt[..]),
        Err(PersistError::Corrupt("teacher metadata does not name its kind"))
    ));
}

#[test]
fn mismatched_teacher_width_is_rejected_before_serving() {
    let dir = std::env::temp_dir().join(format!("uadb_teacher_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let booster_path = dir.join("b.uadb");
    let teacher_path = dir.join("t.uadb");

    // Booster trained on 3 features, teacher snapshot on 2.
    let (served, _) = ServedModel::train_with_teacher(
        &tiny_dataset(44, 3, 7),
        DetectorKind::Hbos,
        UadbConfig::fast_for_tests(7),
    )
    .unwrap();
    persist::save_file(&served, &booster_path).unwrap();
    let (_, narrow_teacher) = ServedModel::train_with_teacher(
        &tiny_dataset(44, 2, 7),
        DetectorKind::Hbos,
        UadbConfig::fast_for_tests(7),
    )
    .unwrap();
    persist::save_teacher_file(&narrow_teacher, &teacher_path).unwrap();

    // attach_teacher itself refuses…
    let mut direct = persist::load_file(&booster_path).unwrap();
    assert!(direct.attach_teacher(Arc::clone(&narrow_teacher)).is_err());

    // …and the registry surfaces the mismatch as a typed error instead
    // of building a pool that would fail every teacher request.
    let reg = ModelRegistry::new(PoolConfig::default());
    let err = reg.insert_from_files("m", &booster_path, Some(&teacher_path)).unwrap_err();
    assert!(matches!(err, RegistryError::TeacherMismatch { expected: 3, got: 2 }), "got {err}");
    assert!(reg.is_empty());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unrelated_teacher_kind_is_rejected_even_with_matching_width() {
    // Same dataset, same feature width — but the snapshot is an IForest
    // while the booster was distilled from HBOS. Pairing them would
    // serve a meaningless A/B, so the registry must refuse.
    let dir = std::env::temp_dir().join(format!("uadb_kind_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let booster_path = dir.join("b.uadb");
    let teacher_path = dir.join("t.uadb");

    let data = tiny_dataset(44, 2, 10);
    let (served, _) =
        ServedModel::train_with_teacher(&data, DetectorKind::Hbos, UadbConfig::fast_for_tests(10))
            .unwrap();
    persist::save_file(&served, &booster_path).unwrap();
    let (_, iforest_teacher) = ServedModel::train_with_teacher(
        &data,
        DetectorKind::IForest,
        UadbConfig::fast_for_tests(10),
    )
    .unwrap();
    persist::save_teacher_file(&iforest_teacher, &teacher_path).unwrap();

    let reg = ModelRegistry::new(PoolConfig::default());
    let err = reg.insert_from_files("m", &booster_path, Some(&teacher_path)).unwrap_err();
    assert!(
        matches!(
            &err,
            RegistryError::TeacherKindMismatch { expected, got }
                if expected == "HBOS" && got == "IForest"
        ),
        "got {err}"
    );
    assert!(reg.is_empty());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reload_rereads_the_teacher_snapshot() {
    let dir = std::env::temp_dir().join(format!("uadb_reteach_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let booster_path = dir.join("b.uadb");
    let teacher_path = dir.join("t.uadb");

    let data = tiny_dataset(44, 2, 8);
    let (served, teacher) =
        ServedModel::train_with_teacher(&data, DetectorKind::Hbos, UadbConfig::fast_for_tests(8))
            .unwrap();
    persist::save_file(&served, &booster_path).unwrap();
    persist::save_teacher_file(&teacher, &teacher_path).unwrap();

    let reg = ModelRegistry::new(PoolConfig::default());
    reg.insert_from_files("m", &booster_path, Some(&teacher_path)).unwrap();
    assert_eq!(reg.teacher_source("m").as_deref(), Some(teacher_path.as_path()));
    let first_cal = reg.get("m").unwrap().model().teacher().unwrap().calibration();

    // Swap the teacher file for a same-kind snapshot fitted on
    // different data and hot-reload. (A different *kind* is refused:
    // the booster's metadata pins which detector it was distilled
    // from — see unrelated_teacher_kind_is_rejected….)
    let (_, new_teacher) = ServedModel::train_with_teacher(
        &tiny_dataset(52, 2, 88),
        DetectorKind::Hbos,
        UadbConfig::fast_for_tests(88),
    )
    .unwrap();
    persist::save_teacher_file(&new_teacher, &teacher_path).unwrap();
    reg.reload("m", None).unwrap();
    let pool = reg.get("m").unwrap();
    let reloaded = pool.model().teacher().unwrap();
    assert_eq!(reloaded.kind(), DetectorKind::Hbos);
    assert_ne!(reloaded.calibration(), first_cal);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn runtime_attach_detach_swaps_pools_without_touching_inflight_ones() {
    let dir = std::env::temp_dir().join(format!("uadb_attach_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let booster_path = dir.join("b.uadb");
    let teacher_path = dir.join("t.uadb");

    let data = tiny_dataset(44, 2, 12);
    let (served, teacher) =
        ServedModel::train_with_teacher(&data, DetectorKind::Hbos, UadbConfig::fast_for_tests(12))
            .unwrap();
    persist::save_file(&served, &booster_path).unwrap();
    persist::save_teacher_file(&teacher, &teacher_path).unwrap();
    let q = queries(2);
    let expected_teacher = teacher.score_rows(&q).unwrap();
    let expected_booster = served.score_rows(&q).unwrap();

    // Registered booster-only: no teacher variant.
    let reg = ModelRegistry::new(PoolConfig { workers: 1, shard_rows: 64 });
    reg.insert_from_file("m", &booster_path).unwrap();
    let before = reg.get("m").unwrap();
    assert!(before.model().teacher().is_none());

    // Attach at runtime: new pool serves both variants bit-identically…
    reg.attach_teacher("m", &teacher_path).unwrap();
    let attached = reg.get("m").unwrap();
    assert!(!Arc::ptr_eq(&before, &attached), "attach must swap the pool");
    let teacher_scores = attached.model().teacher().unwrap().score_rows(&q).unwrap();
    for (a, b) in teacher_scores.iter().zip(&expected_teacher) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    let booster_scores = attached.score(&q).unwrap();
    for (a, b) in booster_scores.iter().zip(&expected_booster) {
        assert_eq!(a.to_bits(), b.to_bits(), "attach must not disturb the booster weights");
    }
    // …while the pool held from before the attach still has no teacher
    // (in-flight requests are undisturbed).
    assert!(before.model().teacher().is_none());
    // The teacher path is remembered for hot reload.
    assert_eq!(reg.teacher_source("m").as_deref(), Some(teacher_path.as_path()));

    // Detach: the teacher variant is gone again; detaching twice errors.
    reg.detach_teacher("m").unwrap();
    assert!(reg.get("m").unwrap().model().teacher().is_none());
    assert!(reg.teacher_source("m").is_none());
    assert!(matches!(reg.detach_teacher("m"), Err(RegistryError::NoTeacher(_))));

    // Error paths leave the entry untouched: unknown model, a teacher
    // of the wrong kind, a teacher of the wrong width, garbage bytes.
    assert!(matches!(
        reg.attach_teacher("nope", &teacher_path),
        Err(RegistryError::UnknownModel(_))
    ));
    let (_, iforest) = ServedModel::train_with_teacher(
        &data,
        DetectorKind::IForest,
        UadbConfig::fast_for_tests(12),
    )
    .unwrap();
    let iforest_path = dir.join("iforest.uadb");
    persist::save_teacher_file(&iforest, &iforest_path).unwrap();
    assert!(matches!(
        reg.attach_teacher("m", &iforest_path),
        Err(RegistryError::TeacherKindMismatch { .. })
    ));
    let (_, wide) = ServedModel::train_with_teacher(
        &tiny_dataset(44, 3, 12),
        DetectorKind::Hbos,
        UadbConfig::fast_for_tests(12),
    )
    .unwrap();
    let wide_path = dir.join("wide.uadb");
    persist::save_teacher_file(&wide, &wide_path).unwrap();
    assert!(matches!(
        reg.attach_teacher("m", &wide_path),
        Err(RegistryError::TeacherMismatch { expected: 2, got: 3 })
    ));
    let garbage = dir.join("garbage.uadb");
    std::fs::write(&garbage, b"not a container").unwrap();
    assert!(matches!(reg.attach_teacher("m", &garbage), Err(RegistryError::Load(_))));
    assert!(reg.get("m").unwrap().model().teacher().is_none(), "failed attaches must not stick");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn admin_teacher_attach_detach_over_http() {
    use std::io::{Read as _, Write as _};

    let dir = std::env::temp_dir().join(format!("uadb_attach_http_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let booster_path = dir.join("b.uadb");
    let teacher_path = dir.join("t.uadb");

    let data = tiny_dataset(44, 2, 13);
    let (served, teacher) =
        ServedModel::train_with_teacher(&data, DetectorKind::Hbos, UadbConfig::fast_for_tests(13))
            .unwrap();
    persist::save_file(&served, &booster_path).unwrap();
    persist::save_teacher_file(&teacher, &teacher_path).unwrap();
    let q = queries(2);
    let expected_teacher = teacher.score_rows(&q).unwrap();

    let registry = Arc::new(ModelRegistry::new(PoolConfig { workers: 1, shard_rows: 64 }));
    registry.insert_from_file("m", &booster_path).unwrap();
    let handle =
        uadb_serve::Server::bind("127.0.0.1:0", registry, uadb_serve::ServerConfig::default())
            .unwrap()
            .spawn()
            .unwrap();

    // One keep-alive connection drives the whole lifecycle.
    let stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    stream.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = std::io::BufReader::new(stream);
    let mut roundtrip = move |method: &str, path: &str, body: &str| -> (u16, String) {
        use std::io::BufRead as _;
        writer
            .write_all(
                format!(
                    "{method} {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            )
            .unwrap();
        let mut status_line = String::new();
        reader.read_line(&mut status_line).unwrap();
        let status: u16 = status_line.split_whitespace().nth(1).unwrap().parse().unwrap();
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            if line.trim_end().is_empty() {
                break;
            }
            if let Some((name, value)) = line.trim_end().split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().unwrap();
                }
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).unwrap();
        (status, String::from_utf8(body).unwrap())
    };

    let rows_body = {
        let rows: Vec<uadb_serve::json::Value> =
            (0..q.rows()).map(|r| uadb_serve::json::number_array(q.row(r))).collect();
        uadb_serve::json::to_string(&uadb_serve::json::object([(
            "rows",
            uadb_serve::json::Value::Array(rows),
        )]))
    };

    // Booster-only: the teacher variant does not exist.
    let (status, _) = roundtrip("POST", "/score/m?variant=teacher", &rows_body);
    assert_eq!(status, 404);

    // Attach needs a body naming the file.
    let (status, _) = roundtrip("POST", "/admin/teacher/m", "");
    assert_eq!(status, 400);
    let (status, body) = roundtrip(
        "POST",
        "/admin/teacher/m",
        &format!("{{\"path\": {:?}}}", teacher_path.display().to_string()),
    );
    assert_eq!(status, 200, "body: {body}");
    assert!(body.contains("\"attached\":\"m\""), "body: {body}");
    assert!(body.contains("\"teacher\""), "body: {body}");

    // The teacher variant now scores bit-identically to in-process.
    let (status, body) = roundtrip("POST", "/score/m?variant=teacher", &rows_body);
    assert_eq!(status, 200, "body: {body}");
    let parsed = uadb_serve::json::parse(&body).unwrap();
    let scores: Vec<f64> = parsed
        .get("scores")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|v| v.as_f64().unwrap())
        .collect();
    for (i, (a, b)) in scores.iter().zip(&expected_teacher).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "row {i}");
    }

    // Attach validation reuses the startup checks: wrong-kind files 409.
    let (_, iforest) = ServedModel::train_with_teacher(
        &data,
        DetectorKind::IForest,
        UadbConfig::fast_for_tests(13),
    )
    .unwrap();
    let iforest_path = dir.join("iforest.uadb");
    persist::save_teacher_file(&iforest, &iforest_path).unwrap();
    let (status, _) = roundtrip(
        "POST",
        "/admin/teacher/m",
        &format!("{{\"path\": {:?}}}", iforest_path.display().to_string()),
    );
    assert_eq!(status, 409);
    let (status, _) = roundtrip("POST", "/admin/teacher/ghost", "{\"path\": \"x\"}");
    assert_eq!(status, 404);

    // Detach on the same connection: the variant 404s again; detaching
    // twice is a 404 too.
    let (status, body) = roundtrip("DELETE", "/admin/teacher/m", "");
    assert_eq!(status, 200, "body: {body}");
    assert!(body.contains("\"detached\":\"m\""));
    let (status, _) = roundtrip("POST", "/score/m?variant=teacher", &rows_body);
    assert_eq!(status, 404);
    let (status, _) = roundtrip("DELETE", "/admin/teacher/m", "");
    assert_eq!(status, 404);

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
