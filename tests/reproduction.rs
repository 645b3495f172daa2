//! Reproduction-shape tests: scaled-down versions of the paper's
//! headline claims that must hold for the repository to count as a
//! faithful reproduction (`uadb_bench`'s `repro` binary runs the
//! full-size versions; see README → Paper reproduction).

use uadb::experiment::{run_pair_schemes, ExperimentConfig};
use uadb::variance_probe::probe;
use uadb::{BoosterScheme, Uadb, UadbConfig};
use uadb_data::suite::{generate_by_name, SuiteScale};
use uadb_data::synth::{fig5_dataset, AnomalyType};
use uadb_detectors::DetectorKind;
use uadb_metrics::{count_errors, error_correction_rate, roc_auc, threshold_by_contamination};

/// Paper-default booster, but narrower/shorter so debug-mode tests stay
/// fast while keeping the iterative mechanics intact.
fn repro_cfg(seed: u64) -> UadbConfig {
    UadbConfig { t_steps: 6, epochs_per_step: 8, hidden: vec![64], ..UadbConfig::with_seed(seed) }
}

#[test]
fn variance_evidence_holds_on_majority_of_sample() {
    // Fig. 2's claim (71/84 datasets) on a 6-dataset sample: anomalies
    // must carry higher teacher/student variance on most of them.
    let names = ["12_glass", "25_musk", "39_thyroid", "6_cardio", "26_optdigits", "15_http"];
    let cfg = UadbConfig { t_steps: 1, epochs_per_step: 30, ..repro_cfg(0) };
    let mut holds = 0;
    for name in names {
        let d = generate_by_name(name, SuiteScale::Quick, 0).unwrap().standardized();
        let teacher = DetectorKind::IForest.build(0).fit_score(&d.x).unwrap();
        let ev = probe(&d, &teacher, &cfg).unwrap();
        if ev.anomalies_have_higher_variance() {
            holds += 1;
        }
    }
    assert!(holds >= 4, "variance evidence held on only {holds}/6 datasets");
}

#[test]
fn uadb_corrects_clustered_anomaly_errors() {
    // Fig. 5 row 1: IForest mislabels clustered anomalies; the booster
    // corrects a substantial share of its thresholded errors.
    let d = fig5_dataset(AnomalyType::Clustered, 17).standardized();
    let labels = d.labels_f64();
    let contamination = d.n_anomalies() as f64 / d.n_samples() as f64;
    let teacher = DetectorKind::IForest.build(3).fit_score(&d.x).unwrap();
    let thr = threshold_by_contamination(&teacher, contamination);
    let teacher_errors = count_errors(&labels, &teacher, thr).errors();
    let model = Uadb::new(repro_cfg(3)).fit(&d.x, &teacher).unwrap();
    let boosted = model.scores();
    let thr_b = threshold_by_contamination(boosted, contamination);
    let booster_errors = count_errors(&labels, boosted, thr_b).errors();
    let rate = error_correction_rate(teacher_errors, booster_errors);
    assert!(
        booster_errors <= teacher_errors,
        "booster made more errors ({booster_errors}) than the teacher ({teacher_errors})"
    );
    assert!(rate >= 0.0);
}

#[test]
fn uadb_beats_discrepancy_and_self_schemes_on_average() {
    // Table VI ordering: UADB is the best scheme; Discrepancy* trails.
    let datasets = [
        fig5_dataset(AnomalyType::Global, 21),
        fig5_dataset(AnomalyType::Clustered, 22),
        fig5_dataset(AnomalyType::Local, 23),
    ];
    let cfg = ExperimentConfig { booster: repro_cfg(1), n_runs: 1, n_threads: 2 };
    let mut totals: std::collections::HashMap<&str, f64> = Default::default();
    for d in &datasets {
        for r in run_pair_schemes(DetectorKind::IForest, d, &BoosterScheme::ALL, &cfg) {
            *totals.entry(r.scheme).or_default() += r.auc;
        }
    }
    let uadb = totals["UADB"];
    assert!(
        uadb > totals["Discrepancy Booster*"],
        "UADB ({uadb:.3}) must beat Discrepancy* ({:.3})",
        totals["Discrepancy Booster*"]
    );
    assert!(
        uadb > totals["Self Booster"] - 0.05,
        "UADB ({uadb:.3}) must not trail Self Booster ({:.3})",
        totals["Self Booster"]
    );
}

#[test]
fn booster_tracks_strong_teachers() {
    // Knowledge transfer: on datasets where the teacher is already
    // excellent, the booster must stay close (Table IV: improvements are
    // small but the booster never collapses).
    let d = generate_by_name("26_optdigits", SuiteScale::Quick, 0).unwrap().standardized();
    let labels = d.labels_f64();
    let teacher = DetectorKind::IForest.build(0).fit_score(&d.x).unwrap();
    let teacher_auc = roc_auc(&labels, &teacher);
    let model = Uadb::new(repro_cfg(0)).fit(&d.x, &teacher).unwrap();
    let booster_auc = roc_auc(&labels, model.scores());
    assert!(teacher_auc > 0.9, "teacher should be strong here: {teacher_auc:.3}");
    assert!(
        booster_auc > teacher_auc - 0.08,
        "booster {booster_auc:.3} collapsed vs teacher {teacher_auc:.3}"
    );
}

#[test]
fn iteration_history_feeds_tables() {
    // Table V consumes per-iteration metrics; the history must be
    // monotone in length and bounded.
    let d = fig5_dataset(AnomalyType::Dependency, 9).standardized();
    let teacher = DetectorKind::Ecod.build(0).fit_score(&d.x).unwrap();
    let cfg = repro_cfg(2);
    let t = cfg.t_steps;
    let model = Uadb::new(cfg).fit(&d.x, &teacher).unwrap();
    assert_eq!(model.booster_history().len(), t);
    assert_eq!(model.pseudo_history().len(), t + 1);
    let labels = d.labels_f64();
    for fb in model.booster_history() {
        let auc = roc_auc(&labels, fb);
        assert!((0.0..=1.0).contains(&auc));
    }
}

#[test]
fn no_universal_winner_and_uadb_narrows_the_field() {
    // The paper's motivation (§I): the best teacher differs per anomaly
    // type. UADB must preserve each winner's lead (not flatten everyone).
    let mut winners = Vec::new();
    for (ty, seed) in [(AnomalyType::Clustered, 31u64), (AnomalyType::Local, 32u64)] {
        let d = fig5_dataset(ty, seed).standardized();
        let labels = d.labels_f64();
        let mut best = ("", f64::NEG_INFINITY);
        for kind in [DetectorKind::Hbos, DetectorKind::Lof, DetectorKind::Pca] {
            let teacher = kind.build(0).fit_score(&d.x).unwrap();
            let model = Uadb::new(repro_cfg(5)).fit(&d.x, &teacher).unwrap();
            let auc = roc_auc(&labels, model.scores());
            if auc > best.1 {
                best = (kind.name(), auc);
            }
        }
        winners.push(best);
    }
    // Both boosted winners must be decent detectors.
    for (name, auc) in &winners {
        assert!(*auc > 0.5, "boosted winner {name} below chance: {auc:.3}");
    }
}
