//! Ablation of UADB's own design choices: CV ensemble size, warm-start
//! vs per-step reinitialisation, and the dispersion scale of the
//! correction term.

use criterion::{criterion_group, criterion_main, Criterion};
use uadb::booster::CorrectionScale;
use uadb::experiment::{run_matrix, summarize_model, Metric};
use uadb::UadbConfig;
use uadb_bench::report::{f4, f4s, Table};
use uadb_bench::setup;
use uadb_detectors::DetectorKind;

fn bench(c: &mut Criterion) {
    let datasets = setup::datasets();
    let kinds = [DetectorKind::IForest, DetectorKind::Hbos, DetectorKind::Lof];
    let variants: [(&str, UadbConfig); 5] = [
        ("default (3-fold, warm, std)", UadbConfig::with_seed(setup::seed())),
        (
            "single booster (no CV)",
            UadbConfig { cv_folds: 1, ..UadbConfig::with_seed(setup::seed()) },
        ),
        (
            "fresh members per step",
            UadbConfig { warm_start: false, ..UadbConfig::with_seed(setup::seed()) },
        ),
        (
            "raw-variance correction",
            UadbConfig {
                correction: CorrectionScale::Variance,
                ..UadbConfig::with_seed(setup::seed())
            },
        ),
        ("5 UADB steps", UadbConfig { t_steps: 5, ..UadbConfig::with_seed(setup::seed()) }),
    ];
    let mut t = Table::new(vec!["Variant", "avg teacher AUC", "avg booster AUC", "improvement"]);
    for (name, bcfg) in &variants {
        let cfg =
            uadb::experiment::ExperimentConfig { booster: bcfg.clone(), n_runs: 1, n_threads: 0 };
        let results = run_matrix(&kinds, &datasets, &cfg);
        let mut orig = 0.0;
        let mut improv = 0.0;
        for k in kinds {
            let s = summarize_model(&results, k.name(), Metric::AucRoc);
            orig += s.original;
            improv += s.improvement;
        }
        orig /= kinds.len() as f64;
        improv /= kinds.len() as f64;
        t.row(vec![name.to_string(), f4(orig), f4(orig + improv), f4s(improv)]);
    }
    t.print("Ablation: UADB design choices (IForest/HBOS/LOF average)");

    let mut g = c.benchmark_group("ablation_cv");
    g.sample_size(10);
    let d = datasets[0].standardized();
    let teacher = DetectorKind::Hbos.build(0).fit_score(&d.x).unwrap();
    for (label, folds) in [("cv1", 1usize), ("cv3", 3usize)] {
        let cfg = UadbConfig { cv_folds: folds, t_steps: 3, ..UadbConfig::default() };
        g.bench_function(format!("uadb_fit_{label}"), |b| {
            b.iter(|| uadb::Uadb::new(cfg.clone()).fit(&d.x, &teacher).unwrap())
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
