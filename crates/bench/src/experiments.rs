//! One function per table/figure of the paper, named after it; each
//! computes the experiment and prints the corresponding rows.

use crate::report::{f4, f4s, pval, Table};
use crate::setup;
use uadb::experiment::{
    run_matrix, run_scheme_matrix, summarize_model, ExperimentConfig, Metric, PairResult,
};
use uadb::trajectory;
use uadb::variance_probe::{probe, VarianceEvidence};
use uadb::{BoosterScheme, Uadb, UadbConfig};
use uadb_data::synth::{fig5_dataset, AnomalyType};
use uadb_data::Dataset;
use uadb_detectors::DetectorKind;
use uadb_metrics::{count_errors_top_k, error_correction_rate, roc_auc};
use uadb_stats::BoxplotStats;

/// Table III: the dataset roster with generated shapes.
pub fn table3() {
    let datasets = setup::all_datasets();
    let mut t = Table::new(vec!["Dataset", "n", "d", "% Anomaly", "Category"]);
    for d in &datasets {
        t.row(vec![
            d.name.clone(),
            d.n_samples().to_string(),
            d.n_features().to_string(),
            format!("{:.2}", d.anomaly_pct()),
            d.category.to_string(),
        ]);
    }
    t.print("Table III: data description of the 84 simulated datasets");
}

/// Table IV: the main result — per-model teacher average, UADB
/// improvement, effects count and Wilcoxon p, for both metrics.
/// Returns the raw pair results so callers (Fig. 10) can reuse them.
pub fn table4(
    kinds: &[DetectorKind],
    datasets: &[Dataset],
    cfg: &ExperimentConfig,
) -> Vec<PairResult> {
    let results = run_matrix(kinds, datasets, cfg);
    for (metric, name) in [(Metric::AucRoc, "AUCROC"), (Metric::Ap, "AP")] {
        let mut t = Table::new(vec![
            "Model",
            "Original",
            "Improvement",
            "Improvement (%)",
            "Effects",
            "P-value",
        ]);
        for k in kinds {
            let s = summarize_model(&results, k.name(), metric);
            t.row(vec![
                s.model.to_string(),
                f4(s.original),
                f4s(s.improvement),
                format!("{:+.2}", s.improvement_pct),
                format!("{}/{}", s.effects, s.n_datasets),
                pval(s.p_value),
            ]);
        }
        t.print(&format!("Table IV ({name}): UADB improvement over the source UAD models"));
    }
    results
}

/// Table V: per-iteration booster performance for 4 representative
/// teachers on their 5 most-improved datasets.
pub fn table5(datasets: &[Dataset], cfg: &ExperimentConfig) {
    let kinds = [DetectorKind::IForest, DetectorKind::Hbos, DetectorKind::Lof, DetectorKind::Knn];
    let results = run_matrix(&kinds, datasets, cfg);
    for (metric, mname) in [(Metric::AucRoc, "AUCROC"), (Metric::Ap, "AP")] {
        for k in kinds {
            let mut rows: Vec<&PairResult> =
                results.iter().filter(|r| r.model == k.name()).collect();
            fn value(r: &PairResult, metric: Metric) -> (f64, &Vec<f64>) {
                match metric {
                    Metric::AucRoc => (r.teacher_auc, &r.iter_auc),
                    Metric::Ap => (r.teacher_ap, &r.iter_ap),
                }
            }
            rows.sort_by(|a, b| {
                let ia = value(a, metric).1.last().unwrap() - value(a, metric).0;
                let ib = value(b, metric).1.last().unwrap() - value(b, metric).0;
                ib.partial_cmp(&ia).unwrap()
            });
            let mut t = Table::new(vec![
                "Datasets",
                "Teacher",
                "iter 2",
                "iter 4",
                "iter 6",
                "iter 8",
                "iter 10",
                "Improvement",
            ]);
            for r in rows.iter().take(5) {
                let (teacher, iters) = value(r, metric);
                let at = |i: usize| iters.get(i - 1).copied().unwrap_or(f64::NAN);
                let last = iters.last().copied().unwrap_or(teacher);
                t.row(vec![
                    r.dataset.clone(),
                    f4(teacher),
                    f4(at(2)),
                    f4(at(4)),
                    f4(at(6)),
                    f4(at(8)),
                    f4(at(10)),
                    f4s(last - teacher),
                ]);
            }
            t.print(&format!("Table V: {} and its UADB booster, {mname}", k.name()));
        }
    }
}

/// Table VI: the booster-scheme ablation over all models.
pub fn table6(kinds: &[DetectorKind], datasets: &[Dataset], cfg: &ExperimentConfig) {
    let results = run_scheme_matrix(kinds, datasets, &BoosterScheme::ALL, cfg);
    for (metric, mname) in [("auc", "AUCROC"), ("ap", "AP")] {
        let mut headers: Vec<String> = vec!["Scheme".to_string()];
        headers.extend(kinds.iter().map(|k| k.name().to_string()));
        headers.push("Average".to_string());
        let mut t = Table::new(headers);
        for scheme in BoosterScheme::ALL {
            let mut row = vec![scheme.name().to_string()];
            let mut total = 0.0;
            for k in kinds {
                let vals: Vec<f64> = results
                    .iter()
                    .filter(|r| r.model == k.name() && r.scheme == scheme.name())
                    .map(|r| if metric == "auc" { r.auc } else { r.ap })
                    .collect();
                let mean = vals.iter().sum::<f64>() / vals.len().max(1) as f64;
                total += mean;
                row.push(f4(mean));
            }
            row.push(f4(total / kinds.len() as f64));
            t.row(row);
        }
        t.print(&format!("Table VI: booster training strategies, {mname}"));
    }
}

/// Fig. 1: per-instance variance of inliers vs anomalies under IForest +
/// naive imitation learner, on the paper's four example datasets.
pub fn fig1(cfg: &UadbConfig) -> Vec<VarianceEvidence> {
    let names = ["12_glass", "25_musk", "27_PageBlocks", "39_thyroid"];
    let scale = uadb_data::suite::SuiteScale::from_env();
    let mut t = Table::new(vec![
        "Dataset",
        "mean var (normal)",
        "mean var (anomaly)",
        "anomaly q3",
        "anomalies higher?",
    ]);
    let mut out = Vec::new();
    for name in names {
        let d = uadb_data::suite::generate_by_name(name, scale, setup::seed())
            .expect("roster name")
            .standardized();
        let teacher = DetectorKind::IForest.build(cfg.seed).fit_score(&d.x).unwrap();
        let ev = probe(&d, &teacher, cfg).unwrap();
        let anom_vars: Vec<f64> = ev
            .per_instance
            .iter()
            .zip(&d.labels)
            .filter(|(_, &l)| l == 1)
            .map(|(&v, _)| v)
            .collect();
        let q3 = BoxplotStats::from_values(&anom_vars).map(|b| b.q3).unwrap_or(0.0);
        t.row(vec![
            name.to_string(),
            format!("{:.5}", ev.mean_normal),
            format!("{:.5}", ev.mean_abnormal),
            format!("{q3:.5}"),
            if ev.anomalies_have_higher_variance() { "yes" } else { "no" }.to_string(),
        ]);
        out.push(ev);
    }
    t.print("Fig. 1: sample variance of normal vs abnormal instances (IForest + MLP imitator)");
    out
}

/// Fig. 2: relative variance difference on all 84 datasets. Returns the
/// evidence per dataset (reused by Fig. 6).
pub fn fig2(cfg: &UadbConfig) -> Vec<VarianceEvidence> {
    let datasets = setup::all_datasets();
    let evidence: Vec<VarianceEvidence> = datasets
        .iter()
        .map(|d| {
            let std_d = d.standardized();
            let teacher = DetectorKind::IForest.build(cfg.seed).fit_score(&std_d.x).unwrap();
            probe(&std_d, &teacher, cfg).unwrap()
        })
        .collect();
    let holds = evidence.iter().filter(|e| e.anomalies_have_higher_variance()).count();
    let strong = evidence.iter().filter(|e| e.relative_difference() < -0.05).count();
    let mut sorted: Vec<&VarianceEvidence> = evidence.iter().collect();
    sorted.sort_by(|a, b| a.relative_difference().partial_cmp(&b.relative_difference()).unwrap());
    let mut t = Table::new(vec!["Dataset", "Variance decrease (rel.)"]);
    for e in &sorted {
        t.row(vec![e.dataset.clone(), format!("{:+.3}", e.relative_difference())]);
    }
    t.print("Fig. 2: relative average variance difference (negative = anomalies higher)");
    println!(
        "anomalies have higher variance on {holds}/{} datasets (paper: 71/84); \
         relative gap > 5% on {strong}/{} (paper: 60/84)",
        evidence.len(),
        evidence.len()
    );
    evidence
}

/// Fig. 4: per-case booster score trajectories, UADB vs a static student.
pub fn fig4(cfg: &UadbConfig) {
    let d = fig5_dataset(AnomalyType::Clustered, setup::seed() ^ 0xf164).standardized();
    let teacher = DetectorKind::IForest.build(cfg.seed).fit_score(&d.x).unwrap();
    let (traj, _) = trajectory::trace(&d, &teacher, cfg).unwrap();
    let mut t = Table::new(vec!["iter", "TN", "TP", "FP", "FN", "AUCROC"]);
    for (i, (scores, auc)) in traj.mean_scores.iter().zip(&traj.auc_per_iter).enumerate() {
        t.row(vec![
            (i + 1).to_string(),
            f4(scores[0]),
            f4(scores[1]),
            f4(scores[2]),
            f4(scores[3]),
            f4(*auc),
        ]);
    }
    t.print("Fig. 4: UADB error correction — mean booster score per case per iteration");
    // Static student (no correction): the booster mimics the teacher, so
    // per-case means stay at the teacher's levels.
    let naive = BoosterScheme::Naive.run(&d.x, &teacher, cfg).unwrap();
    let cases = trajectory::assign_cases(&d, &teacher);
    let labels = d.labels_f64();
    let mut means = [0.0f64; 4];
    let mut counts = [0usize; 4];
    for (&s, &c) in naive.iter().zip(&cases) {
        let i = trajectory::Case::ALL.iter().position(|&a| a == c).unwrap();
        means[i] += s;
        counts[i] += 1;
    }
    for (m, c) in means.iter_mut().zip(counts) {
        if c > 0 {
            *m /= c as f64;
        }
    }
    println!(
        "static student (no correction): TN={} TP={} FP={} FN={} AUCROC={}",
        f4(means[0]),
        f4(means[1]),
        f4(means[2]),
        f4(means[3]),
        f4(roc_auc(&labels, &naive)),
    );
}

/// Fig. 5: the synthetic study — error counts of teacher vs booster on
/// the four anomaly types. Returns the average correction rate.
pub fn fig5(cfg: &UadbConfig) -> f64 {
    // (anomaly type, the two models the paper pairs with it)
    let pairs: [(AnomalyType, [DetectorKind; 2]); 4] = [
        (AnomalyType::Clustered, [DetectorKind::IForest, DetectorKind::Hbos]),
        (AnomalyType::Global, [DetectorKind::IForest, DetectorKind::Hbos]),
        (AnomalyType::Local, [DetectorKind::IForest, DetectorKind::Lof]),
        (AnomalyType::Dependency, [DetectorKind::IForest, DetectorKind::Knn]),
    ];
    let mut t = Table::new(vec![
        "Anomaly type",
        "Model",
        "Teacher errors",
        "Booster errors",
        "Correction rate",
        "Teacher AUC",
        "Booster AUC",
    ]);
    let mut rates = Vec::with_capacity(8);
    for (ty, models) in pairs {
        let d = fig5_dataset(ty, setup::seed() ^ 0x515).standardized();
        let labels = d.labels_f64();
        let budget = d.n_anomalies();
        for kind in models {
            let teacher = kind.build(cfg.seed).fit_score(&d.x).unwrap();
            let teacher_errors = count_errors_top_k(&labels, &teacher, budget).errors();
            let model = Uadb::new(cfg.clone()).fit(&d.x, &teacher).unwrap();
            let boosted = model.scores();
            let booster_errors = count_errors_top_k(&labels, boosted, budget).errors();
            let rate = error_correction_rate(teacher_errors, booster_errors);
            rates.push(rate);
            t.row(vec![
                ty.name().to_string(),
                kind.name().to_string(),
                teacher_errors.to_string(),
                booster_errors.to_string(),
                format!("{:.2}%", 100.0 * rate),
                f4(roc_auc(&labels, &teacher)),
                f4(roc_auc(&labels, boosted)),
            ]);
        }
    }
    let avg = rates.iter().sum::<f64>() / rates.len() as f64;
    t.print("Fig. 5: synthetic anomaly types — teacher vs booster errors");
    println!(
        "average correction rate {:.2}% over 8 model-anomaly pairs (paper: 38.94%, max 86.36%)",
        100.0 * avg
    );
    avg
}

/// Fig. 6: UADB improvement restricted to the datasets where the variance
/// evidence fails (anomalies do NOT have higher variance).
pub fn fig6(kinds: &[DetectorKind], cfg: &ExperimentConfig) {
    let evidence = {
        let datasets = setup::all_datasets();
        datasets
            .iter()
            .map(|d| {
                let std_d = d.standardized();
                let teacher =
                    DetectorKind::IForest.build(cfg.booster.seed).fit_score(&std_d.x).unwrap();
                probe(&std_d, &teacher, &cfg.booster).unwrap()
            })
            .collect::<Vec<_>>()
    };
    let failing: Vec<String> = evidence
        .iter()
        .filter(|e| !e.anomalies_have_higher_variance())
        .map(|e| e.dataset.clone())
        .collect();
    println!(
        "\nFig. 6 universe: {} datasets where anomalies do NOT have higher variance",
        failing.len()
    );
    let datasets: Vec<Dataset> =
        setup::all_datasets().into_iter().filter(|d| failing.contains(&d.name)).collect();
    if datasets.is_empty() {
        println!("(no failing datasets at this seed — evidence holds everywhere)");
        return;
    }
    let results = run_matrix(kinds, &datasets, cfg);
    let mut t = Table::new(vec!["Model", "median improv.", "q1", "q3", "improved on"]);
    for k in kinds {
        let improvements: Vec<f64> =
            results.iter().filter(|r| r.model == k.name()).map(|r| r.auc_improvement()).collect();
        let b = BoxplotStats::from_values(&improvements).expect("non-empty");
        let wins = improvements.iter().filter(|v| **v > 0.0).count();
        t.row(vec![
            k.name().to_string(),
            f4s(b.median),
            f4s(b.q1),
            f4s(b.q3),
            format!("{}/{}", wins, improvements.len()),
        ]);
    }
    t.print("Fig. 6: UADB improvement (AUCROC) on variance-evidence-failing datasets");
}

/// Fig. 7: sensitivity to the number of UADB training iterations.
pub fn fig7(kinds: &[DetectorKind], datasets: &[Dataset], cfg: &ExperimentConfig, t_max: usize) {
    let mut sweep_cfg = cfg.clone();
    sweep_cfg.booster.t_steps = t_max;
    let results = run_matrix(kinds, datasets, &sweep_cfg);
    let mut t =
        Table::new(vec!["Model", "iter 0", "iter 4", "iter 8", "iter 12", "iter 16", "iter 20"]);
    for k in kinds {
        let rows: Vec<&PairResult> = results.iter().filter(|r| r.model == k.name()).collect();
        let mean_at = |i: usize| -> f64 {
            rows.iter()
                .map(|r| if i == 0 { r.teacher_auc } else { r.iter_auc[(i - 1).min(t_max - 1)] })
                .sum::<f64>()
                / rows.len().max(1) as f64
        };
        t.row(vec![
            k.name().to_string(),
            f4(mean_at(0)),
            f4(mean_at(4)),
            f4(mean_at(8)),
            f4(mean_at(12)),
            f4(mean_at(16)),
            f4(mean_at(20)),
        ]);
    }
    t.print("Fig. 7: average AUCROC vs UADB training iterations (iter 0 = teacher)");
}

/// Fig. 8: sensitivity to booster MLP depth (number of 128-wide hidden
/// layers).
pub fn fig8(kinds: &[DetectorKind], datasets: &[Dataset], cfg: &ExperimentConfig) {
    let mut t = Table::new(vec!["Model", "1 layer", "2 layers", "3 layers", "4 layers"]);
    let mut per_model: Vec<Vec<String>> =
        kinds.iter().map(|k| vec![k.name().to_string()]).collect();
    for depth in 1..=4usize {
        let mut depth_cfg = cfg.clone();
        depth_cfg.booster.hidden = vec![128; depth];
        let results = run_matrix(kinds, datasets, &depth_cfg);
        for (ki, k) in kinds.iter().enumerate() {
            let s = summarize_model(&results, k.name(), Metric::AucRoc);
            per_model[ki].push(f4(s.original + s.improvement));
        }
    }
    for row in per_model {
        t.row(row);
    }
    t.print("Fig. 8: average booster AUCROC vs MLP depth");
}

/// Fig. 9: ranking development of TP/TN/FP/FN under a LOF teacher with
/// T = 20 on the paper's three example datasets.
pub fn fig9(cfg: &UadbConfig) {
    let mut long_cfg = cfg.clone();
    long_cfg.t_steps = 20;
    let scale = uadb_data::suite::SuiteScale::from_env();
    for name in ["19_landsat", "26_optdigits", "31_satellite"] {
        let d = uadb_data::suite::generate_by_name(name, scale, setup::seed())
            .expect("roster name")
            .standardized();
        let teacher = DetectorKind::Lof.build(cfg.seed).fit_score(&d.x).unwrap();
        let (traj, _) = trajectory::trace(&d, &teacher, &long_cfg).unwrap();
        let mut t = Table::new(vec!["iter", "rank TP", "rank TN", "rank FP", "rank FN", "AUCROC"]);
        for (i, (ranks, auc)) in traj.mean_ranks.iter().zip(&traj.auc_per_iter).enumerate() {
            if (i + 1) % 2 == 0 || i == 0 {
                t.row(vec![
                    (i + 1).to_string(),
                    format!("{:.1}", ranks[1]),
                    format!("{:.1}", ranks[0]),
                    format!("{:.1}", ranks[2]),
                    format!("{:.1}", ranks[3]),
                    f4(*auc),
                ]);
            }
        }
        t.print(&format!("Fig. 9: {name} — mean ranking per case (LOF teacher, T=20)"));
    }
}

/// Fig. 10: five-number summaries of teacher vs booster scores per model
/// (the boxplot ablation of RQ3). Reuses Table IV pair results.
pub fn fig10(results: &[PairResult], kinds: &[DetectorKind]) {
    for (metric, name) in [(Metric::AucRoc, "AUCROC"), (Metric::Ap, "AP")] {
        let mut t = Table::new(vec![
            "Model",
            "teacher median",
            "teacher q1..q3",
            "booster median",
            "booster q1..q3",
        ]);
        for k in kinds {
            let (teacher, booster): (Vec<f64>, Vec<f64>) = results
                .iter()
                .filter(|r| r.model == k.name())
                .map(|r| match metric {
                    Metric::AucRoc => (r.teacher_auc, r.booster_auc),
                    Metric::Ap => (r.teacher_ap, r.booster_ap),
                })
                .unzip();
            let bt = BoxplotStats::from_values(&teacher).expect("non-empty");
            let bb = BoxplotStats::from_values(&booster).expect("non-empty");
            t.row(vec![
                k.name().to_string(),
                f4(bt.median),
                format!("{}..{}", f4(bt.q1), f4(bt.q3)),
                f4(bb.median),
                format!("{}..{}", f4(bb.q1), f4(bb.q3)),
            ]);
        }
        t.print(&format!("Fig. 10: teacher vs UADB booster distribution per model ({name})"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ExperimentConfig {
        ExperimentConfig { booster: UadbConfig::fast_for_tests(0), n_runs: 1, n_threads: 2 }
    }

    #[test]
    fn fig5_produces_rates_in_range() {
        let avg = fig5(&UadbConfig::fast_for_tests(0));
        assert!((0.0..=1.0).contains(&avg));
    }

    #[test]
    fn table4_and_fig10_pipeline() {
        let datasets = vec![fig5_dataset(AnomalyType::Global, 1)];
        let kinds = [DetectorKind::Hbos];
        let results = table4(&kinds, &datasets, &tiny_cfg());
        assert_eq!(results.len(), 1);
        fig10(&results, &kinds);
    }

    #[test]
    fn fig1_reports_four_datasets() {
        let ev = fig1(&UadbConfig::fast_for_tests(0));
        assert_eq!(ev.len(), 4);
    }
}
