//! `repro <artefact>`: regenerates one of the paper's tables or figures
//! on the simulated suite and prints it to stdout; `repro all` runs
//! every table and figure in sequence, and `repro ablation` the design
//! ablation.
//!
//! The settings come from `UADB_SEED`, `UADB_RUNS`, `UADB_SUITE` and
//! `UADB_SCALE` (see `uadb_bench::setup`), read once at startup. A
//! missing or unknown artefact, or a malformed setting, exits with
//! status 2 before any experiment runs.

use std::process::exit;
use uadb_bench::experiments as ex;
use uadb_bench::setup::Settings;
use uadb_detectors::DetectorKind;

const ALL: &[DetectorKind] = &DetectorKind::ALL;

/// An artefact's name and the code that regenerates it.
type Artefact = (&'static str, fn(&Settings));

/// Every artefact `repro` regenerates, by name. Each runs all 14
/// detectors where the paper does.
const ARTEFACTS: &[Artefact] = &[
    ("table3", ex::table3),
    ("table4", |s| {
        ex::table4(ALL, &s.datasets(), &s.experiment_config());
    }),
    ("table5", |s| ex::table5(&s.datasets(), &s.experiment_config())),
    ("table6", |s| ex::table6(ALL, &s.datasets(), &s.experiment_config())),
    ("fig1", |s| {
        ex::fig1(s, &s.probe_config());
    }),
    ("fig2", |s| {
        ex::fig2(s, &s.probe_config());
    }),
    ("fig4", |s| ex::fig4(s, &s.experiment_config().booster)),
    ("fig5", |s| {
        ex::fig5(s, &s.experiment_config().booster);
    }),
    ("fig6", |s| ex::fig6(s, ALL, &s.experiment_config())),
    ("fig7", |s| ex::fig7(ALL, &s.datasets(), &s.experiment_config(), 20)),
    ("fig8", |s| ex::fig8(ALL, &s.datasets(), &s.experiment_config())),
    ("fig9", |s| ex::fig9(s, &s.experiment_config().booster)),
    ("fig10", |s| {
        let results = uadb::experiment::run_matrix(ALL, &s.datasets(), &s.experiment_config());
        ex::fig10(&results, ALL);
    }),
    ("ablation", |s| ex::ablation(&s.datasets(), &s.experiment_config())),
    ("all", all),
];

/// Every table and figure in sequence; Fig. 10 reuses Table IV's pair
/// results.
fn all(s: &Settings) {
    let datasets = s.datasets();
    let cfg = s.experiment_config();
    let probe_cfg = s.probe_config();
    ex::table3(s);
    ex::fig1(s, &probe_cfg);
    ex::fig2(s, &probe_cfg);
    ex::fig4(s, &cfg.booster);
    ex::fig5(s, &cfg.booster);
    let results = ex::table4(ALL, &datasets, &cfg);
    ex::fig10(&results, ALL);
    ex::table5(&datasets, &cfg);
    ex::table6(ALL, &datasets, &cfg);
    ex::fig6(s, ALL, &cfg);
    ex::fig7(ALL, &datasets, &cfg, 20);
    ex::fig8(ALL, &datasets, &cfg);
    ex::fig9(s, &cfg.booster);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match args.as_slice() {
        [name] => ARTEFACTS.iter().find(|(n, _)| n == name).map(|&(_, run)| run),
        _ => None,
    };
    let Some(run) = run else {
        let names: Vec<&str> = ARTEFACTS.iter().map(|&(n, _)| n).collect();
        eprintln!("usage: repro <artefact>, one of: {}", names.join(" "));
        exit(2);
    };
    let settings = Settings::from_env().unwrap_or_else(|e| {
        eprintln!("repro: {e}");
        exit(2);
    });
    run(&settings);
}
