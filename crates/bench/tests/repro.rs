//! End-to-end checks of the `repro` binary: a cheap artefact runs and
//! prints its table, while a missing or unknown artefact and a malformed
//! setting exit with status 2 before any experiment work. Settings are
//! set on the child process only.

use std::process::{Command, Output};
use uadb_data::ROSTER;

const ARTEFACTS: [&str; 15] = [
    "table3", "table4", "table5", "table6", "fig1", "fig2", "fig4", "fig5", "fig6", "fig7", "fig8",
    "fig9", "fig10", "ablation", "all",
];

/// Runs `repro args…` with the four settings unset except those in `env`.
fn repro(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args(args);
    for var in ["UADB_SEED", "UADB_RUNS", "UADB_SUITE", "UADB_SCALE"] {
        cmd.env_remove(var);
    }
    cmd.envs(env.iter().copied());
    cmd.output().expect("repro runs")
}

fn text(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("UTF-8 output")
}

#[test]
fn table3_prints_the_header_and_every_roster_row() {
    let out = repro(&["table3"], &[]);
    assert!(out.status.success(), "stderr: {}", text(&out.stderr));
    let stdout = text(&out.stdout);
    assert!(stdout.contains("=== Table III: data description of the 84 simulated datasets ==="));
    let header: Vec<&str> = stdout
        .lines()
        .find(|l| l.starts_with("Dataset"))
        .expect("column header")
        .split("  ")
        .map(str::trim)
        .filter(|c| !c.is_empty())
        .collect();
    assert_eq!(header, ["Dataset", "n", "d", "% Anomaly", "Category"]);
    let rows: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .filter(|first| ROSTER.iter().any(|r| r.name == *first))
        .collect();
    assert_eq!(rows.len(), 84);
    assert!(ROSTER.iter().all(|r| rows.contains(&r.name)), "every roster entry is printed");
}

#[test]
fn missing_or_unknown_artefact_prints_usage_and_exits_2() {
    for args in [&[][..], &["fig3"], &["table3", "fig1"]] {
        let out = repro(args, &[]);
        assert_eq!(out.status.code(), Some(2), "repro {args:?}");
        assert!(out.stdout.is_empty(), "repro {args:?} ran an experiment");
        let stderr = text(&out.stderr);
        let usage = stderr.lines().find(|l| l.starts_with("usage: repro")).expect("usage line");
        for artefact in ARTEFACTS {
            assert!(
                usage.split_whitespace().any(|w| w == artefact),
                "usage line {usage:?} does not name {artefact}"
            );
        }
    }
}

#[test]
fn malformed_setting_exits_2_naming_the_variable() {
    for (var, value) in [("UADB_SEED", "1e3"), ("UADB_SCALE", "large")] {
        let out = repro(&["table3"], &[(var, value)]);
        assert_eq!(out.status.code(), Some(2), "{var}={value}");
        assert!(out.stdout.is_empty(), "{var}={value} ran an experiment");
        let stderr = text(&out.stderr);
        assert!(stderr.contains(var) && stderr.contains(value), "{var}={value}: {stderr:?}");
    }
}
