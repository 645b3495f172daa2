//! Experiment settings, read in one place.
//!
//! [`Settings::parse`] turns `UADB_SEED`, `UADB_RUNS`, `UADB_SUITE` and
//! `UADB_SCALE` into one value; `repro` builds it at startup and passes
//! it to every experiment. A malformed value is an error, never a
//! silent fall back to the default: a typo must not run a different
//! experiment than the one asked for.

use std::fmt;
use std::num::NonZeroUsize;
use uadb::experiment::ExperimentConfig;
use uadb::UadbConfig;
use uadb_data::suite::{generate_quick_suite, generate_suite, SuiteScale};
use uadb_data::Dataset;

/// The settings every paper artefact runs under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Settings {
    /// Master seed (`UADB_SEED`, any `u64`; default 0).
    pub seed: u64,
    /// Independent runs averaged per cell (`UADB_RUNS`; default 1; the
    /// paper uses 10).
    pub(crate) runs: NonZeroUsize,
    /// Roster coverage (`UADB_SUITE`): all 84 entries when `true` (the
    /// default, `full`), the 12-dataset quick subset when `false`
    /// (`quick`).
    pub(crate) full_suite: bool,
    /// Dataset sizes (`UADB_SCALE`): `quick` (n ∈ [240, 520], the
    /// default) or `full` (n ∈ [400, 1200]).
    pub(crate) scale: SuiteScale,
}

impl Default for Settings {
    fn default() -> Self {
        Self { seed: 0, runs: NonZeroUsize::MIN, full_suite: true, scale: SuiteScale::Quick }
    }
}

/// A setting whose value is not one the harness accepts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SettingError {
    /// The environment variable.
    var: &'static str,
    /// Its value as given.
    value: String,
    /// What the variable accepts.
    expected: &'static str,
}

impl fmt::Display for SettingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={:?} is not valid: expected {}", self.var, self.value, self.expected)
    }
}

impl std::error::Error for SettingError {}

/// `quick` or `full`, in any case; `true` for `full`.
fn quick_or_full(var: &'static str, value: String) -> Result<bool, SettingError> {
    match value.to_ascii_lowercase().as_str() {
        "quick" => Ok(false),
        "full" => Ok(true),
        _ => Err(SettingError { var, value, expected: "`quick` or `full`" }),
    }
}

impl Settings {
    /// Parses the settings from `lookup` (a variable name to its value,
    /// `None` when unset). Unset variables take their defaults.
    pub fn parse(lookup: impl Fn(&str) -> Option<String>) -> Result<Self, SettingError> {
        let mut s = Self::default();
        if let Some(value) = lookup("UADB_SEED") {
            s.seed = value.parse().map_err(|_| SettingError {
                var: "UADB_SEED",
                value,
                expected: "an unsigned 64-bit integer",
            })?;
        }
        if let Some(value) = lookup("UADB_RUNS") {
            s.runs = value.parse().map_err(|_| SettingError {
                var: "UADB_RUNS",
                value,
                expected: "an integer of at least 1",
            })?;
        }
        if let Some(value) = lookup("UADB_SUITE") {
            s.full_suite = quick_or_full("UADB_SUITE", value)?;
        }
        if let Some(value) = lookup("UADB_SCALE") {
            s.scale = if quick_or_full("UADB_SCALE", value)? {
                SuiteScale::Full
            } else {
                SuiteScale::Quick
            };
        }
        Ok(s)
    }

    /// Parses the settings from the process environment. A value that
    /// is not valid UTF-8 is reported like any other malformed value.
    pub fn from_env() -> Result<Self, SettingError> {
        Self::parse(|var| std::env::var_os(var).map(|v| v.to_string_lossy().into_owned()))
    }

    /// The evaluation datasets: all 84 roster entries, or the
    /// 12-dataset quick subset with `UADB_SUITE=quick`.
    pub fn datasets(&self) -> Vec<Dataset> {
        if self.full_suite {
            self.all_datasets()
        } else {
            generate_quick_suite(self.scale, self.seed)
        }
    }

    /// All 84 roster entries whatever the suite (Table III and the
    /// Fig. 2 "71/84" claim need every dataset).
    pub fn all_datasets(&self) -> Vec<Dataset> {
        generate_suite(self.scale, self.seed)
    }

    /// Paper-default experiment configuration at these runs and seed.
    pub fn experiment_config(&self) -> ExperimentConfig {
        ExperimentConfig {
            booster: UadbConfig::with_seed(self.seed),
            n_runs: self.runs.get(),
            n_threads: 0,
        }
    }

    /// Configuration for the Fig. 1/2 variance probes: the paper's
    /// imitation learner is a *single* static distillation pass, not an
    /// iterative booster, so one well-trained step suffices.
    pub fn probe_config(&self) -> UadbConfig {
        UadbConfig { t_steps: 1, epochs_per_step: 50, ..UadbConfig::with_seed(self.seed) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn parse(vars: &[(&str, &str)]) -> Result<Settings, SettingError> {
        let map: HashMap<String, String> =
            vars.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect();
        Settings::parse(|var| map.get(var).cloned())
    }

    fn error_var(vars: &[(&str, &str)]) -> &'static str {
        parse(vars).expect_err("malformed setting must be rejected").var
    }

    #[test]
    fn defaults_resolve() {
        let s = parse(&[]).unwrap();
        assert_eq!(s, Settings::default());
        assert_eq!((s.seed, s.runs.get(), s.full_suite, s.scale), (0, 1, true, SuiteScale::Quick));
        let cfg = s.experiment_config();
        assert_eq!(cfg.n_runs, 1);
        assert_eq!(cfg.booster.t_steps, 10);
        assert_eq!(s.probe_config().t_steps, 1);
    }

    #[test]
    fn quick_suite_is_the_twelve_dataset_subset() {
        let s = parse(&[("UADB_SUITE", "quick")]).unwrap();
        assert_eq!(s.datasets().len(), 12);
        assert_eq!(s.all_datasets().len(), 84);
    }

    #[test]
    fn valid_values_parse() {
        let s = parse(&[
            ("UADB_SEED", "18446744073709551615"),
            ("UADB_RUNS", "10"),
            ("UADB_SUITE", "quick"),
            ("UADB_SCALE", "full"),
        ])
        .unwrap();
        assert_eq!(
            (s.seed, s.runs.get(), s.full_suite, s.scale),
            (u64::MAX, 10, false, SuiteScale::Full)
        );
    }

    #[test]
    fn suite_and_scale_match_in_any_case() {
        for (value, full) in [("quick", false), ("QUICK", false), ("Full", true), ("fULL", true)] {
            let s = parse(&[("UADB_SUITE", value), ("UADB_SCALE", value)]).unwrap();
            assert_eq!(s.full_suite, full, "UADB_SUITE={value}");
            let scale = if full { SuiteScale::Full } else { SuiteScale::Quick };
            assert_eq!(s.scale, scale, "UADB_SCALE={value}");
        }
    }

    #[test]
    fn malformed_values_are_errors() {
        for seed in ["1e3", "-1", "", " 7", "18446744073709551616", "ten"] {
            assert_eq!(error_var(&[("UADB_SEED", seed)]), "UADB_SEED", "UADB_SEED={seed:?}");
        }
        for runs in ["0", "ten", "-2", "1.5", ""] {
            assert_eq!(error_var(&[("UADB_RUNS", runs)]), "UADB_RUNS", "UADB_RUNS={runs:?}");
        }
        for value in ["large", "small", "", "quick "] {
            assert_eq!(error_var(&[("UADB_SUITE", value)]), "UADB_SUITE");
            assert_eq!(error_var(&[("UADB_SCALE", value)]), "UADB_SCALE");
        }
    }

    #[test]
    fn error_names_variable_value_and_accepted_values() {
        let e = parse(&[("UADB_SCALE", "large")]).unwrap_err();
        assert_eq!(e.to_string(), "UADB_SCALE=\"large\" is not valid: expected `quick` or `full`");
        let e = parse(&[("UADB_SEED", "1e3")]).unwrap_err();
        assert_eq!(e.value, "1e3");
        assert!(e.to_string().contains("unsigned 64-bit integer"), "{e}");
    }
}
