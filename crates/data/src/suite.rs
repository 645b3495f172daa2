//! The 84-dataset simulated suite, one entry per row of the paper's
//! Table III.
//!
//! Substitution note: the paper uses the real ADBench datasets, which
//! cannot be redistributed here; this crate regenerates a *simulated*
//! stand-in per roster entry with the same name, anomaly percentage and
//! category. Each dataset's generator parameters (dimensionality,
//! cluster count, anomaly type mixture, difficulty) are derived
//! deterministically from the dataset name, so the suite is
//! heterogeneous — which is precisely the property the paper's "no
//! universal winner" argument rests on — and fully reproducible.

use crate::dataset::Dataset;
use crate::synth::{generate, AnomalyType, SynthConfig};

/// One row of Table III.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RosterEntry {
    /// Dataset name with its ADBench index prefix (e.g. `"12_glass"`).
    pub name: &'static str,
    /// Anomaly percentage as printed in Table III.
    pub anomaly_pct: f64,
    /// Application-domain category.
    pub category: &'static str,
}

const fn e(name: &'static str, anomaly_pct: f64, category: &'static str) -> RosterEntry {
    RosterEntry { name, anomaly_pct, category }
}

/// The 84 datasets of Table III (47 native tabular + 30 CV embeddings +
/// 7 NLP embeddings).
pub const ROSTER: [RosterEntry; 84] = [
    e("1_abalone", 49.82, "Biology"),
    e("2_ALOI", 3.04, "Image"),
    e("3_annthyroid", 7.42, "Healthcare"),
    e("4_Arrhythmia", 45.78, "Healthcare"),
    e("5_breastw", 34.99, "Healthcare"),
    e("6_cardio", 9.61, "Healthcare"),
    e("7_Cardiotocography", 22.04, "Healthcare"),
    e("9_concrete", 50.00, "Physical"),
    e("10_cover", 0.96, "Botany"),
    e("11_fault", 34.67, "Physical"),
    e("12_glass", 4.21, "Forensic"),
    e("13_HeartDisease", 44.44, "Healthcare"),
    e("14_Hepatitis", 16.25, "Healthcare"),
    e("15_http", 0.39, "Web"),
    e("16_imgseg", 42.86, "Image"),
    e("17_InternetAds", 18.72, "Image"),
    e("18_Ionosphere", 35.90, "Oryctognosy"),
    e("19_landsat", 20.71, "Astronautics"),
    e("20_letter", 6.25, "Image"),
    e("21_Lymphography", 4.05, "Healthcare"),
    e("22_magic.gamma", 35.16, "Physical"),
    e("23_mammography", 2.32, "Healthcare"),
    e("24_mnist", 9.21, "Image"),
    e("25_musk", 3.17, "Chemistry"),
    e("26_optdigits", 2.88, "Image"),
    e("27_PageBlocks", 9.46, "Document"),
    e("28_Parkinson", 75.38, "Healthcare"),
    e("29_pendigits", 2.27, "Image"),
    e("30_Pima", 34.90, "Healthcare"),
    e("31_satellite", 31.64, "Astronautics"),
    e("32_satimage-2", 1.22, "Astronautics"),
    e("33_shuttle", 7.15, "Astronautics"),
    e("34_skin", 20.75, "Image"),
    e("35_smtp", 0.03, "Web"),
    e("36_SpamBase", 39.91, "Document"),
    e("37_speech", 1.65, "Linguistics"),
    e("38_Stamps", 9.12, "Document"),
    e("39_thyroid", 2.47, "Healthcare"),
    e("40_vertebral", 12.50, "Biology"),
    e("41_vowels", 3.43, "Linguistics"),
    e("42_Waveform", 2.90, "Physics"),
    e("43_WBC", 4.48, "Healthcare"),
    e("44_WDBC", 2.72, "Healthcare"),
    e("45_Wilt", 5.33, "Botany"),
    e("46_wine", 7.75, "Chemistry"),
    e("47_WPBC", 23.74, "Healthcare"),
    e("48_yeast", 34.16, "Biology"),
    e("49_CIFAR10_0", 5.00, "Image"),
    e("49_CIFAR10_1", 5.00, "Image"),
    e("49_CIFAR10_2", 5.00, "Image"),
    e("49_CIFAR10_3", 5.00, "Image"),
    e("49_CIFAR10_4", 5.00, "Image"),
    e("49_CIFAR10_5", 5.00, "Image"),
    e("49_CIFAR10_6", 5.00, "Image"),
    e("49_CIFAR10_7", 5.00, "Image"),
    e("49_CIFAR10_8", 5.00, "Image"),
    e("49_CIFAR10_9", 5.00, "Image"),
    e("50_FashionMNIST_0", 5.00, "Image"),
    e("50_FashionMNIST_1", 5.00, "Image"),
    e("50_FashionMNIST_2", 5.00, "Image"),
    e("50_FashionMNIST_3", 5.00, "Image"),
    e("50_FashionMNIST_4", 5.00, "Image"),
    e("50_FashionMNIST_5", 5.00, "Image"),
    e("50_FashionMNIST_6", 5.00, "Image"),
    e("50_FashionMNIST_7", 5.00, "Image"),
    e("50_FashionMNIST_8", 5.00, "Image"),
    e("50_FashionMNIST_9", 5.00, "Image"),
    e("51_SVHN_0", 5.00, "Image"),
    e("51_SVHN_1", 5.00, "Image"),
    e("51_SVHN_2", 5.00, "Image"),
    e("51_SVHN_3", 5.00, "Image"),
    e("51_SVHN_4", 5.00, "Image"),
    e("51_SVHN_5", 5.00, "Image"),
    e("51_SVHN_6", 5.00, "Image"),
    e("51_SVHN_7", 5.00, "Image"),
    e("51_SVHN_8", 5.00, "Image"),
    e("51_SVHN_9", 5.00, "Image"),
    e("52_agnews_0", 5.00, "NLP"),
    e("52_agnews_1", 5.00, "NLP"),
    e("52_agnews_2", 5.00, "NLP"),
    e("52_agnews_3", 5.00, "NLP"),
    e("53_amazon", 5.00, "NLP"),
    e("54_imdb", 5.00, "NLP"),
    e("55_yelp", 5.00, "NLP"),
];

/// The 12-dataset representative subset used by the quick benchmark
/// profile: spans anomaly rates from 0.39% to 75%, native and embedding
/// categories, and all four anomaly-type regimes.
pub const QUICK_SUBSET: [&str; 12] = [
    "12_glass",
    "39_thyroid",
    "27_PageBlocks",
    "25_musk",
    "15_http",
    "31_satellite",
    "19_landsat",
    "26_optdigits",
    "28_Parkinson",
    "49_CIFAR10_0",
    "52_agnews_0",
    "6_cardio",
];

/// Suite size profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuiteScale {
    /// Small datasets (n ∈ [240, 520]) for CI-grade runs.
    Quick,
    /// Laptop-scale datasets (n ∈ [400, 1200]) for full reproductions.
    Full,
}

impl SuiteScale {
    /// Reads `UADB_SCALE` (`quick`/`full`) from the environment,
    /// defaulting to `Quick`. Orthogonal to `UADB_SUITE`, which selects
    /// roster *coverage* (12-dataset subset vs all 84) in the harness —
    /// the full-run `uadb_bench` binaries default to full coverage at
    /// quick scale.
    pub fn from_env() -> Self {
        match std::env::var("UADB_SCALE").ok().as_deref() {
            Some("full") | Some("FULL") => SuiteScale::Full,
            _ => SuiteScale::Quick,
        }
    }
}

/// FNV-1a 64-bit hash — the deterministic per-name parameter source.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Looks up a roster entry by its full name.
pub fn roster_entry(name: &str) -> Option<&'static RosterEntry> {
    ROSTER.iter().find(|r| r.name == name)
}

/// Generates the simulated dataset for a roster entry.
///
/// All generator parameters are functions of `fnv1a(entry.name) ^ seed`,
/// so the same (name, seed, scale) triple always yields identical data.
pub fn generate_entry(entry: &RosterEntry, scale: SuiteScale, seed: u64) -> Dataset {
    let h = fnv1a(entry.name) ^ seed.wrapping_mul(0x9e3779b97f4a7c15);
    let (n_lo, n_hi) = match scale {
        SuiteScale::Quick => (240usize, 520usize),
        SuiteScale::Full => (400usize, 1200usize),
    };
    let n = n_lo + (h % (n_hi - n_lo) as u64) as usize;
    let is_embedding = matches!(entry.category, "Image" | "NLP");
    let d = if is_embedding {
        16 + ((h >> 8) % 33) as usize // 16..48: CV/NLP feature-extractor dims
    } else {
        4 + ((h >> 8) % 17) as usize // 4..20: native tabular dims
    };
    let n_anom = ((entry.anomaly_pct / 100.0) * n as f64).round().max(1.0) as usize;
    let n_anom = n_anom.min(n - 2); // keep at least two inliers
    let n_inliers = n - n_anom;

    // Anomaly-type mixture: two dominant types per dataset, picked and
    // weighted from the hash. Heterogeneous mixtures are what defeat any
    // single detector assumption (paper §I).
    let all = AnomalyType::ALL;
    let primary = all[((h >> 16) % 4) as usize];
    let secondary = all[((h >> 18) % 4) as usize];
    let w_primary = 0.55 + ((h >> 24) % 35) as f64 / 100.0; // 0.55..0.90
    let mix = if primary == secondary {
        vec![(primary, 1.0)]
    } else {
        vec![(primary, w_primary), (secondary, 1.0 - w_primary)]
    };

    let cfg = SynthConfig {
        n_inliers,
        n_anomalies: n_anom,
        dim: d,
        n_clusters: 1 + ((h >> 32) % 3) as usize,
        anomaly_mix: mix,
        // Difficulty calibrated so teacher AUCs land in the paper's
        // observed band (≈0.55–0.9 on ADBench): anomalies overlap the
        // inlier support instead of sitting in free space.
        local_alpha: 2.0 + ((h >> 36) % 30) as f64 / 10.0, // 2.0..5.0
        cluster_offset: 1.2 + ((h >> 42) % 16) as f64 / 10.0, // 1.2..2.8
        seed: h,
    };
    generate(entry.name, entry.category, &cfg)
}

/// Generates the full 84-dataset suite.
pub fn generate_suite(scale: SuiteScale, seed: u64) -> Vec<Dataset> {
    ROSTER.iter().map(|e| generate_entry(e, scale, seed)).collect()
}

/// Generates the 12-dataset quick subset.
pub fn generate_quick_suite(scale: SuiteScale, seed: u64) -> Vec<Dataset> {
    QUICK_SUBSET
        .iter()
        .map(|name| {
            let entry = roster_entry(name).expect("quick subset names are roster names");
            generate_entry(entry, scale, seed)
        })
        .collect()
}

/// Generates a dataset by roster name; `None` for unknown names.
pub fn generate_by_name(name: &str, scale: SuiteScale, seed: u64) -> Option<Dataset> {
    roster_entry(name).map(|e| generate_entry(e, scale, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_has_84_unique_entries() {
        assert_eq!(ROSTER.len(), 84);
        let mut names: Vec<&str> = ROSTER.iter().map(|r| r.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 84, "roster names must be unique");
    }

    #[test]
    fn quick_subset_names_resolve() {
        for name in QUICK_SUBSET {
            assert!(roster_entry(name).is_some(), "{name} missing from roster");
        }
    }

    #[test]
    fn generated_entry_matches_roster_stats() {
        let entry = roster_entry("12_glass").unwrap();
        let d = generate_entry(entry, SuiteScale::Quick, 0);
        assert_eq!(d.name, "12_glass");
        assert_eq!(d.category, "Forensic");
        // Anomaly percentage within rounding of Table III.
        assert!(
            (d.anomaly_pct() - entry.anomaly_pct).abs() < 1.0,
            "pct {} vs roster {}",
            d.anomaly_pct(),
            entry.anomaly_pct
        );
        assert!(d.n_samples() >= 240 && d.n_samples() <= 520);
    }

    #[test]
    fn extreme_rates_still_have_anomalies_and_inliers() {
        // smtp has 0.03% anomalies; Parkinson has 75.38%.
        for name in ["35_smtp", "28_Parkinson"] {
            let d = generate_by_name(name, SuiteScale::Quick, 1).unwrap();
            assert!(d.n_anomalies() >= 1, "{name} must keep >=1 anomaly");
            assert!(d.n_samples() - d.n_anomalies() >= 2, "{name} must keep >=2 inliers");
        }
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let e = roster_entry("39_thyroid").unwrap();
        let a = generate_entry(e, SuiteScale::Quick, 5);
        let b = generate_entry(e, SuiteScale::Quick, 5);
        assert_eq!(a.x.as_slice(), b.x.as_slice());
        let c = generate_entry(e, SuiteScale::Quick, 6);
        assert_ne!(a.x.as_slice(), c.x.as_slice());
    }

    #[test]
    fn embedding_datasets_are_higher_dimensional() {
        let img = generate_by_name("49_CIFAR10_0", SuiteScale::Quick, 0).unwrap();
        assert!(img.n_features() >= 16);
        let native = generate_by_name("12_glass", SuiteScale::Quick, 0).unwrap();
        assert!(native.n_features() <= 20);
    }

    #[test]
    fn full_scale_is_larger() {
        let e = roster_entry("6_cardio").unwrap();
        let q = generate_entry(e, SuiteScale::Quick, 0);
        let f = generate_entry(e, SuiteScale::Full, 0);
        assert!(f.n_samples() >= 400);
        assert!(f.n_samples() >= q.n_samples() || q.n_samples() <= 520);
    }

    #[test]
    fn generate_by_unknown_name_is_none() {
        assert!(generate_by_name("not_a_dataset", SuiteScale::Quick, 0).is_none());
    }

    #[test]
    fn suite_scale_env_default_is_quick() {
        std::env::remove_var("UADB_SCALE");
        assert_eq!(SuiteScale::from_env(), SuiteScale::Quick);
    }
}
