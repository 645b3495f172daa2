//! Golden inventory of every metric family the server exposes.
//!
//! The list between the `audit: metrics-inventory` markers is one of
//! the three views `uadb-audit` holds in agreement (code registrations,
//! the README table, and this test). The test itself closes the loop at
//! runtime: after touching the lazily-registered model families, the
//! `/metrics` exposition must contain exactly these `# TYPE` lines —
//! nothing missing, nothing extra.

use std::collections::BTreeSet;

// audit: metrics-inventory begin
const INVENTORY: &[&str] = &[
    "uadb_anomaly_rate",
    "uadb_divergence_max_abs",
    "uadb_divergence_mean_abs",
    "uadb_divergence_samples_total",
    "uadb_feature_drift_max",
    "uadb_gemm_calls_total",
    "uadb_gemm_packs_built_total",
    "uadb_gemm_packs_reused_total",
    "uadb_http_connections_closed_total",
    "uadb_http_connections_opened_total",
    "uadb_http_open_connections",
    "uadb_http_rejected_total",
    "uadb_http_requests_total",
    "uadb_log_dropped_total",
    "uadb_model_errors_total",
    "uadb_model_requests_total",
    "uadb_model_rows_total",
    "uadb_pool_queue_depth",
    "uadb_pool_shard_duration_seconds",
    "uadb_pool_shards_total",
    "uadb_pool_worker_busy_nanoseconds_total",
    "uadb_pool_worker_panics_total",
    "uadb_reactor_accepted_total",
    "uadb_reactor_events_total",
    "uadb_request_duration_seconds",
    "uadb_score_drift_psi",
    "uadb_stage_duration_seconds",
    "uadb_train_epochs_total",
    "uadb_train_last_loss",
];
// audit: metrics-inventory end

fn exposed_families(text: &str) -> BTreeSet<String> {
    text.lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.split_whitespace().next())
        .map(str::to_string)
        .collect()
}

#[test]
fn exposition_matches_inventory_exactly() {
    let m = uadb_serve::metrics();
    // The per-model families register on first use; touch one model so
    // the exposition carries them like a serving process would.
    let _ = m.model_stats("inventory-probe");
    let _ = m.install_drift("inventory-probe", &[0.0], &[1.0], None);
    let _ = m.train_loss_gauge("inventory-probe");
    let exposed = exposed_families(&m.render());
    let want: BTreeSet<String> = INVENTORY.iter().map(|s| s.to_string()).collect();

    let missing: Vec<&String> = want.difference(&exposed).collect();
    let extra: Vec<&String> = exposed.difference(&want).collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "exposition disagrees with INVENTORY\n  missing from /metrics: {missing:?}\n  \
         not in INVENTORY: {extra:?}\n(update INVENTORY, the README table, and the \
         registration site together — uadb-audit gates all three)"
    );
    assert_eq!(want.len(), INVENTORY.len(), "INVENTORY contains a duplicate name");
}

#[test]
fn inventory_is_sorted() {
    let mut sorted = INVENTORY.to_vec();
    sorted.sort_unstable();
    assert_eq!(INVENTORY, sorted.as_slice(), "keep INVENTORY sorted for reviewable diffs");
}
