//! Scaffolding the `matmul`, `serve` and `train` benches share: the
//! sample count, a deterministic matrix fill and the writer of their
//! `BENCH_<name>.json` files.
//!
//! Environment knobs:
//! * `UADB_BENCH_SMOKE=1` — 3 samples per case (CI smoke mode);
//! * `UADB_BENCH_JSON=path` — where to write the machine-readable
//!   summary (default: `<workspace>/BENCH_<name>.json`).

use uadb_linalg::Matrix;

/// Samples per case: 3 in smoke mode, 30 otherwise.
pub fn samples() -> usize {
    if std::env::var("UADB_BENCH_SMOKE").is_ok_and(|v| v == "1") {
        3
    } else {
        30
    }
}

/// Deterministic pseudo-random fill in (-1, 1), the MLP's working range
/// (no timing entropy; xorshift64*).
#[allow(dead_code)] // `serve` cycles dataset rows instead
pub fn filled_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let bits = state.wrapping_mul(0x2545_f491_4f6c_dd1d);
        (bits >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    };
    let data: Vec<f64> = (0..rows * cols).map(|_| next()).collect();
    Matrix::from_vec(rows, cols, data).expect("shape matches data")
}

/// JSON escape for benchmark names (they are ASCII identifiers, but be
/// strict anyway).
fn esc(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Persists every timing recorded so far as `BENCH_<bench>.json`, with
/// the machine it ran on (`nproc`, dispatched GEMM ISA), so the perf
/// trajectory is tracked across changes. One result object per line:
/// `bench_gate` scans the file line by line.
pub fn write_results(bench: &str) {
    let results = criterion::take_results();
    let epoch_secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"bench\": \"{bench}\",\n  \"unix_time\": {epoch_secs},\n"));
    json.push_str(&format!(
        "  \"nproc\": {nproc},\n  \"gemm_isa\": \"{}\",\n",
        uadb_linalg::gemm::dispatched_isa()
    ));
    json.push_str(&format!("  \"smoke\": {},\n  \"results\": [\n", samples() == 3));
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"group\": \"{}\", \"name\": \"{}\", \"min_ns\": {:.0}, \
             \"mean_ns\": {:.0}, \"samples\": {}}}{}\n",
            esc(&r.group),
            esc(&r.name),
            r.min_ns,
            r.mean_ns,
            r.samples,
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = std::env::var("UADB_BENCH_JSON").unwrap_or_else(|_| {
        // Bench binaries run with the package as cwd; anchor the file
        // at the workspace root regardless.
        format!("{}/../../BENCH_{bench}.json", env!("CARGO_MANIFEST_DIR"))
    });
    match std::fs::write(&path, &json) {
        Ok(()) => println!("bench results written to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
