//! Hot-path micro-benchmarks: dense `Matrix::matmul` against the
//! pre-refactor naive kernel, and the MLP forward pass (allocating vs
//! scratch-based) built on it.
//!
//! The serving engine's per-request cost is dominated by these kernels
//! (every score is standardise → matmul chain → sigmoid), so this bench
//! is the regression gate for any `uadb_linalg` change. The `naive_*`
//! cases run the historic i/k/j triple loop verbatim, so one run shows
//! the blocked kernel's speedup directly; `relu_into_256x128x128` is a
//! half-zero hidden-layer input on the compacted path; `forward_pass/*`
//! covers the end-to-end booster forward at serving batch shapes (1
//! row, 256 rows, 8k rows) for both the allocating `Mlp::forward` and
//! the zero-allocation `Mlp::forward_scored` paths.
//!
//! Environment knobs:
//! * `UADB_BENCH_SMOKE=1` — 3 samples per case (CI smoke mode);
//! * `UADB_BENCH_JSON=path` — where to write the machine-readable
//!   summary (default: `<workspace>/BENCH_matmul.json`).

use criterion::{black_box, criterion_group, Criterion};
use uadb_linalg::gemm::{naive_matmul, GemmScratch};
use uadb_linalg::Matrix;
use uadb_nn::{Activation, ForwardScratch, Mlp, MlpConfig};

/// Deterministic pseudo-random fill (no `rand` dependency; xorshift64*).
fn filled_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let bits = state.wrapping_mul(0x2545_f491_4f6c_dd1d);
        // Map to (-1, 1); keeps magnitudes in the MLP's working range.
        (bits >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    };
    let data: Vec<f64> = (0..rows * cols).map(|_| next()).collect();
    Matrix::from_vec(rows, cols, data).expect("shape matches data")
}

fn samples() -> usize {
    if std::env::var("UADB_BENCH_SMOKE").is_ok_and(|v| v == "1") {
        3
    } else {
        30
    }
}

fn bench(c: &mut Criterion) {
    let sample_size = samples();

    let mut g = c.benchmark_group("matmul");
    g.sample_size(sample_size);
    // (1, 16, 128) is the serving hot case: a single-row request
    // through the first MLP layer. (256, 128, 128) is the acceptance
    // case: one shard through a hidden layer.
    for (m, k, n) in [(1usize, 16usize, 128usize), (256, 16, 128), (256, 128, 128), (1024, 64, 64)]
    {
        let a = filled_matrix(m, k, 7);
        let b = filled_matrix(k, n, 11);
        g.bench_function(format!("naive_{m}x{k}x{n}"), |bch| {
            bch.iter(|| black_box(naive_matmul(&a, &b)))
        });
        g.bench_function(format!("dense_{m}x{k}x{n}"), |bch| {
            bch.iter(|| black_box(a.matmul(&b).unwrap()))
        });
        // The steady-state serving form: cached mask + packed panel +
        // caller-owned output, no per-call allocation at all.
        let mut scratch = GemmScratch::precomputed(&b);
        let mut out = vec![0.0; m * n];
        g.bench_function(format!("dense_into_{m}x{k}x{n}"), |bch| {
            bch.iter(|| {
                a.matmul_into(&b, &mut scratch, &mut out).unwrap();
                black_box(out.as_slice().len())
            })
        });
    }
    // The booster's hidden layer as it runs: a ReLU output (about half
    // its cells exactly zero) through a 128×128 weight. Those rows take
    // the compacted path, which must not lose to the dense case above.
    let mut a = filled_matrix(256, 128, 7);
    for v in a.as_mut_slice() {
        *v = v.max(0.0);
    }
    let b = filled_matrix(128, 128, 11);
    let mut scratch = GemmScratch::precomputed(&b);
    let mut out = vec![0.0; 256 * 128];
    g.bench_function("relu_into_256x128x128", |bch| {
        bch.iter(|| {
            a.matmul_into(&b, &mut scratch, &mut out).unwrap();
            black_box(out.as_slice().len())
        })
    });
    g.finish();

    let mut g = c.benchmark_group("forward");
    g.sample_size(sample_size);
    let x = filled_matrix(512, 16, 13);
    for depth in [1usize, 4] {
        let mlp = Mlp::new(&MlpConfig {
            input_dim: 16,
            hidden: vec![128; depth],
            output_dim: 1,
            activation: Activation::Sigmoid,
            seed: 0,
        });
        g.bench_function(format!("mlp_depth_{depth}_512x16"), |bch| {
            bch.iter(|| black_box(mlp.forward(&x)))
        });
    }
    g.finish();

    // End-to-end booster forward (§IV-A architecture: input → 128 →
    // 128 → 1) at serving batch shapes, allocating vs scratch paths.
    let mut g = c.benchmark_group("forward_pass");
    g.sample_size(sample_size);
    let booster = Mlp::new(&MlpConfig {
        input_dim: 32,
        hidden: vec![128, 128],
        output_dim: 1,
        activation: Activation::Sigmoid,
        seed: 1,
    });
    for rows in [1usize, 256, 8192] {
        let x = filled_matrix(rows, 32, 17);
        g.bench_function(format!("alloc_{rows}x32"), |bch| {
            bch.iter(|| black_box(booster.forward(&x)))
        });
        let mut scratch = ForwardScratch::default();
        // Warm the scratch so the timed region is the steady state.
        let _ = booster.forward_scored(&x, &mut scratch);
        g.bench_function(format!("scratch_{rows}x32"), |bch| {
            bch.iter(|| black_box(booster.forward_scored(&x, &mut scratch).len()))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);

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

/// Custom main (instead of `criterion_main!`): runs the groups, then
/// persists every recorded timing as `BENCH_matmul.json` so the perf
/// trajectory is tracked across PRs.
fn main() {
    benches();
    let results = criterion::take_results();
    let epoch_secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"bench\": \"matmul\",\n  \"unix_time\": {epoch_secs},\n"));
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
        format!("{}/../../BENCH_matmul.json", env!("CARGO_MANIFEST_DIR"))
    });
    match std::fs::write(&path, &json) {
        Ok(()) => println!("bench results written to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
