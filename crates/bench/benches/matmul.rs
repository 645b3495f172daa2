//! Hot-path micro-benchmarks: dense `Matrix::matmul` against the
//! pre-refactor naive kernel, and the MLP forward pass (allocating vs
//! scratch-based) built on it.
//!
//! The serving engine's per-request cost is dominated by these kernels
//! (every score is standardise → matmul chain → sigmoid), so this bench
//! is the regression gate for any `uadb_linalg` change. The `naive_*`
//! cases run the historic i/k/j triple loop verbatim, so one run shows
//! the blocked kernel's speedup directly; `dense_into_*` and
//! `relu_into_256x128x128` (a half-zero hidden-layer input on the
//! compacted path) call `gemm_into` on a prepacked panel with the rhs
//! finiteness flag, as `Linear::forward_into` does; `forward_pass/*`
//! covers the end-to-end booster forward at serving batch shapes (1
//! row, 256 rows, 8k rows) for both the allocating `Mlp::forward` and
//! the zero-allocation `Mlp::forward_scored` paths.
//!
//! `UADB_BENCH_SMOKE` and `UADB_BENCH_JSON` work as in `common`; the
//! summary goes to `<workspace>/BENCH_matmul.json` by default.

mod common;

use common::{filled_matrix, samples};
use criterion::{black_box, criterion_group, Criterion};
use uadb_linalg::gemm::{all_finite, gemm_into, naive_matmul, pack_rhs, AlignedBuf, Rhs};
use uadb_linalg::Matrix;
use uadb_nn::{Activation, ForwardScratch, Mlp, MlpConfig};

/// `a · b` into `out` the way a layer's forward pass runs it: over
/// `b`'s prepacked panel, with `b`'s finiteness flag computed once.
fn packed_product<'a>(a: &'a Matrix, b: &'a Matrix) -> impl FnMut(&mut [f64]) + 'a {
    let mut pack = AlignedBuf::default();
    pack_rhs(b.rows(), b.cols(), b.as_slice(), &mut pack);
    let finite = all_finite(b.as_slice());
    move |out| {
        let rhs = Rhs::Packed { b: b.as_slice(), panel: pack.as_slice() };
        gemm_into(a.rows(), a.cols(), b.cols(), a.as_slice(), rhs, finite, out);
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
        // The steady-state serving form: cached flag + packed panel +
        // caller-owned output, no per-call allocation at all.
        let mut product = packed_product(&a, &b);
        let mut out = vec![0.0; m * n];
        g.bench_function(format!("dense_into_{m}x{k}x{n}"), |bch| {
            bch.iter(|| {
                product(&mut out);
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
    let mut product = packed_product(&a, &b);
    let mut out = vec![0.0; 256 * 128];
    g.bench_function("relu_into_256x128x128", |bch| {
        bch.iter(|| {
            product(&mut out);
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

/// Custom main (instead of `criterion_main!`): runs the groups, then
/// writes `BENCH_matmul.json`.
fn main() {
    benches();
    common::write_results("matmul");
}
