//! Property-based tests for the linear-algebra substrate.

use proptest::prelude::*;
use proptest::strategy::Just;
use uadb_linalg::colstats::covariance;
use uadb_linalg::distance::{euclidean, pairwise};
use uadb_linalg::eigen::sym_eigen;
use uadb_linalg::gemm::{row_finiteness, GemmScratch};
use uadb_linalg::lu::LuDecomposition;
use uadb_linalg::vecops::{mean, population_variance};
use uadb_linalg::Matrix;

/// Strategy: a small matrix with bounded entries.
fn small_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-10.0..10.0f64, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v).unwrap())
}

/// Strategy: a single matrix cell that may be a plain value, an exact
/// zero (exercising the zero-skip), or a NaN/±inf poison.
fn poisoned_cell() -> impl Strategy<Value = f64> {
    (0u32..14, -10.0..10.0f64).prop_map(|(sel, v)| match sel {
        0..=7 => v,
        8..=10 => 0.0,
        11 => f64::NAN,
        12 => f64::INFINITY,
        _ => f64::NEG_INFINITY,
    })
}

/// Strategy: an `(a, b)` operand pair of compatible random shapes.
///
/// Most cases are small — heights straddling the pack threshold and
/// block size, widths crossing up to two 32-column register strips into
/// the ragged remainder — with cells
/// that may be zero or non-finite and whole lhs rows sometimes forced to
/// all zeros. One case in three is ReLU-shaped instead: about half the
/// lhs cells are exactly `0.0`, `m` runs past the 64-row block and `k`
/// past the 256-deep `k` block of the compacted path, and the rhs holds
/// at most one NaN, so most zeros skip while that row's zeros may not.
fn gemm_operands() -> impl Strategy<Value = (Matrix, Matrix)> {
    let shape = (0u32..3).prop_flat_map(|draw| {
        // Miri runs 4 cases and would spend minutes on one ReLU-shaped
        // product, so it keeps to the small shapes.
        let relu = draw == 0 && !cfg!(miri);
        let (m_max, k_max) = if relu { (150, 320) } else { (12, 10) };
        (Just(relu), 1usize..m_max, 1usize..k_max, 1usize..72)
    });
    shape.prop_flat_map(|(relu, m, k, n)| {
        let a = prop::collection::vec((poisoned_cell(), -10.0..10.0f64), m * k);
        let b = prop::collection::vec((poisoned_cell(), -10.0..10.0f64), k * n);
        let zero_rows = prop::collection::vec(prop::bool::ANY, m);
        (a, b, zero_rows, 0..2 * k * n).prop_map(move |(a, b, zr, nan_at)| {
            let (av, bv) = if relu {
                let av = a.iter().map(|&(_, v)| if v < 0.0 { 0.0 } else { v }).collect();
                let mut bv: Vec<f64> = b.iter().map(|&(_, v)| v).collect();
                if let Some(cell) = bv.get_mut(nan_at) {
                    *cell = f64::NAN;
                }
                (av, bv)
            } else {
                let mut av: Vec<f64> = a.iter().map(|&(c, _)| c).collect();
                for (i, &z) in zr.iter().enumerate() {
                    if z {
                        av[i * k..(i + 1) * k].fill(0.0);
                    }
                }
                (av, b.iter().map(|&(c, _)| c).collect())
            };
            (Matrix::from_vec(m, k, av).unwrap(), Matrix::from_vec(k, n, bv).unwrap())
        })
    })
}

/// The straightforward reference triple loop (i/k/j, ascending `k`,
/// zero-skip gated on rhs-row finiteness exactly as the historic naive
/// kernel) the blocked kernel must reproduce bit for bit.
fn reference_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let n = b.cols();
    let mut out = Matrix::zeros(a.rows(), n);
    let finite = row_finiteness(b);
    for i in 0..a.rows() {
        for (k, &a_ik) in a.row(i).iter().enumerate() {
            if a_ik == 0.0 && finite[k] {
                continue;
            }
            for j in 0..n {
                let cur = out.get(i, j);
                out.set(i, j, cur + a_ik * b.get(k, j));
            }
        }
    }
    out
}

/// Bitwise comparison that treats any-NaN-vs-any-NaN as equal: Rust
/// does not guarantee which NaN payload an operation produces, so
/// propagation (is it NaN at all?) is pinned exactly while payload
/// bits are not. Returns the first offending index.
fn bit_mismatch(got: &[f64], want: &[f64]) -> Option<usize> {
    if got.len() != want.len() {
        return Some(got.len().min(want.len()));
    }
    got.iter()
        .zip(want)
        .position(|(g, w)| g.to_bits() != w.to_bits() && !(g.is_nan() && w.is_nan()))
}

proptest! {
    #[test]
    fn matmul_into_is_bit_identical_to_reference((a, b) in gemm_operands()) {
        let want = reference_matmul(&a, &b);
        // Lazy scratch (mask built on first zero hit, packing decided
        // by batch height)…
        let mut out = vec![f64::NAN; a.rows() * b.cols()];
        a.matmul_into(&b, &mut GemmScratch::new(), &mut out).unwrap();
        prop_assert_eq!(bit_mismatch(&out, want.as_slice()), None);
        // …the eagerly packed/masked scratch…
        let mut scratch = GemmScratch::precomputed(&b);
        let mut out2 = vec![f64::NAN; out.len()];
        a.matmul_into(&b, &mut scratch, &mut out2).unwrap();
        prop_assert_eq!(bit_mismatch(&out2, want.as_slice()), None);
        // …and a warm reused scratch must all agree with the reference.
        let mut out3 = vec![f64::NAN; out.len()];
        a.matmul_into(&b, &mut scratch, &mut out3).unwrap();
        prop_assert_eq!(bit_mismatch(&out3, want.as_slice()), None);
        // The allocating wrapper is a thin shim over the same kernel.
        prop_assert_eq!(bit_mismatch(a.matmul(&b).unwrap().as_slice(), want.as_slice()), None);
    }

    #[test]
    fn matvec_is_bit_identical_to_single_column_matmul((a, b) in gemm_operands()) {
        let col = b.col(0);
        let want: Vec<f64> = reference_matmul(&a, &Matrix::from_vec(col.len(), 1, col.clone()).unwrap())
            .into_vec();
        let got = a.matvec(&col).unwrap();
        prop_assert_eq!(bit_mismatch(&got, &want), None);
    }

    #[test]
    fn transpose_is_involution(m in small_matrix(4, 3)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_distributes_over_add(
        a in small_matrix(3, 3),
        b in small_matrix(3, 3),
        c in small_matrix(3, 3),
    ) {
        let lhs = a.matmul(&b.add(&c).unwrap()).unwrap();
        let rhs = a.matmul(&b).unwrap().add(&a.matmul(&c).unwrap()).unwrap();
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-9);
    }

    #[test]
    fn matmul_transpose_identity(a in small_matrix(3, 4), b in small_matrix(4, 2)) {
        // (AB)^T == B^T A^T
        let lhs = a.matmul(&b).unwrap().transpose();
        let rhs = b.transpose().matmul(&a.transpose()).unwrap();
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-9);
    }

    #[test]
    fn eigen_reconstructs_symmetric(m in small_matrix(4, 4)) {
        // Symmetrise, decompose, reconstruct.
        let sym = m.add(&m.transpose()).unwrap().scaled(0.5);
        let e = sym_eigen(&sym).unwrap();
        let n = 4;
        let mut recon = Matrix::zeros(n, n);
        for j in 0..n {
            let v = e.vectors.col(j);
            for r in 0..n {
                for c in 0..n {
                    let cur = recon.get(r, c);
                    recon.set(r, c, cur + e.values[j] * v[r] * v[c]);
                }
            }
        }
        prop_assert!(recon.max_abs_diff(&sym) < 1e-6);
    }

    #[test]
    fn eigenvalues_are_sorted_descending(m in small_matrix(5, 5)) {
        let sym = m.add(&m.transpose()).unwrap().scaled(0.5);
        let e = sym_eigen(&sym).unwrap();
        for w in e.values.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn lu_solve_inverts_matvec(m in small_matrix(4, 4), x in prop::collection::vec(-5.0..5.0f64, 4)) {
        // Make the matrix diagonally dominant so it is invertible.
        let mut a = m;
        for i in 0..4 {
            let v = a.get(i, i) + 50.0;
            a.set(i, i, v);
        }
        let b = a.matvec(&x).unwrap();
        let lu = LuDecomposition::new(&a).unwrap();
        let got = lu.solve(&b).unwrap();
        for (g, e) in got.iter().zip(&x) {
            prop_assert!((g - e).abs() < 1e-6);
        }
    }

    #[test]
    fn determinant_of_product_multiplies(a in small_matrix(3, 3), b in small_matrix(3, 3)) {
        let mut da = a;
        let mut db = b;
        for i in 0..3 {
            da.set(i, i, da.get(i, i) + 30.0);
            db.set(i, i, db.get(i, i) + 30.0);
        }
        let det_a = LuDecomposition::new(&da).unwrap().determinant();
        let det_b = LuDecomposition::new(&db).unwrap().determinant();
        let det_ab = LuDecomposition::new(&da.matmul(&db).unwrap()).unwrap().determinant();
        prop_assert!((det_ab - det_a * det_b).abs() / det_ab.abs().max(1.0) < 1e-8);
    }

    #[test]
    fn covariance_is_psd_on_diagonal(m in small_matrix(6, 3)) {
        let c = covariance(&m).unwrap();
        for i in 0..3 {
            prop_assert!(c.get(i, i) >= -1e-12);
        }
        prop_assert!(c.max_abs_diff(&c.transpose()) < 1e-12);
    }

    #[test]
    fn pairwise_symmetry_and_triangle(m in small_matrix(5, 3)) {
        let d = pairwise(&m);
        for i in 0..5 {
            prop_assert!(d.get(i, i).abs() < 1e-12);
            for j in 0..5 {
                prop_assert!((d.get(i, j) - d.get(j, i)).abs() < 1e-12);
                for k in 0..5 {
                    prop_assert!(d.get(i, j) <= d.get(i, k) + d.get(k, j) + 1e-9);
                }
            }
        }
    }

    #[test]
    fn euclidean_is_translation_invariant(
        a in prop::collection::vec(-5.0..5.0f64, 4),
        b in prop::collection::vec(-5.0..5.0f64, 4),
        t in -5.0..5.0f64,
    ) {
        let at: Vec<f64> = a.iter().map(|v| v + t).collect();
        let bt: Vec<f64> = b.iter().map(|v| v + t).collect();
        prop_assert!((euclidean(&a, &b) - euclidean(&at, &bt)).abs() < 1e-9);
    }

    #[test]
    fn variance_is_shift_invariant(v in prop::collection::vec(-100.0..100.0f64, 1..50), s in -50.0..50.0f64) {
        let shifted: Vec<f64> = v.iter().map(|x| x + s).collect();
        let v1 = population_variance(&v);
        let v2 = population_variance(&shifted);
        prop_assert!((v1 - v2).abs() < 1e-6 * v1.max(1.0));
    }

    #[test]
    fn mean_bounded_by_extremes(v in prop::collection::vec(-100.0..100.0f64, 1..50)) {
        let m = mean(&v);
        let lo = v.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
    }
}
