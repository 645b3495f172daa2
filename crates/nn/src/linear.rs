//! Dense linear layer with manual backprop and embedded Adam state.

use crate::adam::{AdamParams, AdamState};
use rand::Rng;
use std::sync::OnceLock;
use uadb_linalg::gemm::{self, AlignedBuf, Rhs};
use uadb_linalg::Matrix;

/// Whether row `r` of the row-major buffer `m` (rows `width` wide) is
/// entirely finite: the rhs-row predicate [`gemm::gemm_into`] takes.
/// The fold does not stop early, so it vectorises; rows are finite in
/// practice, and on a 31-row training step this was 8% faster than
/// `all`.
// audit: no_alloc
pub(crate) fn row_is_finite(m: &[f64], width: usize, r: usize) -> bool {
    m[r * width..(r + 1) * width].iter().fold(true, |ok, v| ok & v.is_finite())
}

/// Weight-derived artifacts the GEMM kernel reuses across forward
/// passes: the per-row finiteness mask (gates the zero-coefficient
/// skip) and the strip-major packed panel (sequential streaming).
///
/// Both are pure functions of `W`, so they live in a [`OnceLock`]
/// shared by every thread scoring the same layer and are dropped
/// whenever the weights change — repeated scoring of one model never
/// re-scans or re-packs its weights.
///
/// Training double-buffers the panel: [`Linear::apply_adam`] takes the
/// live cache out of the `OnceLock`, repacks it **in place** from the
/// stepped weights and publishes it again, so steady-state training
/// recycles one warm buffer pair instead of dropping the cache cold
/// and reallocating it on the next forward pass.
#[derive(Debug, Clone, Default)]
struct WeightCache {
    row_finite: Vec<bool>,
    pack: AlignedBuf,
}

impl WeightCache {
    /// Rebuilds both artifacts from `w`, reusing the existing
    /// allocations (grow-once, like the kernels they feed).
    fn repack(&mut self, w: &Matrix) {
        gemm::pack_rhs(w.rows(), w.cols(), w.as_slice(), &mut self.pack);
        gemm::row_finiteness_into(w, &mut self.row_finite);
    }
}

/// A fully-connected layer `y = x W + b`.
///
/// `W` is stored `(in, out)` so a batch forward is a plain matmul of the
/// row-major batch against it.
#[derive(Debug, Clone)]
pub struct Linear {
    w: Matrix,
    b: Vec<f64>,
    grad_w: Vec<f64>,
    grad_b: Vec<f64>,
    adam_w: AdamState,
    adam_b: AdamState,
    cache: OnceLock<WeightCache>,
    /// Retired cache buffers awaiting recycling (see [`WeightCache`]):
    /// populated by [`Linear::invalidate_cache`], consumed by the next
    /// [`Linear::refresh_cache`] so panel allocations survive weight
    /// mutations instead of being rebuilt from scratch.
    spare: Option<WeightCache>,
}

impl Linear {
    /// Xavier/Glorot-uniform initialisation, like `torch.nn.Linear`.
    pub fn new(input: usize, output: usize, rng: &mut impl Rng) -> Self {
        let bound = (6.0 / (input + output) as f64).sqrt();
        let mut w = Matrix::zeros(input, output);
        for v in w.as_mut_slice() {
            *v = rng.gen_range(-bound..bound);
        }
        let b = vec![0.0; output];
        Self {
            grad_w: vec![0.0; input * output],
            grad_b: vec![0.0; output],
            adam_w: AdamState::new(input * output),
            adam_b: AdamState::new(output),
            w,
            b,
            cache: OnceLock::new(),
            spare: None,
        }
    }

    /// The weight cache, built on first use after any weight change.
    fn weight_cache(&self) -> &WeightCache {
        self.cache.get_or_init(|| {
            let mut wc = WeightCache::default();
            wc.repack(&self.w);
            wc
        })
    }

    /// Drops weight-derived caches; must run after every weight
    /// mutation. The retired buffers are parked in the spare slot so
    /// the next [`Linear::refresh_cache`] recycles them.
    fn invalidate_cache(&mut self) {
        if let Some(wc) = self.cache.take() {
            self.spare = Some(wc);
        }
    }

    /// Re-derives the weight cache after a weight step by swapping the
    /// warm panel pair back in: takes the live cache (or the spare left
    /// by an earlier invalidation), repacks it in place from the
    /// current weights and republishes it. The `OnceLock` is never left
    /// cold, so a training loop alternating forward passes with Adam
    /// steps performs zero pack/mask allocation at steady state.
    fn refresh_cache(&mut self) {
        let mut wc = self.cache.take().or_else(|| self.spare.take()).unwrap_or_default();
        wc.repack(&self.w);
        // The lock was just emptied by `take`, so `set` cannot fail.
        let _ = self.cache.set(wc);
    }

    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.w.rows()
    }

    /// Output width.
    pub fn output_dim(&self) -> usize {
        self.w.cols()
    }

    /// Batch forward: `(B, in) -> (B, out)`. Thin allocating wrapper
    /// over [`Linear::forward_into`].
    pub fn forward(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.input_dim(), "linear layer dim mismatch");
        let mut out = Matrix::zeros(x.rows(), self.output_dim());
        self.forward_into(x.as_slice(), x.rows(), out.as_mut_slice());
        out
    }

    /// Allocation-free batch forward over raw row-major slices: reads
    /// `batch` rows of [`Linear::input_dim`] features from `x` and
    /// writes `batch` rows of [`Linear::output_dim`] activations over
    /// `out`. Uses the cached weight mask and packed panel, so steady-
    /// state scoring performs no allocation and no weight re-scan.
    ///
    /// Results are bit-identical to the historic `matmul` + bias path.
    ///
    /// # Panics
    /// If either slice length disagrees with `batch` and the layer
    /// dimensions.
    pub fn forward_into(&self, x: &[f64], batch: usize, out: &mut [f64]) {
        let (in_dim, out_dim) = self.w.shape();
        assert_eq!(x.len(), batch * in_dim, "input buffer length must be batch*in");
        assert_eq!(out.len(), batch * out_dim, "output buffer length must be batch*out");
        let cache = self.weight_cache();
        gemm::gemm_into(
            batch,
            in_dim,
            out_dim,
            x,
            Rhs::Packed { b: self.w.as_slice(), panel: cache.pack.as_slice() },
            |r| cache.row_finite[r],
            out,
        );
        for row in out.chunks_exact_mut(out_dim.max(1)) {
            for (v, &bias) in row.iter_mut().zip(&self.b) {
                *v += bias;
            }
        }
    }

    /// Backward pass: accumulates parameter gradients for the batch and
    /// returns the gradient w.r.t. the input.
    ///
    /// `x` is the forward input, `grad_out` is `(B, out)`.
    pub fn backward(&mut self, x: &Matrix, grad_out: &Matrix) -> Matrix {
        let (batch, in_dim) = x.shape();
        let out_dim = self.w.cols();
        debug_assert_eq!(grad_out.shape(), (batch, out_dim));
        // grad_w = X^T grad_out, accumulated without an explicit transpose.
        self.grad_w.iter_mut().for_each(|g| *g = 0.0);
        self.grad_b.iter_mut().for_each(|g| *g = 0.0);
        for r in 0..batch {
            let xr = x.row(r);
            let gr = grad_out.row(r);
            for (i, &xi) in xr.iter().enumerate() {
                if xi == 0.0 {
                    continue;
                }
                let dst = &mut self.grad_w[i * out_dim..(i + 1) * out_dim];
                for (d, &g) in dst.iter_mut().zip(gr) {
                    *d += xi * g;
                }
            }
            for (db, &g) in self.grad_b.iter_mut().zip(gr) {
                *db += g;
            }
        }
        // grad_x = grad_out W^T
        let mut grad_x = Matrix::zeros(batch, in_dim);
        for r in 0..batch {
            let gr = grad_out.row(r);
            let dst = grad_x.row_mut(r);
            for (i, slot) in dst.iter_mut().enumerate() {
                let w_row = &self.w.as_slice()[i * out_dim..(i + 1) * out_dim];
                *slot = w_row.iter().zip(gr).map(|(w, g)| w * g).sum();
            }
        }
        grad_x
    }

    /// Gradient w.r.t. the input over raw row-major slices:
    /// `grad_in = grad_out · Wᵀ` on the dispatched [`gemm::gemm_into`]
    /// strips. `wt` is caller scratch of
    /// [`gemm::packed_len`]`(out, in)` elements, best 64-byte aligned
    /// (an [`AlignedBuf`]); it receives the strip-major panel of `Wᵀ`'s
    /// full [`gemm::NR`]-column strips, packed in one pass over `W` by
    /// [`gemm::pack_transposed`]. `wt_finite` (`out` entries) receives
    /// `Wᵀ`'s row finiteness, `W`'s column finiteness, from the same
    /// pass; it gates the zero-coefficient skip. `Wᵀ`'s ragged
    /// `in % NR` columns are read from `W`'s last rows. Nothing is
    /// allocated.
    ///
    /// Each element adds its terms in ascending output order with
    /// unfused mul then add, as the `grad_x` half of
    /// [`Linear::backward`] does. Two things can differ from it: the sum
    /// starts at `+0.0` where std's `Sum` starts at `-0.0`, so an
    /// exact-zero element may be `+0.0` where the legacy loop gave
    /// `-0.0`, and terms that are `±0` may be skipped. Neither reaches a
    /// weight (see `crate::scratch`).
    ///
    /// # Panics
    /// If any slice length disagrees with `batch` and the layer
    /// dimensions.
    // audit: no_alloc
    pub fn backward_input_into(
        &self,
        grad_out: &[f64],
        batch: usize,
        wt: &mut [f64],
        wt_finite: &mut [bool],
        grad_in: &mut [f64],
    ) {
        let (in_dim, out_dim) = self.w.shape();
        assert_eq!(grad_out.len(), batch * out_dim, "grad_out length must be batch*out");
        assert_eq!(grad_in.len(), batch * in_dim, "grad_in length must be batch*in");
        let w = self.w.as_slice();
        gemm::pack_transposed(in_dim, out_dim, w, wt, wt_finite);
        let (panel, finite) = (&*wt, &*wt_finite);
        let rhs = Rhs::Transposed { w, panel };
        gemm::gemm_into(batch, out_dim, in_dim, grad_out, rhs, |o| finite[o], grad_in);
    }

    /// Mutable access to the accumulated gradient buffers
    /// `(grad_w, grad_b)` for the scratch training engine, which fills
    /// them from its own batch buffers.
    pub(crate) fn grads_mut(&mut self) -> (&mut [f64], &mut [f64]) {
        (&mut self.grad_w, &mut self.grad_b)
    }

    /// Applies one Adam step with the accumulated gradients, then swaps
    /// the recycled weight-cache panel back in (see
    /// [`Linear::refresh_cache`]) so the next forward pass finds a warm
    /// cache without allocating.
    pub fn apply_adam(&mut self, hp: &AdamParams) {
        self.adam_w.step(self.w.as_mut_slice(), &self.grad_w, hp);
        self.adam_b.step(&mut self.b, &self.grad_b, hp);
        self.refresh_cache();
    }

    /// Rebuilds a layer from persisted parameters (fresh optimiser
    /// state: gradients and Adam moments start at zero, exactly as after
    /// [`Linear::new`]).
    ///
    /// # Panics
    /// If `bias` length differs from the weight matrix's column count.
    pub fn from_parts(w: Matrix, b: Vec<f64>) -> Self {
        assert_eq!(b.len(), w.cols(), "bias length must match weight output dimension");
        let (input, output) = w.shape();
        Self {
            grad_w: vec![0.0; input * output],
            grad_b: vec![0.0; output],
            adam_w: AdamState::new(input * output),
            adam_b: AdamState::new(output),
            w,
            b,
            cache: OnceLock::new(),
            spare: None,
        }
    }

    /// Read-only weight access (tests, serialisation).
    pub fn weights(&self) -> &Matrix {
        &self.w
    }

    /// Read-only bias access (serialisation).
    pub fn bias(&self) -> &[f64] {
        &self.b
    }

    /// Mutable weight access (finite-difference gradient checks).
    /// Invalidates the weight cache up front — the caller may mutate
    /// through the returned reference at any point before it drops.
    pub fn weights_mut(&mut self) -> &mut Matrix {
        self.invalidate_cache();
        &mut self.w
    }

    /// Accumulated weight gradient from the last backward pass.
    pub fn grad_weights(&self) -> &[f64] {
        &self.grad_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_applies_weights_and_bias() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut l = Linear::new(2, 1, &mut rng);
        // Overwrite with known parameters.
        l.w = Matrix::from_vec(2, 1, vec![2.0, -1.0]).unwrap();
        l.b = vec![0.5];
        let x = Matrix::from_vec(2, 2, vec![1.0, 1.0, 3.0, 0.0]).unwrap();
        let y = l.forward(&x);
        assert_eq!(y.as_slice(), &[1.5, 6.5]);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // idx addresses two parallel buffers
    fn backward_gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut l = Linear::new(3, 2, &mut rng);
        let x = Matrix::from_vec(4, 3, (0..12).map(|i| (i as f64) * 0.3 - 1.5).collect()).unwrap();
        // Loss = sum of outputs; grad_out = ones.
        let ones = Matrix::filled(4, 2, 1.0);
        l.backward(&x, &ones);
        let analytic = l.grad_weights().to_vec();
        let eps = 1e-6;
        for idx in 0..6 {
            // Perturb through weights_mut so the weight cache refreshes.
            let orig = l.weights().as_slice()[idx];
            l.weights_mut().as_mut_slice()[idx] = orig + eps;
            let up: f64 = l.forward(&x).as_slice().iter().sum();
            l.weights_mut().as_mut_slice()[idx] = orig - eps;
            let down: f64 = l.forward(&x).as_slice().iter().sum();
            l.weights_mut().as_mut_slice()[idx] = orig;
            let numeric = (up - down) / (2.0 * eps);
            assert!(
                (numeric - analytic[idx]).abs() < 1e-5,
                "dW[{idx}]: numeric {numeric} vs analytic {}",
                analytic[idx]
            );
        }
    }

    #[test]
    fn backward_input_gradient_shape_and_value() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut l = Linear::new(2, 2, &mut rng);
        l.w = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let x = Matrix::from_vec(1, 2, vec![1.0, 1.0]).unwrap();
        let grad_out = Matrix::from_vec(1, 2, vec![1.0, 0.0]).unwrap();
        let gx = l.backward(&x, &grad_out);
        // grad_x = grad_out W^T = [1*1 + 0*2, 1*3 + 0*4]
        assert_eq!(gx.as_slice(), &[1.0, 3.0]);
    }

    #[test]
    fn adam_step_changes_weights() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut l = Linear::new(2, 2, &mut rng);
        let before = l.weights().clone();
        let x = Matrix::filled(1, 2, 1.0);
        let g = Matrix::filled(1, 2, 1.0);
        l.backward(&x, &g);
        l.apply_adam(&AdamParams::default());
        assert!(before.max_abs_diff(l.weights()) > 0.0);
    }

    #[test]
    fn weight_cache_invalidates_on_mutation() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut l = Linear::new(2, 2, &mut rng);
        // x has a zero coefficient, so forward consults the cached
        // finiteness mask of W's rows.
        let x = Matrix::from_vec(1, 2, vec![0.0, 1.0]).unwrap();
        let clean = l.forward(&x);
        assert!(clean.as_slice().iter().all(|v| v.is_finite()));
        // Poison row 0 of W through weights_mut: the zero-skip must not
        // keep using the stale "row 0 is finite" mask.
        l.weights_mut().set(0, 0, f64::NAN);
        let poisoned = l.forward(&x);
        assert!(
            poisoned.get(0, 0).is_nan(),
            "stale weight cache let 0 * NaN score clean: {:?}",
            poisoned.as_slice()
        );
        // And an Adam step likewise refreshes the cache.
        let mut l2 = Linear::new(2, 2, &mut rng);
        let before = l2.forward(&x);
        l2.backward(&x, &Matrix::filled(1, 2, 1.0));
        l2.apply_adam(&AdamParams::default());
        let after = l2.forward(&x);
        assert_ne!(before.as_slice(), after.as_slice(), "cache must track stepped weights");
    }

    #[test]
    fn forward_into_matches_forward() {
        let mut rng = StdRng::seed_from_u64(6);
        let l = Linear::new(3, 5, &mut rng);
        let x = Matrix::from_vec(4, 3, (0..12).map(|i| i as f64 * 0.3 - 2.0).collect()).unwrap();
        let via_matrix = l.forward(&x);
        let mut out = vec![f64::NAN; 4 * 5];
        l.forward_into(x.as_slice(), 4, &mut out);
        for (a, b) in via_matrix.as_slice().iter().zip(&out) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn xavier_bound_respected() {
        let mut rng = StdRng::seed_from_u64(4);
        let l = Linear::new(10, 10, &mut rng);
        let bound = (6.0f64 / 20.0).sqrt();
        assert!(l.weights().as_slice().iter().all(|w| w.abs() <= bound));
    }
}
