//! Zero-steady-state-allocation training engine: the training-side
//! analogue of [`crate::mlp::ForwardScratch`].
//!
//! [`TrainScratch`] owns every buffer one optimiser step needs — the
//! batch-gather buffer (replacing per-chunk `select_rows`), the
//! retained per-layer activation inputs backprop reads, the per-layer
//! gradient matrices, the gathered target column, and the operands of
//! the two backward products (`xᵀ`, and the packed `Wᵀ` panel) — all
//! grow-once, so a training loop allocates nothing at steady state (the
//! layer parameter gradients and the packed rhs panels are likewise
//! recycled inside [`crate::linear::Linear`]).
//!
//! # Bit-identity
//!
//! [`train_batch_step`] runs one step serially on the calling thread
//! and lands on exactly the weights of the historic
//! `forward_cached` + `backward_and_step` loop. The forward pass makes
//! the same GEMM calls on the same rows. Both backward products run on
//! the dispatched [`gemm_into`] strips, each told whether its rhs is
//! all finite:
//!
//! * `grad_in = g·Wᵀ` in [`Linear::backward_input_into`], over `Wᵀ`
//!   packed strip-major straight from `W`;
//! * `grad_w = xᵀ·g` in the weight phase, over `xᵀ` transposed into
//!   the scratch.
//!
//! Packing `Wᵀ` moves no sum. The panel holds, at the position the
//! strips read for `Wᵀ[o][j]`, exactly `W[j][o]`; the ragged columns
//! read the same value from `W`'s row `j`; and the strips walk `o` in
//! ascending order as they did over the materialised `Wᵀ`. The skip
//! rule reads whether `W` is all finite, which is whether `Wᵀ` is, so
//! the same terms are skipped. Every output element therefore sees the
//! same operands in the same order.
//!
//! Every element still adds its terms in ascending order (output units
//! for `grad_in`, batch rows for `grad_w`) with unfused mul then add, as
//! the historic loops did. Two intermediate values can differ, and
//! neither reaches a weight:
//!
//! * The historic `grad_in` summed with std's `Sum`, which starts at
//!   `-0.0`; the GEMM starts at `+0.0`. The two running sums differ at
//!   most in the sign of a zero, and `±0.0 + x = x` for every nonzero
//!   `x`, so they agree from the first nonzero term on. Only an element
//!   whose terms are all zero can end as `+0.0` where the historic loop
//!   gave `-0.0`.
//! * The GEMM skips a term whose lhs coefficient is `±0.0` when the
//!   whole rhs is finite. The term is `±0.0`, and a sum that starts at
//!   `+0.0` is never `-0.0`, so adding it changes no bit.
//!
//! Every consumer of `grad_in` is blind to the sign of a zero. The ReLU
//! gate overwrites it with `+0.0` wherever the layer input is `<= 0`.
//! The gate is written as a select, `g = if a <= 0.0 { 0.0 } else { g }`,
//! which gives the historic conditional store's bits for every `a`
//! (NaN fails the test and keeps `g`; `-0.0` passes it) but compiles to
//! a blend: ReLU's zeros are random, and a branch on them mispredicts
//! about half the time. On a 2-vCPU AVX-512 Xeon both gates of a 31-row
//! booster step took 7–13 µs as a branch and 2.4–3.7 µs as a select.
//! Where it survives, it is one term of `grad_b` and of `grad_w`, both
//! sums that start at `+0.0`, and a coefficient of the next layer's
//! `grad_in`, where a `±0.0` coefficient makes a `±0.0` term. So the
//! sign can move only other exact zeros, and the Adam steps read
//! `grad_w` and `grad_b` unchanged.
//!
//! One rule differs on purpose. A zero input times a non-finite
//! gradient row is `NaN` (IEEE: `0·NaN = NaN`), and `grad_w` now has it;
//! the historic kernel skipped zero inputs whatever the gradient. Fits
//! reject non-finite features and teacher scores up front, so a finite
//! fit never meets this case.
//!
//! Parallelism lives one level up: the UADB fit trains independent
//! networks side by side, each on its own scratch.

use crate::adam::AdamParams;
use crate::linear::Linear;
use crate::mlp::{relu_slice, sigmoid_slice, Activation, Mlp};
use uadb_linalg::gemm::{all_finite, gemm_into, packed_len, AlignedBuf, Rhs};
use uadb_linalg::matrix::transpose_into;
use uadb_linalg::Matrix;

/// Reusable training workspace: see the module docs. A scratch is not
/// tied to one network or batch size; [`TrainScratch::prepare`] regrows
/// (keeping capacity) as needed. It holds no numeric state between
/// steps: every buffer element read was written earlier in the same
/// step.
#[derive(Debug, Clone, Default)]
pub struct TrainScratch {
    /// `inputs[i]` holds the batch rows fed to layer `i`; `inputs[0]`
    /// is the batch-gather buffer the loops fill via
    /// [`TrainScratch::gather`].
    inputs: Vec<Vec<f64>>,
    /// Post-activation network output for the batch.
    output: Vec<f64>,
    /// `grads[i]` holds `dL/d(pre-activation output of layer i)`.
    grads: Vec<Vec<f64>>,
    /// Batch-aligned regression targets, gathered with the rows.
    targets: Vec<f64>,
    /// The packed `Wᵀ` panel of the layer whose input gradient is being
    /// computed (see [`Linear::backward_input_into`]).
    wt: AlignedBuf,
    /// `xᵀ` of the layer whose weight gradient is being computed.
    xt: Vec<f64>,
}

impl TrainScratch {
    /// Sizes every buffer for a `batch`-row step through `mlp`.
    /// Buffers only grow; repeated steps at steady state allocate
    /// nothing. Must run before [`TrainScratch::gather`].
    pub fn prepare(&mut self, mlp: &Mlp, batch: usize) {
        let l = mlp.n_layers();
        while self.inputs.len() < l {
            self.inputs.push(Vec::new());
        }
        while self.grads.len() < l {
            self.grads.push(Vec::new());
        }
        let need0 = batch * mlp.input_dim();
        if self.inputs[0].len() < need0 {
            self.inputs[0].resize(need0, 0.0);
        }
        for (i, layer) in mlp.layers().iter().enumerate() {
            let need = batch * layer.output_dim();
            if i + 1 < l && self.inputs[i + 1].len() < need {
                self.inputs[i + 1].resize(need, 0.0);
            }
            if self.grads[i].len() < need {
                self.grads[i].resize(need, 0.0);
            }
        }
        let need_out = batch * mlp.output_dim();
        if self.output.len() < need_out {
            self.output.resize(need_out, 0.0);
        }
        if self.targets.len() < batch {
            self.targets.resize(batch, 0.0);
        }
        // Layer 0's input gradient is never computed, so its `Wᵀ` is
        // never needed.
        let layers = mlp.layers();
        let need_wt = layers[1..]
            .iter()
            .map(|l| packed_len(l.output_dim(), l.input_dim()))
            .max()
            .unwrap_or(0);
        if self.wt.as_slice().len() < need_wt {
            self.wt.resize(need_wt);
        }
        let need_xt = batch * layers.iter().map(Linear::input_dim).max().unwrap_or(0);
        if self.xt.len() < need_xt {
            self.xt.resize(need_xt, 0.0);
        }
    }

    /// Gathers `x`'s rows `idx` into the batch buffer (the scratch
    /// replacement for `Matrix::select_rows`). Row copies preserve bits
    /// exactly.
    ///
    /// # Panics
    /// If [`TrainScratch::prepare`] has not sized the buffer for
    /// `idx.len()` rows of `x.cols()` features.
    // audit: no_alloc
    pub fn gather(&mut self, x: &Matrix, idx: &[usize]) {
        let d = x.cols();
        let buf = &mut self.inputs[0];
        assert!(buf.len() >= idx.len() * d, "prepare() must size the gather buffer first");
        for (r, &i) in idx.iter().enumerate() {
            buf[r * d..(r + 1) * d].copy_from_slice(x.row(i));
        }
    }

    /// Gathers the per-row regression targets for the same `idx` order
    /// used by [`TrainScratch::gather`].
    // audit: no_alloc
    pub(crate) fn gather_targets(&mut self, targets: &[f64], idx: &[usize]) {
        assert!(self.targets.len() >= idx.len(), "prepare() must size the target buffer first");
        for (slot, &i) in self.targets.iter_mut().zip(idx) {
            *slot = targets[i];
        }
    }
}

/// What the batch loss is measured against.
pub(crate) enum Objective<'a> {
    /// MSE against the targets gathered into the scratch
    /// ([`TrainScratch::gather_targets`]).
    Mse,
    /// DeepSVDD: squared distance of every output row to `center`.
    Svdd {
        /// Fixed hypersphere centre (length = output width).
        center: &'a [f64],
    },
}

/// The loss with its row data resolved against the split scratch
/// borrows (internal form of [`Objective`]).
#[derive(Clone, Copy)]
enum BatchLoss<'a> {
    Mse { targets: &'a [f64] },
    Svdd { center: &'a [f64] },
}

/// One optimiser step on a gathered batch: forward, loss gradient,
/// backward, Adam on every layer. Returns the **summed** squared-error
/// loss over the batch rows (callers divide by the epoch row count for
/// the row-weighted mean).
///
/// The gradient semantics are bit-for-bit those of the historic
/// `forward_cached` + `backward_and_step` path.
// audit: no_alloc
pub(crate) fn train_batch_step(
    mlp: &mut Mlp,
    scratch: &mut TrainScratch,
    batch: usize,
    objective: &Objective<'_>,
    hp: &AdamParams,
) -> f64 {
    let TrainScratch { inputs, output, grads, targets, wt, xt } = scratch;
    let loss = match objective {
        Objective::Mse => BatchLoss::Mse { targets: &targets[..batch] },
        Objective::Svdd { center } => BatchLoss::Svdd { center },
    };
    let output = &mut output[..batch * mlp.output_dim()];
    row_phase(mlp, inputs, output, grads, wt.as_mut_slice(), batch, loss);
    let total = loss_sum(output, loss);

    // --- Weight phase and optimiser, in forward layer order (as the
    // historic path), each Adam step recycling the layer's packed rhs
    // panel. A layer's gradients read only the row phase's buffers, so
    // updating it before the next layer's accumulation changes no bit. ---
    for (li, layer) in mlp.layers_mut().iter_mut().enumerate() {
        let (lin, lout) = (layer.input_dim(), layer.output_dim());
        let x = &inputs[li][..batch * lin];
        let g = &grads[li][..batch * lout];
        let xt = &mut xt[..lin * batch];
        transpose_into(batch, lin, x, xt);
        let (grad_w, grad_b) = layer.grads_mut();
        accumulate_grad_b(g, lout, grad_b);
        // grad_w = xᵀ·g, summed over the batch rows in ascending order.
        gemm_into(lin, batch, lout, xt, Rhs::RowMajor(g), all_finite(g), grad_w);
        layer.apply_adam(hp);
    }
    total
}

/// Forward pass, loss gradient and backward chain over the batch's
/// `rows` rows: `inputs[i]` receives layer `i`'s input, `output` the
/// post-activation head, `grads[i]` layer `i`'s pre-activation
/// gradient. `wt` is the `Wᵀ` panel scratch of
/// [`Linear::backward_input_into`].
// audit: no_alloc
fn row_phase(
    mlp: &Mlp,
    inputs: &mut [Vec<f64>],
    output: &mut [f64],
    grads: &mut [Vec<f64>],
    wt: &mut [f64],
    rows: usize,
    loss: BatchLoss<'_>,
) {
    let last = mlp.n_layers() - 1;
    let b = rows as f64;
    // Forward: layer i reads its input rows and writes its output rows
    // (ReLU applied in place on hidden activations, exactly as the
    // cached path does).
    for (i, layer) in mlp.layers().iter().enumerate() {
        let (src, dst) = inputs.split_at_mut(i + 1);
        let x = &src[i][..rows * layer.input_dim()];
        if i < last {
            let y = &mut dst[0][..rows * layer.output_dim()];
            layer.forward_into(x, rows, y);
            relu_slice(y);
        } else {
            layer.forward_into(x, rows, output);
        }
    }
    if mlp.activation() == Activation::Sigmoid {
        sigmoid_slice(output);
    }
    // Loss gradient w.r.t. the post-activation output, then the output
    // activation's derivative — the same element-wise sequence as the
    // historic path (`g = 2·diff/b`, then `g *= s·(1-s)` for sigmoid).
    let g_last = &mut grads[last][..output.len()];
    match loss {
        BatchLoss::Mse { targets } => {
            for ((g, &o), &tv) in g_last.iter_mut().zip(&*output).zip(targets) {
                *g = 2.0 * (o - tv) / b;
            }
        }
        BatchLoss::Svdd { center } => {
            let width = center.len().max(1);
            for (grow, orow) in g_last.chunks_exact_mut(width).zip(output.chunks_exact(width)) {
                for ((g, &o), &c) in grow.iter_mut().zip(orow).zip(center) {
                    *g = 2.0 * (o - c) / b;
                }
            }
        }
    }
    if mlp.activation() == Activation::Sigmoid {
        for (g, &s) in g_last.iter_mut().zip(&*output) {
            *g *= s * (1.0 - s);
        }
    }
    // Backward chain: grads[i-1] = relu-gate(grads[i] · Wᵢᵀ), gated on
    // layer i's stored input rows — the gate the historic path applies
    // before each layer's backward call, written as a select (see the
    // module docs).
    for i in (1..=last).rev() {
        let layer = mlp.layer(i);
        let (lin, lout) = (layer.input_dim(), layer.output_dim());
        let (g_lo, g_hi) = grads.split_at_mut(i);
        let g_in = &mut g_lo[i - 1][..rows * lin];
        let panel = &mut wt[..packed_len(lout, lin)];
        let g_out = &g_hi[0][..rows * lout];
        layer.backward_input_into(g_out, rows, panel, g_in);
        for (g, &a) in g_in.iter_mut().zip(&inputs[i]) {
            *g = if a <= 0.0 { 0.0 } else { *g };
        }
    }
}

/// `grad_b[o] = Σ_r g[r][o]`, accumulated in batch-row order.
// audit: no_alloc
fn accumulate_grad_b(grads: &[f64], out_dim: usize, grad_b: &mut [f64]) {
    for d in grad_b.iter_mut() {
        *d = 0.0;
    }
    for gr in grads.chunks_exact(out_dim.max(1)) {
        for (db, &g) in grad_b.iter_mut().zip(gr) {
            *db += g;
        }
    }
}

/// Summed squared-error loss over the batch, accumulated in row-major
/// order.
// audit: no_alloc
fn loss_sum(output: &[f64], loss: BatchLoss<'_>) -> f64 {
    match loss {
        BatchLoss::Mse { targets } => {
            let mut total = 0.0;
            for (&o, &t) in output.iter().zip(targets) {
                let diff = o - t;
                total += diff * diff;
            }
            total
        }
        BatchLoss::Svdd { center } => {
            let mut total = 0.0;
            for orow in output.chunks_exact(center.len().max(1)) {
                for (&o, &c) in orow.iter().zip(center) {
                    let diff = o - c;
                    total += diff * diff;
                }
            }
            total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::MlpConfig;
    use uadb_linalg::gemm::naive_matmul;

    /// The non-finite rule: a NaN gradient row times a zero input is
    /// NaN in `grad_w`, bit for bit as the reference product gives it,
    /// where the historic kernel skipped the zero input.
    #[test]
    fn grad_w_keeps_nan_rows_through_zero_inputs() {
        // One 5 → 20 layer: a full 16-wide strip plus 4 remainder
        // columns. Under the SVDD loss every output column has a
        // gradient, so row 1's NaN feature makes its whole gradient
        // row NaN; its other features are zero.
        let mut mlp = Mlp::new(&MlpConfig {
            input_dim: 5,
            hidden: vec![],
            output_dim: 20,
            activation: Activation::Identity,
            seed: 3,
        });
        #[rustfmt::skip]
        let x = Matrix::from_vec(4, 5, vec![
            0.5, 0.0, -1.0, 2.0, 0.0,
            f64::NAN, 0.0, 0.0, 0.0, 0.0,
            -0.3, 1.2, 0.0, 0.7, 0.0,
            1.1, -0.4, 0.9, 0.0, 0.0,
        ])
        .unwrap();
        let center = vec![0.1; 20];
        let mut scratch = TrainScratch::default();
        scratch.prepare(&mlp, 4);
        scratch.gather(&x, &[0, 1, 2, 3]);
        let objective = Objective::Svdd { center: &center };
        train_batch_step(&mut mlp, &mut scratch, 4, &objective, &AdamParams::default());

        let g = Matrix::from_vec(4, 20, scratch.grads[0][..80].to_vec()).unwrap();
        assert!(g.row(1).iter().all(|v| v.is_nan()) && g.row(0).iter().all(|v| v.is_finite()));
        let want = naive_matmul(&x.transpose(), &g);
        let got = mlp.layer(0).grad_weights();
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want.as_slice()));
        // Feature 4 is zero in every row, so only `0 · NaN` reaches it.
        assert!(got[4 * 20..].iter().all(|v| v.is_nan()));
    }
}
