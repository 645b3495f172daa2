//! Zero-steady-state-allocation training engine: the training-side
//! analogue of [`crate::mlp::ForwardScratch`].
//!
//! [`TrainScratch`] owns every buffer one optimiser step needs — the
//! batch-gather buffer (replacing per-chunk `select_rows`), the
//! retained per-layer activation inputs backprop reads, the per-layer
//! gradient matrices, and the gathered target column — all grow-once,
//! so a training loop allocates nothing at steady state (the layer
//! parameter gradients and the packed rhs panels are likewise recycled
//! inside [`crate::linear::Linear`]).
//!
//! # Bit-identity
//!
//! [`train_batch_step`] runs one step serially on the calling thread
//! and lands on exactly the weights of the historic
//! `forward_cached` + `backward_and_step` loop: the row phase (forward,
//! loss gradient, backward chain) makes the same GEMM and element-wise
//! calls on the same rows, and the weight phase accumulates every
//! gradient element over the batch rows in ascending order, as the
//! historic kernel did. Parallelism lives one level up: the UADB fit
//! trains independent networks side by side, each on its own scratch.

use crate::adam::AdamParams;
use crate::mlp::{relu_slice, sigmoid_slice, Activation, Mlp};
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
    let TrainScratch { inputs, output, grads, targets } = scratch;
    let loss = match objective {
        Objective::Mse => BatchLoss::Mse { targets: &targets[..batch] },
        Objective::Svdd { center } => BatchLoss::Svdd { center },
    };
    let output = &mut output[..batch * mlp.output_dim()];
    row_phase(mlp, inputs, output, grads, batch, loss);
    let total = loss_sum(output, loss);

    // --- Weight phase and optimiser, in forward layer order (as the
    // historic path), each Adam step recycling the layer's packed rhs
    // panel. A layer's gradients read only the row phase's buffers, so
    // updating it before the next layer's accumulation changes no bit. ---
    for (li, layer) in mlp.layers_mut().iter_mut().enumerate() {
        let (lin, lout) = (layer.input_dim(), layer.output_dim());
        let x = &inputs[li][..batch * lin];
        let g = &grads[li][..batch * lout];
        let (grad_w, grad_b) = layer.grads_mut();
        accumulate_grad_b(g, lout, grad_b);
        accumulate_grad_w(x, lin, lout, g, grad_w);
        layer.apply_adam(hp);
    }
    total
}

/// Forward pass, loss gradient and backward chain over the batch's
/// `rows` rows: `inputs[i]` receives layer `i`'s input, `output` the
/// post-activation head, `grads[i]` layer `i`'s pre-activation
/// gradient.
// audit: no_alloc
fn row_phase(
    mlp: &Mlp,
    inputs: &mut [Vec<f64>],
    output: &mut [f64],
    grads: &mut [Vec<f64>],
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
    // before each layer's backward call.
    for i in (1..=last).rev() {
        let layer = mlp.layer(i);
        let (g_lo, g_hi) = grads.split_at_mut(i);
        let g_in = &mut g_lo[i - 1][..rows * layer.input_dim()];
        layer.backward_input_into(&g_hi[0][..rows * layer.output_dim()], rows, g_in);
        for (g, &a) in g_in.iter_mut().zip(&inputs[i]) {
            if a <= 0.0 {
                *g = 0.0;
            }
        }
    }
}

/// `grad_w[i] = Σ_r x[r][i]·g[r]`. Batch rows run in the outer loop
/// (streaming `x` and `grads` once while `grad_w` stays cache-hot — the
/// historic serial kernel's layout), so each `grad_w` element
/// accumulates its per-batch-row contributions in ascending row order.
/// The `xi == 0.0` skip mirrors the historic kernel (the zeroed entries
/// it leaves behind are written by the explicit clear up front).
// audit: no_alloc
fn accumulate_grad_w(x: &[f64], in_dim: usize, out_dim: usize, grads: &[f64], grad_w: &mut [f64]) {
    let lout = out_dim.max(1);
    for d in grad_w.iter_mut() {
        *d = 0.0;
    }
    for (xrow, gr) in x.chunks_exact(in_dim.max(1)).zip(grads.chunks_exact(lout)) {
        for (dst, &xi) in grad_w.chunks_exact_mut(lout).zip(xrow) {
            if xi == 0.0 {
                continue;
            }
            for (d, &g) in dst.iter_mut().zip(gr) {
                *d += xi * g;
            }
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
