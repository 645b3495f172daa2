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
//! # Parallel decomposition and bit-identity
//!
//! [`train_batch_step`] optionally fans one batch out over scoped
//! worker threads, and is **bit-identical to the serial path for every
//! worker count** — not merely deterministic — because no partition
//! boundary ever changes the order of a floating-point accumulation:
//!
//! * **Row phase** (forward pass, loss gradient, backward chain):
//!   every output element depends on exactly one batch row, so rows
//!   split into contiguous ranges with no cross-row arithmetic. The
//!   blocked GEMM kernel's pinned shard-independence property
//!   guarantees per-row bits do not depend on the range they ran in.
//! * **Weight phase** (`grad_w = Xᵀ·G`): partitioned by *weight row*
//!   (input-dimension index), not by batch row. Each `grad_w[i][o]`
//!   element accumulates its per-batch-row contributions in ascending
//!   row order inside a single task, exactly as the serial kernel
//!   does, so there is no cross-partition floating-point reduction at
//!   all — the classic source of worker-count-dependent results.
//! * **Bias gradients, loss reporting and the Adam step** run serially
//!   on the coordinating thread (they are `O(batch·width)` or
//!   `O(params)`, negligible next to the GEMMs).

use crate::adam::AdamParams;
use crate::mlp::{relu_slice, Activation, Mlp};
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

/// One worker's contiguous row range of every per-row buffer.
struct RowPart<'a> {
    /// Gathered input rows for this range (input to layer 0).
    x0: &'a [f64],
    /// `acts[j]` = this range's rows of the input to layer `j + 1`.
    acts: Vec<&'a mut [f64]>,
    /// This range's rows of the post-activation output.
    output: &'a mut [f64],
    /// `grads[i]` = this range's rows of layer `i`'s pre-activation
    /// gradient.
    grads: Vec<&'a mut [f64]>,
    /// Rows in this range.
    rows: usize,
    /// First batch row of this range (loss-data indexing).
    row0: usize,
}

/// Contiguous near-even `(start, len)` ranges covering `0..n`; empty
/// ranges are dropped, so over-provisioned worker counts are harmless.
fn partition(n: usize, parts: usize) -> Vec<(usize, usize)> {
    let parts = parts.clamp(1, n.max(1));
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        if len > 0 {
            out.push((start, len));
        }
        start += len;
    }
    out
}

/// Splits the head `rows * width` elements off a remainder slice.
fn carve<'a>(rem: &mut &'a mut [f64], rows: usize, width: usize) -> &'a mut [f64] {
    let (head, tail) = std::mem::take(rem).split_at_mut(rows * width);
    *rem = tail;
    head
}

/// Carves one worker's [`RowPart`] off the per-buffer remainder slices.
/// Callers must invoke this in ascending `row0` order; each call
/// consumes exactly its range from every remainder.
#[allow(clippy::too_many_arguments)] // internal plumbing, one call site shape
fn make_part<'a>(
    row0: usize,
    rows: usize,
    x0_full: &'a [f64],
    in_dim: usize,
    out_dim: usize,
    acts_rem: &mut [&'a mut [f64]],
    acts_w: &[usize],
    grads_rem: &mut [&'a mut [f64]],
    grads_w: &[usize],
    out_rem: &mut &'a mut [f64],
) -> RowPart<'a> {
    RowPart {
        x0: &x0_full[row0 * in_dim..(row0 + rows) * in_dim],
        acts: acts_rem.iter_mut().zip(acts_w).map(|(rem, &w)| carve(rem, rows, w)).collect(),
        output: carve(out_rem, rows, out_dim),
        grads: grads_rem.iter_mut().zip(grads_w).map(|(rem, &w)| carve(rem, rows, w)).collect(),
        rows,
        row0,
    }
}

/// One optimiser step on a gathered batch: forward, loss gradient,
/// backward, Adam on every layer. Returns the **summed** squared-error
/// loss over the batch rows (callers divide by the epoch row count for
/// the row-weighted mean). `workers <= 1` runs serially; larger values
/// fan the row and weight phases out over scoped threads with
/// bit-identical results (see the module docs).
///
/// The gradient semantics are bit-for-bit those of the historic
/// `forward_cached` + `backward_and_step` path.
pub(crate) fn train_batch_step(
    mlp: &mut Mlp,
    scratch: &mut TrainScratch,
    batch: usize,
    objective: &Objective<'_>,
    hp: &AdamParams,
    workers: usize,
) -> f64 {
    let l = mlp.n_layers();
    let last = l - 1;
    let b = batch as f64;
    let TrainScratch { inputs, output, grads, targets } = scratch;
    let loss = match objective {
        Objective::Mse => BatchLoss::Mse { targets: &targets[..batch] },
        Objective::Svdd { center } => BatchLoss::Svdd { center },
    };
    let in_dim = mlp.input_dim();
    let out_dim = mlp.output_dim();

    // --- Row phase: forward + loss gradient + backward chain. ---
    let (head, tail) = inputs.split_at_mut(1);
    let x0_full: &[f64] = &head[0][..batch * in_dim];
    let mut acts_rem: Vec<&mut [f64]> = tail
        .iter_mut()
        .zip(&mlp.layers()[..last])
        .map(|(buf, layer)| &mut buf[..batch * layer.output_dim()] as &mut [f64])
        .collect();
    let mut grads_rem: Vec<&mut [f64]> = grads
        .iter_mut()
        .zip(mlp.layers())
        .map(|(buf, layer)| &mut buf[..batch * layer.output_dim()] as &mut [f64])
        .collect();
    let mut out_rem: &mut [f64] = &mut output[..batch * out_dim];
    let ranges = partition(batch, workers);
    let acts_w: Vec<usize> = mlp.layers()[..last].iter().map(|l| l.output_dim()).collect();
    let grads_w: Vec<usize> = mlp.layers().iter().map(|l| l.output_dim()).collect();
    let mlp_ref: &Mlp = mlp;
    if ranges.len() <= 1 {
        for &(row0, rows) in &ranges {
            let part = make_part(
                row0,
                rows,
                x0_full,
                in_dim,
                out_dim,
                &mut acts_rem,
                &acts_w,
                &mut grads_rem,
                &grads_w,
                &mut out_rem,
            );
            row_phase(mlp_ref, part, loss, b);
        }
    } else {
        std::thread::scope(|s| {
            for &(row0, rows) in &ranges {
                let part = make_part(
                    row0,
                    rows,
                    x0_full,
                    in_dim,
                    out_dim,
                    &mut acts_rem,
                    &acts_w,
                    &mut grads_rem,
                    &grads_w,
                    &mut out_rem,
                );
                s.spawn(move || row_phase(mlp_ref, part, loss, b));
            }
        });
    }

    // --- Loss report: serial, row-major order (independent of the
    // partition above). ---
    let total = loss_sum(&output[..batch * out_dim], loss);

    // --- Weight phase: bias gradients serially, weight gradients
    // partitioned by weight row. ---
    let mut tasks: Vec<Vec<GradWTask<'_>>> = Vec::new();
    tasks.resize_with(workers.max(1), Vec::new);
    for (li, layer) in mlp.layers_mut().iter_mut().enumerate() {
        let (lin, lout) = (layer.input_dim(), layer.output_dim());
        let x = &inputs[li][..batch * lin];
        let g = &grads[li][..batch * lout];
        let (grad_w, grad_b) = layer.grads_mut();
        accumulate_grad_b(g, lout, grad_b);
        let mut rem: &mut [f64] = grad_w;
        for (widx, &(i0, wrows)) in partition(lin, workers).iter().enumerate() {
            let part = carve(&mut rem, wrows, lout);
            tasks[widx].push(GradWTask { x, grads: g, in_dim: lin, out_dim: lout, i0, part });
        }
    }
    let parallel_weights = tasks.iter().filter(|t| !t.is_empty()).count() > 1;
    if parallel_weights {
        std::thread::scope(|s| {
            for worker_tasks in tasks {
                if worker_tasks.is_empty() {
                    continue;
                }
                s.spawn(move || {
                    for t in worker_tasks {
                        accumulate_grad_w(t.x, t.in_dim, t.out_dim, t.grads, t.i0, t.part);
                    }
                });
            }
        });
    } else {
        for t in tasks.into_iter().flatten() {
            accumulate_grad_w(t.x, t.in_dim, t.out_dim, t.grads, t.i0, t.part);
        }
    }

    // --- Optimiser: serial, forward layer order (as the historic
    // path), each step recycling the layer's packed rhs panel. ---
    for layer in mlp.layers_mut() {
        layer.apply_adam(hp);
    }
    total
}

/// One weight-row range of one layer's `grad_w` accumulation.
struct GradWTask<'a> {
    x: &'a [f64],
    grads: &'a [f64],
    in_dim: usize,
    out_dim: usize,
    i0: usize,
    part: &'a mut [f64],
}

/// Forward pass, loss gradient and backward chain for one contiguous
/// row range. Everything here is row-local: no element outside
/// `part`'s rows is read or written, so concurrent parts never
/// interact.
// audit: no_alloc
fn row_phase(mlp: &Mlp, mut part: RowPart<'_>, loss: BatchLoss<'_>, b: f64) {
    let l = mlp.n_layers();
    let last = l - 1;
    let rows = part.rows;
    // Forward: layer i reads its input rows and writes its output rows
    // (ReLU applied in place on hidden activations, exactly as the
    // cached path does).
    for (i, layer) in mlp.layers().iter().enumerate() {
        if i == 0 && l == 1 {
            layer.forward_into(part.x0, rows, &mut *part.output);
        } else if i == 0 {
            let (dst, _) = part.acts.split_at_mut(1);
            layer.forward_into(part.x0, rows, &mut *dst[0]);
            relu_slice(&mut *dst[0]);
        } else if i < last {
            let (src, dst) = part.acts.split_at_mut(i);
            layer.forward_into(&*src[i - 1], rows, &mut *dst[0]);
            relu_slice(&mut *dst[0]);
        } else {
            let (src, _) = part.acts.split_at_mut(i);
            layer.forward_into(&*src[i - 1], rows, &mut *part.output);
        }
    }
    if mlp.activation() == Activation::Sigmoid {
        sigmoid_rows(&mut *part.output);
    }
    // Loss gradient w.r.t. the post-activation output, then the output
    // activation's derivative — the same element-wise sequence as the
    // historic path (`g = 2·diff/b`, then `g *= s·(1-s)` for sigmoid).
    {
        let g_last = &mut *part.grads[last];
        match loss {
            BatchLoss::Mse { targets } => {
                let t = &targets[part.row0..part.row0 + rows];
                for ((g, &o), &tv) in g_last.iter_mut().zip(&*part.output).zip(t) {
                    *g = 2.0 * (o - tv) / b;
                }
            }
            BatchLoss::Svdd { center } => {
                let width = center.len().max(1);
                for (grow, orow) in
                    g_last.chunks_exact_mut(width).zip(part.output.chunks_exact(width))
                {
                    for ((g, &o), &c) in grow.iter_mut().zip(orow).zip(center) {
                        *g = 2.0 * (o - c) / b;
                    }
                }
            }
        }
        if mlp.activation() == Activation::Sigmoid {
            for (g, &s) in g_last.iter_mut().zip(&*part.output) {
                *g *= s * (1.0 - s);
            }
        }
    }
    // Backward chain: grads[i-1] = relu-gate(grads[i] · Wᵢᵀ), gated on
    // layer i's stored input rows — the gate the historic path applies
    // before each layer's backward call.
    for i in (1..l).rev() {
        let (g_lo, g_hi) = part.grads.split_at_mut(i);
        let layer = mlp.layer(i);
        layer.backward_input_into(&*g_hi[0], rows, &mut *g_lo[i - 1]);
        for (g, &a) in g_lo[i - 1].iter_mut().zip(&*part.acts[i - 1]) {
            if a <= 0.0 {
                *g = 0.0;
            }
        }
    }
}

/// `grad_w[i0 + ii] += Σ_r x[r][i0 + ii]·g[r]` for the weight rows
/// covered by `part`. Batch rows run in the outer loop (streaming `x`
/// and `grads` once while `part` stays cache-hot — the historic serial
/// kernel's layout), so each `grad_w` element accumulates its
/// per-batch-row contributions in ascending row order and the
/// weight-row partition never changes a single bit. The `xi == 0.0`
/// skip mirrors the serial kernel (the zeroed entries it leaves behind
/// are written by the explicit clear up front).
// audit: no_alloc
fn accumulate_grad_w(
    x: &[f64],
    in_dim: usize,
    out_dim: usize,
    grads: &[f64],
    i0: usize,
    part: &mut [f64],
) {
    let lout = out_dim.max(1);
    for d in part.iter_mut() {
        *d = 0.0;
    }
    let wrows = part.len() / lout;
    for (xrow, gr) in x.chunks_exact(in_dim.max(1)).zip(grads.chunks_exact(lout)) {
        for (dst, &xi) in part.chunks_exact_mut(lout).zip(&xrow[i0..i0 + wrows]) {
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
/// order on the coordinating thread (so the report is also independent
/// of the worker count).
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

/// In-place numerically-stable sigmoid over a row range.
// audit: no_alloc
fn sigmoid_rows(vals: &mut [f64]) {
    for v in vals {
        *v = crate::mlp::sigmoid(*v);
    }
}
