//! Cache-blocked, allocation-free GEMM kernel.
//!
//! The serving hot path is two dense matmuls per batch (the booster's
//! `input → 128 → 128 → 1` MLP), so this kernel is written for exactly
//! that regime: moderate `k`/`n`, batch-sized `m`. It blocks over rows
//! (`MC`) and columns (`NC`), and computes each output row in
//! register-tiled strips of [`NR`] = 32 columns with the `k`
//! accumulation kept **sequential per output element** — every
//! `out[i][j]` is the same ordered sum `Σ_k a[i][k]·b[k][j]` the naive
//! i/k/j kernel produces, so results are bit-identical to it (the
//! proptest in `tests/proptests.rs` pins this against a reference
//! triple loop). A 32-column strip holds four AVX-512 (eight AVX)
//! accumulators: each is one add chain bound by the add latency, so
//! twice the chains of a 16-column strip keep twice the adds in flight
//! per `k` step.
//!
//! The rhs reaches the strips as an [`Rhs`] view:
//!
//! * **direct** — strips load straight from the row-major rhs with a
//!   stride of `n` (small batches, where packing cannot amortise);
//! * **packed** — the rhs is first re-laid out strip-major by
//!   [`pack_rhs`] so the `k` loop streams contiguous memory. Packing is
//!   O(k·n) and amortises over the batch rows; for a long-lived weight
//!   matrix the packed panel can be built once and reused forever;
//! * **transposed** — the rhs is `Wᵀ` of a row-major `W`, packed
//!   straight from `W` by [`pack_transposed`] in one pass that also
//!   yields `Wᵀ`'s row finiteness. The training backward pass multiplies
//!   by `Wᵀ` this way without materialising it.
//!
//! Packed panels live in an [`AlignedBuf`], which starts them on a
//! 64-byte boundary: a strip row is 256 bytes, so every 8-lane load of
//! a packed strip then sits in one cache line instead of straddling
//! two.
//!
//! IEEE-754 semantics are preserved: a zero left-hand coefficient may
//! only skip its contribution when the matching `rhs` row is entirely
//! finite (`0.0 * NaN` and `0.0 * inf` are NaN). The finiteness mask is
//! owned by [`GemmScratch`] so repeated multiplies against one weight
//! matrix compute it once instead of per call.
//!
//! Skipping is a speed choice only. A skipped term is `0.0 · b` with
//! `b` finite, so it is `±0.0`; every sum starts at `+0.0`, IEEE
//! addition returns `-0.0` only for two `-0.0` operands, so no partial
//! sum is ever `-0.0`, and adding `±0.0` to it changes no bit. Any
//! subset of the skippable terms may therefore be added or dropped, as
//! long as the rest are added in ascending `k`.
//!
//! Two row kinds feed the strips. A row with no zero coefficient runs
//! every `k` through the dense strip. A row with zeros — ReLU
//! activations are about half zeros — first has its surviving `k`
//! indices compacted once per row block, and every strip of that row
//! then walks only that list. Compaction is table-driven and
//! branch-free: each group of 8 coefficients becomes an 8-bit keep
//! mask, one 256-entry table lookup writes that group's kept offsets,
//! and the list length advances by the number kept. The ragged
//! remainder columns add every term for every row.

use std::mem::MaybeUninit;
use std::ops::Range;

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::Result;

/// Register-tile width: each output row is produced in strips of `NR`
/// column accumulators that live in registers for the whole `k` loop,
/// so `out` is written once instead of loaded/stored per `k` step.
pub const NR: usize = 32;
/// Row-block height: rows of `a` scored against one `k×NR` strip of `b`
/// before moving to the next strip, keeping the strip in L1.
const MC: usize = 64;
/// Column-block width (a multiple of [`NR`]): bounds the working set of
/// `b` touched before `a`'s row block is re-streamed.
const NC: usize = 256;
/// `k`-block depth of the compacted path: a block-local index fits a
/// `u8`, so one row block's surviving-`k` lists take `MC * KC` bytes.
/// Deeper `k` runs block by block, each block's strips adding onto the
/// partial sums the previous block left in `out`.
const KC: usize = 256;
/// Minimum batch height for which [`Matrix::matmul_into`] packs the rhs
/// on the fly; below this the O(k·n) packing pass costs more than the
/// strided loads it saves.
const PACK_MIN_ROWS: usize = 8;

/// Reusable workspace for [`Matrix::matmul_into`]: the rhs-row
/// finiteness mask and the strip-major packed rhs panel, both computed
/// once per scratch and cached across calls.
///
/// Both artifacts are properties of the **rhs** operand. Reuse a
/// scratch only while the rhs contents are unchanged; call
/// [`GemmScratch::clear`] (or use a fresh scratch) after mutating it.
/// For a long-lived weight matrix, [`GemmScratch::precomputed`] builds
/// both eagerly so no scoring call ever re-scans the weights.
#[derive(Debug, Clone, Default)]
pub struct GemmScratch {
    finite: Option<Vec<bool>>,
    pack: AlignedBuf,
    packed: bool,
}

impl GemmScratch {
    /// An empty scratch; mask and packing are computed on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Eagerly computes the row-finiteness mask and packed panel of
    /// `rhs`.
    pub fn precomputed(rhs: &Matrix) -> Self {
        let mut pack = AlignedBuf::default();
        pack_rhs(rhs.rows(), rhs.cols(), rhs.as_slice(), &mut pack);
        stats::pack_built();
        Self { finite: Some(row_finiteness(rhs)), pack, packed: true }
    }

    /// Drops the cached mask and packing (required after the rhs they
    /// were computed from changes). Keeps the pack allocation.
    pub fn clear(&mut self) {
        self.finite = None;
        self.packed = false;
    }

    /// Builds the packed panel from `rhs` unless it is cached.
    fn ensure_pack(&mut self, rhs: &Matrix) {
        if !self.packed {
            pack_rhs(rhs.rows(), rhs.cols(), rhs.as_slice(), &mut self.pack);
            self.packed = true;
            stats::pack_built();
        } else {
            stats::pack_reused();
        }
    }
}

/// A grow-once `f64` buffer whose contents start on a 64-byte boundary,
/// for packed strip panels.
///
/// A `Vec<f64>` is only as aligned as the allocator makes it (16 bytes
/// is common), so a strip row's 8-lane loads could each straddle two
/// cache lines. The buffer over-allocates a plain `Vec` by 7 elements
/// and starts at the first boundary inside it: no `unsafe`, no custom
/// allocator, and at most 56 bytes more than the contents need.
#[derive(Debug, Clone, Default)]
pub struct AlignedBuf {
    buf: Vec<f64>,
    start: usize,
    len: usize,
}

impl AlignedBuf {
    /// Sets the length to `len` and returns the contents, which are
    /// unspecified: callers overwrite every element. Grow-once: no
    /// allocation once the buffer has held `len` elements.
    pub fn resize(&mut self, len: usize) -> &mut [f64] {
        if self.buf.len() < len + 7 {
            self.buf.resize(len + 7, 0.0);
        }
        // `align_offset` may decline to find an offset (it is allowed
        // to, e.g. under Miri); the buffer is then merely unaligned.
        let off = self.buf.as_ptr().align_offset(64);
        self.start = if off < 8 { off } else { 0 };
        self.len = len;
        &mut self.buf[self.start..self.start + len]
    }

    /// The contents.
    pub fn as_slice(&self) -> &[f64] {
        &self.buf[self.start..self.start + self.len]
    }

    /// The contents, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.buf[self.start..self.start + self.len]
    }
}

/// Feature-gated kernel counters (`--features kernel-stats`).
///
/// Counts are bumped once per `gemm_into` call (ISA path taken) and
/// once per pack decision (panel rebuilt vs. served from a scratch) —
/// never inside the strip loops, so the instrumented kernel's inner
/// loops are byte-for-byte the uninstrumented ones. With the feature
/// off every recording function is an empty inline stub and the
/// counters compile out entirely.
pub mod stats {
    #[cfg(feature = "kernel-stats")]
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Whether the counters are compiled in.
    pub const ENABLED: bool = cfg!(feature = "kernel-stats");

    #[cfg(feature = "kernel-stats")]
    static PACKS_BUILT: AtomicU64 = AtomicU64::new(0);
    #[cfg(feature = "kernel-stats")]
    static PACKS_REUSED: AtomicU64 = AtomicU64::new(0);
    #[cfg(feature = "kernel-stats")]
    static CALLS_AVX512: AtomicU64 = AtomicU64::new(0);
    #[cfg(feature = "kernel-stats")]
    static CALLS_AVX: AtomicU64 = AtomicU64::new(0);
    #[cfg(feature = "kernel-stats")]
    static CALLS_PORTABLE: AtomicU64 = AtomicU64::new(0);

    /// Point-in-time copy of the kernel counters (all zero when the
    /// feature is disabled).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct KernelStats {
        /// Rhs panels packed (scratch builds plus `precomputed`).
        pub packs_built: u64,
        /// `matmul_into` calls served by an already-packed panel.
        pub packs_reused: u64,
        pub calls_avx512: u64,
        pub calls_avx: u64,
        pub calls_portable: u64,
    }

    #[inline(always)]
    pub(super) fn pack_built() {
        #[cfg(feature = "kernel-stats")]
        PACKS_BUILT.fetch_add(1, Ordering::Relaxed);
    }

    #[inline(always)]
    pub(super) fn pack_reused() {
        #[cfg(feature = "kernel-stats")]
        PACKS_REUSED.fetch_add(1, Ordering::Relaxed);
    }

    #[inline(always)]
    #[cfg_attr(not(feature = "kernel-stats"), allow(unused_variables))]
    pub(super) fn isa_call(isa: super::simd::Isa) {
        #[cfg(feature = "kernel-stats")]
        match isa {
            super::simd::Isa::Avx512 => CALLS_AVX512.fetch_add(1, Ordering::Relaxed),
            super::simd::Isa::Avx => CALLS_AVX.fetch_add(1, Ordering::Relaxed),
            super::simd::Isa::Portable => CALLS_PORTABLE.fetch_add(1, Ordering::Relaxed),
        };
    }

    pub fn snapshot() -> KernelStats {
        #[cfg(feature = "kernel-stats")]
        {
            KernelStats {
                packs_built: PACKS_BUILT.load(Ordering::Relaxed),
                packs_reused: PACKS_REUSED.load(Ordering::Relaxed),
                calls_avx512: CALLS_AVX512.load(Ordering::Relaxed),
                calls_avx: CALLS_AVX.load(Ordering::Relaxed),
                calls_portable: CALLS_PORTABLE.load(Ordering::Relaxed),
            }
        }
        #[cfg(not(feature = "kernel-stats"))]
        KernelStats::default()
    }
}

/// Per-row finiteness of a matrix: `mask[r]` is true iff every element
/// of row `r` is finite (neither NaN nor ±inf).
pub fn row_finiteness(m: &Matrix) -> Vec<bool> {
    m.row_iter().map(row_is_finite).collect()
}

/// Whether every element of `row` is finite. The fold does not stop
/// early, so it vectorises; rows are finite in practice, so an early
/// exit would save nothing.
fn row_is_finite(row: &[f64]) -> bool {
    row.iter().fold(true, |ok, v| ok & v.is_finite())
}

/// [`row_finiteness`] into a caller-owned buffer. `mask` is cleared and
/// refilled (grow-once: no allocation once its capacity has reached the
/// row count), so a training loop that re-derives the mask after every
/// optimiser step never reallocates it — the buffer half of the rhs-pack
/// double-buffering that keeps `apply_adam` allocation-free.
pub fn row_finiteness_into(m: &Matrix, mask: &mut Vec<bool>) {
    mask.clear();
    mask.extend(m.row_iter().map(row_is_finite));
}

/// The pre-refactor `Matrix::matmul` kernel, kept **verbatim** (naive
/// i/k/j triple loop, fresh output allocation, lazily-built rhs-row
/// finiteness mask gating the zero-coefficient skip) as the blocked
/// kernel's bit-identity oracle and benchmark baseline. Not part of
/// the supported API — do not "optimise" this; its value is that it
/// never changes. The proptest suite additionally keeps its own
/// independent reimplementation so the oracle is not self-referential.
#[doc(hidden)]
pub fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let n = b.cols();
    let mut out = Matrix::zeros(a.rows(), n);
    let mut rhs_row_finite: Option<Vec<bool>> = None;
    for i in 0..a.rows() {
        let a_row = a.row(i);
        let out_row = &mut out.as_mut_slice()[i * n..(i + 1) * n];
        for (k, &a_ik) in a_row.iter().enumerate() {
            if a_ik == 0.0 {
                let finite = rhs_row_finite.get_or_insert_with(|| row_finiteness(b));
                if finite[k] {
                    continue;
                }
            }
            let b_row = &b.as_slice()[k * n..(k + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += a_ik * bv;
            }
        }
    }
    out
}

/// Length of the strip-major panel of a `k×n` rhs: its full [`NR`]-wide
/// strips, `k` rows each.
pub fn packed_len(k: usize, n: usize) -> usize {
    k * (n - n % NR)
}

/// Re-lays a row-major `k×n` rhs strip-major: for each full [`NR`]-wide
/// column strip, its `k×NR` panel is stored contiguously, so the strip
/// micro-kernel streams sequential memory instead of `n`-strided rows.
/// Ragged remainder columns (`n % NR`) are not packed; the kernels read
/// them from the original buffer.
///
/// `pack` is resized to [`packed_len`] and overwritten (grow-once: no
/// allocation once it has held that many elements).
pub fn pack_rhs(k: usize, n: usize, b: &[f64], pack: &mut AlignedBuf) {
    assert_eq!(b.len(), k * n, "rhs buffer length must be k*n");
    let panel = pack.resize(packed_len(k, n));
    for s in 0..n / NR {
        for kk in 0..k {
            let dst = &mut panel[(s * k + kk) * NR..(s * k + kk + 1) * NR];
            dst.copy_from_slice(&b[kk * n + s * NR..kk * n + (s + 1) * NR]);
        }
    }
}

/// Packs `Wᵀ` for [`Rhs::Transposed`] in one pass over the row-major
/// `n×k` buffer `w`, so `Wᵀ` (the `k×n` rhs) is never materialised.
///
/// `panel` receives the [`pack_rhs`] image of `Wᵀ`: row `j < n - n % NR`
/// of `w` is column `j` of `Wᵀ`, lane `j % NR` of strip `j / NR`. The
/// last `n % NR` rows of `w` are `Wᵀ`'s ragged columns, which the
/// kernel reads from `w` itself. `finite[kk]` receives whether row `kk`
/// of `Wᵀ`, column `kk` of `w`, is entirely finite.
///
/// # Panics
/// If `w` is not `n * k` long, `panel` not [`packed_len`]`(k, n)` or
/// `finite` not `k`.
// audit: no_alloc
pub fn pack_transposed(n: usize, k: usize, w: &[f64], panel: &mut [f64], finite: &mut [bool]) {
    assert_eq!(w.len(), n * k, "w buffer length must be n*k");
    assert_eq!(panel.len(), packed_len(k, n), "panel length must be packed_len(k, n)");
    assert_eq!(finite.len(), k, "finite length must be k");
    finite.fill(true);
    let full = n - n % NR;
    // Strip by strip, each panel row gathers one column of the strip's
    // `NR` rows of `w`; those rows stay in L1 across the strip.
    for s in 0..full / NR {
        let rows = &w[s * NR * k..(s + 1) * NR * k];
        let strip = &mut panel[s * k * NR..(s + 1) * k * NR];
        for (kk, (dst, ok)) in strip.chunks_exact_mut(NR).zip(finite.iter_mut()).enumerate() {
            // `0 · v` is `±0.0` exactly when `v` is finite (NaN for NaN
            // and ±inf), so with the sign bit shifted out, OR-ing the
            // bits is a finiteness fold that vectorises.
            let mut non_finite = 0;
            for (slot, row) in dst.iter_mut().zip(rows.chunks_exact(k)) {
                *slot = row[kk];
                non_finite |= (0.0 * row[kk]).to_bits() << 1;
            }
            *ok &= non_finite == 0;
        }
    }
    for row in w[full * k..].chunks_exact(k.max(1)) {
        for (ok, v) in finite.iter_mut().zip(row) {
            *ok &= v.is_finite();
        }
    }
}

/// The `k×n` rhs of one [`gemm_into`] call.
#[derive(Debug, Clone, Copy)]
pub enum Rhs<'a> {
    /// Row-major `k×n`; strips load it with a stride of `n`.
    RowMajor(&'a [f64]),
    /// Row-major `k×n` with its [`pack_rhs`] panel, which the strips
    /// stream; the ragged columns come from `b`.
    Packed { b: &'a [f64], panel: &'a [f64] },
    /// `Wᵀ` of the row-major `n×k` buffer `w`, with its
    /// [`pack_transposed`] panel, which the strips stream; the ragged
    /// columns are `w`'s last rows.
    Transposed { w: &'a [f64], panel: &'a [f64] },
}

/// The strip path this process dispatches to: `"avx512"`, `"avx"` or
/// `"portable"`, the labels `UADB_GEMM_ISA` accepts and
/// `uadb_gemm_calls_total` reports.
pub fn dispatched_isa() -> &'static str {
    match simd::detect() {
        simd::Isa::Avx512 => "avx512",
        simd::Isa::Avx => "avx",
        simd::Isa::Portable => "portable",
    }
}

/// Blocked matrix product `out = a · b` over raw row-major slices.
///
/// `a` is `m×k`, `b` is the `k×n` [`Rhs`] view, `out` is `m×n`.
/// `rhs_row_finite(r)` must report whether row `r` of `b` is entirely
/// finite; it is only consulted for row blocks holding a zero left-hand
/// coefficient and at least one full strip, so a lazily-built mask
/// costs nothing on fully dense inputs.
///
/// # Panics
/// If any slice length disagrees with the given dimensions.
// audit: no_alloc
pub fn gemm_into(
    m: usize,
    k: usize,
    n: usize,
    a: &[f64],
    b: Rhs<'_>,
    mut rhs_row_finite: impl FnMut(usize) -> bool,
    out: &mut [f64],
) {
    // Rhs element `(kk, j)` is `b_data[j * col_step + kk * row_step]`.
    let (b_data, panel, col_step, row_step) = match b {
        Rhs::RowMajor(b) => (b, None, 1, n),
        Rhs::Packed { b, panel } => (b, Some(panel), 1, n),
        Rhs::Transposed { w, panel } => (w, Some(panel), k, 1),
    };
    assert_eq!(a.len(), m * k, "lhs buffer length must be m*k");
    assert_eq!(b_data.len(), k * n, "rhs buffer length must be k*n");
    assert_eq!(out.len(), m * n, "out buffer length must be m*n");
    if let Some(p) = panel {
        assert_eq!(p.len(), packed_len(k, n), "packed rhs length must be packed_len(k, n)");
    }
    if k == 0 {
        // Every element is an empty sum; `b` is zero-length, so the
        // strip slicing below must not run.
        out.fill(0.0);
        return;
    }
    let g = Gemm { isa: simd::detect(), k, n, a, b: b_data, col_step, row_step, panel };
    stats::isa_call(g.isa);
    for jc in (0..n).step_by(NC) {
        let jc_end = (jc + NC).min(n);
        // Full strips cover `jc..strips_end`; the ragged remainder
        // columns (a 1-wide head is all remainder) run scalar.
        let strips_end = jc + (jc_end - jc) / NR * NR;
        for ic in (0..m).step_by(MC) {
            let ic_end = (ic + MC).min(m);
            if jc < strips_end {
                // One prescan per block sorts rows into dense ones
                // (every `k` contributes) and zero-containing ones.
                let mut has_zero = [false; MC];
                for (slot, i) in has_zero.iter_mut().zip(ic..ic_end) {
                    *slot = a[i * k..(i + 1) * k].contains(&0.0);
                }
                g.dense_strips(ic..ic_end, &has_zero, jc..strips_end, out);
                if has_zero.contains(&true) {
                    let strips = jc..strips_end;
                    g.compacted_strips(ic..ic_end, &has_zero, strips, &mut rhs_row_finite, out);
                }
            }
            g.remainder(ic..ic_end, strips_end..jc_end, out);
        }
    }
}

/// The operands of one [`gemm_into`] call and the ISA its strips run
/// on. Row blocks (`rows`, at most [`MC`] rows, `has_zero` flagging
/// each) and column ranges index the whole `a` and `out`; `strips`
/// ranges are whole multiples of [`NR`] columns.
struct Gemm<'a> {
    isa: simd::Isa,
    k: usize,
    n: usize,
    a: &'a [f64],
    /// Rhs element `(kk, j)` is `b[j * col_step + kk * row_step]`.
    b: &'a [f64],
    col_step: usize,
    row_step: usize,
    panel: Option<&'a [f64]>,
}

impl<'a> Gemm<'a> {
    /// Rhs columns `jt..jt + NR` from row `kc` on: the packed panel
    /// (stride `NR`) or the raw row-major rhs (stride `n`).
    fn strip(&self, jt: usize, kc: usize) -> (&'a [f64], usize) {
        let (k, n) = (self.k, self.n);
        match self.panel {
            Some(p) => (&p[(jt / NR) * k * NR + kc * NR..(jt / NR + 1) * k * NR], NR),
            None => (&self.b[kc * n + jt..], n),
        }
    }

    /// The full strips of the block's rows without a zero coefficient:
    /// every `k` contributes.
    // audit: no_alloc
    fn dense_strips(
        &self,
        rows: Range<usize>,
        has_zero: &[bool; MC],
        strips: Range<usize>,
        out: &mut [f64],
    ) {
        let (k, n) = (self.k, self.n);
        for jt in strips.step_by(NR) {
            let (bs, stride) = self.strip(jt, 0);
            for i in (rows.start..rows.end).filter(|&i| !has_zero[i - rows.start]) {
                let out_strip = &mut out[i * n + jt..i * n + jt + NR];
                strip_dense(self.isa, &self.a[i * k..(i + 1) * k], bs, stride, out_strip);
            }
        }
    }

    /// The full strips of the block's rows holding a zero coefficient.
    /// Per `k` block, each row's surviving indices are compacted once;
    /// every strip of the row then walks only that list, adding onto
    /// the partial sums the previous `k` block left in `out`.
    /// Never inlined: the 16 KiB list buffer would otherwise sit in
    /// `gemm_into`'s frame, and every call, dense ones included, would
    /// pay its stack probes.
    // audit: no_alloc
    #[inline(never)]
    fn compacted_strips(
        &self,
        rows: Range<usize>,
        has_zero: &[bool; MC],
        strips: Range<usize>,
        rhs_row_finite: &mut impl FnMut(usize) -> bool,
        out: &mut [f64],
    ) {
        let (k, n) = (self.k, self.n);
        let sparse = || (rows.start..rows.end).filter(|&i| has_zero[i - rows.start]);
        let mut survivors = Survivors::new();
        for i in sparse() {
            out[i * n + strips.start..i * n + strips.end].fill(0.0);
        }
        for kc in (0..k).step_by(KC) {
            let kc_end = (kc + KC).min(k);
            let finite = finite_bits((kc..kc_end).map(&mut *rhs_row_finite));
            for i in sparse() {
                survivors.compact(i - rows.start, &self.a[i * k + kc..i * k + kc_end], &finite);
            }
            for jt in (strips.start..strips.end).step_by(NR) {
                let (bs, stride) = self.strip(jt, kc);
                for i in sparse() {
                    let a_blk = &self.a[i * k + kc..i * k + kc_end];
                    let list = survivors.list(i - rows.start);
                    let out_strip = &mut out[i * n + jt..i * n + jt + NR];
                    strip_list(self.isa, a_blk, list, bs, stride, out_strip);
                }
            }
        }
    }

    /// The ragged remainder columns of every row in the block, each an
    /// ascending sum over every `k`. Adding the ±0.0 terms the skip
    /// rule drops leaves each sum's bits unchanged (see the module
    /// docs), so the remainder needs no list, and a block with no full
    /// strip (the 128 → 1 head) compacts nothing: on a 2-vCPU AVX-512
    /// Xeon the booster's 8192-row head took 0.9 ms this way against
    /// 2.8 ms with compacted lists.
    // audit: no_alloc
    fn remainder(&self, rows: Range<usize>, cols: Range<usize>, out: &mut [f64]) {
        let (k, n) = (self.k, self.n);
        for i in rows {
            let a_row = &self.a[i * k..(i + 1) * k];
            for j in cols.start..cols.end {
                let col = self.b[j * self.col_step..].iter().step_by(self.row_step);
                out[i * n + j] =
                    a_row.iter().zip(col).fold(0.0, |acc, (&a_ik, &bv)| acc + a_ik * bv);
            }
        }
    }
}

/// `KEEP_LISTS[mask]` holds the set bits of `mask` in ascending order,
/// one per byte (little-endian), the rest zero: the offsets, within its
/// group of 8 coefficients, of the terms a group with keep mask `mask`
/// contributes. `KEEP_COUNTS[mask]` is how many there are; baseline
/// x86-64 has no `popcnt`, so a lookup beats `count_ones`.
static KEEP_LISTS: [u64; 256] = keep_table().0;
static KEEP_COUNTS: [u8; 256] = keep_table().1;

const fn keep_table() -> ([u64; 256], [u8; 256]) {
    let (mut lists, mut counts) = ([0u64; 256], [0u8; 256]);
    let mut mask = 0;
    while mask < 256 {
        let (mut bit, mut kept) = (0, 0);
        while bit < 8 {
            if mask >> bit & 1 == 1 {
                lists[mask] |= (bit as u64) << (8 * kept);
                kept += 1;
            }
            bit += 1;
        }
        counts[mask] = kept as u8;
        mask += 1;
    }
    (lists, counts)
}

/// One `k` block's rhs-row finiteness as [`Survivors::compact`] reads
/// it: bit `t % 8` of byte `t / 8` is set when block row `t` is finite.
/// Rows past the block count as finite, so the zero-padded tail of a
/// ragged group keeps nothing.
fn finite_bits(rows_finite: impl Iterator<Item = bool>) -> [u8; KC / 8] {
    let mut bits = [u8::MAX; KC / 8];
    for (t, finite) in rows_finite.enumerate() {
        bits[t / 8] &= !(u8::from(!finite) << (t % 8));
    }
    bits
}

/// The surviving-`k` lists of one row block's zero-containing rows for
/// one `k` block: row `r`'s list holds, ascending, the block-local `t`
/// whose term `a[t] · b[t]` is kept — all but the zero coefficients
/// whose rhs row is finite.
///
/// The index bytes are left uninitialised, since zeroing `MC * KC`
/// bytes is a fixed cost that one-row multiplies would feel; `lens[r]`
/// counts the prefix of row `r`'s slot that [`Survivors::compact`] has
/// written, and [`Survivors::list`] exposes only that prefix.
struct Survivors {
    idx: [MaybeUninit<u8>; MC * KC],
    lens: [usize; MC],
}

impl Survivors {
    fn new() -> Self {
        Self { idx: [MaybeUninit::uninit(); MC * KC], lens: [0; MC] }
    }

    /// Replaces row `r`'s list with the survivors of `a_blk` (at most
    /// [`KC`] coefficients; bit `t % 8` of `finite[t / 8]` is rhs row
    /// `t`'s finiteness, set for rows past `a_blk`). Branch-free and 8
    /// coefficients at a time: the group's keep mask selects a
    /// [`KEEP_LISTS`] entry, all 8 of its bytes are stored and the
    /// length advances by the number kept, so ReLU's unpredictable
    /// zeros cost no mispredictions.
    // audit: no_alloc
    fn compact(&mut self, r: usize, a_blk: &[f64], finite: &[u8; KC / 8]) {
        debug_assert!(a_blk.len() <= KC);
        let slot = &mut self.idx[r * KC..(r + 1) * KC];
        let mut len = 0;
        let mut append = |g: usize, a8: &[f64; 8]| {
            let mut nonzero = 0u8;
            for (bit, &a_ik) in a8.iter().enumerate() {
                nonzero |= u8::from(a_ik != 0.0) << bit;
            }
            let keep = usize::from(nonzero | !finite[g]);
            // Offsets within the group are below 8 and `8 * g + 8 <= KC
            // = 256`, so adding the group base to every byte never
            // carries, and `len <= 8 * g` keeps the 8-byte store inside
            // the slot.
            let offsets = KEEP_LISTS[keep] + 8 * g as u64 * 0x0101_0101_0101_0101;
            slot[len..len + 8].copy_from_slice(&offsets.to_le_bytes().map(MaybeUninit::new));
            len += usize::from(KEEP_COUNTS[keep]);
        };
        let (groups, tail) = a_blk.as_chunks::<8>();
        for (g, a8) in groups.iter().enumerate() {
            append(g, a8);
        }
        if !tail.is_empty() {
            // The ragged tail is padded with zeros, which its "finite"
            // bits past the block then drop.
            let mut padded = [0.0; 8];
            padded[..tail.len()].copy_from_slice(tail);
            append(groups.len(), &padded);
        }
        self.lens[r] = len;
    }

    /// Row `r`'s list as written by the last [`Survivors::compact`]
    /// (empty before the first).
    fn list(&self, r: usize) -> &[u8] {
        let written = &self.idx[r * KC..r * KC + self.lens[r]];
        // SAFETY: `lens[r]` starts at 0 and is only set by `compact`,
        // after it has stored every index below it in row `r`'s slot,
        // so each element of `written` is initialised; `MaybeUninit<u8>`
        // has the layout of `u8`.
        unsafe { &*(written as *const [MaybeUninit<u8>] as *const [u8]) }
    }
}

/// One register-tiled output strip for a lhs row with **no** zero
/// coefficients: `out_strip[t] = Σ_k a_row[k] · bs[k*stride + t]`,
/// accumulated in ascending `k` with no branches in the loop body.
///
/// Dispatches to the widest SIMD micro-kernel the host supports; every
/// variant performs the identical sequence of per-element IEEE mul/add
/// operations (no fused multiply-add), so all of them — and the
/// portable fallback — produce bit-identical strips.
// audit: no_alloc
#[inline]
fn strip_dense(isa: simd::Isa, a_row: &[f64], bs: &[f64], stride: usize, out: &mut [f64]) {
    debug_assert_eq!(out.len(), NR);
    debug_assert!(a_row.is_empty() || (a_row.len() - 1) * stride + NR <= bs.len());
    #[cfg(target_arch = "x86_64")]
    match isa {
        // SAFETY: `detect` proved the feature; the debug asserts above
        // state the bounds contract the callers uphold.
        simd::Isa::Avx512 => return unsafe { simd::strip_avx512(a_row, bs, stride, out) },
        // SAFETY: same contract as the AVX-512 arm, with AVX proved.
        simd::Isa::Avx => return unsafe { simd::strip_avx(a_row, bs, stride, out) },
        simd::Isa::Portable => {}
    }
    let _ = isa;
    let mut acc = [0.0f64; NR];
    for (kk, &a_ik) in a_row.iter().enumerate() {
        let b_strip = &bs[kk * stride..kk * stride + NR];
        for (slot, &bv) in acc.iter_mut().zip(b_strip) {
            *slot += a_ik * bv;
        }
    }
    out.copy_from_slice(&acc);
}

/// One output strip over a compacted `k` list: adds
/// `a_blk[t] · bs[t*stride + c]` onto `out[c]` for each `t` in `list`,
/// in list order, starting from the partial sums `out` already holds.
///
/// The same per-element unfused mul-then-add sequence as
/// [`strip_dense`], restricted to the listed terms and dispatched the
/// same way, so every ISA path stays bit-identical.
// audit: no_alloc
#[inline]
fn strip_list(
    isa: simd::Isa,
    a_blk: &[f64],
    list: &[u8],
    bs: &[f64],
    stride: usize,
    out: &mut [f64],
) {
    debug_assert_eq!(out.len(), NR);
    debug_assert!(a_blk.is_empty() || (a_blk.len() - 1) * stride + NR <= bs.len());
    #[cfg(target_arch = "x86_64")]
    match isa {
        simd::Isa::Avx512 => {
            // SAFETY: `detect` proved the feature; the debug asserts
            // above state the bounds contract the callers uphold.
            return unsafe { simd::strip_list_avx512(a_blk, list, bs, stride, out) };
        }
        // SAFETY: same contract as the AVX-512 arm, with AVX proved.
        simd::Isa::Avx => return unsafe { simd::strip_list_avx(a_blk, list, bs, stride, out) },
        simd::Isa::Portable => {}
    }
    let _ = isa;
    let mut acc = [0.0f64; NR];
    acc.copy_from_slice(out);
    for &t in list {
        let t = usize::from(t);
        let a_ik = a_blk[t];
        for (slot, &bv) in acc.iter_mut().zip(&bs[t * stride..t * stride + NR]) {
            *slot += a_ik * bv;
        }
    }
    out.copy_from_slice(&acc);
}

/// Explicit-SIMD strip micro-kernels for the dense and compacted paths.
///
/// LLVM's SLP pass does not vectorise the 32 cross-iteration reduction
/// chains of the portable strips (they compile to unrolled scalar
/// `mulsd`/`addsd`), so the hot strips are written with `std::arch`
/// intrinsics. Only unfused `mul` + `add` are used — **never** FMA,
/// which rounds once instead of twice and would break the kernel's
/// bit-identity guarantee.
mod simd {
    /// Widest instruction set available on the running host.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Isa {
        /// AVX-512F: four 8-lane accumulators per strip.
        Avx512,
        /// AVX: eight 4-lane accumulators per strip.
        Avx,
        /// No SIMD dispatch; the safe fallback loop runs.
        Portable,
    }

    #[cfg(target_arch = "x86_64")]
    pub fn detect() -> Isa {
        use std::sync::OnceLock;
        static CHOICE: OnceLock<Isa> = OnceLock::new();
        *CHOICE.get_or_init(|| {
            // `UADB_GEMM_ISA` pins a path (bench A/B runs and machines
            // where a wider ISA downclocks); otherwise pick the widest
            // the host supports.
            let auto = if std::arch::is_x86_feature_detected!("avx512f") {
                Isa::Avx512
            } else if std::arch::is_x86_feature_detected!("avx") {
                Isa::Avx
            } else {
                Isa::Portable
            };
            match std::env::var("UADB_GEMM_ISA").as_deref() {
                Ok("avx512") if std::arch::is_x86_feature_detected!("avx512f") => Isa::Avx512,
                Ok("avx") if std::arch::is_x86_feature_detected!("avx") => Isa::Avx,
                Ok("portable") => Isa::Portable,
                Ok(other) => {
                    // A typo or an unsupported pin must not silently
                    // masquerade as the requested path — A/B numbers
                    // would be attributed to the wrong kernel.
                    eprintln!(
                        "uadb_linalg: UADB_GEMM_ISA={other:?} is unknown or unsupported \
                         on this host; using auto-detected {auto:?}"
                    );
                    auto
                }
                Err(_) => auto,
            }
        })
    }

    #[cfg(not(target_arch = "x86_64"))]
    pub fn detect() -> Isa {
        Isa::Portable
    }

    /// # Safety
    /// AVX must be available, and `bs` must cover every strip row:
    /// `(a_row.len() - 1) * stride + 32 <= bs.len()` (upheld by the
    /// slicing in `Gemm::strip` for both the packed and direct layouts).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx")]
    pub unsafe fn strip_avx(a_row: &[f64], bs: &[f64], stride: usize, out: &mut [f64]) {
        use std::arch::x86_64::*;
        debug_assert!(a_row.is_empty() || (a_row.len() - 1) * stride + super::NR <= bs.len());
        debug_assert_eq!(out.len(), super::NR);
        // SAFETY: the fn's contract (asserted above in debug) makes
        // every `bp` load and `op` store in-bounds; unaligned intrinsics
        // are used throughout, so no alignment requirement exists.
        unsafe {
            let mut acc = [_mm256_setzero_pd(); super::NR / 4];
            let mut bp = bs.as_ptr();
            for &a_ik in a_row {
                let av = _mm256_set1_pd(a_ik);
                for (lane, acc) in acc.iter_mut().enumerate() {
                    let bv = _mm256_loadu_pd(bp.add(4 * lane));
                    *acc = _mm256_add_pd(*acc, _mm256_mul_pd(av, bv));
                }
                bp = bp.add(stride);
            }
            let op = out.as_mut_ptr();
            for (lane, acc) in acc.into_iter().enumerate() {
                _mm256_storeu_pd(op.add(4 * lane), acc);
            }
        }
    }

    /// # Safety
    /// As [`strip_avx`], with AVX-512F available.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn strip_avx512(a_row: &[f64], bs: &[f64], stride: usize, out: &mut [f64]) {
        use std::arch::x86_64::*;
        debug_assert!(a_row.is_empty() || (a_row.len() - 1) * stride + super::NR <= bs.len());
        debug_assert_eq!(out.len(), super::NR);
        // SAFETY: as in `strip_avx` — contract-bounded unaligned
        // loads/stores only.
        unsafe {
            let mut acc = [_mm512_setzero_pd(); super::NR / 8];
            let mut bp = bs.as_ptr();
            for &a_ik in a_row {
                let av = _mm512_set1_pd(a_ik);
                for (lane, acc) in acc.iter_mut().enumerate() {
                    let bv = _mm512_loadu_pd(bp.add(8 * lane));
                    *acc = _mm512_add_pd(*acc, _mm512_mul_pd(av, bv));
                }
                bp = bp.add(stride);
            }
            let op = out.as_mut_ptr();
            for (lane, acc) in acc.into_iter().enumerate() {
                _mm512_storeu_pd(op.add(8 * lane), acc);
            }
        }
    }

    /// # Safety
    /// AVX must be available, `out` must hold 32 elements, and `bs` must
    /// cover every row `a_blk` can index: `(a_blk.len() - 1) * stride +
    /// 32 <= bs.len()`. List entries index `a_blk` with a bounds check,
    /// so any list is sound.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx")]
    pub unsafe fn strip_list_avx(
        a_blk: &[f64],
        list: &[u8],
        bs: &[f64],
        stride: usize,
        out: &mut [f64],
    ) {
        use std::arch::x86_64::*;
        debug_assert!(a_blk.is_empty() || (a_blk.len() - 1) * stride + super::NR <= bs.len());
        debug_assert_eq!(out.len(), super::NR);
        // SAFETY: `a_blk[t]` is checked, so `t < a_blk.len()` and the
        // fn's contract puts all 32 `bp` lanes inside `bs`; `op` covers
        // `out`'s 32 elements. Unaligned intrinsics only.
        unsafe {
            let op = out.as_mut_ptr();
            let mut acc = [_mm256_setzero_pd(); super::NR / 4];
            for (lane, acc) in acc.iter_mut().enumerate() {
                *acc = _mm256_loadu_pd(op.add(4 * lane));
            }
            for &t in list {
                let t = usize::from(t);
                let av = _mm256_set1_pd(a_blk[t]);
                let bp = bs.as_ptr().add(t * stride);
                for (lane, acc) in acc.iter_mut().enumerate() {
                    let bv = _mm256_loadu_pd(bp.add(4 * lane));
                    *acc = _mm256_add_pd(*acc, _mm256_mul_pd(av, bv));
                }
            }
            for (lane, acc) in acc.into_iter().enumerate() {
                _mm256_storeu_pd(op.add(4 * lane), acc);
            }
        }
    }

    /// # Safety
    /// As [`strip_list_avx`], with AVX-512F available.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn strip_list_avx512(
        a_blk: &[f64],
        list: &[u8],
        bs: &[f64],
        stride: usize,
        out: &mut [f64],
    ) {
        use std::arch::x86_64::*;
        debug_assert!(a_blk.is_empty() || (a_blk.len() - 1) * stride + super::NR <= bs.len());
        debug_assert_eq!(out.len(), super::NR);
        // SAFETY: as in `strip_list_avx` — checked `t`, then
        // contract-bounded unaligned loads/stores only.
        unsafe {
            let op = out.as_mut_ptr();
            let mut acc = [_mm512_setzero_pd(); super::NR / 8];
            for (lane, acc) in acc.iter_mut().enumerate() {
                *acc = _mm512_loadu_pd(op.add(8 * lane));
            }
            for &t in list {
                let t = usize::from(t);
                let av = _mm512_set1_pd(a_blk[t]);
                let bp = bs.as_ptr().add(t * stride);
                for (lane, acc) in acc.iter_mut().enumerate() {
                    let bv = _mm512_loadu_pd(bp.add(8 * lane));
                    *acc = _mm512_add_pd(*acc, _mm512_mul_pd(av, bv));
                }
            }
            for (lane, acc) in acc.into_iter().enumerate() {
                _mm512_storeu_pd(op.add(8 * lane), acc);
            }
        }
    }
}

impl Matrix {
    /// Matrix product `self · rhs` written into a caller-provided
    /// buffer — the allocation-free core of [`Matrix::matmul`].
    ///
    /// `out` must hold exactly `self.rows() * rhs.cols()` elements and
    /// is fully overwritten. `scratch` caches the rhs-row finiteness
    /// mask and (for batches of at least 8 rows) the packed rhs panel
    /// across calls; it must not be reused across *different* rhs
    /// contents (see [`GemmScratch`]).
    ///
    /// Results are bit-identical to the naive i/k/j kernel, including
    /// NaN/inf propagation through zero coefficients.
    pub fn matmul_into(
        &self,
        rhs: &Matrix,
        scratch: &mut GemmScratch,
        out: &mut [f64],
    ) -> Result<()> {
        if self.cols() != rhs.rows() {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        if out.len() != self.rows() * rhs.cols() {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul_into",
                lhs: (self.rows(), rhs.cols()),
                rhs: (out.len(), 1),
            });
        }
        // Packing pays once the panel is re-streamed by enough rows (or
        // was already built on a previous call with this scratch).
        let use_pack = (self.rows() >= PACK_MIN_ROWS || scratch.packed) && rhs.cols() >= NR;
        if use_pack {
            scratch.ensure_pack(rhs);
        }
        // Split borrows: the mask closure must not alias the pack.
        let GemmScratch { finite, pack, .. } = scratch;
        let b = rhs.as_slice();
        let rhs_view =
            if use_pack { Rhs::Packed { b, panel: pack.as_slice() } } else { Rhs::RowMajor(b) };
        gemm_into(
            self.rows(),
            self.cols(),
            rhs.cols(),
            self.as_slice(),
            rhs_view,
            |r| finite.get_or_insert_with(|| row_finiteness(rhs))[r],
            out,
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f64]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec()).unwrap()
    }

    #[test]
    fn blocked_matches_naive_across_strip_boundaries() {
        // Widths straddling the NR=32 strip edge and the NC=256
        // column-block edge (so the jc loop runs more than once, and
        // packed-strip offsets are exercised in a second block), and
        // heights straddling the MC block and PACK_MIN_ROWS edges.
        for (rows, k, cols) in [
            (1, 3, 1),
            (5, 7, 31),
            (3, 4, 32),
            (2, 9, 33),
            (8, 4, 32),
            (70, 5, 65),
            (3, 4, 300),
            (9, 6, 513),
        ] {
            let a_data: Vec<f64> =
                (0..rows * k).map(|i| ((i * 37 + 11) % 19) as f64 - 9.0).collect();
            let b_data: Vec<f64> =
                (0..k * cols).map(|i| ((i * 53 + 7) % 23) as f64 - 11.0).collect();
            let a = m(rows, k, &a_data);
            let b = m(k, cols, &b_data);
            let want = naive_matmul(&a, &b);
            let mut out = vec![f64::NAN; rows * cols];
            a.matmul_into(&b, &mut GemmScratch::new(), &mut out).unwrap();
            for (got, want) in out.iter().zip(want.as_slice()) {
                assert_eq!(got.to_bits(), want.to_bits());
            }
            // The eagerly packed + masked scratch must agree bit for bit.
            let mut out2 = vec![f64::NAN; rows * cols];
            a.matmul_into(&b, &mut GemmScratch::precomputed(&b), &mut out2).unwrap();
            for (got, want) in out2.iter().zip(want.as_slice()) {
                assert_eq!(got.to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn scratch_reuse_and_precompute_agree() {
        let a = m(2, 3, &[0.0, 1.0, -2.0, 3.0, 0.0, 0.5]);
        let b = m(3, 2, &[1.0, f64::NAN, 2.0, 3.0, 4.0, 5.0]);
        let mut lazy = GemmScratch::new();
        let mut out1 = vec![0.0; 4];
        a.matmul_into(&b, &mut lazy, &mut out1).unwrap();
        let mut out2 = vec![0.0; 4];
        a.matmul_into(&b, &mut GemmScratch::precomputed(&b), &mut out2).unwrap();
        let mut out3 = vec![0.0; 4];
        a.matmul_into(&b, &mut lazy, &mut out3).unwrap(); // cached mask
        for ((x, y), z) in out1.iter().zip(&out2).zip(&out3) {
            assert_eq!(x.to_bits(), y.to_bits());
            assert_eq!(x.to_bits(), z.to_bits());
        }
        // The NaN in b's first row must poison products with the zero
        // coefficient in a's first row.
        assert!(out1[1].is_nan());
    }

    #[test]
    fn cleared_scratch_recomputes_after_rhs_change() {
        let a = m(1, 2, &[0.0, 1.0]);
        let mut b = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let mut scratch = GemmScratch::precomputed(&b);
        let mut out = vec![0.0; 2];
        a.matmul_into(&b, &mut scratch, &mut out).unwrap();
        assert_eq!(out, vec![3.0, 4.0]);
        // Poison the row the zero coefficient previously skipped.
        b.set(0, 0, f64::NAN);
        scratch.clear();
        a.matmul_into(&b, &mut scratch, &mut out).unwrap();
        assert!(out[0].is_nan(), "cleared scratch must re-scan the poisoned rhs");
    }

    /// Counters are process-global, so the test asserts deltas (other
    /// tests in the binary may bump them concurrently, but only this
    /// one runs these exact calls between its two snapshots' deltas
    /// being *at least* what it contributed).
    #[cfg(feature = "kernel-stats")]
    #[test]
    fn kernel_stats_track_pack_lifecycle() {
        let rows = PACK_MIN_ROWS.max(8);
        let a = Matrix::zeros(rows, 4);
        let b = Matrix::zeros(4, NR);
        let mut out = vec![0.0; rows * NR];

        let before = stats::snapshot();
        let mut scratch = GemmScratch::new();
        a.matmul_into(&b, &mut scratch, &mut out).unwrap(); // builds the panel
        a.matmul_into(&b, &mut scratch, &mut out).unwrap(); // reuses it
        let after = stats::snapshot();

        assert!(after.packs_built > before.packs_built);
        assert!(after.packs_reused > before.packs_reused);
        let calls = |s: stats::KernelStats| s.calls_avx512 + s.calls_avx + s.calls_portable;
        assert!(calls(after) >= calls(before) + 2, "each gemm call records its ISA path");
    }

    #[test]
    fn dispatched_isa_is_a_pin_label() {
        assert!(["avx512", "avx", "portable"].contains(&dispatched_isa()));
    }

    #[test]
    fn packed_panel_streams_full_strips() {
        // 2 full strips + 3 remainder cols.
        let k = 3;
        let n = 2 * NR + 3;
        let b: Vec<f64> = (0..k * n).map(|i| i as f64).collect();
        let mut pack = AlignedBuf::default();
        pack.resize(5 * n).fill(999.0); // overwritten and shrunk
        pack_rhs(k, n, &b, &mut pack);
        let pack = pack.as_slice();
        assert_eq!(pack.len(), k * 2 * NR);
        // Strip 0, k row 1 starts at b[n + 0].
        assert_eq!(pack[NR], b[n]);
        // Strip 1, k row 0 starts at b[NR].
        assert_eq!(pack[k * NR..k * NR + NR], b[NR..2 * NR]);
    }

    #[test]
    fn aligned_buf_starts_on_a_cache_line() {
        let mut buf = AlignedBuf::default();
        for len in [1, 7, 64, 1000, 3, 4096] {
            let data = buf.resize(len);
            assert_eq!(data.len(), len);
            // Miri may decline to align; the contents stay correct.
            if !cfg!(miri) {
                assert_eq!(data.as_ptr().align_offset(64), 0, "len {len}");
            }
            data.iter_mut().enumerate().for_each(|(i, v)| *v = i as f64);
            assert!(buf.as_slice().iter().enumerate().all(|(i, &v)| v == i as f64));
            assert_eq!(buf.clone().as_slice(), buf.as_slice());
        }
    }

    /// `pack_transposed` of `W` is `pack_rhs` of `Wᵀ`, its finiteness is
    /// `row_finiteness(Wᵀ)`, and the transposed view multiplies exactly
    /// as the materialised `Wᵀ` does, ragged columns and zero
    /// coefficients against a non-finite row included.
    #[test]
    fn transposed_view_matches_materialised_transpose() {
        // Miri interprets every flop, so it skips the block-crossing shape.
        let shapes = [(3usize, 2 * NR + 5, 7usize), (40, NR, 3), (5, 9, 4), (66, 70, 130)];
        for (rows, n, k) in shapes.into_iter().take(if cfg!(miri) { 3 } else { 4 }) {
            let mut w: Vec<f64> = (0..n * k).map(|i| ((i * 29 + 3) % 17) as f64 - 8.0).collect();
            w[2 * k + 1] = f64::NAN; // column 1 of `w`: row 1 of `Wᵀ`
            let w_m = m(n, k, &w);
            let wt = w_m.transpose();
            let mut want_panel = AlignedBuf::default();
            pack_rhs(k, n, wt.as_slice(), &mut want_panel);
            let mut panel = vec![f64::NAN; packed_len(k, n)];
            let mut finite = vec![false; k];
            pack_transposed(n, k, &w, &mut panel, &mut finite);
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&panel), bits(want_panel.as_slice()));
            assert_eq!(finite, row_finiteness(&wt));

            // Half-zero lhs rows, so the skip rule meets the NaN row.
            let a_data: Vec<f64> = (0..rows * k)
                .map(|i| if i % 2 == 0 { 0.0 } else { (i % 7) as f64 - 3.0 })
                .collect();
            let a = m(rows, k, &a_data);
            let want = naive_matmul(&a, &wt);
            let mut out = vec![f64::NAN; rows * n];
            let view = Rhs::Transposed { w: &w, panel: &panel };
            gemm_into(rows, k, n, &a_data, view, |r| finite[r], &mut out);
            for (got, want) in out.iter().zip(want.as_slice()) {
                assert!(got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()));
            }
        }
    }

    /// The scalar keep rule the table-driven compaction must reproduce.
    fn scalar_survivors(a_blk: &[f64], finite: &[bool]) -> Vec<u8> {
        (0..a_blk.len()).filter(|&t| !(a_blk[t] == 0.0 && finite[t])).map(|t| t as u8).collect()
    }

    #[test]
    fn table_compaction_matches_the_scalar_rule() {
        let mut survivors = Survivors::new();
        // Every keep mask in every group position of a full block.
        for mask in 0..256usize {
            let a_blk: Vec<f64> = (0..KC)
                .map(|t| if (mask >> (t % 8)) & 1 == 1 { 1.0 + t as f64 } else { 0.0 })
                .collect();
            let finite = [true; KC];
            survivors.compact(3, &a_blk, &finite_bits(finite.into_iter()));
            assert_eq!(survivors.list(3), scalar_survivors(&a_blk, &finite), "mask {mask:#010b}");
        }
        // Lengths that are not multiples of 8, mixed signs of zero, and
        // zero coefficients kept because their rhs row is non-finite.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for len in (0..=KC).filter(|len| len % 8 != 0 || *len == KC) {
            let a_blk: Vec<f64> = (0..len)
                .map(|_| match next() % 4 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => (next() % 100) as f64 - 50.5,
                })
                .collect();
            let finite: Vec<bool> = (0..len).map(|_| next() % 5 != 0).collect();
            let r = len % MC;
            survivors.compact(r, &a_blk, &finite_bits(finite.iter().copied()));
            assert_eq!(survivors.list(r), scalar_survivors(&a_blk, &finite), "len {len}");
        }
    }

    #[test]
    fn shape_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let mut out = vec![0.0; 4];
        assert!(a.matmul_into(&b, &mut GemmScratch::new(), &mut out).is_err());
        let b = Matrix::zeros(3, 2);
        let mut short = vec![0.0; 3];
        assert!(matches!(
            a.matmul_into(&b, &mut GemmScratch::new(), &mut short),
            Err(LinalgError::ShapeMismatch { op: "matmul_into", .. })
        ));
    }

    #[test]
    fn zero_k_zeroes_the_output() {
        // Widths past the strip boundary and heights on both sides of
        // the pack threshold: the empty rhs must never be strip-sliced.
        for (m_rows, n_cols) in [(3usize, 4usize), (3, 33), (9, 40)] {
            let a = Matrix::zeros(m_rows, 0);
            let b = Matrix::zeros(0, n_cols);
            let mut out = vec![f64::NAN; m_rows * n_cols];
            a.matmul_into(&b, &mut GemmScratch::new(), &mut out).unwrap();
            assert!(out.iter().all(|&v| v == 0.0), "{m_rows}x0x{n_cols}");
            let via_alloc = a.matmul(&b).unwrap();
            assert_eq!(via_alloc.shape(), (m_rows, n_cols));
            assert!(via_alloc.as_slice().iter().all(|&v| v == 0.0));
        }
    }
}
