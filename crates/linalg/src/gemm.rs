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
//!   straight from `W` by [`pack_transposed`]. The training backward
//!   pass multiplies by `Wᵀ` this way without materialising it.
//!
//! Packed panels live in an [`AlignedBuf`], which starts them on a
//! 64-byte boundary: a strip row is 256 bytes, so every 8-lane load of
//! a packed strip then sits in one cache line instead of straddling
//! two.
//!
//! IEEE-754 semantics are preserved by one flag per call. A zero
//! left-hand coefficient may skip its term only when the matching rhs
//! row is finite (`0.0 * NaN` and `0.0 * inf` are NaN), and the caller
//! says whether *every* rhs element is finite: when it is, zero
//! coefficients skip; when it is not, every term is added. A weight
//! matrix's flag is computed once per weight change with
//! [`all_finite`].
//!
//! Skipping is a speed choice only. A skipped term is `0.0 · b` with
//! `b` finite, so it is `±0.0`; every sum starts at `+0.0`, IEEE
//! addition returns `-0.0` only for two `-0.0` operands, so no partial
//! sum is ever `-0.0`, and adding `±0.0` to it changes no bit. Any
//! subset of the skippable terms may therefore be added or dropped, as
//! long as the rest are added in ascending `k`. The naive kernel skips
//! a zero coefficient whose rhs row is finite. Under either flag value
//! this kernel adds every term the naive one adds, plus only skippable
//! ones, so both values give the naive kernel's bits.
//!
//! Two row kinds feed the strips. A row with no zero coefficient, or
//! any row against a rhs that is not all finite, runs every `k` through
//! the dense strip. A row with zeros against an all-finite rhs — ReLU
//! activations are about half zeros — first has its nonzero `k` indices
//! compacted once per row block, and every strip of that row then walks
//! only that list. Compaction is table-driven and branch-free: each
//! group of 8 coefficients becomes an 8-bit nonzero mask, one 256-entry
//! table lookup writes that group's kept offsets, and the list length
//! advances by the number kept. The ragged remainder columns add every
//! term for every row.

use std::mem::MaybeUninit;
use std::ops::Range;

use crate::matrix::Matrix;

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
/// Minimum batch height for which [`Matrix::matmul`] packs the rhs;
/// below this the O(k·n) packing pass costs more than the strided
/// loads it saves.
pub(crate) const PACK_MIN_ROWS: usize = 8;

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

/// Kernel counters: how many `gemm_into` calls took each ISA path.
///
/// Each call bumps one counter once, never inside the strip loops, so
/// the strips are byte-for-byte the ones an uncounted kernel would run.
pub mod stats {
    use std::sync::atomic::{AtomicU64, Ordering};

    static CALLS_AVX512: AtomicU64 = AtomicU64::new(0);
    static CALLS_AVX: AtomicU64 = AtomicU64::new(0);
    static CALLS_PORTABLE: AtomicU64 = AtomicU64::new(0);

    /// Point-in-time copy of the kernel counters.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct KernelStats {
        pub calls_avx512: u64,
        pub calls_avx: u64,
        pub calls_portable: u64,
    }

    #[inline(always)]
    pub(super) fn isa_call(isa: super::simd::Isa) {
        match isa {
            super::simd::Isa::Avx512 => CALLS_AVX512.fetch_add(1, Ordering::Relaxed),
            super::simd::Isa::Avx => CALLS_AVX.fetch_add(1, Ordering::Relaxed),
            super::simd::Isa::Portable => CALLS_PORTABLE.fetch_add(1, Ordering::Relaxed),
        };
    }

    pub fn snapshot() -> KernelStats {
        KernelStats {
            calls_avx512: CALLS_AVX512.load(Ordering::Relaxed),
            calls_avx: CALLS_AVX.load(Ordering::Relaxed),
            calls_portable: CALLS_PORTABLE.load(Ordering::Relaxed),
        }
    }
}

/// Per-row finiteness of a matrix: `mask[r]` is true iff every element
/// of row `r` is finite (neither NaN nor ±inf).
pub fn row_finiteness(m: &Matrix) -> Vec<bool> {
    m.row_iter().map(all_finite).collect()
}

/// Whether every element of `v` is finite: the `rhs_finite` flag
/// [`gemm_into`] takes. The fold does not stop early, so it vectorises;
/// operands are finite in practice, so an early exit would save nothing.
// audit: no_alloc
pub fn all_finite(v: &[f64]) -> bool {
    v.iter().fold(true, |ok, x| ok & x.is_finite())
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
/// kernel reads from `w` itself.
///
/// # Panics
/// If `w` is not `n * k` long or `panel` not [`packed_len`]`(k, n)`.
// audit: no_alloc
pub fn pack_transposed(n: usize, k: usize, w: &[f64], panel: &mut [f64]) {
    assert_eq!(w.len(), n * k, "w buffer length must be n*k");
    assert_eq!(panel.len(), packed_len(k, n), "panel length must be packed_len(k, n)");
    let full = n - n % NR;
    // Strip by strip, each panel row gathers one column of the strip's
    // `NR` rows of `w`; those rows stay in L1 across the strip.
    for s in 0..full / NR {
        let rows = &w[s * NR * k..(s + 1) * NR * k];
        let strip = &mut panel[s * k * NR..(s + 1) * k * NR];
        for (kk, dst) in strip.chunks_exact_mut(NR).enumerate() {
            for (slot, row) in dst.iter_mut().zip(rows.chunks_exact(k)) {
                *slot = row[kk];
            }
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
/// `rhs_finite` may be true only when every element of `b` is finite
/// ([`all_finite`]); zero left-hand coefficients then skip their terms.
/// `false` is always correct: every term is added, which gives the same
/// bits (see the module docs).
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
    rhs_finite: bool,
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
    debug_assert!(!rhs_finite || all_finite(b_data), "rhs_finite set for a non-finite rhs");
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
                // Against an all-finite rhs, one prescan per block sorts
                // rows into dense ones (every `k` contributes) and
                // zero-containing ones; otherwise every row is dense.
                let mut has_zero = [false; MC];
                if rhs_finite {
                    for (slot, i) in has_zero.iter_mut().zip(ic..ic_end) {
                        *slot = a[i * k..(i + 1) * k].contains(&0.0);
                    }
                }
                g.dense_strips(ic..ic_end, &has_zero, jc..strips_end, out);
                if has_zero.contains(&true) {
                    g.compacted_strips(ic..ic_end, &has_zero, jc..strips_end, out);
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

    /// The full strips of the block's rows holding a zero coefficient,
    /// against an all-finite rhs. Per `k` block, each row's nonzero
    /// indices are compacted once; every strip of the row then walks
    /// only that list, adding onto the partial sums the previous `k`
    /// block left in `out`.
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
            for i in sparse() {
                survivors.compact(i - rows.start, &self.a[i * k + kc..i * k + kc_end]);
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

/// The surviving-`k` lists of one row block's zero-containing rows for
/// one `k` block: row `r`'s list holds, ascending, the block-local `t`
/// whose coefficient `a[t]` is nonzero.
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

    /// Replaces row `r`'s list with the nonzero coefficients of `a_blk`
    /// (at most [`KC`] of them). Branch-free and 8 coefficients at a
    /// time: the group's nonzero mask selects a [`KEEP_LISTS`] entry,
    /// all 8 of its bytes are stored and the length advances by the
    /// number kept, so ReLU's unpredictable zeros cost no
    /// mispredictions.
    // audit: no_alloc
    fn compact(&mut self, r: usize, a_blk: &[f64]) {
        debug_assert!(a_blk.len() <= KC);
        let slot = &mut self.idx[r * KC..(r + 1) * KC];
        let mut len = 0;
        let mut append = |g: usize, a8: &[f64; 8]| {
            let mut nonzero = 0u8;
            for (bit, &a_ik) in a8.iter().enumerate() {
                nonzero |= u8::from(a_ik != 0.0) << bit;
            }
            let keep = usize::from(nonzero);
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
            // The ragged tail is padded with zeros, which drop
            // themselves.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f64]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec()).unwrap()
    }

    fn assert_bits(got: &[f64], want: &[f64]) {
        for (g, w) in got.iter().zip(want) {
            assert!(g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()), "{g} vs {w}");
        }
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
            assert_bits(a.matmul(&b).unwrap().as_slice(), want.as_slice());
            // Both views at every height, with and without the skip.
            let mut pack = AlignedBuf::default();
            pack_rhs(k, cols, &b_data, &mut pack);
            let views =
                [Rhs::RowMajor(&b_data), Rhs::Packed { b: &b_data, panel: pack.as_slice() }];
            for (view, rhs_finite) in views.into_iter().flat_map(|v| [(v, true), (v, false)]) {
                let mut out = vec![f64::NAN; rows * cols];
                gemm_into(rows, k, cols, &a_data, view, rhs_finite, &mut out);
                assert_bits(&out, want.as_slice());
            }
        }
    }

    #[test]
    fn matmul_keeps_nan_through_zero_coefficients() {
        // A NaN in b's first row must poison the products of a's zero
        // coefficient on the full strips, packed (9 rows) or not (2),
        // and in the remainder column; clean columns stay exact.
        for rows in [2, 9] {
            let mut a = Matrix::filled(rows, 3, 1.5);
            a.set(0, 0, 0.0);
            let mut b = Matrix::filled(3, NR + 1, 2.0);
            b.set(0, 1, f64::NAN);
            b.set(0, NR, f64::NAN);
            let c = a.matmul(&b).unwrap();
            assert!(c.get(0, 1).is_nan() && c.get(0, NR).is_nan(), "{rows} rows");
            assert_eq!(c.get(0, 0), 6.0);
            assert_bits(c.as_slice(), naive_matmul(&a, &b).as_slice());
        }
    }

    /// Counters are process-global and other tests bump them
    /// concurrently, so the test asserts lower bounds on its deltas.
    #[test]
    fn kernel_stats_count_each_call_by_isa() {
        let a = Matrix::zeros(PACK_MIN_ROWS, 4);
        let b = Matrix::zeros(4, NR);
        let dispatched = |s: stats::KernelStats| match dispatched_isa() {
            "avx512" => s.calls_avx512,
            "avx" => s.calls_avx,
            _ => s.calls_portable,
        };
        let before = stats::snapshot();
        a.matmul(&b).unwrap();
        a.matmul(&b).unwrap();
        let after = stats::snapshot();
        assert!(dispatched(after) >= dispatched(before) + 2, "each gemm call records its ISA path");
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

    /// `pack_transposed` of `W` is `pack_rhs` of `Wᵀ`, and the
    /// transposed view multiplies exactly as the materialised `Wᵀ`
    /// does, ragged columns included, on the compacted strips of an
    /// all-finite `W` and on the dense strips of one holding a NaN.
    #[test]
    fn transposed_view_matches_materialised_transpose() {
        // Miri interprets every flop, so it skips the block-crossing shape.
        let shapes = [(3usize, 2 * NR + 5, 7usize), (40, NR, 3), (5, 9, 4), (66, 70, 130)];
        for (rows, n, k) in shapes.into_iter().take(if cfg!(miri) { 3 } else { 4 }) {
            for poisoned in [false, true] {
                let mut w: Vec<f64> =
                    (0..n * k).map(|i| ((i * 29 + 3) % 17) as f64 - 8.0).collect();
                if poisoned {
                    w[2 * k + 1] = f64::NAN; // column 1 of `w`: row 1 of `Wᵀ`
                }
                let wt = m(n, k, &w).transpose();
                let mut want_panel = AlignedBuf::default();
                pack_rhs(k, n, wt.as_slice(), &mut want_panel);
                let mut panel = vec![f64::NAN; packed_len(k, n)];
                pack_transposed(n, k, &w, &mut panel);
                let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&panel), bits(want_panel.as_slice()));

                // Half-zero lhs rows, so the skip rule meets the NaN row.
                let a_data: Vec<f64> = (0..rows * k)
                    .map(|i| if i % 2 == 0 { 0.0 } else { (i % 7) as f64 - 3.0 })
                    .collect();
                let want = naive_matmul(&m(rows, k, &a_data), &wt);
                let mut out = vec![f64::NAN; rows * n];
                let view = Rhs::Transposed { w: &w, panel: &panel };
                gemm_into(rows, k, n, &a_data, view, all_finite(&w), &mut out);
                assert_bits(&out, want.as_slice());
            }
        }
    }

    #[test]
    fn table_compaction_matches_the_scalar_rule() {
        // The scalar rule: keep the nonzero coefficients.
        let scalar = |a_blk: &[f64]| -> Vec<u8> {
            (0..a_blk.len()).filter(|&t| a_blk[t] != 0.0).map(|t| t as u8).collect()
        };
        let mut survivors = Survivors::new();
        // Every keep mask in every group position of a full block.
        for mask in 0..256usize {
            let a_blk: Vec<f64> = (0..KC)
                .map(|t| if (mask >> (t % 8)) & 1 == 1 { 1.0 + t as f64 } else { 0.0 })
                .collect();
            survivors.compact(3, &a_blk);
            assert_eq!(survivors.list(3), scalar(&a_blk), "mask {mask:#010b}");
        }
        // Lengths that are not multiples of 8 and mixed signs of zero.
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
            let r = len % MC;
            survivors.compact(r, &a_blk);
            assert_eq!(survivors.list(r), scalar(&a_blk), "len {len}");
        }
    }

    #[test]
    fn zero_k_zeroes_the_output() {
        // Widths past the strip boundary and heights on both sides of
        // the pack threshold: the empty rhs must never be strip-sliced.
        for (m_rows, n_cols) in [(3usize, 4usize), (3, 33), (9, 40)] {
            let views = [Rhs::RowMajor(&[]), Rhs::Packed { b: &[], panel: &[] }];
            for view in views {
                let mut out = vec![f64::NAN; m_rows * n_cols];
                gemm_into(m_rows, 0, n_cols, &[], view, true, &mut out);
                assert!(out.iter().all(|&v| v == 0.0), "{m_rows}x0x{n_cols}");
            }
            let via_alloc = Matrix::zeros(m_rows, 0).matmul(&Matrix::zeros(0, n_cols)).unwrap();
            assert_eq!(via_alloc.shape(), (m_rows, n_cols));
            assert!(via_alloc.as_slice().iter().all(|&v| v == 0.0));
        }
    }
}
