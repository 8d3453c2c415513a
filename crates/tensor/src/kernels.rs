//! Dense product kernels under the autograd tape — the AL round's hot path.
//!
//! Three products carry a transformer forward/backward and all three live
//! here, each as a scalar loop (the pre-dispatch code, verbatim — fallback
//! and parity oracle), an explicit AVX2 body and an AVX-512 body, picked
//! at runtime from [`dial_simd::simd_level`]:
//!
//! * [`matmul`] — `out = a · b` (forward),
//! * [`t_matmul`] — `out = aᵀ · b` (`dB = Aᵀ·g`),
//! * [`matmul_t`] — `out = a · bᵀ` (`dA = g·Bᵀ`, attention scores),
//!
//! plus [`cross_sq_dists_into`], the all-pairs squared distances shared by
//! `Graph::cross_sq_dists` and the matcher's coverage features.
//!
//! What is left of a forward after the products is transcendental: GELU's
//! `tanh` and softmax's `exp`. Those live in the `transcendental`
//! submodule, re-exported here — [`exp`] and [`tanh`] as in-repo
//! definitions (the scalar body *is* the function; libm is not called),
//! and the slice kernels [`gelu`], [`softmax_rows`], [`logsumexp`],
//! [`tanh_slice`], [`sigmoid_slice`], [`exp_slice`] under the same
//! dispatch and the same bitwise contract. Definitions, error bounds and
//! the reduction lane order are in that file's module docs.
//!
//! The row-wise ops between those — bias add, residual add, LayerNorm,
//! mean-pool — are the `rows` submodule, also re-exported: one definition
//! each, called by `Graph`'s ops and by `dial-tplm`'s graph-free forward.
//!
//! The backward arithmetic of those ops — the MatMul pair, bias and
//! LayerNorm gradients, the softmax / GELU / `tanh` / `|x|` / mean-pool
//! gradients, the dropout mask and the BCE term — is the `backward`
//! submodule, re-exported the same way: `Graph::backward` and the
//! matcher's tapeless backward call the same functions.
//!
//! # Determinism contract
//!
//! The AVX2 and AVX-512 bodies are **bitwise equal** to the scalar loops,
//! not merely close, so the active-learning trajectory (labels,
//! candidates, recall/F1 bits) is the same under every dispatch level and
//! `DIAL_FORCE_SCALAR=1` changes speed only. Two rules give that:
//!
//! * **Separate multiply and add, never FMA.** The scalar loops round the
//!   product and the sum separately; a fused multiply-add rounds once.
//!   The AVX2 bodies are compiled with `avx2` only, but `avx512f` implies
//!   `fma` to the code generator, so the feature set alone no longer
//!   rules contraction out. What does: rustc never marks an `fmul` or
//!   `fadd` as contractable, so LLVM may not fuse them; the bodies issue
//!   only explicit `mul` / `add` / `sub` intrinsics (never an `fmadd`);
//!   and the parity tests (here and in `tests/proptests.rs`) run every
//!   level the host has against the scalar oracle, bit for bit.
//! * **The scalar loop's reduction order per output element.** `matmul`
//!   and `t_matmul` sum over the shared index in increasing order into one
//!   accumulator per output element — vectorised *across* output columns,
//!   never within a sum. `matmul_t` keeps [`dot`]'s four-lane split: lane
//!   `l` sums elements `4c + l`, the lanes reduce `((l0+l1)+l2)+l3`, then
//!   the `k % 4` tail is added in order.
//!
//! # Dropping the zero skip
//!
//! The scalar `matmul`/`t_matmul` loops skip a whole row update when the
//! left factor is `0.0`. The tiles do not: for finite inputs the skipped
//! products are `±0.0`, and an accumulator that starts at `+0.0` can never
//! become `-0.0` under round-to-nearest (`x + y` is `-0.0` only when both
//! are, and exact cancellation gives `+0.0`), so adding `±0.0` to it is
//! the identity. With a non-finite right factor the skipped product would
//! be NaN and the two paths differ — the tape rejects non-finite values
//! (`Graph::push` asserts it in debug builds), so no caller is affected.
//!
//! # Tile shapes (AVX2)
//!
//! * `matmul` / `t_matmul` share one kernel (`t_matmul` is the same sum
//!   with the left factor read column-wise): a 4-row × 16-column
//!   accumulator tile held in 8 `ymm` registers across the whole `k` loop,
//!   each step two loads of `b`, four broadcasts of `a`, eight multiplies
//!   and eight adds. Row remainders run 1–3-row tiles, column remainders
//!   an 8-wide tile and then one scalar chain per element.
//! * `matmul_t`: one 128-bit half of a `ymm` is one dot product's four
//!   lanes, so a register holds two output columns; a 2-row × 8-column
//!   tile is 8 accumulators, reduced by an in-lane 4×4 transpose so the
//!   eight results of a row land contiguous.
//! * `cross_sq_dists_into`: `b` is transposed once per call into a
//!   per-thread buffer so eight pairs `(i, j..j+8)` advance together, each
//!   lane running [`sq_dist`]'s serial `s += d·d` chain.
//!
//! # Tile shapes (AVX-512)
//!
//! * `matmul` / `t_matmul`: a 4-row × 64-column tile in 16 `zmm`
//!   accumulators, each step four loads of `b`, four broadcasts of `a`,
//!   sixteen multiplies and sixteen adds. A column remainder runs one
//!   tile of 1–4 registers whose last register loads and stores through a
//!   lane mask, so no element falls back to a scalar chain.
//! * `matmul_t`: one 128-bit lane of a `zmm` is one dot product's four
//!   lanes, so a register holds four output columns. `b` is packed once
//!   per call (into the per-thread buffer) so each (16-column group,
//!   4-chunk) is four contiguous registers, and `a`'s four floats are one
//!   `broadcast_f32x4`; a 4-row × 16-column tile is 16 accumulators,
//!   reduced by the same in-lane 4×4 transpose.
//! * `cross_sq_dists_into`: the AVX2 transpose, sixteen pairs per
//!   register, the last register of a row stored through a lane mask.

mod backward;
mod rows;
mod transcendental;

pub use backward::{
    abs_backward, add_row_backward, bce_with_logits, bce_with_logits_backward, dropout,
    gelu_backward, layer_norm_backward, matmul_backward, matmul_t_backward, mean_rows_backward,
    mul_assign, softmax_rows_backward, tanh_backward,
};
pub use rows::{add_assign, add_row, layer_norm_rows, mean_rows, scale};
pub use transcendental::{
    exp, exp_slice, exp_slice_scalar, gelu, gelu_scalar, logsumexp, logsumexp_scalar, sigmoid,
    sigmoid_slice, sigmoid_slice_scalar, softmax_rows, softmax_rows_scalar, tanh, tanh_slice,
    tanh_slice_scalar, TANH_CROSSOVER,
};

use crate::matrix::{dot, sq_dist};
#[cfg(target_arch = "x86_64")]
use dial_simd::{simd_level, SimdLevel};

/// `out[m×n] = a[m×k] · b[k×n]`, overwriting `out`.
pub fn matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "matmul: left factor is not {m}x{k}");
    assert_eq!(b.len(), k * n, "matmul: right factor is not {k}x{n}");
    assert_eq!(out.len(), m * n, "matmul: output is not {m}x{n}");
    // SAFETY: `simd_level` reports a level only when the CPU has it.
    #[cfg(target_arch = "x86_64")]
    unsafe {
        match simd_level() {
            SimdLevel::Avx512 => return avx512::gemm(a, k, 1, b, m, k, n, out),
            SimdLevel::Avx2 => return avx2::gemm(a, k, 1, b, m, k, n, out),
            _ => {}
        }
    }
    matmul_scalar(a, b, m, k, n, out)
}

/// Pre-dispatch scalar implementation of [`matmul`] (parity oracle): an
/// ikj loop whose innermost loop is contiguous over `b`'s rows.
pub fn matmul_scalar(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), k * n);
    assert_eq!(out.len(), m * n);
    out.fill(0.0);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (p, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for j in 0..n {
                out_row[j] += av * b_row[j];
            }
        }
    }
}

/// `out[m×n] = aᵀ · b` for `a[rows×m]`, `b[rows×n]`, without
/// materializing the transpose; overwrites `out`.
pub fn t_matmul(a: &[f32], b: &[f32], rows: usize, m: usize, n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), rows * m, "t_matmul: left factor is not {rows}x{m}");
    assert_eq!(b.len(), rows * n, "t_matmul: right factor is not {rows}x{n}");
    assert_eq!(out.len(), m * n, "t_matmul: output is not {m}x{n}");
    // SAFETY: `simd_level` reports a level only when the CPU has it.
    #[cfg(target_arch = "x86_64")]
    unsafe {
        match simd_level() {
            SimdLevel::Avx512 => return avx512::gemm(a, 1, m, b, m, rows, n, out),
            SimdLevel::Avx2 => return avx2::gemm(a, 1, m, b, m, rows, n, out),
            _ => {}
        }
    }
    t_matmul_scalar(a, b, rows, m, n, out)
}

/// Pre-dispatch scalar implementation of [`t_matmul`] (parity oracle).
pub fn t_matmul_scalar(a: &[f32], b: &[f32], rows: usize, m: usize, n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), rows * m);
    assert_eq!(b.len(), rows * n);
    assert_eq!(out.len(), m * n);
    out.fill(0.0);
    for i in 0..rows {
        let a_row = &a[i * m..(i + 1) * m];
        let b_row = &b[i * n..(i + 1) * n];
        for (k, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let o = &mut out[k * n..(k + 1) * n];
            for (j, &bv) in b_row.iter().enumerate() {
                o[j] += av * bv;
            }
        }
    }
}

/// `out[m×n] = a[m×k] · b[n×k]ᵀ` without materializing the transpose;
/// overwrites `out`. Every element is [`dot`] of two rows, bitwise.
pub fn matmul_t(a: &[f32], b: &[f32], m: usize, n: usize, k: usize, out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "matmul_t: left factor is not {m}x{k}");
    assert_eq!(b.len(), n * k, "matmul_t: right factor is not {n}x{k}");
    assert_eq!(out.len(), m * n, "matmul_t: output is not {m}x{n}");
    // SAFETY: `simd_level` reports a level only when the CPU has it.
    #[cfg(target_arch = "x86_64")]
    unsafe {
        match simd_level() {
            SimdLevel::Avx512 => return avx512::matmul_t(a, b, m, n, k, out),
            SimdLevel::Avx2 => return avx2::matmul_t(a, b, m, n, k, out),
            _ => {}
        }
    }
    matmul_t_scalar(a, b, m, n, k, out)
}

/// Pre-dispatch scalar implementation of [`matmul_t`] (parity oracle).
pub fn matmul_t_scalar(a: &[f32], b: &[f32], m: usize, n: usize, k: usize, out: &mut [f32]) {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), n * k);
    assert_eq!(out.len(), m * n);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let o = &mut out[i * n..(i + 1) * n];
        for (j, oj) in o.iter_mut().enumerate() {
            *oj = dot(a_row, &b[j * k..(j + 1) * k]);
        }
    }
}

/// `out[i·nb + j] = ‖a_i − b_j‖²` for every row pair of `a[na×dim]` and
/// `b[nb×dim]`; each element is [`sq_dist`] of the two rows, bitwise.
pub fn cross_sq_dists_into(
    a: &[f32],
    b: &[f32],
    na: usize,
    nb: usize,
    dim: usize,
    out: &mut [f32],
) {
    assert_eq!(a.len(), na * dim, "cross_sq_dists: left rows are not {na}x{dim}");
    assert_eq!(b.len(), nb * dim, "cross_sq_dists: right rows are not {nb}x{dim}");
    assert_eq!(out.len(), na * nb, "cross_sq_dists: output is not {na}x{nb}");
    // SAFETY: `simd_level` reports a level only when the CPU has it.
    #[cfg(target_arch = "x86_64")]
    unsafe {
        match simd_level() {
            SimdLevel::Avx512 => return avx512::cross_sq_dists(a, b, na, nb, dim, out),
            SimdLevel::Avx2 => return avx2::cross_sq_dists(a, b, na, nb, dim, out),
            _ => {}
        }
    }
    cross_sq_dists_scalar(a, b, na, nb, dim, out)
}

/// Pre-dispatch scalar implementation of [`cross_sq_dists_into`] (parity
/// oracle): one serial [`sq_dist`] chain per pair.
pub fn cross_sq_dists_scalar(
    a: &[f32],
    b: &[f32],
    na: usize,
    nb: usize,
    dim: usize,
    out: &mut [f32],
) {
    assert_eq!(a.len(), na * dim);
    assert_eq!(b.len(), nb * dim);
    assert_eq!(out.len(), na * nb);
    for i in 0..na {
        let a_row = &a[i * dim..(i + 1) * dim];
        for j in 0..nb {
            out[i * nb + j] = sq_dist(a_row, &b[j * dim..(j + 1) * dim]);
        }
    }
}

#[cfg(target_arch = "x86_64")]
thread_local! {
    /// This thread's packing buffer: `cross_sq_dists`' transposed `b` and
    /// the AVX-512 `matmul_t`'s packed `b`, grown once and reused by every
    /// later call.
    static PACK: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// `f` on `len` zeroed floats of this thread's [`PACK`] buffer. Not
/// reentrant: no body calls another inside `f`.
#[cfg(target_arch = "x86_64")]
fn with_pack<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    PACK.with_borrow_mut(|buf| {
        buf.clear();
        buf.resize(len, 0.0);
        f(buf)
    })
}

/// `f` on `bt[k·nbp + j] = b[j·dim + k]` for the `nb` rows of `b`, columns
/// zero-padded to `nbp` so the last tile loads whole registers; the padded
/// lanes are computed and dropped.
#[cfg(target_arch = "x86_64")]
fn with_transposed<R>(
    b: &[f32],
    nb: usize,
    nbp: usize,
    dim: usize,
    f: impl FnOnce(&[f32]) -> R,
) -> R {
    debug_assert!(b.len() == nb * dim && nb <= nbp);
    with_pack(dim * nbp, |bt| {
        for (j, row) in b.chunks_exact(dim.max(1)).enumerate() {
            for (k, &v) in row.iter().enumerate() {
                bt[k * nbp + j] = v;
            }
        }
        f(bt)
    })
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::with_transposed;
    use std::arch::x86_64::*;

    /// Rows per `gemm` accumulator tile.
    const MR: usize = 4;

    /// `out[m×n] = Σ_p A[i,p] · b[p,j]` with `A[i,p] = a[i·a_rs + p·a_ps]`:
    /// `matmul` reads `a` row-wise (`a_rs = k`, `a_ps = 1`), `t_matmul`
    /// column-wise (`a_rs = 1`, `a_ps = m`). One accumulator per output
    /// element, summed over `p` in increasing order.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub(super) fn gemm(
        a: &[f32],
        a_rs: usize,
        a_ps: usize,
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
        out: &mut [f32],
    ) {
        // The tiles index through raw pointers; these three facts bound
        // every access they make (see the SAFETY comments in `tile`).
        assert!(m == 0 || k == 0 || (m - 1) * a_rs + (k - 1) * a_ps < a.len());
        assert_eq!(b.len(), k * n);
        assert_eq!(out.len(), m * n);
        let mut i0 = 0;
        while i0 < m {
            match m - i0 {
                1 => row_block::<1>(a, a_rs, a_ps, b, i0, k, n, out),
                2 => row_block::<2>(a, a_rs, a_ps, b, i0, k, n, out),
                3 => row_block::<3>(a, a_rs, a_ps, b, i0, k, n, out),
                _ => row_block::<MR>(a, a_rs, a_ps, b, i0, k, n, out),
            }
            i0 += MR;
        }
    }

    /// Output rows `i0..i0 + R`, all columns: 16-wide tiles, then one
    /// 8-wide tile, then a scalar chain per remaining element.
    #[inline]
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    fn row_block<const R: usize>(
        a: &[f32],
        a_rs: usize,
        a_ps: usize,
        b: &[f32],
        i0: usize,
        k: usize,
        n: usize,
        out: &mut [f32],
    ) {
        let mut j0 = 0;
        while j0 + 16 <= n {
            tile::<R, 2>(a, a_rs, a_ps, b, i0, j0, k, n, out);
            j0 += 16;
        }
        if j0 + 8 <= n {
            tile::<R, 1>(a, a_rs, a_ps, b, i0, j0, k, n, out);
            j0 += 8;
        }
        for i in i0..i0 + R {
            for j in j0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a[i * a_rs + p * a_ps] * b[p * n + j];
                }
                out[i * n + j] = acc;
            }
        }
    }

    /// One `R × 8·NV` accumulator tile at `(i0, j0)`, held in registers
    /// across the whole `p` loop.
    #[inline]
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    fn tile<const R: usize, const NV: usize>(
        a: &[f32],
        a_rs: usize,
        a_ps: usize,
        b: &[f32],
        i0: usize,
        j0: usize,
        k: usize,
        n: usize,
        out: &mut [f32],
    ) {
        debug_assert!(j0 + 8 * NV <= n);
        debug_assert!(k == 0 || (i0 + R - 1) * a_rs + (k - 1) * a_ps < a.len());
        debug_assert!(b.len() == k * n && (i0 + R) * n <= out.len());
        let (ap, bp, op) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
        let mut acc = [[_mm256_setzero_ps(); NV]; R];
        for p in 0..k {
            let mut bv = [_mm256_setzero_ps(); NV];
            for (v, bv) in bv.iter_mut().enumerate() {
                // SAFETY: `p < k` and `j0 + 8·NV <= n`, so the eight floats
                // at `p·n + j0 + 8v` end at or before `k·n == b.len()`
                // (asserted in `gemm`).
                *bv = unsafe { _mm256_loadu_ps(bp.add(p * n + j0 + 8 * v)) };
            }
            for (r, acc) in acc.iter_mut().enumerate() {
                // SAFETY: `i0 + r <= m - 1` and `p <= k - 1`, so the index
                // is at most `(m-1)·a_rs + (k-1)·a_ps < a.len()` (asserted
                // in `gemm`).
                let av = _mm256_set1_ps(unsafe { *ap.add((i0 + r) * a_rs + p * a_ps) });
                for (acc, &bv) in acc.iter_mut().zip(&bv) {
                    *acc = _mm256_add_ps(*acc, _mm256_mul_ps(av, bv));
                }
            }
        }
        for (r, acc) in acc.iter().enumerate() {
            for (v, &acc) in acc.iter().enumerate() {
                // SAFETY: row `i0 + r < m` and columns `j0 + 8v .. + 8 <= n`
                // lie inside `out`, whose length is `m·n` (asserted in
                // `gemm`).
                unsafe { _mm256_storeu_ps(op.add((i0 + r) * n + j0 + 8 * v), acc) };
            }
        }
    }

    /// `out[m×n] = a[m×k] · b[n×k]ᵀ`, each element `dot(a_i, b_j)` in
    /// `dot`'s four-lane order.
    #[target_feature(enable = "avx2")]
    pub(super) fn matmul_t(a: &[f32], b: &[f32], m: usize, n: usize, k: usize, out: &mut [f32]) {
        // Bounds of every raw access in `tile_t`.
        assert_eq!(a.len(), m * k);
        assert_eq!(b.len(), n * k);
        assert_eq!(out.len(), m * n);
        let mut j0 = 0;
        while j0 < n {
            let cols = (n - j0).min(8);
            // Start of the eight `b` rows of this column tile. A partial
            // last tile repeats its last row: the duplicates are computed
            // and dropped, and every offset stays a real row of `b`.
            let brow: [usize; 8] = std::array::from_fn(|c| (j0 + c.min(cols - 1)) * k);
            let mut i0 = 0;
            while i0 + 2 <= m {
                tile_t::<2>(a, b, &brow, i0, j0, cols, n, k, out);
                i0 += 2;
            }
            if i0 < m {
                tile_t::<1>(a, b, &brow, i0, j0, cols, n, k, out);
            }
            j0 += 8;
        }
    }

    /// Rows `i0..i0 + R` of `a` against the eight `b` rows at `brow`.
    /// Accumulator `[r][q]` holds column `q`'s four lanes in its low half
    /// and column `q + 4`'s in its high half.
    #[inline]
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    fn tile_t<const R: usize>(
        a: &[f32],
        b: &[f32],
        brow: &[usize; 8],
        i0: usize,
        j0: usize,
        cols: usize,
        n: usize,
        k: usize,
        out: &mut [f32],
    ) {
        debug_assert!((i0 + R) * k <= a.len() && (i0 + R) * n <= out.len());
        debug_assert!(brow.iter().all(|&o| o + k <= b.len()));
        debug_assert!((1..=8).contains(&cols) && j0 + cols <= n);
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        let chunks = k / 4;
        let mut acc = [[_mm256_setzero_ps(); 4]; R];
        for c in 0..chunks {
            let off = 4 * c;
            let mut bv = [_mm256_setzero_ps(); 4];
            for (q, bv) in bv.iter_mut().enumerate() {
                // SAFETY: every `brow` entry starts a `k`-float row inside
                // `b` and `off + 4 <= k`, so both 4-float loads are in
                // bounds.
                *bv =
                    unsafe { _mm256_loadu2_m128(bp.add(brow[q + 4] + off), bp.add(brow[q] + off)) };
            }
            for (r, acc) in acc.iter_mut().enumerate() {
                // SAFETY: row `i0 + r < m` of `a` is `k` floats and
                // `off + 4 <= k`.
                let a4 = unsafe { _mm_loadu_ps(ap.add((i0 + r) * k + off)) };
                let av = _mm256_set_m128(a4, a4);
                for (acc, &bv) in acc.iter_mut().zip(&bv) {
                    *acc = _mm256_add_ps(*acc, _mm256_mul_ps(av, bv));
                }
            }
        }
        for (r, acc) in acc.iter().enumerate() {
            // In-lane 4×4 transpose: `l[x]` gathers lane `x` of the four
            // accumulators, so `((l0+l1)+l2)+l3` is `dot`'s lane reduction
            // for columns 0..4 (low half) and 4..8 (high half) at once.
            let t0 = _mm256_unpacklo_ps(acc[0], acc[1]);
            let t1 = _mm256_unpackhi_ps(acc[0], acc[1]);
            let t2 = _mm256_unpacklo_ps(acc[2], acc[3]);
            let t3 = _mm256_unpackhi_ps(acc[2], acc[3]);
            let l0 = _mm256_shuffle_ps::<0x44>(t0, t2);
            let l1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
            let l2 = _mm256_shuffle_ps::<0x44>(t1, t3);
            let l3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
            let s = _mm256_add_ps(_mm256_add_ps(_mm256_add_ps(l0, l1), l2), l3);
            let row = i0 + r;
            if k.is_multiple_of(4) && cols == 8 {
                // SAFETY: `row < m` and `j0 + 8 <= n`, inside `out`
                // (length `m·n`, asserted in `matmul_t`).
                unsafe { _mm256_storeu_ps(out.as_mut_ptr().add(row * n + j0), s) };
                continue;
            }
            let mut lanes = [0.0f32; 8];
            // SAFETY: `lanes` is eight floats.
            unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), s) };
            // `dot`'s scalar tail, in order.
            let a_row = &a[row * k..(row + 1) * k];
            for (lane, &bo) in lanes.iter_mut().zip(brow).take(cols) {
                for t in 4 * chunks..k {
                    *lane += a_row[t] * b[bo + t];
                }
            }
            out[row * n + j0..row * n + j0 + cols].copy_from_slice(&lanes[..cols]);
        }
    }

    /// All-pairs squared distances, eight pairs per register.
    #[target_feature(enable = "avx2")]
    pub(super) fn cross_sq_dists(
        a: &[f32],
        b: &[f32],
        na: usize,
        nb: usize,
        dim: usize,
        out: &mut [f32],
    ) {
        // Bounds of every raw access in `tile_d`.
        assert_eq!(a.len(), na * dim);
        assert_eq!(b.len(), nb * dim);
        assert_eq!(out.len(), na * nb);
        let nbp = nb.next_multiple_of(8);
        with_transposed(b, nb, nbp, dim, |bt| {
            let mut i0 = 0;
            while i0 < na {
                for j0 in (0..nbp).step_by(8) {
                    match na - i0 {
                        1 => tile_d::<1>(a, bt, i0, j0, nb, nbp, dim, out),
                        2 => tile_d::<2>(a, bt, i0, j0, nb, nbp, dim, out),
                        3 => tile_d::<3>(a, bt, i0, j0, nb, nbp, dim, out),
                        _ => tile_d::<4>(a, bt, i0, j0, nb, nbp, dim, out),
                    }
                }
                i0 += 4;
            }
        })
    }

    /// Rows `i0..i0 + R` of `a` against columns `j0..j0 + 8` of the
    /// transposed `b`: lane `c` of accumulator `r` runs `sq_dist(a_{i0+r},
    /// b_{j0+c})`'s serial chain over `k`.
    #[inline]
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    fn tile_d<const R: usize>(
        a: &[f32],
        bt: &[f32],
        i0: usize,
        j0: usize,
        nb: usize,
        nbp: usize,
        dim: usize,
        out: &mut [f32],
    ) {
        debug_assert!((i0 + R) * dim <= a.len() && (i0 + R) * nb <= out.len());
        debug_assert!(j0 + 8 <= nbp && bt.len() == dim * nbp && j0 < nb);
        let (ap, btp) = (a.as_ptr(), bt.as_ptr());
        let mut acc = [_mm256_setzero_ps(); R];
        for k in 0..dim {
            // SAFETY: `k < dim` and `j0 + 8 <= nbp`, inside `bt`
            // (`dim·nbp` floats).
            let bv = unsafe { _mm256_loadu_ps(btp.add(k * nbp + j0)) };
            for (r, acc) in acc.iter_mut().enumerate() {
                // SAFETY: row `i0 + r < na` of `a` is `dim` floats.
                let av = _mm256_set1_ps(unsafe { *ap.add((i0 + r) * dim + k) });
                let d = _mm256_sub_ps(av, bv);
                *acc = _mm256_add_ps(*acc, _mm256_mul_ps(d, d));
            }
        }
        let cols = (nb - j0).min(8);
        for (r, &acc) in acc.iter().enumerate() {
            let at = (i0 + r) * nb + j0;
            if cols == 8 {
                // SAFETY: row `i0 + r < na`, columns `j0..j0 + 8 <= nb`,
                // inside `out` (`na·nb` floats).
                unsafe { _mm256_storeu_ps(out.as_mut_ptr().add(at), acc) };
            } else {
                let mut lanes = [0.0f32; 8];
                // SAFETY: `lanes` is eight floats.
                unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), acc) };
                out[at..at + cols].copy_from_slice(&lanes[..cols]);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{with_pack, with_transposed};
    use std::arch::x86_64::*;

    /// Rows per accumulator tile, in every kernel here.
    const MR: usize = 4;
    /// `zmm` registers per row of the widest `gemm` tile: 64 columns.
    const NV: usize = 4;

    /// Mask of a register's low `cols` lanes, `cols` in `1..=16`.
    #[inline]
    pub(super) fn lanes_mask(cols: usize) -> __mmask16 {
        debug_assert!((1..=16).contains(&cols));
        (u32::MAX >> (32 - cols)) as __mmask16
    }

    /// [`super::avx2::gemm`]'s sum, sixteen output columns per register:
    /// one accumulator per output element, summed over `p` in increasing
    /// order.
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    pub(super) fn gemm(
        a: &[f32],
        a_rs: usize,
        a_ps: usize,
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
        out: &mut [f32],
    ) {
        // The tiles index through raw pointers; these three facts bound
        // every access they make (see the SAFETY comments in `tile`).
        assert!(m == 0 || k == 0 || (m - 1) * a_rs + (k - 1) * a_ps < a.len());
        assert_eq!(b.len(), k * n);
        assert_eq!(out.len(), m * n);
        let mut i0 = 0;
        while i0 < m {
            match m - i0 {
                1 => row_block::<1>(a, a_rs, a_ps, b, i0, k, n, out),
                2 => row_block::<2>(a, a_rs, a_ps, b, i0, k, n, out),
                3 => row_block::<3>(a, a_rs, a_ps, b, i0, k, n, out),
                _ => row_block::<MR>(a, a_rs, a_ps, b, i0, k, n, out),
            }
            i0 += MR;
        }
    }

    /// Output rows `i0..i0 + R`, all columns: 64-wide tiles, then one tile
    /// of 1–4 registers whose last register is masked to the remainder.
    #[inline]
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    fn row_block<const R: usize>(
        a: &[f32],
        a_rs: usize,
        a_ps: usize,
        b: &[f32],
        i0: usize,
        k: usize,
        n: usize,
        out: &mut [f32],
    ) {
        let mut j0 = 0;
        while j0 + 16 * NV <= n {
            tile::<R, NV>(a, a_rs, a_ps, b, i0, j0, !0, k, n, out);
            j0 += 16 * NV;
        }
        let rest = n - j0;
        if rest == 0 {
            return;
        }
        let last = lanes_mask(rest - 16 * ((rest - 1) / 16));
        match rest.div_ceil(16) {
            1 => tile::<R, 1>(a, a_rs, a_ps, b, i0, j0, last, k, n, out),
            2 => tile::<R, 2>(a, a_rs, a_ps, b, i0, j0, last, k, n, out),
            3 => tile::<R, 3>(a, a_rs, a_ps, b, i0, j0, last, k, n, out),
            _ => tile::<R, 4>(a, a_rs, a_ps, b, i0, j0, last, k, n, out),
        }
    }

    /// One `R × 16·V` accumulator tile at `(i0, j0)`, held in registers
    /// across the whole `p` loop; register `V − 1` of each row loads and
    /// stores only the lanes of `last`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    fn tile<const R: usize, const V: usize>(
        a: &[f32],
        a_rs: usize,
        a_ps: usize,
        b: &[f32],
        i0: usize,
        j0: usize,
        last: __mmask16,
        k: usize,
        n: usize,
        out: &mut [f32],
    ) {
        let cols = 16 * (V - 1) + last.count_ones() as usize;
        debug_assert!(last != 0 && j0 + cols <= n);
        debug_assert!(k == 0 || (i0 + R - 1) * a_rs + (k - 1) * a_ps < a.len());
        debug_assert!(b.len() == k * n && (i0 + R) * n <= out.len());
        let mask = |v: usize| if v + 1 == V { last } else { !0 };
        let (ap, bp, op) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
        let mut acc = [[_mm512_setzero_ps(); V]; R];
        for p in 0..k {
            let mut bv = [_mm512_setzero_ps(); V];
            for (v, bv) in bv.iter_mut().enumerate() {
                // SAFETY: `p < k` and the lanes `mask(v)` selects are
                // columns below `j0 + cols <= n`, so every float loaded
                // lies before `k·n == b.len()` (asserted in `gemm`);
                // masked-off lanes are not read.
                *bv = unsafe { _mm512_maskz_loadu_ps(mask(v), bp.add(p * n + j0 + 16 * v)) };
            }
            for (r, acc) in acc.iter_mut().enumerate() {
                // SAFETY: `i0 + r <= m - 1` and `p <= k - 1`, so the index
                // is at most `(m-1)·a_rs + (k-1)·a_ps < a.len()` (asserted
                // in `gemm`).
                let av = _mm512_set1_ps(unsafe { *ap.add((i0 + r) * a_rs + p * a_ps) });
                for (acc, &bv) in acc.iter_mut().zip(&bv) {
                    *acc = _mm512_add_ps(*acc, _mm512_mul_ps(av, bv));
                }
            }
        }
        for (r, acc) in acc.iter().enumerate() {
            for (v, &acc) in acc.iter().enumerate() {
                // SAFETY: row `i0 + r < m`, and the lanes `mask(v)`
                // selects are columns below `j0 + cols <= n`: inside
                // `out`, whose length is `m·n` (asserted in `gemm`).
                unsafe { _mm512_mask_storeu_ps(op.add((i0 + r) * n + j0 + 16 * v), mask(v), acc) };
            }
        }
    }

    /// `out[m×n] = a[m×k] · b[n×k]ᵀ`, each element `dot(a_i, b_j)` in
    /// `dot`'s four-lane order, sixteen columns per tile.
    #[target_feature(enable = "avx512f")]
    pub(super) fn matmul_t(a: &[f32], b: &[f32], m: usize, n: usize, k: usize, out: &mut [f32]) {
        // Bounds of every raw access in `tile_t`.
        assert_eq!(a.len(), m * k);
        assert_eq!(b.len(), n * k);
        assert_eq!(out.len(), m * n);
        let chunks = k / 4;
        // One panel of `64·chunks` floats per 16-column group `g`: for
        // 4-chunk `c`, register `q` of the panel holds columns
        // `16g + q + 4h`, `h = 0..4`, one per 128-bit lane —
        // `panel[64c + 16q + 4h + l] = b[(16g + 4h + q)·k + 4c + l]`.
        // Columns past `n` stay zero: computed and dropped.
        let panel = 64 * chunks;
        with_pack(n.div_ceil(16) * panel, |packed| {
            let pp = packed.as_mut_ptr();
            for (j, row) in b.chunks_exact(k.max(1)).enumerate() {
                let at = (j / 16) * panel + 16 * (j % 4) + 4 * (j % 16 / 4);
                debug_assert!(at % 64 <= 60 && (j / 16 + 1) * panel <= packed.len());
                for c in 0..chunks {
                    // SAFETY: `4c + 4 <= k == row.len()`; `at` lies within
                    // the first 64 floats of column `j`'s panel, so
                    // `at + 64c + 4` ends inside that panel, and the
                    // panels (one per 16 columns) fill `packed`.
                    unsafe {
                        _mm_storeu_ps(pp.add(at + 64 * c), _mm_loadu_ps(row.as_ptr().add(4 * c)))
                    };
                }
            }
            for g in 0..n.div_ceil(16) {
                let panel = &packed[g * panel..(g + 1) * panel];
                let j0 = 16 * g;
                let cols = (n - j0).min(16);
                let mut i0 = 0;
                while i0 + MR <= m {
                    tile_t::<MR>(a, b, panel, i0, j0, cols, n, k, out);
                    i0 += MR;
                }
                match m - i0 {
                    1 => tile_t::<1>(a, b, panel, i0, j0, cols, n, k, out),
                    2 => tile_t::<2>(a, b, panel, i0, j0, cols, n, k, out),
                    3 => tile_t::<3>(a, b, panel, i0, j0, cols, n, k, out),
                    _ => {}
                }
            }
        })
    }

    /// Rows `i0..i0 + R` of `a` against the 16 columns packed in `panel`.
    /// Accumulator `[r][q]` holds column `j0 + q + 4h`'s four lanes in its
    /// 128-bit lane `h`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    fn tile_t<const R: usize>(
        a: &[f32],
        b: &[f32],
        panel: &[f32],
        i0: usize,
        j0: usize,
        cols: usize,
        n: usize,
        k: usize,
        out: &mut [f32],
    ) {
        let chunks = k / 4;
        debug_assert!((i0 + R) * k <= a.len() && (i0 + R) * n <= out.len());
        debug_assert!(panel.len() == 64 * chunks);
        debug_assert!((1..=16).contains(&cols) && j0 + cols <= n);
        let (ap, pp) = (a.as_ptr(), panel.as_ptr());
        let mut acc = [[_mm512_setzero_ps(); 4]; R];
        for c in 0..chunks {
            let mut bv = [_mm512_setzero_ps(); 4];
            for (q, bv) in bv.iter_mut().enumerate() {
                // SAFETY: `c < chunks` and `q < 4`, so the sixteen floats
                // end at or before `64·chunks == panel.len()`.
                *bv = unsafe { _mm512_loadu_ps(pp.add(64 * c + 16 * q)) };
            }
            for (r, acc) in acc.iter_mut().enumerate() {
                // SAFETY: row `i0 + r < m` of `a` is `k` floats and
                // `4c + 4 <= k`.
                let a4 = unsafe { _mm_loadu_ps(ap.add((i0 + r) * k + 4 * c)) };
                let av = _mm512_broadcast_f32x4(a4);
                for (acc, &bv) in acc.iter_mut().zip(&bv) {
                    *acc = _mm512_add_ps(*acc, _mm512_mul_ps(av, bv));
                }
            }
        }
        for (r, acc) in acc.iter().enumerate() {
            // The AVX2 body's in-lane 4×4 transpose, in all four 128-bit
            // lanes at once: lane `h` of `s` ends as columns
            // `j0 + 4h .. j0 + 4h + 4`, so the sixteen land contiguous.
            let t0 = _mm512_unpacklo_ps(acc[0], acc[1]);
            let t1 = _mm512_unpackhi_ps(acc[0], acc[1]);
            let t2 = _mm512_unpacklo_ps(acc[2], acc[3]);
            let t3 = _mm512_unpackhi_ps(acc[2], acc[3]);
            let l0 = _mm512_shuffle_ps::<0x44>(t0, t2);
            let l1 = _mm512_shuffle_ps::<0xEE>(t0, t2);
            let l2 = _mm512_shuffle_ps::<0x44>(t1, t3);
            let l3 = _mm512_shuffle_ps::<0xEE>(t1, t3);
            let s = _mm512_add_ps(_mm512_add_ps(_mm512_add_ps(l0, l1), l2), l3);
            let row = i0 + r;
            if k.is_multiple_of(4) {
                // SAFETY: `row < m` and the `cols` lanes stored are columns
                // `j0 .. j0 + cols <= n`, inside `out` (length `m·n`,
                // asserted in `matmul_t`).
                unsafe {
                    _mm512_mask_storeu_ps(out.as_mut_ptr().add(row * n + j0), lanes_mask(cols), s)
                };
                continue;
            }
            let mut lanes = [0.0f32; 16];
            // SAFETY: `lanes` is sixteen floats.
            unsafe { _mm512_storeu_ps(lanes.as_mut_ptr(), s) };
            // `dot`'s scalar tail, in order.
            let a_row = &a[row * k..(row + 1) * k];
            for (c, lane) in lanes.iter_mut().enumerate().take(cols) {
                let b_row = &b[(j0 + c) * k..(j0 + c + 1) * k];
                for t in 4 * chunks..k {
                    *lane += a_row[t] * b_row[t];
                }
            }
            out[row * n + j0..row * n + j0 + cols].copy_from_slice(&lanes[..cols]);
        }
    }

    /// All-pairs squared distances, sixteen pairs per register.
    #[target_feature(enable = "avx512f")]
    pub(super) fn cross_sq_dists(
        a: &[f32],
        b: &[f32],
        na: usize,
        nb: usize,
        dim: usize,
        out: &mut [f32],
    ) {
        // Bounds of every raw access in `tile_d`.
        assert_eq!(a.len(), na * dim);
        assert_eq!(b.len(), nb * dim);
        assert_eq!(out.len(), na * nb);
        let nbp = nb.next_multiple_of(16);
        with_transposed(b, nb, nbp, dim, |bt| {
            let mut i0 = 0;
            while i0 < na {
                for j0 in (0..nbp).step_by(16) {
                    match na - i0 {
                        1 => tile_d::<1>(a, bt, i0, j0, nb, nbp, dim, out),
                        2 => tile_d::<2>(a, bt, i0, j0, nb, nbp, dim, out),
                        3 => tile_d::<3>(a, bt, i0, j0, nb, nbp, dim, out),
                        _ => tile_d::<MR>(a, bt, i0, j0, nb, nbp, dim, out),
                    }
                }
                i0 += MR;
            }
        })
    }

    /// Rows `i0..i0 + R` of `a` against columns `j0..j0 + 16` of the
    /// transposed `b`: lane `c` of accumulator `r` runs `sq_dist(a_{i0+r},
    /// b_{j0+c})`'s serial chain over `k`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    fn tile_d<const R: usize>(
        a: &[f32],
        bt: &[f32],
        i0: usize,
        j0: usize,
        nb: usize,
        nbp: usize,
        dim: usize,
        out: &mut [f32],
    ) {
        debug_assert!((i0 + R) * dim <= a.len() && (i0 + R) * nb <= out.len());
        debug_assert!(j0 + 16 <= nbp && bt.len() == dim * nbp && j0 < nb);
        let (ap, btp) = (a.as_ptr(), bt.as_ptr());
        let mut acc = [_mm512_setzero_ps(); R];
        for k in 0..dim {
            // SAFETY: `k < dim` and `j0 + 16 <= nbp`, inside `bt`
            // (`dim·nbp` floats).
            let bv = unsafe { _mm512_loadu_ps(btp.add(k * nbp + j0)) };
            for (r, acc) in acc.iter_mut().enumerate() {
                // SAFETY: row `i0 + r < na` of `a` is `dim` floats.
                let av = _mm512_set1_ps(unsafe { *ap.add((i0 + r) * dim + k) });
                let d = _mm512_sub_ps(av, bv);
                *acc = _mm512_add_ps(*acc, _mm512_mul_ps(d, d));
            }
        }
        let mask = lanes_mask((nb - j0).min(16));
        for (r, &acc) in acc.iter().enumerate() {
            // SAFETY: row `i0 + r < na`, and the lanes stored are columns
            // `j0 .. min(j0 + 16, nb)`: inside `out` (`na·nb` floats).
            unsafe { _mm512_mask_storeu_ps(out.as_mut_ptr().add((i0 + r) * nb + j0), mask, acc) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(len: usize, seed: u32) -> Vec<f32> {
        // Deterministic, sign-mixed, with exact zeros sprinkled in so the
        // scalar loops' zero skip is exercised.
        (0..len as u32)
            .map(|i| {
                let h = i.wrapping_mul(2_654_435_761).wrapping_add(seed.wrapping_mul(40_503));
                if h % 7 == 0 {
                    0.0
                } else {
                    ((h >> 8) % 2001) as f32 / 500.0 - 2.0
                }
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn dispatched_products_match_scalar_bitwise_at_trunk_shapes() {
        // The trunk's layer and head shapes, the coverage block's (about
        // 20 × 20 pairs of 16- and 64-wide rows), and shapes off every
        // tile: 4 rows, 8/16/64 columns, `k % 4 != 0`.
        let shapes = [
            (48, 64, 64),
            (48, 64, 128),
            (48, 128, 64),
            (48, 48, 16),
            (37, 18, 37),
            (19, 16, 21),
            (21, 64, 19),
            (5, 67, 65),
            (1, 3, 15),
        ];
        dial_simd::for_each_level(|level| {
            for (m, k, n) in shapes {
                let (a, b) = (ramp(m * k, 1), ramp(k * n, 2));
                let (mut fast, mut slow) = (vec![1.0; m * n], vec![2.0; m * n]);
                matmul(&a, &b, m, k, n, &mut fast);
                matmul_scalar(&a, &b, m, k, n, &mut slow);
                assert_eq!(bits(&fast), bits(&slow), "{level:?} matmul {m}x{k}x{n}");

                // aᵀ·g with a[m×k], g[m×n] -> [k×n]
                let g = ramp(m * n, 3);
                let (mut fast, mut slow) = (vec![1.0; k * n], vec![2.0; k * n]);
                t_matmul(&a, &g, m, k, n, &mut fast);
                t_matmul_scalar(&a, &g, m, k, n, &mut slow);
                assert_eq!(bits(&fast), bits(&slow), "{level:?} t_matmul {m}x{k}x{n}");

                // g·bᵀ with g[m×n], b[k×n] -> [m×k]
                let (mut fast, mut slow) = (vec![1.0; m * k], vec![2.0; m * k]);
                matmul_t(&g, &b, m, k, n, &mut fast);
                matmul_t_scalar(&g, &b, m, k, n, &mut slow);
                assert_eq!(bits(&fast), bits(&slow), "{level:?} matmul_t {m}x{k}x{n}");

                let (mut fast, mut slow) = (vec![1.0; m * k], vec![2.0; m * k]);
                cross_sq_dists_into(&g, &b, m, k, n, &mut fast);
                cross_sq_dists_scalar(&g, &b, m, k, n, &mut slow);
                assert_eq!(bits(&fast), bits(&slow), "{level:?} cross_sq_dists {m}x{k}x{n}");
            }
        });
    }

    #[test]
    #[should_panic(expected = "matmul: right factor is not 3x2")]
    fn wrong_buffer_length_panics_before_any_kernel_runs() {
        let mut out = [0.0; 4];
        matmul(&[0.0; 6], &[0.0; 5], 2, 3, 2, &mut out);
    }
}
