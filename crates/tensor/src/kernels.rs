//! Dense product kernels under the autograd tape — the AL round's hot path.
//!
//! Three products carry a transformer forward/backward and all three live
//! here, each as a scalar loop (the pre-dispatch code, verbatim — fallback
//! and parity oracle) and an explicit AVX2 implementation picked at
//! runtime from [`dial_simd::simd_level`]:
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
//! The AVX2 paths are **bitwise equal** to the scalar loops, not merely
//! close, so the active-learning trajectory (labels, candidates,
//! recall/F1 bits) is the same under every dispatch level and
//! `DIAL_FORCE_SCALAR=1` changes speed only. Two rules give that:
//!
//! * **Separate multiply and add, never FMA.** The scalar loops round the
//!   product and the sum separately; a fused multiply-add rounds once.
//!   The kernels are compiled with `avx2` only (no `fma` target feature),
//!   so contraction cannot happen even by accident.
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
//! * `cross_sq_dists_into`: `b` is transposed once into a scratch buffer
//!   so eight pairs `(i, j..j+8)` advance together, each lane running
//!   [`sq_dist`]'s serial `s += d·d` chain.

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
    #[cfg(target_arch = "x86_64")]
    if simd_level() == SimdLevel::Avx2 {
        // SAFETY: `simd_level` reports Avx2 only when the CPU has it.
        return unsafe { avx2::gemm(a, k, 1, b, m, k, n, out) };
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
    #[cfg(target_arch = "x86_64")]
    if simd_level() == SimdLevel::Avx2 {
        // SAFETY: `simd_level` reports Avx2 only when the CPU has it.
        return unsafe { avx2::gemm(a, 1, m, b, m, rows, n, out) };
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
    #[cfg(target_arch = "x86_64")]
    if simd_level() == SimdLevel::Avx2 {
        // SAFETY: `simd_level` reports Avx2 only when the CPU has it.
        return unsafe { avx2::matmul_t(a, b, m, n, k, out) };
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
    #[cfg(target_arch = "x86_64")]
    if simd_level() == SimdLevel::Avx2 {
        // SAFETY: `simd_level` reports Avx2 only when the CPU has it.
        return unsafe { avx2::cross_sq_dists(a, b, na, nb, dim, out) };
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
mod avx2 {
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
        // `bt[k·nbp + j] = b[j·dim + k]`, columns zero-padded to a multiple
        // of eight so the last tile loads whole registers; the padded
        // lanes are computed and dropped.
        let nbp = nb.next_multiple_of(8);
        let mut bt = vec![0.0f32; dim * nbp];
        for (j, row) in b.chunks_exact(dim.max(1)).enumerate() {
            for (k, &v) in row.iter().enumerate() {
                bt[k * nbp + j] = v;
            }
        }
        let mut i0 = 0;
        while i0 < na {
            for j0 in (0..nbp).step_by(8) {
                match na - i0 {
                    1 => tile_d::<1>(a, &bt, i0, j0, nb, nbp, dim, out),
                    2 => tile_d::<2>(a, &bt, i0, j0, nb, nbp, dim, out),
                    3 => tile_d::<3>(a, &bt, i0, j0, nb, nbp, dim, out),
                    _ => tile_d::<4>(a, &bt, i0, j0, nb, nbp, dim, out),
                }
            }
            i0 += 4;
        }
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
        for (m, k, n) in [(48, 64, 64), (48, 64, 128), (48, 128, 64), (48, 48, 16), (37, 18, 37)] {
            let (a, b) = (ramp(m * k, 1), ramp(k * n, 2));
            let (mut fast, mut slow) = (vec![1.0; m * n], vec![2.0; m * n]);
            matmul(&a, &b, m, k, n, &mut fast);
            matmul_scalar(&a, &b, m, k, n, &mut slow);
            assert_eq!(bits(&fast), bits(&slow), "matmul {m}x{k}x{n}");

            // aᵀ·g with a[m×k], g[m×n] -> [k×n]
            let g = ramp(m * n, 3);
            let (mut fast, mut slow) = (vec![1.0; k * n], vec![2.0; k * n]);
            t_matmul(&a, &g, m, k, n, &mut fast);
            t_matmul_scalar(&a, &g, m, k, n, &mut slow);
            assert_eq!(bits(&fast), bits(&slow), "t_matmul {m}x{k}x{n}");

            // g·bᵀ with g[m×n], b[k×n] -> [m×k]
            let (mut fast, mut slow) = (vec![1.0; m * k], vec![2.0; m * k]);
            matmul_t(&g, &b, m, k, n, &mut fast);
            matmul_t_scalar(&g, &b, m, k, n, &mut slow);
            assert_eq!(bits(&fast), bits(&slow), "matmul_t {m}x{k}x{n}");

            let (mut fast, mut slow) = (vec![1.0; m * k], vec![2.0; m * k]);
            cross_sq_dists_into(&g, &b, m, k, n, &mut fast);
            cross_sq_dists_scalar(&g, &b, m, k, n, &mut slow);
            assert_eq!(bits(&fast), bits(&slow), "cross_sq_dists {m}x{k}x{n}");
        }
    }

    #[test]
    #[should_panic(expected = "matmul: right factor is not 3x2")]
    fn wrong_buffer_length_panics_before_any_kernel_runs() {
        let mut out = [0.0; 4];
        matmul(&[0.0; 6], &[0.0; 5], 2, 3, 2, &mut out);
    }
}
