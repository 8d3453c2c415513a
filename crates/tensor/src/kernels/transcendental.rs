//! `exp` and `tanh` as in-repo definitions, and the slice kernels built
//! on them: GELU, row softmax, log-sum-exp, sigmoid.
//!
//! # The definitions
//!
//! [`exp`] and [`tanh`] are not approximations *of* libm's `expf`/`tanhf`
//! that happen to be vectorised: the scalar bodies here **are** the
//! functions this workspace computes with, on every host. Nothing under
//! the tape, the matcher, the committee or the selectors calls libm for
//! them, so a result no longer depends on which glibc the binary runs
//! against.
//!
//! * `exp(x)`: clamp to `[-88, 88]`; `n = round(x·log2 e)` by adding and
//!   subtracting `1.5·2²³` (round-to-nearest-even, no `rintf`);
//!   `r = (x − n·LN2_HI) − n·LN2_LO` (Cody–Waite, `n·LN2_HI` exact);
//!   `e^r = (p(r)·r² + r) + 1` with the degree-5 Cephes polynomial in
//!   Horner form; the result is that times `2ⁿ`, built by inserting
//!   `n + 127` into the exponent field. `exp(0) == 1` exactly. Below
//!   `x ≈ −87.68` the inserted exponent is 0 and the result is exactly
//!   `0.0` (no denormals); above 88 it stays at `exp(88)`, finite.
//! * `tanh(x)`: on `a = |x|`, below [`TANH_CROSSOVER`] the odd Cephes
//!   polynomial `a + a·z·q(z)`, `z = a²`; at or above it
//!   `1 − 2/(exp(2a) + 1)`; the sign of `x` is OR-ed back in, so `tanh`
//!   is bitwise odd, `tanh(±0) == ±0`, `|tanh| ≤ 1`, and it is exactly
//!   `±1` from `|x| ≈ 9.02` on.
//!
//! NaN in gives NaN out (payload unspecified); `±inf` clamp like any other
//! out-of-range input.
//!
//! # Error bounds
//!
//! Against an `f64` reference over every `f32` in range (measured once,
//! re-checked on dense sweeps in `tests/proptests.rs`): `exp` is within
//! 1 ulp on `[-87, 88]`; `tanh` within 2 ulp or `1.2e-7` absolute
//! everywhere, and non-decreasing across the crossover.
//!
//! # Determinism contract
//!
//! As for the products in the parent module: the AVX2 bodies run the
//! scalar body's operation sequence lane by lane — separate multiply and
//! add (the module is compiled without the `fma` feature, so contraction
//! cannot happen), round-to-nearest-even, the same integer exponent
//! insert, `vdivps` for `/` — so forced-scalar and dispatched results are
//! equal bit for bit and `DIAL_FORCE_SCALAR` changes speed only. An FMA
//! would round `p·r + c` once instead of twice and give different bits
//! from the scalar body on hosts without it.
//!
//! Reductions ([`softmax_rows`], [`logsumexp`]) fix one lane order for
//! both bodies: lane `l` of eight folds elements `8c + l`, the lanes
//! reduce as `((l0⊕l4)⊕(l2⊕l6)) ⊕ ((l1⊕l5)⊕(l3⊕l7))`, then the `len % 8`
//! tail folds in order. The AVX2 body computes the tail's exponentials in
//! one more eight-lane `exp` over a zero-padded load and folds only the
//! real lanes, in index order: the same operations per element, so a
//! 39-wide attention row costs what a 40-wide one does.

#[cfg(target_arch = "x86_64")]
use dial_simd::{simd_level, SimdLevel};

const EXP_LO: f32 = -88.0;
const EXP_HI: f32 = 88.0;
/// `1.5·2²³`: adding it to `|t| < 2²²` leaves `round(t)` in the low
/// mantissa bits, subtracting it gives `round(t)` back as a float.
const ROUND_MAGIC: f32 = 12_582_912.0;
/// `ln 2` split so that `n·LN2_HI` is exact for `|n| ≤ 2¹⁵`: `LN2_HI` is
/// `0.693359375 = 355/512`. (Here and below the literals are the shortest
/// decimals that parse to the Cephes constants' `f32` values.)
const LN2_HI: f32 = 0.693_359_4;
const LN2_LO: f32 = -2.121_944_4e-4;
/// Cephes `expf`: `e^r ≈ 1 + r + r²·p(r)` on `|r| ≤ ln2 / 2`, highest
/// degree first.
const EXP_P: [f32; 6] =
    [1.987_569_1e-4, 1.398_199_9e-3, 8.333_452e-3, 4.166_579_6e-2, 1.666_666_6e-1, 5e-1];

/// Below this `tanh` is the odd polynomial, from it on the `exp` form.
pub const TANH_CROSSOVER: f32 = 0.625;
/// Cephes `tanhf`: `tanh a ≈ a + a·z·q(z)`, `z = a²`, on `a < 0.625`,
/// highest degree first.
const TANH_Q: [f32; 5] =
    [-5.704_988_7e-3, 2.063_908_8e-2, -5.373_971_5e-2, 1.333_144_2e-1, -3.333_328e-1];

/// `sqrt(2/π)` of the tanh-form GELU.
pub(crate) const GELU_C: f32 = 0.797_884_6;
/// The cubic coefficient of the tanh-form GELU.
pub(crate) const GELU_K: f32 = 0.044715;

const SIGN: u32 = 0x8000_0000;

/// `e^x` — the workspace's definition, see the module docs.
#[inline]
pub fn exp(x: f32) -> f32 {
    // Written as selects so that NaN passes through both, as in
    // `_mm256_max_ps(lo, x)` / `_mm256_min_ps(hi, x)`.
    let x = if x < EXP_LO { EXP_LO } else { x };
    let x = if x > EXP_HI { EXP_HI } else { x };
    let shifted = x * std::f32::consts::LOG2_E + ROUND_MAGIC;
    let n = shifted - ROUND_MAGIC;
    let r = x - n * LN2_HI - n * LN2_LO;
    let mut p = EXP_P[0];
    for c in &EXP_P[1..] {
        p = p * r + c;
    }
    let y = p * (r * r) + r + 1.0;
    // `shifted`'s bits are `ROUND_MAGIC`'s plus `n`, and `ROUND_MAGIC`'s
    // low nine bits are zero: shifting left by 23 leaves `n + 127` in the
    // exponent field (`n ∈ [-127, 127]`, so the sign bit stays clear).
    y * f32::from_bits(shifted.to_bits().wrapping_add(127) << 23)
}

/// `tanh x` — the workspace's definition, see the module docs.
#[inline]
pub fn tanh(x: f32) -> f32 {
    let a = f32::from_bits(x.to_bits() & !SIGN);
    let t = if a < TANH_CROSSOVER {
        let z = a * a;
        let mut q = TANH_Q[0];
        for c in &TANH_Q[1..] {
            q = q * z + c;
        }
        q * z * a + a
    } else {
        1.0 - 2.0 / (exp(a + a) + 1.0)
    };
    f32::from_bits(t.to_bits() | (x.to_bits() & SIGN))
}

/// Logistic function `1 / (1 + e^{-x})` on [`exp`].
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + exp(-x))
}

/// One element of [`gelu`]: `(0.5·x·(1 + t), t)` with
/// `t = tanh(√(2/π)·(x + 0.044715·x³))`.
#[inline]
fn gelu1(x: f32) -> (f32, f32) {
    let t = tanh(GELU_C * (x + GELU_K * x * x * x));
    (0.5 * x * (1.0 + t), t)
}

/// `_mm256_max_ps(a, b)` for one lane: `b` unless `a` is greater.
#[inline]
fn max_sel(a: f32, b: f32) -> f32 {
    if a > b {
        a
    } else {
        b
    }
}

/// Eight max lanes, then the tail in order.
#[inline]
fn finish_max(l: [f32; 8], tail: &[f32]) -> f32 {
    let m = max_sel(
        max_sel(max_sel(l[0], l[4]), max_sel(l[2], l[6])),
        max_sel(max_sel(l[1], l[5]), max_sel(l[3], l[7])),
    );
    tail.iter().fold(m, |m, &v| max_sel(m, v))
}

/// Eight sum lanes, then the tail's exponentials `tail` in order, written
/// to `dst` when there is one.
#[inline]
fn finish_exp_sum(l: [f32; 8], tail: &[f32], dst: Option<&mut [f32]>) -> f32 {
    if let Some(d) = dst {
        d.copy_from_slice(tail);
    }
    let s = ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]));
    tail.iter().fold(s, |s, &e| s + e)
}

fn row_max_scalar(row: &[f32]) -> f32 {
    let mut lanes = [f32::NEG_INFINITY; 8];
    let chunks = row.chunks_exact(8);
    let tail = chunks.remainder();
    for c in chunks {
        for (l, &v) in lanes.iter_mut().zip(c) {
            *l = max_sel(*l, v);
        }
    }
    finish_max(lanes, tail)
}

/// `Σ exp(src_i − m)` in the module's lane order, the exponentials
/// written to `dst` (same length) when there is one.
fn exp_sum_scalar(src: &[f32], m: f32, mut dst: Option<&mut [f32]>) -> f32 {
    let mut lanes = [0.0f32; 8];
    let body = src.len() - src.len() % 8;
    for (c, chunk) in src[..body].chunks_exact(8).enumerate() {
        let mut e = [0.0f32; 8];
        for ((e, l), &v) in e.iter_mut().zip(&mut lanes).zip(chunk) {
            *e = exp(v - m);
            *l += *e;
        }
        if let Some(d) = dst.as_deref_mut() {
            d[8 * c..8 * c + 8].copy_from_slice(&e);
        }
    }
    let mut e = [0.0f32; 8];
    for (e, &v) in e.iter_mut().zip(&src[body..]) {
        *e = exp(v - m);
    }
    finish_exp_sum(lanes, &e[..src.len() - body], dst.map(|d| &mut d[body..]))
}

// ---- dispatched entry points ------------------------------------------------

/// `x ← exp(x)` element-wise.
pub fn exp_slice(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if simd_level() == SimdLevel::Avx2 {
        // SAFETY: `simd_level` reports Avx2 only when the CPU has it.
        return unsafe { avx2::exp_slice(xs) };
    }
    exp_slice_scalar(xs)
}

/// Scalar body of [`exp_slice`] (fallback and parity oracle).
pub fn exp_slice_scalar(xs: &mut [f32]) {
    xs.iter_mut().for_each(|x| *x = exp(*x));
}

/// `x ← tanh(x)` element-wise.
pub fn tanh_slice(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if simd_level() == SimdLevel::Avx2 {
        // SAFETY: `simd_level` reports Avx2 only when the CPU has it.
        return unsafe { avx2::tanh_slice(xs) };
    }
    tanh_slice_scalar(xs)
}

/// Scalar body of [`tanh_slice`] (fallback and parity oracle).
pub fn tanh_slice_scalar(xs: &mut [f32]) {
    xs.iter_mut().for_each(|x| *x = tanh(*x));
}

/// `x ← sigmoid(x)` element-wise.
pub fn sigmoid_slice(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if simd_level() == SimdLevel::Avx2 {
        // SAFETY: `simd_level` reports Avx2 only when the CPU has it.
        return unsafe { avx2::sigmoid_slice(xs) };
    }
    sigmoid_slice_scalar(xs)
}

/// Scalar body of [`sigmoid_slice`] (fallback and parity oracle).
pub fn sigmoid_slice_scalar(xs: &mut [f32]) {
    xs.iter_mut().for_each(|x| *x = sigmoid(*x));
}

/// Tanh-form GELU in one pass: `out_i = 0.5·x_i·(1 + t_i)` and
/// `tanh_out_i = t_i = tanh(√(2/π)·(x_i + 0.044715·x_i³))`, which the
/// backward pass needs again.
pub fn gelu(x: &[f32], out: &mut [f32], tanh_out: &mut [f32]) {
    assert_eq!(out.len(), x.len(), "gelu: output length");
    assert_eq!(tanh_out.len(), x.len(), "gelu: saved-tanh length");
    #[cfg(target_arch = "x86_64")]
    if simd_level() == SimdLevel::Avx2 {
        // SAFETY: `simd_level` reports Avx2 only when the CPU has it.
        return unsafe { avx2::gelu(x, out, tanh_out) };
    }
    gelu_scalar(x, out, tanh_out)
}

/// Scalar body of [`gelu`] (fallback and parity oracle).
pub fn gelu_scalar(x: &[f32], out: &mut [f32], tanh_out: &mut [f32]) {
    assert_eq!(out.len(), x.len());
    assert_eq!(tanh_out.len(), x.len());
    for ((&x, o), t) in x.iter().zip(out).zip(tanh_out) {
        (*o, *t) = gelu1(x);
    }
}

/// [`gelu`] overwriting its input and keeping no `tanh`: the forward-only
/// form, bitwise [`gelu`]'s `out`.
pub fn gelu_in_place(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if simd_level() == SimdLevel::Avx2 {
        // SAFETY: `simd_level` reports Avx2 only when the CPU has it.
        return unsafe { avx2::gelu_in_place(xs) };
    }
    xs.iter_mut().for_each(|x| *x = gelu1(*x).0)
}

/// Numerically stable softmax of every `cols`-wide row of `x` into `out`:
/// row max, `exp(x − max)` and its sum in the module's lane order, divide.
pub fn softmax_rows(x: &[f32], cols: usize, out: &mut [f32]) {
    assert_eq!(out.len(), x.len(), "softmax_rows: output length");
    assert!(x.is_empty() || (cols > 0 && x.len().is_multiple_of(cols)), "softmax_rows: row width");
    #[cfg(target_arch = "x86_64")]
    if simd_level() == SimdLevel::Avx2 {
        // SAFETY: `simd_level` reports Avx2 only when the CPU has it.
        return unsafe { avx2::softmax_rows(x, cols, out) };
    }
    softmax_rows_scalar(x, cols, out)
}

/// Scalar body of [`softmax_rows`] (fallback and parity oracle).
pub fn softmax_rows_scalar(x: &[f32], cols: usize, out: &mut [f32]) {
    assert_eq!(out.len(), x.len());
    assert!(x.is_empty() || (cols > 0 && x.len().is_multiple_of(cols)));
    for (row, o) in x.chunks_exact(cols.max(1)).zip(out.chunks_exact_mut(cols.max(1))) {
        let sum = exp_sum_scalar(row, row_max_scalar(row), Some(o));
        o.iter_mut().for_each(|v| *v /= sum);
    }
}

/// Numerically stable `ln Σ exp(row_i)`: `max + ln Σ exp(row_i − max)`,
/// `-inf` for an empty or all-`-inf` row. The one `ln` is libm's.
pub fn logsumexp(row: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if simd_level() == SimdLevel::Avx2 {
        // SAFETY: `simd_level` reports Avx2 only when the CPU has it.
        return unsafe { avx2::logsumexp(row) };
    }
    logsumexp_scalar(row)
}

/// Scalar body of [`logsumexp`] (fallback and parity oracle).
pub fn logsumexp_scalar(row: &[f32]) -> f32 {
    let max = row_max_scalar(row);
    if max == f32::NEG_INFINITY {
        return max;
    }
    max + exp_sum_scalar(row, max, None).ln()
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::*;
    use std::arch::x86_64::*;

    /// [`super::exp`] on eight lanes, operation for operation.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn exp8(x: __m256) -> __m256 {
        let x = _mm256_max_ps(_mm256_set1_ps(EXP_LO), x);
        let x = _mm256_min_ps(_mm256_set1_ps(EXP_HI), x);
        let magic = _mm256_set1_ps(ROUND_MAGIC);
        let shifted =
            _mm256_add_ps(_mm256_mul_ps(x, _mm256_set1_ps(std::f32::consts::LOG2_E)), magic);
        let n = _mm256_sub_ps(shifted, magic);
        let r = _mm256_sub_ps(x, _mm256_mul_ps(n, _mm256_set1_ps(LN2_HI)));
        let r = _mm256_sub_ps(r, _mm256_mul_ps(n, _mm256_set1_ps(LN2_LO)));
        let mut p = _mm256_set1_ps(EXP_P[0]);
        for &c in &EXP_P[1..] {
            p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(c));
        }
        let y = _mm256_add_ps(_mm256_mul_ps(p, _mm256_mul_ps(r, r)), r);
        let y = _mm256_add_ps(y, _mm256_set1_ps(1.0));
        let biased = _mm256_add_epi32(_mm256_castps_si256(shifted), _mm256_set1_epi32(127));
        _mm256_mul_ps(y, _mm256_castsi256_ps(_mm256_slli_epi32::<23>(biased)))
    }

    /// [`super::tanh`] on eight lanes: both branches, then a select.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn tanh8(x: __m256) -> __m256 {
        let sign = _mm256_castsi256_ps(_mm256_set1_epi32(SIGN as i32));
        let a = _mm256_andnot_ps(sign, x);
        let z = _mm256_mul_ps(a, a);
        let mut q = _mm256_set1_ps(TANH_Q[0]);
        for &c in &TANH_Q[1..] {
            q = _mm256_add_ps(_mm256_mul_ps(q, z), _mm256_set1_ps(c));
        }
        let small = _mm256_add_ps(_mm256_mul_ps(_mm256_mul_ps(q, z), a), a);
        let one = _mm256_set1_ps(1.0);
        let e = _mm256_add_ps(exp8(_mm256_add_ps(a, a)), one);
        let big = _mm256_sub_ps(one, _mm256_div_ps(_mm256_set1_ps(2.0), e));
        // Ordered compare: a NaN lane takes the `exp` branch, as in the
        // scalar body.
        let below = _mm256_cmp_ps::<_CMP_LT_OQ>(a, _mm256_set1_ps(TANH_CROSSOVER));
        let t = _mm256_blendv_ps(big, small, below);
        _mm256_or_ps(t, _mm256_and_ps(x, sign))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn sigmoid8(x: __m256) -> __m256 {
        let one = _mm256_set1_ps(1.0);
        // `-x` is a sign flip, as in the scalar body.
        let neg = _mm256_xor_ps(x, _mm256_castsi256_ps(_mm256_set1_epi32(SIGN as i32)));
        _mm256_div_ps(one, _mm256_add_ps(one, exp8(neg)))
    }

    /// `x ← f8(x)` eight at a time, `f1` on the `len % 8` tail.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn map_in_place(xs: &mut [f32], f8: impl Fn(__m256) -> __m256, f1: impl Fn(f32) -> f32) {
        let mut chunks = xs.chunks_exact_mut(8);
        for c in &mut chunks {
            debug_assert_eq!(c.len(), 8);
            // SAFETY: `chunks_exact_mut(8)` yields exactly eight floats.
            unsafe { _mm256_storeu_ps(c.as_mut_ptr(), f8(_mm256_loadu_ps(c.as_ptr()))) };
        }
        chunks.into_remainder().iter_mut().for_each(|x| *x = f1(*x));
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn exp_slice(xs: &mut [f32]) {
        map_in_place(xs, |v| exp8(v), exp)
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn tanh_slice(xs: &mut [f32]) {
        map_in_place(xs, |v| tanh8(v), tanh)
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn sigmoid_slice(xs: &mut [f32]) {
        map_in_place(xs, |v| sigmoid8(v), sigmoid)
    }

    /// [`super::gelu1`] on eight lanes: `(gelu(v), t)`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn gelu8(v: __m256) -> (__m256, __m256) {
        let (half, one) = (_mm256_set1_ps(0.5), _mm256_set1_ps(1.0));
        let (c, k) = (_mm256_set1_ps(GELU_C), _mm256_set1_ps(GELU_K));
        let cube = _mm256_mul_ps(_mm256_mul_ps(_mm256_mul_ps(k, v), v), v);
        let t = tanh8(_mm256_mul_ps(c, _mm256_add_ps(v, cube)));
        (_mm256_mul_ps(_mm256_mul_ps(half, v), _mm256_add_ps(one, t)), t)
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn gelu(x: &[f32], out: &mut [f32], tanh_out: &mut [f32]) {
        // Bounds of the raw stores below.
        assert_eq!(out.len(), x.len());
        assert_eq!(tanh_out.len(), x.len());
        let body = x.len() - x.len() % 8;
        for i in (0..body).step_by(8) {
            debug_assert!(i + 8 <= x.len());
            // SAFETY: `i + 8 <= body <= x.len()`, and `out` and `tanh_out`
            // have `x`'s length (asserted above).
            unsafe {
                let (y, t) = gelu8(_mm256_loadu_ps(x.as_ptr().add(i)));
                _mm256_storeu_ps(out.as_mut_ptr().add(i), y);
                _mm256_storeu_ps(tanh_out.as_mut_ptr().add(i), t);
            }
        }
        gelu_scalar(&x[body..], &mut out[body..], &mut tanh_out[body..]);
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn gelu_in_place(xs: &mut [f32]) {
        map_in_place(xs, |v| gelu8(v).0, |x| gelu1(x).0)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn lanes(v: __m256) -> [f32; 8] {
        let mut l = [0.0f32; 8];
        // SAFETY: `l` is eight floats.
        unsafe { _mm256_storeu_ps(l.as_mut_ptr(), v) };
        l
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn row_max(row: &[f32]) -> f32 {
        let mut acc = _mm256_set1_ps(f32::NEG_INFINITY);
        let chunks = row.chunks_exact(8);
        let tail = chunks.remainder();
        for c in chunks {
            debug_assert_eq!(c.len(), 8);
            // SAFETY: `chunks_exact(8)` yields exactly eight floats.
            acc = _mm256_max_ps(acc, unsafe { _mm256_loadu_ps(c.as_ptr()) });
        }
        finish_max(lanes(acc), tail)
    }

    /// [`exp_sum_scalar`] with the eight lanes in one register.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn exp_sum(src: &[f32], m: f32, mut dst: Option<&mut [f32]>) -> f32 {
        // Bound of the raw stores below.
        assert!(dst.as_ref().is_none_or(|d| d.len() == src.len()));
        let body = src.len() - src.len() % 8;
        let mv = _mm256_set1_ps(m);
        let mut acc = _mm256_setzero_ps();
        for i in (0..body).step_by(8) {
            debug_assert!(i + 8 <= src.len());
            // SAFETY: `i + 8 <= body <= src.len()`.
            let e = exp8(_mm256_sub_ps(unsafe { _mm256_loadu_ps(src.as_ptr().add(i)) }, mv));
            if let Some(d) = dst.as_deref_mut() {
                // SAFETY: `d` has `src`'s length (asserted above).
                unsafe { _mm256_storeu_ps(d.as_mut_ptr().add(i), e) };
            }
            acc = _mm256_add_ps(acc, e);
        }
        // The tail rides one more `exp8`, zero-padded; the padding lanes
        // are computed and dropped.
        let tail = &src[body..];
        let mut e = [0.0f32; 8];
        if !tail.is_empty() {
            e[..tail.len()].copy_from_slice(tail);
            // SAFETY: `e` is eight floats.
            e = lanes(exp8(_mm256_sub_ps(unsafe { _mm256_loadu_ps(e.as_ptr()) }, mv)));
        }
        finish_exp_sum(lanes(acc), &e[..tail.len()], dst.map(|d| &mut d[body..]))
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn softmax_rows(x: &[f32], cols: usize, out: &mut [f32]) {
        for (row, o) in x.chunks_exact(cols.max(1)).zip(out.chunks_exact_mut(cols.max(1))) {
            let sum = exp_sum(row, row_max(row), Some(o));
            o.iter_mut().for_each(|v| *v /= sum);
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn logsumexp(row: &[f32]) -> f32 {
        let max = row_max(row);
        if max == f32::NEG_INFINITY {
            return max;
        }
        max + exp_sum(row, max, None).ln()
    }
}
