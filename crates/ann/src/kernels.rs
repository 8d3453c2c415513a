//! Blocked batch distance kernels — the probe hot path.
//!
//! Every index family's scan used to call the scalar [`Metric::distance`]
//! one `(query, row)` pair at a time: a sequential float-accumulation
//! chain the compiler cannot vectorize (FP addition is not associative),
//! re-reading each row from memory once per query. These kernels rewrite
//! the scan the way FAISS does:
//!
//! * **Norm decomposition** — `‖q − r‖² = ‖q‖² + ‖r‖² − 2·q·r`, with
//!   `‖r‖²` precomputed once per index (and maintained through
//!   `add_batch`), turns the three-ops-per-element difference-square into
//!   a one-multiply-add dot product.
//! * **Lane-split accumulation** — dot products accumulate into
//!   [`LANES`] independent partial sums, breaking the loop-carried
//!   dependency so the inner loop autovectorizes and pipelines.
//! * **Blocking** — [`sq_l2_batch`] / [`cosine_batch`] score a *query
//!   block* against a *row block* into a distance tile before any top-k
//!   heap is touched; callers walk row blocks of [`ROW_BLOCK`] rows
//!   (cache-resident across the whole query block) and query blocks of
//!   [`QUERY_BLOCK`] queries, so each row is fetched from memory once
//!   per `QUERY_BLOCK` probes instead of once per probe.
//! * **Runtime SIMD dispatch** — each public kernel picks an
//!   implementation once per call from a capability level detected once
//!   per process ([`simd_level`], shared with `dial-tensor` through the
//!   `dial-simd` crate): explicit AVX2 intrinsics on x86-64
//!   that advertises AVX2+FMA, NEON on aarch64, and the original
//!   autovectorized loops as the scalar fallback (and the parity
//!   oracle — the `*_scalar` kernels are the pre-dispatch code,
//!   verbatim). `DIAL_FORCE_SCALAR=1` (or [`set_force_scalar`]) pins
//!   dispatch to the fallback at runtime, which is how the
//!   `tensor_ops` bench times its scalar baseline in the same process
//!   and how CI exercises the fallback path on SIMD hardware.
//!
//! Determinism contract: a given `(query, row)` pair produces the same
//! `f32` distance regardless of block boundaries, batch sizes, or which
//! caller computed it — the per-pair arithmetic is a pure function of the
//! two vectors. The SIMD paths are built to be **bitwise equal** to the
//! scalar kernels, not merely close: the AVX2 dot keeps the scalar
//! kernel's exact reduction shape (one 8-lane accumulator = the scalar
//! `acc[LANES]`, separate multiply and add — never FMA-contracted, even
//! though FMA gates dispatch — lane sums reduced in index order, then
//! the identical scalar tail). So `dot(v, v)` stays bitwise equal to the
//! stored norm of `v` under every dispatch level, a self-match scores
//! *exactly* `0.0` under L2, exact ties keep resolving by id, and
//! mixed-level runs (e.g. a force-scalar toggle between build and probe)
//! cannot disagree. Distances differ from the scalar
//! [`Metric::distance`] only in final-ulp rounding; every index family
//! routes through these kernels, so rankings stay mutually consistent
//! (`Sharded(Flat, n) == Flat` remains an exact equality).
//!
//! Compressed rows ([`crate::rowstore`]) enter through
//! [`distance_batch_rows`]: half-width components widen to f32 *inside*
//! the tile (fused `vcvtph2ps` / bf16 shift on AVX2, a software decode
//! elsewhere — the two produce bitwise-identical distances) and
//! accumulate in f32, so the only deviation from the f32 path is the
//! per-component storage rounding. Exact-ranking parity therefore cannot
//! hold for f16/bf16; those paths are gated on measured recall instead.
//!
//! [`Metric::distance`]: crate::metric::Metric::distance

use crate::metric::Metric;
use crate::rowstore::{bf16_to_f32, f16_to_f32, RowsView};
// The capability level and the force-scalar switch live in `dial-simd`,
// shared with `dial-tensor`: one toggle pins both crates' kernels.
pub use dial_simd::{force_scalar, set_force_scalar, simd_label, simd_level, SimdLevel};

/// Independent accumulator lanes in the dot-product inner loop. Eight
/// f32 lanes fill two SSE registers (or one AVX register) and leave the
/// compiler room to pipeline the multiply-adds.
pub const LANES: usize = 8;

/// Rows per scan block. `ROW_BLOCK · dim` floats stay cache-resident
/// while a whole query block is scored against them (128 rows × 128 dims
/// × 4 B = 64 KiB — L2-sized at the bench dimensionality).
pub const ROW_BLOCK: usize = 128;

/// Queries per probe block: each row block fetched from memory is reused
/// by this many queries before being evicted.
pub const QUERY_BLOCK: usize = 8;

/// Lane-split dot product; the deterministic reduction order (lane sums
/// in index order, then the scalar tail) is part of the kernel contract,
/// and every dispatch level reproduces it bitwise.
///
/// Panics if `a` and `b` differ in length: the vector paths read
/// `a.len()` floats of both.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert!(a.len() == b.len(), "dot: slices of length {} and {}", a.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    if simd_level() == SimdLevel::Avx2 {
        // SAFETY: `simd_level` reports Avx2 only when the CPU has it; the
        // vector loads read `a.len()` rounded down to 8 elements of each
        // slice, in bounds since the lengths were checked equal above.
        return unsafe { avx2::dot(a, b) };
    }
    #[cfg(target_arch = "aarch64")]
    if simd_level() == SimdLevel::Neon {
        // SAFETY: NEON is baseline on aarch64; the loads read `a.len()`
        // rounded down to 8 elements of each slice, in bounds since the
        // lengths were checked equal above.
        return unsafe { neon::dot(a, b) };
    }
    dot_scalar(a, b)
}

/// The pre-dispatch autovectorized dot — the parity oracle the SIMD
/// paths must match bitwise.
#[inline]
pub fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let split = a.len() - a.len() % LANES;
    let mut acc = [0.0f32; LANES];
    for (ca, cb) in a[..split].chunks_exact(LANES).zip(b[..split].chunks_exact(LANES)) {
        for l in 0..LANES {
            acc[l] += ca[l] * cb[l];
        }
    }
    let mut s = 0.0;
    for &l in &acc {
        s += l;
    }
    for (x, y) in a[split..].iter().zip(&b[split..]) {
        s += x * y;
    }
    s
}

/// Squared L2 norm of one vector — `dot(v, v)`, bitwise, which is what
/// makes kernel self-distances exactly zero.
#[inline]
pub fn sq_norm(v: &[f32]) -> f32 {
    dot(v, v)
}

/// Squared L2 norm of every packed row.
pub fn sq_norms(data: &[f32], dim: usize) -> Vec<f32> {
    data.chunks(dim).map(sq_norm).collect()
}

/// The per-row scalar each metric's kernel consumes: squared L2 norms
/// under [`Metric::L2`], Euclidean norms under [`Metric::Cosine`].
/// Indexes precompute this once per build and extend it on `add_batch`.
pub fn metric_norms(metric: Metric, data: &[f32], dim: usize) -> Vec<f32> {
    data.chunks(dim).map(|v| metric_norm(metric, v)).collect()
}

/// Single-row version of [`metric_norms`].
#[inline]
pub fn metric_norm(metric: Metric, v: &[f32]) -> f32 {
    match metric {
        Metric::L2 => sq_norm(v),
        Metric::Cosine => sq_norm(v).sqrt(),
    }
}

/// Squared-L2 distance tile: query block × row block → `out[qi·nr + ri]`.
///
/// `q_sq` / `r_sq` are the precomputed squared norms of the packed
/// `queries` / `rows`. Distances clamp at `0.0`: the decomposition can
/// round a near-self match a few ulps negative, and a clamped exact tie
/// still resolves deterministically by id downstream. The clamp is
/// NaN-preserving (`d < 0.0` is false for NaN), so corrupt input still
/// fails loudly in `TopK`'s ordering instead of silently ranking as a
/// perfect match.
pub fn sq_l2_batch(
    queries: &[f32],
    q_sq: &[f32],
    rows: &[f32],
    r_sq: &[f32],
    dim: usize,
    out: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if simd_level() == SimdLevel::Avx2 {
        // SAFETY: `simd_level` reports Avx2 only when the CPU has it; the
        // tile cuts query and row slices to `dim` by checked indexing before
        // any load.
        return unsafe { avx2::sq_l2_batch(queries, q_sq, rows, r_sq, dim, out) };
    }
    #[cfg(target_arch = "aarch64")]
    if simd_level() == SimdLevel::Neon {
        // SAFETY: NEON is baseline on aarch64; queries and rows both come
        // from `chunks_exact(dim)`, so every dot sees an equal-length pair.
        return unsafe { neon::sq_l2_batch(queries, q_sq, rows, r_sq, dim, out) };
    }
    sq_l2_batch_scalar(queries, q_sq, rows, r_sq, dim, out)
}

/// Pre-dispatch scalar implementation of [`sq_l2_batch`] (parity
/// oracle).
pub fn sq_l2_batch_scalar(
    queries: &[f32],
    q_sq: &[f32],
    rows: &[f32],
    r_sq: &[f32],
    dim: usize,
    out: &mut [f32],
) {
    let (nq, nr) = (q_sq.len(), r_sq.len());
    debug_assert_eq!(queries.len(), nq * dim);
    debug_assert_eq!(rows.len(), nr * dim);
    debug_assert_eq!(out.len(), nq * nr);
    for (qi, q) in queries.chunks_exact(dim.max(1)).enumerate() {
        let qs = q_sq[qi];
        let tile = &mut out[qi * nr..(qi + 1) * nr];
        for ((d, r), &rs) in tile.iter_mut().zip(rows.chunks_exact(dim.max(1))).zip(r_sq) {
            let raw = qs + rs - 2.0 * dot_scalar(q, r);
            *d = if raw < 0.0 { 0.0 } else { raw };
        }
    }
}

/// Cosine-distance tile (`1 − cos`), query block × row block.
///
/// `q_n` / `r_n` are *Euclidean* norms. A zero-norm side scores the
/// exact convention `1.0` ("no direction"), matching
/// [`Metric::distance`](crate::metric::Metric::distance).
pub fn cosine_batch(
    queries: &[f32],
    q_n: &[f32],
    rows: &[f32],
    r_n: &[f32],
    dim: usize,
    out: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if simd_level() == SimdLevel::Avx2 {
        // SAFETY: `simd_level` reports Avx2 only when the CPU has it; the
        // tile cuts query and row slices to `dim` by checked indexing before
        // any load.
        return unsafe { avx2::cosine_batch(queries, q_n, rows, r_n, dim, out) };
    }
    #[cfg(target_arch = "aarch64")]
    if simd_level() == SimdLevel::Neon {
        // SAFETY: NEON is baseline on aarch64; queries and rows both come
        // from `chunks_exact(dim)`, so every dot sees an equal-length pair.
        return unsafe { neon::cosine_batch(queries, q_n, rows, r_n, dim, out) };
    }
    cosine_batch_scalar(queries, q_n, rows, r_n, dim, out)
}

/// Pre-dispatch scalar implementation of [`cosine_batch`] (parity
/// oracle).
pub fn cosine_batch_scalar(
    queries: &[f32],
    q_n: &[f32],
    rows: &[f32],
    r_n: &[f32],
    dim: usize,
    out: &mut [f32],
) {
    let (nq, nr) = (q_n.len(), r_n.len());
    debug_assert_eq!(queries.len(), nq * dim);
    debug_assert_eq!(rows.len(), nr * dim);
    debug_assert_eq!(out.len(), nq * nr);
    for (qi, q) in queries.chunks_exact(dim.max(1)).enumerate() {
        let qn = q_n[qi];
        let tile = &mut out[qi * nr..(qi + 1) * nr];
        for ((d, r), &rn) in tile.iter_mut().zip(rows.chunks_exact(dim.max(1))).zip(r_n) {
            *d = if qn == 0.0 || rn == 0.0 { 1.0 } else { 1.0 - dot_scalar(q, r) / (qn * rn) };
        }
    }
}

/// Metric-dispatched tile kernel. `q_norms` / `r_norms` follow the
/// [`metric_norms`] convention for `metric`.
pub fn distance_batch(
    metric: Metric,
    queries: &[f32],
    q_norms: &[f32],
    rows: &[f32],
    r_norms: &[f32],
    dim: usize,
    out: &mut [f32],
) {
    match metric {
        Metric::L2 => sq_l2_batch(queries, q_norms, rows, r_norms, dim, out),
        Metric::Cosine => cosine_batch(queries, q_norms, rows, r_norms, dim, out),
    }
}

/// Metric-dispatched tile kernel over rows in their *stored* layout
/// ([`RowsView`]): the f32 arm is exactly [`distance_batch`]; the
/// half-width arms widen each component to f32 inside the tile (fused
/// `vcvtph2ps` / bf16 shift under AVX2, software decode otherwise — the
/// two are bitwise identical) and accumulate in f32. `r_norms` must be
/// the metric norms of the *decoded* rows, which is what
/// [`crate::RowStore::decoded_range`] yields at build time.
#[allow(clippy::too_many_arguments)]
pub fn distance_batch_rows(
    metric: Metric,
    queries: &[f32],
    q_norms: &[f32],
    rows: RowsView<'_>,
    r_norms: &[f32],
    dim: usize,
    out: &mut [f32],
) {
    match rows {
        RowsView::F32(r) => distance_batch(metric, queries, q_norms, r, r_norms, dim, out),
        RowsView::F16(r) => {
            #[cfg(target_arch = "x86_64")]
            if simd_level() == SimdLevel::Avx2 && dial_simd::has_f16c() {
                // SAFETY: AVX2 and F16C are both checked at runtime just
                // above; the tile cuts query and row slices to `dim` by
                // checked indexing before any load.
                return unsafe {
                    avx2::distance_batch_f16(metric, queries, q_norms, r, r_norms, dim, out)
                };
            }
            distance_batch_half_generic(metric, queries, q_norms, r, r_norms, dim, out, f16_to_f32)
        }
        RowsView::Bf16(r) => {
            #[cfg(target_arch = "x86_64")]
            if simd_level() == SimdLevel::Avx2 {
                // SAFETY: `simd_level` reports Avx2 only when the CPU has it;
                // the tile cuts query and row slices to `dim` by checked
                // indexing before any load.
                return unsafe {
                    avx2::distance_batch_bf16(metric, queries, q_norms, r, r_norms, dim, out)
                };
            }
            distance_batch_half_generic(metric, queries, q_norms, r, r_norms, dim, out, bf16_to_f32)
        }
    }
}

/// Fallback half-width tile: decode each row to f32 once (amortized
/// across the query block), then score with the dispatched [`dot`]. The
/// per-pair arithmetic — widen, multiply, lane-accumulate — is the same
/// as the fused AVX2 tiles, so both produce bitwise-identical distances.
#[allow(clippy::too_many_arguments)]
fn distance_batch_half_generic(
    metric: Metric,
    queries: &[f32],
    q_norms: &[f32],
    rows: &[u16],
    r_norms: &[f32],
    dim: usize,
    out: &mut [f32],
    decode: fn(u16) -> f32,
) {
    let (nq, nr) = (q_norms.len(), r_norms.len());
    debug_assert_eq!(queries.len(), nq * dim);
    debug_assert_eq!(rows.len(), nr * dim);
    debug_assert_eq!(out.len(), nq * nr);
    let mut rowbuf = vec![0.0f32; dim];
    for (ri, (r, &rn)) in rows.chunks_exact(dim.max(1)).zip(r_norms).enumerate() {
        for (dst, &h) in rowbuf.iter_mut().zip(r) {
            *dst = decode(h);
        }
        for qi in 0..nq {
            let q = &queries[qi * dim..(qi + 1) * dim];
            let qn = q_norms[qi];
            out[qi * nr + ri] = match metric {
                Metric::L2 => {
                    let raw = qn + rn - 2.0 * dot(q, &rowbuf);
                    if raw < 0.0 {
                        0.0
                    } else {
                        raw
                    }
                }
                Metric::Cosine => {
                    if qn == 0.0 || rn == 0.0 {
                        1.0
                    } else {
                        1.0 - dot(q, &rowbuf) / (qn * rn)
                    }
                }
            };
        }
    }
}

/// Gathered tile kernel for non-contiguous row sets (IVF posting lists,
/// HNSW neighbour lists): one query against `ids` rows of packed `data`,
/// `out[i]` = distance to `data[ids[i]]`. Produces bitwise the same
/// distance per pair as the contiguous kernels. Both metric arms consume
/// the cached `r_norms` — norms are never recomputed from row data at
/// gather time.
///
/// Panics if `query` is not `dim` floats long: the vector paths read
/// `query.len()` floats of every gathered row.
#[allow(clippy::too_many_arguments)] // mirrors the batch kernels' (data, norms) pairing
pub fn distance_gather(
    metric: Metric,
    query: &[f32],
    q_norm: f32,
    data: &[f32],
    r_norms: &[f32],
    dim: usize,
    ids: &[u32],
    out: &mut [f32],
) {
    assert!(query.len() == dim, "distance_gather: query of length {} for dim {dim}", query.len());
    #[cfg(target_arch = "x86_64")]
    if simd_level() == SimdLevel::Avx2 {
        // SAFETY: `simd_level` reports Avx2 only when the CPU has it; each
        // gathered row is cut to `dim` by checked indexing, and the loads
        // read `query.len()` of it — in bounds since `query.len() == dim`
        // was checked above.
        return unsafe {
            avx2::distance_gather(metric, query, q_norm, data, r_norms, dim, ids, out)
        };
    }
    #[cfg(target_arch = "aarch64")]
    if simd_level() == SimdLevel::Neon {
        // SAFETY: NEON is baseline on aarch64; each gathered row is cut to
        // `dim` by checked indexing, and the loads read `query.len()` of it —
        // in bounds since `query.len() == dim` was checked above.
        return unsafe {
            neon::distance_gather(metric, query, q_norm, data, r_norms, dim, ids, out)
        };
    }
    distance_gather_scalar(metric, query, q_norm, data, r_norms, dim, ids, out)
}

/// Pre-dispatch scalar implementation of [`distance_gather`] (parity
/// oracle).
#[allow(clippy::too_many_arguments)]
pub fn distance_gather_scalar(
    metric: Metric,
    query: &[f32],
    q_norm: f32,
    data: &[f32],
    r_norms: &[f32],
    dim: usize,
    ids: &[u32],
    out: &mut [f32],
) {
    debug_assert_eq!(ids.len(), out.len());
    match metric {
        Metric::L2 => {
            for (d, &id) in out.iter_mut().zip(ids) {
                let i = id as usize;
                let r = &data[i * dim..(i + 1) * dim];
                let raw = q_norm + r_norms[i] - 2.0 * dot_scalar(query, r);
                *d = if raw < 0.0 { 0.0 } else { raw };
            }
        }
        Metric::Cosine => {
            for (d, &id) in out.iter_mut().zip(ids) {
                let i = id as usize;
                let rn = r_norms[i];
                let r = &data[i * dim..(i + 1) * dim];
                *d = if q_norm == 0.0 || rn == 0.0 {
                    1.0
                } else {
                    1.0 - dot_scalar(query, r) / (q_norm * rn)
                };
            }
        }
    }
}

/// Index of the smallest `(distance, index)` entry — the shared argmin
/// for quantizer assignment and PQ encoding (ties keep the lowest index,
/// matching the scalar scans these kernels replaced). NaN entries are
/// never selected, under any dispatch level.
#[inline]
pub fn argmin(dists: &[f32]) -> usize {
    #[cfg(target_arch = "x86_64")]
    if simd_level() == SimdLevel::Avx2 {
        // SAFETY: `simd_level` reports Avx2 only when the CPU has it; the
        // loads stay below `dists.len()` rounded down to 8.
        return unsafe { avx2::argmin(dists) };
    }
    argmin_scalar(dists)
}

/// Pre-dispatch scalar implementation of [`argmin`] (parity oracle).
#[inline]
pub fn argmin_scalar(dists: &[f32]) -> usize {
    let mut best = (0usize, f32::INFINITY);
    for (i, &d) in dists.iter().enumerate() {
        if d < best.1 {
            best = (i, d);
        }
    }
    best.0
}

/// Explicit AVX2 kernels. Every dot keeps the scalar reduction shape —
/// one 8-lane accumulator per `(query, row)` pair (= the scalar
/// `acc[LANES]`), separate `vmulps`/`vaddps` (no FMA contraction), lane
/// sums in index order, identical scalar tail — so results are bitwise
/// equal to the scalar oracle. The tiles process four rows per
/// iteration with four *independent* accumulator chains ([`avx2::dot4`]):
/// each chain is still the single-accumulator reduction, but the four
/// hide `vaddps` latency behind each other — that instruction-level
/// parallelism, not wider math, is where the explicit path beats the
/// autovectorized scalar kernel (which carries one chain per pair).
/// Whole tiles carry `#[target_feature]` so the per-pair dots inline
/// into the scan loops.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{Metric, LANES};
    use crate::rowstore::{bf16_to_f32, f16_to_f32};
    use std::arch::x86_64::*;

    // SAFETY: callers guarantee AVX2 and `b.len() >= a.len()`; loads stop at
    // `a.len()` rounded down to 8.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let split = a.len() - a.len() % LANES;
        let mut acc = _mm256_setzero_ps();
        let mut i = 0;
        while i < split {
            let va = _mm256_loadu_ps(a.as_ptr().add(i));
            let vb = _mm256_loadu_ps(b.as_ptr().add(i));
            acc = _mm256_add_ps(acc, _mm256_mul_ps(va, vb));
            i += LANES;
        }
        reduce_with_tail(acc, &a[split..], &b[split..])
    }

    /// Four row-dots against one query, four independent accumulator
    /// chains. Each chain reduces exactly like the one-accumulator
    /// [`dot`] (same shape, same tail), so unrolling changes nothing
    /// bitwise — only the latency the chains hide from each other.
    // SAFETY: callers guarantee AVX2 and that every row is at least `q.len()`
    // long; loads stop at `q.len()` rounded down to 8.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn dot4(q: &[f32], r0: &[f32], r1: &[f32], r2: &[f32], r3: &[f32]) -> [f32; 4] {
        let split = q.len() - q.len() % LANES;
        let mut a0 = _mm256_setzero_ps();
        let mut a1 = _mm256_setzero_ps();
        let mut a2 = _mm256_setzero_ps();
        let mut a3 = _mm256_setzero_ps();
        let mut i = 0;
        while i < split {
            let vq = _mm256_loadu_ps(q.as_ptr().add(i));
            a0 = _mm256_add_ps(a0, _mm256_mul_ps(vq, _mm256_loadu_ps(r0.as_ptr().add(i))));
            a1 = _mm256_add_ps(a1, _mm256_mul_ps(vq, _mm256_loadu_ps(r1.as_ptr().add(i))));
            a2 = _mm256_add_ps(a2, _mm256_mul_ps(vq, _mm256_loadu_ps(r2.as_ptr().add(i))));
            a3 = _mm256_add_ps(a3, _mm256_mul_ps(vq, _mm256_loadu_ps(r3.as_ptr().add(i))));
            i += LANES;
        }
        let tq = &q[split..];
        [
            reduce_with_tail(a0, tq, &r0[split..]),
            reduce_with_tail(a1, tq, &r1[split..]),
            reduce_with_tail(a2, tq, &r2[split..]),
            reduce_with_tail(a3, tq, &r3[split..]),
        ]
    }

    /// Widening f16 dot: `vcvtph2ps` computes exactly
    /// [`f16_to_f32`], so chunks and tail agree bitwise.
    // SAFETY: callers guarantee AVX2 + F16C and `r.len() >= q.len()`; each
    // 8-wide u16 load stops at `q.len()` rounded down to 8.
    #[inline]
    #[target_feature(enable = "avx2,f16c")]
    unsafe fn dot_f16(q: &[f32], r: &[u16]) -> f32 {
        debug_assert_eq!(q.len(), r.len());
        let split = q.len() - q.len() % LANES;
        let mut acc = _mm256_setzero_ps();
        let mut i = 0;
        while i < split {
            let vq = _mm256_loadu_ps(q.as_ptr().add(i));
            let vr = _mm256_cvtph_ps(_mm_loadu_si128(r.as_ptr().add(i) as *const __m128i));
            acc = _mm256_add_ps(acc, _mm256_mul_ps(vq, vr));
            i += LANES;
        }
        reduce_with_tail_u16(acc, &q[split..], &r[split..], f16_to_f32)
    }

    /// Four-row [`dot_f16`] — same independent-chain unroll as [`dot4`].
    // SAFETY: callers guarantee AVX2 + F16C and that every row is at least
    // `q.len()` long; loads stop at `q.len()` rounded down to 8.
    #[inline]
    #[target_feature(enable = "avx2,f16c")]
    unsafe fn dot4_f16(q: &[f32], r0: &[u16], r1: &[u16], r2: &[u16], r3: &[u16]) -> [f32; 4] {
        let split = q.len() - q.len() % LANES;
        let mut a0 = _mm256_setzero_ps();
        let mut a1 = _mm256_setzero_ps();
        let mut a2 = _mm256_setzero_ps();
        let mut a3 = _mm256_setzero_ps();
        let mut i = 0;
        while i < split {
            let vq = _mm256_loadu_ps(q.as_ptr().add(i));
            let h0 = _mm256_cvtph_ps(_mm_loadu_si128(r0.as_ptr().add(i) as *const __m128i));
            let h1 = _mm256_cvtph_ps(_mm_loadu_si128(r1.as_ptr().add(i) as *const __m128i));
            let h2 = _mm256_cvtph_ps(_mm_loadu_si128(r2.as_ptr().add(i) as *const __m128i));
            let h3 = _mm256_cvtph_ps(_mm_loadu_si128(r3.as_ptr().add(i) as *const __m128i));
            a0 = _mm256_add_ps(a0, _mm256_mul_ps(vq, h0));
            a1 = _mm256_add_ps(a1, _mm256_mul_ps(vq, h1));
            a2 = _mm256_add_ps(a2, _mm256_mul_ps(vq, h2));
            a3 = _mm256_add_ps(a3, _mm256_mul_ps(vq, h3));
            i += LANES;
        }
        let tq = &q[split..];
        [
            reduce_with_tail_u16(a0, tq, &r0[split..], f16_to_f32),
            reduce_with_tail_u16(a1, tq, &r1[split..], f16_to_f32),
            reduce_with_tail_u16(a2, tq, &r2[split..], f16_to_f32),
            reduce_with_tail_u16(a3, tq, &r3[split..], f16_to_f32),
        ]
    }

    /// Widening bf16 dot: zero-extend each u16 into the high half of an
    /// f32 — exactly [`bf16_to_f32`].
    // SAFETY: callers guarantee AVX2 and `r.len() >= q.len()`; each 8-wide
    // u16 load stops at `q.len()` rounded down to 8.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn dot_bf16(q: &[f32], r: &[u16]) -> f32 {
        debug_assert_eq!(q.len(), r.len());
        let split = q.len() - q.len() % LANES;
        let mut acc = _mm256_setzero_ps();
        let mut i = 0;
        while i < split {
            let vq = _mm256_loadu_ps(q.as_ptr().add(i));
            let vr = widen_bf16(_mm_loadu_si128(r.as_ptr().add(i) as *const __m128i));
            acc = _mm256_add_ps(acc, _mm256_mul_ps(vq, vr));
            i += LANES;
        }
        reduce_with_tail_u16(acc, &q[split..], &r[split..], bf16_to_f32)
    }

    // SAFETY: register-only; callers guarantee AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn widen_bf16(half: __m128i) -> __m256 {
        _mm256_castsi256_ps(_mm256_slli_epi32(_mm256_cvtepu16_epi32(half), 16))
    }

    /// Four-row [`dot_bf16`] — same independent-chain unroll as [`dot4`].
    // SAFETY: callers guarantee AVX2 and that every row is at least `q.len()`
    // long; loads stop at `q.len()` rounded down to 8.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn dot4_bf16(q: &[f32], r0: &[u16], r1: &[u16], r2: &[u16], r3: &[u16]) -> [f32; 4] {
        let split = q.len() - q.len() % LANES;
        let mut a0 = _mm256_setzero_ps();
        let mut a1 = _mm256_setzero_ps();
        let mut a2 = _mm256_setzero_ps();
        let mut a3 = _mm256_setzero_ps();
        let mut i = 0;
        while i < split {
            let vq = _mm256_loadu_ps(q.as_ptr().add(i));
            let h0 = widen_bf16(_mm_loadu_si128(r0.as_ptr().add(i) as *const __m128i));
            let h1 = widen_bf16(_mm_loadu_si128(r1.as_ptr().add(i) as *const __m128i));
            let h2 = widen_bf16(_mm_loadu_si128(r2.as_ptr().add(i) as *const __m128i));
            let h3 = widen_bf16(_mm_loadu_si128(r3.as_ptr().add(i) as *const __m128i));
            a0 = _mm256_add_ps(a0, _mm256_mul_ps(vq, h0));
            a1 = _mm256_add_ps(a1, _mm256_mul_ps(vq, h1));
            a2 = _mm256_add_ps(a2, _mm256_mul_ps(vq, h2));
            a3 = _mm256_add_ps(a3, _mm256_mul_ps(vq, h3));
            i += LANES;
        }
        let tq = &q[split..];
        [
            reduce_with_tail_u16(a0, tq, &r0[split..], bf16_to_f32),
            reduce_with_tail_u16(a1, tq, &r1[split..], bf16_to_f32),
            reduce_with_tail_u16(a2, tq, &r2[split..], bf16_to_f32),
            reduce_with_tail_u16(a3, tq, &r3[split..], bf16_to_f32),
        ]
    }

    /// Store the accumulator and reduce exactly like the scalar kernel:
    /// lanes in index order, then the scalar tail.
    // SAFETY: callers guarantee AVX2; the one store writes the 8-lane local
    // `lanes` array.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn reduce_with_tail(acc: __m256, ta: &[f32], tb: &[f32]) -> f32 {
        let mut lanes = [0.0f32; LANES];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        let mut s = 0.0;
        for &l in &lanes {
            s += l;
        }
        for (x, y) in ta.iter().zip(tb) {
            s += x * y;
        }
        s
    }

    /// [`reduce_with_tail`] for packed half-width rows: the tail decodes
    /// each component with the same widening the vector body used.
    // SAFETY: callers guarantee AVX2; the one store writes the 8-lane local
    // `lanes` array.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn reduce_with_tail_u16(
        acc: __m256,
        ta: &[f32],
        tb: &[u16],
        decode: fn(u16) -> f32,
    ) -> f32 {
        let mut lanes = [0.0f32; LANES];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        let mut s = 0.0;
        for &l in &lanes {
            s += l;
        }
        for (x, &y) in ta.iter().zip(tb) {
            s += x * decode(y);
        }
        s
    }

    /// Fold a dot into the metric's distance — the same postlude every
    /// scalar kernel applies (L2 clamped at 0, cosine zero-norm → 1.0).
    #[inline]
    fn finish(metric: Metric, qn: f32, rn: f32, qr: f32) -> f32 {
        match metric {
            Metric::L2 => {
                let raw = qn + rn - 2.0 * qr;
                if raw < 0.0 {
                    0.0
                } else {
                    raw
                }
            }
            Metric::Cosine => {
                if qn == 0.0 || rn == 0.0 {
                    1.0
                } else {
                    1.0 - qr / (qn * rn)
                }
            }
        }
    }

    // SAFETY: callers guarantee AVX2; every slice handed to `dot`/`dot4` is
    // cut to `dim` by checked indexing, so each pair is equal-length.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sq_l2_batch(
        queries: &[f32],
        q_sq: &[f32],
        rows: &[f32],
        r_sq: &[f32],
        dim: usize,
        out: &mut [f32],
    ) {
        let (nq, nr) = (q_sq.len(), r_sq.len());
        debug_assert_eq!(queries.len(), nq * dim);
        debug_assert_eq!(rows.len(), nr * dim);
        debug_assert_eq!(out.len(), nq * nr);
        for (qi, q) in queries.chunks_exact(dim.max(1)).enumerate() {
            let qs = q_sq[qi];
            let tile = &mut out[qi * nr..(qi + 1) * nr];
            let mut ri = 0;
            while ri + 4 <= nr {
                let r = &rows[ri * dim..];
                let dots = dot4(
                    q,
                    &r[..dim],
                    &r[dim..2 * dim],
                    &r[2 * dim..3 * dim],
                    &r[3 * dim..4 * dim],
                );
                for (j, &qr) in dots.iter().enumerate() {
                    let raw = qs + r_sq[ri + j] - 2.0 * qr;
                    tile[ri + j] = if raw < 0.0 { 0.0 } else { raw };
                }
                ri += 4;
            }
            while ri < nr {
                let raw = qs + r_sq[ri] - 2.0 * dot(q, &rows[ri * dim..(ri + 1) * dim]);
                tile[ri] = if raw < 0.0 { 0.0 } else { raw };
                ri += 1;
            }
        }
    }

    // SAFETY: callers guarantee AVX2; every slice handed to `dot`/`dot4` is
    // cut to `dim` by checked indexing, so each pair is equal-length.
    #[target_feature(enable = "avx2")]
    pub unsafe fn cosine_batch(
        queries: &[f32],
        q_n: &[f32],
        rows: &[f32],
        r_n: &[f32],
        dim: usize,
        out: &mut [f32],
    ) {
        let (nq, nr) = (q_n.len(), r_n.len());
        debug_assert_eq!(queries.len(), nq * dim);
        debug_assert_eq!(rows.len(), nr * dim);
        debug_assert_eq!(out.len(), nq * nr);
        for (qi, q) in queries.chunks_exact(dim.max(1)).enumerate() {
            let qn = q_n[qi];
            let tile = &mut out[qi * nr..(qi + 1) * nr];
            let mut ri = 0;
            while ri + 4 <= nr {
                let r = &rows[ri * dim..];
                let dots = dot4(
                    q,
                    &r[..dim],
                    &r[dim..2 * dim],
                    &r[2 * dim..3 * dim],
                    &r[3 * dim..4 * dim],
                );
                for (j, &qr) in dots.iter().enumerate() {
                    let rn = r_n[ri + j];
                    tile[ri + j] = if qn == 0.0 || rn == 0.0 { 1.0 } else { 1.0 - qr / (qn * rn) };
                }
                ri += 4;
            }
            while ri < nr {
                let rn = r_n[ri];
                tile[ri] = if qn == 0.0 || rn == 0.0 {
                    1.0
                } else {
                    1.0 - dot(q, &rows[ri * dim..(ri + 1) * dim]) / (qn * rn)
                };
                ri += 1;
            }
        }
    }

    // SAFETY: callers guarantee AVX2 and `query.len() == dim`; every gathered
    // row is cut to `dim` by checked indexing.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub unsafe fn distance_gather(
        metric: Metric,
        query: &[f32],
        q_norm: f32,
        data: &[f32],
        r_norms: &[f32],
        dim: usize,
        ids: &[u32],
        out: &mut [f32],
    ) {
        debug_assert_eq!(ids.len(), out.len());
        let mut n = 0;
        while n + 4 <= ids.len() {
            let (i0, i1, i2, i3) =
                (ids[n] as usize, ids[n + 1] as usize, ids[n + 2] as usize, ids[n + 3] as usize);
            let dots = dot4(
                query,
                &data[i0 * dim..(i0 + 1) * dim],
                &data[i1 * dim..(i1 + 1) * dim],
                &data[i2 * dim..(i2 + 1) * dim],
                &data[i3 * dim..(i3 + 1) * dim],
            );
            for (j, &qr) in dots.iter().enumerate() {
                out[n + j] = finish(metric, q_norm, r_norms[ids[n + j] as usize], qr);
            }
            n += 4;
        }
        for (d, &id) in out[n..].iter_mut().zip(&ids[n..]) {
            let i = id as usize;
            let qr = dot(query, &data[i * dim..(i + 1) * dim]);
            *d = finish(metric, q_norm, r_norms[i], qr);
        }
    }

    // SAFETY: callers guarantee AVX2 + F16C; queries and rows are cut to
    // `dim` by checked indexing, so each pair is equal-length.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,f16c")]
    pub unsafe fn distance_batch_f16(
        metric: Metric,
        queries: &[f32],
        q_norms: &[f32],
        rows: &[u16],
        r_norms: &[f32],
        dim: usize,
        out: &mut [f32],
    ) {
        let (nq, nr) = (q_norms.len(), r_norms.len());
        debug_assert_eq!(queries.len(), nq * dim);
        debug_assert_eq!(rows.len(), nr * dim);
        debug_assert_eq!(out.len(), nq * nr);
        for qi in 0..nq {
            let q = &queries[qi * dim..(qi + 1) * dim];
            let qn = q_norms[qi];
            let tile = &mut out[qi * nr..(qi + 1) * nr];
            let mut ri = 0;
            while ri + 4 <= nr {
                let r = &rows[ri * dim..];
                let dots = dot4_f16(
                    q,
                    &r[..dim],
                    &r[dim..2 * dim],
                    &r[2 * dim..3 * dim],
                    &r[3 * dim..4 * dim],
                );
                for (j, &qr) in dots.iter().enumerate() {
                    tile[ri + j] = finish(metric, qn, r_norms[ri + j], qr);
                }
                ri += 4;
            }
            while ri < nr {
                let qr = dot_f16(q, &rows[ri * dim..(ri + 1) * dim]);
                tile[ri] = finish(metric, qn, r_norms[ri], qr);
                ri += 1;
            }
        }
    }

    // SAFETY: callers guarantee AVX2; queries and rows are cut to `dim` by
    // checked indexing, so each pair is equal-length.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub unsafe fn distance_batch_bf16(
        metric: Metric,
        queries: &[f32],
        q_norms: &[f32],
        rows: &[u16],
        r_norms: &[f32],
        dim: usize,
        out: &mut [f32],
    ) {
        let (nq, nr) = (q_norms.len(), r_norms.len());
        debug_assert_eq!(queries.len(), nq * dim);
        debug_assert_eq!(rows.len(), nr * dim);
        debug_assert_eq!(out.len(), nq * nr);
        for qi in 0..nq {
            let q = &queries[qi * dim..(qi + 1) * dim];
            let qn = q_norms[qi];
            let tile = &mut out[qi * nr..(qi + 1) * nr];
            let mut ri = 0;
            while ri + 4 <= nr {
                let r = &rows[ri * dim..];
                let dots = dot4_bf16(
                    q,
                    &r[..dim],
                    &r[dim..2 * dim],
                    &r[2 * dim..3 * dim],
                    &r[3 * dim..4 * dim],
                );
                for (j, &qr) in dots.iter().enumerate() {
                    tile[ri + j] = finish(metric, qn, r_norms[ri + j], qr);
                }
                ri += 4;
            }
            while ri < nr {
                let qr = dot_bf16(q, &rows[ri * dim..(ri + 1) * dim]);
                tile[ri] = finish(metric, qn, r_norms[ri], qr);
                ri += 1;
            }
        }
    }

    /// Vector min over 8-lane chunks, then a scalar pass to find the
    /// first index holding the chunk minimum, then the scalar tail.
    /// `_mm256_min_ps(x, acc)` returns `acc` when `x` is NaN (the
    /// comparison is false), matching the scalar `d < best` skip.
    // SAFETY: callers guarantee AVX2; loads stop at `dists.len()` rounded
    // down to 8, and the one store writes the local `lanes` array.
    #[target_feature(enable = "avx2")]
    pub unsafe fn argmin(dists: &[f32]) -> usize {
        let split = dists.len() - dists.len() % LANES;
        let mut best = (0usize, f32::INFINITY);
        if split > 0 {
            let mut vmin = _mm256_set1_ps(f32::INFINITY);
            let mut i = 0;
            while i < split {
                let v = _mm256_loadu_ps(dists.as_ptr().add(i));
                // `v < vmin ? v : vmin` — NaN lanes keep vmin.
                vmin = _mm256_blendv_ps(vmin, v, _mm256_cmp_ps(v, vmin, _CMP_LT_OQ));
                i += LANES;
            }
            let mut lanes = [f32::INFINITY; LANES];
            _mm256_storeu_ps(lanes.as_mut_ptr(), vmin);
            let mut m = f32::INFINITY;
            for &l in &lanes {
                if l < m {
                    m = l;
                }
            }
            // First occurrence of the minimum = what the scalar scan
            // returns (ties keep the lowest index). If no lane went
            // below the INFINITY seed (all NaN/inf), the scalar scan
            // never moved either — leave `best` at index 0.
            if m < f32::INFINITY {
                for (i, &d) in dists[..split].iter().enumerate() {
                    if d <= m {
                        best = (i, d);
                        break;
                    }
                }
            }
        }
        for (i, &d) in dists.iter().enumerate().skip(split) {
            if d < best.1 {
                best = (i, d);
            }
        }
        best.0
    }
}

/// NEON kernels (baseline on aarch64). Same bitwise contract as AVX2:
/// two 4-lane accumulators stand in for the scalar `acc[0..4]` /
/// `acc[4..8]`, multiplies and adds stay separate (`vmulq`+`vaddq`,
/// never `vmlaq`/`vfmaq`), lanes reduce in index order, identical scalar
/// tail.
#[cfg(target_arch = "aarch64")]
mod neon {
    use super::{Metric, LANES};
    use std::arch::aarch64::*;

    // SAFETY: NEON is baseline on aarch64; callers guarantee `b.len() >=
    // a.len()`, and loads stop at `a.len()` rounded down to 8.
    #[inline]
    pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let split = a.len() - a.len() % LANES;
        let mut acc0 = vdupq_n_f32(0.0);
        let mut acc1 = vdupq_n_f32(0.0);
        let mut i = 0;
        while i < split {
            let a0 = vld1q_f32(a.as_ptr().add(i));
            let b0 = vld1q_f32(b.as_ptr().add(i));
            let a1 = vld1q_f32(a.as_ptr().add(i + 4));
            let b1 = vld1q_f32(b.as_ptr().add(i + 4));
            acc0 = vaddq_f32(acc0, vmulq_f32(a0, b0));
            acc1 = vaddq_f32(acc1, vmulq_f32(a1, b1));
            i += LANES;
        }
        let mut lanes = [0.0f32; LANES];
        vst1q_f32(lanes.as_mut_ptr(), acc0);
        vst1q_f32(lanes.as_mut_ptr().add(4), acc1);
        let mut s = 0.0;
        for &l in &lanes {
            s += l;
        }
        for (x, y) in a[split..].iter().zip(&b[split..]) {
            s += x * y;
        }
        s
    }

    // SAFETY: NEON is baseline on aarch64; both sides come from
    // `chunks_exact(dim)`, so every `dot` pair is equal-length.
    pub unsafe fn sq_l2_batch(
        queries: &[f32],
        q_sq: &[f32],
        rows: &[f32],
        r_sq: &[f32],
        dim: usize,
        out: &mut [f32],
    ) {
        let (nq, nr) = (q_sq.len(), r_sq.len());
        debug_assert_eq!(queries.len(), nq * dim);
        debug_assert_eq!(rows.len(), nr * dim);
        debug_assert_eq!(out.len(), nq * nr);
        for (qi, q) in queries.chunks_exact(dim.max(1)).enumerate() {
            let qs = q_sq[qi];
            let tile = &mut out[qi * nr..(qi + 1) * nr];
            for ((d, r), &rs) in tile.iter_mut().zip(rows.chunks_exact(dim.max(1))).zip(r_sq) {
                let raw = qs + rs - 2.0 * dot(q, r);
                *d = if raw < 0.0 { 0.0 } else { raw };
            }
        }
    }

    // SAFETY: NEON is baseline on aarch64; both sides come from
    // `chunks_exact(dim)`, so every `dot` pair is equal-length.
    pub unsafe fn cosine_batch(
        queries: &[f32],
        q_n: &[f32],
        rows: &[f32],
        r_n: &[f32],
        dim: usize,
        out: &mut [f32],
    ) {
        let (nq, nr) = (q_n.len(), r_n.len());
        debug_assert_eq!(queries.len(), nq * dim);
        debug_assert_eq!(rows.len(), nr * dim);
        debug_assert_eq!(out.len(), nq * nr);
        for (qi, q) in queries.chunks_exact(dim.max(1)).enumerate() {
            let qn = q_n[qi];
            let tile = &mut out[qi * nr..(qi + 1) * nr];
            for ((d, r), &rn) in tile.iter_mut().zip(rows.chunks_exact(dim.max(1))).zip(r_n) {
                *d = if qn == 0.0 || rn == 0.0 { 1.0 } else { 1.0 - dot(q, r) / (qn * rn) };
            }
        }
    }

    // SAFETY: NEON is baseline on aarch64; callers guarantee `query.len() ==
    // dim`, and every gathered row is cut to `dim` by checked indexing.
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn distance_gather(
        metric: Metric,
        query: &[f32],
        q_norm: f32,
        data: &[f32],
        r_norms: &[f32],
        dim: usize,
        ids: &[u32],
        out: &mut [f32],
    ) {
        debug_assert_eq!(ids.len(), out.len());
        match metric {
            Metric::L2 => {
                for (d, &id) in out.iter_mut().zip(ids) {
                    let i = id as usize;
                    let r = &data[i * dim..(i + 1) * dim];
                    let raw = q_norm + r_norms[i] - 2.0 * dot(query, r);
                    *d = if raw < 0.0 { 0.0 } else { raw };
                }
            }
            Metric::Cosine => {
                for (d, &id) in out.iter_mut().zip(ids) {
                    let i = id as usize;
                    let rn = r_norms[i];
                    let r = &data[i * dim..(i + 1) * dim];
                    *d = if q_norm == 0.0 || rn == 0.0 {
                        1.0
                    } else {
                        1.0 - dot(query, r) / (q_norm * rn)
                    };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::sq_l2;
    use crate::rowstore::{f32_to_bf16, f32_to_f16};

    fn vecs(n: usize, dim: usize, seed: u32) -> Vec<f32> {
        // Small deterministic pseudo-random data, no RNG dependency.
        (0..n * dim)
            .map(|i| {
                let x = (i as u32).wrapping_mul(2654435761).wrapping_add(seed);
                ((x >> 8) & 0xffff) as f32 / 6553.6 - 5.0
            })
            .collect()
    }

    #[test]
    fn dot_matches_naive_closely() {
        for len in [0usize, 1, 5, 8, 13, 64, 100] {
            let a = vecs(1, len.max(1), 1);
            let b = vecs(1, len.max(1), 2);
            let (a, b) = (&a[..len], &b[..len]);
            let naive: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
            assert!((dot(a, b) - naive).abs() <= 1e-3 * (1.0 + naive.abs()), "len={len}");
        }
    }

    #[test]
    fn dispatched_dot_is_bitwise_the_scalar_dot() {
        // The core parity claim: whatever simd_level() picked, dot ==
        // dot_scalar bitwise, including ragged tails.
        for len in [0usize, 1, 7, 8, 9, 16, 37, 128, 131] {
            let a = vecs(1, len.max(1), 21);
            let b = vecs(1, len.max(1), 22);
            let (a, b) = (&a[..len], &b[..len]);
            assert_eq!(
                dot(a, b).to_bits(),
                dot_scalar(a, b).to_bits(),
                "len={len} level={:?}",
                simd_level()
            );
        }
    }

    #[test]
    fn sq_l2_batch_matches_scalar_within_tolerance() {
        let dim = 13; // deliberately not a multiple of LANES
        let (queries, rows) = (vecs(3, dim, 7), vecs(9, dim, 8));
        let q_sq = sq_norms(&queries, dim);
        let r_sq = sq_norms(&rows, dim);
        let mut out = vec![0.0; 3 * 9];
        sq_l2_batch(&queries, &q_sq, &rows, &r_sq, dim, &mut out);
        for qi in 0..3 {
            for ri in 0..9 {
                let want =
                    sq_l2(&queries[qi * dim..(qi + 1) * dim], &rows[ri * dim..(ri + 1) * dim]);
                let got = out[qi * 9 + ri];
                assert!((got - want).abs() < 1e-3, "q{qi} r{ri}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn self_distance_is_exactly_zero() {
        let dim = 37;
        let rows = vecs(4, dim, 3);
        let sq = sq_norms(&rows, dim);
        let mut out = vec![0.0; 4 * 4];
        sq_l2_batch(&rows, &sq, &rows, &sq, dim, &mut out);
        for i in 0..4 {
            assert_eq!(out[i * 4 + i], 0.0, "row {i} self-distance");
        }
    }

    #[test]
    fn cosine_batch_matches_scalar_and_zero_convention() {
        let dim = 10;
        let mut rows = vecs(5, dim, 9);
        rows[3 * dim..4 * dim].fill(0.0); // a zero row
        let queries = vecs(2, dim, 11);
        let q_n = metric_norms(Metric::Cosine, &queries, dim);
        let r_n = metric_norms(Metric::Cosine, &rows, dim);
        let mut out = vec![0.0; 2 * 5];
        cosine_batch(&queries, &q_n, &rows, &r_n, dim, &mut out);
        for qi in 0..2 {
            for ri in 0..5 {
                let want = Metric::Cosine
                    .distance(&queries[qi * dim..(qi + 1) * dim], &rows[ri * dim..(ri + 1) * dim]);
                let got = out[qi * 5 + ri];
                assert!((got - want).abs() < 1e-4, "q{qi} r{ri}: {got} vs {want}");
            }
            assert_eq!(out[qi * 5 + 3], 1.0, "zero row scores the 1.0 convention");
        }
    }

    #[test]
    fn gather_matches_contiguous_kernel_bitwise() {
        let dim = 12;
        let rows = vecs(8, dim, 5);
        let q = vecs(1, dim, 6);
        for metric in [Metric::L2, Metric::Cosine] {
            let r_norms = metric_norms(metric, &rows, dim);
            let q_norms = metric_norms(metric, &q, dim);
            let mut dense = vec![0.0; 8];
            distance_batch(metric, &q, &q_norms, &rows, &r_norms, dim, &mut dense);
            let ids: Vec<u32> = vec![6, 0, 3, 3, 7];
            let mut gathered = vec![0.0; ids.len()];
            distance_gather(metric, &q, q_norms[0], &rows, &r_norms, dim, &ids, &mut gathered);
            for (g, &id) in gathered.iter().zip(&ids) {
                assert_eq!(*g, dense[id as usize], "{metric:?} id {id}");
            }
        }
    }

    #[test]
    fn nan_rows_propagate_instead_of_ranking_first() {
        // The negative-rounding clamp must not swallow NaN: a corrupt
        // row has to surface as NaN (loud downstream panic), never as a
        // perfect 0.0 match.
        let dim = 4;
        let mut rows = vecs(3, dim, 1);
        rows[dim] = f32::NAN; // corrupt row 1
        let q = vecs(1, dim, 2);
        let r_sq = sq_norms(&rows, dim);
        let q_sq = sq_norms(&q, dim);
        let mut out = vec![0.0; 3];
        sq_l2_batch(&q, &q_sq, &rows, &r_sq, dim, &mut out);
        assert!(out[1].is_nan(), "corrupt row must score NaN, got {}", out[1]);
        assert!(!out[0].is_nan() && !out[2].is_nan());
        let mut gathered = vec![0.0; 3];
        distance_gather(Metric::L2, &q, q_sq[0], &rows, &r_sq, dim, &[0, 1, 2], &mut gathered);
        assert!(gathered[1].is_nan());
    }

    #[test]
    #[should_panic(expected = "dot: slices of length 9 and 8")]
    fn dot_rejects_a_length_mismatch() {
        // A longer first slice would have the vector loads read past the
        // end of the second one.
        let (a, b) = (vecs(1, 9, 1), vecs(1, 8, 2));
        dot(&a, &b);
    }

    #[test]
    #[should_panic(expected = "distance_gather: query of length 16 for dim 8")]
    fn gather_rejects_a_query_wider_than_dim() {
        // Every gathered row is `dim` wide; a wider query would have the
        // vector loads read past the end of the last row.
        let dim = 8;
        let rows = vecs(2, dim, 3);
        let r_norms = metric_norms(Metric::L2, &rows, dim);
        let q = vecs(1, 2 * dim, 4);
        let mut out = vec![0.0; 1];
        distance_gather(Metric::L2, &q, 1.0, &rows, &r_norms, dim, &[1], &mut out);
    }

    #[test]
    fn argmin_ties_keep_lowest_index() {
        assert_eq!(argmin(&[3.0, 1.0, 1.0, 2.0]), 1);
        assert_eq!(argmin(&[f32::INFINITY]), 0);
        assert_eq!(argmin(&[]), 0);
    }

    #[test]
    fn argmin_matches_scalar_across_shapes_and_nans() {
        let mut d = vecs(1, 43, 17);
        d[5] = f32::NAN;
        d[40] = f32::NAN;
        for len in [0usize, 1, 3, 8, 9, 16, 20, 43] {
            assert_eq!(argmin(&d[..len]), argmin_scalar(&d[..len]), "len={len}");
        }
        // A duplicated minimum keeps the lowest index under dispatch too.
        let mut tied = vecs(1, 24, 9);
        let m = tied.iter().cloned().fold(f32::INFINITY, f32::min);
        tied[3] = m - 1.0;
        tied[19] = m - 1.0;
        assert_eq!(argmin(&tied), 3);
        assert_eq!(argmin(&tied), argmin_scalar(&tied));
    }

    #[test]
    fn force_scalar_toggle_changes_label_and_nothing_else() {
        let was = force_scalar();
        set_force_scalar(true);
        assert_eq!(simd_label(), "scalar");
        let a = vecs(1, 19, 4);
        let b = vecs(1, 19, 5);
        let forced = dot(&a, &b);
        set_force_scalar(was);
        // Bitwise parity means forcing scalar never changes a result.
        assert_eq!(forced.to_bits(), dot(&a, &b).to_bits());
    }

    #[test]
    fn compressed_tiles_match_generic_decode_bitwise() {
        // The fused AVX2 half-width tiles and the software decode path
        // must agree bitwise (on scalar-only hosts this degenerates to
        // generic == generic, which still pins the layout handling).
        let dim = 13; // ragged tail on purpose
        let (nq, nr) = (3usize, 7usize);
        let queries = vecs(nq, dim, 31);
        let rows_f32 = vecs(nr, dim, 32);
        for f16 in [true, false] {
            let encode: fn(f32) -> u16 = if f16 { f32_to_f16 } else { f32_to_bf16 };
            let decode: fn(u16) -> f32 = if f16 { f16_to_f32 } else { bf16_to_f32 };
            let packed: Vec<u16> = rows_f32.iter().map(|&x| encode(x)).collect();
            let view = if f16 { RowsView::F16(&packed) } else { RowsView::Bf16(&packed) };
            for metric in [Metric::L2, Metric::Cosine] {
                let q_norms = metric_norms(metric, &queries, dim);
                // Norms come from the decoded rows, per the rowstore
                // contract.
                let decoded: Vec<f32> = packed.iter().map(|&h| decode(h)).collect();
                let r_norms = metric_norms(metric, &decoded, dim);
                let mut fused = vec![0.0; nq * nr];
                distance_batch_rows(metric, &queries, &q_norms, view, &r_norms, dim, &mut fused);
                // Oracle: score the decoded f32 rows with the plain tile.
                let mut viaf32 = vec![0.0; nq * nr];
                distance_batch(metric, &queries, &q_norms, &decoded, &r_norms, dim, &mut viaf32);
                for (i, (a, b)) in fused.iter().zip(&viaf32).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "{metric:?} cell {i}");
                }
            }
        }
    }
}
