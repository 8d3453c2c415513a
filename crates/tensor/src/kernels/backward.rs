//! The backward arithmetic of the ops under the matcher's trunk and head,
//! and the dropout whose mask both directions share.
//!
//! Each has one definition, here, on plain slices. `Graph::backward`
//! calls them on the tape's node values, and `dial-tplm` /
//! `dial-core`'s tapeless backward calls them on saved activations, so
//! the two cannot drift apart: every gradient element is the same scalar
//! expression, and every sum runs over the same elements in the same
//! order. A matrix is passed as its row-major slice; shapes are the
//! explicit arguments or the row-vector widths, as in the `rows` module.
//!
//! Every function *overwrites* its outputs. How a gradient combines with
//! what a value already holds — copied if it is the first contribution,
//! added otherwise — is the caller's wiring.

use super::rows::{row_moments, row_sums, LN_ROWS};
use super::transcendental::{GELU_C, GELU_K};
use super::{matmul, matmul_t, t_matmul};
use crate::matrix::dot;
use rand::Rng;

/// Both gradients of `y = a · b` for `a[m×k]`, `b[k×n]` and `g = dy`
/// (`[m×n]`): `da = g · bᵀ` (`[m×k]`) and `db = aᵀ · g` (`[k×n]`).
#[allow(clippy::too_many_arguments)]
pub fn matmul_backward(
    a: &[f32],
    b: &[f32],
    g: &[f32],
    m: usize,
    k: usize,
    n: usize,
    da: &mut [f32],
    db: &mut [f32],
) {
    matmul_t(g, b, m, k, n, da);
    t_matmul(a, g, m, k, n, db);
}

/// Both gradients of `y = a · bᵀ` for `a[m×k]`, `b[n×k]` and `g = dy`
/// (`[m×n]`): `da = g · b` (`[m×k]`) and `db = gᵀ · a` (`[n×k]`).
#[allow(clippy::too_many_arguments)]
pub fn matmul_t_backward(
    a: &[f32],
    b: &[f32],
    g: &[f32],
    m: usize,
    n: usize,
    k: usize,
    da: &mut [f32],
    db: &mut [f32],
) {
    matmul(g, b, m, n, k, da);
    t_matmul(g, a, m, n, k, db);
}

/// Gradient of the bias of a broadcast row add: `db[c] = Σ_r g[r, c]`
/// over the `db.len()`-wide rows of `g`, rows in order, from `0.0`.
pub fn add_row_backward(g: &[f32], db: &mut [f32]) {
    db.fill(0.0);
    for row in g.chunks_exact(db.len().max(1)) {
        for (o, x) in db.iter_mut().zip(row) {
            *o += x;
        }
    }
}

/// Gradients of [`layer_norm_rows`](super::layer_norm_rows) over the
/// `gain.len()`-wide rows of its input `x`, given `g` (the output's
/// gradient): `dx`, and `dgain` / `dbias` summed over rows in order.
pub fn layer_norm_backward(
    x: &[f32],
    gain: &[f32],
    g: &[f32],
    dx: &mut [f32],
    dgain: &mut [f32],
    dbias: &mut [f32],
) {
    let cols = gain.len();
    assert!(cols > 0 && x.len().is_multiple_of(cols), "layer_norm_backward: row width");
    assert!(g.len() == x.len() && dx.len() == x.len(), "layer_norm_backward: lengths");
    assert!(dgain.len() == cols && dbias.len() == cols, "layer_norm_backward: parameter widths");
    dgain.fill(0.0);
    dbias.fill(0.0);
    let mut work = vec![0.0f32; 2 * LN_ROWS * cols];
    let block = LN_ROWS * cols;
    let full = x.len() / block * block;
    for ((xb, gb), db) in x[..full]
        .chunks_exact(block)
        .zip(g[..full].chunks_exact(block))
        .zip(dx[..full].chunks_exact_mut(block))
    {
        ln_backward_block::<LN_ROWS>(xb, gain, gb, db, dgain, dbias, &mut work);
    }
    for ((xr, gr), dr) in x[full..]
        .chunks_exact(cols)
        .zip(g[full..].chunks_exact(cols))
        .zip(dx[full..].chunks_exact_mut(cols))
    {
        ln_backward_block::<1>(xr, gain, gr, dr, dgain, dbias, &mut work);
    }
}

/// [`layer_norm_backward`] on `R` rows, with `2·R·cols` floats of `work`
/// for `x̂` and `dx̂`: per row the moments, `x̂`, the parameter sums (rows
/// in order), `dx̂ = g·gain`, its two means, then `dx`.
#[inline(always)]
fn ln_backward_block<const R: usize>(
    x: &[f32],
    gain: &[f32],
    g: &[f32],
    dx: &mut [f32],
    dgain: &mut [f32],
    dbias: &mut [f32],
    work: &mut [f32],
) {
    let cols = gain.len();
    let c = cols as f32;
    let (xhat, dxhat) = work[..2 * R * cols].split_at_mut(R * cols);
    let moments = row_moments::<R>(x, cols);
    let rows = x.chunks_exact(cols).zip(g.chunks_exact(cols));
    let work_rows = xhat.chunks_exact_mut(cols).zip(dxhat.chunks_exact_mut(cols));
    for (((xr, gr), (xh_r, dxh_r)), &(mean, inv_std)) in rows.zip(work_rows).zip(&moments) {
        for (xh, &v) in xh_r.iter_mut().zip(xr) {
            *xh = (v - mean) * inv_std;
        }
        for ((dg, db), (gg, xh)) in
            dgain.iter_mut().zip(dbias.iter_mut()).zip(gr.iter().zip(&*xh_r))
        {
            *dg += gg * xh;
            *db += gg;
        }
        for ((dh, gg), gn) in dxh_r.iter_mut().zip(gr).zip(gain) {
            *dh = gg * gn;
        }
    }
    let mean_dxhat = row_sums::<R>(cols, |r, k| dxhat[r * cols + k]).map(|s| s / c);
    let mean_dxhat_xhat =
        row_sums::<R>(cols, |r, k| dxhat[r * cols + k] * xhat[r * cols + k]).map(|s| s / c);
    let means = mean_dxhat.iter().zip(&mean_dxhat_xhat).zip(&moments);
    let work_rows = dxhat.chunks_exact(cols).zip(xhat.chunks_exact(cols));
    for ((dr, (dxh_r, xh_r)), ((m1, m2), &(_, inv_std))) in
        dx.chunks_exact_mut(cols).zip(work_rows).zip(means)
    {
        for ((d, dh), xh) in dr.iter_mut().zip(dxh_r).zip(xh_r) {
            *d = inv_std * (dh - m1 - xh * m2);
        }
    }
}

/// Gradient of [`softmax_rows`](super::softmax_rows) from its output `y`
/// and the output's gradient `g`, per `cols`-wide row:
/// `dx = y · (g − Σ g·y)`, the sum in [`dot`]'s order.
pub fn softmax_rows_backward(y: &[f32], g: &[f32], cols: usize, dx: &mut [f32]) {
    assert!(g.len() == y.len() && dx.len() == y.len(), "softmax_rows_backward: lengths");
    for ((yr, gr), dr) in y
        .chunks_exact(cols.max(1))
        .zip(g.chunks_exact(cols.max(1)))
        .zip(dx.chunks_exact_mut(cols.max(1)))
    {
        let s = dot(gr, yr);
        for ((d, gg), yy) in dr.iter_mut().zip(gr).zip(yr) {
            *d = yy * (gg - s);
        }
    }
}

/// GELU's gradient applied in place: `g[i] *= gelu'(x[i])`, given the
/// `tanh` that [`gelu`](super::gelu) saved in the forward.
pub fn gelu_backward(x: &[f32], tanh: &[f32], g: &mut [f32]) {
    assert!(x.len() == g.len() && tanh.len() == g.len(), "gelu_backward: lengths");
    for ((d, &x), &t) in g.iter_mut().zip(x).zip(tanh) {
        let du = GELU_C * (1.0 + 3.0 * GELU_K * x * x);
        *d *= 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du;
    }
}

/// `tanh`'s gradient applied in place from its output `y`:
/// `g[i] *= 1 − y[i]²`.
pub fn tanh_backward(y: &[f32], g: &mut [f32]) {
    assert_eq!(y.len(), g.len(), "tanh_backward: lengths");
    for (d, y) in g.iter_mut().zip(y) {
        *d *= 1.0 - y * y;
    }
}

/// `|x|`'s gradient applied in place: `g[i]` negated where `x[i] < 0`.
pub fn abs_backward(x: &[f32], g: &mut [f32]) {
    assert_eq!(x.len(), g.len(), "abs_backward: lengths");
    for (d, x) in g.iter_mut().zip(x) {
        if *x < 0.0 {
            *d = -*d;
        }
    }
}

/// Gradient of [`mean_rows`](super::mean_rows) over `n` rows: every
/// `g.len()`-wide row of `dx` is `g / n`.
pub fn mean_rows_backward(g: &[f32], dx: &mut [f32]) {
    let cols = g.len().max(1);
    debug_assert!(dx.len().is_multiple_of(cols));
    let inv = 1.0 / (dx.len() / cols) as f32;
    for row in dx.chunks_exact_mut(cols) {
        for (d, s) in row.iter_mut().zip(g) {
            *d = s * inv;
        }
    }
}

/// Inverted dropout on `x` in place with drop probability `p`: a fresh
/// mask in `mask` (one `rng` draw per element, in order, each
/// `1 / (1 − p)` if kept and `0` if dropped), multiplied in. At `p == 0`
/// nothing is drawn and `x` is left as it is. The backward multiplies by
/// the same mask ([`mul_assign`]).
pub fn dropout(p: f32, rng: &mut impl Rng, mask: &mut Vec<f32>, x: &mut [f32]) {
    if p == 0.0 {
        return;
    }
    let keep = 1.0 - p;
    mask.clear();
    mask.extend(x.iter().map(|_| if rng.gen::<f32>() < keep { 1.0 / keep } else { 0.0 }));
    mul_assign(x, mask);
}

/// `a[i] *= b[i]`.
pub fn mul_assign(a: &mut [f32], b: &[f32]) {
    assert_eq!(a.len(), b.len(), "mul_assign: length mismatch");
    for (x, y) in a.iter_mut().zip(b) {
        *x *= y;
    }
}

/// One term of binary cross-entropy with logits, numerically stable:
/// `max(z, 0) − z·t + ln(1 + exp(−|z|))`.
pub fn bce_with_logits(z: f32, t: f32) -> f32 {
    z.max(0.0) - z * t + super::exp(-z.abs()).ln_1p()
}

/// Gradient of [`bce_with_logits`] with respect to `z`, times `scale`.
pub fn bce_with_logits_backward(z: f32, t: f32, scale: f32) -> f32 {
    scale * (super::sigmoid(z) - t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::rows::tests::ramp;

    /// The one-row-at-a-time LayerNorm backward the blocked sums must
    /// reproduce.
    fn layer_norm_backward_row_by_row(
        x: &[f32],
        gain: &[f32],
        g: &[f32],
        dx: &mut [f32],
        dgain: &mut [f32],
        dbias: &mut [f32],
    ) {
        let cols = gain.len();
        let c = cols as f32;
        dgain.fill(0.0);
        dbias.fill(0.0);
        for ((row, gr), dr) in
            x.chunks_exact(cols).zip(g.chunks_exact(cols)).zip(dx.chunks_exact_mut(cols))
        {
            let mean = row.iter().sum::<f32>() / c;
            let var = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / c;
            let inv_std = 1.0 / (var + 1e-5).sqrt();
            let xhat: Vec<f32> = row.iter().map(|&v| (v - mean) * inv_std).collect();
            for ((dg, db), (gg, xh)) in
                dgain.iter_mut().zip(dbias.iter_mut()).zip(gr.iter().zip(&xhat))
            {
                *dg += gg * xh;
                *db += gg;
            }
            let dxhat: Vec<f32> = gr.iter().zip(gain).map(|(gg, gn)| gg * gn).collect();
            let mean_dxhat = dxhat.iter().sum::<f32>() / c;
            let mean_dxhat_xhat = dxhat.iter().zip(&xhat).map(|(a, b)| a * b).sum::<f32>() / c;
            for ((d, dh), xh) in dr.iter_mut().zip(&dxhat).zip(&xhat) {
                *d = inv_std * (dh - mean_dxhat - xh * mean_dxhat_xhat);
            }
        }
    }

    #[test]
    fn blocked_layer_norm_backward_is_row_by_row_bitwise() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (rows, cols) in [(1, 64), (7, 64), (8, 64), (9, 64), (17, 5), (40, 64), (3, 1)] {
            let (x, gain, g) = (ramp(rows * cols, 4), ramp(cols, 5), ramp(rows * cols, 6));
            let mut fast = (vec![1.0; rows * cols], vec![1.0; cols], vec![1.0; cols]);
            let mut slow = (vec![2.0; rows * cols], vec![2.0; cols], vec![2.0; cols]);
            layer_norm_backward(&x, &gain, &g, &mut fast.0, &mut fast.1, &mut fast.2);
            layer_norm_backward_row_by_row(&x, &gain, &g, &mut slow.0, &mut slow.1, &mut slow.2);
            assert_eq!(bits(&fast.0), bits(&slow.0), "dx {rows}x{cols}");
            assert_eq!(bits(&fast.1), bits(&slow.1), "dgain {rows}x{cols}");
            assert_eq!(bits(&fast.2), bits(&slow.2), "dbias {rows}x{cols}");
        }
    }
}
