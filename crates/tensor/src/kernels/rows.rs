//! The row-wise ops around the products: bias add, residual add, scale,
//! LayerNorm, mean-pool.
//!
//! Each has one definition, here, on plain slices. `Graph`'s ops call them
//! on a fresh node value and `dial-tplm`'s graph-free forward calls them on
//! its scratch buffers, so the two paths cannot drift apart: every output
//! element is the same scalar expression, and every sum runs over the same
//! elements in the same order. A matrix is passed as its row-major slice;
//! the row width is the length of the row-vector argument.

const LN_EPS: f32 = 1e-5;

/// `x[r, c] += bias[c]` over every `bias.len()`-wide row of `x`.
pub fn add_row(x: &mut [f32], bias: &[f32]) {
    debug_assert!(x.len().is_multiple_of(bias.len().max(1)));
    for row in x.chunks_exact_mut(bias.len().max(1)) {
        for (v, b) in row.iter_mut().zip(bias) {
            *v += b;
        }
    }
}

/// `a[i] += b[i]`.
pub fn add_assign(a: &mut [f32], b: &[f32]) {
    assert_eq!(a.len(), b.len(), "add_assign: length mismatch");
    for (x, y) in a.iter_mut().zip(b) {
        *x += y;
    }
}

/// `x[i] *= alpha`.
pub fn scale(x: &mut [f32], alpha: f32) {
    for v in x {
        *v *= alpha;
    }
}

/// Mean and `1 / sqrt(var + eps)` of one row: two serial sums, in index
/// order.
pub fn row_moments(row: &[f32]) -> (f32, f32) {
    let n = row.len() as f32;
    let mean = row.iter().sum::<f32>() / n;
    let var = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / n;
    (mean, 1.0 / (var + LN_EPS).sqrt())
}

/// In-place LayerNorm of every `gain.len()`-wide row of `x`:
/// `(x − mean) · inv_std · gain + bias`.
pub fn layer_norm_rows(x: &mut [f32], gain: &[f32], bias: &[f32]) {
    assert_eq!(gain.len(), bias.len(), "layer_norm: gain and bias widths differ");
    debug_assert!(x.len().is_multiple_of(gain.len().max(1)));
    for row in x.chunks_exact_mut(gain.len().max(1)) {
        let (mean, inv_std) = row_moments(row);
        for ((v, g), b) in row.iter_mut().zip(gain).zip(bias) {
            *v = (*v - mean) * inv_std * g + b;
        }
    }
}

/// Column means over the `out.len()`-wide rows of `x`:
/// `out[c] = Σ_r x[r, c] / n`, rows in order, each term divided before it
/// is added. Zero rows give zeros.
pub fn mean_rows(x: &[f32], out: &mut [f32]) {
    let cols = out.len().max(1);
    debug_assert!(x.len().is_multiple_of(cols));
    let n = (x.len() / cols) as f32;
    out.fill(0.0);
    for row in x.chunks_exact(cols) {
        for (o, v) in out.iter_mut().zip(row) {
            *o += v / n;
        }
    }
}
