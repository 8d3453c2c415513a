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

/// Rows whose LayerNorm sums run side by side: each row's sum is still
/// one serial chain in index order, but `LN_ROWS` independent chains
/// overlap instead of waiting on one another.
pub(crate) const LN_ROWS: usize = 8;

/// `Σ_c f(r, c)` for each of `R` rows, each a serial sum in `c` order
/// from `-0.0` — what `iter().sum::<f32>()` computes row by row.
#[inline(always)]
pub(crate) fn row_sums<const R: usize>(cols: usize, f: impl Fn(usize, usize) -> f32) -> [f32; R] {
    let mut acc = [-0.0f32; R];
    for c in 0..cols {
        for (r, a) in acc.iter_mut().enumerate() {
            *a += f(r, c);
        }
    }
    acc
}

/// Mean and `1 / sqrt(var + eps)` of each of the `R` `cols`-wide rows of
/// `rows`: two serial sums per row, in index order.
#[inline(always)]
pub(crate) fn row_moments<const R: usize>(rows: &[f32], cols: usize) -> [(f32, f32); R] {
    debug_assert_eq!(rows.len(), R * cols);
    let n = cols as f32;
    let mean = row_sums::<R>(cols, |r, c| rows[r * cols + c]).map(|s| s / n);
    let sq = row_sums::<R>(cols, |r, c| (rows[r * cols + c] - mean[r]).powi(2));
    std::array::from_fn(|r| (mean[r], 1.0 / (sq[r] / n + LN_EPS).sqrt()))
}

/// In-place LayerNorm of every `gain.len()`-wide row of `x`:
/// `(x − mean) · inv_std · gain + bias`.
pub fn layer_norm_rows(x: &mut [f32], gain: &[f32], bias: &[f32]) {
    assert_eq!(gain.len(), bias.len(), "layer_norm: gain and bias widths differ");
    let cols = gain.len().max(1);
    debug_assert!(x.len().is_multiple_of(cols));
    let mut blocks = x.chunks_exact_mut(LN_ROWS * cols);
    for block in &mut blocks {
        normalize_block::<LN_ROWS>(block, gain, bias);
    }
    for row in blocks.into_remainder().chunks_exact_mut(cols) {
        normalize_block::<1>(row, gain, bias);
    }
}

/// [`layer_norm_rows`] on `R` rows.
#[inline(always)]
fn normalize_block<const R: usize>(block: &mut [f32], gain: &[f32], bias: &[f32]) {
    let cols = gain.len().max(1);
    let moments = row_moments::<R>(block, cols);
    for (row, (mean, inv_std)) in block.chunks_exact_mut(cols).zip(moments) {
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The one-row-at-a-time LayerNorm the blocked sums must reproduce.
    pub(crate) fn layer_norm_row_by_row(x: &mut [f32], gain: &[f32], bias: &[f32]) {
        for row in x.chunks_exact_mut(gain.len()) {
            let n = row.len() as f32;
            let mean = row.iter().sum::<f32>() / n;
            let var = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / n;
            let inv_std = 1.0 / (var + LN_EPS).sqrt();
            for ((v, g), b) in row.iter_mut().zip(gain).zip(bias) {
                *v = (*v - mean) * inv_std * g + b;
            }
        }
    }

    /// Deterministic sign-mixed values with signed zeros sprinkled in.
    pub(crate) fn ramp(len: usize, seed: u32) -> Vec<f32> {
        (0..len as u32)
            .map(|i| {
                let h = i.wrapping_mul(2_654_435_761).wrapping_add(seed.wrapping_mul(40_503));
                match h % 11 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => ((h >> 8) % 2001) as f32 / 300.0 - 3.3,
                }
            })
            .collect()
    }

    #[test]
    fn blocked_layer_norm_is_row_by_row_bitwise() {
        for (rows, cols) in [(1, 64), (7, 64), (8, 64), (9, 64), (17, 5), (40, 64), (3, 1)] {
            let (gain, bias) = (ramp(cols, 1), ramp(cols, 2));
            let mut fast = ramp(rows * cols, 3);
            let mut slow = fast.clone();
            layer_norm_rows(&mut fast, &gain, &bias);
            layer_norm_row_by_row(&mut slow, &gain, &bias);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fast), bits(&slow), "{rows}x{cols}");
        }
    }
}
