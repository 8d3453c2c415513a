//! Property-based tests for the autograd engine.

use dial_tensor::{kernels, logsumexp, softmax_in_place, Graph, Matrix, ParamStore};
use proptest::prelude::*;

fn small_vec(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-10.0f32..10.0, len)
}

/// Longest side the kernel parity cases draw; the pool below covers the
/// largest operand plus the sub-slice offset.
const MAX_SIDE: usize = 40;

/// Matrix entries for the kernel parity tests: mostly ordinary values,
/// with signed zeros (the scalar loops' skip), denormals (products that
/// underflow to `±0.0`) and large magnitudes mixed in. All finite: the
/// zero skip is only an identity for finite inputs (see `kernels`).
fn entries() -> impl Strategy<Value = Vec<f32>> {
    let entry = (0u8..16, -4.0f32..4.0).prop_map(|(kind, v)| match kind {
        0 | 1 => 0.0,
        2 | 3 => -0.0,
        4 => 1.0e-40,
        5 => -3.0e-42,
        6 => v * 1.0e-30,
        7 => v * 1.0e15,
        _ => v,
    });
    proptest::collection::vec(entry, MAX_SIDE * MAX_SIDE + 3)
}

/// A side length: the degenerate 0 and 1, sizes around the 4-row and
/// 8/16-column tiles, the trunk's `d_head` 16, and 18 for `dot`'s lane
/// tail.
fn side() -> impl Strategy<Value = usize> {
    (0usize..14).prop_map(|i| [0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 18, 33, MAX_SIDE][i])
}

/// `len` floats starting `off` elements into `pool`, so the kernels see
/// operands at every alignment within a 16-byte line.
fn operand(pool: &[f32], off: usize, len: usize) -> &[f32] {
    &pool[off..off + len]
}

fn assert_same_bits(fast: &[f32], slow: &[f32], what: &str) {
    for (i, (x, y)) in fast.iter().zip(slow).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}: {x:e} vs {y:e}");
    }
}

proptest! {
    #[test]
    fn softmax_rows_sum_to_one(vals in small_vec(12)) {
        let mut row = vals.clone();
        softmax_in_place(&mut row);
        let sum: f32 = row.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn logsumexp_bounds(vals in small_vec(8)) {
        let max = vals.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let lse = logsumexp(&vals);
        prop_assert!(lse >= max - 1e-5);
        prop_assert!(lse <= max + (vals.len() as f32).ln() + 1e-4);
    }

    #[test]
    fn transpose_is_involution(vals in small_vec(24)) {
        let m = Matrix::from_vec(4, 6, vals);
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_t_variants_agree(a in small_vec(12), b in small_vec(12)) {
        let ma = Matrix::from_vec(3, 4, a);
        let mb = Matrix::from_vec(3, 4, b);
        let fast = ma.matmul_t(&mb);
        let slow = ma.matmul(&mb.transpose());
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn matmul_distributes_over_addition(a in small_vec(6), b in small_vec(6), c in small_vec(6)) {
        let ma = Matrix::from_vec(2, 3, a);
        let mb = Matrix::from_vec(3, 2, b);
        let mc = Matrix::from_vec(3, 2, c);
        let mut sum = mb.clone();
        sum.add_assign(&mc);
        let left = ma.matmul(&sum);
        let mut right = ma.matmul(&mb);
        right.add_assign(&ma.matmul(&mc));
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((x - y).abs() < 1e-2, "{} vs {}", x, y);
        }
    }

    #[test]
    fn graph_sum_gradient_is_all_ones(vals in small_vec(9)) {
        let mut store = ParamStore::new();
        let p = store.add("p", Matrix::from_vec(3, 3, vals));
        let mut g = Graph::new();
        let v = g.param(&store, p);
        let loss = g.sum(v);
        g.backward(loss, &mut store);
        prop_assert!(store.grad(p).as_slice().iter().all(|&x| (x - 1.0).abs() < 1e-6));
    }

    #[test]
    fn chain_rule_linearity(vals in small_vec(4), alpha in -3.0f32..3.0) {
        let mut store = ParamStore::new();
        let p = store.add("p", Matrix::from_vec(2, 2, vals));
        let mut g = Graph::new();
        let v = g.param(&store, p);
        let s = g.sum(v);
        let scaled = g.scale(s, alpha);
        g.backward(scaled, &mut store);
        prop_assert!(store
            .grad(p)
            .as_slice()
            .iter()
            .all(|&x| (x - alpha).abs() < 1e-5));
    }

    #[test]
    fn row_sq_dists_nonnegative_and_symmetric(a in small_vec(8), b in small_vec(8)) {
        let ma = Matrix::from_vec(2, 4, a);
        let mb = Matrix::from_vec(2, 4, b);
        let mut g = Graph::new();
        let va = g.input(ma.clone());
        let vb = g.input(mb.clone());
        let d1 = g.row_sq_dists(va, vb);
        let d2 = g.row_sq_dists(vb, va);
        for (x, y) in g.value(d1).as_slice().iter().zip(g.value(d2).as_slice()) {
            prop_assert!(*x >= 0.0);
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    // ---- dispatched kernels == scalar loops, bit for bit -----------------
    // On a host without AVX2 (or under DIAL_FORCE_SCALAR=1) both sides run
    // the scalar loops and the properties hold trivially.

    #[test]
    fn matmul_dispatch_matches_scalar_bitwise(
        pa in entries(), pb in entries(),
        m in side(), k in side(), n in side(),
        oa in 0usize..4, ob in 0usize..4,
    ) {
        let (a, b) = (operand(&pa, oa, m * k), operand(&pb, ob, k * n));
        let (mut fast, mut slow) = (vec![f32::NAN; m * n + 1], vec![f32::NAN; m * n + 1]);
        kernels::matmul(a, b, m, k, n, &mut fast[1..]);
        kernels::matmul_scalar(a, b, m, k, n, &mut slow[1..]);
        assert_same_bits(&fast[1..], &slow[1..], &format!("matmul {m}x{k}x{n}"));
    }

    #[test]
    fn t_matmul_dispatch_matches_scalar_bitwise(
        pa in entries(), pb in entries(),
        rows in side(), m in side(), n in side(),
        oa in 0usize..4, ob in 0usize..4,
    ) {
        let (a, b) = (operand(&pa, oa, rows * m), operand(&pb, ob, rows * n));
        let (mut fast, mut slow) = (vec![f32::NAN; m * n + 1], vec![f32::NAN; m * n + 1]);
        kernels::t_matmul(a, b, rows, m, n, &mut fast[1..]);
        kernels::t_matmul_scalar(a, b, rows, m, n, &mut slow[1..]);
        assert_same_bits(&fast[1..], &slow[1..], &format!("t_matmul ({rows}x{m})^T {rows}x{n}"));
    }

    #[test]
    fn matmul_t_dispatch_matches_scalar_bitwise(
        pa in entries(), pb in entries(),
        m in side(), n in side(), k in side(),
        oa in 0usize..4, ob in 0usize..4,
    ) {
        let (a, b) = (operand(&pa, oa, m * k), operand(&pb, ob, n * k));
        let (mut fast, mut slow) = (vec![f32::NAN; m * n + 1], vec![f32::NAN; m * n + 1]);
        kernels::matmul_t(a, b, m, n, k, &mut fast[1..]);
        kernels::matmul_t_scalar(a, b, m, n, k, &mut slow[1..]);
        assert_same_bits(&fast[1..], &slow[1..], &format!("matmul_t {m}x{k} ({n}x{k})^T"));
    }

    #[test]
    fn cross_sq_dists_dispatch_matches_scalar_bitwise(
        pa in entries(), pb in entries(),
        na in side(), nb in side(), dim in side(),
        oa in 0usize..4, ob in 0usize..4,
    ) {
        let (a, b) = (operand(&pa, oa, na * dim), operand(&pb, ob, nb * dim));
        let (mut fast, mut slow) = (vec![f32::NAN; na * nb + 1], vec![f32::NAN; na * nb + 1]);
        kernels::cross_sq_dists_into(a, b, na, nb, dim, &mut fast[1..]);
        kernels::cross_sq_dists_scalar(a, b, na, nb, dim, &mut slow[1..]);
        assert_same_bits(&fast[1..], &slow[1..], &format!("cross_sq_dists {na}x{nb} dim {dim}"));
    }
}
