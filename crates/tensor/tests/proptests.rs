//! Property-based tests for the autograd engine.

use dial_simd::for_each_level;
use dial_tensor::{kernels, logsumexp, Graph, Matrix, ParamStore};
use proptest::prelude::*;

fn small_vec(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-10.0f32..10.0, len)
}

/// Longest side the kernel parity cases draw; the pool below covers the
/// largest operand plus the sub-slice offset.
const MAX_SIDE: usize = 70;

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
/// 8/16/64-column tiles of both SIMD levels, the trunk's `d_head` 16, and
/// 18 for `dot`'s lane tail.
fn side() -> impl Strategy<Value = usize> {
    const SIDES: [usize; 20] =
        [0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 18, 33, 47, 48, 63, 64, 65, MAX_SIDE];
    (0..SIDES.len()).prop_map(|i| SIDES[i])
}

/// `len` floats starting `off` elements into `pool`, so the kernels see
/// operands at every alignment within a 16-byte line.
fn operand(pool: &[f32], off: usize, len: usize) -> &[f32] {
    &pool[off..off + len]
}

/// Longest slice the transcendental parity cases run (lengths `0..=70`
/// cover four whole 16-lane registers plus every tail of both widths),
/// and the largest sub-slice offset.
const MAX_LEN: usize = 70;
const MAX_OFF: usize = 7;
/// Rows of the softmax parity matrix.
const SM_ROWS: usize = 3;

/// Inputs for the transcendental parity tests: ordinary values, both
/// sides of `tanh`'s crossover, signed zeros, denormals, magnitudes past
/// `exp`'s clamp, and `±inf`.
fn trans_entries() -> impl Strategy<Value = Vec<f32>> {
    let entry = (0u8..16, -1.0f32..1.0).prop_map(|(kind, v)| match kind {
        0 => 0.0,
        1 => -0.0,
        2 => v * 1.0e-40,
        3 => v * 1.0e-6,
        4 => 0.625 + v * 1.0e-6,
        5 => -0.625 + v * 1.0e-6,
        6 => v * 100.0,
        7 => v * 1.0e6,
        8 => f32::INFINITY.copysign(v),
        9 => v * 20.0,
        _ => v * 4.0,
    });
    proptest::collection::vec(entry, SM_ROWS * MAX_LEN + MAX_OFF)
}

/// `f(len, off)` for every slice length and sub-slice offset.
fn for_each_len_and_offset(mut f: impl FnMut(usize, usize)) {
    for len in 0..=MAX_LEN {
        for off in 0..=MAX_OFF {
            f(len, off);
        }
    }
}

/// `|got − want|` in units of the spacing of `f32` at `want`.
fn ulps(got: f32, want: f64) -> f64 {
    let w = (want as f32).abs().max(f32::MIN_POSITIVE);
    let spacing = f32::from_bits(w.to_bits() + 1) as f64 - w as f64;
    (got as f64 - want).abs() / spacing
}

/// Every `stride`-th `f32` of `[lo, hi]` (same sign, `lo` nearer zero).
fn sweep(lo: f32, hi: f32, stride: usize) -> impl Iterator<Item = f32> {
    (lo.to_bits()..=hi.to_bits()).step_by(stride).map(f32::from_bits)
}

const SIGN: u32 = 0x8000_0000;

type Map = fn(&mut [f32]);
/// The element-wise kernels: `(name, dispatched, scalar body)`.
const MAPS: [(&str, Map, Map); 3] = [
    ("exp", kernels::exp_slice, kernels::exp_slice_scalar),
    ("tanh", kernels::tanh_slice, kernels::tanh_slice_scalar),
    ("sigmoid", kernels::sigmoid_slice, kernels::sigmoid_slice_scalar),
];

#[test]
fn exp_is_within_two_ulp_of_f64_and_clamps_outside_its_range() {
    assert_eq!(kernels::exp(0.0).to_bits(), 1.0f32.to_bits());
    assert_eq!(kernels::exp(-0.0).to_bits(), 1.0f32.to_bits());
    let mut worst = 0.0f64;
    for x in sweep(0.0, 88.0, 997).chain(sweep(-0.0, -87.0, 997)).chain([88.0, -87.0, 1.0, -1.0]) {
        let e = ulps(kernels::exp(x), (x as f64).exp());
        assert!(e <= 2.0, "exp({x:e}) is {e:.2} ulp off");
        worst = worst.max(e);
    }
    assert!(worst > 0.0, "the sweep compared nothing");
    for x in [-1.0e30, -100.0, -88.5, -87.5, 88.5, 100.0, 1.0e30, f32::INFINITY, f32::NEG_INFINITY]
    {
        let y = kernels::exp(x);
        assert!(y.is_finite() && y >= 0.0, "exp({x:e}) = {y:e}");
    }
    assert_eq!(kernels::exp(-1.0e30), 0.0);
    assert_eq!(kernels::exp(f32::INFINITY), kernels::exp(88.0));
    assert!(kernels::exp(f32::NAN).is_nan());
}

#[test]
fn tanh_is_accurate_odd_bounded_saturating_and_monotone() {
    for (x, want) in [(0.0f32, 0.0f32), (-0.0, -0.0)] {
        assert_eq!(kernels::tanh(x).to_bits(), want.to_bits());
    }
    for x in sweep(0.0, 12.0, 499).chain([kernels::TANH_CROSSOVER, 1.0, 9.0, 10.0]) {
        let y = kernels::tanh(x);
        let want = (x as f64).tanh();
        assert!(
            ulps(y, want) <= 2.0 || (y as f64 - want).abs() <= 1.2e-7,
            "tanh({x:e}) = {y:e}, want {want:e}"
        );
        assert!(y.abs() <= 1.0);
        assert_eq!(kernels::tanh(-x).to_bits(), y.to_bits() ^ SIGN, "tanh is not odd at {x:e}");
    }
    for x in sweep(10.0, f32::INFINITY, 9973).chain([10.0, 1.0e30, f32::INFINITY]) {
        assert_eq!(kernels::tanh(x), 1.0, "tanh({x:e})");
        assert_eq!(kernels::tanh(-x), -1.0, "tanh(-{x:e})");
    }
    assert!(kernels::tanh(f32::NAN).is_nan());
    // Non-decreasing: every float around the crossover, a strided sweep
    // of the rest.
    let c = kernels::TANH_CROSSOVER;
    for range in [sweep(0.0, 12.0, 61), sweep(c - 0.02, c + 0.02, 1)] {
        let mut prev = (0.0f32, 0.0f32);
        for x in range {
            let y = kernels::tanh(x);
            assert!(y >= prev.1, "tanh({:e}) = {:e} but tanh({x:e}) = {y:e}", prev.0, prev.1);
            prev = (x, y);
        }
    }
}

#[test]
fn special_values_take_the_same_path_under_dispatch() {
    let specials = [f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0, 88.0, -88.0, 1.0e-45, 0.625, 9.5];
    // Three rounds of the specials: every value lands in a full register
    // and in the tail at both widths.
    let specials: Vec<f32> = specials.iter().cycle().take(3 * specials.len()).copied().collect();
    for_each_level(|level| {
        for (name, fast, slow) in MAPS {
            let (mut a, mut b) = (specials.clone(), specials.clone());
            fast(&mut a);
            slow(&mut b);
            assert_same_bits(&a, &b, &format!("{level:?} {name}"));
            // NaN in, NaN out, in full registers and in the tail.
            let mut nans = [f32::NAN; 25];
            fast(&mut nans);
            assert!(nans.iter().all(|v| v.is_nan()), "{level:?} {name} lost a NaN");
        }
    });
}

fn assert_same_bits(fast: &[f32], slow: &[f32], what: &str) {
    for (i, (x, y)) in fast.iter().zip(slow).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}: {x:e} vs {y:e}");
    }
}

proptest! {
    #[test]
    fn softmax_rows_sum_to_one(vals in small_vec(MAX_LEN)) {
        for cols in 1..=MAX_LEN {
            let mut row = vec![0.0; cols];
            kernels::softmax_rows(&vals[..cols], cols, &mut row);
            let sum: f64 = row.iter().map(|&v| v as f64).sum();
            prop_assert!((sum - 1.0).abs() <= 4.0 * f32::EPSILON as f64, "{cols} cols sum to {sum}");
            prop_assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
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
    // Each case runs at every level the host has (`for_each_level`), so
    // an AVX-512 host tests its AVX2 bodies too; a level the host lacks is
    // skipped with a note.

    #[test]
    fn matmul_dispatch_matches_scalar_bitwise(
        pa in entries(), pb in entries(),
        m in side(), k in side(), n in side(),
        oa in 0usize..4, ob in 0usize..4,
    ) {
        let (a, b) = (operand(&pa, oa, m * k), operand(&pb, ob, k * n));
        for_each_level(|level| {
            let (mut fast, mut slow) = (vec![f32::NAN; m * n + 1], vec![f32::NAN; m * n + 1]);
            kernels::matmul(a, b, m, k, n, &mut fast[1..]);
            kernels::matmul_scalar(a, b, m, k, n, &mut slow[1..]);
            assert_same_bits(&fast[1..], &slow[1..], &format!("{level:?} matmul {m}x{k}x{n}"));
        });
    }

    #[test]
    fn t_matmul_dispatch_matches_scalar_bitwise(
        pa in entries(), pb in entries(),
        rows in side(), m in side(), n in side(),
        oa in 0usize..4, ob in 0usize..4,
    ) {
        let (a, b) = (operand(&pa, oa, rows * m), operand(&pb, ob, rows * n));
        for_each_level(|level| {
            let (mut fast, mut slow) = (vec![f32::NAN; m * n + 1], vec![f32::NAN; m * n + 1]);
            kernels::t_matmul(a, b, rows, m, n, &mut fast[1..]);
            kernels::t_matmul_scalar(a, b, rows, m, n, &mut slow[1..]);
            let what = format!("{level:?} t_matmul ({rows}x{m})^T {rows}x{n}");
            assert_same_bits(&fast[1..], &slow[1..], &what);
        });
    }

    #[test]
    fn matmul_t_dispatch_matches_scalar_bitwise(
        pa in entries(), pb in entries(),
        m in side(), n in side(), k in side(),
        oa in 0usize..4, ob in 0usize..4,
    ) {
        let (a, b) = (operand(&pa, oa, m * k), operand(&pb, ob, n * k));
        for_each_level(|level| {
            let (mut fast, mut slow) = (vec![f32::NAN; m * n + 1], vec![f32::NAN; m * n + 1]);
            kernels::matmul_t(a, b, m, n, k, &mut fast[1..]);
            kernels::matmul_t_scalar(a, b, m, n, k, &mut slow[1..]);
            let what = format!("{level:?} matmul_t {m}x{k} ({n}x{k})^T");
            assert_same_bits(&fast[1..], &slow[1..], &what);
        });
    }

    #[test]
    fn cross_sq_dists_dispatch_matches_scalar_bitwise(
        pa in entries(), pb in entries(),
        na in side(), nb in side(), dim in side(),
        oa in 0usize..4, ob in 0usize..4,
    ) {
        let (a, b) = (operand(&pa, oa, na * dim), operand(&pb, ob, nb * dim));
        for_each_level(|level| {
            let (mut fast, mut slow) =
                (vec![f32::NAN; na * nb + 1], vec![f32::NAN; na * nb + 1]);
            kernels::cross_sq_dists_into(a, b, na, nb, dim, &mut fast[1..]);
            kernels::cross_sq_dists_scalar(a, b, na, nb, dim, &mut slow[1..]);
            let what = format!("{level:?} cross_sq_dists {na}x{nb} dim {dim}");
            assert_same_bits(&fast[1..], &slow[1..], &what);
        });
    }

    // ---- transcendental kernels: dispatched == scalar, bit for bit -------

    #[test]
    fn elementwise_maps_dispatch_matches_scalar_bitwise(pool in trans_entries()) {
        for_each_level(|level| {
            for (name, fast, slow) in MAPS {
                for_each_len_and_offset(|len, off| {
                    let (mut a, mut b) = (pool.clone(), pool.clone());
                    fast(&mut a[off..off + len]);
                    slow(&mut b[off..off + len]);
                    // The whole pool: nothing outside the sub-slice may move.
                    let what = format!("{level:?} {name} len {len} offset {off}");
                    assert_same_bits(&a, &b, &what);
                    assert_same_bits(&a[..off], &pool[..off], &what);
                    assert_same_bits(&a[off + len..], &pool[off + len..], &what);
                });
            }
        });
    }

    #[test]
    fn gelu_dispatch_matches_scalar_bitwise(pool in trans_entries()) {
        for_each_level(|level| {
            for_each_len_and_offset(|len, off| {
                let x = &pool[off..off + len];
                let mut fast = (vec![f32::NAN; len], vec![f32::NAN; len]);
                let mut slow = fast.clone();
                kernels::gelu(x, &mut fast.0, &mut fast.1);
                kernels::gelu_scalar(x, &mut slow.0, &mut slow.1);
                let what = format!("{level:?} gelu len {len} offset {off}");
                assert_same_bits(&fast.0, &slow.0, &what);
                assert_same_bits(&fast.1, &slow.1, &format!("{what} (tanh)"));
            });
        });
    }

    #[test]
    fn softmax_and_logsumexp_dispatch_match_scalar_bitwise(pool in trans_entries()) {
        for_each_level(|level| {
            for_each_len_and_offset(|cols, off| {
                let x = &pool[off..off + SM_ROWS * cols];
                let (mut fast, mut slow) = (vec![f32::NAN; x.len()], vec![f32::NAN; x.len()]);
                kernels::softmax_rows(x, cols, &mut fast);
                kernels::softmax_rows_scalar(x, cols, &mut slow);
                let what = format!("{level:?} softmax_rows {cols} cols offset {off}");
                assert_same_bits(&fast, &slow, &what);
                let row = &x[..cols];
                assert_eq!(
                    kernels::logsumexp(row).to_bits(),
                    kernels::logsumexp_scalar(row).to_bits(),
                    "{:?} logsumexp {} cols offset {}", level, cols, off
                );
            });
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// AdamW, clipping and the shard reduce over a row-tracked table
    /// gradient against the same gradients written whole-buffer (the
    /// dense path): after every step the values, both moments and the
    /// pre-clip norm carry the same bits.
    #[test]
    fn touched_row_optimizer_matches_the_dense_path_bitwise(
        seed in 0u64..1000,
        // A table width below, at and past `dot`'s four lanes.
        cols in 1usize..7,
        // Per step, per position: (row, shard).
        steps in proptest::collection::vec(
            proptest::collection::vec((0usize..ROWS - 1, 0usize..2), 0..7),
            2..10,
        ),
        clip_active in 0u8..2,
    ) {
        use dial_tensor::optim::{AdamW, LrGroup, Schedule};
        use dial_tensor::Grads;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let table = store.add("t.table", dial_tensor::init::normal(ROWS, cols, 1.0, &mut rng));
        let bias = store.add("bias", dial_tensor::init::normal(1, 3, 1.0, &mut rng));
        let mut dense = store.clone();
        // The schedule reaches 0 halfway and stays there.
        let new_opt = |s: &ParamStore| {
            let groups = vec![LrGroup { prefix: "t.".into(), lr: 3e-2 }];
            let mut opt = AdamW::with_groups(s, 1e-2, groups, Schedule::LinearDecay { total_steps: steps.len() / 2 });
            opt.set_weight_decay(0.1);
            opt
        };
        let (mut opt, mut opt_dense) = (new_opt(&store), new_opt(&dense));
        let max_norm = if clip_active == 1 { 1e-2 } else { 1e6 };
        let mut shards: Vec<Grads> = vec![store.new_grads(); 2];
        let mut dense_shards: Vec<Grads> = vec![store.new_grads(); 2];
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();

        for (t, positions) in steps.iter().enumerate() {
            // The last row is touched at the first step only, then idles.
            let mut positions = positions.clone();
            if t == 0 {
                positions.push((ROWS - 1, 1));
            }
            shards.iter_mut().chain(&mut dense_shards).for_each(Grads::fill_zero);
            for (k, (shard, dense_shard)) in shards.iter_mut().zip(&mut dense_shards).enumerate() {
                let rows: Vec<u32> =
                    positions.iter().filter(|p| p.1 == k).map(|p| p.0 as u32).collect();
                let coef = Matrix::from_vec(
                    rows.len(),
                    cols,
                    (0..rows.len() * cols).map(|_| rng.gen_range(-2.0f32..2.0)).collect(),
                );
                let bias_coef = Matrix::from_vec(1, 3, (0..3).map(|_| rng.gen_range(-2.0f32..2.0)).collect());
                // Row-tracked: the table through the tape's gather.
                let mut g = Graph::new();
                let e = g.gather(&store, table, &rows);
                let c = g.input(coef.clone());
                let ec = g.mul(e, c);
                let b = g.param(&store, bias);
                let bc = g.input(bias_coef.clone());
                let bbc = g.mul(b, bc);
                let (l1, l2) = (g.sum(ec), g.sum(bbc));
                let loss = g.add(l1, l2);
                g.backward_into(loss, &store, shard);
                // Dense: the same rows as whole-buffer adds, zero-padded.
                let mut sink = dense.grad_sink_into(dense_shard);
                for (p, &r) in rows.iter().enumerate() {
                    let mut padded = Matrix::zeros(ROWS, cols);
                    padded.row_mut(r as usize).copy_from_slice(coef.row(p));
                    sink.add(table, padded.as_slice());
                }
                sink.add(bias, bias_coef.as_slice());
            }
            for (s, shards) in [(&mut store, &shards), (&mut dense, &dense_shards)] {
                shards.iter().for_each(|shard| s.accumulate_grads_from(shard));
                s.scale_grads(0.5);
            }
            prop_assert!(store.grad_touched_rows(table).is_some());
            prop_assert_eq!(dense.grad_touched_rows(table).is_none(), !positions.is_empty());
            let (norm, dense_norm) = (store.clip_grad_norm(max_norm), dense.clip_grad_norm(max_norm));
            prop_assert_eq!(norm.to_bits(), dense_norm.to_bits(), "pre-clip norm, step {}", t);
            opt.step(&mut store);
            opt_dense.step(&mut dense);
            for id in [table, bias] {
                prop_assert_eq!(bits(store.value(id)), bits(dense.value(id)), "{} after step {}", store.name(id), t);
                let ((m, v), (dm, dv)) = (opt.moments(id), opt_dense.moments(id));
                prop_assert_eq!(bits(m), bits(dm), "first moment of {}", store.name(id));
                prop_assert_eq!(bits(v), bits(dv), "second moment of {}", store.name(id));
                prop_assert_eq!(store.grad(id).sq_norm(), 0.0);
            }
        }
    }
}

/// Rows of the table in the touched-row optimizer test.
const ROWS: usize = 12;
