//! Autograd engine micro-benchmarks: the three products, the coverage
//! block's all-pairs distances and the transcendental kernels that
//! dominate matcher training and scoring (Table 9's mechanism), at the
//! trunk's shapes, dispatched, capped at AVX2 and forced-scalar in one
//! process; the transcendentals also against the libm formulas they
//! replaced.
//!
//! Writes `REPRO_OUT/BENCH_tensor.json` (default `results/`) with the
//! Gflop/s or ns per element of every row, the thread count and the SIMD
//! tier dispatch used (`simd`: `avx512`, `avx2`, `neon` or `scalar`), and
//! fails if the dispatched kernels are slower than the scalar loops. On
//! an AVX-512 host the AVX2 column is the 256-bit bodies on the same
//! inputs — the before/after of that tier in one run; elsewhere it times
//! what dispatch runs. Every mode produces the same bits; the run checks
//! that too.
use dial_bench::report::{json_f64, json_obj, json_str, print_table};
use dial_simd::SimdLevel;
use dial_tensor::{init, kernels, Graph, Matrix, ParamStore};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Sequence length of a typical paired input.
const N: usize = 48;

type Product = fn(&Matrix, &Matrix) -> Matrix;

/// The products of one trunk layer's forward and backward at `n = 48`,
/// `d_model = 64`, `d_ff = 128`, `d_head = 16`:
/// `(row, op, left, right, flops)`.
fn cases(rng: &mut StdRng) -> Vec<(String, Product, Matrix, Matrix, f64)> {
    let mut out: Vec<(String, Product, Matrix, Matrix, f64)> = Vec::new();
    for (k, n) in [(64, 64), (64, 128), (128, 64)] {
        let x = init::normal(N, k, 1.0, rng);
        let w = init::normal(k, n, 0.1, rng);
        let g = init::normal(N, n, 1.0, rng);
        let flops = (2 * N * k * n) as f64;
        out.push((
            format!("matmul {N}x{k} @ {k}x{n}"),
            Matrix::matmul,
            x.clone(),
            w.clone(),
            flops,
        ));
        out.push((
            format!("t_matmul ({N}x{k})^T @ {N}x{n}"),
            Matrix::t_matmul,
            x,
            g.clone(),
            flops,
        ));
        out.push((format!("matmul_t {N}x{n} @ ({k}x{n})^T"), Matrix::matmul_t, g, w, flops));
    }
    // Per head: scores = q kᵀ, context = attn v, and v's gradient attnᵀ g.
    let q = init::normal(N, 16, 1.0, rng);
    let k = init::normal(N, 16, 1.0, rng);
    let attn = init::normal(N, N, 0.1, rng);
    let flops = (2 * N * N * 16) as f64;
    out.push((format!("matmul_t {N}x16 @ ({N}x16)^T"), Matrix::matmul_t, q, k.clone(), flops));
    out.push((format!("matmul {N}x{N} @ {N}x16"), Matrix::matmul, attn.clone(), k.clone(), flops));
    out.push((format!("t_matmul ({N}x{N})^T @ {N}x16"), Matrix::t_matmul, attn, k, flops));
    // The matcher's coverage block, once per scored pair: about 20 × 20
    // tokens, over 16-wide crisp rows and `d_model`-wide rows. A pair
    // costs three flops per dimension (subtract, multiply, add).
    for dim in [16, 64] {
        let (r, s) = (init::normal(20, dim, 1.0, rng), init::normal(20, dim, 1.0, rng));
        let flops = (3 * 20 * 20 * dim) as f64;
        out.push((format!("cross_sq_dists 20x{dim} vs 20x{dim}"), cross_sq_dists, r, s, flops));
    }
    out
}

/// `out[i][j] = ‖a_i − b_j‖²` through the dispatched kernel.
fn cross_sq_dists(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.rows());
    let (na, nb, dim) = (a.rows(), b.rows(), a.cols());
    kernels::cross_sq_dists_into(a.as_slice(), b.as_slice(), na, nb, dim, out.as_mut_slice());
    out
}

/// `(input, out, saved tanh)` → `out`; the kernel and its libm formula.
type Elementwise = fn(&[f32], &mut [f32], &mut [f32]);

/// The transcendental kernels at one layer's shapes — GELU over the
/// `48 × d_ff` hidden activations, softmax over one head's `48 × 48`
/// scores — and the bare `exp`/`tanh` maps: `(row, rows, cols, kernel,
/// libm formula)`.
fn transcendentals() -> Vec<(&'static str, usize, usize, Elementwise, Elementwise)> {
    fn map(x: &[f32], out: &mut [f32], f: impl Fn(&mut [f32])) {
        out.copy_from_slice(x);
        f(out);
    }
    vec![
        (
            "exp",
            N,
            128,
            |x, out, _| map(x, out, kernels::exp_slice),
            |x, out, _| map(x, out, |v| v.iter_mut().for_each(|e| *e = e.exp())),
        ),
        (
            "tanh",
            N,
            128,
            |x, out, _| map(x, out, kernels::tanh_slice),
            |x, out, _| map(x, out, |v| v.iter_mut().for_each(|e| *e = e.tanh())),
        ),
        ("gelu", N, 128, kernels::gelu, |x, out, tanh| {
            for ((&x, o), t) in x.iter().zip(out).zip(tanh) {
                *t = (0.797_884_6 * (x + 0.044715 * x * x * x)).tanh();
                *o = 0.5 * x * (1.0 + *t);
            }
        }),
        (
            "softmax_rows",
            N,
            N,
            |x, out, _| kernels::softmax_rows(x, N, out),
            |x, out, _| {
                for (row, o) in x.chunks_exact(N).zip(out.chunks_exact_mut(N)) {
                    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                    let mut sum = 0.0;
                    for (o, v) in o.iter_mut().zip(row) {
                        *o = (v - max).exp();
                        sum += *o;
                    }
                    o.iter_mut().for_each(|v| *v /= sum);
                }
            },
        ),
    ]
}

/// Median seconds per call over 15 samples of ~2 ms each.
fn time_call(f: &mut dyn FnMut()) -> f64 {
    let warm = Instant::now();
    f();
    let once = warm.elapsed().max(Duration::from_nanos(1));
    let batch = (Duration::from_millis(2).as_nanos() / once.as_nanos()).clamp(1, 100_000) as u32;
    let mut samples: Vec<f64> = (0..15)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            t.elapsed().as_secs_f64() / batch as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// `f` with dispatch capped at `level`, restoring the ambient cap.
fn capped<T>(level: SimdLevel, f: impl FnOnce() -> T) -> T {
    let was = dial_simd::max_level();
    dial_simd::set_max_level(level);
    let out = f();
    dial_simd::set_max_level(was);
    out
}

/// `f` under forced-scalar dispatch, restoring the ambient setting.
fn forced_scalar<T>(f: impl FnOnce() -> T) -> T {
    capped(SimdLevel::Scalar, f)
}

/// `f` on the AVX2 bodies where dispatch would pick wider ones.
fn at_avx2<T>(f: impl FnOnce() -> T) -> T {
    capped(SimdLevel::Avx2, f)
}

fn attention_fwd_bwd(store: &mut ParamStore, ids: [dial_tensor::ParamId; 3], x: &Matrix) {
    let mut g = Graph::new();
    let xin = g.input(x.clone());
    let [wq, wk, wv] = ids.map(|id| g.param(store, id));
    let q = g.matmul(xin, wq);
    let k = g.matmul(xin, wk);
    let v = g.matmul(xin, wv);
    let scores = g.matmul_t(q, k);
    let attn = g.softmax_rows(scores);
    let out = g.matmul(attn, v);
    let loss = g.mean(out);
    g.backward(loss, store);
    store.zero_grads();
}

fn main() {
    let mut rng = StdRng::seed_from_u64(0);
    let simd = dial_simd::simd_label();
    let threads = rayon::current_num_threads();

    let mut rows = Vec::new();
    let mut cells = Vec::new();
    let (mut flops_sum, mut simd_s, mut scalar_s) = (0.0, 0.0, 0.0);
    for (name, op, a, b, flops) in cases(&mut rng) {
        let fast = op(&a, &b);
        for (mode, other) in
            [("AVX2", at_avx2(|| op(&a, &b))), ("forced-scalar", forced_scalar(|| op(&a, &b)))]
        {
            assert!(
                fast.as_slice()
                    .iter()
                    .zip(other.as_slice())
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "{name}: dispatched and {mode} results differ"
            );
        }
        let run = || {
            time_call(&mut || {
                black_box(op(black_box(&a), black_box(&b)));
            })
        };
        let (t_simd, t_avx2, t_scalar) = (run(), at_avx2(run), forced_scalar(run));
        flops_sum += flops;
        simd_s += t_simd;
        scalar_s += t_scalar;
        let gf = |t: f64| flops / t / 1e9;
        cells.push(vec![
            name.clone(),
            format!("{:.1}", gf(t_simd)),
            format!("{:.1}", gf(t_avx2)),
            format!("{:.1}", gf(t_scalar)),
            format!("{:.2}", t_scalar / t_simd),
        ]);
        rows.push(json_obj(&[
            ("op", json_str(&name)),
            ("gflops", json_f64(gf(t_simd))),
            ("gflops_avx2", json_f64(gf(t_avx2))),
            ("gflops_scalar", json_f64(gf(t_scalar))),
            ("speedup_vs_scalar", json_f64(t_scalar / t_simd)),
        ]));
    }

    // The transcendental kernels: dispatched, forced scalar, and libm.
    let mut trans_rows = Vec::new();
    let mut trans_cells = Vec::new();
    let (mut trans_simd_s, mut trans_scalar_s) = (0.0, 0.0);
    for (name, r, c, kernel, libm) in transcendentals() {
        let x = init::normal(r, c, 2.0, &mut rng).into_vec();
        let (mut out, mut saved) = (vec![0.0f32; x.len()], vec![0.0f32; x.len()]);
        let mut run = |f: Elementwise| {
            time_call(&mut || f(black_box(&x), black_box(&mut out), black_box(&mut saved)))
        };
        let (t_simd, t_libm) = (run(kernel), run(libm));
        let t_avx2 = at_avx2(|| run(kernel));
        let t_scalar = forced_scalar(|| run(kernel));
        let (mut fast, mut avx2, mut slow) = (out.clone(), out.clone(), out.clone());
        kernel(&x, &mut fast, &mut saved);
        at_avx2(|| kernel(&x, &mut avx2, &mut saved));
        forced_scalar(|| kernel(&x, &mut slow, &mut saved));
        for (mode, other) in [("AVX2", &avx2), ("forced-scalar", &slow)] {
            assert!(
                fast.iter().zip(other).all(|(a, b)| a.to_bits() == b.to_bits()),
                "{name}: dispatched and {mode} results differ"
            );
        }
        trans_simd_s += t_simd;
        trans_scalar_s += t_scalar;
        let ns = |t: f64| t * 1e9 / x.len() as f64;
        trans_cells.push(vec![
            format!("{name} {r}x{c}"),
            format!("{:.2}", ns(t_simd)),
            format!("{:.2}", ns(t_avx2)),
            format!("{:.2}", ns(t_scalar)),
            format!("{:.2}", ns(t_libm)),
            format!("{:.2}", t_libm / t_simd),
        ]);
        trans_rows.push(json_obj(&[
            ("op", json_str(&format!("{name} {r}x{c}"))),
            ("ns_per_element", json_f64(ns(t_simd))),
            ("ns_per_element_avx2", json_f64(ns(t_avx2))),
            ("ns_per_element_scalar", json_f64(ns(t_scalar))),
            ("ns_per_element_libm", json_f64(ns(t_libm))),
            ("speedup_vs_libm", json_f64(t_libm / t_simd)),
        ]));
    }

    // Forward + backward through an attention-shaped graph: the kernels
    // plus the tape's own overhead.
    let mut store = ParamStore::new();
    let ids = ["wq", "wk", "wv"].map(|n| store.add(n, init::normal(64, 64, 0.1, &mut rng)));
    let x = init::normal(N, 64, 1.0, &mut rng);
    let attn_us = 1e6 * time_call(&mut || attention_fwd_bwd(&mut store, ids, &x));
    let attn_scalar_us =
        1e6 * forced_scalar(|| time_call(&mut || attention_fwd_bwd(&mut store, ids, &x)));

    print_table(
        &format!("Tensor products at the trunk's shapes ({simd}, {threads} threads)"),
        &["Product", "Gflop/s", "Gflop/s AVX2", "Gflop/s scalar", "Speedup"],
        &cells,
    );
    print_table(
        "Transcendental kernels, ns per element",
        &["Kernel", "Dispatched", "AVX2", "Forced scalar", "libm", "vs libm"],
        &trans_cells,
    );
    let (gflops, gflops_scalar) = (flops_sum / simd_s / 1e9, flops_sum / scalar_s / 1e9);
    println!(
        "all products: {gflops:.1} Gflop/s dispatched, {gflops_scalar:.1} Gflop/s forced scalar"
    );
    println!("attention fwd+bwd seq48 d64: {attn_us:.1} us dispatched, {attn_scalar_us:.1} us forced scalar");

    let report = json_obj(&[
        ("threads", threads.to_string()),
        ("simd", json_str(simd)),
        ("gflops", json_f64(gflops)),
        ("gflops_scalar", json_f64(gflops_scalar)),
        ("attention_fwd_bwd_us", json_f64(attn_us)),
        ("attention_fwd_bwd_scalar_us", json_f64(attn_scalar_us)),
        ("products", format!("[{}]", rows.join(","))),
        ("transcendentals", format!("[{}]", trans_rows.join(","))),
    ]);
    // Anchored to the workspace root: cargo runs bench binaries from the
    // package directory.
    let dir = std::env::var("REPRO_OUT")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../results").into());
    let path = std::path::Path::new(&dir).join("BENCH_tensor.json");
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, format!("{report}\n")))
    {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("tensor_ops: cannot write {}: {e}", path.display()),
    }

    // With dispatch already scalar (no SIMD host, or DIAL_FORCE_SCALAR)
    // both columns time the same code and only scheduler noise separates
    // them, so the floor loosens.
    let floor = if simd == "scalar" { 0.8 } else { 1.0 };
    assert!(
        gflops >= floor * gflops_scalar,
        "dispatched products ({gflops:.1} Gflop/s) are slower than the scalar loops ({gflops_scalar:.1})"
    );
    assert!(
        floor * trans_simd_s <= trans_scalar_s,
        "dispatched transcendentals ({:.1} us) are slower than their scalar bodies ({:.1} us)",
        trans_simd_s * 1e6,
        trans_scalar_s * 1e6
    );
}
