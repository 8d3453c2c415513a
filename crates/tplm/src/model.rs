//! The mini transformer encoder.
//!
//! Architecture (BERT/RoBERTa post-layer-norm):
//!
//! ```text
//! x   = TokEmb[ids] + PosEmb[0..n]
//! for each layer:
//!     a = MultiHeadSelfAttention(x)
//!     x = LayerNorm(x + Dropout(a))
//!     f = W2 · GELU(W1 · x + b1) + b2
//!     x = LayerNorm(x + Dropout(f))
//! ```
//!
//! The model owns only parameter *handles*; values live in the caller's
//! [`ParamStore`], so the same weights serve the matcher (which fine-tunes
//! them) and the blocker (which freezes them), and a store snapshot
//! implements the paper's per-round reset to pre-trained weights.

use crate::config::TplmConfig;
use dial_tensor::{init, kernels, Graph, Matrix, ParamId, ParamStore, Var};
use dial_text::TokenId;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Per-layer parameter handles.
#[derive(Debug, Clone)]
struct LayerParams {
    wq: ParamId,
    wk: ParamId,
    wv: ParamId,
    wo: ParamId,
    bo: ParamId,
    ln1_gain: ParamId,
    ln1_bias: ParamId,
    ff_w1: ParamId,
    ff_b1: ParamId,
    ff_w2: ParamId,
    ff_b2: ParamId,
    ln2_gain: ParamId,
    ln2_bias: ParamId,
}

/// Transformer encoder with learned token and position embeddings.
#[derive(Debug, Clone)]
pub struct Tplm {
    config: TplmConfig,
    tok_emb: ParamId,
    pos_emb: ParamId,
    layers: Vec<LayerParams>,
}

/// Buffers of the graph-free forward ([`Tplm::encode_into`]): sized on
/// first use, then reused across sequences of any length. `x` (`[n, d]`)
/// holds the running activations and the output; `q`, `k`, `v` the
/// projections, `q` then each sub-layer's output; `qh`, `kh`, `vh`
/// (`[n, d_head]`) one head's contiguous slices, `qh` then its output;
/// `scores` and `attn` (`[n, n]`) its scores and their softmax; `concat`
/// the heads' outputs side by side; `ffn` is `[n, d_ff]`.
#[derive(Debug, Default)]
pub struct EncodeScratch {
    x: Vec<f32>,
    q: Vec<f32>,
    k: Vec<f32>,
    v: Vec<f32>,
    qh: Vec<f32>,
    kh: Vec<f32>,
    vh: Vec<f32>,
    scores: Vec<f32>,
    attn: Vec<f32>,
    concat: Vec<f32>,
    ffn: Vec<f32>,
}

/// Columns `lo..lo + w` of every `cols`-wide row of `src`, packed into
/// `dst` (`[n, w]`).
fn copy_cols(src: &[f32], cols: usize, lo: usize, dst: &mut [f32], w: usize) {
    for (d, s) in dst.chunks_exact_mut(w).zip(src.chunks_exact(cols)) {
        d.copy_from_slice(&s[lo..lo + w]);
    }
}

/// Parameter-name prefix for all trunk weights. The matcher's AdamW uses it
/// to give the trunk the paper's 3e-5 learning rate, and the blocker uses it
/// to freeze the trunk.
pub const TRUNK_PREFIX: &str = "tplm.";

/// Identity plus Gaussian noise of standard deviation `noise`.
fn near_identity(d: usize, noise: f32, rng: &mut StdRng) -> Matrix {
    let mut m = init::normal(d, d, noise, rng);
    for i in 0..d {
        let v = m.get(i, i) + 1.0;
        m.set(i, i, v);
    }
    m
}

impl Tplm {
    /// Register all trunk parameters in `store` and return the model.
    pub fn new(config: TplmConfig, store: &mut ParamStore) -> Self {
        config.validate();
        let d = config.d_model;
        let mut rng = StdRng::seed_from_u64(config.seed);

        // Token embeddings: row 0 is [PAD] and stays zero.
        let mut tok = init::normal(config.vocab_size, d, 0.02_f32.sqrt().min(0.1), &mut rng);
        // Scale to unit-ish variance rows like pre-trained embeddings.
        for v in tok.as_mut_slice().iter_mut() {
            *v *= 5.0;
        }
        let tok_emb = store.add(format!("{TRUNK_PREFIX}tok_emb"), tok);
        let pos_emb = store
            .add(format!("{TRUNK_PREFIX}pos_emb"), init::normal(config.max_len, d, 0.05, &mut rng));

        let mut layers = Vec::with_capacity(config.n_layers);
        for l in 0..config.n_layers {
            let p = |suffix: &str| format!("{TRUNK_PREFIX}layer{l}.{suffix}");
            // Q/K/V start near the identity: attention scores then begin as
            // token-embedding similarity, so "attend to your own copy in
            // the other segment" is available from step one. Pre-trained
            // transformers arrive with such matching heads (this is the
            // behavioural prior our pre-training substitute cannot learn
            // from co-occurrence alone); see DESIGN.md §2.
            layers.push(LayerParams {
                wq: store.add(p("wq"), near_identity(d, 0.05, &mut rng)),
                wk: store.add(p("wk"), near_identity(d, 0.05, &mut rng)),
                wv: store.add(p("wv"), near_identity(d, 0.05, &mut rng)),
                wo: store.add(p("wo"), init::xavier_uniform(d, d, &mut rng)),
                bo: store.add(p("bo"), Matrix::zeros(1, d)),
                ln1_gain: store.add(p("ln1.gain"), Matrix::full(1, d, 1.0)),
                ln1_bias: store.add(p("ln1.bias"), Matrix::zeros(1, d)),
                ff_w1: store.add(p("ff.w1"), init::xavier_uniform(d, config.d_ff, &mut rng)),
                ff_b1: store.add(p("ff.b1"), Matrix::zeros(1, config.d_ff)),
                ff_w2: store.add(p("ff.w2"), init::xavier_uniform(config.d_ff, d, &mut rng)),
                ff_b2: store.add(p("ff.b2"), Matrix::zeros(1, d)),
                ln2_gain: store.add(p("ln2.gain"), Matrix::full(1, d, 1.0)),
                ln2_bias: store.add(p("ln2.bias"), Matrix::zeros(1, d)),
            });
        }
        Tplm { config, tok_emb, pos_emb, layers }
    }

    pub fn config(&self) -> &TplmConfig {
        &self.config
    }

    /// Handle of the token-embedding table (the pre-training substitute
    /// writes into it; the multilingual alignment initializer reads it).
    pub fn token_embedding_param(&self) -> ParamId {
        self.tok_emb
    }

    /// Freeze or unfreeze every trunk parameter.
    pub fn set_trunk_frozen(&self, store: &mut ParamStore, frozen: bool) {
        store.set_frozen_by_prefix(TRUNK_PREFIX, frozen);
    }

    fn check_len(&self, ids: &[TokenId]) {
        assert!(!ids.is_empty(), "cannot encode an empty sequence");
        assert!(
            ids.len() <= self.config.max_len,
            "sequence length {} exceeds max_len {}",
            ids.len(),
            self.config.max_len
        );
    }

    /// Encode a token sequence to contextual embeddings `[n, d]` on the
    /// tape — what training differentiates, and the bitwise oracle of
    /// [`Tplm::encode_into`].
    ///
    /// `dropout > 0` requires `rng`; pass `0.0` for inference.
    pub fn encode(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        ids: &[TokenId],
        dropout: f32,
        rng: &mut StdRng,
    ) -> Var {
        self.check_len(ids);
        let n = ids.len();
        let tok = g.gather(store, self.tok_emb, ids);
        let positions: Vec<u32> = (0..n as u32).collect();
        let pos = g.gather(store, self.pos_emb, &positions);
        let mut x = g.add(tok, pos);

        let scale = 1.0 / (self.config.d_head() as f32).sqrt();
        for layer in &self.layers {
            // ---- multi-head self-attention ----
            let wq = g.param(store, layer.wq);
            let wk = g.param(store, layer.wk);
            let wv = g.param(store, layer.wv);
            let q = g.matmul(x, wq);
            let k = g.matmul(x, wk);
            let v = g.matmul(x, wv);

            let dh = self.config.d_head();
            let mut heads = Vec::with_capacity(self.config.n_heads);
            for h in 0..self.config.n_heads {
                let (lo, hi) = (h * dh, (h + 1) * dh);
                let qh = g.slice_cols(q, lo, hi);
                let kh = g.slice_cols(k, lo, hi);
                let vh = g.slice_cols(v, lo, hi);
                let scores = g.matmul_t(qh, kh);
                let scores = g.scale(scores, scale);
                let attn = g.softmax_rows(scores);
                heads.push(g.matmul(attn, vh));
            }
            let concat = g.concat_cols(&heads);
            let wo = g.param(store, layer.wo);
            let bo = g.param(store, layer.bo);
            let a = g.linear(concat, wo, bo);
            let a = g.dropout(a, dropout, rng);
            let res = g.add(x, a);
            let ln1_gain = g.param(store, layer.ln1_gain);
            let ln1_bias = g.param(store, layer.ln1_bias);
            x = g.layer_norm(res, ln1_gain, ln1_bias);

            // ---- feed-forward ----
            let w1 = g.param(store, layer.ff_w1);
            let b1 = g.param(store, layer.ff_b1);
            let w2 = g.param(store, layer.ff_w2);
            let b2 = g.param(store, layer.ff_b2);
            let h1 = g.linear(x, w1, b1);
            let h1 = g.gelu(h1);
            let h2 = g.linear(h1, w2, b2);
            let h2 = g.dropout(h2, dropout, rng);
            let res2 = g.add(x, h2);
            let ln2_gain = g.param(store, layer.ln2_gain);
            let ln2_bias = g.param(store, layer.ln2_bias);
            x = g.layer_norm(res2, ln2_gain, ln2_bias);
        }
        x
    }

    /// Single-mode record embedding `E(x)`: the mean of the last layer's
    /// token embeddings (paper Eq. 3), shape `[1, d]`.
    pub fn encode_single(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        ids: &[TokenId],
        dropout: f32,
        rng: &mut StdRng,
    ) -> Var {
        let ctx = self.encode(g, store, ids, dropout, rng);
        g.mean_rows(ctx)
    }

    /// [`Tplm::encode`] at `dropout = 0` without a tape: the contextual
    /// embeddings `[n, d]`, computed in `scratch` and borrowed from it.
    ///
    /// Issues the kernel calls `encode` issues, in its order, on buffers
    /// instead of graph nodes, so the result is bitwise `encode`'s. Nothing
    /// is kept for a backward pass.
    pub fn encode_into<'s>(
        &self,
        store: &ParamStore,
        ids: &[TokenId],
        scratch: &'s mut EncodeScratch,
    ) -> &'s [f32] {
        self.check_len(ids);
        let (n, d, dh, d_ff) =
            (ids.len(), self.config.d_model, self.config.d_head(), self.config.d_ff);
        let s = scratch;
        let (tok, pos) = (store.value(self.tok_emb), store.value(self.pos_emb));
        s.x.clear();
        for (p, &id) in ids.iter().enumerate() {
            s.x.extend(tok.row(id as usize).iter().zip(pos.row(p)).map(|(t, p)| t + p));
        }
        for buf in [&mut s.q, &mut s.k, &mut s.v, &mut s.concat] {
            buf.resize(n * d, 0.0);
        }
        for buf in [&mut s.qh, &mut s.kh, &mut s.vh] {
            buf.resize(n * dh, 0.0);
        }
        for buf in [&mut s.scores, &mut s.attn] {
            buf.resize(n * n, 0.0);
        }
        s.ffn.resize(n * d_ff, 0.0);

        let w = |id: ParamId| store.value(id).as_slice();
        let scale = 1.0 / (dh as f32).sqrt();
        for layer in &self.layers {
            // ---- multi-head self-attention ----
            kernels::matmul(&s.x, w(layer.wq), n, d, d, &mut s.q);
            kernels::matmul(&s.x, w(layer.wk), n, d, d, &mut s.k);
            kernels::matmul(&s.x, w(layer.wv), n, d, d, &mut s.v);
            for lo in (0..d).step_by(dh) {
                copy_cols(&s.q, d, lo, &mut s.qh, dh);
                copy_cols(&s.k, d, lo, &mut s.kh, dh);
                copy_cols(&s.v, d, lo, &mut s.vh, dh);
                kernels::matmul_t(&s.qh, &s.kh, n, n, dh, &mut s.scores);
                kernels::scale(&mut s.scores, scale);
                kernels::softmax_rows(&s.scores, n, &mut s.attn);
                kernels::matmul(&s.attn, &s.vh, n, n, dh, &mut s.qh);
                for (row, head) in s.concat.chunks_exact_mut(d).zip(s.qh.chunks_exact(dh)) {
                    row[lo..lo + dh].copy_from_slice(head);
                }
            }
            kernels::matmul(&s.concat, w(layer.wo), n, d, d, &mut s.q);
            kernels::add_row(&mut s.q, w(layer.bo));
            kernels::add_assign(&mut s.x, &s.q);
            kernels::layer_norm_rows(&mut s.x, w(layer.ln1_gain), w(layer.ln1_bias));

            // ---- feed-forward ----
            kernels::matmul(&s.x, w(layer.ff_w1), n, d, d_ff, &mut s.ffn);
            kernels::add_row(&mut s.ffn, w(layer.ff_b1));
            kernels::gelu_in_place(&mut s.ffn);
            kernels::matmul(&s.ffn, w(layer.ff_w2), n, d_ff, d, &mut s.q);
            kernels::add_row(&mut s.q, w(layer.ff_b2));
            kernels::add_assign(&mut s.x, &s.q);
            kernels::layer_norm_rows(&mut s.x, w(layer.ln2_gain), w(layer.ln2_bias));
        }
        &s.x
    }

    /// Inference-only single-mode embedding `E(x)` into `out` (`d` floats),
    /// graph-free; `scratch` is reusable across calls.
    pub fn embed_single_into(
        &self,
        store: &ParamStore,
        ids: &[TokenId],
        scratch: &mut EncodeScratch,
        out: &mut [f32],
    ) {
        assert_eq!(out.len(), self.config.d_model, "embed_single_into: output width");
        kernels::mean_rows(self.encode_into(store, ids, scratch), out);
    }

    /// Inference-only single-mode embedding as a plain vector.
    pub fn embed_single(&self, store: &ParamStore, ids: &[TokenId]) -> Vec<f32> {
        let mut out = vec![0.0; self.config.d_model];
        self.embed_single_into(store, ids, &mut EncodeScratch::default(), &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (Tplm, ParamStore) {
        let mut store = ParamStore::new();
        let model = Tplm::new(TplmConfig::tiny(), &mut store);
        (model, store)
    }

    #[test]
    fn encode_shapes() {
        let (model, store) = tiny();
        let mut g = Graph::new();
        let mut rng = StdRng::seed_from_u64(0);
        let out = model.encode(&mut g, &store, &[1, 7, 9, 2], 0.0, &mut rng);
        assert_eq!(g.value(out).shape(), (4, 16));
    }

    #[test]
    fn single_mode_is_row() {
        let (model, store) = tiny();
        let mut g = Graph::new();
        let mut rng = StdRng::seed_from_u64(0);
        let out = model.encode_single(&mut g, &store, &[1, 7, 9, 2], 0.0, &mut rng);
        assert_eq!(g.value(out).shape(), (1, 16));
    }

    #[test]
    fn encoding_is_deterministic_without_dropout() {
        let (model, store) = tiny();
        let a = model.embed_single(&store, &[1, 5, 6, 2]);
        let b = model.embed_single(&store, &[1, 5, 6, 2]);
        assert_eq!(a, b);
    }

    #[test]
    fn different_tokens_give_different_embeddings() {
        let (model, store) = tiny();
        let a = model.embed_single(&store, &[1, 5, 6, 2]);
        let b = model.embed_single(&store, &[1, 8, 9, 2]);
        assert_ne!(a, b);
    }

    #[test]
    fn context_matters_beyond_bag_of_words() {
        // Same multiset of tokens, different order: learned positions make
        // the contextual embeddings differ.
        let (model, store) = tiny();
        let a = model.embed_single(&store, &[1, 5, 6, 7, 2]);
        let b = model.embed_single(&store, &[1, 7, 6, 5, 2]);
        assert_ne!(a, b);
    }

    #[test]
    fn trunk_freezing_blocks_all_grads() {
        let (model, mut store) = tiny();
        model.set_trunk_frozen(&mut store, true);
        let mut g = Graph::new();
        let mut rng = StdRng::seed_from_u64(0);
        let e = model.encode_single(&mut g, &store, &[1, 3, 2], 0.0, &mut rng);
        let sq = g.mul(e, e);
        let loss = g.sum(sq);
        g.backward(loss, &mut store);
        assert_eq!(store.grad_sq_norm(), 0.0);
    }

    #[test]
    fn gradients_flow_through_full_stack() {
        let (model, mut store) = tiny();
        let mut g = Graph::new();
        let mut rng = StdRng::seed_from_u64(0);
        let e = model.encode_single(&mut g, &store, &[1, 3, 4, 2], 0.0, &mut rng);
        let sq = g.mul(e, e);
        let loss = g.sum(sq);
        g.backward(loss, &mut store);
        // Every layer's attention weights should receive gradient.
        let touched = store
            .ids()
            .filter(|&id| store.name(id).contains("wq") && store.grad(id).sq_norm() > 0.0)
            .count();
        assert_eq!(touched, 1);
        assert!(store.grad(model.token_embedding_param()).sq_norm() > 0.0);
    }

    #[test]
    #[should_panic(expected = "exceeds max_len")]
    fn too_long_sequence_panics() {
        let (model, store) = tiny();
        let mut g = Graph::new();
        let mut rng = StdRng::seed_from_u64(0);
        let ids: Vec<u32> = (0..100).map(|i| 5 + (i % 30)).collect();
        model.encode(&mut g, &store, &ids, 0.0, &mut rng);
    }
}
