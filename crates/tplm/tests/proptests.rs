//! The graph-free forward against its oracle, the tape: `Tplm::encode_into`
//! and `embed_single_into` must equal `Tplm::encode` / `encode_single` at
//! `dropout = 0` bit for bit, at whatever dispatch level the process runs
//! (CI repeats this suite under `DIAL_FORCE_SCALAR=1`).

use dial_tensor::optim::AdamW;
use dial_tensor::{Graph, ParamStore};
use dial_text::TokenId;
use dial_tplm::{EncodeScratch, Tplm, TplmConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Two layers and two heads at a narrow width, and the default trunk's
/// shape (four 16-wide heads, lengths up to 64 — every softmax tail).
fn configs() -> [TplmConfig; 2] {
    let narrow = TplmConfig { n_layers: 2, ..TplmConfig::tiny() };
    [narrow, TplmConfig { vocab_size: 64 + 5, ..TplmConfig::default() }]
}

/// A trunk whose every parameter — biases and LayerNorm rows included —
/// has moved off its initial value: a few optimizer steps on a mean-pooled
/// embedding.
fn trained_trunk(config: TplmConfig, seqs: &[Vec<TokenId>]) -> (Tplm, ParamStore) {
    let mut store = ParamStore::new();
    let model = Tplm::new(config, &mut store);
    let mut opt = AdamW::new(&store, 1e-2);
    let mut rng = StdRng::seed_from_u64(config.seed);
    for ids in seqs.iter().take(3) {
        let mut g = Graph::new();
        let e = model.encode_single(&mut g, &store, ids, 0.1, &mut rng);
        let sq = g.mul(e, e);
        let loss = g.sum(sq);
        store.zero_grads();
        g.backward(loss, &mut store);
        opt.step(&mut store);
    }
    (model, store)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn graph_free_forward_matches_the_tape_bitwise(
        seed in 0u64..1000,
        which in 0usize..2,
        // Lengths in whatever order they come, 1 up to max_len, so one
        // scratch grows and shrinks between calls.
        lens in proptest::collection::vec(0usize..64, 6..10),
        tokens in proptest::collection::vec(0u32..69, 64),
    ) {
        let config = TplmConfig { seed, ..configs()[which] };
        let seqs: Vec<Vec<TokenId>> = lens
            .iter()
            .enumerate()
            .map(|(i, &l)| {
                let n = 1 + l % config.max_len;
                (0..n).map(|j| tokens[(i * 7 + j) % tokens.len()]).collect()
            })
            .chain([vec![1; config.max_len]])
            .collect();
        let (model, store) = trained_trunk(config, &seqs);

        let mut scratch = EncodeScratch::default();
        let mut rng = StdRng::seed_from_u64(0);
        for ids in &seqs {
            let mut g = Graph::new();
            let ctx = model.encode(&mut g, &store, ids, 0.0, &mut rng);
            let got = model.encode_into(&store, ids, &mut scratch);
            prop_assert_eq!(bits(got), bits(g.value(ctx).as_slice()), "encode, {} tokens", ids.len());

            let pooled = g.mean_rows(ctx);
            let mut out = vec![f32::NAN; config.d_model];
            model.embed_single_into(&store, ids, &mut scratch, &mut out);
            prop_assert_eq!(bits(&out), bits(g.value(pooled).as_slice()), "embed_single_into");
            prop_assert_eq!(bits(&model.embed_single(&store, ids)), bits(&out), "embed_single");
        }
    }
}
