//! Property-based tests for evaluation metrics, selection invariants,
//! and the persistent retrieval engine.

use dial_ann::IndexSpec;
use dial_core::{
    entropy, index_by_committee, select, Candidate, Prf, RetrievalEngine, SelectionInputs,
    SelectionStrategy,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

proptest! {
    #[test]
    fn prf_always_in_unit_range(tp in 0usize..50, extra_pred in 0usize..50, extra_gold in 0usize..50) {
        let p = Prf::from_counts(tp, tp + extra_pred, tp + extra_gold);
        prop_assert!((0.0..=1.0).contains(&p.precision));
        prop_assert!((0.0..=1.0).contains(&p.recall));
        prop_assert!((0.0..=1.0).contains(&p.f1));
        // F1 is between min and max of P and R (harmonic-mean property).
        let lo = p.precision.min(p.recall);
        let hi = p.precision.max(p.recall);
        prop_assert!(p.f1 >= lo - 1e-12 && p.f1 <= hi + 1e-12);
    }

    #[test]
    fn entropy_symmetric_and_bounded(p in 0.0f32..1.0) {
        let e = entropy(p);
        prop_assert!(e >= 0.0);
        prop_assert!(e <= 2.0f32.ln() + 1e-5);
        prop_assert!((e - entropy(1.0 - p)).abs() < 1e-4);
    }

    #[test]
    fn selection_respects_budget_and_exclusions(
        n in 5usize..40,
        budget in 0usize..20,
        strat_ix in 0usize..7,
        seed in 0u64..100,
    ) {
        let strategies = [
            SelectionStrategy::Random,
            SelectionStrategy::Greedy,
            SelectionStrategy::Uncertainty,
            SelectionStrategy::Qbc,
            SelectionStrategy::Partition2,
            SelectionStrategy::Partition4,
            SelectionStrategy::Badge,
        ];
        let cands: Vec<Candidate> = (0..n as u32)
            .map(|i| Candidate { r: i, s: i, distance: i as f32 * 0.1, rank: 0 })
            .collect();
        let probs: Vec<f32> = (0..n).map(|i| (i as f32 / n as f32).clamp(0.01, 0.99)).collect();
        let feats: Vec<Vec<f32>> = (0..n).map(|i| vec![i as f32, 1.0]).collect();
        let labeled: Vec<(Vec<f32>, bool)> =
            (0..6).map(|i| (vec![i as f32, 1.0], i % 2 == 0)).collect();
        let excluded: HashSet<(u32, u32)> =
            (0..n as u32).filter(|i| i % 3 == 0).map(|i| (i, i)).collect();
        let inputs = SelectionInputs {
            cands: &cands,
            probs: &probs,
            feats: &feats,
            labeled_feats: &labeled,
            excluded: &excluded,
            budget,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let out = select(strategies[strat_ix], &inputs, &mut rng);
        prop_assert!(out.len() <= budget);
        prop_assert!(out.iter().all(|p| !excluded.contains(p)));
        // No duplicates in the selection.
        let set: HashSet<_> = out.iter().collect();
        prop_assert_eq!(set.len(), out.len());
    }

    #[test]
    fn incremental_refresh_at_drift_zero_is_bit_identical_to_rebuild(
        vr_raw in proptest::collection::vec(-2.0f32..2.0, 2 * 30 * 4),
        vs_raw in proptest::collection::vec(-2.0f32..2.0, 2 * 18 * 4),
        k in 1usize..5,
        depth in 0usize..3,
        shards in 1usize..4,
    ) {
        // The tentpole exactness guarantee: retrieving twice with
        // unchanged committee views — the second round taking the
        // incremental refresh path (drift = 0) — must yield a
        // CandidateSet bit-identical to the from-scratch rebuild, across
        // pipeline depths and shard counts.
        let dim = 4;
        let views_r: Vec<Vec<f32>> = vr_raw.chunks(30 * dim).map(<[f32]>::to_vec).collect();
        let views_s: Vec<Vec<f32>> = vs_raw.chunks(18 * dim).map(<[f32]>::to_vec).collect();
        let spec = if shards > 1 { IndexSpec::Flat.sharded(shards) } else { IndexSpec::Flat };

        let mut engine = RetrievalEngine::new(spec.clone(), 0.0, depth);
        let rebuilt = engine.retrieve_committee(&views_r, &views_s, dim, k, 400);
        prop_assert_eq!(engine.last_round().incremental_members, 0);
        let refreshed = engine.retrieve_committee(&views_r, &views_s, dim, k, 400);
        prop_assert_eq!(
            engine.last_round().incremental_members, 2,
            "drift 0 must take the incremental path"
        );
        prop_assert_eq!(rebuilt.pairs(), refreshed.pairs());
        // And both equal the stateless reference implementation.
        let reference = index_by_committee(&views_r, &views_s, dim, k, 400, &spec);
        prop_assert_eq!(refreshed.pairs(), reference.pairs());
    }
}

proptest! {
    #[test]
    fn served_responses_bitwise_match_direct_search_through_the_queue(
        rows in proptest::collection::vec(-2.0f32..2.0, 40 * 4..120 * 4),
        qraw in proptest::collection::vec(-2.0f32..2.0, 2 * 4..10 * 4),
        n_req in 1usize..40,
        workers in 0usize..4,
        batch_max in 1usize..9,
        cache_entries in 0usize..8,
        seed in 0u64..50,
    ) {
        // The serving-layer exactness guarantee: whatever batches the
        // admission queue coalesces, however many workers race over
        // them, and whatever the result cache holds (disabled, smaller
        // than the pool, or covering it), every response is bitwise
        // identical to a direct single-query `search` on the same index
        // — ids and f32 distance bits both. Requests draw with heavy
        // repetition from a small pool, so cache hits, in-batch
        // duplicates, and evictions all genuinely occur, and the serve
        // accounting (`served == scanned + hits + coalesced`) must
        // close over whichever mix this case produced.
        let dim = 4;
        let rows = &rows[..rows.len() / dim * dim];
        let pool: Vec<Vec<f32>> =
            qraw.chunks_exact(dim).map(<[f32]>::to_vec).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let requests: Vec<(usize, usize)> = (0..n_req)
            .map(|_| (rng.gen_range(0..pool.len()), rng.gen_range(1..8)))
            .collect();

        let build = || {
            let mut ix = dial_ann::FlatIndex::new(dim, Default::default());
            ix.add_batch(rows);
            ix
        };
        let reference = build();
        let svc = dial_core::QueryService::new(
            Box::new(build()),
            dial_core::ServeConfig {
                queue_capacity: requests.len(),
                batch_max,
                workers,
                default_deadline: None,
                cache_entries,
                cache_bytes: 0,
            },
        );
        let tickets: Vec<dial_core::Ticket> = requests
            .iter()
            .map(|&(q, k)| svc.submit(pool[q].clone(), k, None).unwrap())
            .collect();
        if workers == 0 {
            svc.pump();
        }
        let stats = svc.shutdown();
        prop_assert_eq!(stats.served as usize, requests.len());
        prop_assert!(stats.accounting_closes(), "stats must close: {:?}", stats);
        for (ticket, &(q, k)) in tickets.into_iter().zip(&requests) {
            let got = ticket.wait().unwrap().hits;
            let want = reference.search(&pool[q], k);
            prop_assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(g.id, w.id);
                prop_assert_eq!(g.distance.to_bits(), w.distance.to_bits());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn graph_free_scoring_matches_the_tape_bitwise(
        seed in 0u64..1000,
        // Words per record, after the fixed 0 (a segment with no token), 1
        // and 30 (any pair with it overflows `max_len` and is truncated).
        sizes in proptest::collection::vec(0usize..16, 7),
        words in proptest::collection::vec(0usize..40, 64),
    ) {
        use dial_core::{DialConfig, Matcher};
        use dial_datasets::LabeledPair;
        use dial_tensor::{sigmoid, Graph, ParamStore};
        use dial_text::{paired_mode_ids, Record, RecordList, Schema, Vocab};
        use dial_tplm::{Tplm, TplmConfig};

        // The oracle: `logit_and_hidden` on a tape with `train = false`.
        // The paths under test — `prob`, `prob_and_feature` (a fresh
        // scratch per call) and `score_batch` (one scratch across a chunk
        // of pairs of different lengths) — must reproduce the probability
        // and every float of the feature vector.
        let tplm = TplmConfig { n_layers: 2, dropout: 0.1, seed, ..TplmConfig::tiny() };
        let mut store = ParamStore::new();
        let model = Tplm::new(tplm, &mut store);
        let matcher = Matcher::new(&mut store, &model);
        let vocab = Vocab::new(64);
        let schema = Schema::new(vec!["t"]);
        let (mut r, mut s) = (RecordList::new(schema.clone()), RecordList::new(schema));
        let sizes: Vec<usize> = [0, 1, 30].into_iter().chain(sizes).collect();
        let word = |k: usize| format!("{}{}", (b'a' + (k % 26) as u8) as char, (b'a' + (k / 26) as u8) as char);
        for (i, &n) in sizes.iter().enumerate() {
            let text = |salt: usize| {
                (0..n).map(|j| word(words[(i * 5 + j + salt) % 64])).collect::<Vec<_>>().join(" ")
            };
            r.push(vec![text(0)]);
            s.push(vec![text(i % 3)]);
        }
        let n = sizes.len() as u32;
        let labeled: Vec<LabeledPair> =
            (0..n).map(|i| LabeledPair::new(i, (i + i % 2) % n, i % 2 == 0)).collect();
        let cfg = DialConfig { tplm, matcher_epochs: 2, batch_size: 4, seed, ..DialConfig::smoke() };
        matcher.train(&mut store, &model, &vocab, &r, &s, &labeled, &cfg, 0);

        let mut order: Vec<(u32, u32)> = (0..n).flat_map(|i| (0..n).map(move |j| (i, j))).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::seq::SliceRandom;
        order.shuffle(&mut rng);
        let pairs: Vec<(&Record, &Record)> = order.iter().map(|&(i, j)| (r.get(i), s.get(j))).collect();
        let (probs, feats) = matcher.score_batch(&store, &model, &vocab, &pairs);
        let width = matcher.feature_width(&store);
        prop_assert_eq!(probs.len(), pairs.len());
        prop_assert_eq!(feats.len(), pairs.len() * width);

        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut lengths = HashSet::new();
        for (i, (rec_r, rec_s)) in pairs.iter().enumerate() {
            let ids = paired_mode_ids(rec_r, rec_s, &vocab, tplm.max_len);
            lengths.insert(ids.len());
            let mut g = Graph::new();
            let (z, h) = matcher.logit_and_hidden(&mut g, &store, &model, &ids, false, &mut rng);
            let (want_p, want_f) = (sigmoid(g.value(z).item()), g.value(h).as_slice());

            prop_assert_eq!(probs[i].to_bits(), want_p.to_bits(), "score_batch prob, {} tokens", ids.len());
            prop_assert_eq!(bits(&feats[i * width..(i + 1) * width]), bits(want_f), "score_batch feature");
            let (p, f) = matcher.prob_and_feature(&store, &model, &vocab, rec_r, rec_s);
            prop_assert_eq!(p.to_bits(), want_p.to_bits(), "prob_and_feature prob");
            prop_assert_eq!(bits(&f), bits(want_f), "prob_and_feature feature");
            prop_assert_eq!(matcher.prob(&store, &model, &vocab, rec_r, rec_s).to_bits(), want_p.to_bits());
        }
        prop_assert!(
            lengths.contains(&3) && lengths.contains(&4) && lengths.contains(&tplm.max_len),
            "lengths {:?}", lengths
        );
    }
}
