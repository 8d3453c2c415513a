//! Parallel single-mode encoding of whole record lists.
//!
//! Every blocking strategy needs `E(x)` for each record of `R` and `S` at
//! least once per round; this module computes them with rayon across
//! records (the trunk is read-only during encoding) and returns a packed
//! row-major matrix compatible with `dial-ann` indexes.

use dial_tensor::ParamStore;
use dial_text::{RecordList, Vocab};
use dial_tplm::{EncodeScratch, Tplm};
use rayon::prelude::*;

/// Records one worker encodes on one [`EncodeScratch`].
const ENCODE_CHUNK: usize = 16;

/// Packed `[n, d]` embeddings of a record list.
#[derive(Debug, Clone)]
pub struct ListEmbeddings {
    pub dim: usize,
    /// Row-major `n * dim` buffer; row `i` is record id `i`.
    pub data: Vec<f32>,
}

impl ListEmbeddings {
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Embedding of record `id`.
    pub fn row(&self, id: u32) -> &[f32] {
        let i = id as usize * self.dim;
        &self.data[i..i + self.dim]
    }
}

/// Encode every record of `list` in single mode with the current trunk
/// weights (graph-free; row `i` is bitwise `Tplm::embed_single` of record
/// `i`).
pub fn encode_list(
    model: &Tplm,
    store: &ParamStore,
    list: &RecordList,
    vocab: &Vocab,
) -> ListEmbeddings {
    let max_len = model.config().max_len;
    let dim = model.config().d_model;
    let chunks: Vec<Vec<f32>> = list
        .records()
        .par_chunks(ENCODE_CHUNK)
        .map(|records| {
            let mut scratch = EncodeScratch::default();
            let mut rows = vec![0.0; records.len() * dim];
            for (rec, row) in records.iter().zip(rows.chunks_exact_mut(dim)) {
                let ids = rec.single_mode_ids(vocab, max_len);
                model.embed_single_into(store, &ids, &mut scratch, row);
            }
            rows
        })
        .collect();
    ListEmbeddings { dim, data: chunks.concat() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dial_text::Schema;
    use dial_tplm::TplmConfig;

    #[test]
    fn encodes_all_records_in_order() {
        let mut store = ParamStore::new();
        let model = Tplm::new(TplmConfig::tiny(), &mut store);
        let vocab = Vocab::new(64);
        let mut list = RecordList::new(Schema::new(vec!["t"]));
        list.push(vec!["alpha beta".into()]);
        list.push(vec!["gamma delta".into()]);
        list.push(vec!["alpha beta".into()]);

        let emb = encode_list(&model, &store, &list, &vocab);
        assert_eq!(emb.len(), 3);
        assert_eq!(emb.dim, 16);
        // Identical records embed identically; different ones differ.
        assert_eq!(emb.row(0), emb.row(2));
        assert_ne!(emb.row(0), emb.row(1));
    }

    #[test]
    fn parallel_matches_sequential() {
        let mut store = ParamStore::new();
        let model = Tplm::new(TplmConfig::tiny(), &mut store);
        let vocab = Vocab::new(64);
        let mut list = RecordList::new(Schema::new(vec!["t"]));
        for i in 0..20 {
            list.push(vec![format!("record number {i} with words")]);
        }
        let emb = encode_list(&model, &store, &list, &vocab);
        for rec in list.iter() {
            let direct =
                model.embed_single(&store, &rec.single_mode_ids(&vocab, model.config().max_len));
            assert_eq!(emb.row(rec.id), direct.as_slice());
        }
    }
}
