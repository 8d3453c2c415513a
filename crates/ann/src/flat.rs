//! Exact brute-force index (FAISS `IndexFlat` equivalent).

use crate::kernels::{self, QUERY_BLOCK, ROW_BLOCK};
use crate::metric::Metric;
use crate::rowstore::{RowFormat, RowStore};
use crate::snapshot::{self, SnapshotError, SnapshotReader, SnapshotWriter};
use crate::topk::{merge_topk, Hit, TopK};
use rayon::prelude::*;
use std::ops::Range;

/// Row blocks each part of a row-split probe covers at least. A part
/// smaller than this costs more to hand to a parked worker than the
/// worker saves by scanning it.
const SPLIT_MIN_BLOCKS: usize = 4;

/// Cut `0..n` rows into at most `threads` parts of whole [`ROW_BLOCK`]s,
/// each at least [`SPLIT_MIN_BLOCKS`] blocks long (only the last part may
/// end mid-block). Fewer than two parts means "do not split".
fn row_parts(n: usize, threads: usize) -> Vec<Range<usize>> {
    let blocks = n.div_ceil(ROW_BLOCK);
    let parts = threads.min(blocks / SPLIT_MIN_BLOCKS).max(1);
    let per = blocks.div_ceil(parts).max(1) * ROW_BLOCK;
    (0..n).step_by(per).map(|lo| lo..(lo + per).min(n)).collect()
}

/// Exact nearest-neighbour index over densely packed vectors.
///
/// The scan runs on the blocked batch kernels in [`crate::kernels`]: row
/// norms are precomputed once (and maintained through [`FlatIndex::add_batch`]),
/// each query block is scored against cache-resident row blocks into a
/// distance tile, and only then do the per-query [`TopK`] heaps see the
/// tile. Batch probes are rayon-parallel over query blocks; a probe of
/// one query block (a single [`FlatIndex::search`]) is rayon-parallel over
/// row ranges instead, on the executor's parked workers. At DIAL's
/// list sizes (thousands to a few hundred thousand records) this is
/// competitive with approximate structures while being exact, which is
/// why it is the default blocker index.
///
/// Rows live in a [`RowStore`]: the default [`RowFormat::F32`] scans the
/// stored slice zero-copy (bitwise the pre-rowstore behaviour, so
/// "exact" keeps meaning *exact*), while f16/bf16 halve scan bandwidth
/// at the cost of per-component storage rounding — norms and distances
/// are then computed from the decoded rows, so the index is exact *over
/// what it stored*, and recall against f32 ground truth is a measured,
/// gated property rather than a guarantee.
#[derive(Debug, Clone)]
pub struct FlatIndex {
    dim: usize,
    metric: Metric,
    data: RowStore,
    /// Per-row kernel norms ([`kernels::metric_norms`] convention),
    /// computed from the rows as stored (i.e. decoded).
    norms: Vec<f32>,
}

impl FlatIndex {
    pub fn new(dim: usize, metric: Metric) -> Self {
        Self::with_format(dim, metric, RowFormat::F32)
    }

    /// A flat index whose rows are stored in `format`.
    pub fn with_format(dim: usize, metric: Metric, format: RowFormat) -> Self {
        assert!(dim > 0, "dimension must be positive");
        FlatIndex { dim, metric, data: RowStore::new(dim, format), norms: Vec::new() }
    }

    /// Storage format of the rows.
    pub fn row_format(&self) -> RowFormat {
        self.data.format()
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Number of stored vectors.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Append one vector; its id is its insertion position.
    pub fn add(&mut self, v: &[f32]) -> u32 {
        assert_eq!(v.len(), self.dim, "vector dimension mismatch");
        let id = self.len() as u32;
        self.data.push_rows(v);
        let mut scratch = Vec::new();
        let dec = self.data.decoded_range(id as usize, 1, &mut scratch);
        self.norms.push(kernels::metric_norm(self.metric, dec));
        id
    }

    /// Append many packed vectors (`flat.len() % dim == 0`).
    ///
    /// A 0-row index (e.g. built from empty data through
    /// [`crate::IndexSpec::build`]) holds no vectors that could pin its
    /// row width, so an incompatible first batch *re-establishes* `dim`
    /// from the batch — it is taken as a single row of `flat.len()`
    /// components — instead of panicking on the packed-length check. A
    /// first batch whose length *is* a multiple of the built `dim` keeps
    /// that `dim`, exactly as before: a packed slice carries no row
    /// boundaries, so that case is indistinguishable from a correct
    /// batch by construction.
    pub fn add_batch(&mut self, flat: &[f32]) {
        if self.data.is_empty() && !flat.is_empty() && !flat.len().is_multiple_of(self.dim) {
            self.dim = flat.len();
            self.data.set_dim(self.dim);
        }
        crate::metric::assert_packed(flat.len(), self.dim);
        let row0 = self.len();
        self.data.push_rows(flat);
        let mut scratch = Vec::new();
        let dec = self.data.decoded_range(row0, self.len() - row0, &mut scratch);
        self.norms.extend(kernels::metric_norms(self.metric, dec, self.dim));
    }

    /// Overwrite the stored vector `id` in place, recomputing its kernel
    /// norm. The single-row norm is bitwise the value the batch
    /// [`kernels::metric_norms`] would produce, so an overwritten index
    /// is indistinguishable from one built with the new row from the
    /// start.
    pub fn overwrite(&mut self, id: u32, v: &[f32]) {
        assert_eq!(v.len(), self.dim, "vector dimension mismatch");
        assert!((id as usize) < self.len(), "overwrite id {id} out of range");
        self.data.overwrite_row(id, v);
        let mut scratch = Vec::new();
        let dec = self.data.decoded_range(id as usize, 1, &mut scratch);
        self.norms[id as usize] = kernels::metric_norm(self.metric, dec);
    }

    /// Incremental update to match `data` (the full new packed row set):
    /// rows listed in `changed` are overwritten from `data`, rows past the
    /// current length are appended. `data` must hold at least [`Self::len`]
    /// rows — an index never shrinks in place (drop and rebuild instead).
    ///
    /// Exact: the refreshed index stores bitwise the same rows and norms
    /// as a from-scratch build over `data`, provided `changed` covers
    /// every row that actually differs.
    pub fn refresh(&mut self, data: &[f32], changed: &[u32]) -> bool {
        crate::metric::assert_packed(data.len(), self.dim);
        let n_old = self.len();
        assert!(data.len() / self.dim >= n_old, "refresh cannot shrink an index");
        for &id in changed {
            let i = id as usize * self.dim;
            self.overwrite(id, &data[i..i + self.dim]);
        }
        self.add_batch(&data[n_old * self.dim..]);
        true
    }

    /// Stored vector by id. Only meaningful for [`RowFormat::F32`]
    /// stores (a compressed row has no full-width slice to borrow); the
    /// callers — the pre-kernel scalar oracle below — are f32-only.
    pub fn vector(&self, id: u32) -> &[f32] {
        let data = self.data.as_f32().expect("vector(): rows are stored compressed, not f32");
        let i = id as usize * self.dim;
        &data[i..i + self.dim]
    }

    /// Exact top-`k` nearest vectors to `query`, via the blocked kernel
    /// (a one-query block, so `search` and [`FlatIndex::search_batch`]
    /// produce bitwise-identical hits for the same query).
    pub fn search(&self, query: &[f32], k: usize) -> Vec<Hit> {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        self.search_block(query, k).pop().expect("one query in, one hit list out")
    }

    /// Top-`k` for many queries. `queries` is packed row-major; returns
    /// one hit list per query in input order. Queries are scored in
    /// blocks of [`QUERY_BLOCK`] (rayon-parallel over blocks): each
    /// cache-resident row block is scanned once per query *block*, not
    /// once per query, before the per-query heaps are updated. A batch
    /// that fits in one block is parallel over rows instead, like
    /// [`FlatIndex::search`].
    pub fn search_batch(&self, queries: &[f32], k: usize) -> Vec<Vec<Hit>> {
        assert_eq!(queries.len() % self.dim, 0, "query batch length not a multiple of dim");
        if queries.is_empty() {
            return Vec::new();
        }
        if queries.len() <= self.dim * QUERY_BLOCK {
            return self.search_block(queries, k);
        }
        let blocks: Vec<Vec<Vec<Hit>>> = queries
            .par_chunks(self.dim * QUERY_BLOCK)
            .map(|qb| self.scan(qb, k, 0..self.len()))
            .collect();
        blocks.into_iter().flatten().collect()
    }

    /// One query block against every row. Above [`SPLIT_MIN_BLOCKS`] row
    /// blocks per part the rows are cut into up to
    /// `rayon::current_num_threads()` parts, each scanned into its own
    /// heaps on the executor, and the per-part lists are merged. The
    /// result is bitwise the one-part scan: a pair's distance does not
    /// depend on the part it was scored in, and [`merge_topk`] keeps the
    /// same total `(distance, id)` order as one [`TopK`] over every row.
    fn search_block(&self, queries: &[f32], k: usize) -> Vec<Vec<Hit>> {
        let parts = row_parts(self.len(), rayon::current_num_threads());
        if parts.len() < 2 {
            return self.scan(queries, k, 0..self.len());
        }
        let per_part: Vec<Vec<Vec<Hit>>> =
            parts.par_iter().map(|rows| self.scan(queries, k, rows.clone())).collect();
        (0..queries.len() / self.dim)
            .map(|qi| {
                let lists: Vec<&[Hit]> = per_part.iter().map(|p| p[qi].as_slice()).collect();
                merge_topk(&lists, k)
            })
            .collect()
    }

    /// Score one packed query block against the row blocks of `rows` and
    /// reduce each tile into the per-query [`TopK`] heaps.
    fn scan(&self, queries: &[f32], k: usize, rows: Range<usize>) -> Vec<Vec<Hit>> {
        let nq = queries.len() / self.dim;
        let q_norms = kernels::metric_norms(self.metric, queries, self.dim);
        let mut tops: Vec<TopK> = (0..nq).map(|_| TopK::new(k)).collect();
        let mut tile = vec![0.0f32; nq * ROW_BLOCK];
        let mut base = rows.start;
        while base < rows.end {
            let nr = (rows.end - base).min(ROW_BLOCK);
            let block = self.data.view_range(base, nr);
            let r_norms = &self.norms[base..base + nr];
            let tile = &mut tile[..nq * nr];
            kernels::distance_batch_rows(
                self.metric,
                queries,
                &q_norms,
                block,
                r_norms,
                self.dim,
                tile,
            );
            for (qi, top) in tops.iter_mut().enumerate() {
                for (j, &d) in tile[qi * nr..(qi + 1) * nr].iter().enumerate() {
                    top.push((base + j) as u32, d);
                }
            }
            base += nr;
        }
        tops.into_iter().map(TopK::into_sorted).collect()
    }

    /// Pre-kernel reference scan: one scalar [`Metric::distance`] call
    /// per `(query, row)` pair. Kept as the ranking-parity oracle for the
    /// kernel proptests — not used by any retrieval path.
    pub fn search_scalar(&self, query: &[f32], k: usize) -> Vec<Hit> {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        let mut top = TopK::new(k);
        for id in 0..self.len() {
            let d = self.metric.distance(query, self.vector(id as u32));
            top.push(id as u32, d);
        }
        top.into_sorted()
    }

    /// Serialize the full trained state (rows as stored, cached norms)
    /// into the family-private snapshot payload.
    pub(crate) fn snapshot_bytes(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.put_usize(self.dim);
        w.put_u8(snapshot::metric_code(self.metric));
        w.put_u8(snapshot::rowformat_code(self.data.format()));
        w.put_f32_slice(&self.norms);
        let (full, half) = self.data.raw_parts();
        w.put_f32_slice(full);
        w.put_u16_slice(half);
        w.into_bytes()
    }

    /// Rebuild a flat index from [`FlatIndex::snapshot_bytes`] output.
    /// The result is bitwise the serialized index: rows and norms are
    /// restored verbatim, never recomputed.
    pub(crate) fn from_snapshot_bytes(bytes: &[u8]) -> Result<FlatIndex, SnapshotError> {
        let mut r = SnapshotReader::new(bytes);
        let dim = r.get_usize()?;
        let metric = snapshot::metric_from_code(r.get_u8()?)?;
        let format = snapshot::rowformat_from_code(r.get_u8()?)?;
        let norms = r.get_f32_slice()?;
        let full = r.get_f32_slice()?;
        let half = r.get_u16_slice()?;
        r.finish()?;
        let data = RowStore::from_raw(dim, format, full, half)
            .ok_or(SnapshotError::Corrupt("flat row store shape"))?;
        if norms.len() != data.len() {
            return Err(SnapshotError::Corrupt("flat norm count != row count"));
        }
        Ok(FlatIndex { dim, metric, data, norms })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_index() -> FlatIndex {
        // Points at x = 0, 1, 2, ..., 9 on a line.
        let mut ix = FlatIndex::new(2, Metric::L2);
        for x in 0..10 {
            ix.add(&[x as f32, 0.0]);
        }
        ix
    }

    #[test]
    fn exact_neighbours_on_a_line() {
        let ix = grid_index();
        let hits = ix.search(&[3.2, 0.0], 3);
        let ids: Vec<u32> = hits.iter().map(|h| h.id).collect();
        assert_eq!(ids, vec![3, 4, 2]);
    }

    #[test]
    fn self_is_nearest() {
        let ix = grid_index();
        let hits = ix.search(&[7.0, 0.0], 1);
        assert_eq!(hits[0].id, 7);
        assert_eq!(hits[0].distance, 0.0);
    }

    #[test]
    fn batch_matches_single() {
        let ix = grid_index();
        let queries = [3.2f32, 0.0, 8.9, 0.0];
        let batch = ix.search_batch(&queries, 2);
        assert_eq!(batch[0], ix.search(&queries[0..2], 2));
        assert_eq!(batch[1], ix.search(&queries[2..4], 2));
    }

    #[test]
    fn k_larger_than_n_returns_n() {
        let ix = grid_index();
        assert_eq!(ix.search(&[0.0, 0.0], 100).len(), 10);
    }

    #[test]
    #[should_panic(expected = "vector dimension mismatch")]
    fn wrong_dim_panics() {
        let mut ix = FlatIndex::new(3, Metric::L2);
        ix.add(&[1.0, 2.0]);
    }

    #[test]
    fn empty_index_reestablishes_dim_from_first_batch() {
        // Built for 4-dim rows but never filled: the first incompatible
        // batch re-establishes the width (as one row) instead of panicking.
        let mut ix = FlatIndex::new(4, Metric::L2);
        ix.add_batch(&[1.0, 2.0, 3.0]);
        assert_eq!(ix.dim(), 3);
        assert_eq!(ix.len(), 1);
        // Follow-up batches must respect the established width.
        ix.add_batch(&[4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        assert_eq!(ix.len(), 3);
        let hits = ix.search(&[1.0, 2.0, 3.0], 1);
        assert_eq!(hits[0].id, 0);
        assert_eq!(hits[0].distance, 0.0);
    }

    #[test]
    fn compressed_rows_keep_neighbours_and_exact_self_match() {
        for format in [RowFormat::F16, RowFormat::Bf16] {
            let mut ix = FlatIndex::with_format(2, Metric::L2, format);
            for x in 0..10 {
                ix.add(&[x as f32, 0.0]);
            }
            assert_eq!(ix.row_format(), format);
            let hits = ix.search(&[3.2, 0.0], 3);
            let ids: Vec<u32> = hits.iter().map(|h| h.id).collect();
            assert_eq!(ids, vec![3, 4, 2], "{format:?}");
            // Small integers encode exactly in both half formats, so a
            // self-match still scores exactly zero.
            let hits = ix.search(&[7.0, 0.0], 1);
            assert_eq!(hits[0].id, 7);
            assert_eq!(hits[0].distance, 0.0, "{format:?}");
        }
    }

    #[test]
    fn nonempty_index_still_rejects_ragged_batches() {
        let mut ix = FlatIndex::new(2, Metric::L2);
        ix.add(&[1.0, 2.0]);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ix.add_batch(&[1.0, 2.0, 3.0]);
        }));
        assert!(r.is_err(), "ragged batch into a populated index must panic");
    }
}
