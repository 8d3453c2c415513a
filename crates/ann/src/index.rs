//! The unified index abstraction: every ANN family behind one object-safe
//! trait, plus a runtime-selectable builder.
//!
//! The paper offloads committee-embedding retrieval to FAISS and treats the
//! index type as a deployment knob (§5.4). [`AnnIndex`] makes that knob
//! first-class here: `dial-core` builds per-member indexes through
//! [`IndexSpec::build`] and probes them through the trait, so Flat,
//! IVF-Flat, PQ, and HNSW are interchangeable without generics leaking into
//! the blocker, the bench harness, or the CLI.

use crate::flat::FlatIndex;
use crate::hnsw::{HnswIndex, HnswParams};
use crate::ivf::{IvfFlatIndex, IvfParams};
use crate::metric::Metric;
use crate::pq::PqIndex;
use crate::rowstore::RowFormat;
use crate::sharded::ShardedIndex;
use crate::snapshot::{self, SnapshotError};
use crate::topk::Hit;
use crate::transport::ShardStatsSnapshot;
use std::path::Path;

/// A retunable search width — the one recall/latency dial a knobbed
/// family exposes after build, addressed uniformly so the auto-tuner,
/// the serving layer, the shard composite and the wire protocol need one
/// get/set pair instead of one per family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Knob {
    /// IVF probe width (`nprobe`).
    Nprobe,
    /// HNSW beam width (`ef_search`).
    EfSearch,
}

impl Knob {
    /// Stable name for reports: `"nprobe"` or `"ef_search"`.
    pub fn name(self) -> &'static str {
        match self {
            Knob::Nprobe => "nprobe",
            Knob::EfSearch => "ef_search",
        }
    }
}

/// A built nearest-neighbour index, ready to probe.
///
/// All implementations share the same contract:
///
/// * ids are insertion positions (`0..len`), stable across searches;
/// * `search` returns at most `k` hits sorted by ascending distance with
///   ties broken by id;
/// * `search_batch` equals mapping `search` over `queries.chunks(dim)` in
///   order (implementations parallelize over queries with rayon);
/// * `add_batch` appends packed rows after the initial build — quantized
///   families (IVF, PQ) assign/encode against their trained structures, so
///   additions do not retrain.
///
/// Construction is not part of the trait (each family needs different
/// training); use [`IndexSpec::build`] as the unified
/// build-from-packed-rows entry point.
pub trait AnnIndex: Send + Sync {
    /// Vector dimensionality.
    fn dim(&self) -> usize;

    /// Number of stored vectors.
    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Distance function probes rank under.
    fn metric(&self) -> Metric;

    /// Append packed rows (`flat.len()` must be a multiple of `dim`).
    fn add_batch(&mut self, flat: &[f32]);

    /// Incrementally bring the index in line with `data`, the **full new
    /// packed row set** (at least [`AnnIndex::len`] rows — an index never
    /// shrinks in place). `changed` lists the ids (`< len()`) whose rows
    /// differ from what the index stores; rows past `len()` are appended
    /// through the family's `add_batch` path.
    ///
    /// Returns `true` when the update was applied in place. The default
    /// returns `false` — "this family cannot update in place" — and the
    /// caller must rebuild from scratch; after a `false` return the index
    /// may be **partially updated** (composite families refresh child by
    /// child) and must be discarded. Exact families (Flat, and Sharded
    /// over exact children) refresh bitwise-identically to a rebuild;
    /// IVF re-assigns changed rows against its stale trained quantizer
    /// (same contract as its `add_batch`); PQ and HNSW accept only
    /// *append-only* updates (`changed` empty) — a row overwrite would
    /// silently invalidate trained codebooks / graph edges, so any
    /// changed id declines the update.
    fn refresh(&mut self, data: &[f32], changed: &[u32]) -> bool {
        let _ = (data, changed);
        false
    }

    /// Whether [`AnnIndex::refresh`] would be applied in place by this
    /// index — the acceptance probe composite families consult *before*
    /// mutating any child, so a declining member can never leave its
    /// siblings half-updated. Must be consistent with `refresh`: an index
    /// answering `false` here declines every actual in-place update (the
    /// no-op "nothing changed, nothing appended" refresh is still
    /// honoured by composites without consulting children). The default
    /// mirrors the default `refresh`.
    fn can_refresh(&self) -> bool {
        false
    }

    /// The tuning knob `knob`, when this index carries it (directly, or
    /// every shard of a composite): `(max, current)` where `max` is the
    /// largest meaningful width — the smallest per-shard `nlist` for
    /// [`Knob::Nprobe`], the smallest shard's node count for
    /// [`Knob::EfSearch`] — and `current` is the width probes run at now.
    /// `None` for families without that trade-off; the auto-tuner skips
    /// them.
    fn knob(&self, knob: Knob) -> Option<(usize, usize)> {
        let _ = knob;
        None
    }

    /// Set `knob` to `width`, clamped to the valid range. Returns `false`
    /// — and changes nothing — when the index has no such knob;
    /// composites refuse unless *every* child has it, so a partial retune
    /// is impossible.
    fn set_knob(&mut self, knob: Knob, width: usize) -> bool {
        let _ = (knob, width);
        false
    }

    /// Monotone counter of trained-structure replacements: bumped every
    /// time the index retrains its coarse structure in place (e.g. the
    /// IVF growth-triggered quantizer retrain). Composites report the
    /// sum over children. A change in this value tells callers that any
    /// recall measured against the old structure is stale — even when
    /// parameters like `nlist` came out identical.
    fn train_generation(&self) -> u64 {
        0
    }

    /// Top-`k` nearest neighbours of one query.
    fn search(&self, query: &[f32], k: usize) -> Vec<Hit>;

    /// Top-`k` for many packed queries, one hit list per query in input
    /// order.
    fn search_batch(&self, queries: &[f32], k: usize) -> Vec<Vec<Hit>>;

    /// This index's snapshot as `(family tag, family-private payload)` —
    /// the building block [`AnnIndex::save_snapshot`] wraps in the
    /// versioned container and composite families nest per shard.
    fn snapshot_blob(&self) -> (u8, Vec<u8>);

    /// Serialize the trained index into a versioned, checksummed
    /// snapshot file. Loading it back (via
    /// [`crate::snapshot::load_index`] or the spec-validated
    /// [`IndexSpec::load_snapshot`]) yields an index whose probes are
    /// bitwise identical to this one's.
    fn save_snapshot(&self, path: &Path) -> Result<(), SnapshotError> {
        let (family, payload) = self.snapshot_blob();
        snapshot::save_to_file(path, family, &payload)
    }

    /// Per-shard probe/hedge/failover counters, for indexes that fan
    /// probes across shard transports ([`ShardedIndex`]). Single-machine
    /// families report `None` — there is no shard boundary to account.
    fn shard_stats(&self) -> Option<ShardStatsSnapshot> {
        None
    }
}

impl AnnIndex for FlatIndex {
    fn dim(&self) -> usize {
        FlatIndex::dim(self)
    }
    fn len(&self) -> usize {
        FlatIndex::len(self)
    }
    fn metric(&self) -> Metric {
        FlatIndex::metric(self)
    }
    fn add_batch(&mut self, flat: &[f32]) {
        FlatIndex::add_batch(self, flat)
    }
    fn refresh(&mut self, data: &[f32], changed: &[u32]) -> bool {
        FlatIndex::refresh(self, data, changed)
    }
    fn can_refresh(&self) -> bool {
        true
    }
    fn search(&self, query: &[f32], k: usize) -> Vec<Hit> {
        FlatIndex::search(self, query, k)
    }
    fn search_batch(&self, queries: &[f32], k: usize) -> Vec<Vec<Hit>> {
        FlatIndex::search_batch(self, queries, k)
    }
    fn snapshot_blob(&self) -> (u8, Vec<u8>) {
        (snapshot::FAMILY_FLAT, self.snapshot_bytes())
    }
}

impl AnnIndex for IvfFlatIndex {
    fn dim(&self) -> usize {
        IvfFlatIndex::dim(self)
    }
    fn len(&self) -> usize {
        IvfFlatIndex::len(self)
    }
    fn metric(&self) -> Metric {
        IvfFlatIndex::metric(self)
    }
    fn add_batch(&mut self, flat: &[f32]) {
        IvfFlatIndex::add_batch(self, flat)
    }
    fn refresh(&mut self, data: &[f32], changed: &[u32]) -> bool {
        IvfFlatIndex::refresh(self, data, changed)
    }
    fn can_refresh(&self) -> bool {
        true
    }
    fn knob(&self, knob: Knob) -> Option<(usize, usize)> {
        let p = self.params();
        (knob == Knob::Nprobe).then_some((p.nlist, p.nprobe))
    }
    fn set_knob(&mut self, knob: Knob, width: usize) -> bool {
        let applies = knob == Knob::Nprobe;
        if applies {
            IvfFlatIndex::set_nprobe(self, width);
        }
        applies
    }
    fn train_generation(&self) -> u64 {
        IvfFlatIndex::train_generation(self)
    }
    fn search(&self, query: &[f32], k: usize) -> Vec<Hit> {
        IvfFlatIndex::search(self, query, k)
    }
    fn search_batch(&self, queries: &[f32], k: usize) -> Vec<Vec<Hit>> {
        IvfFlatIndex::search_batch(self, queries, k)
    }
    fn snapshot_blob(&self) -> (u8, Vec<u8>) {
        (snapshot::FAMILY_IVF, self.snapshot_bytes())
    }
}

impl AnnIndex for PqIndex {
    fn dim(&self) -> usize {
        self.quantizer().dim()
    }
    fn len(&self) -> usize {
        PqIndex::len(self)
    }
    fn metric(&self) -> Metric {
        PqIndex::metric(self)
    }
    fn add_batch(&mut self, flat: &[f32]) {
        PqIndex::add_batch(self, flat)
    }
    // Append-only refresh; `can_refresh` stays `false` so composites
    // still decline ahead of any mutation (their refresh may route
    // overwrites to this family, which cannot honour them).
    fn refresh(&mut self, data: &[f32], changed: &[u32]) -> bool {
        PqIndex::refresh(self, data, changed)
    }
    fn search(&self, query: &[f32], k: usize) -> Vec<Hit> {
        PqIndex::search(self, query, k)
    }
    fn search_batch(&self, queries: &[f32], k: usize) -> Vec<Vec<Hit>> {
        PqIndex::search_batch(self, queries, k)
    }
    fn snapshot_blob(&self) -> (u8, Vec<u8>) {
        (snapshot::FAMILY_PQ, self.snapshot_bytes())
    }
}

impl AnnIndex for HnswIndex {
    fn dim(&self) -> usize {
        HnswIndex::dim(self)
    }
    fn len(&self) -> usize {
        HnswIndex::len(self)
    }
    fn metric(&self) -> Metric {
        HnswIndex::metric(self)
    }
    fn add_batch(&mut self, flat: &[f32]) {
        HnswIndex::add_batch(self, flat)
    }
    // Append-only refresh; `can_refresh` stays `false` (see the PQ impl).
    fn refresh(&mut self, data: &[f32], changed: &[u32]) -> bool {
        HnswIndex::refresh(self, data, changed)
    }
    fn knob(&self, knob: Knob) -> Option<(usize, usize)> {
        (knob == Knob::EfSearch).then(|| HnswIndex::ef_search_knob(self))
    }
    fn set_knob(&mut self, knob: Knob, width: usize) -> bool {
        let applies = knob == Knob::EfSearch;
        if applies {
            HnswIndex::set_ef_search(self, width);
        }
        applies
    }
    fn search(&self, query: &[f32], k: usize) -> Vec<Hit> {
        HnswIndex::search(self, query, k)
    }
    fn search_batch(&self, queries: &[f32], k: usize) -> Vec<Vec<Hit>> {
        HnswIndex::search_batch(self, queries, k)
    }
    fn snapshot_blob(&self) -> (u8, Vec<u8>) {
        (snapshot::FAMILY_HNSW, self.snapshot_bytes())
    }
}

/// Product-quantization build parameters for [`IndexSpec::Pq`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PqParams {
    /// Requested subspace count; clamped at build time to the largest
    /// divisor of `dim` that is `<= m`.
    pub m: usize,
    /// Bits per subspace code (codebook size `2^nbits`, at most 8).
    pub nbits: u8,
    /// Codebook-training seed.
    pub seed: u64,
}

impl Default for PqParams {
    fn default() -> Self {
        PqParams { m: 8, nbits: 6, seed: 0 }
    }
}

/// Runtime description of an index backend: which family plus its build
/// parameters. The unified build-from-packed-rows entry point for every
/// index family, including sharded composites.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum IndexSpec {
    /// Exact brute-force scan.
    #[default]
    Flat,
    /// Inverted lists under a k-means coarse quantizer.
    IvfFlat(IvfParams),
    /// Product-quantized codes scored by ADC (cosine handled by
    /// pre-normalization at build/add/query time).
    Pq(PqParams),
    /// Hierarchical navigable small-world graph.
    Hnsw(HnswParams),
    /// Round-robin shards of `inner` indexes built concurrently and probed
    /// with a parallel top-k merge ([`ShardedIndex`]). `Sharded(Flat, n)`
    /// is exactly equivalent to `Flat` for every `n`.
    Sharded { inner: Box<IndexSpec>, shards: usize },
}

/// Largest divisor of `dim` that is `<= m` (falls back to 1).
fn clamp_subspaces(dim: usize, m: usize) -> usize {
    let m = m.clamp(1, dim);
    (1..=m).rev().find(|c| dim.is_multiple_of(*c)).unwrap_or(1)
}

impl IndexSpec {
    /// Wrap this spec into a round-robin sharded composite.
    pub fn sharded(self, shards: usize) -> IndexSpec {
        IndexSpec::Sharded { inner: Box::new(self), shards }
    }

    /// Short stable name (CLI values, report rows).
    pub fn name(&self) -> &'static str {
        match self {
            IndexSpec::Flat => "flat",
            IndexSpec::IvfFlat(_) => "ivf_flat",
            IndexSpec::Pq(_) => "pq",
            IndexSpec::Hnsw(_) => "hnsw",
            IndexSpec::Sharded { .. } => "sharded",
        }
    }

    /// The recall/latency knob this spec builds with, as `(knob, width)`
    /// — [`Knob::Nprobe`] for IVF-backed specs, [`Knob::EfSearch`] for
    /// HNSW-backed ones, directly or through any depth of
    /// [`IndexSpec::Sharded`] wrapping. `None` for knobless families
    /// (Flat, PQ): the auto-tuner skips those.
    pub fn knob(&self) -> Option<(Knob, usize)> {
        match self {
            IndexSpec::IvfFlat(p) => Some((Knob::Nprobe, p.nprobe)),
            IndexSpec::Hnsw(p) => Some((Knob::EfSearch, p.ef_search)),
            IndexSpec::Sharded { inner, .. } => inner.knob(),
            _ => None,
        }
    }

    /// Rewrite the width this spec's knob builds with, so every index
    /// built from it afterwards probes at the tuned width: `nprobe` is
    /// clamped to `1..=nlist`; `ef_search` is floored at 1 and has no
    /// static ceiling (the meaningful maximum is the built index's node
    /// count, which [`AnnIndex::knob`] reports). Returns `false` — and
    /// changes nothing — for knobless specs.
    pub fn set_knob(&mut self, width: usize) -> bool {
        match self {
            IndexSpec::IvfFlat(p) => p.nprobe = width.min(p.nlist).max(1),
            IndexSpec::Hnsw(p) => p.ef_search = width.max(1),
            IndexSpec::Sharded { inner, .. } => return inner.set_knob(width),
            _ => return false,
        }
        true
    }

    /// Build an index of this family over packed row-major `data`.
    ///
    /// Panics if `dim == 0`, or if `data.len()` is not a multiple of `dim`
    /// (mirroring [`FlatIndex::add_batch`]'s validation). An empty `data`
    /// yields an empty [`FlatIndex`] for the single-index families (the
    /// quantized ones cannot train on zero vectors, and an empty exact
    /// index is behaviorally equivalent — every probe returns no hits);
    /// `Sharded` builds its child shards over empty slices instead, so the
    /// round-robin distribution is already in place when rows arrive via
    /// `add_batch`.
    pub fn build(&self, data: &[f32], dim: usize, metric: Metric) -> Box<dyn AnnIndex> {
        self.build_rows(data, dim, metric, RowFormat::F32)
    }

    /// [`IndexSpec::build`] with scan rows stored in `rows`. The scan
    /// families (Flat, IVF-Flat, and Sharded over them) store packed
    /// rows in that format; PQ and HNSW ignore it — PQ stores trained
    /// codes, not rows, and the graph family keeps full-width rows for
    /// its traversal-order-sensitive distance evaluations.
    pub fn build_rows(
        &self,
        data: &[f32],
        dim: usize,
        metric: Metric,
        rows: RowFormat,
    ) -> Box<dyn AnnIndex> {
        assert!(dim > 0, "index dimension must be positive");
        crate::metric::assert_packed(data.len(), dim);
        if let IndexSpec::Sharded { inner, shards } = self {
            return Box::new(ShardedIndex::build_rows(inner, *shards, data, dim, metric, rows));
        }
        if data.is_empty() {
            return Box::new(FlatIndex::with_format(dim, metric, rows));
        }
        match self {
            IndexSpec::Flat => {
                let mut ix = FlatIndex::with_format(dim, metric, rows);
                ix.add_batch(data);
                Box::new(ix)
            }
            IndexSpec::IvfFlat(params) => {
                Box::new(IvfFlatIndex::build_rows(data, dim, metric, *params, rows))
            }
            IndexSpec::Pq(params) => {
                let nbits = params.nbits.clamp(1, 8);
                Box::new(PqIndex::build(
                    data,
                    dim,
                    clamp_subspaces(dim, params.m),
                    1usize << nbits,
                    params.seed,
                    metric,
                ))
            }
            IndexSpec::Hnsw(params) => Box::new(HnswIndex::build(data, dim, metric, *params)),
            IndexSpec::Sharded { .. } => unreachable!("handled above"),
        }
    }

    /// The snapshot family tag this spec builds ([`AnnIndex::snapshot_blob`]).
    pub(crate) fn family_tag(&self) -> u8 {
        match self {
            IndexSpec::Flat => snapshot::FAMILY_FLAT,
            IndexSpec::IvfFlat(_) => snapshot::FAMILY_IVF,
            IndexSpec::Pq(_) => snapshot::FAMILY_PQ,
            IndexSpec::Hnsw(_) => snapshot::FAMILY_HNSW,
            IndexSpec::Sharded { .. } => snapshot::FAMILY_SHARDED,
        }
    }

    /// Load a snapshot file *as an instance of this spec*: beyond the
    /// container's structural checks (magic, version, checksum, payload
    /// layout), the stored family, dimensionality, metric, row format,
    /// and training parameters must match what [`IndexSpec::build_rows`]
    /// with the same arguments would produce — a snapshot written under
    /// a different configuration is rejected (and the caller rebuilds),
    /// never silently served. Post-build tuning knobs (`nprobe`,
    /// `ef_search`) are reset to the spec's values so the loaded index
    /// probes exactly like a fresh build from this spec.
    pub fn load_snapshot(
        &self,
        path: &Path,
        dim: usize,
        metric: Metric,
        rows: RowFormat,
    ) -> Result<Box<dyn AnnIndex>, SnapshotError> {
        let (family, payload) = snapshot::read_file(path)?;
        self.load_blob(family, &payload, dim, metric, rows)
    }

    /// [`IndexSpec::load_snapshot`] over an in-memory
    /// [`AnnIndex::snapshot_blob`] — the file-free round-trip that
    /// clones a live index bitwise: `spec.load_blob(ix.snapshot_blob())`
    /// yields an independent index whose probes are identical to `ix`'s.
    /// The serving layer uses this to duplicate an engine member for a
    /// hot swap without detaching it, and the same spec-validation rules
    /// as the file path apply (a blob written under a different
    /// configuration is rejected, never served). The file loaders, the
    /// member loader and the sharded manifest's per-child recursion all
    /// decode through here.
    pub fn load_blob(
        &self,
        family: u8,
        payload: &[u8],
        dim: usize,
        metric: Metric,
        rows: RowFormat,
    ) -> Result<Box<dyn AnnIndex>, SnapshotError> {
        let expected = self.family_tag();
        if family == snapshot::FAMILY_FLAT && expected != snapshot::FAMILY_FLAT {
            // Mirror of the empty-data special case in `build_rows`: the
            // quantized families cannot train on zero vectors, so an
            // empty pool builds (and therefore snapshots) an empty exact
            // index under any spec. Accept it back — but only empty.
            let ix = FlatIndex::from_snapshot_bytes(payload)?;
            if !ix.is_empty() {
                return Err(SnapshotError::FamilyMismatch { found: family, expected });
            }
            check_dim(ix.dim(), dim)?;
            check_metric(ix.metric(), metric)?;
            check_rows(ix.row_format(), rows)?;
            return Ok(Box::new(ix));
        }
        if family != expected {
            return Err(SnapshotError::FamilyMismatch { found: family, expected });
        }
        match self {
            IndexSpec::Flat => {
                let ix = FlatIndex::from_snapshot_bytes(payload)?;
                check_dim(ix.dim(), dim)?;
                check_metric(ix.metric(), metric)?;
                check_rows(ix.row_format(), rows)?;
                Ok(Box::new(ix))
            }
            IndexSpec::IvfFlat(p) => {
                let mut ix = IvfFlatIndex::from_snapshot_bytes(payload)?;
                check_dim(ix.dim(), dim)?;
                check_metric(ix.metric(), metric)?;
                check_rows(ix.row_format(), rows)?;
                let stored = ix.params();
                if ix.requested_params().0 != p.nlist.max(1) {
                    return Err(SnapshotError::SpecMismatch("ivf nlist"));
                }
                if stored.train_iters != p.train_iters {
                    return Err(SnapshotError::SpecMismatch("ivf train_iters"));
                }
                if stored.seed != p.seed {
                    return Err(SnapshotError::SpecMismatch("ivf seed"));
                }
                // nprobe is a post-build tuning knob, not trained state:
                // align it to the spec instead of rejecting.
                ix.set_nprobe(p.nprobe);
                Ok(Box::new(ix))
            }
            IndexSpec::Pq(p) => {
                let ix = PqIndex::from_snapshot_bytes(payload)?;
                check_dim(ix.quantizer().dim(), dim)?;
                check_metric(ix.metric(), metric)?;
                // PQ stores trained codes, not rows — the row format does
                // not participate in its build and is not checked. The
                // training seed is not recoverable from codebooks either;
                // subspace/codebook shape is what a build from this spec
                // pins down.
                if ix.quantizer().subspaces() != clamp_subspaces(dim, p.m) {
                    return Err(SnapshotError::SpecMismatch("pq subspaces"));
                }
                let nbits = p.nbits.clamp(1, 8);
                let expected_ksub = (1usize << nbits).min(256).min(ix.len()).max(1);
                if ix.quantizer().codebook_size() != expected_ksub {
                    return Err(SnapshotError::SpecMismatch("pq codebook size"));
                }
                Ok(Box::new(ix))
            }
            IndexSpec::Hnsw(p) => {
                let mut ix = HnswIndex::from_snapshot_bytes(payload)?;
                check_dim(ix.dim(), dim)?;
                check_metric(ix.metric(), metric)?;
                let stored = ix.params();
                if stored.m != p.m {
                    return Err(SnapshotError::SpecMismatch("hnsw m"));
                }
                if stored.ef_construction != p.ef_construction {
                    return Err(SnapshotError::SpecMismatch("hnsw ef_construction"));
                }
                if stored.seed != p.seed {
                    return Err(SnapshotError::SpecMismatch("hnsw seed"));
                }
                // ef_search is a post-build tuning knob: align, don't reject.
                ix.set_ef_search(p.ef_search);
                Ok(Box::new(ix))
            }
            IndexSpec::Sharded { inner, shards } => {
                // Parse the manifest here (not via the unvalidated
                // `ShardedIndex::from_snapshot_bytes`) so every child is
                // checked against the inner spec.
                let mut r = snapshot::SnapshotReader::new(payload);
                let stored_dim = r.get_usize()?;
                let stored_metric = snapshot::metric_from_code(r.get_u8()?)?;
                let stored_rows = snapshot::rowformat_from_code(r.get_u8()?)?;
                let stored_shards = r.get_usize()?;
                check_dim(stored_dim, dim)?;
                check_metric(stored_metric, metric)?;
                check_rows(stored_rows, rows)?;
                if stored_shards != (*shards).max(1) {
                    return Err(SnapshotError::SpecMismatch("shard count"));
                }
                let mut children: Vec<Box<dyn AnnIndex>> = Vec::with_capacity(stored_shards);
                for _ in 0..stored_shards {
                    let child_family = r.get_u8()?;
                    let child_payload = r.get_u8_slice()?;
                    children.push(inner.load_blob(
                        child_family,
                        &child_payload,
                        dim,
                        metric,
                        rows,
                    )?);
                }
                r.finish()?;
                Ok(Box::new(ShardedIndex::from_parts(dim, metric, rows, children)))
            }
        }
    }

    /// Load an engine-member snapshot ([`crate::snapshot::save_member`]):
    /// the spec-validated index plus the exact f32 rows it was built
    /// from. The rows let a warm-started engine diff the new round's
    /// embeddings bitwise and take the same refresh-vs-rebuild path a
    /// persistent engine would.
    pub fn load_member_snapshot(
        &self,
        path: &Path,
        dim: usize,
        metric: Metric,
        rows: RowFormat,
    ) -> Result<(Vec<f32>, Box<dyn AnnIndex>), SnapshotError> {
        let (family, payload) = snapshot::read_file(path)?;
        if family != snapshot::FAMILY_MEMBER {
            return Err(SnapshotError::FamilyMismatch {
                found: family,
                expected: snapshot::FAMILY_MEMBER,
            });
        }
        let (member_rows, child_family, child_payload) = snapshot::parse_member(&payload)?;
        let ix = self.load_blob(child_family, &child_payload, dim, metric, rows)?;
        if member_rows.len() != ix.len() * dim {
            return Err(SnapshotError::Corrupt("member rows do not match index length"));
        }
        Ok((member_rows, ix))
    }
}

fn check_dim(found: usize, expected: usize) -> Result<(), SnapshotError> {
    if found != expected {
        return Err(SnapshotError::DimMismatch { found, expected });
    }
    Ok(())
}

fn check_metric(found: Metric, expected: Metric) -> Result<(), SnapshotError> {
    if found != expected {
        return Err(SnapshotError::MetricMismatch);
    }
    Ok(())
}

fn check_rows(found: RowFormat, expected: RowFormat) -> Result<(), SnapshotError> {
    if found != expected {
        return Err(SnapshotError::RowFormatMismatch);
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_data(n: usize, dim: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    fn all_specs() -> [IndexSpec; 6] {
        [
            IndexSpec::Flat,
            IndexSpec::IvfFlat(IvfParams { nlist: 8, nprobe: 8, ..Default::default() }),
            IndexSpec::Pq(PqParams { m: 4, nbits: 5, seed: 0 }),
            IndexSpec::Hnsw(HnswParams::default()),
            IndexSpec::Flat.sharded(3),
            IndexSpec::IvfFlat(IvfParams { nlist: 4, nprobe: 4, ..Default::default() }).sharded(2),
        ]
    }

    #[test]
    fn every_backend_builds_and_probes() {
        let dim = 8;
        let data = random_data(200, dim, 1);
        for spec in all_specs() {
            let ix = spec.build(&data, dim, Metric::L2);
            assert_eq!(ix.len(), 200, "{}", spec.name());
            assert_eq!(ix.dim(), dim);
            assert_eq!(ix.metric(), Metric::L2);
            let hits = ix.search(&data[0..dim], 5);
            assert_eq!(hits.len(), 5, "{}", spec.name());
            let batch = ix.search_batch(&data[0..3 * dim], 5);
            assert_eq!(batch.len(), 3);
            assert_eq!(batch[0], hits, "{} batch[0] != single", spec.name());
        }
    }

    #[test]
    fn flat_spec_matches_direct_flat_index() {
        let dim = 4;
        let data = random_data(100, dim, 2);
        let via_spec = IndexSpec::Flat.build(&data, dim, Metric::L2);
        let mut direct = FlatIndex::new(dim, Metric::L2);
        direct.add_batch(&data);
        let q = &data[12..16];
        assert_eq!(via_spec.search(q, 7), direct.search(q, 7));
    }

    #[test]
    fn empty_data_builds_empty_index_for_all_backends() {
        for spec in all_specs() {
            let ix = spec.build(&[], 6, Metric::L2);
            assert!(ix.is_empty(), "{}", spec.name());
            assert!(ix.search(&[0.0; 6], 3).is_empty());
        }
    }

    #[test]
    fn add_batch_after_build_extends_every_backend() {
        let dim = 4;
        let data = random_data(64, dim, 3);
        let extra = random_data(8, dim, 4);
        for spec in all_specs() {
            let mut ix = spec.build(&data, dim, Metric::L2);
            ix.add_batch(&extra);
            assert_eq!(ix.len(), 72, "{}", spec.name());
            // The appended vectors are retrievable: probing with an added
            // vector must surface an id in the appended range for the
            // exact/probing families (PQ is lossy, so only check growth).
            if !matches!(spec, IndexSpec::Pq(_)) {
                let hits = ix.search(&extra[0..dim], 3);
                assert!(
                    hits.iter().any(|h| h.id >= 64),
                    "{}: appended vector not retrieved: {hits:?}",
                    spec.name()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "not a multiple of dim")]
    fn build_rejects_ragged_data() {
        IndexSpec::Flat.build(&[1.0, 2.0, 3.0], 2, Metric::L2);
    }

    #[test]
    fn pq_accepts_cosine_via_prenormalization() {
        let data = random_data(64, 4, 5);
        let ix = IndexSpec::Pq(PqParams::default()).build(&data, 4, Metric::Cosine);
        assert_eq!(ix.metric(), Metric::Cosine);
        let hits = ix.search(&data[0..4], 3);
        assert_eq!(hits.len(), 3);
    }

    #[test]
    fn sharded_flat_spec_matches_plain_flat_spec() {
        let dim = 4;
        let data = random_data(50, dim, 6);
        let flat = IndexSpec::Flat.build(&data, dim, Metric::L2);
        for shards in [1usize, 2, 7] {
            let sharded = IndexSpec::Flat.sharded(shards).build(&data, dim, Metric::L2);
            assert_eq!(sharded.len(), 50);
            let q = &data[8..12];
            assert_eq!(sharded.search(q, 6), flat.search(q, 6), "shards={shards}");
        }
    }

    #[test]
    fn sharded_empty_build_distributes_later_batches() {
        let dim = 3;
        let mut ix = IndexSpec::Flat.sharded(4).build(&[], dim, Metric::L2);
        assert!(ix.is_empty());
        let rows = random_data(10, dim, 7);
        ix.add_batch(&rows);
        assert_eq!(ix.len(), 10);
        let hits = ix.search(&rows[0..dim], 1);
        assert_eq!(hits[0].id, 0);
        assert_eq!(hits[0].distance, 0.0);
    }

    #[test]
    fn pq_subspaces_clamped_to_divisor() {
        assert_eq!(clamp_subspaces(32, 8), 8);
        assert_eq!(clamp_subspaces(30, 8), 6);
        assert_eq!(clamp_subspaces(7, 4), 1);
        assert_eq!(clamp_subspaces(6, 100), 6);
    }

    /// The specs the knob table is written over.
    pub(crate) fn knob_specs() -> (IndexSpec, IndexSpec, IndexSpec) {
        (
            IndexSpec::IvfFlat(IvfParams { nlist: 8, nprobe: 2, ..Default::default() }),
            IndexSpec::Hnsw(HnswParams { ef_search: 12, ..Default::default() }),
            IndexSpec::Pq(PqParams { m: 2, nbits: 4, seed: 0 }),
        )
    }

    /// One row of the knob table: (spec, rows built over, the built
    /// index's knob and ceiling, a width to set, where it lands).
    pub(crate) type KnobRow = (IndexSpec, usize, Option<(Knob, usize)>, usize, usize);

    /// Checks knob rows over the same 90 rows: `spec.knob()` and the built
    /// index's `knob(k)` agree, the knob the index lacks is refused and
    /// changes nothing, and the knob it has lands where the row says.
    pub(crate) fn assert_knob_rows(table: impl IntoIterator<Item = KnobRow>) {
        use Knob::{EfSearch, Nprobe};
        let dim = 4;
        let data = random_data(90, dim, 16);
        for (mut spec, n, built, width, landed) in table {
            let ctx = format!("{spec:?} over {n} rows");
            let spec_knob = spec.knob();
            let mut ix = spec.build(&data[..n * dim], dim, Metric::L2);
            if let Some((k, _)) = built {
                assert_eq!(spec_knob.map(|(sk, _)| sk), Some(k), "{ctx}: spec and index disagree");
            }
            let reads = |ix: &dyn AnnIndex| [Nprobe, EfSearch].map(|k| ix.knob(k));
            let before = reads(ix.as_ref());
            for (k, got) in [Nprobe, EfSearch].into_iter().zip(before) {
                let want =
                    built.filter(|&(bk, _)| bk == k).map(|(_, max)| (max, spec_knob.unwrap().1));
                assert_eq!(got, want, "{ctx}: {k:?}");
            }
            // A knob the index lacks is refused and changes nothing — a
            // sharded composite touches no child.
            for k in [Nprobe, EfSearch].into_iter().filter(|&k| built.map(|b| b.0) != Some(k)) {
                assert!(!ix.set_knob(k, width), "{ctx}: {k:?} accepted");
                assert_eq!(reads(ix.as_ref()), before, "{ctx}: a refused {k:?} changed the index");
            }
            if let Some((k, max)) = built {
                assert!(ix.set_knob(k, width), "{ctx}: {k:?} refused");
                assert_eq!(ix.knob(k), Some((max, landed)), "{ctx}: {k:?} after set");
            }
            assert_eq!(spec.set_knob(width), spec_knob.is_some(), "{ctx}: spec set");
            assert_eq!(spec.knob(), spec_knob.map(|(k, _)| (k, landed)), "{ctx}: spec after set");
        }
    }

    // The unsharded rows of the knob table; the `@3` rows are in
    // `sharded::tests`.
    #[test]
    fn knob_params_names_the_right_knob_per_family() {
        use Knob::{EfSearch, Nprobe};
        let (ivf, hnsw, pq) = knob_specs();
        assert_knob_rows([
            (IndexSpec::Flat, 90, None, 5, 5),
            (pq, 90, None, 5, 5),
            (ivf.clone(), 90, Some((Nprobe, 8)), 5, 5),
            (ivf.clone(), 90, Some((Nprobe, 8)), 50, 8), // capped at nlist
            (hnsw.clone(), 90, Some((EfSearch, 90)), 40, 40),
            (hnsw.clone(), 90, Some((EfSearch, 90)), 0, 1), // floored at 1
            // Sharded wrapping routes through to the core spec. 90 rows
            // over 3 shards is an even 30-per-shard split: an HNSW
            // composite's ceiling is the smallest shard's node count.
            (hnsw.sharded(3), 90, Some((EfSearch, 30)), 9, 9),
            // An IVF spec over no rows builds an exact index: the spec
            // keeps its knob, the index has none to turn.
            (ivf, 0, None, 5, 5),
        ]);
    }

    #[test]
    fn build_rows_stores_compressed_rows_for_scan_families() {
        use crate::rowstore::{f16_to_f32, f32_to_f16};
        let dim = 4;
        let data = random_data(60, dim, 21);
        // Flat and Sharded(Flat) built over f16 rows must both rank
        // against the *decoded* rows — identical hits, exact distances
        // against a flat index fed the decoded data directly.
        let decoded: Vec<f32> = data.iter().map(|&x| f16_to_f32(f32_to_f16(x))).collect();
        let oracle = IndexSpec::Flat.build(&decoded, dim, Metric::L2);
        for spec in [IndexSpec::Flat, IndexSpec::Flat.sharded(3)] {
            let ix = spec.build_rows(&data, dim, Metric::L2, RowFormat::F16);
            assert_eq!(ix.len(), 60);
            for qi in [0usize, 17, 59] {
                let q = &data[qi * dim..(qi + 1) * dim];
                assert_eq!(ix.search(q, 5), oracle.search(q, 5), "{} qi={qi}", spec.name());
            }
        }
        // Graph/quantized families ignore the row format: HNSW built
        // with f16 requested still matches its f32 build bitwise.
        let spec = IndexSpec::Hnsw(HnswParams::default());
        let a = spec.build_rows(&data, dim, Metric::L2, RowFormat::F16);
        let b = spec.build(&data, dim, Metric::L2);
        let q = &data[0..dim];
        assert_eq!(a.search(q, 5), b.search(q, 5));
    }
}
