//! Sharded index construction with parallel top-k merge.
//!
//! [`ShardedIndex`] partitions packed rows round-robin across `n` child
//! shards of any [`IndexSpec`] family, builds the children concurrently,
//! and serves probes by fanning them across shards and merging the
//! per-shard top-k with [`merge_topk`]. Global row id `g` lives in shard
//! `g % n` at local position `g / n`, so remapping a shard-local hit back
//! to the global id is pure arithmetic (`local * n + shard`) — no lookup
//! tables, and the invariant survives post-build [`ShardedIndex::add_batch`]
//! because appended rows continue the same round-robin.
//!
//! Each shard is a [`ShardHandle`]: one or more replicas behind the
//! [`ShardTransport`] boundary, so a shard can live in this process
//! ([`crate::LocalShard`], the default) or behind a `shardd` node on the
//! network ([`crate::RemoteShard`]). Every topology probes one way,
//! shard-major: the whole batch goes to each shard as one
//! `search_batch` (so an in-process child runs its blocked batch
//! kernel), the shards answer concurrently, and the remapped replies are
//! merged per query. A single query is a batch of one. Replicated shards
//! get **hedged requests**: if the preferred replica has not answered
//! within a p99-derived delay, the same batch is fired at the next
//! replica and the first response wins (the loser's reply is
//! discarded). A replica that *errors* triggers an immediate synchronous
//! failover instead. Per-shard probe/hedge/failover counters are exposed
//! via [`ShardedIndex::shard_stats`].
//!
//! The composite's one tuning surface is [`AnnIndex::knob`] /
//! [`AnnIndex::set_knob`]: a [`Knob`] reads as present only when every
//! shard carries it, and a set reaches every replica of every shard or
//! none.
//!
//! With exact children the shard merge is itself exact:
//! `Sharded(Flat, n)` returns the same hits as `Flat` for every query and
//! every `n` (both sides rank by `(distance, id)` lexicographically) —
//! through local children and loopback `RemoteShard`s alike, since hit
//! distances cross the wire as `f32::to_bits`. With approximate
//! children, sharding trades a little recall shape for near-linear
//! build speedup — each shard trains on `1/n`-th of the data.

use crate::flat::FlatIndex;
use crate::index::{AnnIndex, IndexSpec, Knob};
use crate::metric::Metric;
use crate::rowstore::RowFormat;
use crate::snapshot::{self, SnapshotError, SnapshotReader, SnapshotWriter};
use crate::topk::{merge_topk, Hit};
use crate::transport::{
    LocalShard, ShardProbeStats, ShardStatsSnapshot, ShardTransport, TransportError,
};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Latency samples kept per shard for the p99-derived hedge delay.
const LAT_RING: usize = 128;
/// Samples needed before the ring is trusted over the default delay.
const HEDGE_MIN_SAMPLES: usize = 8;
/// Hedge delay until the latency ring has enough samples.
const HEDGE_DEFAULT: Duration = Duration::from_millis(1);

#[derive(Default)]
struct LatencyRing {
    samples: Vec<u64>,
    next: usize,
}

/// One shard of a [`ShardedIndex`]: an ordered replica set behind the
/// [`ShardTransport`] boundary plus this side's probe counters.
///
/// Replica 0 is the preferred replica — probes go to it first, hedges
/// and failovers walk the rest in order. Mutations (`add_batch`,
/// `refresh`, knob sets, installs) are applied to *every* replica, so
/// replicas stay bitwise interchangeable and first-response-wins
/// hedging cannot change results.
pub struct ShardHandle {
    replicas: Vec<Arc<dyn ShardTransport>>,
    probes: AtomicU64,
    hedges_fired: AtomicU64,
    hedges_won: AtomicU64,
    failovers: AtomicU64,
    errors: AtomicU64,
    lat_ns: Mutex<LatencyRing>,
}

impl ShardHandle {
    /// A shard over an explicit replica set (replica 0 preferred).
    pub fn new(replicas: Vec<Arc<dyn ShardTransport>>) -> ShardHandle {
        assert!(!replicas.is_empty(), "a shard needs at least one replica");
        ShardHandle {
            replicas,
            probes: AtomicU64::new(0),
            hedges_fired: AtomicU64::new(0),
            hedges_won: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            lat_ns: Mutex::new(LatencyRing::default()),
        }
    }

    /// A single in-process replica — the default deployment.
    pub fn local(index: Box<dyn AnnIndex>) -> ShardHandle {
        ShardHandle::new(vec![Arc::new(LocalShard::new(index))])
    }

    /// Number of replicas serving this shard.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// Point-in-time probe counters.
    pub fn counters(&self) -> ShardProbeStats {
        ShardProbeStats {
            probes: self.probes.load(Ordering::Relaxed),
            hedges_fired: self.hedges_fired.load(Ordering::Relaxed),
            hedges_won: self.hedges_won.load(Ordering::Relaxed),
            failovers: self.failovers.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
        }
    }

    fn primary(&self) -> &Arc<dyn ShardTransport> {
        &self.replicas[0]
    }

    fn can_refresh(&self) -> bool {
        self.primary().can_refresh()
    }

    fn len(&self) -> usize {
        self.primary().len()
    }

    fn train_generation(&self) -> u64 {
        self.primary().train_generation()
    }

    fn knob(&self, knob: Knob) -> Result<Option<(usize, usize)>, TransportError> {
        self.primary().knob(knob)
    }

    fn snapshot_blob(&self) -> Result<(u8, Vec<u8>), TransportError> {
        self.primary().snapshot_blob()
    }

    fn record_latency(&self, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        let mut ring = self.lat_ns.lock().expect("latency ring lock");
        if ring.samples.len() < LAT_RING {
            ring.samples.push(ns);
        } else {
            let slot = ring.next;
            ring.samples[slot] = ns;
        }
        ring.next = (ring.next + 1) % LAT_RING;
    }

    /// The hedge trigger: nearest-rank p99 of recent probe latencies on
    /// this shard, clamped to a sane window; a fixed default until the
    /// ring has enough samples to mean anything.
    fn hedge_delay(&self) -> Duration {
        let mut v = {
            let ring = self.lat_ns.lock().expect("latency ring lock");
            if ring.samples.len() < HEDGE_MIN_SAMPLES {
                return HEDGE_DEFAULT;
            }
            ring.samples.clone()
        };
        v.sort_unstable();
        let rank = (v.len() * 99).div_ceil(100);
        Duration::from_nanos(v[rank - 1]).clamp(Duration::from_micros(100), Duration::from_secs(1))
    }

    /// Probe this shard with one batched frame, hedging across replicas.
    ///
    /// Replica 0 gets the frame first. If it has not answered within
    /// the hedge delay (`hedge_override`, or the p99-derived
    /// [`ShardHandle::hedge_delay`]), the frame is fired at the next
    /// replica and the first successful response wins — the loser keeps
    /// running detached and its reply is dropped with the channel. A
    /// replica that returns an error triggers an immediate failover to
    /// the next untried replica instead of waiting out the delay. Only
    /// when every replica has failed does the typed error surface.
    fn probe(
        &self,
        queries: &[f32],
        k: usize,
        nq: u64,
        hedge_override: Option<Duration>,
    ) -> Result<Vec<Vec<Hit>>, TransportError> {
        let t0 = Instant::now();
        if self.replicas.len() == 1 {
            return match self.replicas[0].search_batch(queries, k) {
                Ok(hits) => {
                    self.probes.fetch_add(nq, Ordering::Relaxed);
                    self.record_latency(t0.elapsed());
                    Ok(hits)
                }
                Err(e) => {
                    self.errors.fetch_add(1, Ordering::Relaxed);
                    Err(e)
                }
            };
        }

        let delay = hedge_override.unwrap_or_else(|| self.hedge_delay());
        let (tx, rx) = mpsc::channel();
        let spawn = |idx: usize| {
            let replica = Arc::clone(&self.replicas[idx]);
            let q = queries.to_vec();
            let tx = tx.clone();
            std::thread::spawn(move || {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    replica.search_batch(&q, k)
                }))
                .unwrap_or(Err(TransportError::Corrupt("replica probe panicked")));
                let _ = tx.send((idx, result));
            });
        };
        spawn(0);
        let mut next = 1usize; // next replica to dispatch
        let mut outstanding = 1usize; // replies still in flight
        loop {
            let msg = if next < self.replicas.len() {
                match rx.recv_timeout(delay) {
                    Ok(msg) => msg,
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        // The outstanding replica is slow, not dead:
                        // hedge to the next one, first response wins.
                        self.hedges_fired.fetch_add(1, Ordering::Relaxed);
                        spawn(next);
                        next += 1;
                        outstanding += 1;
                        continue;
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => {
                        unreachable!("probe channel sender is held by this frame")
                    }
                }
            } else {
                rx.recv().expect("probe channel sender is held by this frame")
            };
            let (idx, result) = msg;
            outstanding -= 1;
            match result {
                Ok(hits) => {
                    if idx != 0 {
                        self.hedges_won.fetch_add(1, Ordering::Relaxed);
                    }
                    self.probes.fetch_add(nq, Ordering::Relaxed);
                    self.record_latency(t0.elapsed());
                    return Ok(hits);
                }
                Err(e) => {
                    if outstanding > 0 {
                        // A hedge is still in flight — give it the
                        // chance to win before declaring failure.
                        continue;
                    }
                    if next < self.replicas.len() {
                        // Every dispatched replica failed fast; fail
                        // over to the next untried one now.
                        self.failovers.fetch_add(1, Ordering::Relaxed);
                        spawn(next);
                        next += 1;
                        outstanding += 1;
                    } else {
                        self.errors.fetch_add(1, Ordering::Relaxed);
                        return Err(e);
                    }
                }
            }
        }
    }

    /// Replace every replica's index with the same snapshot blob.
    fn install_all(&self, family: u8, payload: &[u8]) -> Result<(), TransportError> {
        for replica in &self.replicas {
            replica.install(family, payload)?;
        }
        Ok(())
    }

    fn add_batch_all(&self, flat: &[f32]) -> Result<(), TransportError> {
        for replica in &self.replicas {
            replica.add_batch(flat)?;
        }
        Ok(())
    }

    fn refresh_all(&self, data: &[f32], changed: &[u32]) -> Result<bool, TransportError> {
        let mut ok = true;
        for replica in &self.replicas {
            ok &= replica.refresh(data, changed)?;
        }
        Ok(ok)
    }

    fn set_knob_all(&self, knob: Knob, width: usize) -> Result<bool, TransportError> {
        let mut ok = true;
        for replica in &self.replicas {
            ok &= replica.set_knob(knob, width)?;
        }
        Ok(ok)
    }
}

/// A set of per-shard child indexes probed as one logical index.
pub struct ShardedIndex {
    dim: usize,
    metric: Metric,
    rows: RowFormat,
    children: Vec<ShardHandle>,
    /// Explicit hedge-delay override (tests, benches); `None` derives
    /// it from each shard's observed p99.
    hedge_delay: Option<Duration>,
}

impl ShardedIndex {
    /// Split `data` round-robin into `shards` buffers and build one child
    /// index per buffer concurrently. `shards` is clamped to at least 1;
    /// shards left empty by a small `data` become empty exact children
    /// that grow on [`ShardedIndex::add_batch`].
    pub fn build(
        inner: &IndexSpec,
        shards: usize,
        data: &[f32],
        dim: usize,
        metric: Metric,
    ) -> Self {
        Self::build_rows(inner, shards, data, dim, metric, RowFormat::F32)
    }

    /// [`ShardedIndex::build`] with every child storing its scan rows in
    /// `rows` (remembered so empty children re-dimmed on a later
    /// [`ShardedIndex::add_batch`] keep the same storage format).
    pub fn build_rows(
        inner: &IndexSpec,
        shards: usize,
        data: &[f32],
        dim: usize,
        metric: Metric,
        rows: RowFormat,
    ) -> Self {
        assert!(dim > 0, "index dimension must be positive");
        crate::metric::assert_packed(data.len(), dim);
        let shards = shards.max(1);
        let n = data.len() / dim;
        let mut bufs: Vec<Vec<f32>> = vec![Vec::with_capacity(n.div_ceil(shards) * dim); shards];
        for (g, row) in data.chunks(dim).enumerate() {
            bufs[g % shards].extend_from_slice(row);
        }
        let children: Vec<ShardHandle> = bufs
            .par_iter()
            .map(|b| ShardHandle::local(inner.build_rows(b, dim, metric, rows)))
            .collect();
        ShardedIndex { dim, metric, rows, children, hedge_delay: None }
    }

    /// Assemble a composite from explicit shard handles — the deployment
    /// constructor for remote/replicated topologies (and the mixed ones
    /// fault tests exercise). `children[s]` must hold shard `s` of one
    /// round-robin split: the id arithmetic is positional.
    pub fn from_handles(
        dim: usize,
        metric: Metric,
        rows: RowFormat,
        children: Vec<ShardHandle>,
    ) -> Self {
        assert!(!children.is_empty(), "a sharded index needs at least one shard");
        assert!(dim > 0, "index dimension must be positive");
        ShardedIndex { dim, metric, rows, children, hedge_delay: None }
    }

    /// Ship this composite's shards to remote nodes: shard `s` is
    /// snapshotted once and installed on every endpoint in
    /// `endpoints[s]` (its replica set, preferred replica first). Shard
    /// shipping is snapshot shipping — each node validates the blob
    /// exactly like a disk snapshot, so the remote composite probes
    /// bitwise like `self` did.
    pub fn ship(self, endpoints: &[Vec<String>]) -> Result<ShardedIndex, TransportError> {
        assert_eq!(endpoints.len(), self.children.len(), "one endpoint list per shard");
        let mut children = Vec::with_capacity(self.children.len());
        for (handle, addrs) in self.children.iter().zip(endpoints) {
            assert!(!addrs.is_empty(), "every shard needs at least one endpoint");
            let (family, blob) = handle.snapshot_blob()?;
            let mut replicas: Vec<Arc<dyn ShardTransport>> = Vec::with_capacity(addrs.len());
            for addr in addrs {
                let remote = crate::transport::RemoteShard::connect(addr.as_str())?;
                remote.install(family, &blob)?;
                replicas.push(Arc::new(remote));
            }
            children.push(ShardHandle::new(replicas));
        }
        Ok(ShardedIndex {
            dim: self.dim,
            metric: self.metric,
            rows: self.rows,
            children,
            hedge_delay: self.hedge_delay,
        })
    }

    /// Override the hedge delay (`None` restores the p99-derived
    /// default) — how tests and benches make hedging deterministic.
    pub fn set_hedge_delay(&mut self, delay: Option<Duration>) {
        self.hedge_delay = delay;
    }

    /// Per-shard probe/hedge/failover counters since construction.
    pub fn shard_stats(&self) -> ShardStatsSnapshot {
        ShardStatsSnapshot { shards: self.children.iter().map(|c| c.counters()).collect() }
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Number of shards (fixed at build; never changes afterwards, or the
    /// id mapping would break).
    pub fn shards(&self) -> usize {
        self.children.len()
    }

    /// Total stored vectors across all shards.
    pub fn len(&self) -> usize {
        self.children.iter().map(|c| c.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Map a shard-local hit id back to the global insertion id.
    #[inline]
    fn to_global(&self, shard: usize, local: u32) -> u32 {
        local * self.children.len() as u32 + shard as u32
    }

    /// Probe every shard and merge. Panics on a transport failure with
    /// no surviving replica — serving layers that need the error use
    /// [`ShardedIndex::try_search`].
    pub fn search(&self, query: &[f32], k: usize) -> Vec<Hit> {
        self.try_search(query, k).expect("shard transport failed during search")
    }

    /// Fallible [`ShardedIndex::search`]: a batch of one through the same
    /// shard-major scatter/merge as [`ShardedIndex::try_search_batch`],
    /// surfacing a typed [`TransportError`] when a shard is unreachable
    /// on every replica.
    pub fn try_search(&self, query: &[f32], k: usize) -> Result<Vec<Hit>, TransportError> {
        Ok(self.scatter_gather(query, k)?.pop().unwrap_or_default())
    }

    /// Batch probe, shard-major: the whole batch goes to every shard as
    /// one `search_batch` (shards probed concurrently, slow replicas
    /// hedged), then each query's per-shard lists are remapped to global
    /// ids and k-way merged.
    pub fn search_batch(&self, queries: &[f32], k: usize) -> Vec<Vec<Hit>> {
        self.try_search_batch(queries, k).expect("shard transport failed during search_batch")
    }

    /// Fallible [`ShardedIndex::search_batch`].
    pub fn try_search_batch(
        &self,
        queries: &[f32],
        k: usize,
    ) -> Result<Vec<Vec<Hit>>, TransportError> {
        assert_eq!(queries.len() % self.dim, 0, "query batch length not a multiple of dim");
        self.scatter_gather(queries, k)
    }

    /// One `search_batch` per shard over the whole batch, shards probed
    /// concurrently, per-query k-way merge of the remapped replies. Each
    /// shard contributes a full `k` candidates per query: the global
    /// top-`k` can in the worst case come entirely from one shard.
    fn scatter_gather(&self, queries: &[f32], k: usize) -> Result<Vec<Vec<Hit>>, TransportError> {
        let nq = queries.len() / self.dim;
        if nq == 0 {
            return Ok(Vec::new());
        }
        let results: Vec<Result<Vec<Vec<Hit>>, TransportError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .children
                .iter()
                .map(|c| scope.spawn(move || c.probe(queries, k, nq as u64, self.hedge_delay)))
                .collect();
            handles.into_iter().map(|h| h.join().expect("shard scatter thread panicked")).collect()
        });
        let mut per_shard = Vec::with_capacity(self.children.len());
        for r in results {
            let hits = r?;
            if hits.len() != nq {
                return Err(TransportError::Corrupt("shard returned wrong batch size"));
            }
            per_shard.push(hits);
        }
        Ok((0..nq)
            .map(|qi| {
                let lists: Vec<Vec<Hit>> = per_shard
                    .iter()
                    .enumerate()
                    .map(|(s, hits)| {
                        hits[qi]
                            .iter()
                            .map(|h| Hit { id: self.to_global(s, h.id), distance: h.distance })
                            .collect()
                    })
                    .collect();
                merge_topk(&lists, k)
            })
            .collect())
    }

    /// Whether every child would apply an in-place refresh — probed
    /// *before* [`ShardedIndex::refresh`] mutates anything, so a single
    /// declining child (say, an HNSW shard next to the empty-built flat
    /// shard of a tiny corpus) can no longer leave its siblings
    /// half-updated behind a `false` return.
    pub fn can_refresh(&self) -> bool {
        self.children.iter().all(|c| c.can_refresh())
    }

    /// The composite knob: `Some` only when *every* child exposes
    /// `knob`, reporting the smallest per-shard ceiling (a shard cannot
    /// scan more lists, or beam over more nodes, than it has) and the
    /// first child's current width. An unreachable shard reads as "no
    /// knob" — the tuner skips rather than half-tunes.
    pub fn knob(&self, knob: Knob) -> Option<(usize, usize)> {
        let mut ceiling = usize::MAX;
        let mut current = None;
        for child in &self.children {
            let (c_max, c_cur) = child.knob(knob).ok()??;
            ceiling = ceiling.min(c_max);
            current.get_or_insert(c_cur);
        }
        current.map(|cur| (ceiling, cur))
    }

    /// Route a width to every shard (every replica); refused (and
    /// nothing changed) unless all children carry `knob`, so the shards
    /// can never end up probing at mixed widths.
    pub fn set_knob(&mut self, knob: Knob, width: usize) -> bool {
        if self.knob(knob).is_none() {
            return false;
        }
        let mut ok = true;
        for child in &self.children {
            match child.set_knob_all(knob, width) {
                Ok(applied) => ok &= applied,
                // A transport failure mid-retune: report refusal; the
                // caller re-tunes once the shard is reachable again
                // (replicas of reachable shards stayed uniform).
                Err(_) => return false,
            }
        }
        ok
    }

    /// Incremental update to match `data` (the full new packed row set,
    /// in *global* row order): each changed global id is routed to its
    /// shard as a local overwrite, appended rows continue the round-robin.
    /// Returns `false` — with **no child touched** (acceptance is probed
    /// via [`AnnIndex::can_refresh`] before any mutation) — if any child
    /// family cannot refresh in place; the caller rebuilds per the
    /// [`AnnIndex::refresh`] contract, but a composite that declined is
    /// still consistent with its pre-refresh rows. Panics on a transport
    /// failure; serving layers use [`ShardedIndex::try_refresh`].
    pub fn refresh(&mut self, data: &[f32], changed: &[u32]) -> bool {
        self.try_refresh(data, changed).expect("shard transport failed during refresh")
    }

    /// Fallible [`ShardedIndex::refresh`].
    pub fn try_refresh(&mut self, data: &[f32], changed: &[u32]) -> Result<bool, TransportError> {
        crate::metric::assert_packed(data.len(), self.dim);
        let shards = self.children.len();
        let n_old = self.len();
        let n_new = data.len() / self.dim;
        assert!(n_new >= n_old, "refresh cannot shrink an index");
        // Which shards actually have work: an overwrite routed to them
        // (global row `g` is shard `g % n`'s local row `g / n`) or an
        // appended row continuing the round-robin.
        let mut changed_local: Vec<Vec<u32>> = vec![Vec::new(); shards];
        for &g in changed {
            assert!((g as usize) < n_old, "changed row {g} out of range");
            changed_local[g as usize % shards].push(g / shards as u32);
        }
        let mut active: Vec<bool> = changed_local.iter().map(|c| !c.is_empty()).collect();
        for g in n_old..n_new {
            active[g % shards] = true;
        }
        if !active.iter().any(|&a| a) {
            // Nothing to overwrite, nothing to append: the index already
            // matches `data`. The steady-state drift-0 round must not
            // cost O(n·dim) (nor consult children that would decline an
            // actual in-place update).
            return Ok(true);
        }
        if !self.can_refresh() {
            // Decline *before* mutating: with mixed acceptance across
            // children (an empty-built flat shard accepts appends while
            // its HNSW siblings decline), refreshing first and reporting
            // failure after would leave the composite partially updated
            // — the decline-by-default contract tells callers to discard
            // such an index, but nothing used to enforce it.
            return Ok(false);
        }
        // Materialize the fresh-build per-shard view of `data` only for
        // shards with work — untouched children keep their rows and are
        // never copied for.
        let mut bufs: Vec<Vec<f32>> = vec![Vec::new(); shards];
        for (g, row) in data.chunks(self.dim).enumerate() {
            if active[g % shards] {
                bufs[g % shards].extend_from_slice(row);
            }
        }
        // Refresh the active children concurrently (mirroring the
        // parallel build). Any child declining poisons the composite,
        // whose caller then discards and rebuilds it.
        let results: Vec<Result<bool, TransportError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .children
                .iter()
                .enumerate()
                .filter(|(s, _)| active[*s])
                .map(|(s, child)| {
                    let (buf, local) = (&bufs[s], &changed_local[s]);
                    scope.spawn(move || child.refresh_all(buf, local))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("shard refresh panicked")).collect()
        });
        let mut ok = true;
        for r in results {
            ok &= r?;
        }
        Ok(ok)
    }

    /// Append packed rows, continuing the round-robin from the current
    /// total length so the local→global id arithmetic stays valid.
    /// Panics on a transport failure; serving layers use
    /// [`ShardedIndex::try_add_batch`].
    pub fn add_batch(&mut self, flat: &[f32]) {
        self.try_add_batch(flat).expect("shard transport failed during add_batch")
    }

    /// Fallible [`ShardedIndex::add_batch`].
    pub fn try_add_batch(&mut self, flat: &[f32]) -> Result<(), TransportError> {
        if self.is_empty() && !flat.is_empty() && !flat.len().is_multiple_of(self.dim) {
            // 0-row index: the first batch establishes the dimension (one
            // row) instead of tripping the packed-length check below. All
            // children are empty too, so rebuild them at the new width —
            // leaving siblings on the stale width would corrupt the
            // round-robin split of the *next* batch. Re-dimming crosses
            // the transport as an install of an empty exact index.
            self.dim = flat.len();
            let (family, payload) =
                FlatIndex::with_format(self.dim, self.metric, self.rows).snapshot_blob();
            for child in &self.children {
                child.install_all(family, &payload)?;
            }
        }
        crate::metric::assert_packed(flat.len(), self.dim);
        let shards = self.children.len();
        let start = self.len();
        let mut bufs: Vec<Vec<f32>> = vec![Vec::new(); shards];
        for (j, row) in flat.chunks(self.dim).enumerate() {
            bufs[(start + j) % shards].extend_from_slice(row);
        }
        for (child, buf) in self.children.iter().zip(bufs) {
            if !buf.is_empty() {
                child.add_batch_all(&buf)?;
            }
        }
        Ok(())
    }

    /// Reassemble a composite from already-loaded children — the
    /// spec-validated snapshot path, which loads and checks each child
    /// against the inner spec before handing them over. `children` must
    /// be the full ordered shard set of one saved composite.
    pub(crate) fn from_parts(
        dim: usize,
        metric: Metric,
        rows: RowFormat,
        children: Vec<Box<dyn AnnIndex>>,
    ) -> Self {
        assert!(!children.is_empty(), "a sharded index needs at least one shard");
        ShardedIndex {
            dim,
            metric,
            rows,
            children: children.into_iter().map(ShardHandle::local).collect(),
            hedge_delay: None,
        }
    }

    /// Serialize as a manifest of per-shard child snapshots: each child's
    /// own tagged payload, nested in shard order (fetched over the
    /// transport for remote shards). Loading rebuilds each child through
    /// its family's verbatim path, so the composite probes bitwise like
    /// the saved one.
    pub(crate) fn snapshot_bytes(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.put_usize(self.dim);
        w.put_u8(snapshot::metric_code(self.metric));
        w.put_u8(snapshot::rowformat_code(self.rows));
        w.put_usize(self.children.len());
        for child in &self.children {
            let (family, payload) =
                child.snapshot_blob().expect("shard transport failed during snapshot");
            w.put_u8(family);
            w.put_u8_slice(&payload);
        }
        w.into_bytes()
    }

    /// Rebuild from [`ShardedIndex::snapshot_bytes`] output, dispatching
    /// each child blob to its family's loader.
    pub(crate) fn from_snapshot_bytes(bytes: &[u8]) -> Result<ShardedIndex, SnapshotError> {
        let mut r = SnapshotReader::new(bytes);
        let dim = r.get_usize()?;
        let metric = snapshot::metric_from_code(r.get_u8()?)?;
        let rows = snapshot::rowformat_from_code(r.get_u8()?)?;
        let shards = r.get_usize()?;
        if dim == 0 || shards == 0 || shards > bytes.len() {
            return Err(SnapshotError::Corrupt("sharded manifest shape"));
        }
        let mut children: Vec<Box<dyn AnnIndex>> = Vec::with_capacity(shards);
        for _ in 0..shards {
            let family = r.get_u8()?;
            let payload = r.get_u8_slice()?;
            let child = snapshot::load_child(family, &payload)?;
            if child.dim() != dim || child.metric() != metric {
                return Err(SnapshotError::Corrupt("sharded child dim/metric"));
            }
            children.push(child);
        }
        r.finish()?;
        Ok(ShardedIndex::from_parts(dim, metric, rows, children))
    }
}

impl AnnIndex for ShardedIndex {
    fn dim(&self) -> usize {
        ShardedIndex::dim(self)
    }
    fn len(&self) -> usize {
        ShardedIndex::len(self)
    }
    fn metric(&self) -> Metric {
        ShardedIndex::metric(self)
    }
    fn add_batch(&mut self, flat: &[f32]) {
        ShardedIndex::add_batch(self, flat)
    }
    fn refresh(&mut self, data: &[f32], changed: &[u32]) -> bool {
        ShardedIndex::refresh(self, data, changed)
    }
    fn can_refresh(&self) -> bool {
        ShardedIndex::can_refresh(self)
    }
    fn knob(&self, knob: Knob) -> Option<(usize, usize)> {
        ShardedIndex::knob(self, knob)
    }
    fn set_knob(&mut self, knob: Knob, width: usize) -> bool {
        ShardedIndex::set_knob(self, knob, width)
    }
    fn train_generation(&self) -> u64 {
        self.children.iter().map(|c| c.train_generation()).sum()
    }
    fn search(&self, query: &[f32], k: usize) -> Vec<Hit> {
        ShardedIndex::search(self, query, k)
    }
    fn search_batch(&self, queries: &[f32], k: usize) -> Vec<Vec<Hit>> {
        ShardedIndex::search_batch(self, queries, k)
    }
    fn snapshot_blob(&self) -> (u8, Vec<u8>) {
        (snapshot::FAMILY_SHARDED, self.snapshot_bytes())
    }
    fn shard_stats(&self) -> Option<ShardStatsSnapshot> {
        Some(ShardedIndex::shard_stats(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatIndex;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_data(n: usize, dim: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    fn flat_over(data: &[f32], dim: usize, metric: Metric) -> FlatIndex {
        let mut ix = FlatIndex::new(dim, metric);
        ix.add_batch(data);
        ix
    }

    #[test]
    fn sharded_flat_equals_flat_exactly() {
        let dim = 6;
        let data = random_data(97, dim, 3); // not a multiple of any shard count
        let flat = flat_over(&data, dim, Metric::L2);
        for shards in [1usize, 2, 3, 5, 8] {
            let sharded = ShardedIndex::build(&IndexSpec::Flat, shards, &data, dim, Metric::L2);
            assert_eq!(sharded.len(), 97);
            assert_eq!(sharded.shards(), shards);
            for qi in [0usize, 13, 96] {
                let q = &data[qi * dim..(qi + 1) * dim];
                assert_eq!(sharded.search(q, 7), flat.search(q, 7), "shards={shards} qi={qi}");
            }
            let batch = sharded.search_batch(&data[0..5 * dim], 4);
            assert_eq!(batch, flat.search_batch(&data[0..5 * dim], 4), "shards={shards} batch");
        }
    }

    #[test]
    fn round_robin_id_remap_is_global() {
        // Place distinctive vectors so the nearest neighbour of each query
        // is known by construction, then verify the returned id is the
        // *global* insertion id, not a shard-local one.
        let dim = 2;
        let n = 11;
        let data: Vec<f32> = (0..n).flat_map(|i| [i as f32 * 10.0, 0.0]).collect();
        let sharded = ShardedIndex::build(&IndexSpec::Flat, 4, &data, dim, Metric::L2);
        for i in 0..n {
            let hits = sharded.search(&[i as f32 * 10.0, 0.0], 1);
            assert_eq!(hits[0].id, i as u32);
            assert_eq!(hits[0].distance, 0.0);
        }
    }

    #[test]
    fn add_batch_continues_round_robin() {
        let dim = 4;
        let base = random_data(10, dim, 1);
        let extra = random_data(7, dim, 2);
        let mut sharded = ShardedIndex::build(&IndexSpec::Flat, 3, &base, dim, Metric::L2);
        sharded.add_batch(&extra);
        assert_eq!(sharded.len(), 17);

        let mut all = base.clone();
        all.extend_from_slice(&extra);
        let flat = flat_over(&all, dim, Metric::L2);
        for qi in [0usize, 10, 16] {
            let q = &all[qi * dim..(qi + 1) * dim];
            assert_eq!(sharded.search(q, 5), flat.search(q, 5), "qi={qi}");
        }
    }

    #[test]
    fn more_shards_than_rows_leaves_empty_children() {
        let dim = 3;
        let data = random_data(2, dim, 9);
        let sharded = ShardedIndex::build(&IndexSpec::Flat, 7, &data, dim, Metric::L2);
        assert_eq!(sharded.shards(), 7);
        assert_eq!(sharded.len(), 2);
        let hits = sharded.search(&data[0..dim], 10);
        assert_eq!(hits.len(), 2, "k capped by total rows, empty shards contribute nothing");
        assert_eq!(hits[0].id, 0);
    }

    #[test]
    fn dim_reestablishment_resets_every_empty_child() {
        // Regression: re-establishing dim on a 0-row sharded index must
        // re-dim the sibling children too, or the next batch's round-robin
        // split hands them buffers they misinterpret.
        let mut ix = ShardedIndex::build(&IndexSpec::Flat, 2, &[], 4, Metric::L2);
        ix.add_batch(&[1.0, 2.0, 3.0]); // establishes dim = 3, lands in shard 0
        assert_eq!(ix.dim(), 3);
        assert_eq!(ix.len(), 1);
        ix.add_batch(&[4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0]);
        assert_eq!(ix.len(), 5, "four 3-dim rows appended across both shards");
        // Row 2 (global id 2) went to shard 0, row 3 to shard 1; both must
        // come back with exact distances and global ids.
        for (g, row) in [(2u32, [7.0f32, 8.0, 9.0]), (3, [10.0, 11.0, 12.0])] {
            let hits = ix.search(&row, 1);
            assert_eq!(hits[0].id, g);
            assert_eq!(hits[0].distance, 0.0);
        }
    }

    #[test]
    fn declined_refresh_leaves_composite_untouched() {
        // Regression: hnsw@4 over 3 rows leaves shard 3 an empty-built
        // exact child that *would* accept appended rows while the HNSW
        // shards decline. Pre-fix, refresh appended into shard 3 first
        // and only then returned false — a partially mutated composite.
        let dim = 4;
        let base = random_data(3, dim, 11);
        let spec = IndexSpec::Hnsw(crate::hnsw::HnswParams::default());
        let mut ix = ShardedIndex::build(&spec, 4, &base, dim, Metric::L2);
        assert_eq!(ix.len(), 3);
        assert!(!ix.can_refresh(), "HNSW children must report no in-place refresh");
        let before = ix.search(&base[0..dim], 3);
        let mut new = base.clone();
        new.extend_from_slice(&random_data(2, dim, 12));
        assert!(!ix.refresh(&new, &[]), "a declining child must decline the composite");
        assert_eq!(ix.len(), 3, "declined refresh must not mutate any child");
        assert_eq!(ix.search(&base[0..dim], 3), before);
    }

    #[test]
    fn nested_sharded_decline_does_not_mutate() {
        // A sharded inner that declines: sharded(hnsw)@2 children inside
        // an outer 2-way composite. The decline must propagate up with
        // both levels untouched.
        let dim = 3;
        let base = random_data(5, dim, 13);
        let inner = IndexSpec::Hnsw(crate::hnsw::HnswParams::default()).sharded(2);
        let mut ix = ShardedIndex::build(&inner, 2, &base, dim, Metric::L2);
        let before = ix.search(&base[0..dim], 4);
        let mut new = base.clone();
        new.extend_from_slice(&random_data(3, dim, 14));
        assert!(!ix.refresh(&new, &[]));
        assert_eq!(ix.len(), 5);
        assert_eq!(ix.search(&base[0..dim], 4), before);
    }

    #[test]
    fn noop_refresh_stays_accepted_for_declining_families() {
        // The drift-0 "nothing changed, nothing appended" round must
        // keep returning true without consulting children — the engine's
        // steady-state reuse path covers every family.
        let dim = 4;
        let base = random_data(10, dim, 15);
        let spec = IndexSpec::Hnsw(crate::hnsw::HnswParams::default());
        let mut ix = ShardedIndex::build(&spec, 2, &base, dim, Metric::L2);
        assert!(ix.refresh(&base, &[]));
        assert_eq!(ix.len(), 10);
    }

    // The `@3` rows of the knob table in `index::tests`. A row checks
    // both knobs, so each composite also refuses the one its children
    // lack, untouched. An IVF composite's ceiling is the per-shard nlist.
    #[test]
    fn nprobe_knob_routes_to_every_shard() {
        use crate::index::tests::{assert_knob_rows, knob_specs};
        let (ivf, _, _) = knob_specs();
        assert_knob_rows([
            (ivf.sharded(3), 90, Some((Knob::Nprobe, 8)), 5, 5),
            (IndexSpec::Flat.sharded(3), 90, None, 5, 5),
        ]);
    }

    // An HNSW composite's ceiling is the smallest shard's node count:
    // 90 rows over 3 shards is an even 30-per-shard split.
    #[test]
    fn ef_search_knob_routes_to_every_shard() {
        use crate::index::tests::{assert_knob_rows, knob_specs};
        let (_, hnsw, pq) = knob_specs();
        assert_knob_rows([
            (hnsw.sharded(3), 90, Some((Knob::EfSearch, 30)), 25, 25),
            (pq.sharded(3), 90, None, 5, 5),
        ]);
    }

    #[test]
    fn k_larger_than_per_shard_populations() {
        let dim = 2;
        let data = random_data(9, dim, 4);
        let sharded = ShardedIndex::build(&IndexSpec::Flat, 4, &data, dim, Metric::L2);
        let flat = flat_over(&data, dim, Metric::L2);
        // k = 6 exceeds every shard's population (3 at most).
        assert_eq!(sharded.search(&data[0..dim], 6), flat.search(&data[0..dim], 6));
    }

    // ---- transport-backed probing: stats, hedging, failover ----

    /// A hedge delay no failing replica's *error* can lose to: with the
    /// default 1 ms, a stalled vCPU lets the timer fire first, the event is
    /// counted as a hedge, and an exact `failovers` assertion fails though
    /// every answer is right.
    const FAILOVER_ONLY: Duration = Duration::from_secs(60);

    /// A transport wrapper that fails the first `fail` searches and/or
    /// sleeps before answering — the fault-injection double for the
    /// hedging and failover paths.
    struct FaultyShard {
        inner: LocalShard,
        fail_next: AtomicU64,
        delay: Duration,
    }

    impl FaultyShard {
        fn over(data: &[f32], dim: usize, fail_next: u64, delay: Duration) -> FaultyShard {
            let ix = IndexSpec::Flat.build(data, dim, Metric::L2);
            FaultyShard { inner: LocalShard::new(ix), fail_next: AtomicU64::new(fail_next), delay }
        }
    }

    impl ShardTransport for FaultyShard {
        fn dim(&self) -> usize {
            self.inner.dim()
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn metric(&self) -> Metric {
            self.inner.metric()
        }
        fn can_refresh(&self) -> bool {
            self.inner.can_refresh()
        }
        fn train_generation(&self) -> u64 {
            self.inner.train_generation()
        }
        fn endpoint(&self) -> String {
            "faulty".into()
        }
        fn install(&self, family: u8, payload: &[u8]) -> Result<(), TransportError> {
            self.inner.install(family, payload)
        }
        fn add_batch(&self, flat: &[f32]) -> Result<(), TransportError> {
            self.inner.add_batch(flat)
        }
        fn refresh(&self, data: &[f32], changed: &[u32]) -> Result<bool, TransportError> {
            self.inner.refresh(data, changed)
        }
        fn search_batch(&self, queries: &[f32], k: usize) -> Result<Vec<Vec<Hit>>, TransportError> {
            if self
                .fail_next
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                .is_ok()
            {
                return Err(TransportError::Truncated);
            }
            if !self.delay.is_zero() {
                std::thread::sleep(self.delay);
            }
            self.inner.search_batch(queries, k)
        }
        fn knob(&self, knob: Knob) -> Result<Option<(usize, usize)>, TransportError> {
            self.inner.knob(knob)
        }
        fn set_knob(&self, knob: Knob, width: usize) -> Result<bool, TransportError> {
            self.inner.set_knob(knob, width)
        }
        fn snapshot_blob(&self) -> Result<(u8, Vec<u8>), TransportError> {
            self.inner.snapshot_blob()
        }
    }

    /// Round-robin split of `data` for shard `s` of `n`.
    fn shard_rows(data: &[f32], dim: usize, s: usize, n: usize) -> Vec<f32> {
        data.chunks(dim)
            .enumerate()
            .filter(|(g, _)| g % n == s)
            .flat_map(|(_, row)| row.iter().copied())
            .collect()
    }

    #[test]
    fn per_shard_probe_counts_accumulate_and_balance() {
        let dim = 4;
        let data = random_data(30, dim, 21);
        let ix = ShardedIndex::build(&IndexSpec::Flat, 3, &data, dim, Metric::L2);
        assert_eq!(ix.shard_stats().total().probes, 0);
        let _ = ix.search(&data[0..dim], 5);
        let _ = ix.search_batch(&data[0..6 * dim], 5);
        let stats = ix.shard_stats();
        assert_eq!(stats.shards.len(), 3);
        for (s, shard) in stats.shards.iter().enumerate() {
            assert_eq!(shard.probes, 7, "shard {s}: 1 single + 6 batched queries");
            assert_eq!(shard.errors, 0);
        }
        assert!((stats.imbalance() - 1.0).abs() < 1e-12, "round-robin probing is balanced");
    }

    #[test]
    fn hedged_probe_recovers_a_slow_replica() {
        // Shard 0's preferred replica answers after 5 s (far beyond any
        // scheduler stall; the probe returns on the first response and
        // leaves it detached); its second replica is fast. With a 1 ms
        // hedge delay the hedge must fire, win, and return the same exact
        // hits — first response wins is invisible because replicas are
        // identical.
        let dim = 3;
        let n = 2;
        let data = random_data(24, dim, 22);
        let mk = |s: usize, fail: u64, delay_ms: u64| -> Arc<dyn ShardTransport> {
            Arc::new(FaultyShard::over(
                &shard_rows(&data, dim, s, n),
                dim,
                fail,
                Duration::from_millis(delay_ms),
            ))
        };
        let mut ix = ShardedIndex::from_handles(
            dim,
            Metric::L2,
            RowFormat::F32,
            vec![
                ShardHandle::new(vec![mk(0, 0, 5000), mk(0, 0, 0)]),
                ShardHandle::new(vec![mk(1, 0, 0)]),
            ],
        );
        ix.set_hedge_delay(Some(Duration::from_millis(1)));
        let flat = flat_over(&data, dim, Metric::L2);
        let got = ix.try_search_batch(&data[0..4 * dim], 6).expect("hedged probe succeeds");
        assert_eq!(got, flat.search_batch(&data[0..4 * dim], 6));
        let stats = ix.shard_stats();
        assert_eq!(stats.shards[0].hedges_fired, 1);
        assert_eq!(stats.shards[0].hedges_won, 1);
        assert_eq!(stats.shards[0].errors, 0);
        assert_eq!(stats.shards[1].hedges_fired, 0);
        assert_eq!(stats.total().probes, 8, "4 queries on each of 2 shards");
    }

    #[test]
    fn erroring_replica_fails_over_without_wrong_answers() {
        // Shard 0's preferred replica drops the connection on the first
        // two probes (typed Truncated); the replica recovers them. The
        // caller sees only correct answers and the failover counter.
        let dim = 3;
        let n = 2;
        let data = random_data(20, dim, 23);
        let mk = |s: usize, fail: u64| -> Arc<dyn ShardTransport> {
            Arc::new(FaultyShard::over(&shard_rows(&data, dim, s, n), dim, fail, Duration::ZERO))
        };
        let mut ix = ShardedIndex::from_handles(
            dim,
            Metric::L2,
            RowFormat::F32,
            vec![ShardHandle::new(vec![mk(0, 2), mk(0, 0)]), ShardHandle::new(vec![mk(1, 0)])],
        );
        ix.set_hedge_delay(Some(FAILOVER_ONLY));
        let flat = flat_over(&data, dim, Metric::L2);
        for round in 0..3 {
            let got = ix.try_search_batch(&data[0..2 * dim], 5).expect("failover succeeds");
            assert_eq!(got, flat.search_batch(&data[0..2 * dim], 5), "round {round}");
        }
        let stats = ix.shard_stats();
        assert_eq!(stats.shards[0].failovers, 2);
        assert_eq!(stats.shards[0].errors, 0, "failover recovered every probe");
        assert_eq!(stats.shards[0].probes, 6);
    }

    #[test]
    fn unreplicated_shard_failure_is_a_typed_error_not_a_panic() {
        let dim = 3;
        let data = random_data(12, dim, 24);
        let mk = |s: usize, fail: u64| -> Arc<dyn ShardTransport> {
            Arc::new(FaultyShard::over(&shard_rows(&data, dim, s, 2), dim, fail, Duration::ZERO))
        };
        let ix = ShardedIndex::from_handles(
            dim,
            Metric::L2,
            RowFormat::F32,
            vec![ShardHandle::new(vec![mk(0, 1)]), ShardHandle::new(vec![mk(1, 0)])],
        );
        let err = ix.try_search_batch(&data[0..dim], 3).expect_err("dropped shard surfaces");
        assert!(matches!(err, TransportError::Truncated), "typed error, got {err}");
        let stats = ix.shard_stats();
        assert_eq!(stats.shards[0].errors, 1);
        // The shard recovered (fail budget spent): probing works again.
        let flat = flat_over(&data, dim, Metric::L2);
        assert_eq!(
            ix.try_search_batch(&data[0..dim], 3).expect("recovered"),
            flat.search_batch(&data[0..dim], 3)
        );
    }

    #[test]
    fn every_replica_failing_surfaces_the_last_typed_error() {
        let dim = 2;
        let data = random_data(8, dim, 25);
        let mk = |fail: u64| -> Arc<dyn ShardTransport> {
            Arc::new(FaultyShard::over(&shard_rows(&data, dim, 0, 1), dim, fail, Duration::ZERO))
        };
        let mut ix = ShardedIndex::from_handles(
            dim,
            Metric::L2,
            RowFormat::F32,
            vec![ShardHandle::new(vec![mk(5), mk(5)])],
        );
        ix.set_hedge_delay(Some(FAILOVER_ONLY));
        let err = ix.try_search(&data[0..dim], 2).expect_err("all replicas down");
        assert!(matches!(err, TransportError::Truncated));
        let stats = ix.shard_stats();
        assert_eq!(stats.shards[0].errors, 1);
        assert_eq!(stats.shards[0].failovers, 1, "the second replica was tried");
    }
}
