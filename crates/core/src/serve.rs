//! Long-lived query serving over a built index: batched admission,
//! backpressure, deadline shedding, result caching, single-flight
//! coalescing, and zero-downtime index hot-swap.
//!
//! Every probe-path optimisation so far — blocked kernels, SIMD dispatch,
//! sharded scatter-gather, snapshot warm start — is only exercised by
//! batch AL rounds. [`QueryService`] turns those kernels into a serving
//! front: single-query requests from many client threads flow into one
//! **bounded admission queue** (a `std::sync::mpsc::sync_channel`, the
//! same primitive as the engine's build/probe pipeline), get
//! **coalesced** into blocks of up to [`ServeConfig::batch_max`] queries
//! (default [`ADMISSION_BLOCK`], the probe-side blocking unit), and hit
//! [`AnnIndex::search_batch`] — whose inner loops run on the
//! work-stealing executor, so `--threads=N` (or `RAYON_NUM_THREADS`)
//! sizes the compute under every worker.
//!
//! Load-control mechanisms, in the order a request meets them:
//!
//! 1. **Backpressure** — [`QueryService::submit`] never blocks: a full
//!    queue rejects with [`ServeError::Overloaded`] immediately, so
//!    clients learn about saturation at admission time, not after a
//!    queueing delay.
//! 2. **Batch coalescing** — a worker takes the oldest waiting request,
//!    then greedily drains whatever else is queued (up to `batch_max`)
//!    into one `search_batch` call. Under light load batches are small
//!    and latency is low; under heavy load batches grow toward the
//!    blocked kernel's sweet spot and throughput rises.
//! 3. **Deadline shedding** — a request whose *queue wait* exceeds its
//!    deadline is answered [`ServeError::DeadlineExceeded`] before any
//!    scan work happens. Shedding is all-or-nothing: a shed request
//!    contributes zero queries to the batch.
//!
//! Then two mechanisms that remove scan work entirely on skewed traffic
//! (the regime the zipfian load harness drives, where a few hot queries
//! dominate):
//!
//! 4. **Result cache** — a sharded, bounded LRU ([`crate::cache`]) keyed
//!    by `(query bit pattern, k, generation)` with full bitwise key
//!    verification on every hit. A repeat of a hot query is answered
//!    from the cache without touching the index.
//! 5. **Single-flight coalescing** — identical requests (same query
//!    bits, same k) that dispatch *together* collapse to one scan whose
//!    result fans out to every waiting [`Ticket`]: duplicates inside a
//!    batch ride their group's single packed query, and a worker that
//!    misses the cache while another worker is already scanning the same
//!    key at the same generation attaches its requests to that in-flight
//!    scan instead of issuing its own. Coalesced serves are counted
//!    separately from cache hits ([`ServeStats`]).
//!
//! **Generations and hot swap.** The service owns its index behind a
//! read–write lock and stamps every mutation with a monotone
//! **generation counter**: [`QueryService::install_index`] (replace the
//! whole index with a freshly built one — the zero-downtime "serve round
//! *r* while round *r+1* trains" swap), [`QueryService::refresh`]
//! (in-place row update), and the tuner knob [`QueryService::set_knob`].
//! Cache entries carry the generation they were scanned at, and a lookup
//! only hits at the *current* generation — so a mutation invalidates the
//! whole cache in O(1) and a stale result is never served: the first
//! identical query after a swap misses and rescans against the new
//! index. Dispatch reads the generation under the index read lock, so a
//! scan, the generation it stamps, and the entries it caches are always
//! mutually consistent.
//!
//! Correctness is inherited, not re-argued: the [`AnnIndex`] contract
//! says `search_batch` equals mapping `search` in order; the service
//! packs one query per *unique* key in arrival order and fans each hit
//! list out to that key's requests, and cached entries are verbatim
//! copies of such a scan at the same generation — so every response is
//! **bitwise identical** to a direct single-query [`AnnIndex::search`]
//! call on the index version that served it, however requests were
//! batched, cached, coalesced, or raced over by workers. The proptests
//! in `crates/core/tests/proptests.rs` drive that end-to-end through the
//! queue, cache sizes included.

use crate::cache::{bits_eq, key_hash, CacheLookup, ResultCache};
use dial_ann::{AnnIndex, Hit, Knob, ShardStatsSnapshot};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The admission batch ceiling: the probe-side blocking unit
/// ([`crate::candidates`]' `PROBE_BLOCK`), i.e. the batch size the
/// blocked scan kernels are tuned for. Coalescing beyond it would only
/// grow queue wait without speeding the scan.
pub const ADMISSION_BLOCK: usize = crate::candidates::PROBE_BLOCK;

/// The service's time source. Production uses [`MonotonicClock`]; tests
/// drive [`ManualClock`] so queue-wait/deadline arithmetic is exact and
/// shed counts are deterministic.
pub trait ServeClock: Send + Sync {
    /// Nanoseconds since an arbitrary fixed origin; must never go
    /// backwards.
    fn now_ns(&self) -> u64;
}

/// Wall-clock time from a process-local [`Instant`] anchor.
pub struct MonotonicClock(Instant);

impl MonotonicClock {
    pub fn new() -> Self {
        MonotonicClock(Instant::now())
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeClock for MonotonicClock {
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// A hand-advanced clock for deterministic tests: time moves only when
/// the test says so.
#[derive(Default)]
pub struct ManualClock(AtomicU64);

impl ManualClock {
    pub fn new() -> Self {
        Self::default()
    }

    /// Move time forward by `ns`.
    pub fn advance_ns(&self, ns: u64) {
        self.0.fetch_add(ns, Ordering::SeqCst);
    }
}

impl ServeClock for ManualClock {
    fn now_ns(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }
}

/// Knobs of one [`QueryService`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Admission queue depth: requests waiting beyond this are rejected
    /// with [`ServeError::Overloaded`]. Sizing rule of thumb: the queue
    /// holds `queue_capacity / batch_max` full dispatch blocks, so its
    /// worst-case contribution to latency is that many scan times.
    pub queue_capacity: usize,
    /// Most queries coalesced into one `search_batch` call; clamped to
    /// at least 1. Defaults to [`ADMISSION_BLOCK`].
    pub batch_max: usize,
    /// Dispatch worker threads. `0` means **manual mode**: nothing runs
    /// until the caller pumps the queue with [`QueryService::pump`] —
    /// the deterministic-test configuration.
    pub workers: usize,
    /// Deadline applied to requests submitted without one. `None`
    /// disables shedding for such requests.
    pub default_deadline: Option<Duration>,
    /// Result-cache capacity in entries; `0` disables the cache
    /// entirely (single-flight coalescing still applies). Sizing rule of
    /// thumb: cover the hot set — under zipfian skew a cache of a few
    /// hundred entries absorbs the bulk of repeats.
    pub cache_entries: usize,
    /// Result-cache capacity in approximate bytes across all cache
    /// shards (`0` = no byte bound; the entry bound still applies). One
    /// entry costs about `dim * 4 + k * 8` bytes plus fixed overhead.
    pub cache_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 1024,
            batch_max: ADMISSION_BLOCK,
            workers: 1,
            default_deadline: None,
            cache_entries: 4096,
            cache_bytes: 16 << 20,
        }
    }
}

/// Why a request produced no hits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The admission queue was full at submit time; retry later or back
    /// off. The query was never enqueued.
    Overloaded,
    /// The request waited in the queue past its deadline and was shed
    /// before any scan work; `waited_ns` is the queue wait observed at
    /// dispatch time.
    DeadlineExceeded { waited_ns: u64 },
    /// The service shut down before dispatching the request.
    Shutdown,
    /// Malformed request (dimension mismatch, `k == 0`).
    BadRequest(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded => write!(f, "admission queue full"),
            ServeError::DeadlineExceeded { waited_ns } => {
                write!(f, "deadline exceeded after {waited_ns} ns in queue")
            }
            ServeError::Shutdown => write!(f, "service shut down"),
            ServeError::BadRequest(m) => write!(f, "bad request: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A completed query: the hits plus the admission/completion timestamps
/// (the service clock), so callers compute end-to-end latency without a
/// side channel.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeResponse {
    /// Top-`k` hits — bitwise identical to `index.search(&query, k)` on
    /// the index generation that served the request.
    pub hits: Vec<Hit>,
    /// Clock reading when the request entered the queue.
    pub admitted_ns: u64,
    /// Clock reading when the request was answered (batch scan finished,
    /// or the cache hit resolved).
    pub finished_ns: u64,
}

/// One-shot result slot a [`Ticket`] blocks on; first write wins.
struct Slot {
    result: Mutex<Option<Result<ServeResponse, ServeError>>>,
    ready: Condvar,
}

impl Slot {
    fn new() -> Arc<Self> {
        Arc::new(Slot { result: Mutex::new(None), ready: Condvar::new() })
    }

    fn fill(&self, r: Result<ServeResponse, ServeError>) {
        let mut guard = self.result.lock().unwrap();
        if guard.is_none() {
            *guard = Some(r);
            self.ready.notify_all();
        }
    }
}

/// Handle to an admitted request; [`Ticket::wait`] blocks until the
/// service answers (hits, shed, or shutdown).
pub struct Ticket {
    slot: Arc<Slot>,
}

impl Ticket {
    /// Block until the request resolves.
    pub fn wait(self) -> Result<ServeResponse, ServeError> {
        let mut guard = self.slot.result.lock().unwrap();
        loop {
            if let Some(r) = guard.take() {
                return r;
            }
            guard = self.slot.ready.wait(guard).unwrap();
        }
    }
}

/// A queued query. The payload is one shared `Arc<[f32]>` allocation:
/// admission, in-batch dedup, the single-flight table, and the cache key
/// all hold the same buffer — no per-stage copies. Dropping a request
/// unanswered (service teardown with a non-empty queue) resolves its
/// ticket with [`ServeError::Shutdown`], so no waiter can hang.
struct Request {
    query: Arc<[f32]>,
    k: usize,
    admitted_ns: u64,
    deadline_ns: Option<u64>,
    slot: Arc<Slot>,
}

impl Drop for Request {
    fn drop(&mut self) {
        // No-op when the dispatcher already answered (first write wins).
        self.slot.fill(Err(ServeError::Shutdown));
    }
}

/// Monotone counters of everything the service did; snapshot via
/// [`QueryService::stats`]. Two closure invariants hold once the queue
/// is drained (gated by the serving bench and the end-to-end proptest):
///
/// * `submitted == served + shed + rejected` — every admitted request
///   resolves exactly once;
/// * `served == scanned + hits + coalesced` — every served request was
///   answered by exactly one of: paying a scan, a verified cache hit,
///   or attaching to another request's scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests that passed validation and were offered to the queue.
    pub submitted: u64,
    /// Requests refused with [`ServeError::Overloaded`] at admission.
    pub rejected: u64,
    /// Requests shed by deadline before scanning.
    pub shed: u64,
    /// Requests answered with hits.
    pub served: u64,
    /// `search_batch`/`search` calls issued (one per coalesced k-group).
    pub batches: u64,
    /// Served requests that paid an index scan (one per unique scanned
    /// key per dispatch).
    pub scanned: u64,
    /// Served requests answered from the result cache (bitwise-verified
    /// hits at the current generation).
    pub hits: u64,
    /// Cache lookups that found nothing servable (no entry, hash
    /// collision, or a stale generation). One lookup happens per unique
    /// key per dispatch, so `misses` counts *scans the cache could not
    /// save*, not requests.
    pub misses: u64,
    /// Served requests answered by another request's scan — in-batch
    /// duplicates and cross-worker single-flight attachments.
    pub coalesced: u64,
    /// Cache entries evicted by the LRU capacity bounds.
    pub evictions: u64,
    /// Stale-generation cache entries removed on discovery (each one is
    /// a mutation's O(1) invalidation becoming visible).
    pub invalidations: u64,
    /// Shard probes fanned out by the served index — the sum of
    /// per-shard probe counts when the index is sharded, 0 otherwise.
    /// Unlike the service counters above, these accumulate on the
    /// *index* (they reset when [`QueryService::install_index`] swaps
    /// it) and count queries × shards, so they sit outside the closure
    /// invariants. Per-shard detail via [`QueryService::shard_stats`].
    pub shard_probes: u64,
    /// Hedge requests the served index fired at slow shard replicas.
    pub hedges_fired: u64,
    /// Hedge requests that beat the preferred replica's response.
    pub hedges_won: u64,
}

impl ServeStats {
    /// Both closure invariants (see the type docs). Meaningful once the
    /// queue is drained — mid-flight snapshots may be transiently open.
    pub fn accounting_closes(&self) -> bool {
        self.submitted == self.served + self.shed + self.rejected
            && self.served == self.scanned + self.hits + self.coalesced
    }
}

#[derive(Default)]
struct StatCells {
    submitted: AtomicU64,
    rejected: AtomicU64,
    shed: AtomicU64,
    served: AtomicU64,
    batches: AtomicU64,
    scanned: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

/// A scan another dispatch can attach to: the verification query, the
/// generation it runs at, and the tickets waiting on its result.
struct InFlight {
    query: Arc<[f32]>,
    gen: u64,
    waiters: Vec<Request>,
}

/// One unique `(query bits, k)` within a dispatch batch, with every
/// request that asked for it.
struct KeyGroup {
    hash: u64,
    query: Arc<[f32]>,
    k: usize,
    reqs: Vec<Request>,
    /// This dispatch registered the key in the single-flight table (and
    /// must release it after the scan).
    registered: bool,
}

/// State shared between the submitting side, the workers, and the
/// manual pump.
struct Inner {
    /// The live index. Scans hold the read side; mutations
    /// (`install_index`, `refresh`, knob changes) take the write side
    /// and bump `generation` before releasing it.
    index: RwLock<Box<dyn AnnIndex>>,
    /// Pinned at construction; `install_index` enforces it, so `submit`
    /// validates without touching the index lock.
    dim: usize,
    clock: Arc<dyn ServeClock>,
    batch_max: usize,
    /// Monotone index-version counter; every cache entry is stamped
    /// with it (see the module docs).
    generation: AtomicU64,
    cache: Option<ResultCache>,
    /// The single-flight table: keys being scanned right now, by some
    /// dispatch, at some generation.
    inflight: Mutex<HashMap<(u64, usize), InFlight>>,
    stats: StatCells,
}

impl Inner {
    /// Answer one coalesced batch: shed expired requests, dedup the
    /// survivors by `(query bits, k)`, serve verified cache hits, attach
    /// to in-flight scans, then scan the remaining unique keys (packed
    /// in arrival order, one `search_batch` per distinct `k`) and fan
    /// each hit list out to its group and any cross-worker waiters.
    fn dispatch(&self, batch: Vec<Request>) {
        let now = self.clock.now_ns();
        let mut survivors: Vec<Request> = Vec::with_capacity(batch.len());
        for req in batch {
            let waited = now.saturating_sub(req.admitted_ns);
            match req.deadline_ns {
                Some(d) if waited > d => {
                    self.stats.shed.fetch_add(1, Ordering::Relaxed);
                    req.slot.fill(Err(ServeError::DeadlineExceeded { waited_ns: waited }));
                    // `req` drops here without ever touching the index:
                    // a shed request contributes zero queries to the scan.
                }
                _ => survivors.push(req),
            }
        }
        if survivors.is_empty() {
            return;
        }
        // Scans run under the index read lock; the generation is stable
        // while it is held (mutations bump it under the write lock), so
        // everything below — lookups, the in-flight gen stamp, cache
        // inserts — is consistent with the index being scanned.
        let index = self.index.read().unwrap();
        let gen = self.generation.load(Ordering::Acquire);

        // Dedup identical requests into key groups, first-arrival order.
        let mut groups: Vec<KeyGroup> = Vec::new();
        let mut by_key: HashMap<(u64, usize), usize> = HashMap::new();
        for req in survivors {
            let hash = key_hash(&req.query, req.k);
            match by_key.get(&(hash, req.k)) {
                Some(&gi) if bits_eq(&groups[gi].query, &req.query) => groups[gi].reqs.push(req),
                _ => {
                    by_key.insert((hash, req.k), groups.len());
                    groups.push(KeyGroup {
                        hash,
                        query: req.query.clone(),
                        k: req.k,
                        reqs: vec![req],
                        registered: false,
                    });
                }
            }
        }

        // Resolve each group: a verified cache hit serves the whole
        // group; otherwise attach to an in-flight scan of the same key,
        // or lead one ourselves.
        let mut to_scan: Vec<KeyGroup> = Vec::new();
        for mut group in groups {
            if let Some(cache) = &self.cache {
                match cache.lookup_hashed(group.hash, &group.query, group.k, gen) {
                    CacheLookup::Hit(hits) => {
                        let finished_ns = self.clock.now_ns();
                        self.stats.hits.fetch_add(group.reqs.len() as u64, Ordering::Relaxed);
                        for req in group.reqs {
                            self.stats.served.fetch_add(1, Ordering::Relaxed);
                            req.slot.fill(Ok(ServeResponse {
                                hits: hits.clone(),
                                admitted_ns: req.admitted_ns,
                                finished_ns,
                            }));
                        }
                        continue;
                    }
                    CacheLookup::Stale => {
                        self.stats.invalidations.fetch_add(1, Ordering::Relaxed);
                        self.stats.misses.fetch_add(1, Ordering::Relaxed);
                    }
                    CacheLookup::Miss => {
                        self.stats.misses.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            {
                let mut inflight = self.inflight.lock().unwrap();
                match inflight.get_mut(&(group.hash, group.k)) {
                    // Another worker is scanning this exact key at this
                    // generation: hand it our requests instead of
                    // rescanning (single flight). The leader's fan-out
                    // does all the counting — served and coalesced —
                    // when it resolves the waiters.
                    Some(f) if f.gen == gen && bits_eq(&f.query, &group.query) => {
                        f.waiters.append(&mut group.reqs);
                        continue;
                    }
                    // A colliding or stale-generation leader occupies
                    // the key: scan ourselves, unregistered.
                    Some(_) => {}
                    None => {
                        inflight.insert(
                            (group.hash, group.k),
                            InFlight { query: group.query.clone(), gen, waiters: Vec::new() },
                        );
                        group.registered = true;
                    }
                }
            }
            to_scan.push(group);
        }
        if to_scan.is_empty() {
            return;
        }

        // Scan the unique keys, one packed `search_batch` per distinct
        // `k`, groups in arrival order within each (the order
        // `search_batch` must match `search` in).
        let mut k_groups: Vec<(usize, Vec<KeyGroup>)> = Vec::new();
        for g in to_scan {
            match k_groups.iter_mut().find(|(k, _)| *k == g.k) {
                Some((_, v)) => v.push(g),
                None => k_groups.push((g.k, vec![g])),
            }
        }
        for (k, gs) in k_groups {
            let hit_lists: Vec<Vec<Hit>> = if gs.len() == 1 {
                // One unique key: probe straight off the shared payload
                // allocation — no packing copy (`search` is bitwise the
                // one-query batch per the AnnIndex contract).
                vec![index.search(&gs[0].query, k)]
            } else {
                let mut packed = Vec::with_capacity(gs.len() * self.dim);
                for g in &gs {
                    packed.extend_from_slice(&g.query);
                }
                index.search_batch(&packed, k)
            };
            debug_assert_eq!(hit_lists.len(), gs.len());
            let finished_ns = self.clock.now_ns();
            self.stats.batches.fetch_add(1, Ordering::Relaxed);
            for (g, hits) in gs.into_iter().zip(hit_lists) {
                // Publish to the cache *before* releasing the in-flight
                // key: a racing dispatch then either finds the entry or
                // still attaches — never a window with neither.
                if let Some(cache) = &self.cache {
                    let evicted =
                        cache.insert_hashed(g.hash, g.query.clone(), k, gen, hits.clone());
                    self.stats.evictions.fetch_add(evicted, Ordering::Relaxed);
                }
                let waiters = match g.registered {
                    true => self
                        .inflight
                        .lock()
                        .unwrap()
                        .remove(&(g.hash, g.k))
                        .map(|f| f.waiters)
                        .unwrap_or_default(),
                    false => Vec::new(),
                };
                let mut paid_the_scan = true;
                for req in g.reqs.into_iter().chain(waiters) {
                    self.stats.served.fetch_add(1, Ordering::Relaxed);
                    match paid_the_scan {
                        true => self.stats.scanned.fetch_add(1, Ordering::Relaxed),
                        false => self.stats.coalesced.fetch_add(1, Ordering::Relaxed),
                    };
                    paid_the_scan = false;
                    req.slot.fill(Ok(ServeResponse {
                        hits: hits.clone(),
                        admitted_ns: req.admitted_ns,
                        finished_ns,
                    }));
                }
            }
        }
    }
}

/// The serving front: owns a built index behind a generation-stamped
/// read–write lock, a bounded admission queue, an optional worker pool,
/// and the result cache. See the module docs for the admission →
/// coalescing → shedding → cache/single-flight flow and the hot-swap
/// semantics.
pub struct QueryService {
    inner: Arc<Inner>,
    /// `None` once shutdown began (dropping the last sender closes the
    /// queue and lets workers drain out).
    tx: Option<SyncSender<Request>>,
    rx: Arc<Mutex<Receiver<Request>>>,
    workers: Vec<JoinHandle<()>>,
    /// Applied to requests submitted without a deadline; read only at
    /// submit time, on the caller's thread.
    default_deadline: Option<Duration>,
}

impl QueryService {
    /// Serve `index` under `cfg` on the wall clock. Takes ownership of
    /// the index — typically detached from a
    /// [`crate::RetrievalEngine`] via
    /// [`crate::RetrievalEngine::take_member_index`], cloned without
    /// disturbing the engine via
    /// [`crate::RetrievalEngine::clone_member_index`], or built/loaded
    /// directly.
    pub fn new(index: Box<dyn AnnIndex>, cfg: ServeConfig) -> Self {
        Self::with_clock(index, cfg, Arc::new(MonotonicClock::new()))
    }

    /// [`QueryService::new`] with an explicit time source (tests inject
    /// [`ManualClock`] here).
    pub fn with_clock(
        index: Box<dyn AnnIndex>,
        cfg: ServeConfig,
        clock: Arc<dyn ServeClock>,
    ) -> Self {
        let (tx, rx) = sync_channel::<Request>(cfg.queue_capacity.max(1));
        let cache =
            (cfg.cache_entries > 0).then(|| ResultCache::new(cfg.cache_entries, cfg.cache_bytes));
        let inner = Arc::new(Inner {
            dim: index.dim(),
            index: RwLock::new(index),
            clock,
            batch_max: cfg.batch_max.max(1),
            generation: AtomicU64::new(0),
            cache,
            inflight: Mutex::new(HashMap::new()),
            stats: StatCells::default(),
        });
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..cfg.workers)
            .map(|w| {
                let inner = inner.clone();
                let rx = rx.clone();
                std::thread::Builder::new()
                    .name(format!("dial-serve-{w}"))
                    .spawn(move || worker_loop(&inner, &rx))
                    .expect("spawn serve worker")
            })
            .collect();
        QueryService { inner, tx: Some(tx), rx, workers, default_deadline: cfg.default_deadline }
    }

    /// Offer one query for service. Never blocks: a full queue answers
    /// [`ServeError::Overloaded`] right away. `deadline` bounds the
    /// *queue wait* (falling back to the config default); the returned
    /// [`Ticket`] resolves with hits, a shed, or a shutdown notice.
    ///
    /// The payload converts into one shared `Arc<[f32]>` allocation
    /// (callers holding `Arc<[f32]>` pools submit repeat queries with no
    /// allocation at all) that admission, coalescing, and the cache key
    /// then share.
    pub fn submit(
        &self,
        query: impl Into<Arc<[f32]>>,
        k: usize,
        deadline: Option<Duration>,
    ) -> Result<Ticket, ServeError> {
        let query: Arc<[f32]> = query.into();
        if query.len() != self.inner.dim {
            return Err(ServeError::BadRequest(format!(
                "query has {} values, index dimension is {}",
                query.len(),
                self.inner.dim
            )));
        }
        if k == 0 {
            return Err(ServeError::BadRequest("k must be at least 1".into()));
        }
        let tx = match &self.tx {
            Some(tx) => tx,
            None => return Err(ServeError::Shutdown),
        };
        let deadline_ns = deadline.or(self.default_deadline).map(|d| d.as_nanos() as u64);
        let slot = Slot::new();
        let req = Request {
            query,
            k,
            admitted_ns: self.inner.clock.now_ns(),
            deadline_ns,
            slot: slot.clone(),
        };
        self.inner.stats.submitted.fetch_add(1, Ordering::Relaxed);
        match tx.try_send(req) {
            Ok(()) => Ok(Ticket { slot }),
            Err(TrySendError::Full(req)) => {
                self.inner.stats.rejected.fetch_add(1, Ordering::Relaxed);
                // Answer the (never-returned) ticket so the Drop below is
                // the documented Shutdown-on-drop no-op, then discard.
                req.slot.fill(Err(ServeError::Overloaded));
                Err(ServeError::Overloaded)
            }
            Err(TrySendError::Disconnected(_)) => Err(ServeError::Shutdown),
        }
    }

    /// Manual-mode dispatch: drain everything currently queued on the
    /// caller's thread, in coalesced batches, and return how many
    /// requests were resolved (served + shed). With `workers > 0` this
    /// merely competes with the pool; it exists so `workers: 0` tests
    /// control exactly when dispatch happens relative to a
    /// [`ManualClock`].
    pub fn pump(&self) -> usize {
        let mut resolved = 0;
        loop {
            let batch = take_batch(&self.rx, self.inner.batch_max, false);
            if batch.is_empty() {
                return resolved;
            }
            resolved += batch.len();
            self.inner.dispatch(batch);
        }
    }

    /// The current index generation. Bumped by every mutation
    /// ([`QueryService::install_index`], [`QueryService::refresh`],
    /// [`QueryService::set_knob`]);
    /// cache entries from older generations are never served.
    pub fn generation(&self) -> u64 {
        self.inner.generation.load(Ordering::Acquire)
    }

    /// Hot-swap the served index for a freshly built one — the
    /// zero-downtime "serve round *r* while round *r+1* trains"
    /// hand-off: in-flight scans finish against the old index, the swap
    /// installs between dispatches, and the generation bump invalidates
    /// every cached result in O(1), so the next identical query rescans
    /// against the new index. The new index must have the dimensionality
    /// the service was built with (admission validates against it
    /// lock-free); metric and family may change freely.
    pub fn install_index(&self, index: Box<dyn AnnIndex>) -> Result<(), ServeError> {
        if index.dim() != self.inner.dim {
            return Err(ServeError::BadRequest(format!(
                "installed index has dimension {}, service serves {}",
                index.dim(),
                self.inner.dim
            )));
        }
        let mut guard = self.inner.index.write().unwrap();
        *guard = index;
        self.inner.generation.fetch_add(1, Ordering::Release);
        Ok(())
    }

    /// In-place [`AnnIndex::refresh`] of the served index under the
    /// write lock, returning whether the family applied it. Any call
    /// that may have mutated the index bumps the generation (a no-op
    /// refresh — nothing changed, nothing appended — does not). On a
    /// `false` return the family declined and the index may be
    /// partially updated (the `AnnIndex::refresh` contract):
    /// [`QueryService::install_index`] a rebuilt index before serving
    /// further traffic.
    pub fn refresh(&self, data: &[f32], changed: &[u32]) -> bool {
        let mut guard = self.inner.index.write().unwrap();
        let before_len = guard.len();
        let applied = guard.refresh(data, changed);
        let mutated = !applied || !changed.is_empty() || guard.len() != before_len;
        if mutated {
            self.inner.generation.fetch_add(1, Ordering::Release);
        }
        applied
    }

    /// Retune the served index's search width ([`AnnIndex::set_knob`])
    /// under the write lock. Returns `false` — and bumps nothing — when
    /// the index has no such knob; an applied retune bumps the
    /// generation (a different width ranks different candidates, so
    /// cached results are stale).
    pub fn set_knob(&self, knob: Knob, width: usize) -> bool {
        let mut guard = self.inner.index.write().unwrap();
        let applied = guard.set_knob(knob, width);
        if applied {
            self.inner.generation.fetch_add(1, Ordering::Release);
        }
        applied
    }

    /// Counter snapshot (monotone; see [`ServeStats`]).
    pub fn stats(&self) -> ServeStats {
        let s = &self.inner.stats;
        let shard = self.shard_stats().map(|snap| snap.total()).unwrap_or_default();
        ServeStats {
            submitted: s.submitted.load(Ordering::Relaxed),
            rejected: s.rejected.load(Ordering::Relaxed),
            shed: s.shed.load(Ordering::Relaxed),
            served: s.served.load(Ordering::Relaxed),
            batches: s.batches.load(Ordering::Relaxed),
            scanned: s.scanned.load(Ordering::Relaxed),
            hits: s.hits.load(Ordering::Relaxed),
            misses: s.misses.load(Ordering::Relaxed),
            coalesced: s.coalesced.load(Ordering::Relaxed),
            evictions: s.evictions.load(Ordering::Relaxed),
            invalidations: s.invalidations.load(Ordering::Relaxed),
            shard_probes: shard.probes,
            hedges_fired: shard.hedges_fired,
            hedges_won: shard.hedges_won,
        }
    }

    /// Per-shard probe/hedge/failover counters of the served index, or
    /// `None` when it has no shard fan-out (single-machine families).
    /// Counters live on the index itself, so an
    /// [`QueryService::install_index`] hot-swap starts them over.
    pub fn shard_stats(&self) -> Option<ShardStatsSnapshot> {
        self.inner.index.read().unwrap().shard_stats()
    }

    /// The worker-count the service was built with (0 = manual mode).
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Stop admitting, drain the queue (workers finish in-flight
    /// requests; manual mode pumps the remainder inline), and return
    /// the final counters.
    pub fn shutdown(mut self) -> ServeStats {
        self.close();
        self.stats()
    }

    fn close(&mut self) {
        // Dropping the only sender closes the queue: worker `recv` ends
        // after the drain.
        self.tx = None;
        if self.workers.is_empty() {
            self.pump();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        self.close();
    }
}

fn worker_loop(inner: &Inner, rx: &Mutex<Receiver<Request>>) {
    loop {
        let batch = take_batch(rx, inner.batch_max, true);
        if batch.is_empty() {
            return;
        }
        inner.dispatch(batch);
    }
}

/// Take one coalesced batch off the queue: the oldest waiting request
/// (blocking for it when `block`), then greedily whatever else is
/// already queued, up to `batch_max`. Holding the receiver lock across
/// the grab means exactly one worker forms each batch; the scan itself
/// runs unlocked.
fn take_batch(rx: &Mutex<Receiver<Request>>, batch_max: usize, block: bool) -> Vec<Request> {
    let rx = rx.lock().unwrap();
    let first = if block { rx.recv().ok() } else { rx.try_recv().ok() };
    let Some(first) = first else { return Vec::new() };
    let mut batch = Vec::with_capacity(batch_max);
    batch.push(first);
    batch.extend(rx.try_iter().take(batch_max - 1));
    batch
}

#[cfg(test)]
mod tests {
    use super::*;
    use dial_ann::{FlatIndex, IndexSpec, IvfParams, Metric};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::atomic::AtomicUsize;

    fn flat(n: usize, dim: usize, seed: u64) -> FlatIndex {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<f32> = (0..n * dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut ix = FlatIndex::new(dim, Metric::L2);
        ix.add_batch(&rows);
        ix
    }

    fn queries(nq: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..nq).map(|_| (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect()).collect()
    }

    fn manual_cfg(queue_capacity: usize) -> ServeConfig {
        ServeConfig {
            queue_capacity,
            batch_max: 64,
            workers: 0,
            default_deadline: None,
            ..ServeConfig::default()
        }
    }

    fn manual_service(
        index: Box<dyn AnnIndex>,
        queue_capacity: usize,
    ) -> (QueryService, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        let svc = QueryService::with_clock(index, manual_cfg(queue_capacity), clock.clone());
        (svc, clock)
    }

    /// Delegating wrapper that counts every query row the index actually
    /// scans — the instrument proving shed requests never reach the scan
    /// and cache hits / coalesced serves skip it.
    struct CountingIndex {
        inner: FlatIndex,
        queries_scanned: Arc<AtomicUsize>,
    }

    impl CountingIndex {
        fn over(inner: FlatIndex) -> (Box<dyn AnnIndex>, Arc<AtomicUsize>) {
            let scanned = Arc::new(AtomicUsize::new(0));
            (Box::new(CountingIndex { inner, queries_scanned: scanned.clone() }), scanned)
        }
    }

    impl AnnIndex for CountingIndex {
        fn dim(&self) -> usize {
            AnnIndex::dim(&self.inner)
        }
        fn len(&self) -> usize {
            AnnIndex::len(&self.inner)
        }
        fn metric(&self) -> Metric {
            AnnIndex::metric(&self.inner)
        }
        fn add_batch(&mut self, flat: &[f32]) {
            AnnIndex::add_batch(&mut self.inner, flat)
        }
        fn refresh(&mut self, data: &[f32], changed: &[u32]) -> bool {
            self.inner.refresh(data, changed)
        }
        fn can_refresh(&self) -> bool {
            true
        }
        fn search(&self, query: &[f32], k: usize) -> Vec<Hit> {
            self.queries_scanned.fetch_add(1, Ordering::SeqCst);
            self.inner.search(query, k)
        }
        fn search_batch(&self, queries: &[f32], k: usize) -> Vec<Vec<Hit>> {
            self.queries_scanned
                .fetch_add(queries.len() / AnnIndex::dim(&self.inner), Ordering::SeqCst);
            AnnIndex::search_batch(&self.inner, queries, k)
        }
        fn snapshot_blob(&self) -> (u8, Vec<u8>) {
            self.inner.snapshot_blob()
        }
    }

    #[test]
    fn shed_counts_are_exact_under_a_manual_clock() {
        let (svc, clock) = manual_service(Box::new(flat(100, 4, 1)), 64);
        let q = queries(6, 4, 2);
        // Three requests with a 100 ns deadline, three without any.
        let doomed: Vec<Ticket> = q[..3]
            .iter()
            .map(|v| svc.submit(v.clone(), 3, Some(Duration::from_nanos(100))).unwrap())
            .collect();
        let safe: Vec<Ticket> =
            q[3..].iter().map(|v| svc.submit(v.clone(), 3, None).unwrap()).collect();
        clock.advance_ns(101); // strictly past the deadline
        assert_eq!(svc.pump(), 6);
        for t in doomed {
            assert_eq!(t.wait(), Err(ServeError::DeadlineExceeded { waited_ns: 101 }));
        }
        for t in safe {
            assert!(t.wait().is_ok());
        }
        let s = svc.stats();
        assert_eq!((s.submitted, s.shed, s.served, s.rejected), (6, 3, 3, 0));
        assert!(s.accounting_closes());
    }

    #[test]
    fn deadline_boundary_is_strict_waited_must_exceed() {
        let (svc, clock) = manual_service(Box::new(flat(50, 4, 3)), 16);
        let q = queries(1, 4, 4)[0].clone();
        let t = svc.submit(q, 2, Some(Duration::from_nanos(100))).unwrap();
        clock.advance_ns(100); // waited == deadline: still in budget
        svc.pump();
        assert!(t.wait().is_ok(), "waited == deadline must be served, not shed");
        assert_eq!(svc.stats().shed, 0);
    }

    #[test]
    fn shed_requests_never_touch_the_index() {
        let (ix, scanned) = CountingIndex::over(flat(100, 4, 5));
        let (svc, clock) = manual_service(ix, 64);
        let q = queries(10, 4, 6);
        // 7 requests already past deadline at dispatch, 3 alive.
        for v in &q[..7] {
            svc.submit(v.clone(), 3, Some(Duration::from_nanos(10))).unwrap();
        }
        for v in &q[7..] {
            svc.submit(v.clone(), 3, None).unwrap();
        }
        clock.advance_ns(1_000);
        svc.pump();
        assert_eq!(
            scanned.load(Ordering::SeqCst),
            3,
            "a shed request must contribute zero queries to the scan"
        );
        let s = svc.stats();
        assert_eq!((s.shed, s.served), (7, 3));
    }

    #[test]
    fn full_queue_rejects_with_overloaded_and_counts_it() {
        let (svc, _clock) = manual_service(Box::new(flat(50, 4, 7)), 2);
        let q = queries(3, 4, 8);
        svc.submit(q[0].clone(), 1, None).unwrap();
        svc.submit(q[1].clone(), 1, None).unwrap();
        assert_eq!(svc.submit(q[2].clone(), 1, None).err(), Some(ServeError::Overloaded));
        let s = svc.stats();
        assert_eq!((s.submitted, s.rejected), (3, 1));
        // Draining frees the queue for new admissions, and the rejected
        // request closes the books next to the two served ones.
        svc.pump();
        assert!(svc.stats().accounting_closes(), "{:?}", svc.stats());
        assert!(svc.submit(q[2].clone(), 1, None).is_ok());
    }

    #[test]
    fn bad_requests_are_refused_before_admission() {
        let (svc, _clock) = manual_service(Box::new(flat(50, 4, 9)), 16);
        assert!(matches!(svc.submit(vec![0.0; 3], 1, None), Err(ServeError::BadRequest(_))));
        assert!(matches!(svc.submit(vec![0.0; 4], 0, None), Err(ServeError::BadRequest(_))));
        assert_eq!(svc.stats().submitted, 0, "refused requests never count as submitted");
    }

    #[test]
    fn coalesced_batches_match_direct_single_query_search() {
        // The bitwise guarantee, across manual mode and several pool
        // sizes: whatever batches form, every response equals a direct
        // `search` on the same index.
        let dim = 8;
        let reference = flat(300, dim, 10);
        let qs = queries(97, dim, 11);
        let ks: Vec<usize> = (0..qs.len()).map(|i| 1 + i % 7).collect();
        let expected: Vec<Vec<Hit>> =
            qs.iter().zip(&ks).map(|(q, &k)| reference.search(q, k)).collect();
        for workers in [0usize, 1, 2, 4] {
            let svc = QueryService::new(
                Box::new(flat(300, dim, 10)),
                ServeConfig {
                    queue_capacity: 128,
                    batch_max: 16,
                    workers,
                    default_deadline: None,
                    ..ServeConfig::default()
                },
            );
            let tickets: Vec<Ticket> =
                qs.iter().zip(&ks).map(|(q, &k)| svc.submit(q.clone(), k, None).unwrap()).collect();
            if workers == 0 {
                svc.pump();
            }
            let stats = svc.shutdown();
            assert_eq!(stats.served, qs.len() as u64);
            assert!(stats.accounting_closes(), "{stats:?}");
            for (i, t) in tickets.into_iter().enumerate() {
                let resp = t.wait().unwrap();
                assert_eq!(resp.hits.len(), expected[i].len(), "query {i}, {workers} workers");
                for (got, want) in resp.hits.iter().zip(&expected[i]) {
                    assert_eq!(got.id, want.id, "query {i}, {workers} workers");
                    assert_eq!(
                        got.distance.to_bits(),
                        want.distance.to_bits(),
                        "query {i}, {workers} workers: distance not bitwise identical"
                    );
                }
            }
        }
    }

    #[test]
    fn concurrent_submitters_each_get_their_own_bitwise_answer() {
        // Many producers on one admission queue: every client thread's
        // requests are delivered, served, and answered with exactly its
        // own query's direct `search`, however the submits interleave.
        let dim = 8;
        let reference = flat(200, dim, 30);
        let svc = QueryService::new(
            Box::new(flat(200, dim, 30)),
            ServeConfig {
                queue_capacity: 128,
                batch_max: 8,
                workers: 2,
                default_deadline: None,
                ..ServeConfig::default()
            },
        );
        std::thread::scope(|s| {
            for client in 0..4u64 {
                let (svc, reference) = (&svc, &reference);
                s.spawn(move || {
                    let qs = queries(25, dim, 31 + client);
                    let tickets: Vec<Ticket> =
                        qs.iter().map(|q| svc.submit(q.clone(), 3, None).unwrap()).collect();
                    for (q, t) in qs.iter().zip(tickets) {
                        let got = t.wait().unwrap().hits;
                        let want = reference.search(q, 3);
                        assert_eq!(got.len(), want.len(), "client {client}");
                        for (g, w) in got.iter().zip(&want) {
                            assert_eq!((g.id, g.distance.to_bits()), (w.id, w.distance.to_bits()));
                        }
                    }
                });
            }
        });
        let stats = svc.shutdown();
        assert_eq!(stats.served, 100);
        assert!(stats.accounting_closes(), "{stats:?}");
    }

    #[test]
    fn shutdown_drains_the_queue_before_returning() {
        let svc = QueryService::new(
            Box::new(flat(100, 4, 12)),
            ServeConfig {
                queue_capacity: 64,
                batch_max: 8,
                workers: 2,
                default_deadline: None,
                ..ServeConfig::default()
            },
        );
        let tickets: Vec<Ticket> =
            queries(40, 4, 13).into_iter().map(|q| svc.submit(q, 5, None).unwrap()).collect();
        let stats = svc.shutdown();
        assert_eq!(stats.served + stats.shed, 40, "every admitted request resolves");
        for t in tickets {
            assert!(t.wait().is_ok());
        }
    }

    #[test]
    fn submit_after_shutdown_reports_shutdown() {
        let (svc, _clock) = manual_service(Box::new(flat(20, 4, 14)), 8);
        // Shutdown consumes the service; emulate a racing submitter by
        // checking the accounting invariant instead on a fresh service.
        let stats = svc.shutdown();
        assert_eq!(stats.submitted, stats.served + stats.shed + stats.rejected);
    }

    #[test]
    fn batch_max_bounds_every_search_batch_call() {
        let (svc, _clock) = manual_service(Box::new(flat(100, 4, 15)), 64);
        // 10 distinct queries, batch_max 64 → manual pump coalesces all
        // ten into one batch (single k), so exactly one scan call.
        for q in queries(10, 4, 16) {
            svc.submit(q, 3, None).unwrap();
        }
        svc.pump();
        assert_eq!(svc.stats().batches, 1, "one k-group, one coalesced scan");
    }

    #[test]
    fn repeat_queries_hit_the_cache_and_skip_the_scan() {
        let (ix, scanned) = CountingIndex::over(flat(200, 4, 17));
        let (svc, _clock) = manual_service(ix, 64);
        let q = queries(1, 4, 18)[0].clone();
        let first = svc.submit(q.clone(), 5, None).unwrap();
        svc.pump();
        let t2 = svc.submit(q.clone(), 5, None).unwrap();
        let t3 = svc.submit(q.clone(), 5, None).unwrap();
        svc.pump();
        let want = first.wait().unwrap().hits;
        for t in [t2, t3] {
            let got = t.wait().unwrap().hits;
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!((g.id, g.distance.to_bits()), (w.id, w.distance.to_bits()));
            }
        }
        assert_eq!(scanned.load(Ordering::SeqCst), 1, "repeats must not rescan");
        let s = svc.stats();
        assert_eq!((s.scanned, s.hits, s.coalesced), (1, 2, 0));
        assert!(s.accounting_closes());
        // Same bits at a different k is a different key: it rescans.
        svc.submit(q, 4, None).unwrap();
        svc.pump();
        assert_eq!(scanned.load(Ordering::SeqCst), 2, "k participates in the cache key");
    }

    #[test]
    fn in_batch_duplicates_collapse_to_one_scan_even_without_a_cache() {
        let (ix, scanned) = CountingIndex::over(flat(200, 4, 19));
        let clock = Arc::new(ManualClock::new());
        let svc =
            QueryService::with_clock(ix, ServeConfig { cache_entries: 0, ..manual_cfg(64) }, clock);
        let q = queries(1, 4, 20)[0].clone();
        let tickets: Vec<Ticket> =
            (0..5).map(|_| svc.submit(q.clone(), 3, None).unwrap()).collect();
        svc.pump();
        assert_eq!(scanned.load(Ordering::SeqCst), 1, "five identical requests, one scan");
        let want = flat(200, 4, 19).search(&q, 3);
        for t in tickets {
            let got = t.wait().unwrap().hits;
            assert_eq!(got, want);
        }
        let s = svc.stats();
        assert_eq!((s.served, s.scanned, s.hits, s.coalesced), (5, 1, 0, 4));
        assert!(s.accounting_closes());
        // With the cache off, the next identical query rescans.
        svc.submit(q, 3, None).unwrap();
        svc.pump();
        assert_eq!(scanned.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn serving_a_sharded_index_surfaces_shard_probe_counters() {
        let dim = 4;
        let mut rng = StdRng::seed_from_u64(31);
        let rows: Vec<f32> = (0..60 * dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let sharded = IndexSpec::Flat.sharded(3).build(&rows, dim, Metric::L2);
        let (svc, _clock) = manual_service(sharded, 64);
        assert_eq!(svc.stats().shard_probes, 0);
        for q in queries(5, dim, 32) {
            svc.submit(q, 4, None).unwrap();
        }
        svc.pump();
        let s = svc.stats();
        assert!(s.accounting_closes());
        assert_eq!(s.served, 5);
        assert_eq!(s.shard_probes, 15, "5 queries fanned to 3 shards");
        assert_eq!(s.hedges_fired, 0, "local shards never hedge");
        let snap = svc.shard_stats().expect("sharded index exposes per-shard stats");
        assert_eq!(snap.shards.len(), 3);
        assert!((snap.imbalance() - 1.0).abs() < 1e-12);

        // Hot-swapping an unsharded index removes the fan-out: the
        // shard columns read zero again, the serve counters persist.
        svc.install_index(Box::new(flat(60, dim, 33))).unwrap();
        let s = svc.stats();
        assert_eq!(s.served, 5);
        assert_eq!(s.shard_probes, 0);
        assert!(svc.shard_stats().is_none());
    }

    #[test]
    fn install_index_bumps_the_generation_and_the_next_repeat_rescans() {
        let (ix, scanned_a) = CountingIndex::over(flat(120, 4, 21));
        let (svc, _clock) = manual_service(ix, 64);
        let q = queries(1, 4, 22)[0].clone();
        svc.submit(q.clone(), 5, None).unwrap();
        svc.pump();
        svc.submit(q.clone(), 5, None).unwrap();
        svc.pump();
        assert_eq!(scanned_a.load(Ordering::SeqCst), 1, "second request is a cache hit");
        assert_eq!(svc.stats().hits, 1);
        assert_eq!(svc.generation(), 0);

        // Hot-swap to an index with *different* contents.
        let (replacement, scanned_b) = CountingIndex::over(flat(120, 4, 23));
        let truth_after: Vec<Hit> = {
            let reference = flat(120, 4, 23);
            reference.search(&q, 5)
        };
        scanned_b.store(0, Ordering::SeqCst);
        svc.install_index(replacement).unwrap();
        assert_eq!(svc.generation(), 1, "install_index bumps the generation");

        let t = svc.submit(q.clone(), 5, None).unwrap();
        svc.pump();
        let got = t.wait().unwrap().hits;
        assert_eq!(scanned_b.load(Ordering::SeqCst), 1, "post-swap repeat must rescan");
        assert_eq!(got.len(), truth_after.len());
        for (g, w) in got.iter().zip(&truth_after) {
            assert_eq!(
                (g.id, g.distance.to_bits()),
                (w.id, w.distance.to_bits()),
                "post-swap response must come from the NEW index, never the stale cache"
            );
        }
        let s = svc.stats();
        assert_eq!(s.invalidations, 1, "the stale entry was removed on discovery");
        assert_eq!(s.hits, 1, "no hit was served across the swap");
        assert!(s.accounting_closes());
    }

    #[test]
    fn install_index_rejects_a_dimension_mismatch() {
        let (svc, _clock) = manual_service(Box::new(flat(50, 4, 24)), 16);
        let wrong = Box::new(flat(50, 6, 24));
        assert!(matches!(svc.install_index(wrong), Err(ServeError::BadRequest(_))));
        assert_eq!(svc.generation(), 0, "a rejected install must not bump the generation");
    }

    #[test]
    fn refresh_invalidates_the_cache_and_serves_the_new_rows() {
        let dim = 4;
        let mut rows: Vec<f32> = vec![0.0; 10 * dim];
        for (i, r) in rows.chunks_mut(dim).enumerate() {
            r[0] = i as f32;
        }
        let mut ix = FlatIndex::new(dim, Metric::L2);
        ix.add_batch(&rows);
        let (svc, _clock) = manual_service(Box::new(ix), 16);
        let q = vec![0.25f32, 0.0, 0.0, 0.0];
        let t = svc.submit(q.clone(), 1, None).unwrap();
        svc.pump();
        assert_eq!(t.wait().unwrap().hits[0].id, 0);

        // Overwrite row 3 to sit exactly on the query point.
        rows[3 * dim] = 0.25;
        assert!(svc.refresh(&rows, &[3]));
        assert_eq!(svc.generation(), 1, "an applied refresh bumps the generation");
        let t = svc.submit(q.clone(), 1, None).unwrap();
        svc.pump();
        let hit = t.wait().unwrap().hits[0];
        assert_eq!((hit.id, hit.distance), (3, 0.0), "the refreshed row must be served");

        // A no-op refresh (nothing changed, nothing appended) must not
        // invalidate the cache.
        assert!(svc.refresh(&rows, &[]));
        assert_eq!(svc.generation(), 1, "a no-op refresh leaves the generation alone");
        let t = svc.submit(q, 1, None).unwrap();
        svc.pump();
        assert!(t.wait().is_ok());
        assert_eq!(svc.stats().hits, 1, "the cached entry survived the no-op refresh");
    }

    #[test]
    fn knob_changes_bump_the_generation_only_when_applied() {
        let dim = 4;
        let mut rng = StdRng::seed_from_u64(25);
        let rows: Vec<f32> = (0..300 * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let spec = IndexSpec::IvfFlat(IvfParams { nlist: 8, nprobe: 8, ..Default::default() });
        let (svc, _clock) = manual_service(spec.build(&rows, dim, Metric::L2), 16);
        let q: Vec<f32> = rows[..dim].to_vec();
        svc.submit(q.clone(), 3, None).unwrap();
        svc.pump();
        assert!(svc.set_knob(Knob::Nprobe, 2), "IVF index must accept the probe-width knob");
        assert_eq!(svc.generation(), 1);
        assert!(!svc.set_knob(Knob::EfSearch, 10), "IVF has no beam knob");
        assert_eq!(svc.generation(), 1, "a refused knob must not bump the generation");
        // The retuned width is what the rescan sees.
        let t = svc.submit(q.clone(), 3, None).unwrap();
        svc.pump();
        let narrow = {
            let mut reference = spec.build(&rows, dim, Metric::L2);
            reference.set_knob(Knob::Nprobe, 2);
            reference.search(&q, 3)
        };
        assert_eq!(t.wait().unwrap().hits, narrow);
        assert_eq!(svc.stats().hits, 0, "the pre-retune entry was never served");
    }

    #[test]
    fn eviction_churn_at_tiny_capacity_stays_correct() {
        let dim = 4;
        let reference = flat(150, dim, 26);
        let clock = Arc::new(ManualClock::new());
        let svc = QueryService::with_clock(
            Box::new(flat(150, dim, 26)),
            ServeConfig { cache_entries: 2, cache_bytes: 0, ..manual_cfg(256) },
            clock,
        );
        let qs = queries(12, dim, 27);
        // Three passes over 12 distinct queries through a 2-entry cache:
        // heavy eviction churn, every response still bitwise exact.
        for _pass in 0..3 {
            let tickets: Vec<(usize, Ticket)> = qs
                .iter()
                .enumerate()
                .map(|(i, q)| (i, svc.submit(q.clone(), 4, None).unwrap()))
                .collect();
            svc.pump();
            for (i, t) in tickets {
                let got = t.wait().unwrap().hits;
                let want = reference.search(&qs[i], 4);
                assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!((g.id, g.distance.to_bits()), (w.id, w.distance.to_bits()));
                }
            }
        }
        let s = svc.stats();
        assert!(s.evictions > 0, "a 2-entry cache under 12 keys must evict: {s:?}");
        assert!(s.accounting_closes(), "{s:?}");
    }

    #[test]
    fn a_tiny_byte_budget_disables_caching_but_not_correctness() {
        let (ix, scanned) = CountingIndex::over(flat(100, 4, 28));
        let clock = Arc::new(ManualClock::new());
        let svc = QueryService::with_clock(
            ix,
            ServeConfig { cache_entries: 64, cache_bytes: 1, ..manual_cfg(64) },
            clock,
        );
        let q = queries(1, 4, 29)[0].clone();
        for _ in 0..3 {
            let t = svc.submit(q.clone(), 2, None).unwrap();
            svc.pump();
            assert!(t.wait().is_ok());
        }
        assert_eq!(scanned.load(Ordering::SeqCst), 3, "nothing fits the byte budget");
        let s = svc.stats();
        assert_eq!((s.hits, s.scanned), (0, 3));
        assert!(s.accounting_closes());
    }
}
