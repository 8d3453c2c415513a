//! Sharded, bounded LRU result cache for the serving hot path.
//!
//! Under the zipfian skew the load harness drives (a few hot queries
//! dominate), every repeated query used to pay a full `search_batch`
//! scan. [`ResultCache`] turns those repeats into O(1) hits:
//!
//! * **Keying.** An entry is keyed by the *bit pattern* of the query
//!   (`f32::to_bits`, so `-0.0` and `NaN` payloads key distinctly), the
//!   requested `k`, and the serving **generation** — the counter
//!   [`crate::QueryService`] bumps on every index mutation. Lookups hash
//!   `(bits, k)` into a shard, then run **full bitwise key
//!   verification** against the stored query: a 64-bit hash collision
//!   must never serve another query's neighbours, so a mismatched entry
//!   reports a miss, never a hit.
//! * **Invalidation.** The generation rides in each entry, not in the
//!   hash, so a mutation invalidates the whole cache in O(1) — the next
//!   lookup of a stale entry removes it and reports
//!   [`CacheLookup::Stale`] (surfaced as the `invalidations` counter);
//!   no sweep ever runs on the hot path.
//! * **Bounds.** Capacity is enforced per shard in both entries and
//!   approximate bytes; eviction is least-recently-used. An entry larger
//!   than a shard's whole byte budget is not cached at all.
//!
//! The cache is divided into independently locked shards (selected by
//! key hash) so concurrent dispatch workers do not serialize on one
//! mutex.

use dial_ann::snapshot::{fnv1a64, FNV_BASIS};
use dial_ann::Hit;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Sentinel for "no neighbour" in the intrusive LRU list.
const NIL: usize = usize::MAX;

/// Approximate fixed per-entry overhead (slab slot, map entry, Vec
/// headers) charged against the byte budget on top of the payload.
const ENTRY_OVERHEAD: usize = 96;

/// FNV-1a 64 over the query's f32 bit patterns and `k` — the shard/bucket
/// key. Never trusted alone: every hit is verified bitwise against the
/// stored query (see the module docs).
pub fn key_hash(query: &[f32], k: usize) -> u64 {
    let h = query.iter().fold(FNV_BASIS, |h, x| fnv1a64(h, &x.to_bits().to_le_bytes()));
    fnv1a64(h, &(k as u64).to_le_bytes())
}

/// Bit-pattern equality of two query vectors (`to_bits`, not `==`): the
/// verification step of every cache hit and every coalescing match.
pub fn bits_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Outcome of one cache probe.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheLookup {
    /// Verified hit at the current generation: the stored hit list,
    /// bitwise identical to the scan that populated it.
    Hit(Vec<Hit>),
    /// An entry matched bitwise but carried an older generation; it has
    /// been removed (the lazy half of O(1) invalidation).
    Stale,
    /// No entry, or a hash collision whose stored query failed bitwise
    /// verification.
    Miss,
}

struct Entry {
    hash: u64,
    query: Arc<[f32]>,
    k: usize,
    gen: u64,
    hits: Vec<Hit>,
    bytes: usize,
    prev: usize,
    next: usize,
}

fn entry_bytes(query: &[f32], hits: &[Hit]) -> usize {
    std::mem::size_of_val(query) + std::mem::size_of_val(hits) + ENTRY_OVERHEAD
}

/// One independently locked LRU segment: hash → slab slot, plus an
/// intrusive recency list threaded through the slab.
struct Shard {
    map: HashMap<u64, usize>,
    slab: Vec<Option<Entry>>,
    free: Vec<usize>,
    /// Most-recently used entry.
    head: usize,
    /// Least-recently used entry — the eviction end.
    tail: usize,
    len: usize,
    bytes: usize,
    max_entries: usize,
    max_bytes: usize,
}

impl Shard {
    fn new(max_entries: usize, max_bytes: usize) -> Self {
        Shard {
            map: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            len: 0,
            bytes: 0,
            max_entries,
            max_bytes,
        }
    }

    fn unlink(&mut self, i: usize) {
        let (p, n) = {
            let e = self.slab[i].as_ref().expect("linked entry");
            (e.prev, e.next)
        };
        match p {
            NIL => self.head = n,
            _ => self.slab[p].as_mut().expect("prev entry").next = n,
        }
        match n {
            NIL => self.tail = p,
            _ => self.slab[n].as_mut().expect("next entry").prev = p,
        }
    }

    fn push_front(&mut self, i: usize) {
        {
            let e = self.slab[i].as_mut().expect("slab entry");
            e.prev = NIL;
            e.next = self.head;
        }
        if self.head != NIL {
            self.slab[self.head].as_mut().expect("old head").prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn remove(&mut self, i: usize) -> Entry {
        self.unlink(i);
        let e = self.slab[i].take().expect("slab entry");
        self.map.remove(&e.hash);
        self.bytes -= e.bytes;
        self.len -= 1;
        self.free.push(i);
        e
    }

    fn lookup(&mut self, hash: u64, query: &[f32], k: usize, gen: u64) -> CacheLookup {
        let Some(&i) = self.map.get(&hash) else { return CacheLookup::Miss };
        {
            let e = self.slab[i].as_ref().expect("mapped entry");
            // Full bitwise key verification: a hash collision must never
            // serve another query's neighbours.
            if e.k != k || !bits_eq(&e.query, query) {
                return CacheLookup::Miss;
            }
            if e.gen != gen {
                self.remove(i);
                return CacheLookup::Stale;
            }
        }
        self.unlink(i);
        self.push_front(i);
        CacheLookup::Hit(self.slab[i].as_ref().expect("touched entry").hits.clone())
    }

    fn insert(&mut self, hash: u64, query: Arc<[f32]>, k: usize, gen: u64, hits: Vec<Hit>) -> u64 {
        // Replace whatever occupies the bucket (a stale survivor or a
        // colliding entry) — last scan wins.
        if let Some(&i) = self.map.get(&hash) {
            self.remove(i);
        }
        let bytes = entry_bytes(&query, &hits);
        if bytes > self.max_bytes || self.max_entries == 0 {
            // The entry alone blows the shard budget: caching it would
            // just evict everything else for one resident.
            return 0;
        }
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slab.push(None);
            self.slab.len() - 1
        });
        self.map.insert(hash, slot);
        self.bytes += bytes;
        self.len += 1;
        self.slab[slot] = Some(Entry { hash, query, k, gen, hits, bytes, prev: NIL, next: NIL });
        self.push_front(slot);
        let mut evicted = 0;
        while self.len > self.max_entries || self.bytes > self.max_bytes {
            let t = self.tail;
            if t == NIL {
                break;
            }
            self.remove(t);
            evicted += 1;
        }
        evicted
    }
}

/// The serving-side result cache (see the module docs). All methods take
/// `&self`; sharded interior locking keeps concurrent dispatch workers
/// out of each other's way.
pub struct ResultCache {
    shards: Vec<Mutex<Shard>>,
    /// `shards.len() - 1`; shard count is a power of two.
    mask: usize,
}

impl ResultCache {
    /// A cache bounded at `max_entries` entries and `max_bytes`
    /// approximate bytes (0 = no byte bound) across all shards. Small
    /// caches collapse to one shard so per-shard capacities stay
    /// meaningful.
    pub fn new(max_entries: usize, max_bytes: usize) -> Self {
        let n = if max_entries >= 64 { 8 } else { 1 };
        let per_entries = max_entries.div_ceil(n).max(1);
        let per_bytes = if max_bytes == 0 { usize::MAX } else { max_bytes.div_ceil(n) };
        ResultCache {
            shards: (0..n).map(|_| Mutex::new(Shard::new(per_entries, per_bytes))).collect(),
            mask: n - 1,
        }
    }

    fn shard(&self, hash: u64) -> &Mutex<Shard> {
        &self.shards[(hash as usize) & self.mask]
    }

    /// Probe with a precomputed [`key_hash`] (the dispatch path computes
    /// the hash once and shares it with the coalescing table).
    pub fn lookup_hashed(&self, hash: u64, query: &[f32], k: usize, gen: u64) -> CacheLookup {
        self.shard(hash).lock().unwrap().lookup(hash, query, k, gen)
    }

    /// Probe for `query`'s top-`k` at generation `gen`.
    pub fn lookup(&self, query: &[f32], k: usize, gen: u64) -> CacheLookup {
        self.lookup_hashed(key_hash(query, k), query, k, gen)
    }

    /// Store a scan result under a precomputed [`key_hash`]; returns how
    /// many entries were evicted to make room.
    pub fn insert_hashed(
        &self,
        hash: u64,
        query: Arc<[f32]>,
        k: usize,
        gen: u64,
        hits: Vec<Hit>,
    ) -> u64 {
        self.shard(hash).lock().unwrap().insert(hash, query, k, gen, hits)
    }

    /// Store a scan result; returns how many entries were evicted.
    pub fn insert(&self, query: Arc<[f32]>, k: usize, gen: u64, hits: Vec<Hit>) -> u64 {
        self.insert_hashed(key_hash(&query, k), query, k, gen, hits)
    }

    /// Resident entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate resident bytes across all shards.
    pub fn bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(vals: &[f32]) -> Arc<[f32]> {
        Arc::from(vals.to_vec())
    }

    fn hits(ids: &[u32]) -> Vec<Hit> {
        ids.iter().map(|&id| Hit { id, distance: id as f32 * 0.5 }).collect()
    }

    #[test]
    fn hit_returns_the_stored_list_and_miss_reports_absence() {
        let c = ResultCache::new(8, 0);
        assert_eq!(c.lookup(&[1.0, 2.0], 3, 0), CacheLookup::Miss);
        c.insert(q(&[1.0, 2.0]), 3, 0, hits(&[4, 7]));
        assert_eq!(c.lookup(&[1.0, 2.0], 3, 0), CacheLookup::Hit(hits(&[4, 7])));
        // Same bits, different k: a different key entirely.
        assert_eq!(c.lookup(&[1.0, 2.0], 4, 0), CacheLookup::Miss);
        // Different bits (negative zero), same hash path: distinct key.
        assert_eq!(c.lookup(&[1.0, -0.0], 3, 0), CacheLookup::Miss);
    }

    #[test]
    fn hash_collision_never_serves_another_querys_neighbours() {
        // Force two different queries onto the same bucket by reusing
        // one hash: the bitwise verification must answer Miss, and a
        // later insert under the same hash must replace, not corrupt.
        let c = ResultCache::new(8, 0);
        let h = key_hash(&[1.0, 2.0], 3);
        c.insert_hashed(h, q(&[1.0, 2.0]), 3, 0, hits(&[1]));
        assert_eq!(
            c.lookup_hashed(h, &[9.0, 9.0], 3, 0),
            CacheLookup::Miss,
            "colliding query with different bits must miss"
        );
        c.insert_hashed(h, q(&[9.0, 9.0]), 3, 0, hits(&[2]));
        assert_eq!(c.lookup_hashed(h, &[9.0, 9.0], 3, 0), CacheLookup::Hit(hits(&[2])));
        assert_eq!(
            c.lookup_hashed(h, &[1.0, 2.0], 3, 0),
            CacheLookup::Miss,
            "the replaced entry is gone, not served"
        );
        assert_eq!(c.len(), 1, "replacement reuses the bucket");
    }

    #[test]
    fn generation_mismatch_is_stale_and_removes_the_entry() {
        let c = ResultCache::new(8, 0);
        c.insert(q(&[1.0]), 2, 7, hits(&[3]));
        assert_eq!(c.lookup(&[1.0], 2, 8), CacheLookup::Stale);
        assert_eq!(c.len(), 0, "a stale entry is removed on discovery");
        assert_eq!(c.lookup(&[1.0], 2, 8), CacheLookup::Miss, "second probe is a plain miss");
    }

    #[test]
    fn eviction_is_least_recently_used_in_entry_bound() {
        let c = ResultCache::new(2, 0);
        c.insert(q(&[1.0]), 1, 0, hits(&[1]));
        c.insert(q(&[2.0]), 1, 0, hits(&[2]));
        // Touch [1.0] so [2.0] is the LRU victim.
        assert!(matches!(c.lookup(&[1.0], 1, 0), CacheLookup::Hit(_)));
        let evicted = c.insert(q(&[3.0]), 1, 0, hits(&[3]));
        assert_eq!(evicted, 1);
        assert!(matches!(c.lookup(&[1.0], 1, 0), CacheLookup::Hit(_)));
        assert_eq!(c.lookup(&[2.0], 1, 0), CacheLookup::Miss, "LRU entry was evicted");
        assert!(matches!(c.lookup(&[3.0], 1, 0), CacheLookup::Hit(_)));
    }

    #[test]
    fn byte_bound_evicts_and_oversized_entries_are_not_cached() {
        // Budget fits roughly one small entry.
        let small = entry_bytes(&[0.0f32; 2], &hits(&[1]));
        let c = ResultCache::new(16, small + 8);
        c.insert(q(&[1.0, 2.0]), 1, 0, hits(&[1]));
        assert_eq!(c.len(), 1);
        // A second small entry blows the byte budget: LRU eviction.
        let evicted = c.insert(q(&[3.0, 4.0]), 1, 0, hits(&[2]));
        assert_eq!(evicted, 1);
        assert_eq!(c.lookup(&[1.0, 2.0], 1, 0), CacheLookup::Miss);
        // An entry bigger than the whole budget is skipped outright.
        let big_q = q(&vec![0.5f32; 4096]);
        assert_eq!(c.insert(big_q, 1, 0, hits(&[3])), 0);
        assert_eq!(c.lookup(&vec![0.5f32; 4096], 1, 0), CacheLookup::Miss);
        assert!(matches!(c.lookup(&[3.0, 4.0], 1, 0), CacheLookup::Hit(_)), "resident survives");
        assert!(c.bytes() <= small + 8);
    }

    #[test]
    fn churn_recycles_slab_slots() {
        let c = ResultCache::new(2, 0);
        for i in 0..100 {
            c.insert(q(&[i as f32]), 1, 0, hits(&[i]));
        }
        assert_eq!(c.len(), 2);
        let shard = c.shards[0].lock().unwrap();
        assert!(shard.slab.len() <= 3, "evicted slots are reused, not leaked");
    }

    #[test]
    fn key_hash_covers_bits_and_k() {
        assert_ne!(key_hash(&[1.0], 1), key_hash(&[1.0], 2));
        assert_ne!(key_hash(&[0.0], 1), key_hash(&[-0.0], 1));
        assert_eq!(key_hash(&[1.5, 2.5], 3), key_hash(&[1.5, 2.5], 3));
    }

    #[test]
    fn key_hash_values_are_pinned() {
        // Shard placement and the serving benchmarks key through these
        // exact values; a hashing refactor must not move them.
        assert_eq!(key_hash(&[1.0, -2.5, 0.25], 10), 0xb889_d609_73fc_f968);
        assert_eq!(key_hash(&[-0.0, 0.0, 3.5], 1), 0x7c6a_f074_230a_e5b4);
    }
}
