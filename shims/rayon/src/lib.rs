//! Offline stand-in for `rayon`: it mirrors exactly the rayon subset this
//! workspace calls — `par_iter`, `par_chunks`, `into_par_iter`, the
//! `map` / `filter` / `flat_map_iter` / `zip` adapters, `collect`, and
//! `current_num_threads` / `set_num_threads` — as *lazily fused*
//! pipelines executed chunk-wise on scoped `std::thread` workers. Nothing
//! beyond that subset is carried: an adapter with no caller is deleted,
//! not kept in reserve. Bounded channels (the engine's build/probe
//! pipeline, the serving admission queue) are
//! `std::sync::mpsc::sync_channel`, not part of this crate.
//!
//! Unlike the first-generation shim (which evaluated every adapter eagerly
//! and materialized a `Vec` between stages), adapters here build a fused
//! pipeline: `par_iter().map(f).filter(p).map(g)` composes one per-item
//! function and nothing runs until the terminal `collect` drives it.
//!
//! Execution is a **work-stealing chunk queue**: the source index range is
//! cut into many fixed-size half-open chunks ([`CHUNKS_PER_THREAD`] per
//! worker), and `min(available_parallelism, n)` scoped threads *claim*
//! chunks from a shared atomic cursor instead of being statically assigned
//! one contiguous range each. A worker stuck on an expensive chunk (a
//! heavy HNSW shard build, an oversized IVF list, one slow probe) no
//! longer strands the untouched remainder of "its" range — idle workers
//! drain the queue behind it. Each chunk's result lands in a dedicated
//! slot and the results are combined **in chunk order** after all workers
//! join. Chunk boundaries depend only on `n` and the worker count, never
//! on timing, so output order is preserved for a fixed `(n, thread
//! count)` — run-to-run and machine-to-machine.
//!
//! `RAYON_NUM_THREADS` overrides the worker count; `1` forces sequential
//! execution.

#![deny(clippy::undocumented_unsafe_blocks)]

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, ParIter, ParallelSlice};
}

/// The worker count, resolved once: a [`set_num_threads`] call wins,
/// then the env override, then `available_parallelism`.
static THREADS: OnceLock<usize> = OnceLock::new();

/// Worker count: env override or `available_parallelism`.
pub fn current_num_threads() -> usize {
    *THREADS.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
    })
}

/// Pin the worker count programmatically (the `repro --threads=N` flag),
/// overriding `RAYON_NUM_THREADS`. The count is resolved once for the
/// process lifetime, so this must run before the first parallel
/// operation reads it; `n` is clamped to at least 1.
/// Returns the count now in force — equal to `n` when the call landed in
/// time, the previously resolved count when it came too late.
pub fn set_num_threads(n: usize) -> usize {
    let n = n.max(1);
    *THREADS.get_or_init(|| n)
}

/// A lazily evaluated, indexed pipeline stage. `pull(i)` produces the item
/// at source index `i` (after all fused transforms), or `None` if a fused
/// `filter` dropped it.
///
/// Contract: the driver pulls each index in `0..len()` **at most once** —
/// indexes are grouped into chunks and the atomic cursor hands every chunk
/// to exactly one worker, so no two threads ever pull the same index.
/// Owned sources rely on this to move items out from behind a shared
/// reference.
pub trait Gen: Sync {
    type Item: Send;

    /// Source length (indexes `0..len()` are pullable).
    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Item at source index `i`, or `None` if filtered out.
    fn pull(&self, i: usize) -> Option<Self::Item>;

    /// `true` when items are already materialized and pulling is trivial,
    /// so the driver should not spin up worker threads just to move them.
    fn cheap(&self) -> bool {
        false
    }
}

/// Borrowed-slice source: items are `&T`.
pub struct SliceSource<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync> Gen for SliceSource<'a, T> {
    type Item = &'a T;
    fn len(&self) -> usize {
        self.items.len()
    }
    fn pull(&self, i: usize) -> Option<&'a T> {
        Some(&self.items[i])
    }
    fn cheap(&self) -> bool {
        true
    }
}

/// Borrowed chunked-slice source (`par_chunks`): items are `&[T]`.
pub struct ChunkSource<'a, T> {
    items: &'a [T],
    size: usize,
}

impl<'a, T: Sync> Gen for ChunkSource<'a, T> {
    type Item = &'a [T];
    fn len(&self) -> usize {
        self.items.len().div_ceil(self.size)
    }
    fn pull(&self, i: usize) -> Option<&'a [T]> {
        let lo = i * self.size;
        Some(&self.items[lo..(lo + self.size).min(self.items.len())])
    }
    fn cheap(&self) -> bool {
        true
    }
}

/// Integer-range source: items computed from the index, nothing stored.
pub struct RangeSource<T> {
    start: i128,
    len: usize,
    _marker: std::marker::PhantomData<T>,
}

/// Owned source: items moved out exactly once at pull time. The `Sync`
/// assertion is sound because the driver's atomic chunk claims give each
/// index to exactly one worker (see [`drive_with`]) and `Option::take`
/// makes a double pull yield `None` rather than a duplicated value.
pub struct OwnedSource<T> {
    cells: Vec<UnsafeCell<Option<T>>>,
}

// SAFETY: each cell is taken by the one worker whose chunk claim covers
// its index (see above); `T: Send` lets the item move to that worker.
unsafe impl<T: Send> Sync for OwnedSource<T> {}

impl<T> OwnedSource<T> {
    fn new(items: Vec<T>) -> Self {
        OwnedSource { cells: items.into_iter().map(|t| UnsafeCell::new(Some(t))).collect() }
    }
}

impl<T: Send> Gen for OwnedSource<T> {
    type Item = T;
    fn len(&self) -> usize {
        self.cells.len()
    }
    fn pull(&self, i: usize) -> Option<T> {
        // SAFETY: the driver's atomic cursor hands each chunk — and so
        // each index — to exactly one worker, so no cell is accessed
        // concurrently.
        unsafe { (*self.cells[i].get()).take() }
    }
    fn cheap(&self) -> bool {
        true
    }
}

/// Fused `map` stage.
pub struct Map<G, F> {
    g: G,
    f: F,
}

impl<G: Gen, R: Send, F: Fn(G::Item) -> R + Sync> Gen for Map<G, F> {
    type Item = R;
    fn len(&self) -> usize {
        self.g.len()
    }
    fn pull(&self, i: usize) -> Option<R> {
        self.g.pull(i).map(&self.f)
    }
}

/// Fused `filter` stage.
pub struct Filter<G, F> {
    g: G,
    f: F,
}

impl<G: Gen, F: Fn(&G::Item) -> bool + Sync> Gen for Filter<G, F> {
    type Item = G::Item;
    fn len(&self) -> usize {
        self.g.len()
    }
    fn pull(&self, i: usize) -> Option<G::Item> {
        self.g.pull(i).filter(|t| (self.f)(t))
    }
}

/// A lazy parallel iterator: a fused pipeline plus the terminal operations
/// that drive it on scoped worker threads.
pub struct ParIter<G: Gen> {
    gen: G,
}

/// Chunks the work queue is cut into, per worker thread. More chunks than
/// workers is what makes stealing possible; eight per worker keeps the
/// per-chunk bookkeeping (one atomic claim, one result slot) negligible
/// while bounding the idle tail behind a skewed chunk to ~1/8 of one
/// worker's share.
const CHUNKS_PER_THREAD: usize = 8;

/// Per-chunk result slots, written by whichever worker claims the chunk.
///
/// Soundness: the atomic cursor hands every chunk index to exactly one
/// worker (`fetch_add` is a unique ticket), so slot writes are disjoint;
/// readers only run after `thread::scope` has joined every worker.
struct Slots<R>(Vec<UnsafeCell<Option<R>>>);

// SAFETY: slot writes are disjoint per claimed chunk and reads follow the
// scope's join (see above); `R: Send` lets results cross threads.
unsafe impl<R: Send> Sync for Slots<R> {}

/// Work-stealing driver core: cut `0..n` into `n_chunks` fixed-size
/// half-open ranges, let `threads` scoped workers claim chunks from a
/// shared atomic cursor, then combine the per-chunk results **in chunk
/// order**. Factored out of [`drive`] (which picks the thread count) so
/// tests can pin `threads` above the machine's core count.
fn drive_with<G: Gen, R: Send>(
    gen: &G,
    threads: usize,
    per_chunk: impl Fn(&G, std::ops::Range<usize>) -> R + Sync,
    mut combine: impl FnMut(R),
) {
    let n = gen.len();
    if threads <= 1 || n < 2 || gen.cheap() {
        combine(per_chunk(gen, 0..n));
        return;
    }
    // Deterministic chunking: a function of (n, threads) only.
    let chunk = n.div_ceil(threads * CHUNKS_PER_THREAD).max(1);
    let n_chunks = n.div_ceil(chunk);
    let slots = Slots((0..n_chunks).map(|_| UnsafeCell::new(None)).collect());
    let cursor = AtomicUsize::new(0);
    let (per_chunk, slots_ref, cursor_ref) = (&per_chunk, &slots, &cursor);
    std::thread::scope(|s| {
        for _ in 0..threads.min(n_chunks) {
            s.spawn(move || loop {
                let i = cursor_ref.fetch_add(1, Ordering::Relaxed);
                if i >= n_chunks {
                    break;
                }
                let range = i * chunk..((i + 1) * chunk).min(n);
                let r = per_chunk(gen, range);
                // SAFETY: chunk index `i` was claimed by this worker
                // alone; see `Slots`.
                unsafe { *slots_ref.0[i].get() = Some(r) };
            });
        }
    });
    for cell in slots.0 {
        combine(cell.into_inner().expect("claimed chunk left no result"));
    }
}

/// Evaluate the pipeline over `0..n` on the work-stealing chunk queue and
/// combine the per-chunk results in chunk order.
fn drive<G: Gen, R: Send>(
    gen: &G,
    per_chunk: impl Fn(&G, std::ops::Range<usize>) -> R + Sync,
    combine: impl FnMut(R),
) {
    let threads = current_num_threads().min(gen.len().max(1));
    drive_with(gen, threads, per_chunk, combine);
}

impl<G: Gen> ParIter<G> {
    /// Evaluate the pipeline, preserving source order of retained items.
    fn run(self) -> Vec<G::Item> {
        let mut out = Vec::with_capacity(self.gen.len());
        drive(
            &self.gen,
            |g, range| range.filter_map(|i| g.pull(i)).collect::<Vec<_>>(),
            |part| out.extend(part),
        );
        out
    }

    /// Wrap already-materialized items as a new (cheap) source.
    fn ready<T: Send>(items: Vec<T>) -> ParIter<OwnedSource<T>> {
        ParIter { gen: OwnedSource::new(items) }
    }

    /// Fuse a transform onto the pipeline (lazy; runs at the terminal op).
    pub fn map<R: Send, F: Fn(G::Item) -> R + Sync>(self, f: F) -> ParIter<Map<G, F>> {
        ParIter { gen: Map { g: self.gen, f } }
    }

    /// Fuse a predicate onto the pipeline (lazy, parallel — unlike the old
    /// eager shim, filtering now rides the same fused chunk pass).
    pub fn filter<F: Fn(&G::Item) -> bool + Sync>(self, f: F) -> ParIter<Filter<G, F>> {
        ParIter { gen: Filter { g: self.gen, f } }
    }

    /// Map each item to a serial iterator and flatten (rayon's
    /// `flat_map_iter`). The expansion is evaluated in the parallel chunk
    /// pass; the flattened items become a new materialized source.
    pub fn flat_map_iter<I, F>(self, f: F) -> ParIter<OwnedSource<I::Item>>
    where
        I: IntoIterator,
        I::Item: Send,
        F: Fn(G::Item) -> I + Sync,
    {
        let nested = self.map(|t| f(t).into_iter().collect::<Vec<_>>()).run();
        Self::ready(nested.into_iter().flatten().collect())
    }

    /// Pair items positionally with another parallel-iterable (rayon `zip`
    /// semantics: truncates to the shorter side). Both sides evaluate
    /// before pairing.
    pub fn zip<Z: IntoParallelIterator>(
        self,
        other: Z,
    ) -> ParIter<OwnedSource<(G::Item, Z::Item)>> {
        let left = self.run();
        let right = other.into_par_iter().run();
        Self::ready(left.into_iter().zip(right).collect())
    }

    /// Evaluate the pipeline and collect in source order.
    pub fn collect<C: FromIterator<G::Item>>(self) -> C {
        self.run().into_iter().collect()
    }
}

/// `par_iter()` over a borrowed collection.
pub trait IntoParallelRefIterator<'a> {
    type Item: Send;
    type Iter: Gen<Item = Self::Item>;
    fn par_iter(&'a self) -> ParIter<Self::Iter>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    type Iter = SliceSource<'a, T>;
    fn par_iter(&'a self) -> ParIter<SliceSource<'a, T>> {
        ParIter { gen: SliceSource { items: self } }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    type Iter = SliceSource<'a, T>;
    fn par_iter(&'a self) -> ParIter<SliceSource<'a, T>> {
        ParIter { gen: SliceSource { items: self } }
    }
}

/// `par_chunks()` over a borrowed slice.
pub trait ParallelSlice<T: Sync> {
    fn par_chunks(&self, size: usize) -> ParIter<ChunkSource<'_, T>>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, size: usize) -> ParIter<ChunkSource<'_, T>> {
        assert!(size > 0, "chunk size must be positive");
        ParIter { gen: ChunkSource { items: self, size } }
    }
}

/// `into_par_iter()` over owned collections and ranges.
pub trait IntoParallelIterator {
    type Item: Send;
    type Iter: Gen<Item = Self::Item>;
    fn into_par_iter(self) -> ParIter<Self::Iter>;
}

impl<G: Gen> IntoParallelIterator for ParIter<G> {
    type Item = G::Item;
    type Iter = G;
    fn into_par_iter(self) -> ParIter<G> {
        self
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = OwnedSource<T>;
    fn into_par_iter(self) -> ParIter<OwnedSource<T>> {
        ParIter { gen: OwnedSource::new(self) }
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a Vec<T> {
    type Item = &'a T;
    type Iter = SliceSource<'a, T>;
    fn into_par_iter(self) -> ParIter<SliceSource<'a, T>> {
        ParIter { gen: SliceSource { items: self } }
    }
}

macro_rules! par_range {
    ($($t:ty),*) => {$(
        impl Gen for RangeSource<$t> {
            type Item = $t;
            fn len(&self) -> usize {
                self.len
            }
            fn pull(&self, i: usize) -> Option<$t> {
                Some((self.start + i as i128) as $t)
            }
            fn cheap(&self) -> bool {
                true
            }
        }

        impl IntoParallelIterator for core::ops::Range<$t> {
            type Item = $t;
            type Iter = RangeSource<$t>;
            fn into_par_iter(self) -> ParIter<RangeSource<$t>> {
                let (start, end) = (self.start as i128, self.end as i128);
                ParIter {
                    gen: RangeSource {
                        start,
                        len: (end - start).max(0) as usize,
                        _marker: std::marker::PhantomData,
                    },
                }
            }
        }
    )*};
}
par_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use crate::Gen;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn set_num_threads_resolves_once_and_agrees_with_current() {
        // The count resolves once per process: whichever of
        // set_num_threads / current_num_threads ran first (tests share
        // the process) fixed it, and every later call sees that value.
        let a = crate::set_num_threads(3);
        let b = crate::set_num_threads(7);
        assert_eq!(a, b, "a second set_num_threads must not change the resolved count");
        assert_eq!(crate::current_num_threads(), a);
        assert!(a >= 1);
    }

    #[test]
    fn map_preserves_order() {
        let v: Vec<u64> = (0..10_000).collect();
        let doubled: Vec<u64> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, (0..10_000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn chunks_and_ranges() {
        let v: Vec<u32> = (0..100).collect();
        let sums: Vec<u32> = v.par_chunks(7).map(|c| c.iter().sum()).collect();
        assert_eq!(sums.len(), 100usize.div_ceil(7));
        assert_eq!(sums.iter().sum::<u32>(), (0..100).sum::<u32>());
        let r: Vec<u32> = (0u32..50).into_par_iter().map(|x| x + 1).collect();
        assert_eq!(r, (1..=50).collect::<Vec<_>>());
    }

    #[test]
    fn filter_and_flat_map() {
        let v: Vec<u32> = (0..20).collect();
        let evens: Vec<u32> = v.par_iter().map(|&x| x).filter(|x| x % 2 == 0).collect();
        assert_eq!(evens, (0..20).filter(|x| x % 2 == 0).collect::<Vec<_>>());
        let expanded: Vec<u32> =
            (0u32..4).into_par_iter().flat_map_iter(|x| vec![x; x as usize]).collect();
        assert_eq!(expanded, vec![1, 2, 2, 3, 3, 3]);
    }

    #[test]
    fn collect_into_hashset() {
        let v: Vec<u32> = (0..100).chain(0..100).collect();
        let set: std::collections::HashSet<u32> = v.par_iter().map(|&x| x).collect();
        assert_eq!(set.len(), 100);
    }

    #[test]
    fn empty_inputs() {
        let v: Vec<u32> = Vec::new();
        let out: Vec<u32> = v.par_iter().map(|&x| x).collect();
        assert!(out.is_empty());
    }

    #[test]
    fn adapters_are_lazy_until_driven() {
        let calls = AtomicUsize::new(0);
        let v: Vec<u32> = (0..64).collect();
        let pipeline = v.par_iter().map(|&x| {
            calls.fetch_add(1, Ordering::SeqCst);
            x * 3
        });
        assert_eq!(calls.load(Ordering::SeqCst), 0, "map ran before the terminal op");
        let out: Vec<u32> = pipeline.collect();
        assert_eq!(calls.load(Ordering::SeqCst), 64);
        assert_eq!(out[10], 30);
    }

    #[test]
    fn fused_map_filter_runs_once_per_item() {
        let maps = AtomicUsize::new(0);
        let keeps = AtomicUsize::new(0);
        let out: Vec<u32> = (0u32..100)
            .into_par_iter()
            .map(|x| {
                maps.fetch_add(1, Ordering::SeqCst);
                x
            })
            .filter(|x| x % 3 == 0)
            .map(|x| {
                keeps.fetch_add(1, Ordering::SeqCst);
                x
            })
            .collect();
        assert_eq!(maps.load(Ordering::SeqCst), 100, "first stage sees every item");
        assert_eq!(keeps.load(Ordering::SeqCst), 34, "post-filter stage sees only survivors");
        assert_eq!(out, (0u32..100).filter(|x| x % 3 == 0).collect::<Vec<_>>());
    }

    #[test]
    fn owned_non_clone_items_move_through_the_pipeline() {
        struct NoClone(String);
        let v: Vec<NoClone> = (0..50).map(|i| NoClone(format!("item-{i}"))).collect();
        let out: Vec<String> = v.into_par_iter().map(|n| n.0).collect();
        assert_eq!(out.len(), 50);
        assert_eq!(out[7], "item-7");
    }

    #[test]
    fn zip_truncates_and_pairs_in_order() {
        let a: Vec<u32> = (0..10).collect();
        let b: Vec<u32> = (100..105).collect();
        let pairs: Vec<(u32, u32)> =
            a.par_iter().map(|&x| x).zip(b.par_iter().map(|&y| y)).collect();
        assert_eq!(pairs, vec![(0, 100), (1, 101), (2, 102), (3, 103), (4, 104)]);
    }

    #[test]
    fn signed_range_sources() {
        let out: Vec<i32> = (-5i32..5).into_par_iter().map(|x| x * 2).collect();
        assert_eq!(out, (-5..5).map(|x| x * 2).collect::<Vec<_>>());
    }

    /// A pipeline whose source is not `cheap()`, so `drive_with` actually
    /// spawns workers (materialized sources short-circuit to sequential).
    fn stealable(n: u32) -> crate::ParIter<impl crate::Gen<Item = u32>> {
        (0..n).into_par_iter().map(|x| x)
    }

    #[test]
    fn work_stealing_drains_the_queue_while_one_chunk_blocks() {
        // 32 items at 4 threads cut into 32 one-item chunks. Item 0 spins
        // until every other item has run. Under the old static
        // partitioning, items 1..7 lived in the *same* worker's range as
        // item 0 and could never run -> deadlock. With chunk stealing the
        // other workers drain the whole queue past the blocked one, so
        // this test terminating at all proves the steal.
        let done = AtomicUsize::new(0);
        let mut out: Vec<Vec<u32>> = Vec::new();
        crate::drive_with(
            &stealable(32).gen,
            4,
            |g, range| {
                range
                    .filter_map(|i| {
                        let v = g.pull(i)?;
                        if v == 0 {
                            while done.load(Ordering::SeqCst) < 31 {
                                std::thread::yield_now();
                            }
                        } else {
                            done.fetch_add(1, Ordering::SeqCst);
                        }
                        Some(v)
                    })
                    .collect::<Vec<_>>()
            },
            |part| out.push(part),
        );
        // Chunk-ordered combine: concatenation is still 0..32 in order.
        let flat: Vec<u32> = out.into_iter().flatten().collect();
        assert_eq!(flat, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn stealing_preserves_order_and_pulls_each_item_once() {
        // More threads than this machine has cores, odd sizes, and a
        // pull-count check: every index claimed exactly once, results in
        // source order regardless of which worker ran which chunk.
        let pulls = AtomicUsize::new(0);
        for threads in [2usize, 3, 7] {
            for n in [2u32, 13, 97, 1000] {
                pulls.store(0, Ordering::SeqCst);
                let pipeline = (0..n).into_par_iter().map(|x| {
                    pulls.fetch_add(1, Ordering::SeqCst);
                    x * 3
                });
                let mut out: Vec<u32> = Vec::new();
                crate::drive_with(
                    &pipeline.gen,
                    threads,
                    |g, range| range.filter_map(|i| g.pull(i)).collect::<Vec<_>>(),
                    |part| out.extend(part),
                );
                assert_eq!(out, (0..n).map(|x| x * 3).collect::<Vec<_>>(), "t={threads} n={n}");
                assert_eq!(pulls.load(Ordering::SeqCst), n as usize, "t={threads} n={n}");
            }
        }
    }

    #[test]
    fn stealing_moves_owned_items_exactly_once() {
        // OwnedSource's UnsafeCell take() relies on disjoint claims; a
        // double pull would surface as a missing (None) item.
        let v: Vec<String> = (0..500).map(|i| format!("s{i}")).collect();
        let pipeline = v.into_par_iter().map(|s| s.len());
        // OwnedSource is cheap() (materialized), so exercise the claim
        // logic through a non-cheap wrapper stage instead.
        let pipeline = pipeline.filter(|_| true);
        let mut total = 0usize;
        crate::drive_with(
            &pipeline.gen,
            5,
            |g, range| range.filter_map(|i| g.pull(i)).count(),
            |part| total += part,
        );
        assert_eq!(total, 500);
    }
}
