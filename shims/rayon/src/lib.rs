//! Offline stand-in for `rayon`: it mirrors exactly the rayon subset this
//! workspace calls — `par_iter`, `par_chunks`, `into_par_iter`, the
//! `map` / `filter` / `flat_map_iter` / `zip` adapters, `collect`, and
//! `current_num_threads` / `set_num_threads` — as *lazily fused*
//! pipelines executed chunk-wise on a pool of parked worker threads.
//! Nothing beyond that subset is carried: an adapter with no caller is
//! deleted, not kept in reserve. Bounded channels (the engine's
//! build/probe pipeline, the serving admission queue) are
//! `std::sync::mpsc::sync_channel`, not part of this crate.
//!
//! Unlike the first-generation shim (which evaluated every adapter eagerly
//! and materialized a `Vec` between stages), adapters here build a fused
//! pipeline: `par_iter().map(f).filter(p).map(g)` composes one per-item
//! function and nothing runs until the terminal `collect` drives it.
//!
//! Execution is a **work-stealing chunk queue**: the source index range is
//! cut into many fixed-size half-open chunks ([`CHUNKS_PER_THREAD`] per
//! thread), and the participants *claim* chunks from a shared atomic
//! cursor instead of being statically assigned one contiguous range each.
//! A participant stuck on an expensive chunk (a heavy HNSW shard build,
//! an oversized IVF list, one slow probe) no longer strands the untouched
//! remainder of "its" range — idle ones drain the queue behind it. Each
//! chunk's result lands in a dedicated slot and the results are combined
//! **in chunk order** once every chunk has finished. Chunk boundaries
//! depend only on `n` and the thread count, never on timing, so output
//! order is preserved for a fixed `(n, thread count)` — run-to-run and
//! machine-to-machine.
//!
//! The participants are the calling thread plus up to `threads − 1`
//! **parked workers**. The pool is created once, lazily, with
//! `current_num_threads() − 1` workers (grown on demand when a caller asks
//! for more), and no thread is created per call after that: a parallel
//! operation publishes its job on the pool's board, wakes that many
//! workers, claims chunks itself, and then waits only for the chunks
//! workers already claimed. A chunk that starts a parallel operation of
//! its own makes its thread that operation's caller, so nesting creates
//! no threads either. A panic in any chunk stops further claims and is
//! resumed on the caller, after every claimed chunk has finished.
//!
//! `RAYON_NUM_THREADS` overrides the thread count; `1` forces sequential
//! execution.

#![deny(clippy::undocumented_unsafe_blocks)]

use std::any::Any;
use std::cell::UnsafeCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{self, Thread};

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
    /// so the driver should not hand them to pool workers just to move them.
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
/// that drive it on the caller and the pool's workers.
pub struct ParIter<G: Gen> {
    gen: G,
}

/// Chunks the work queue is cut into, per worker thread. More chunks than
/// workers is what makes stealing possible; eight per worker keeps the
/// per-chunk bookkeeping (one atomic claim, one result slot) negligible
/// while bounding the idle tail behind a skewed chunk to ~1/8 of one
/// worker's share.
const CHUNKS_PER_THREAD: usize = 8;

/// Per-chunk result slots, written by whichever participant claims the
/// chunk.
///
/// Soundness: the atomic cursor hands every chunk index to exactly one
/// participant (`fetch_add` is a unique ticket), so slot writes are
/// disjoint; readers only run after the caller's wait for every worker
/// in the job (see [`Job::release`]).
struct Slots<R>(Vec<UnsafeCell<Option<R>>>);

// SAFETY: slot writes are disjoint per claimed chunk and reads follow the
// caller's wait (see above); `R: Send` lets results cross threads.
unsafe impl<R: Send> Sync for Slots<R> {}

impl<R> Slots<R> {
    /// Store chunk `i`'s result.
    ///
    /// # Safety
    /// The caller must hold the claim on chunk `i`, so no other thread
    /// touches slot `i` until the job is over.
    unsafe fn put(&self, i: usize, r: R) {
        *self.0[i].get() = Some(r);
    }
}

/// One parallel operation: its chunks, the cursor they are claimed from,
/// and what its caller waits on. It lives on the caller's stack and is
/// reachable by workers only through the pool's board.
struct Job<'a> {
    /// Runs chunk `i` and stores its result in the caller's slot `i`.
    run: &'a (dyn Fn(usize) + Sync + 'a),
    n_chunks: usize,
    cursor: AtomicUsize,
    /// Workers that took a seat in this job and have not released it.
    workers: AtomicUsize,
    /// The first panic any chunk raised.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    caller: Thread,
}

impl Job<'_> {
    /// Claim and run chunks until the cursor runs out. A panicking chunk
    /// is caught, kept if it is the first, and ends all further claims.
    fn work(&self) {
        loop {
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= self.n_chunks {
                return;
            }
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| (self.run)(i))) {
                self.cursor.store(self.n_chunks, Ordering::Relaxed);
                self.panic.lock().unwrap_or_else(PoisonError::into_inner).get_or_insert(payload);
            }
        }
    }

    fn exhausted(&self) -> bool {
        self.cursor.load(Ordering::Relaxed) >= self.n_chunks
    }

    /// A worker leaves the job. The `Release` decrement pairs with the
    /// caller's `Acquire` load in [`drive_with`], so the slots this worker
    /// wrote are visible before the caller reads them. The caller's handle
    /// is cloned first: once the count reaches zero the caller may return
    /// and free the job, so nothing of it is touched after the decrement.
    fn release(&self) {
        let caller = self.caller.clone();
        if self.workers.fetch_sub(1, Ordering::Release) == 1 {
            caller.unpark();
        }
    }
}

/// A board entry: a published job and how many more workers may join it.
struct Seat {
    /// Lifetime-erased; valid while the entry is on the board (see
    /// [`Pool::retire`]).
    job: *const Job<'static>,
    open: usize,
}

// SAFETY: the pointee is `Sync` (atomics, a mutex, a `Sync` closure and a
// `Thread` handle), and the caller keeps it alive while it is reachable.
unsafe impl Send for Seat {}

struct Board {
    seats: Vec<Seat>,
    workers: usize,
}

/// The process-wide executor: parked workers and the board of jobs they
/// serve.
struct Pool {
    board: Mutex<Board>,
    wake: Condvar,
}

static POOL: Pool =
    Pool { board: Mutex::new(Board { seats: Vec::new(), workers: 0 }), wake: Condvar::new() };

impl Pool {
    fn lock(&self) -> MutexGuard<'_, Board> {
        // The one panic under the lock is a failed worker spawn, which
        // leaves the board consistent; a poisoned guard is still usable.
        self.board.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Put `job` on the board with `open` seats, after growing the pool
    /// to at least `workers` threads, and wake that many workers.
    fn publish(&'static self, job: &Job<'_>, open: usize, workers: usize) {
        let mut board = self.lock();
        // The only thread creation in this crate: once per pool worker.
        while board.workers < workers {
            thread::Builder::new()
                .name(format!("rayon-worker-{}", board.workers))
                .spawn(move || self.serve())
                .expect("failed to spawn a rayon pool worker");
            board.workers += 1;
        }
        board.seats.push(Seat { job: (job as *const Job<'_>).cast(), open });
        drop(board);
        for _ in 0..open {
            self.wake.notify_one();
        }
    }

    /// Take `job` off the board. No worker joins it afterwards, so once
    /// its worker count reads zero nothing else can reach it.
    fn retire(&self, job: &Job<'_>) {
        let ptr: *const Job<'static> = (job as *const Job<'_>).cast();
        let mut board = self.lock();
        if let Some(at) = board.seats.iter().position(|s| s.job == ptr) {
            board.seats.remove(at);
        }
    }

    /// A worker's life: take a seat in the oldest job with chunks left,
    /// drain it, release it; park when the board has nothing to claim.
    /// Workers live as long as the process and are never joined; nothing
    /// here panics, since [`Job::work`] catches every chunk's panic.
    fn serve(&self) {
        let mut board = self.lock();
        loop {
            // SAFETY: an entry on the board points at a live job — its
            // caller retires the entry under this lock before it waits for
            // the job's workers and frees it.
            let seat =
                board.seats.iter_mut().find(|s| s.open > 0 && !unsafe { &*s.job }.exhausted());
            let Some(seat) = seat else {
                board = self.wake.wait(board).unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            seat.open -= 1;
            // SAFETY: as above; the seat taken under the lock keeps the
            // job alive until `release`, since its caller waits for the
            // worker count to drop to zero.
            let job = unsafe { &*seat.job };
            job.workers.fetch_add(1, Ordering::Relaxed);
            drop(board);
            job.work();
            job.release();
            board = self.lock();
        }
    }
}

/// Work-stealing driver core: cut `0..n` into `n_chunks` fixed-size
/// half-open ranges, let the caller and up to `threads − 1` pool workers
/// claim chunks from a shared atomic cursor, then combine the per-chunk
/// results **in chunk order**. Factored out of [`drive`] (which picks the
/// thread count) so tests can pin `threads` above the machine's core
/// count.
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
    let run = |i: usize| {
        let r = per_chunk(gen, i * chunk..((i + 1) * chunk).min(n));
        // SAFETY: chunk index `i` was claimed by this participant alone;
        // see `Slots`.
        unsafe { slots.put(i, r) };
    };
    let job = Job {
        run: &run,
        n_chunks,
        cursor: AtomicUsize::new(0),
        workers: AtomicUsize::new(0),
        panic: Mutex::new(None),
        caller: thread::current(),
    };
    // From here until the wait below ends, workers may hold `&job`, which
    // borrows this frame: nothing in between may unwind (`work` catches
    // every chunk's panic).
    POOL.publish(&job, threads.min(n_chunks) - 1, current_num_threads().max(threads) - 1);
    job.work();
    POOL.retire(&job);
    while job.workers.load(Ordering::Acquire) != 0 {
        thread::park();
    }
    if let Some(payload) = job.panic.into_inner().unwrap_or_else(PoisonError::into_inner) {
        panic::resume_unwind(payload);
    }
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
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::time::Duration;

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

    /// Spin until `flag` is set; a hang turns into a failure after 10 s.
    fn await_flag(flag: &AtomicBool) {
        let start = std::time::Instant::now();
        while !flag.load(Ordering::SeqCst) {
            assert!(start.elapsed() < Duration::from_secs(10), "no other participant showed up");
            std::thread::yield_now();
        }
    }

    /// Drive 64 items at two threads; `on_caller` / `on_worker` run inside
    /// every chunk, on whichever side claimed it. Returns the panic
    /// message if the operation panicked.
    fn drive_split(on_caller: impl Fn() + Sync, on_worker: impl Fn() + Sync) -> Option<String> {
        let caller = std::thread::current().id();
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            crate::drive_with(
                &stealable(64).gen,
                2,
                |g, range| {
                    if std::thread::current().id() == caller {
                        on_caller();
                    } else {
                        on_worker();
                    }
                    range.filter_map(|i| g.pull(i)).count()
                },
                |_| {},
            )
        }));
        run.err().map(|p| p.downcast_ref::<&str>().map_or_else(String::new, |s| s.to_string()))
    }

    #[test]
    fn a_panic_in_a_caller_claimed_chunk_reaches_the_caller() {
        // Workers hold off until the caller has panicked, so the caller
        // is sure to claim a chunk.
        let panicked = AtomicBool::new(false);
        let msg = drive_split(
            || {
                panicked.store(true, Ordering::SeqCst);
                panic!("caller chunk");
            },
            || await_flag(&panicked),
        );
        assert_eq!(msg.as_deref(), Some("caller chunk"));
        let after: Vec<u32> = stealable(1000).collect();
        assert_eq!(after, (0..1000).collect::<Vec<_>>(), "the next call must still succeed");
    }

    #[test]
    fn a_panic_in_a_worker_claimed_chunk_reaches_the_caller() {
        // The caller holds its first chunk until a worker has panicked,
        // so a worker is sure to claim one.
        let panicked = AtomicBool::new(false);
        let msg = drive_split(
            || await_flag(&panicked),
            || {
                panicked.store(true, Ordering::SeqCst);
                panic!("worker chunk");
            },
        );
        assert_eq!(msg.as_deref(), Some("worker chunk"));
        let after: Vec<u32> = stealable(1000).collect();
        assert_eq!(after, (0..1000).collect::<Vec<_>>(), "the next call must still succeed");
    }

    #[test]
    fn nested_par_iter_completes_in_order() {
        let outer: Vec<u64> = (0..40).collect();
        let got: Vec<Vec<u64>> = outer
            .par_iter()
            .map(|&i| (0u64..100).into_par_iter().map(|j| i * 1000 + j).collect())
            .collect();
        let want: Vec<Vec<u64>> =
            (0..40).map(|i| (0..100).map(|j| i * 1000 + j).collect()).collect();
        assert_eq!(got, want);
        // Again with more threads than cores, so workers run outer chunks
        // and drive the inner operations as their callers.
        let mut flat: Vec<u64> = Vec::new();
        crate::drive_with(
            &stealable(40).gen,
            4,
            |g, range| {
                range
                    .filter_map(|i| g.pull(i))
                    .flat_map(|i| {
                        stealable(100)
                            .map(move |j| u64::from(i) * 1000 + u64::from(j))
                            .collect::<Vec<_>>()
                    })
                    .collect::<Vec<_>>()
            },
            |part| flat.extend(part),
        );
        assert_eq!(flat, want.concat());
    }
}
