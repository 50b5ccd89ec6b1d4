//! Deterministic data-parallel primitives for the simulation runtime.
//!
//! A dependency-free scoped fork/join layer in the spirit of rayon's
//! `scope`/`par_map`, built on [`std::thread::scope`] so borrowed data can
//! cross into workers without `'static` bounds or unsafe lifetime erasure.
//! The workspace uses it to fan simulation work out across cores **without
//! changing any result**: every primitive assigns items to workers by
//! contiguous index ranges and hands results back in input order, so a
//! caller that keeps its reductions index-ordered is bit-for-bit identical
//! at any thread count.
//!
//! # Thread count
//!
//! The worker count is resolved per call, cheapest-first:
//!
//! 1. an explicit scoped override installed with [`with_threads`] — the
//!    API tests and benches use instead of mutating the process
//!    environment (`std::env::set_var` is racy under the multithreaded
//!    test harness and `unsafe` in newer toolchains);
//! 2. otherwise the `RTHS_THREADS` environment variable, the *outermost*
//!    configuration layer (CI matrices, operators).
//!
//! Unset, unparsable, or `1` means **inline sequential execution on the
//! calling thread** — no threads are spawned at all, which keeps CI and
//! the golden tests on the exact code path the paper reproduction was
//! pinned on. Callers with fine-grained per-entity items also keep small
//! inputs inline by capping their shard request with
//! [`MIN_ITEMS_PER_WORKER`].
//!
//! Regions **nest without multiplying**: a primitive called from inside a
//! worker runs inline on that worker, so when the bench harness already
//! fans one seed out per worker, the per-epoch phases inside each
//! simulation do not spawn another `RTHS_THREADS` threads each.
//!
//! # Panics
//!
//! If a worker panics, the panic is re-raised on the calling thread with
//! the original payload after all workers of the scope have finished
//! (propagation is inherited from [`std::thread::scope`]).
//!
//! # Example
//!
//! ```
//! let squares = rths_par::par_map(&[1u64, 2, 3], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9]);
//! ```

#![forbid(unsafe_code)]

pub mod env;

/// Advisory sequential cutoff for *sharded per-entity phases*: spawning
/// a worker only pays off once its contiguous shard holds at least this
/// many fine-grained items (one peer's choose/observe step is ~0.1–2 µs;
/// a scoped spawn plus join costs tens of µs, so a worker needs a couple
/// thousand items to amortize it). Without the cap, 2- and 4-thread
/// simulator runs were *slower* than sequential for every population
/// ≤ 4×10³.
///
/// [`par_sharded`] itself cannot apply the cutoff — it does not know the
/// weight of an item (the reactor passes a handful of whole mailbox
/// shards, each worth milliseconds) — so callers with per-entity items
/// cap their *requested* shard count with it, e.g.
/// `threads().min(len / MIN_ITEMS_PER_WORKER).max(1)` in the peer
/// stores and the net coordinator. Shard counts never change results
/// (bit-identical by construction), so the cap is pure scheduling.
pub const MIN_ITEMS_PER_WORKER: usize = 2048;

/// The configured worker count: the innermost [`with_threads`] override on
/// this thread if one is active, else `RTHS_THREADS` if set to a positive
/// integer, otherwise `1` (sequential).
pub fn threads() -> usize {
    if let Some(n) = THREAD_OVERRIDE.with(std::cell::Cell::get) {
        return n;
    }
    parse_threads(std::env::var("RTHS_THREADS").ok().as_deref())
}

/// Interprets an `RTHS_THREADS` value: a positive integer (surrounding
/// whitespace tolerated) is the worker count; unset, unparsable, or zero
/// means `1` (sequential).
fn parse_threads(value: Option<&str>) -> usize {
    match value {
        Some(v) => v.trim().parse::<usize>().ok().filter(|&n| n >= 1).unwrap_or(1),
        None => 1,
    }
}

std::thread_local! {
    /// Scoped worker-count override installed by [`with_threads`].
    static THREAD_OVERRIDE: std::cell::Cell<Option<usize>> =
        const { std::cell::Cell::new(None) };
}

/// Restores the previous override when a [`with_threads`] scope unwinds.
struct OverrideGuard {
    prev: Option<usize>,
}

impl Drop for OverrideGuard {
    fn drop(&mut self) {
        THREAD_OVERRIDE.with(|o| o.set(self.prev));
    }
}

/// Runs `f` with the worker count pinned to `n` on this thread, restoring
/// the previous setting afterwards (also on panic).
///
/// This is the programmatic alternative to the `RTHS_THREADS` environment
/// variable: tests and benches that sweep thread counts use it so they
/// never mutate process-global state (racy under the multithreaded test
/// harness). An inner `with_threads` wins over an outer one and over the
/// environment; the environment variable remains the outermost default
/// for code that never installs an override.
///
/// The override is **per-thread**: work spawned onto pool workers inside
/// `f` is governed by the count captured when the parallel region was
/// entered (regions nest inline anyway, see the crate docs).
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    assert!(n >= 1, "worker count must be at least 1");
    let prev = THREAD_OVERRIDE.with(|o| o.replace(Some(n)));
    let _guard = OverrideGuard { prev };
    f()
}

std::thread_local! {
    /// True while this thread is executing a chunk on behalf of one of the
    /// primitives. Nested calls then run inline: when the seed-level
    /// fan-out already occupies every configured worker, letting each
    /// simulation epoch spawn another `RTHS_THREADS` workers would give
    /// T×T threads and per-epoch spawn churn for no extra parallelism.
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Marks the current thread as a pool worker for the guard's lifetime.
struct WorkerGuard {
    was: bool,
}

impl WorkerGuard {
    fn enter() -> Self {
        let was = IN_WORKER.with(|w| w.replace(true));
        WorkerGuard { was }
    }
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        IN_WORKER.with(|w| w.set(self.was));
    }
}

/// The worker count for a new parallel region: `threads()`, or `1` when
/// already inside a worker (nested regions run inline).
fn region_threads() -> usize {
    if IN_WORKER.with(std::cell::Cell::get) {
        1
    } else {
        threads()
    }
}

/// Balanced contiguous `(start, end)` ranges covering `0..len` in order.
fn chunk_ranges(len: usize, parts: usize) -> Vec<(usize, usize)> {
    let base = len / parts;
    let extra = len % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let size = base + usize::from(p < extra);
        if size == 0 {
            break;
        }
        ranges.push((start, start + size));
        start += size;
    }
    ranges
}

/// Joins scoped workers in spawn order, re-raising the first panic.
fn join_all<T>(handles: Vec<std::thread::ScopedJoinHandle<'_, T>>) -> Vec<T> {
    let mut outputs = Vec::with_capacity(handles.len());
    for handle in handles {
        match handle.join() {
            Ok(value) => outputs.push(value),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
    outputs
}

/// Maps `f(index, &item)` over `items`, returning results in input order.
///
/// Work is split into one contiguous chunk per worker; the output is the
/// in-order concatenation of the chunk results, so the return value is
/// identical at any thread count.
///
/// This is the **coarse-task** primitive — each item is assumed to carry
/// substantial work (e.g. one full simulation run per seed), so it
/// parallelizes even tiny inputs.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = region_threads().min(items.len()).max(1);
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
    }
    let ranges = chunk_ranges(items.len(), workers);
    let mut out = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        // Spawn chunks 1.. first, then the calling thread works chunk 0
        // itself instead of parking — one fewer spawn per call.
        let mut handles = Vec::with_capacity(ranges.len() - 1);
        for &(start, end) in &ranges[1..] {
            let f = &f;
            let chunk = &items[start..end];
            handles.push(scope.spawn(move || {
                let _guard = WorkerGuard::enter();
                chunk.iter().enumerate().map(|(i, item)| f(start + i, item)).collect::<Vec<R>>()
            }));
        }
        {
            let _guard = WorkerGuard::enter();
            out.extend(
                items[ranges[0].0..ranges[0].1].iter().enumerate().map(|(i, item)| f(i, item)),
            );
        }
        for part in join_all(handles) {
            out.extend(part);
        }
    });
    out
}

/// A bundle of mutable columns that can be split at the same item
/// boundary — the structure-of-arrays counterpart of `split_at_mut`.
///
/// The sharded peer stores keep one flat column per field (ids, learner
/// state, accounting); a parallel phase needs a disjoint contiguous range
/// of **every** column per worker. Implementations exist for `&mut [T]`,
/// tuples of implementors (nest tuples for wider bundles), `Option`s of
/// implementors, and [`Strided`] for flat matrices with a fixed row
/// stride.
pub trait ShardCols: Send + Sized {
    /// Splits the bundle into items `..mid` and `mid..`.
    fn shard_split(self, mid: usize) -> (Self, Self);
}

impl<T: Send> ShardCols for &mut [T] {
    fn shard_split(self, mid: usize) -> (Self, Self) {
        self.split_at_mut(mid)
    }
}

impl ShardCols for () {
    fn shard_split(self, _mid: usize) -> (Self, Self) {
        ((), ())
    }
}

/// A bundle a phase may or may not carry (`None` splits into two `None`s).
impl<T: ShardCols> ShardCols for Option<T> {
    fn shard_split(self, mid: usize) -> (Self, Self) {
        self.map(|cols| cols.shard_split(mid)).unzip()
    }
}

macro_rules! impl_shard_cols_tuple {
    ($($name:ident),+) => {
        impl<$($name: ShardCols),+> ShardCols for ($($name,)+) {
            fn shard_split(self, mid: usize) -> (Self, Self) {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                #[allow(non_snake_case)]
                let ($($name,)+) = ($($name.shard_split(mid),)+);
                (($($name.0,)+), ($($name.1,)+))
            }
        }
    };
}

impl_shard_cols_tuple!(A, B);
impl_shard_cols_tuple!(A, B, C);
impl_shard_cols_tuple!(A, B, C, D);
impl_shard_cols_tuple!(A, B, C, D, E);

/// A flat row-major column with `stride` scalars per item (e.g. one
/// regret row per peer): splitting at item `mid` splits the backing slice
/// at `mid * stride`.
#[derive(Debug)]
pub struct Strided<'a, T> {
    /// Scalars per item.
    pub stride: usize,
    /// The backing flat slice (`len = items × stride`).
    pub data: &'a mut [T],
}

impl<'a, T> Strided<'a, T> {
    /// Wraps a flat slice with `stride` scalars per item.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of a non-zero `stride`.
    pub fn new(stride: usize, data: &'a mut [T]) -> Self {
        assert!(stride > 0, "stride must be positive");
        assert_eq!(data.len() % stride, 0, "flat column length must be a stride multiple");
        Self { stride, data }
    }

    /// The row of item `i` **relative to this chunk**.
    pub(crate) fn row(&mut self, i: usize) -> &mut [T] {
        &mut self.data[i * self.stride..(i + 1) * self.stride]
    }
}

impl<T: Send> ShardCols for Strided<'_, T> {
    fn shard_split(self, mid: usize) -> (Self, Self) {
        let (a, b) = self.data.split_at_mut(mid * self.stride);
        (Self { stride: self.stride, data: a }, Self { stride: self.stride, data: b })
    }
}

/// The rows of a flat arena as items see them through per-item row
/// handles: item `i` owns row `handles[i]`. The handles strictly increase
/// in item order: an arena whose items leave their rows behind as holes
/// and whose arrivals take the row past every handed-out one keeps them
/// so, and only a pass that closes the holes moves a row. A split at item
/// `mid` therefore cuts the arena where row `handles[mid]` starts: each
/// half keeps exactly the rows its own items can name, and
/// `split_at_mut` proves the halves disjoint (no `unsafe`, nothing
/// gathered, nothing allocated).
#[derive(Debug)]
pub enum Rows<'a, T> {
    /// Every item holds the row of its own index: the arena prefix
    /// itself, strided, with no handle to read.
    Aligned(Strided<'a, T>),
    /// The handles are not the identity: the arena from row `base` on,
    /// and the handles, each row looked up when asked for.
    Indexed {
        /// Scalars per row.
        stride: usize,
        /// Arena rows `base..`: every row the handles can name.
        arena: &'a mut [T],
        /// The arena row `arena` starts at: `0` for a whole view, the
        /// first item's row for the tail of a split.
        base: usize,
        /// Row of each item, strictly increasing.
        handles: &'a [u32],
    },
}

impl<'a, T> Rows<'a, T> {
    /// The rows of `arena` (`stride` scalars each) that `handles` point
    /// to, one per handle: [`Rows::Aligned`] over the arena prefix when
    /// the caller knows every handle equals its index (`aligned`, which
    /// the owner of the handles tracks so that no phase scans them), else
    /// [`Rows::Indexed`].
    ///
    /// # Panics
    ///
    /// Panics if the arena is not a whole number of rows of a non-zero
    /// `stride`, or it has fewer rows than handles; in a debug build,
    /// also if the handles do not strictly increase, or `aligned` is
    /// claimed for handles that are not.
    pub fn by_handle(
        stride: usize,
        arena: &'a mut [T],
        handles: &'a [u32],
        aligned: bool,
    ) -> Self {
        let arena = Strided::new(stride, arena).data;
        debug_assert!(handles.windows(2).all(|w| w[0] < w[1]), "{INCREASING}");
        if aligned {
            debug_assert!(handles.iter().enumerate().all(|(i, &h)| h as usize == i));
            return Rows::Aligned(Strided::new(stride, &mut arena[..handles.len() * stride]));
        }
        Rows::Indexed { stride, arena, base: 0, handles }
    }

    /// The row of item `i` **relative to this chunk**.
    #[inline(always)]
    pub fn row(&mut self, i: usize) -> &mut [T] {
        match self {
            Rows::Aligned(arena) => arena.row(i),
            Rows::Indexed { stride, arena, base, handles } => {
                let start = (handles[i] as usize - *base) * *stride;
                &mut arena[start..start + *stride]
            }
        }
    }
}

/// What a split of [`Rows`] panics with when two items share a row or
/// the handles fall.
const INCREASING: &str = "row handles must strictly increase";

/// Whether strictly increasing row `handles` are each their own index:
/// exactly when the last one is, since none can be below its index.
pub fn increasing_aligned(handles: &[u32]) -> bool {
    handles.last().is_none_or(|&h| h as usize + 1 == handles.len())
}

impl<T: Send> ShardCols for Rows<'_, T> {
    fn shard_split(self, mid: usize) -> (Self, Self) {
        match self {
            Rows::Aligned(arena) => {
                let (head, tail) = arena.shard_split(mid);
                (Rows::Aligned(head), Rows::Aligned(tail))
            }
            Rows::Indexed { stride, arena, base, handles } => {
                let (head, tail) = handles.split_at(mid);
                // The tail's rows start at its first item's; a tail with
                // no item takes the empty end of the arena.
                let cut = tail.first().map_or(base + arena.len() / stride, |&h| h as usize);
                assert!(head.last().is_none_or(|&h| (h as usize) < cut), "{INCREASING}");
                let (rows, rest) = arena.split_at_mut((cut - base) * stride);
                (
                    Rows::Indexed { stride, arena: rows, base, handles: head },
                    Rows::Indexed { stride, arena: rest, base: cut, handles: tail },
                )
            }
        }
    }
}

/// A shard's identity inside [`par_sharded`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// Shard index (`0..shards`).
    pub index: usize,
    /// Absolute index of the shard's first item.
    pub start: usize,
    /// One past the shard's last item.
    pub end: usize,
}

impl Shard {
    /// Items in this shard.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the shard is empty (never produced by [`par_sharded`]).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Runs `f(shard, cols_chunk, scratch[shard.index])` over `shards`
/// contiguous index ranges of a structure-of-arrays column bundle, one
/// worker per shard.
///
/// This is the peer-store primitive: `cols` bundles every mutable column
/// of the store ([`ShardCols`]), each shard receives the same contiguous
/// item range of all of them plus **its own** scratch slot, so a phase
/// can mutate per-entity state and thread-affine accumulators without any
/// sharing. Shard boundaries are the deterministic `chunk_ranges`
/// partition; as long as the caller keeps order-sensitive reductions
/// index-ordered (sequentially, or by merging per-shard accumulators in
/// shard order when the merge is order-insensitive), results are
/// **bit-for-bit identical at any shard count** — the contract the
/// engines' shard-count sweep test pins.
///
/// `shards` is a *request*: it is clamped to `len`, and a single shard
/// (or a call from inside another parallel region) runs inline on the
/// calling thread. Unlike the requested count, the executing thread count
/// never affects results.
///
/// # Panics
///
/// Panics if `shards` is zero when `len > 0`, or `scratch` has fewer
/// slots than the clamped shard count. Worker panics propagate to the
/// caller after the scope joins.
pub fn par_sharded<C, S, F>(len: usize, shards: usize, cols: C, scratch: &mut [S], f: F)
where
    C: ShardCols,
    S: Send,
    F: Fn(Shard, C, &mut S) + Sync,
{
    if len == 0 {
        return;
    }
    assert!(shards >= 1, "need at least one shard");
    let shards = shards.min(len);
    assert!(scratch.len() >= shards, "need one scratch slot per shard");
    let ranges = chunk_ranges(len, shards);
    if ranges.len() == 1 || IN_WORKER.with(std::cell::Cell::get) {
        // Inline: preserve the shard *structure* (each range still sees
        // its own scratch slot) while executing sequentially.
        let mut rest = cols;
        for (index, &(start, end)) in ranges.iter().enumerate() {
            let (chunk, tail) = rest.shard_split(end - start);
            rest = tail;
            let _guard = WorkerGuard::enter();
            f(Shard { index, start, end }, chunk, &mut scratch[index]);
        }
        return;
    }
    // Span the whole fork/join region (spawn → work → join) so traces
    // show what a parallel phase costs end to end; timing is read-only
    // and cannot perturb shard boundaries or merge order.
    let t_region = rths_obs::span_start();
    let (first_cols, mut rest_cols) = cols.shard_split(ranges[0].1);
    let (first_scratch, mut rest_scratch) = scratch.split_at_mut(1);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(ranges.len() - 1);
        for (index, &(start, end)) in ranges.iter().enumerate().skip(1) {
            let (chunk, tail) = rest_cols.shard_split(end - start);
            rest_cols = tail;
            let (slot, tail) = rest_scratch.split_at_mut(1);
            rest_scratch = tail;
            let f = &f;
            handles.push(scope.spawn(move || {
                let _guard = WorkerGuard::enter();
                f(Shard { index, start, end }, chunk, &mut slot[0]);
            }));
        }
        // The calling thread works shard 0 itself instead of parking.
        {
            let _guard = WorkerGuard::enter();
            f(
                Shard { index: 0, start: 0, end: ranges[0].1 },
                first_cols,
                &mut first_scratch[0],
            );
        }
        join_all(handles);
    });
    if let Some(t) = t_region {
        rths_obs::span_end(rths_obs::Phase::ParDispatch, rths_obs::current_epoch(), t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_threads_handles_the_env_shapes() {
        assert_eq!(parse_threads(None), 1);
        assert_eq!(parse_threads(Some("not-a-number")), 1);
        assert_eq!(parse_threads(Some("0")), 1);
        assert_eq!(parse_threads(Some(" 3 ")), 3);
        assert_eq!(parse_threads(Some("8")), 8);
        assert_eq!(parse_threads(Some("")), 1);
        assert_eq!(parse_threads(Some("-2")), 1);
    }

    #[test]
    fn threads_prefers_override_then_env() {
        // The override is thread-local, so this test cannot race the rest
        // of the suite regardless of what RTHS_THREADS is set to.
        let ambient = threads();
        let inside = with_threads(3, threads);
        assert_eq!(inside, 3);
        let nested = with_threads(5, || (threads(), with_threads(2, threads), threads()));
        assert_eq!(nested, (5, 2, 5));
        assert_eq!(threads(), ambient, "override leaked past its scope");
    }

    #[test]
    fn override_is_restored_on_panic() {
        let ambient = threads();
        let result = std::panic::catch_unwind(|| with_threads(7, || panic!("boom")));
        assert!(result.is_err());
        assert_eq!(threads(), ambient, "override leaked past a panic");
    }

    #[test]
    fn chunk_ranges_cover_exactly_once() {
        for len in [1usize, 5, 64, 100, 1001] {
            for parts in [1usize, 2, 3, 7, 64] {
                let ranges = chunk_ranges(len, parts.min(len));
                assert_eq!(ranges[0].0, 0);
                assert_eq!(ranges.last().unwrap().1, len);
                for pair in ranges.windows(2) {
                    assert_eq!(pair[0].1, pair[1].0, "gap at {pair:?}");
                }
                let max = ranges.iter().map(|(s, e)| e - s).max().unwrap();
                let min = ranges.iter().map(|(s, e)| e - s).min().unwrap();
                assert!(max - min <= 1, "unbalanced chunks: {ranges:?}");
            }
        }
    }

    #[test]
    fn par_map_preserves_order_and_indices() {
        let items: Vec<u64> = (0..1000).collect();
        let sequential: Vec<u64> =
            items.iter().enumerate().map(|(i, &x)| x * 2 + i as u64).collect();
        for n in [1usize, 2, 4, 7] {
            let parallel = with_threads(n, || par_map(&items, |i, &x| x * 2 + i as u64));
            assert_eq!(parallel, sequential, "mismatch at {n} threads");
        }
    }

    #[test]
    fn par_map_empty_input() {
        let out: Vec<u32> = with_threads(4, || par_map(&[] as &[u32], |_, &x| x));
        assert!(out.is_empty());
    }

    #[test]
    fn par_map_parallelizes_small_inputs() {
        // Coarse tasks fan out even when there are only a few of them
        // (e.g. ten seeds): no small-input cutoff.
        let items = [0u8; 4];
        let ids = with_threads(4, || par_map(&items, |_, _| std::thread::current().id()));
        assert!(ids.iter().any(|&id| id != std::thread::current().id()));
    }

    #[test]
    fn worker_panic_propagates_with_payload() {
        let items: Vec<usize> = (0..400).collect();
        let result = std::panic::catch_unwind(|| {
            with_threads(4, || {
                par_map(&items, |i, _| {
                    if i == 250 {
                        panic!("boom at 250");
                    }
                    i
                })
            })
        });
        let payload = result.expect_err("panic should propagate");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(message.contains("boom at 250"), "unexpected payload: {message}");
    }

    #[test]
    fn nested_scopes_compose() {
        // A worker may itself call the primitives: the nested region runs
        // inline on that worker (no T×T thread blow-up) and produces the
        // same in-order results.
        let outer: Vec<usize> = (0..128).collect();
        let result = with_threads(2, || {
            par_map(&outer, |_, &o| {
                let inner: Vec<usize> = (0..128).collect();
                par_map(&inner, |_, &i| o * i).into_iter().sum::<usize>()
            })
        });
        let inner_sum: usize = (0..128).sum();
        let expected: Vec<usize> = (0..128).map(|o| o * inner_sum).collect();
        assert_eq!(result, expected);
    }

    #[test]
    fn par_sharded_covers_every_index_with_affine_scratch() {
        // Three columns (one strided) + per-shard scratch: every item is
        // visited exactly once with consistent absolute indices, and each
        // shard sees only its own scratch slot.
        let n = 300;
        let stride = 3;
        let mut a: Vec<u64> = vec![0; n];
        let mut b: Vec<u64> = (0..n as u64).collect();
        let mut flat = vec![0u64; n * stride];
        for shards in [1usize, 2, 4, 7] {
            a.fill(0);
            flat.fill(0);
            let mut scratch = vec![0u64; shards];
            par_sharded(
                n,
                shards,
                ((&mut a[..], &mut b[..]), Strided::new(stride, &mut flat[..])),
                &mut scratch,
                |shard, ((a, b), mut flat), count| {
                    assert_eq!(shard.len(), a.len());
                    assert!(!shard.is_empty());
                    for i in 0..a.len() {
                        let abs = shard.start + i;
                        a[i] += abs as u64 + 1;
                        assert_eq!(b[i], abs as u64);
                        flat.row(i)[0] = abs as u64;
                        *count += 1;
                    }
                },
            );
            let total: u64 = scratch.iter().sum();
            assert_eq!(total, n as u64, "scratch counts wrong at {shards} shards");
            for (i, &v) in a.iter().enumerate() {
                assert_eq!(v, i as u64 + 1, "item {i} not visited exactly once");
                assert_eq!(flat[i * stride], i as u64);
            }
        }
    }

    /// Splits `rows` at `plan[0]`, then each half by the rest of the plan
    /// (a `mid` past a half's end takes all of it), and checks at the
    /// leaves that item `i` is the memory at `want[i]`.
    fn split_by(rows: Rows<'_, u32>, want: &[*const u32], plan: &[usize]) {
        let Some((&mid, plan)) = plan.split_first() else {
            let mut rows = rows;
            for (i, &row) in want.iter().enumerate() {
                assert_eq!(rows.row(i).as_ptr(), row, "item {i}");
            }
            return;
        };
        let mid = mid.min(want.len());
        let (head, tail) = rows.shard_split(mid);
        split_by(head, &want[..mid], plan);
        split_by(tail, &want[mid..], plan);
    }

    #[test]
    fn rows_follow_their_handles_through_any_split() {
        // Identity handles view the arena prefix in place; increasing ones
        // with holes look each row up, and a split cuts the arena where the
        // tail's first row starts. Either way item `i` of every part of
        // every split, split again at every `mid`, is the very memory of
        // the whole view's row `i`: row `handles[i]` of the arena.
        let stride = 2;
        for handles in [vec![0u32, 1, 2, 3], vec![0, 1, 2], vec![1, 2, 4, 7], vec![0, 3, 4]] {
            let mut arena: Vec<u32> = (0..20).collect();
            let identity = handles.iter().enumerate().all(|(i, &h)| h as usize == i);
            let want: Vec<*const u32> =
                handles.iter().map(|&h| &raw const arena[h as usize * stride]).collect();
            let mut rows = Rows::by_handle(stride, &mut arena, &handles, identity);
            assert_eq!(matches!(rows, Rows::Aligned(_)), identity);
            for (i, &h) in handles.iter().enumerate() {
                assert_eq!(rows.row(i), [2 * h, 2 * h + 1], "item {i}");
            }
            let n = handles.len();
            for plan in (0..(n + 1).pow(3))
                .map(|p| [p % (n + 1), p / (n + 1) % (n + 1), p / (n + 1) / (n + 1)])
            {
                split_by(Rows::by_handle(stride, &mut arena, &handles, identity), &want, &plan);
            }
        }
    }

    #[test]
    #[should_panic(expected = "row handles must strictly increase")]
    fn rows_reject_a_shared_handle() {
        // Built by hand: `by_handle` would refuse these handles first, in
        // a debug build; the cut itself must refuse them in any build.
        let mut arena = [0u8; 6];
        let rows = Rows::Indexed { stride: 2, arena: &mut arena, base: 0, handles: &[1, 1] };
        let _ = rows.shard_split(1);
    }

    #[test]
    fn par_sharded_runs_inline_inside_a_worker() {
        // From inside a parallel region the shards execute on the calling
        // worker (no T×T thread blow-up), preserving shard structure.
        let outer = [0u8; 2];
        let ids = with_threads(2, || {
            par_map(&outer, |_, _| {
                let me = std::thread::current().id();
                let mut col = [0u8; 128];
                let mut seen = vec![None; 4];
                par_sharded(128, 4, &mut col[..], &mut seen, |_, _, slot| {
                    *slot = Some(std::thread::current().id());
                });
                (me, seen)
            })
        });
        for (worker, seen) in ids {
            assert!(seen.iter().all(|&id| id == Some(worker)), "shard left its worker");
        }
    }

    #[test]
    fn par_sharded_empty_input_is_a_noop() {
        let mut col: Vec<u8> = Vec::new();
        par_sharded(0, 4, &mut col[..], &mut [0u8; 4], |_, _, _| panic!("must not run"));
    }

    #[test]
    #[should_panic(expected = "one scratch slot per shard")]
    fn par_sharded_rejects_short_scratch() {
        let mut col = [0u8; 100];
        par_sharded(100, 4, &mut col[..], &mut [0u8; 2], |_, _, _| {});
    }

    #[test]
    fn nested_regions_run_inline_on_their_worker() {
        // Inside a worker, a nested par_map must not spawn further
        // threads: every nested item is executed by the worker itself.
        let outer = [0u8; 2];
        let nested_ids = with_threads(2, || {
            par_map(&outer, |_, _| {
                let me = std::thread::current().id();
                let inner = [0u8; 8];
                let ids = par_map(&inner, |_, _| std::thread::current().id());
                (me, ids)
            })
        });
        for (worker, ids) in nested_ids {
            assert!(ids.iter().all(|&id| id == worker), "nested region left its worker");
        }
    }
}
