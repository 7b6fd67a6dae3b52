//! Offline shim for `rayon`: typed parallel-iterator combinators for the
//! patterns this workspace uses, executed with real `std::thread::scope`
//! fan-out.
//!
//! Supported shapes:
//!
//! * `slice.par_iter().map(f).collect::<Vec<_>>()`
//! * `slice.par_iter_mut().zip(other.par_iter()).map(f).collect::<Vec<_>>()`
//! * `slice.par_chunks_mut(n).enumerate().for_each(f)`
//!
//! plus the shim-specific entry points [`fan_out`] (ordered range
//! fan-out), [`with_threads`] (scoped worker-budget override) and
//! [`current_num_threads`].
//!
//! # Threading model & determinism contract
//!
//! Work is partitioned into **fixed tasks whose boundaries depend only
//! on the input size** — never on the machine or the worker budget
//! (`n` items split into `min(n, MAX_TASKS)` contiguous ranges;
//! `par_chunks_mut(k)` makes each user chunk a task). Workers execute
//! contiguous groups of tasks and results are stitched back in task
//! order, so `collect` preserves input order exactly like rayon AND any
//! per-task reduction merged in task order is bit-identical at every
//! thread count. Small inputs run inline to skip thread start-up cost.
//!
//! The worker budget comes from, in priority order: a scoped
//! [`with_threads`] override on the calling thread, the
//! `RLSCHED_THREADS` environment variable (read once, like
//! `RLSCHED_FORCE_SCALAR` / `RLSCHED_FORCE_TAPE` in `rlsched-nn`), and
//! `available_parallelism`. A fan-out issued from *inside* a shim
//! worker runs inline (thread-local guard) so nested parallelism never
//! oversubscribes to `workers²` threads.
//!
//! Panics in task closures are re-raised on the calling thread via
//! `std::panic::resume_unwind` with their **original payload** (all
//! workers are joined first), so `catch_unwind` supervisors upstream
//! see the real panic message instead of a synthetic one.

use std::any::Any;
use std::cell::Cell;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::OnceLock;

/// Upper bound on the number of fixed tasks an input is split into.
/// Partitioning `n` items always yields `min(n, MAX_TASKS)` contiguous
/// ranges — a function of `n` alone, so reductions merged in task order
/// are worker-count independent.
const MAX_TASKS: usize = 32;

/// `RLSCHED_THREADS` override, read once per process.
fn env_threads() -> Option<usize> {
    static CACHE: OnceLock<Option<usize>> = OnceLock::new();
    *CACHE.get_or_init(|| {
        std::env::var("RLSCHED_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .map(|n| n.max(1))
    })
}

thread_local! {
    /// Scoped worker-budget override installed by [`with_threads`].
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// Set inside shim worker threads; makes nested fan-outs run inline.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The worker-thread budget for fan-outs issued from the calling
/// thread: a [`with_threads`] override if one is active, else
/// `RLSCHED_THREADS`, else `available_parallelism`. Always ≥ 1, and
/// exactly 1 inside a shim worker (nested fan-outs run inline).
pub fn current_num_threads() -> usize {
    if IN_WORKER.with(Cell::get) {
        return 1;
    }
    if let Some(n) = OVERRIDE.with(Cell::get) {
        return n;
    }
    if let Some(n) = env_threads() {
        return n;
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Run `f` with the calling thread's worker budget pinned to
/// `n.max(1)`, restoring the previous budget afterwards (also on
/// unwind). Task partitioning is budget-independent, so results are
/// bit-identical for every `n`; this exists so parity suites can sweep
/// thread counts in-process and so a caller can size the pool of one
/// training run (or anything else) without touching the environment.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|o| o.replace(Some(n.max(1)))));
    f()
}

fn workers(n_tasks: usize) -> usize {
    if n_tasks < 2 {
        return 1;
    }
    current_num_threads().min(n_tasks)
}

/// Evenly split `n` items into `parts` contiguous ranges.
fn split_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// The fixed task partition of `n` items: `min(n, MAX_TASKS)` contiguous
/// ranges derived from `n` alone (worker-count independent).
fn task_ranges(n: usize) -> Vec<Range<usize>> {
    split_ranges(n, n.clamp(1, MAX_TASKS))
}

/// Execute `run` over every task, distributing contiguous task groups
/// across `min(current_num_threads(), tasks.len())` scoped worker
/// threads, and return the per-task outputs **in task order**. When the
/// budget or task count is 1, runs inline on the caller thread in task
/// order. Worker panics are re-raised with their original payload after
/// all workers have been joined.
fn run_ordered<T, R, F>(tasks: Vec<T>, run: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = tasks.len();
    let w = workers(n);
    if w <= 1 {
        return tasks.into_iter().map(run).collect();
    }
    let mut iter = tasks.into_iter();
    let mut groups: Vec<Vec<T>> = split_ranges(n, w)
        .iter()
        .map(|r| iter.by_ref().take(r.len()).collect())
        .collect();
    let run = &run;
    let parts: Vec<std::thread::Result<Vec<R>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = groups
            .drain(..)
            .map(|group| {
                scope.spawn(move || {
                    IN_WORKER.with(|g| g.set(true));
                    group.into_iter().map(run).collect::<Vec<R>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut out = Vec::with_capacity(n);
    let mut panic: Option<Box<dyn Any + Send>> = None;
    for part in parts {
        match part {
            Ok(rs) => out.extend(rs),
            Err(payload) => panic = panic.or(Some(payload)),
        }
    }
    if let Some(payload) = panic {
        std::panic::resume_unwind(payload);
    }
    out
}

/// Run `per_range` over the fixed task partition of `n` items (see
/// [`task_ranges`]) and return the per-range outputs in range order.
/// Because the ranges depend only on `n`, folding the outputs in order
/// is bit-identical at every thread count — this is the primitive the
/// parallel rollout builds on.
pub fn fan_out<R, F>(n: usize, per_range: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    run_ordered(task_ranges(n), per_range)
}

/// Parallel shared iterator over a slice.
pub struct ParIter<'a, T> {
    items: &'a [T],
}

/// Parallel exclusive iterator over a slice.
pub struct ParIterMut<'a, T> {
    items: &'a mut [T],
}

/// `par_iter_mut().zip(par_iter())`.
pub struct ParZip<'a, 'b, A, B> {
    left: &'a mut [A],
    right: &'b [B],
}

/// A mapped parallel iterator, ready to `collect`.
pub struct ParMap<I, F> {
    inner: I,
    f: F,
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Map each `&T` through `f` in parallel.
    pub fn map<F, R>(self, f: F) -> ParMap<Self, F>
    where
        F: Fn(&'a T) -> R + Sync,
        R: Send,
    {
        ParMap { inner: self, f }
    }

    /// Zip with another shared parallel iterator of equal length.
    pub fn zip<'b, B>(self, other: ParIter<'b, B>) -> ParZipRef<'a, 'b, T, B> {
        assert_eq!(self.items.len(), other.items.len(), "zip length mismatch");
        ParZipRef {
            left: self.items,
            right: other.items,
        }
    }
}

/// `par_iter().zip(par_iter())`.
pub struct ParZipRef<'a, 'b, A, B> {
    left: &'a [A],
    right: &'b [B],
}

impl<'a, 'b, A: Sync, B: Sync> ParZipRef<'a, 'b, A, B> {
    /// Map each `(&A, &B)` pair through `f` in parallel.
    pub fn map<F, R>(self, f: F) -> ParMap<Self, F>
    where
        F: Fn((&'a A, &'b B)) -> R + Sync,
        R: Send,
    {
        ParMap { inner: self, f }
    }
}

impl<'a, 'b, A: Send, B: Sync> ParZip<'a, 'b, A, B> {
    /// Map each `(&mut A, &B)` pair through `f` in parallel.
    pub fn map<F, R>(self, f: F) -> ParMap<Self, F>
    where
        F: Fn((&'a mut A, &'b B)) -> R + Sync,
        R: Send,
    {
        ParMap { inner: self, f }
    }
}

impl<'a, T: Send> ParIterMut<'a, T> {
    /// Zip with a shared parallel iterator of equal length.
    pub fn zip<'b, B>(self, other: ParIter<'b, B>) -> ParZip<'a, 'b, T, B> {
        assert_eq!(self.items.len(), other.items.len(), "zip length mismatch");
        ParZip {
            left: self.items,
            right: other.items,
        }
    }

    /// Map each `&mut T` through `f` in parallel.
    pub fn map<F, R>(self, f: F) -> ParMap<Self, F>
    where
        F: Fn(&'a mut T) -> R + Sync,
        R: Send,
    {
        ParMap { inner: self, f }
    }
}

impl<'a, T, F, R> ParMap<ParIter<'a, T>, F>
where
    T: Sync,
    F: Fn(&'a T) -> R + Sync,
    R: Send,
{
    /// Gather results in input order.
    pub fn collect<C: From<Vec<R>>>(self) -> C {
        let items = self.inner.items;
        let f = &self.f;
        let parts = fan_out(items.len(), |range| {
            items[range].iter().map(f).collect::<Vec<R>>()
        });
        C::from(parts.into_iter().flatten().collect())
    }
}

impl<'a, 'b, A, B, F, R> ParMap<ParZipRef<'a, 'b, A, B>, F>
where
    A: Sync,
    B: Sync,
    F: Fn((&'a A, &'b B)) -> R + Sync,
    R: Send,
{
    /// Gather results in input order.
    pub fn collect<C: From<Vec<R>>>(self) -> C {
        let (left, right) = (self.inner.left, self.inner.right);
        let f = &self.f;
        let parts = fan_out(left.len(), |range| {
            left[range.clone()]
                .iter()
                .zip(&right[range])
                .map(f)
                .collect::<Vec<R>>()
        });
        C::from(parts.into_iter().flatten().collect())
    }
}

impl<'a, 'b, A, B, F, R> ParMap<ParZip<'a, 'b, A, B>, F>
where
    A: Send,
    B: Sync,
    F: Fn((&'a mut A, &'b B)) -> R + Sync,
    R: Send,
{
    /// Gather results in input order.
    pub fn collect<C: From<Vec<R>>>(self) -> C {
        let ParZip { left, right } = self.inner;
        let n = left.len();
        let f = &self.f;
        if workers(task_ranges(n).len()) <= 1 {
            let out: Vec<R> = left.iter_mut().zip(right).map(f).collect();
            return C::from(out);
        }
        // Split the &mut slice at the fixed task boundaries.
        let ranges = task_ranges(n);
        let mut tasks: Vec<(&mut [A], &[B])> = Vec::with_capacity(ranges.len());
        let mut rest = left;
        for r in &ranges {
            let (head, tail) = rest.split_at_mut(r.len());
            tasks.push((head, &right[r.clone()]));
            rest = tail;
        }
        let parts = run_ordered(tasks, |(chunk, rhs)| {
            chunk.iter_mut().zip(rhs).map(f).collect::<Vec<R>>()
        });
        C::from(parts.into_iter().flatten().collect())
    }
}

/// Parallel exclusive chunk iterator.
pub struct ParChunksMut<'a, T> {
    items: &'a mut [T],
    chunk: usize,
}

/// Enumerated form of [`ParChunksMut`].
pub struct EnumChunksMut<'a, T> {
    items: &'a mut [T],
    chunk: usize,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    /// Attach chunk indices.
    pub fn enumerate(self) -> EnumChunksMut<'a, T> {
        EnumChunksMut {
            items: self.items,
            chunk: self.chunk,
        }
    }

    /// Apply `f` to every chunk in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&mut [T]) + Sync,
    {
        self.enumerate().for_each(|(_, c)| f(c));
    }
}

impl<T: Send> EnumChunksMut<'_, T> {
    /// Apply `f` to every `(index, chunk)` in parallel. Each caller
    /// chunk is one fixed task (boundaries derive from the chunk size,
    /// never the worker count), so disjoint-write kernels stay
    /// bit-identical at any thread count. The inline (1-worker) path
    /// allocates nothing.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &mut [T])) + Sync,
    {
        let chunk = self.chunk;
        assert!(chunk > 0, "chunk size must be positive");
        let n_chunks = self.items.len().div_ceil(chunk);
        if workers(n_chunks) <= 1 {
            for (i, c) in self.items.chunks_mut(chunk).enumerate() {
                f((i, c));
            }
            return;
        }
        let tasks: Vec<(usize, &mut [T])> = self.items.chunks_mut(chunk).enumerate().collect();
        run_ordered(tasks, |(i, c)| f((i, c)));
    }
}

/// Entry points, attached to slices and `Vec`s via extension traits.
pub mod prelude {
    use super::*;

    /// `par_iter` on shared slices.
    pub trait IntoParRefIterator<'a> {
        /// Shared item type.
        type Item: 'a;
        /// A parallel iterator of `&Item`.
        fn par_iter(&'a self) -> ParIter<'a, Self::Item>;
    }

    /// `par_iter_mut` / `par_chunks_mut` on exclusive slices.
    pub trait IntoParMutIterator<'a> {
        /// Element type.
        type Item: 'a;
        /// A parallel iterator of `&mut Item`.
        fn par_iter_mut(&'a mut self) -> ParIterMut<'a, Self::Item>;
        /// A parallel iterator of `&mut [Item]` chunks of length `chunk`
        /// (last one possibly shorter).
        fn par_chunks_mut(&'a mut self, chunk: usize) -> ParChunksMut<'a, Self::Item>;
    }

    impl<'a, T: 'a> IntoParRefIterator<'a> for [T] {
        type Item = T;
        fn par_iter(&'a self) -> ParIter<'a, T> {
            ParIter { items: self }
        }
    }

    impl<'a, T: 'a> IntoParRefIterator<'a> for Vec<T> {
        type Item = T;
        fn par_iter(&'a self) -> ParIter<'a, T> {
            ParIter { items: self }
        }
    }

    impl<'a, T: 'a> IntoParMutIterator<'a> for [T] {
        type Item = T;
        fn par_iter_mut(&'a mut self) -> ParIterMut<'a, T> {
            ParIterMut { items: self }
        }
        fn par_chunks_mut(&'a mut self, chunk: usize) -> ParChunksMut<'a, T> {
            ParChunksMut { items: self, chunk }
        }
    }

    impl<'a, T: 'a> IntoParMutIterator<'a> for Vec<T> {
        type Item = T;
        fn par_iter_mut(&'a mut self) -> ParIterMut<'a, T> {
            ParIterMut { items: self }
        }
        fn par_chunks_mut(&'a mut self, chunk: usize) -> ParChunksMut<'a, T> {
            ParChunksMut { items: self, chunk }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{current_num_threads, fan_out, with_threads};

    #[test]
    fn map_collect_preserves_order() {
        let xs: Vec<u64> = (0..1000).collect();
        let ys: Vec<u64> = xs.par_iter().map(|&x| x * 2).collect();
        assert_eq!(ys, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn zip_mut_mutates_and_collects_in_order() {
        let mut xs: Vec<u64> = vec![0; 500];
        let seeds: Vec<u64> = (0..500).collect();
        let out: Vec<u64> = xs
            .par_iter_mut()
            .zip(seeds.par_iter())
            .map(|(x, &s)| {
                *x = s + 1;
                s * 10
            })
            .collect();
        assert_eq!(out, (0..500).map(|s| s * 10).collect::<Vec<_>>());
        assert_eq!(xs, (1..=500).collect::<Vec<_>>());
    }

    #[test]
    fn chunks_mut_enumerated() {
        let mut xs = vec![0u32; 103];
        xs.par_chunks_mut(10).enumerate().for_each(|(i, c)| {
            for v in c.iter_mut() {
                *v = i as u32;
            }
        });
        for (i, &v) in xs.iter().enumerate() {
            assert_eq!(v, (i / 10) as u32);
        }
    }

    #[test]
    fn single_and_empty_inputs() {
        let xs: Vec<u32> = vec![];
        let ys: Vec<u32> = xs.par_iter().map(|&x| x).collect();
        assert!(ys.is_empty());
        let one = [7u32];
        let ys: Vec<u32> = one.par_iter().map(|&x| x + 1).collect();
        assert_eq!(ys, vec![8]);
    }

    #[test]
    fn zip_ref_map_collect() {
        let a: Vec<u32> = (0..64).collect();
        let b: Vec<u32> = (0..64).map(|x| x * 3).collect();
        let out: Vec<u32> = a
            .par_iter()
            .zip(b.par_iter())
            .map(|(&x, &y)| x + y)
            .collect();
        assert_eq!(out, (0..64).map(|x| x * 4).collect::<Vec<_>>());
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let outside = current_num_threads();
        with_threads(3, || {
            assert_eq!(current_num_threads(), 3);
            with_threads(1, || assert_eq!(current_num_threads(), 1));
            assert_eq!(current_num_threads(), 3);
        });
        assert_eq!(current_num_threads(), outside);
        // Zero clamps to one rather than panicking.
        with_threads(0, || assert_eq!(current_num_threads(), 1));
    }

    #[test]
    fn with_threads_restores_on_unwind() {
        let outside = current_num_threads();
        let err = std::panic::catch_unwind(|| with_threads(5, || panic!("boom")));
        assert!(err.is_err());
        assert_eq!(current_num_threads(), outside);
    }

    #[test]
    fn task_partition_is_worker_count_independent() {
        for n in [0usize, 1, 5, 31, 32, 33, 100, 1000] {
            let base = with_threads(1, || fan_out(n, |r| r));
            for k in [2usize, 3, 7, 64] {
                let got = with_threads(k, || fan_out(n, |r| r));
                assert_eq!(got, base, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn panic_payload_survives_fan_out() {
        for k in [1usize, 4] {
            let err = std::panic::catch_unwind(|| {
                with_threads(k, || {
                    fan_out(100, |r| {
                        if r.contains(&50) {
                            panic!("original payload {}", r.start);
                        }
                        r.len()
                    })
                })
            })
            .expect_err("fan_out must propagate the panic");
            let msg = err
                .downcast_ref::<String>()
                .expect("payload is the formatted String, not a synthetic &str");
            assert!(msg.starts_with("original payload"), "got {msg:?}");
        }
    }

    #[test]
    fn panic_payload_survives_chunked_for_each() {
        let err = std::panic::catch_unwind(|| {
            with_threads(4, || {
                let mut xs = vec![0u32; 64];
                xs.par_chunks_mut(8).enumerate().for_each(|(i, _)| {
                    if i == 3 {
                        panic!("chunk {i} failed");
                    }
                });
            })
        })
        .expect_err("for_each must propagate the panic");
        assert_eq!(
            err.downcast_ref::<String>().map(String::as_str),
            Some("chunk 3 failed")
        );
    }

    #[test]
    fn ragged_and_empty_chunk_edges() {
        for k in [1usize, 2, 7] {
            with_threads(k, || {
                // Empty slice: no chunks, no calls.
                let mut empty: Vec<u32> = vec![];
                empty.par_chunks_mut(4).enumerate().for_each(|_| {
                    panic!("no chunks expected");
                });
                // Chunk larger than the slice: one ragged chunk.
                let mut xs = vec![1u32; 3];
                xs.par_chunks_mut(10).enumerate().for_each(|(i, c)| {
                    assert_eq!((i, c.len()), (0, 3));
                });
                // Ragged tail chunk keeps its index and short length.
                let mut ys = vec![0u32; 23];
                ys.par_chunks_mut(5).enumerate().for_each(|(i, c)| {
                    assert_eq!(c.len(), if i == 4 { 3 } else { 5 });
                    for v in c.iter_mut() {
                        *v = i as u32;
                    }
                });
                assert_eq!(ys[20..], [4, 4, 4]);
            });
        }
    }

    #[test]
    fn nested_fan_out_runs_inline_in_workers() {
        with_threads(4, || {
            let ids = fan_out(8, |_| {
                assert_eq!(
                    current_num_threads(),
                    1,
                    "inside a shim worker the budget must collapse to 1"
                );
                let outer = std::thread::current().id();
                // The inner fan-out must not spawn: every inner range
                // runs on the worker's own thread.
                fan_out(16, move |_| assert_eq!(std::thread::current().id(), outer));
                outer
            });
            assert_eq!(ids.len(), 8);
        });
    }
}
