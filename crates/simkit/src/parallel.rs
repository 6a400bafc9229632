//! A deterministic scoped worker pool for campaigns of independent
//! simulations.
//!
//! Every campaign — the 30-app sweep, the ablations, the
//! generalization grid and the fleet — maps item indices to runs:
//! [`ParallelRunner::run_batches`] hands indices out from one shared
//! atomic cursor to plain `std::thread::scope` workers, and each worker
//! folds its runs into a private accumulator. No external dependencies,
//! no unsafe code.
//!
//! # Determinism
//!
//! Two rules keep parallel output byte-identical to serial output:
//!
//! 1. **Seeds never depend on scheduling.** The fold receives the item's
//!    *index*; any randomness must derive from that index (see
//!    [`derive_seed`]), never from worker identity, completion order or
//!    wall-clock time.
//! 2. **Results never depend on which worker folded them.** Accumulators
//!    either merge commutatively and associatively (mergeable sketches)
//!    or keep `(index, result)` pairs that the caller sorts back into
//!    index order.
//!
//! With `jobs = 1` the pool is bypassed entirely and every index folds on
//! the calling thread in ascending order — the exact serial path.
//!
//! # Examples
//!
//! ```
//! use ccdem_simkit::parallel::ParallelRunner;
//!
//! // Four workers, one index per claim; each keeps (index, square) pairs.
//! let partials = ParallelRunner::new(4).run_batches(0..100, 1, Vec::new, |done, i| {
//!     done.push((i, i * i));
//! });
//! let mut squares: Vec<(u64, u64)> = partials.into_iter().flatten().collect();
//! squares.sort_unstable();
//! assert_eq!(squares[7], (7, 49));
//! assert_eq!(squares.len(), 100);
//! ```

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Derives a per-run seed as a pure function of a root seed and a stream
/// index. Uses the SplitMix64 finalizer, so nearby indices yield
/// uncorrelated seeds.
///
/// This is the seeding scheme behind every parallel sweep: the seed for
/// run `i` depends only on `(root_seed, i)` — never on which worker
/// executes it or when — so a parallel sweep replays the exact runs a
/// serial sweep would.
///
/// # Examples
///
/// ```
/// use ccdem_simkit::parallel::derive_seed;
///
/// assert_eq!(derive_seed(9, 3), derive_seed(9, 3));
/// assert_ne!(derive_seed(9, 3), derive_seed(9, 4));
/// ```
pub fn derive_seed(root_seed: u64, stream: u64) -> u64 {
    let mut z = root_seed
        .rotate_left(17)
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The number of worker threads the host supports, with a floor of one.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// A fixed-width scoped worker pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelRunner {
    jobs: usize,
}

impl Default for ParallelRunner {
    /// A runner using every available core.
    fn default() -> Self {
        ParallelRunner::new(0)
    }
}

impl ParallelRunner {
    /// A runner with `jobs` workers; `0` means "all available cores" and
    /// `1` means "run serially on the calling thread".
    pub fn new(jobs: usize) -> ParallelRunner {
        ParallelRunner {
            jobs: if jobs == 0 {
                available_parallelism()
            } else {
                jobs
            },
        }
    }

    /// The worker count this runner resolves to (always ≥ 1).
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Streams the item indices in `range` through per-worker
    /// accumulators without materializing items or results: workers
    /// claim fixed-size batches of indices from a shared atomic cursor
    /// (work stealing — a fast worker simply claims more batches), call
    /// `fold(acc, index)` for every index of each claimed batch in
    /// ascending order, and the per-worker accumulators come back when
    /// the range is exhausted. Memory is **O(workers)** accumulators —
    /// never O(items) — and the only in-flight work is one batch per
    /// worker.
    ///
    /// This is the one dispatch loop under every campaign: `fold`
    /// derives the item from its index (see [`derive_seed`]), runs it,
    /// and folds the result into the accumulator, so a million-item
    /// fleet needs neither a `Vec<T>` of specs nor a `Vec<R>` of
    /// results. Campaigns of tens of whole simulations (the sweep, the
    /// ablations) pass a `batch_size` of 1, so no worker waits while
    /// another holds a claimed but unstarted run, and keep
    /// `(index, result)` pairs in the accumulator.
    ///
    /// # Determinism
    ///
    /// Which indices share an accumulator — and the order of the
    /// returned partials — depends on scheduling. The per-index work is
    /// deterministic (indices are pure inputs), so the *multiset* of
    /// folded results is not; callers therefore need an accumulator
    /// whose merge is commutative and associative (e.g. mergeable
    /// sketches), or one that records each result's index, for the
    /// combined final state to be independent of worker count and steal
    /// order. With one worker the whole range folds into a single
    /// accumulator in ascending index order on the calling thread — the
    /// exact serial path.
    ///
    /// `batch_size` is clamped to at least 1. An empty range returns no
    /// accumulators.
    ///
    /// # Panics
    ///
    /// Propagates the first panic raised by `init` or `fold` (after all
    /// workers stop).
    pub fn run_batches<A, I, F>(
        &self,
        range: Range<u64>,
        batch_size: u64,
        init: I,
        fold: F,
    ) -> Vec<A>
    where
        A: Send,
        I: Fn() -> A + Sync,
        F: Fn(&mut A, u64) + Sync,
    {
        let total = range.end.saturating_sub(range.start);
        if total == 0 {
            return Vec::new();
        }
        let batch = batch_size.max(1);
        let n_batches = total.div_ceil(batch);
        let jobs = (self.jobs as u64).min(n_batches).max(1);
        if jobs == 1 {
            let mut acc = init();
            for index in range {
                fold(&mut acc, index);
            }
            return vec![acc];
        }

        let cursor = AtomicU64::new(0);
        let partials: Mutex<Vec<A>> = Mutex::new(Vec::with_capacity(jobs as usize));
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| {
                    // Built on first claim so workers that never win a
                    // batch never pay for an accumulator.
                    let mut acc: Option<A> = None;
                    loop {
                        let claimed = cursor.fetch_add(1, Ordering::Relaxed);
                        if claimed >= n_batches {
                            break;
                        }
                        let start = range.start + claimed * batch;
                        let end = (start + batch).min(range.end);
                        let acc = acc.get_or_insert_with(&init);
                        for index in start..end {
                            fold(acc, index);
                        }
                    }
                    if let Some(acc) = acc {
                        // ccdem-lint: allow(panic) — poisoned lock means a
                        // worker already panicked; re-raising is correct
                        partials.lock().expect("partials poisoned").push(acc);
                    }
                });
            }
        });
        partials
            .into_inner()
            // ccdem-lint: allow(panic) — poisoned lock re-raises a worker
            // panic after the scope has joined every thread
            .expect("partials poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn zero_jobs_resolves_to_available_parallelism() {
        let runner = ParallelRunner::new(0);
        assert_eq!(runner.jobs(), available_parallelism());
        assert!(runner.jobs() >= 1);
    }

    #[test]
    fn actually_uses_multiple_threads() {
        use std::collections::HashSet;
        let partials = ParallelRunner::new(4).run_batches(
            0..64,
            1,
            HashSet::new,
            |ids: &mut HashSet<std::thread::ThreadId>, _| {
                ids.insert(std::thread::current().id());
                std::thread::sleep(std::time::Duration::from_millis(1));
            },
        );
        let ids: HashSet<_> = partials.into_iter().flatten().collect();
        assert!(ids.len() > 1, "expected more than one worker thread");
    }

    #[test]
    fn run_batches_folds_every_index_once_for_any_worker_count() {
        for jobs in [1, 2, 3, 8] {
            for batch in [1, 7, 64, 1000] {
                let partials = ParallelRunner::new(jobs).run_batches(
                    10..523,
                    batch,
                    || (0u64, 0u64), // (sum, count)
                    |acc, i| {
                        acc.0 += derive_seed(99, i) >> 32;
                        acc.1 += 1;
                    },
                );
                assert!(partials.len() <= jobs.max(1));
                let count: u64 = partials.iter().map(|p| p.1).sum();
                assert_eq!(count, 513, "jobs={jobs} batch={batch}");
                // A commutative-associative fold combines to the same
                // value regardless of worker count and steal order.
                let sum: u64 = partials.iter().map(|p| p.0).sum();
                let serial: u64 = (10..523).map(|i| derive_seed(99, i) >> 32).sum();
                assert_eq!(sum, serial, "jobs={jobs} batch={batch}");
            }
        }
    }

    #[test]
    fn run_batches_serial_visits_ascending_on_one_accumulator() {
        let partials =
            ParallelRunner::new(1)
                .run_batches(5..12, 3, Vec::new, |seen: &mut Vec<u64>, i| seen.push(i));
        assert_eq!(partials, vec![(5..12).collect::<Vec<u64>>()]);
    }

    #[test]
    fn run_batches_visits_batches_ascending_within_each_worker_claim() {
        // Every worker must see each claimed batch's indices in
        // ascending order, with no index outside the range.
        let partials =
            ParallelRunner::new(4)
                .run_batches(0..1024, 32, Vec::new, |seen: &mut Vec<u64>, i| seen.push(i));
        let mut all: Vec<u64> = Vec::new();
        for worker in &partials {
            for pair in worker.windows(2) {
                // Within one worker, order jumps only at batch
                // boundaries; inside a batch it is ascending by one.
                assert!(pair[1] == pair[0] + 1 || pair[1] % 32 == 0);
            }
            all.extend_from_slice(worker);
        }
        all.sort_unstable();
        assert_eq!(all, (0..1024).collect::<Vec<u64>>());
    }

    #[test]
    fn run_batches_empty_range_returns_no_accumulators() {
        let partials = ParallelRunner::new(4).run_batches(7..7, 16, || 0u64, |acc, i| *acc += i);
        assert!(partials.is_empty());
    }

    #[test]
    fn run_batches_never_materializes_items_and_caps_accumulators() {
        // 100k indices, zero per-item storage: only per-worker
        // accumulators exist, and at most `jobs` of them.
        let inits = AtomicUsize::new(0);
        let partials = ParallelRunner::new(4).run_batches(
            0..100_000,
            1024,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0u64
            },
            |acc, _| *acc += 1,
        );
        assert_eq!(partials.iter().sum::<u64>(), 100_000);
        let states = inits.load(Ordering::Relaxed);
        assert!(
            (1..=4).contains(&states),
            "lazy init must cap accumulators at the worker count, got {states}"
        );
        assert_eq!(partials.len(), states);
    }

    #[test]
    fn derive_seed_is_pure_and_spread() {
        let seeds: Vec<u64> = (0..64).map(|i| derive_seed(42, i)).collect();
        let distinct: std::collections::BTreeSet<u64> = seeds.iter().copied().collect();
        assert_eq!(distinct.len(), seeds.len(), "seed collisions");
        assert_eq!(
            seeds,
            (0..64).map(|i| derive_seed(42, i)).collect::<Vec<_>>()
        );
        // Root seeds must matter too.
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
    }
}
