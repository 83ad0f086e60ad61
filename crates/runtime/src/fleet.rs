//! Deterministic multi-threaded fleet execution.
//!
//! Fleet-scale evaluation (many scenarios × seeds × goal variants) is
//! embarrassingly parallel: every shard owns its own seeded RNG, its own
//! plant, and its own [`ControlPlane`](crate::ControlPlane), so shards
//! never share mutable state. The [`FleetExecutor`] exploits that: it
//! shards a work-item list across `std::thread::scope` workers and
//! merges results back **in work-item order**, so the output is
//! byte-identical whether it ran on 1 thread or N — parallelism is a
//! pure wall-clock optimization, never an observable behavior change.

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Condvar, Mutex};
use std::thread;

/// Shards work items across a fixed pool of scoped worker threads and
/// merges the results deterministically.
///
/// Workers claim items from a shared atomic cursor (dynamic scheduling,
/// so one slow shard does not idle the rest of the pool), but each
/// result is keyed by its item index and folded in item order
/// ([`FleetExecutor::fold`]; [`FleetExecutor::execute`] folds into a
/// `Vec`). As long as the shard function is a pure function of
/// `(index, item)`, the output is identical at any thread count.
///
/// # Example
///
/// ```
/// use smartconf_runtime::{shard_seed, FleetExecutor};
///
/// let items: Vec<u64> = (0..100).collect();
/// let run = |i: usize, seed: &u64| shard_seed(*seed, i as u64) % 97;
/// let serial = FleetExecutor::new(1).execute(&items, run);
/// let parallel = FleetExecutor::new(8).execute(&items, run);
/// assert_eq!(serial, parallel); // byte-identical at 1 vs 8 threads
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetExecutor {
    threads: NonZeroUsize,
    /// Claim granularity override; `None` picks an adaptive chunk per
    /// [`FleetExecutor::fold`] call.
    chunk: Option<NonZeroUsize>,
}

impl FleetExecutor {
    /// Creates an executor with the given worker count.
    ///
    /// The count is clamped to ≥ 1: `new(0)` behaves exactly like
    /// `new(1)` (a serial executor), it does not panic. There is no
    /// upper clamp — `new(usize::MAX)` is accepted and
    /// [`FleetExecutor::threads`] reports it verbatim — because
    /// [`FleetExecutor::fold`] never spawns more workers than there
    /// are work items, so an oversized executor costs nothing.
    ///
    /// ```
    /// use smartconf_runtime::FleetExecutor;
    ///
    /// assert_eq!(FleetExecutor::new(0).threads(), 1); // clamped
    /// assert_eq!(FleetExecutor::new(usize::MAX).threads(), usize::MAX);
    /// ```
    pub fn new(threads: usize) -> Self {
        FleetExecutor {
            threads: NonZeroUsize::new(threads.max(1)).expect("max(1) is non-zero"),
            chunk: None,
        }
    }

    /// Overrides the claim granularity: workers advance the shared
    /// cursor by `chunk` items per claim instead of the adaptive
    /// default. A chunk of 0 is clamped to 1; oversized chunks (up to
    /// `usize::MAX`) are capped at the item count per `fold` call.
    ///
    /// Chunking only changes *which worker* runs an item, never the
    /// merged output order, so results stay byte-identical at any
    /// `(threads, chunk)` combination.
    #[must_use]
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        self.chunk = Some(NonZeroUsize::new(chunk.max(1)).expect("max(1) is non-zero"));
        self
    }

    /// An executor sized to the machine: one worker per available core
    /// (falling back to 1 when parallelism cannot be queried).
    pub fn available_parallelism() -> Self {
        FleetExecutor::new(thread::available_parallelism().map_or(1, NonZeroUsize::get))
    }

    /// Worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads.get()
    }

    /// Maps `run` over `items` on the worker pool and returns the
    /// results in item order: [`FleetExecutor::fold`] into a `Vec`, so
    /// every output is kept until the call returns.
    ///
    /// `run` receives the item's index alongside the item so shards can
    /// derive per-shard seeds (see [`shard_seed`]).
    ///
    /// # Panics
    ///
    /// Propagates a panic from any worker after all workers finish.
    pub fn execute<I, O, F>(&self, items: &[I], run: F) -> Vec<O>
    where
        I: Sync,
        O: Send,
        F: Fn(usize, &I) -> O + Sync,
    {
        self.fold(items, Vec::with_capacity(items.len()), run, |out, _, o| {
            out.push(o)
        })
    }

    /// Maps `run` over `items` on the worker pool and folds each output
    /// into the caller's accumulator `acc` with `step(&mut acc, index,
    /// output)`, in item order, as soon as every earlier item has been
    /// folded. The result is therefore identical at any thread count
    /// and chunk size whenever `run` is a pure function of
    /// `(index, item)`.
    ///
    /// Memory is proportional to the outputs in flight, not to the item
    /// count: a single-thread executor is a plain serial loop holding
    /// one output at a time. With N workers, each finished output is
    /// sent over a channel to the calling thread, which runs `step` and
    /// parks out-of-order outputs in a reorder buffer; a worker starts
    /// a claim only while fewer than `workers` claims before it are
    /// unfolded, so at most `workers × chunk` outputs exist at once.
    ///
    /// ```
    /// use smartconf_runtime::FleetExecutor;
    ///
    /// let items: Vec<u64> = (1..=100).collect();
    /// let sum = |threads| {
    ///     FleetExecutor::new(threads).fold(&items, 0u64, |_, &x| x * x, |acc, _, sq| *acc += sq)
    /// };
    /// assert_eq!(sum(1), 338_350);
    /// assert_eq!(sum(4), sum(1));
    /// ```
    ///
    /// # Panics
    ///
    /// Propagates a panic from any worker after all workers finish,
    /// and a panic from `step` once the workers have stopped.
    pub fn fold<I, O, A, F, G>(&self, items: &[I], mut acc: A, run: F, mut step: G) -> A
    where
        I: Sync,
        O: Send,
        F: Fn(usize, &I) -> O + Sync,
        G: FnMut(&mut A, usize, O),
    {
        if self.threads.get() == 1 || items.len() <= 1 {
            for (i, item) in items.iter().enumerate() {
                step(&mut acc, i, run(i, item));
            }
            return acc;
        }
        let workers = self.threads.get().min(items.len());
        // Workers claim a chunk of consecutive items per cursor bump
        // instead of one, amortizing the shared-cacheline traffic. The
        // adaptive default leaves ~4 claims per worker so dynamic
        // scheduling still balances uneven shard costs; the cap at the
        // item count keeps a claim's first item far from overflow even
        // with a `usize::MAX` chunk override.
        let chunk = match self.chunk {
            Some(c) => c.get(),
            None => (items.len() / (workers * 4)).max(1),
        }
        .min(items.len());
        let cursor = AtomicUsize::new(0);
        let window = Window::new(workers);
        thread::scope(|scope| {
            let (tx, rx) = mpsc::channel();
            for _ in 0..workers {
                let (tx, cursor, window, run) = (tx.clone(), &cursor, &window, &run);
                scope.spawn(move || {
                    let _open = OpenOnUnwind(window);
                    loop {
                        // The cursor only hands out claim numbers; it
                        // publishes no other data.
                        let claim = cursor.fetch_add(1, Ordering::Relaxed);
                        let start = claim.saturating_mul(chunk);
                        if start >= items.len() {
                            break;
                        }
                        window.admit(claim);
                        for (i, item) in items
                            .iter()
                            .enumerate()
                            .take(start.saturating_add(chunk))
                            .skip(start)
                        {
                            if tx.send((i, run(i, item))).is_err() {
                                return; // the calling thread is unwinding
                            }
                        }
                    }
                });
            }
            drop(tx);
            let _open = OpenOnUnwind(&window);
            // `pending[k]` holds the output of item `next + k`.
            let mut pending: VecDeque<Option<O>> = VecDeque::new();
            let mut next = 0;
            for (i, out) in rx {
                let slot = i - next;
                if pending.len() <= slot {
                    pending.resize_with(slot + 1, || None);
                }
                pending[slot] = Some(out);
                while let Some(out) = pending.front_mut().and_then(Option::take) {
                    pending.pop_front();
                    step(&mut acc, next, out);
                    next += 1;
                    if next % chunk == 0 {
                        window.advance(next / chunk);
                    }
                }
            }
        });
        acc
    }
}

/// The ordered fold's backpressure: claim `k` may start only once
/// `k < folded + workers`, where `folded` counts the claims folded so
/// far, so at most `workers` claims are ever started and unfolded.
struct Window {
    folded: Mutex<usize>,
    moved: Condvar,
    workers: usize,
}

impl Window {
    fn new(workers: usize) -> Window {
        Window {
            folded: Mutex::new(0),
            moved: Condvar::new(),
            workers,
        }
    }

    /// Blocks until claim `claim` is inside the window.
    fn admit(&self, claim: usize) {
        let folded = self
            .folded
            .lock()
            .expect("no thread panics holding the window lock");
        let _admitted = self
            .moved
            .wait_while(folded, |f| claim >= f.saturating_add(self.workers))
            .expect("no thread panics holding the window lock");
    }

    /// Records that the first `folded` claims are folded. The count
    /// only grows, so an opened window stays open.
    fn advance(&self, folded: usize) {
        if let Ok(mut f) = self.folded.lock() {
            *f = folded.max(*f);
        }
        self.moved.notify_all();
    }
}

/// A guard that opens the window for good if its thread unwinds, so no
/// thread waits forever on a fold that can no longer advance; the other
/// workers run out the remaining claims and the scope then re-raises
/// the panic.
struct OpenOnUnwind<'a>(&'a Window);

impl Drop for OpenOnUnwind<'_> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.0.advance(usize::MAX);
        }
    }
}

/// Derives a per-shard RNG seed from a base seed and a work-item index.
///
/// Uses a SplitMix64 finalizer so neighboring indices produce
/// well-separated seeds (index `i` and `i+1` differ in ~half their
/// bits), while staying a pure function of `(base, index)` — the
/// property fleet determinism rests on.
///
/// ```
/// use smartconf_runtime::shard_seed;
///
/// assert_eq!(shard_seed(42, 3), shard_seed(42, 3));
/// assert_ne!(shard_seed(42, 3), shard_seed(42, 4));
/// ```
#[inline]
pub fn shard_seed(base: u64, index: u64) -> u64 {
    let mut z = base
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    proptest::proptest! {
        /// Satellite property: the executor's output is a pure function
        /// of the work items — identical at 1, 2, and 8 worker threads.
        #[test]
        fn executor_output_is_identical_across_thread_counts(
            items in proptest::collection::vec(0u64..u64::MAX, 0..50),
            base in 0u64..u64::MAX,
        ) {
            let run = |threads: usize| {
                FleetExecutor::new(threads).execute(&items, |i, &x| shard_seed(base, i as u64) ^ x)
            };
            let reference = run(1);
            proptest::prop_assert_eq!(&run(2), &reference);
            proptest::prop_assert_eq!(&run(8), &reference);
        }
    }

    proptest::proptest! {
        /// Satellite property: chunked claiming (1, 4, 16, usize::MAX)
        /// yields exactly the serial reference output order, for ragged
        /// item counts — empty, singleton, fewer items than workers, and
        /// many more items than workers.
        #[test]
        fn chunked_claiming_matches_serial_reference(
            count_pick in 0usize..4,
            threads in 2usize..9,
            base in 0u64..u64::MAX,
        ) {
            let count = [0usize, 1, 3, 97][count_pick]; // workers come from 2..9
            let items: Vec<u64> = (0..count as u64).collect();
            let run = |i: usize, x: &u64| shard_seed(base, i as u64) ^ *x;
            let reference = FleetExecutor::new(1).execute(&items, run);
            for chunk in [1usize, 4, 16, usize::MAX] {
                let out = FleetExecutor::new(threads).with_chunk(chunk).execute(&items, run);
                proptest::prop_assert_eq!(&out, &reference, "chunk {}", chunk);
            }
            // The adaptive default must agree too.
            let adaptive = FleetExecutor::new(threads).execute(&items, run);
            proptest::prop_assert_eq!(&adaptive, &reference);
        }
    }

    proptest::proptest! {
        /// The ordered fold equals the serial fold — an order-sensitive
        /// accumulator over every `(index, output)` — at 1/2/3/8
        /// threads and under every chunk override, for ragged counts.
        #[test]
        fn fold_matches_the_serial_fold(
            count_pick in 0usize..5,
            base in 0u64..u64::MAX,
        ) {
            let count = [0usize, 1, 2, 7, 97][count_pick];
            let items: Vec<u64> = (0..count as u64).collect();
            let run = |i: usize, x: &u64| shard_seed(base, i as u64) ^ *x;
            // Order-sensitive: a hash chain over the outputs plus the
            // index sequence `step` saw.
            let step = |acc: &mut (u64, Vec<usize>), i: usize, out: u64| {
                acc.0 = acc.0.wrapping_mul(0x100_0000_01B3) ^ out;
                acc.1.push(i);
            };
            let mut serial = (0, Vec::new());
            for (i, x) in items.iter().enumerate() {
                step(&mut serial, i, run(i, x));
            }
            for threads in [1usize, 2, 3, 8] {
                let exec = FleetExecutor::new(threads);
                for exec in [exec, exec.with_chunk(1), exec.with_chunk(3), exec.with_chunk(usize::MAX)] {
                    let folded = exec.fold(&items, (0, Vec::new()), run, step);
                    proptest::prop_assert_eq!(&folded, &serial, "{:?}", exec);
                }
            }
        }
    }

    /// An output that counts how many of its kind are alive at once.
    struct Counted<'a> {
        live: &'a AtomicUsize,
        peak: &'a AtomicUsize,
    }

    impl<'a> Counted<'a> {
        fn new(live: &'a AtomicUsize, peak: &'a AtomicUsize) -> Self {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            Counted { live, peak }
        }
    }

    impl Drop for Counted<'_> {
        fn drop(&mut self) {
            self.live.fetch_sub(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn serial_fold_holds_one_output_at_a_time() {
        let (live, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let items: Vec<u64> = (0..40).collect();
        let folded = FleetExecutor::new(1).fold(
            &items,
            0,
            |_, _| Counted::new(&live, &peak),
            |n, _, out| {
                assert!(std::ptr::eq(out.peak, &peak));
                *n += 1;
            },
        );
        assert_eq!(folded, 40);
        assert_eq!(peak.load(Ordering::SeqCst), 1);
        assert_eq!(live.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn parallel_fold_holds_at_most_workers_times_chunk_outputs() {
        for (threads, chunk) in [(2usize, 1usize), (3, 1), (3, 4), (4, 2)] {
            let (live, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let made = (Mutex::new(0usize), Condvar::new());
            let items: Vec<u64> = (0..60).collect();
            // Item 0 finishes only after every other claim the window
            // admits has produced its outputs, so the calling thread must
            // buffer all of them: the worst case the bound allows.
            let others = (threads - 1) * chunk;
            let folded = FleetExecutor::new(threads).with_chunk(chunk).fold(
                &items,
                Vec::new(),
                |i, _| {
                    if i == 0 {
                        let n = made.0.lock().unwrap();
                        let timeout = std::time::Duration::from_secs(10);
                        drop(
                            made.1
                                .wait_timeout_while(n, timeout, |n| *n < others)
                                .unwrap(),
                        );
                    }
                    let out = Counted::new(&live, &peak);
                    *made.0.lock().unwrap() += 1;
                    made.1.notify_all();
                    out
                },
                |order, i, _| order.push(i),
            );
            assert_eq!(folded, (0..60).collect::<Vec<_>>());
            assert_eq!(live.load(Ordering::SeqCst), 0);
            let peak = peak.load(Ordering::SeqCst);
            assert!(
                peak <= threads * chunk,
                "{threads}x{chunk}: {peak} outputs alive at once"
            );
            assert!(
                peak > others,
                "{threads}x{chunk}: the forced reorder did not happen"
            );
        }
    }

    #[test]
    fn panics_propagate_instead_of_stalling_the_window() {
        let items: Vec<u64> = (0..64).collect();
        let exec = FleetExecutor::new(3).with_chunk(1);
        // A worker panics while later claims wait on the window.
        let worker = std::panic::catch_unwind(|| {
            exec.fold(
                &items,
                0,
                |i, &x| if i == 5 { panic!("item 5") } else { x },
                |n, _, x| *n += x,
            )
        });
        assert!(worker.is_err());
        // `step` panics on the calling thread while workers are blocked.
        let step = std::panic::catch_unwind(|| {
            exec.fold(
                &items,
                0,
                |_, &x| x,
                |n, i, x| if i == 5 { panic!("step 5") } else { *n += x },
            )
        });
        assert!(step.is_err());
    }

    #[test]
    fn results_come_back_in_item_order() {
        let items: Vec<u64> = (0..64).collect();
        let out = FleetExecutor::new(4).execute(&items, |i, &x| {
            // Stagger finish order so late items complete before early ones.
            if i % 7 == 0 {
                thread::sleep(std::time::Duration::from_millis(2));
            }
            x * 10
        });
        assert_eq!(out, (0..64).map(|x| x * 10).collect::<Vec<_>>());
    }

    #[test]
    fn thread_count_does_not_change_output() {
        let items: Vec<u64> = (0..50).collect();
        let run = |i: usize, seed: &u64| shard_seed(*seed, i as u64);
        let reference = FleetExecutor::new(1).execute(&items, run);
        for threads in [2, 3, 8, 32] {
            assert_eq!(FleetExecutor::new(threads).execute(&items, run), reference);
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let exec = FleetExecutor::new(8);
        assert_eq!(exec.execute(&[] as &[u64], |_, &x| x), Vec::<u64>::new());
        assert_eq!(exec.execute(&[9u64], |i, &x| x + i as u64), vec![9]);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(FleetExecutor::new(0).threads(), 1);
        assert_eq!(FleetExecutor::new(0), FleetExecutor::new(1));
    }

    #[test]
    fn usize_max_threads_is_capped_by_item_count() {
        // The clamp has no upper bound, but execute() spawns at most one
        // worker per item — so a usize::MAX executor must not try to
        // spawn usize::MAX threads (it would abort the process).
        let exec = FleetExecutor::new(usize::MAX);
        assert_eq!(exec.threads(), usize::MAX);
        let items: Vec<u64> = (0..6).collect();
        let out = exec.execute(&items, |i, &x| x + i as u64);
        assert_eq!(out, vec![0, 2, 4, 6, 8, 10]);
    }

    #[test]
    fn shard_seeds_are_well_separated() {
        let a = shard_seed(42, 0);
        let b = shard_seed(42, 1);
        assert_ne!(a, b);
        // Different bases must decorrelate too.
        assert_ne!(shard_seed(1, 5), shard_seed(2, 5));
    }
}
