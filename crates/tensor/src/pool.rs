//! Deterministic row-parallel execution on one persistent worker pool.
//!
//! Every parallel kernel in this workspace follows one rule: a worker owns a
//! contiguous band of *output rows* and nothing else ever writes them. Each
//! output element is therefore produced by exactly one thread running exactly
//! the same per-element accumulation loop as the serial code, so results are
//! **bitwise identical** for every thread count (see DESIGN.md §5).
//!
//! Thread count resolution, first match wins:
//!
//! 1. [`set_threads`] (programmatic override, used by tests/benches),
//! 2. the `FUIOV_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! Steps 2–3 are resolved once per process; the override is read on every
//! call, so [`set_threads`] takes effect at any time.
//!
//! A count of 1 runs the kernel inline on the caller's thread — no workers,
//! no synchronisation — which is also the fallback whenever the work is too
//! small to amortise a hand-off.
//!
//! # The pool
//!
//! Workers are started lazily by the first call that needs them, grow when a
//! call needs more than exist, and live for the rest of the process. A
//! parallel call queues bands `1..n`, wakes one parked worker per band and
//! runs band 0 itself; once band 0 is done it runs any of its own bands no
//! worker has picked up yet, then sleeps until the rest finish. Idle workers
//! park on a condition variable: nothing spins.
//!
//! - **Nesting.** A parallel call made from inside a pool task (a band run
//!   by a worker or by the dispatching caller) runs inline on that thread as
//!   one band. Banding never changes bits, so the result is the same, and
//!   no task ever blocks on the pool.
//! - **Panics.** A panic in any band is caught; the dispatching call waits
//!   for its other bands and then resumes the first panic on the caller's
//!   thread. The worker that caught it goes back to the pool.
//! - **Concurrent callers.** Any number of threads may dispatch at once;
//!   bands from different calls share one FIFO queue, and every caller can
//!   finish its own queued bands itself, so no call waits on another.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Programmatic override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the worker count for subsequent kernels (`0` clears the
/// override and returns resolution to `FUIOV_THREADS` / hardware).
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// Resolved worker count (always ≥ 1).
pub fn threads() -> usize {
    let o = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if o > 0 {
        return o;
    }
    static RESOLVED: OnceLock<usize> = OnceLock::new();
    *RESOLVED.get_or_init(|| {
        std::env::var("FUIOV_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

thread_local! {
    /// Set while this thread runs a pool task (always, on a worker).
    static IN_TASK: Cell<bool> = const { Cell::new(false) };
}

/// Width a call made on this thread may use: [`threads`], or 1 inside a
/// pool task (nested calls run inline).
fn width() -> usize {
    if IN_TASK.with(Cell::get) {
        1
    } else {
        threads()
    }
}

/// One parallel call: a type-erased band runner on the dispatching
/// thread's stack. The dispatcher does not return before `pending` reaches
/// zero, which is what makes the erased lifetime sound.
struct Job {
    task: *const (dyn Fn(usize) + Sync + 'static),
    /// Queued or running bands other than the caller's band 0. Read and
    /// written only under the pool lock, whose acquire/release orders every
    /// access (and the `panic` store before it), so `Relaxed` suffices.
    pending: AtomicUsize,
    /// First panic caught in a band.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// A queued band of some [`Job`].
struct Band {
    job: *const Job,
    index: usize,
}

// SAFETY: a `Band` only travels to pool threads while its job's dispatcher
// is blocked waiting for it (see `Job`); the task it points at is `Sync`.
unsafe impl Send for Band {}

struct State {
    queue: VecDeque<Band>,
    workers: usize,
}

struct Pool {
    state: Mutex<State>,
    /// Workers park here while the queue is empty.
    work: Condvar,
    /// Dispatchers sleep here until their job's last band finishes.
    done: Condvar,
}

static POOL: Pool = Pool {
    state: Mutex::new(State {
        queue: VecDeque::new(),
        workers: 0,
    }),
    work: Condvar::new(),
    done: Condvar::new(),
};

fn lock() -> MutexGuard<'static, State> {
    // Tasks run outside the lock and their panics are caught, so poisoning
    // can only come from a bug in this module; the state stays consistent.
    POOL.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs band `index` of `job` on this thread as a pool task, recording a
/// panic instead of unwinding.
fn run_band(job: &Job, index: usize) {
    // SAFETY: the dispatcher keeps the task alive until `pending` is zero.
    let task = unsafe { &*job.task };
    if let Err(payload) = run_as_task(|| task(index)) {
        job.panic
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get_or_insert(payload);
    }
}

fn run_as_task(f: impl FnOnce()) -> std::thread::Result<()> {
    let was = IN_TASK.with(|t| t.replace(true));
    let out = panic::catch_unwind(AssertUnwindSafe(f));
    IN_TASK.with(|t| t.set(was));
    out
}

/// Marks one band of `job` finished; the guard proves the pool lock is
/// held. Must be the caller's last touch of the job: once `pending` hits
/// zero its dispatcher may return.
fn finish_band(_locked: &MutexGuard<'static, State>, job: *const Job) {
    // SAFETY: `pending` is still positive, so the dispatcher is waiting.
    let job = unsafe { &*job };
    if job.pending.fetch_sub(1, Ordering::Relaxed) == 1 {
        POOL.done.notify_all();
    }
}

fn worker_loop() {
    IN_TASK.with(|t| t.set(true));
    let mut state = lock();
    loop {
        match state.queue.pop_front() {
            Some(band) => {
                drop(state);
                // SAFETY: a queued band's job outlives the band.
                run_band(unsafe { &*band.job }, band.index);
                state = lock();
                finish_band(&state, band.job);
            }
            None => {
                state = POOL
                    .work
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner)
            }
        }
    }
}

/// Starts workers until `n` exist. A failed spawn is not an error: the
/// dispatcher runs whatever no worker takes. Workers are detached on
/// purpose — they serve the process until it exits — and their loop never
/// unwinds, because every task's panic is caught and handed to its caller.
fn ensure_workers(state: &mut State, n: usize) {
    while state.workers < n {
        let spawned = std::thread::Builder::new()
            .name(format!("fuiov-pool-{}", state.workers))
            .spawn(worker_loop);
        if spawned.is_err() {
            return;
        }
        state.workers += 1;
    }
}

/// Runs `task(0..bands)` across the pool, band 0 on the calling thread,
/// and returns once every band has finished, resuming the first panic.
fn run_bands(bands: usize, task: &(dyn Fn(usize) + Sync)) {
    if bands <= 1 || IN_TASK.with(Cell::get) {
        (0..bands).for_each(task);
        return;
    }
    // SAFETY: only the lifetime is erased; this function does not return
    // (or unwind) until every band that could reach the pointer is done.
    let task: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(task) };
    let job = Job {
        task,
        pending: AtomicUsize::new(bands - 1),
        panic: Mutex::new(None),
    };
    let me: *const Job = &job;
    {
        let mut state = lock();
        ensure_workers(&mut state, bands - 1);
        state
            .queue
            .extend((1..bands).map(|index| Band { job: me, index }));
    }
    for _ in 1..bands {
        POOL.work.notify_one();
    }
    let first = run_as_task(|| task(0));
    let mut state = lock();
    while job.pending.load(Ordering::Relaxed) > 0 {
        match state.queue.iter().position(|b| std::ptr::eq(b.job, me)) {
            Some(pos) => {
                let band = state.queue.remove(pos).expect("position is in range");
                drop(state);
                run_band(&job, band.index);
                state = lock();
                finish_band(&state, me);
            }
            None => {
                state = POOL
                    .done
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner)
            }
        }
    }
    drop(state);
    if let Err(payload) = first {
        panic::resume_unwind(payload);
    }
    if let Some(payload) = job
        .panic
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        panic::resume_unwind(payload);
    }
}

/// Splits `data` (`items` consecutive chunks of `unit` elements) into
/// `workers` contiguous bands — worker i gets base(+1) items, the earliest
/// take the remainder — and runs `body(item_range, band)` on each.
fn par_chunks<T, F>(data: &mut [T], items: usize, unit: usize, workers: usize, body: F)
where
    T: Send,
    F: Fn(Range<usize>, &mut [T]) + Sync,
{
    if workers <= 1 {
        body(0..items, data);
        return;
    }
    let base = items / workers;
    let rem = items % workers;
    let mut slots = Vec::with_capacity(workers);
    let mut rest = data;
    let mut start = 0usize;
    for w in 0..workers {
        let n = base + usize::from(w < rem);
        let (band, tail) = rest.split_at_mut(n * unit);
        slots.push(Mutex::new(Some((start..start + n, band))));
        rest = tail;
        start += n;
    }
    run_bands(workers, &|i| {
        let (range, band) = slots[i]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .expect("each band runs once");
        body(range, band);
    });
}

/// Minimum per-worker share of output elements before a hand-off to the
/// pool is worth it; below this, run serial.
const MIN_ELEMS_PER_WORKER: usize = 16 * 1024;

/// Splits `out` (a row-major `rows × cols` buffer) into contiguous row
/// bands and runs `body(row_range, band)` on each, in parallel when the
/// resolved thread count and the problem size justify it.
///
/// `body` must write each output row as a pure function of the shared
/// inputs it captures — bands are disjoint, so any schedule produces the
/// same bytes.
///
/// # Panics
///
/// Panics if `out.len() != rows * cols`, and resumes a panic raised by
/// `body` in any band.
pub fn par_row_bands<F>(out: &mut [f32], rows: usize, cols: usize, body: F)
where
    F: Fn(Range<usize>, &mut [f32]) + Sync,
{
    par_row_bands_weighted(out, rows, cols, cols, body);
}

/// [`par_row_bands`] with an explicit per-row work estimate, for kernels
/// whose output rows are much narrower than the data each one reads.
///
/// The hand-off gate of `par_row_bands` counts *output* elements, which is
/// the right proxy for GEMM-shaped kernels but starves reductions: a fused
/// dot-product pass writes `rows × 1` outputs while streaming `rows × dim`
/// inputs. Passing `work_per_row = dim` here lets such kernels parallelise
/// by the work they actually do. Banding and determinism are unchanged.
///
/// # Panics
///
/// As [`par_row_bands`].
pub fn par_row_bands_weighted<F>(
    out: &mut [f32],
    rows: usize,
    cols: usize,
    work_per_row: usize,
    body: F,
) where
    F: Fn(Range<usize>, &mut [f32]) + Sync,
{
    assert_eq!(
        out.len(),
        rows * cols,
        "par_row_bands: buffer size mismatch"
    );
    let workers = width()
        .min(rows)
        .min((rows * work_per_row) / MIN_ELEMS_PER_WORKER)
        .max(1);
    par_chunks(out, rows, cols, workers, body);
}

/// Runs `f(i, &mut items[i])` for every item, over contiguous index bands
/// in parallel. `min_per_worker` gates the hand-off as in [`par_map`].
///
/// # Panics
///
/// Resumes a panic raised by `f` in any band.
pub fn par_for_each_mut<T, F>(items: &mut [T], min_per_worker: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let n = items.len();
    let workers = width().min(n / min_per_worker.max(1)).max(1);
    par_chunks(items, n, 1, workers, |range, band| {
        for (i, item) in range.zip(band) {
            f(i, item);
        }
    });
}

/// Maps `f` over `items` in parallel, returning results **in input order**
/// regardless of which worker computed what — the property that makes
/// parallel per-client recovery aggregate identically to the serial loop.
///
/// `min_per_worker` gates the hand-off: workers are capped at
/// `items.len() / min_per_worker`, so small batches run inline. Pass 1 when
/// each item is already expensive (e.g. a full-model HVP).
///
/// # Panics
///
/// Resumes a panic raised by `f` in any band.
pub fn par_map<T, R, F>(items: &[T], min_per_worker: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let mut out: Vec<Option<R>> = items.iter().map(|_| None).collect();
    par_for_each_mut(&mut out, min_per_worker, |i, slot| {
        *slot = Some(f(i, &items[i]));
    });
    out.into_iter()
        .map(|r| r.expect("every slot is filled"))
        .collect()
}

/// Serialises tests that toggle the global thread override (the override
/// itself never changes output bytes, but assertions *about* it would race).
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_path_covers_all_rows() {
        let _g = test_guard();
        set_threads(1);
        let mut out = vec![0.0f32; 6];
        par_row_bands(&mut out, 3, 2, |range, band| {
            for (i, r) in range.enumerate() {
                band[i * 2] = r as f32;
                band[i * 2 + 1] = r as f32 + 0.5;
            }
        });
        set_threads(0);
        assert_eq!(out, vec![0.0, 0.5, 1.0, 1.5, 2.0, 2.5]);
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        let _g = test_guard();
        let rows = 64;
        let cols = 1024; // big enough to clear MIN_ELEMS_PER_WORKER at 4 workers
        let fill = |range: Range<usize>, band: &mut [f32]| {
            for (i, r) in range.enumerate() {
                for c in 0..cols {
                    band[i * cols + c] = (r * 31 + c) as f32 * 0.001 - 3.0;
                }
            }
        };
        set_threads(1);
        let mut serial = vec![0.0f32; rows * cols];
        par_row_bands(&mut serial, rows, cols, fill);
        set_threads(4);
        let mut parallel = vec![0.0f32; rows * cols];
        par_row_bands(&mut parallel, rows, cols, fill);
        set_threads(0);
        assert!(serial
            .iter()
            .zip(&parallel)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn tiny_work_stays_serial() {
        let _g = test_guard();
        set_threads(8);
        let mut out = vec![0.0f32; 4];
        // Would split 2 rows over 8 workers if the size gate were missing.
        par_row_bands(&mut out, 2, 2, |range, band| {
            for (i, _r) in range.enumerate() {
                band[i * 2] = 1.0;
                band[i * 2 + 1] = 2.0;
            }
        });
        set_threads(0);
        assert_eq!(out, vec![1.0, 2.0, 1.0, 2.0]);
    }

    #[test]
    fn weighted_bands_match_serial_bitwise() {
        let _g = test_guard();
        // 64 single-column output rows, each "costing" 4096 elements: the
        // weighted gate allows multiple workers where the plain gate would
        // stay serial. Output must be bitwise identical either way.
        let rows = 64;
        let work = 4096;
        let fill = |range: Range<usize>, band: &mut [f32]| {
            for (i, r) in range.enumerate() {
                band[i] = (r * 37) as f32 * 0.125 - 2.0;
            }
        };
        set_threads(1);
        let mut serial = vec![0.0f32; rows];
        par_row_bands_weighted(&mut serial, rows, 1, work, fill);
        set_threads(4);
        let mut parallel = vec![0.0f32; rows];
        par_row_bands_weighted(&mut parallel, rows, 1, work, fill);
        set_threads(0);
        assert!(serial
            .iter()
            .zip(&parallel)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn par_map_preserves_input_order() {
        let _g = test_guard();
        let items: Vec<usize> = (0..37).collect();
        set_threads(1);
        let serial = par_map(&items, 1, |i, &x| (i, x * 3));
        set_threads(5);
        let parallel = par_map(&items, 1, |i, &x| (i, x * 3));
        set_threads(0);
        assert_eq!(serial, parallel);
        assert_eq!(serial[36], (36, 108));
    }

    #[test]
    fn par_map_gates_small_batches() {
        let _g = test_guard();
        set_threads(8);
        // 3 items with min 4 per worker → inline path.
        let out = par_map(&[10, 20, 30], 4, |_i, &x| x + 1);
        set_threads(0);
        assert_eq!(out, vec![11, 21, 31]);
    }

    #[test]
    fn threads_respects_override() {
        let _g = test_guard();
        set_threads(3);
        assert_eq!(threads(), 3);
        set_threads(0);
        assert!(threads() >= 1);
    }

    /// A row-band kernel big enough to be split at any width used below.
    fn banded_fill(rows: usize, cols: usize) -> Vec<u32> {
        let mut out = vec![0.0f32; rows * cols];
        par_row_bands(&mut out, rows, cols, |range, band| {
            for (i, r) in range.enumerate() {
                for c in 0..cols {
                    band[i * cols + c] = ((r * 131 + c * 7) % 1009) as f32 / 7.0 - 50.0;
                }
            }
        });
        out.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn nested_call_runs_inline_with_the_same_bits() {
        let _g = test_guard();
        set_threads(1);
        let expected = banded_fill(32, 2048);
        set_threads(4);
        // Every outer band runs a full nested kernel; each must see width 1
        // (no hand-off from inside a task) and produce the serial bits.
        let nested = par_map(&[0u8; 4], 1, |_, _| {
            let inner_width = width();
            (inner_width, banded_fill(32, 2048))
        });
        set_threads(0);
        for (inner_width, bits) in nested {
            assert_eq!(inner_width, 1, "a nested call must run inline");
            assert_eq!(bits, expected);
        }
    }

    #[test]
    fn worker_panic_reaches_the_caller_and_the_pool_survives() {
        let _g = test_guard();
        set_threads(2);
        // Band 0 (the caller) waits until band 1 has started elsewhere, so
        // the panic is raised on a worker thread.
        let both_running = std::sync::Barrier::new(2);
        let caller = std::thread::current().id();
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            par_map(&[0usize, 1], 1, |i, _| {
                both_running.wait();
                assert!(i == 0, "band one failed");
                assert_eq!(std::thread::current().id(), caller);
            })
        }));
        let payload = caught.expect_err("the worker's panic must reach the caller");
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("");
        assert!(msg.contains("band one failed"), "payload was {msg:?}");
        // The pool keeps serving calls, in parallel and with the same bits.
        let items: Vec<usize> = (0..4).collect();
        set_threads(4);
        let again = par_map(&items, 1, |i, &x| i * 10 + x);
        let fill = banded_fill(16, 4096);
        set_threads(1);
        assert_eq!(fill, banded_fill(16, 4096));
        set_threads(0);
        assert_eq!(again, vec![0, 11, 22, 33]);
    }

    #[test]
    fn four_external_threads_dispatch_at_once() {
        let _g = test_guard();
        set_threads(1);
        let expected = banded_fill(24, 4096);
        set_threads(3);
        let start = std::sync::Barrier::new(4);
        let results: Vec<Vec<u32>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        (0..5).map(|_| banded_fill(24, 4096)).collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("dispatcher thread"))
                .collect()
        });
        set_threads(0);
        assert_eq!(results.len(), 20);
        assert!(results.iter().all(|bits| *bits == expected));
    }

    #[test]
    fn set_threads_is_honoured_up_and_down() {
        let _g = test_guard();
        let (rows, cols) = (64, 4096);
        for n in [1, 4, 2] {
            set_threads(n);
            let seen = Mutex::new(Vec::new());
            let mut out = vec![0.0f32; rows * cols];
            par_row_bands(&mut out, rows, cols, |range, _band| {
                seen.lock()
                    .unwrap()
                    .push((range, std::thread::current().id()));
            });
            let mut seen = seen.into_inner().unwrap();
            seen.sort_by_key(|(r, _)| r.start);
            let ranges: Vec<_> = seen.iter().map(|(r, _)| r.clone()).collect();
            let per = rows / n;
            let expected: Vec<_> = (0..n).map(|b| b * per..(b + 1) * per).collect();
            assert_eq!(ranges, expected, "width {n} must split into {n} bands");
            assert_eq!(
                seen[0].1,
                std::thread::current().id(),
                "the caller runs band 0"
            );
            if n == 4 {
                assert!(lock().workers >= 3, "the pool grows to serve width 4");
            }
        }
        set_threads(0);
    }
}
