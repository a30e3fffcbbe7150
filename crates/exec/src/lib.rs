//! Deterministic parallel execution for the batch drivers.
//!
//! Every multi-trial driver in this workspace (the evolution sweeps, the
//! bench harness, the fault campaigns, the landscape sweeper) has the same
//! shape: a statically-known list of independent work items, each
//! internally deterministic, whose results must merge into a result that
//! is **bit-identical for any thread count** — the repo's reproducibility
//! contract extends to `--threads`. [`ordered_map`] is that shape as a
//! function: scoped workers claim the next `(index, item)` from one
//! shared iterator, results carry their item index home, and the merge
//! sorts by index before returning. Thread scheduling decides only *when*
//! an item runs, never *where its result lands* — so floating-point
//! folds, RNG hand-offs and JSON outputs downstream of the merge see one
//! canonical order.
//!
//! One thread (or one item) short-circuits to a plain in-place loop — the
//! single-threaded path is the literal sequential program, not a pool of
//! one, which keeps `--threads 1` runs byte-for-byte comparable with the
//! historical single-core drivers.
//!
//! [`arg_or`] and [`flag_value`] read the drivers' `--flag value`
//! command-line options, `--threads` among them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Mutex;

/// Number of worker threads the host can usefully run, for drivers whose
/// `--threads 0` means "auto". Falls back to 1 when the platform cannot
/// say.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// A driver's `--threads` value as a worker count: 0 means one per
/// available core.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        available_threads()
    } else {
        threads
    }
}

/// Parse a `--flag value` style argument from the command line, with a
/// default when the flag is absent. A value that does not parse (or a
/// flag without one) ends the process with exit code 2 and a message
/// naming the flag and the value, instead of running on the default.
pub fn arg_or<T: std::str::FromStr>(flag: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    match flag_value(&args, flag) {
        Ok(value) => value.unwrap_or(default),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

/// The value of `--flag value` in `args`: `Ok(None)` when the flag is
/// absent, an error naming the flag and the value when the value is
/// missing or does not parse as `T`.
pub fn flag_value<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let value = args
        .get(i + 1)
        .ok_or_else(|| format!("{flag} needs a value"))?;
    value
        .parse()
        .map(Some)
        .map_err(|_| format!("{flag}: cannot parse {value:?}"))
}

/// Map `f` over `items` on `threads` workers and return the results **in
/// item order**, regardless of which thread ran what when.
///
/// `f` receives the item's index alongside the item, so per-item work can
/// derive deterministic per-item seeds or labels without threading them
/// through the item type. `threads` of 0 means one per available core,
/// and no more workers start than there are items; with one worker the
/// map runs inline on the calling thread.
///
/// # Panics
/// Re-raises the first panic from `f` (in worker order) with its own
/// payload, once every worker has stopped.
pub fn ordered_map<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let threads = resolve_threads(threads).min(items.len());
    if threads <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    // the guard drops inside `claim`, so no worker holds it while `f` runs
    let claim = || queue.lock().expect("claim queue").next();
    let joined: Vec<_> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    while let Some((i, t)) = claim() {
                        local.push((i, f(i, t)));
                    }
                    local
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join()).collect()
    });
    let mut results = Vec::new();
    for local in joined {
        results.extend(local.unwrap_or_else(|payload| std::panic::resume_unwind(payload)));
    }
    // the canonical merge order: item index, not completion order
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, r)| r).collect()
}

/// [`ordered_map`] over the index range `0..n` — the common case where
/// the work item *is* its index (a trial number, a matrix cell, a shard).
pub fn ordered_map_range<R, F>(threads: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    ordered_map(threads, (0..n).collect(), |_, i| f(i))
}

/// A persistent pool of worker threads draining a shared job queue — the
/// long-lived counterpart of [`ordered_map`] for workloads whose items
/// arrive over time instead of as one batch (the `leonardo-server`
/// connection reactor: each accepted connection becomes one job).
///
/// Jobs are boxed `FnOnce` closures run in FIFO submission order (any
/// idle worker may pick up any job, so *completion* order is
/// scheduling-dependent — per-job determinism is the submitter's
/// business, exactly as with [`ordered_map`]). Dropping the pool wakes
/// every worker, lets queued jobs finish, and joins the threads.
pub struct WorkerPool {
    queue: std::sync::Arc<PoolQueue>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolQueue {
    jobs: Mutex<std::collections::VecDeque<Job>>,
    ready: std::sync::Condvar,
    shutdown: std::sync::atomic::AtomicBool,
}

impl WorkerPool {
    /// Spawn a pool of `threads` workers (at least one).
    pub fn new(threads: usize) -> WorkerPool {
        let queue = std::sync::Arc::new(PoolQueue {
            jobs: Mutex::new(std::collections::VecDeque::new()),
            ready: std::sync::Condvar::new(),
            shutdown: std::sync::atomic::AtomicBool::new(false),
        });
        let workers = (0..threads.max(1))
            .map(|_| {
                let queue = std::sync::Arc::clone(&queue);
                std::thread::spawn(move || loop {
                    let mut jobs = queue.jobs.lock().expect("pool queue");
                    let job = loop {
                        if let Some(job) = jobs.pop_front() {
                            break job;
                        }
                        if queue.shutdown.load(std::sync::atomic::Ordering::Acquire) {
                            return;
                        }
                        jobs = queue.ready.wait(jobs).expect("pool queue");
                    };
                    drop(jobs);
                    job();
                })
            })
            .collect();
        WorkerPool { queue, workers }
    }

    /// Enqueue one job; some idle worker will run it. Jobs submitted
    /// after the pool started dropping are silently discarded.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        let mut jobs = self.queue.jobs.lock().expect("pool queue");
        jobs.push_back(Box::new(job));
        drop(jobs);
        self.queue.ready.notify_one();
    }

    /// Number of worker threads in the pool.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.queue
            .shutdown
            .store(true, std::sync::atomic::Ordering::Release);
        self.queue.ready.notify_all();
        for w in self.workers.drain(..) {
            // a panicking job poisons nothing here: each job runs outside
            // the queue lock, so the pool only ever loses that worker
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn flag_values_parse_or_fail_naming_the_flag() {
        let args: Vec<String> = ["e15", "--shards", "7", "--threads", "x7", "--out"]
            .iter()
            .map(|a| a.to_string())
            .collect();
        assert_eq!(flag_value::<usize>(&args, "--shards"), Ok(Some(7)));
        assert_eq!(flag_value::<usize>(&args, "--ga-trials"), Ok(None));
        assert_eq!(
            flag_value::<usize>(&args, "--threads"),
            Err("--threads: cannot parse \"x7\"".to_string())
        );
        assert_eq!(
            flag_value::<String>(&args, "--out"),
            Err("--out needs a value".to_string())
        );
    }

    #[test]
    fn results_come_back_in_item_order() {
        for threads in [0, 1, 2, 3, 8] {
            let out = ordered_map_range(threads, 100, |i| i * i);
            assert_eq!(
                out,
                (0..100).map(|i| i * i).collect::<Vec<_>>(),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let hits = AtomicUsize::new(0);
        let out = ordered_map(4, (0..257).collect::<Vec<u64>>(), |i, v| {
            hits.fetch_add(1, Ordering::Relaxed);
            assert_eq!(i as u64, v);
            v
        });
        assert_eq!(hits.into_inner(), 257);
        assert_eq!(out.len(), 257);
    }

    #[test]
    fn float_fold_is_bit_identical_across_thread_counts() {
        // the motivating case: a float accumulation whose value depends on
        // summation order — identical for any thread count because the
        // merge is index-ordered
        let fold = |threads: usize| -> f64 {
            ordered_map_range(threads, 1000, |i| ((i as f64) * 0.1).sin() / (i + 1) as f64)
                .into_iter()
                .sum()
        };
        let want = fold(1);
        for threads in [2, 3, 8, 16] {
            assert_eq!(want.to_bits(), fold(threads).to_bits(), "{threads} threads");
        }
    }

    #[test]
    fn empty_and_single_item_inputs() {
        assert_eq!(ordered_map_range(8, 0, |i| i), Vec::<usize>::new());
        assert_eq!(ordered_map_range(8, 1, |i| i + 7), vec![7]);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        assert_eq!(ordered_map_range(64, 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn items_run_outside_the_claim_lock() {
        // two items that each wait for the other finish only if both run
        // at once — a claim guard held across `f` would serialize them
        // and time out
        let (txa, rxa) = std::sync::mpsc::channel();
        let (txb, rxb) = std::sync::mpsc::channel();
        let ends = Mutex::new(vec![(txa, rxb), (txb, rxa)]);
        let out = ordered_map_range(2, 2, |i| {
            let (tx, rx) = ends.lock().expect("ends").pop().expect("one end per item");
            tx.send(()).expect("peer");
            rx.recv_timeout(std::time::Duration::from_secs(10))
                .expect("peer item ran concurrently");
            i
        });
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "item 3 failed")]
    fn worker_panics_keep_their_payload() {
        ordered_map_range(2, 8, |i| {
            if i == 3 {
                panic!("item {i} failed");
            }
            i
        });
    }

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }

    #[test]
    fn worker_pool_runs_every_submitted_job() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.threads(), 4);
        let hits = std::sync::Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let hits = std::sync::Arc::clone(&hits);
            pool.submit(move || {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        drop(pool); // drains the queue and joins
        assert_eq!(hits.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn worker_pool_zero_threads_still_works() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        let (tx, rx) = std::sync::mpsc::channel();
        pool.submit(move || tx.send(7usize).expect("receiver alive"));
        assert_eq!(rx.recv().expect("job ran"), 7);
    }

    #[test]
    fn worker_pool_jobs_overlap_across_threads() {
        // two jobs that each wait for the other prove two workers run
        // concurrently (a single-threaded pool would deadlock the pair —
        // bounded here by generous channel timeouts)
        let pool = WorkerPool::new(2);
        let (txa, rxa) = std::sync::mpsc::channel();
        let (txb, rxb) = std::sync::mpsc::channel();
        pool.submit(move || {
            txa.send(()).expect("peer");
            rxb.recv_timeout(std::time::Duration::from_secs(10))
                .expect("peer job ran concurrently");
        });
        pool.submit(move || {
            txb.send(()).expect("peer");
            rxa.recv_timeout(std::time::Duration::from_secs(10))
                .expect("peer job ran concurrently");
        });
        drop(pool);
    }
}
