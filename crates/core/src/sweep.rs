//! Deterministic multi-core sweep engine.
//!
//! Digibox's workloads are *sweeps*: the same scene run once per seed —
//! chaos campaigns, determinism digests, fidelity benches, property
//! sweeps. Every seed is fully independent (each run builds its own
//! [`crate::Testbed`], which owns its own kernel, broker, and trace log),
//! so a sweep parallelizes perfectly — as long as parallelism cannot
//! change the *result*.
//!
//! The engine guarantees that by construction:
//!
//! * **Per-worker kernels.** The task closure builds everything it needs
//!   *inside* the worker thread. Nothing simulation-side is shared, so the
//!   single-threaded determinism argument (same seed ⇒ same event order)
//!   holds unchanged per seed. `Testbed` is intentionally not `Send`; only
//!   the extracted, plain-data report crosses threads.
//! * **Canonical merge order.** Results are written into a slot indexed by
//!   the seed's position in the input slice and merged in that order, so
//!   the output is byte-identical for `jobs = 1` and `jobs = N` no matter
//!   how the OS schedules workers.
//! * **Panic isolation.** Each seed runs under `catch_unwind`; a panicking
//!   build or run yields a per-seed [`SeedError`] instead of poisoning the
//!   whole sweep.
//!
//! Scheduling is one shared cursor over the seed list: a worker that
//! finishes a seed claims the next unclaimed index. Seeds with skewed
//! runtimes (a chaos seed that triggers many restarts can cost several
//! times the median) therefore spread over the workers instead of
//! serializing behind the slowest static chunk.
//!
//! This module is deliberately std-only and self-contained (no other core
//! modules), so the engine can be reasoned about apart from the testbed;
//! `tests/sweep_determinism.rs` checks jobs=1 vs jobs=N byte-identity on
//! real campaigns.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Why one seed of a sweep produced no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeedError {
    /// The task returned an error (e.g. the testbed builder failed).
    Task(String),
    /// The task panicked; the payload message is captured.
    Panic(String),
}

impl fmt::Display for SeedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SeedError::Task(e) => write!(f, "{e}"),
            SeedError::Panic(m) => write!(f, "panicked: {m}"),
        }
    }
}

/// The outcome of one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct SeedRun<T> {
    /// The seed that ran.
    pub seed: u64,
    /// The run's value, or why it failed.
    pub result: Result<T, SeedError>,
}

/// A completed sweep: one entry per input seed, in input order.
#[derive(Debug)]
pub struct SweepOutcome<T> {
    /// Per-seed outcomes, in **canonical (input) order** — independent of
    /// worker count and scheduling.
    pub runs: Vec<SeedRun<T>>,
    /// Worker threads actually used.
    pub jobs: usize,
}

impl<T> SweepOutcome<T> {
    /// Successful results in seed order, dropping failed seeds.
    pub fn successes(self) -> Vec<T> {
        self.runs.into_iter().filter_map(|r| r.result.ok()).collect()
    }

    /// `(seed, error)` for every failed seed, in seed order.
    pub fn failures(&self) -> Vec<(u64, &SeedError)> {
        self.runs
            .iter()
            .filter_map(|r| r.result.as_ref().err().map(|e| (r.seed, e)))
            .collect()
    }
}

/// Resolve a `--jobs` style knob: `0` means one worker per available core.
pub fn resolve_jobs(jobs: usize) -> usize {
    if jobs > 0 {
        jobs
    } else {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    }
}

/// Mutex lock that shrugs off poisoning: workers only panic inside
/// `catch_unwind`, never while holding a lock, but be robust anyway.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn run_one<T, F>(task: &F, seed: u64) -> Result<T, SeedError>
where
    F: Fn(u64) -> Result<T, String>,
{
    match catch_unwind(AssertUnwindSafe(|| task(seed))) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(SeedError::Task(e)),
        Err(payload) => Err(SeedError::Panic(panic_message(payload.as_ref()))),
    }
}

/// A panic payload as text (`&str` and `String` payloads; anything else
/// gets a placeholder).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `task` once per seed across `jobs` worker threads (`0` = one per
/// core) and merge the outcomes in canonical seed order.
///
/// The task must be self-contained per seed: build the testbed (or any
/// other state) *inside* the closure so each worker owns an isolated
/// kernel. Errors and panics are captured per seed; the sweep itself never
/// fails.
pub fn sweep<T, F>(seeds: &[u64], jobs: usize, task: F) -> SweepOutcome<T>
where
    T: Send,
    F: Fn(u64) -> Result<T, String> + Sync,
{
    let jobs = resolve_jobs(jobs).min(seeds.len()).max(1);
    if jobs == 1 {
        let runs = seeds
            .iter()
            .map(|&seed| SeedRun { seed, result: run_one(&task, seed) })
            .collect();
        return SweepOutcome { runs, jobs: 1 };
    }

    // The cursor publishes nothing but the index it hands out (each slot
    // has its own lock), so `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<SeedRun<T>>>> =
        seeds.iter().map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..jobs {
            let (next, slots, task) = (&next, &slots, &task);
            scope.spawn(move || loop {
                let slot = next.fetch_add(1, Ordering::Relaxed);
                let Some(&seed) = seeds.get(slot) else {
                    break;
                };
                let run = SeedRun { seed, result: run_one(task, seed) };
                *lock(&slots[slot]) = Some(run);
            });
        }
    });

    let runs = slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every claimed slot is filled before its worker exits")
        })
        .collect();
    SweepOutcome { runs, jobs }
}

#[cfg(test)]
mod sweep_tests {
    use super::*;
    use std::sync::Condvar;
    use std::time::Duration;

    /// A cheap deterministic per-seed "simulation".
    fn mix(seed: u64) -> u64 {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        for _ in 0..64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        x
    }

    #[test]
    fn merge_order_is_canonical_across_jobs() {
        let seeds: Vec<u64> = vec![9, 1, 5, 5, 42, 3, 1000, 7, 2, 8, 11, 13];
        let run = |jobs| sweep(&seeds, jobs, |s| Ok::<u64, String>(mix(s)));
        let one = run(1);
        assert_eq!(one.jobs, 1);
        for jobs in [2, 3, 8, 64] {
            let n = run(jobs);
            assert_eq!(n.runs, one.runs, "jobs={jobs} must merge identically");
            assert_eq!(n.jobs, jobs.min(seeds.len()));
        }
        // and the order is the input order, not sorted
        let got: Vec<u64> = one.runs.iter().map(|r| r.seed).collect();
        assert_eq!(got, seeds);
    }

    #[test]
    fn task_errors_are_per_seed() {
        let out = sweep(&[1, 2, 3], 2, |s| {
            if s == 2 {
                Err("no broker".to_string())
            } else {
                Ok(s * 10)
            }
        });
        assert_eq!(out.runs[0].result, Ok(10));
        assert_eq!(out.runs[1].result, Err(SeedError::Task("no broker".into())));
        assert_eq!(out.runs[2].result, Ok(30));
        assert_eq!(out.failures(), vec![(2, &SeedError::Task("no broker".into()))]);
        assert_eq!(out.successes(), vec![10, 30]);
    }

    #[test]
    fn panics_are_isolated_and_reported() {
        for jobs in [1, 2, 4] {
            let out = sweep(&[7, 13, 21], jobs, |s| {
                if s == 13 {
                    panic!("boom at {s}");
                }
                Ok::<u64, String>(s)
            });
            assert_eq!(out.runs.len(), 3, "jobs={jobs}");
            assert_eq!(out.runs[0].result, Ok(7));
            assert_eq!(out.runs[1].result, Err(SeedError::Panic("boom at 13".into())));
            assert_eq!(out.runs[2].result, Ok(21));
            assert_eq!(out.runs[1].result.as_ref().unwrap_err().to_string(), "panicked: boom at 13");
        }
    }

    #[test]
    fn slow_seeds_spread_over_workers() {
        // Seeds 0–3 are slow: each holds its worker until a slow seed runs
        // on a second thread (bounded, so a scheduler that serializes
        // them fails instead of hanging). A static split would put all
        // four on one thread.
        let threads = Mutex::new(Vec::new());
        let spread = Condvar::new();
        let seeds: Vec<u64> = (0..8).collect();
        let out = sweep(&seeds, 2, |s| {
            if s < 4 {
                let mut seen = lock(&threads);
                let me = std::thread::current().id();
                if !seen.contains(&me) {
                    seen.push(me);
                    spread.notify_all();
                }
                let wait = Duration::from_secs(10);
                drop(spread.wait_timeout_while(seen, wait, |seen| seen.len() < 2));
            }
            Ok::<u64, String>(s)
        });
        assert_eq!(out.jobs, 2);
        assert_eq!(lock(&threads).len(), 2, "slow seeds must run on two threads");
        let got: Vec<u64> = out.runs.iter().map(|r| r.result.clone().unwrap()).collect();
        assert_eq!(got, seeds);
    }

    #[test]
    fn every_seed_runs_exactly_once() {
        static COUNT: AtomicUsize = AtomicUsize::new(0);
        let seeds: Vec<u64> = (0..100).collect();
        let out = sweep(&seeds, 8, |s| {
            COUNT.fetch_add(1, Ordering::Relaxed);
            Ok::<u64, String>(s)
        });
        assert_eq!(COUNT.load(Ordering::Relaxed), 100);
        assert_eq!(out.runs.len(), 100);
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let out = sweep::<u64, _>(&[], 4, Ok);
        assert!(out.runs.is_empty());
        let out = sweep(&[5], 0, Ok::<u64, String>);
        assert_eq!(out.runs.len(), 1);
        assert_eq!(out.jobs, 1, "one seed needs one worker regardless of cores");
        assert!(resolve_jobs(0) >= 1);
        assert_eq!(resolve_jobs(3), 3);
    }
}
