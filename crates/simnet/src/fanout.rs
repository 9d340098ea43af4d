//! Bounded-window pipelined fan-out — the shared transfer engine.
//!
//! The paper's WAN numbers come from keeping the wide link busy: the file
//! channel streams compressed state while the server compresses the next
//! piece, write-back pushes dirty blocks without waiting a round-trip per
//! block, misses on sequential streams are fetched ahead of the reader,
//! and the kernel NFS client gathers a large read as parallel READs. All
//! of them share one primitive: a FIFO job queue drained by a small,
//! fixed set of worker processes — at most `window` jobs in flight,
//! arbitrarily many jobs. [`run_windowed`] is that primitive; it lives
//! here, below every crate that fans RPCs out, and the `bounded-fanout`
//! lint rule keeps ad-hoc spawn loops from reappearing in `gvfs` and
//! `nfs3`.
//!
//! Determinism: the engine runs one process at a time and schedules
//! wake-ups in deterministic order, so the interleaving of the workers —
//! and hence every timing and telemetry value — is a pure function of the
//! inputs. Results are re-assembled by job index, so callers see them in
//! submission order regardless of completion order. With `window == 1`
//! the jobs run inline on the calling process, byte-for-byte and
//! tick-for-tick a serial loop.

use std::collections::VecDeque;
use std::rc::Rc;

use crate::shared::Shared;

use crate::telemetry::{Counter, Gauge, PercentileSketch, Telemetry};
use crate::Env;

/// Telemetry for one component's windowed transfers: window occupancy
/// (gauge with high-water mark), jobs submitted, and per-job stall time
/// (virtual time a job spent queued waiting for a window slot).
#[derive(Clone)]
pub struct TransferTel {
    /// In-flight jobs across this component's windowed transfers.
    pub window_inflight: Gauge,
    /// Jobs submitted through [`run_windowed`].
    pub jobs: Counter,
    /// Time from submission to a worker picking the job up.
    pub stall: PercentileSketch,
}

impl TransferTel {
    /// Register under `<layer>/<inst>.transfer.*`.
    pub fn register(registry: &Telemetry, layer: &'static str, inst: &str) -> Self {
        TransferTel {
            window_inflight: registry.gauge(layer, format!("{inst}.transfer.window_inflight")),
            jobs: registry.counter(layer, format!("{inst}.transfer.jobs")),
            stall: registry.histogram(layer, format!("{inst}.transfer.stall")),
        }
    }
}

/// Run `f` over `items` with at most `window` jobs in flight, returning
/// one slot per item in submission order. A job returning `None` (or a
/// worker dying with it) leaves its slot `None`; callers decide whether
/// that is an error.
///
/// With `window <= 1` (or a single item) the jobs run inline on the
/// calling process — no helper processes, identical to a serial loop. Otherwise `min(window, items)` workers drain a
/// shared FIFO queue, so at most `window` invocations of `f` are
/// suspended in RPC at any instant.
pub fn run_windowed<I, T, F>(
    env: &Env,
    label: &str,
    window: usize,
    items: Vec<I>,
    tel: Option<&TransferTel>,
    f: F,
) -> Vec<Option<T>>
where
    I: 'static,
    T: 'static,
    F: Fn(&Env, I) -> Option<T> + 'static,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    if let Some(t) = tel {
        t.jobs.add(n as u64);
    }
    let workers = window.min(n).max(1);
    let mut out: Vec<Option<T>> = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(None);
    }
    if workers == 1 {
        // Serial fast path: inline, no helper processes, no queue.
        for (slot, item) in out.iter_mut().zip(items) {
            if let Some(t) = tel {
                t.window_inflight.inc();
            }
            let r = f(env, item);
            if let Some(t) = tel {
                t.window_inflight.dec();
            }
            *slot = r;
        }
        return out;
    }
    let queue: Shared<VecDeque<(usize, I)>> = Shared::new(items.into_iter().enumerate().collect());
    let results: Shared<Vec<(usize, T)>> = Shared::new(Vec::with_capacity(n));
    let f = Rc::new(f);
    let t0 = env.now();
    let mut joins = Vec::with_capacity(workers);
    for w in 0..workers {
        let queue = queue.clone();
        let results = results.clone();
        let f = f.clone();
        let tel = tel.cloned();
        joins.push(env.spawn(format!("{label}-{w}"), move |env| loop {
            let job = {
                let j = queue.lock().pop_front();
                j
            };
            let (i, item) = match job {
                Some(j) => j,
                None => return,
            };
            if let Some(t) = &tel {
                // Queue wait before this job got a window slot.
                t.stall.record(env.now() - t0);
                t.window_inflight.inc();
            }
            let r = f(&env, item);
            if let Some(t) = &tel {
                t.window_inflight.dec();
            }
            if let Some(v) = r {
                results.lock().push((i, v));
            }
        }));
    }
    for j in joins {
        j.join(env);
    }
    let Ok(mut collected) = results.try_unwrap() else {
        return out; // worker leak: every slot reads as failed
    };
    collected.sort_unstable_by_key(|(i, _)| *i);
    for (i, v) in collected {
        if let Some(slot) = out.get_mut(i) {
            *slot = Some(v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimDuration, Simulation};

    #[test]
    fn windowed_results_arrive_in_submission_order() {
        for window in [1usize, 2, 4, 16] {
            let sim = Simulation::new();
            sim.spawn("t", move |env| {
                // Earlier items sleep longer, so completion order is the
                // reverse of submission order.
                let items: Vec<u64> = (0..8).collect();
                let out = run_windowed(&env, "rev", window, items, None, |env, i| {
                    env.sleep(SimDuration::from_millis(100 - 10 * i));
                    Some(i * 2)
                });
                let got: Vec<Option<u64>> = (0..8).map(|i| Some(i * 2)).collect();
                assert_eq!(out, got, "window={window}");
            });
            sim.run();
        }
    }

    #[test]
    fn window_bounds_inflight_and_overlaps_time() {
        let sim = Simulation::new();
        sim.spawn("t", move |env| {
            let tel = TransferTel::register(env.telemetry(), "gvfs", "test");
            let t0 = env.now();
            let out = run_windowed(&env, "w", 3, vec![(); 9], Some(&tel), |env, ()| {
                env.sleep(SimDuration::from_secs(1));
                Some(())
            });
            assert_eq!(out.len(), 9);
            // 9 one-second jobs, 3 at a time: 3 virtual seconds, not 9.
            assert_eq!((env.now() - t0).as_nanos(), 3_000_000_000);
            assert_eq!(tel.window_inflight.high_water(), 3);
            assert_eq!(tel.window_inflight.get(), 0);
            assert_eq!(tel.jobs.get(), 9);
        });
        sim.run();
    }

    #[test]
    fn failed_jobs_leave_their_slot_none() {
        let sim = Simulation::new();
        sim.spawn("t", move |env| {
            let out = run_windowed(&env, "f", 2, vec![1u64, 2, 3, 4], None, |_, i| {
                if i % 2 == 0 {
                    None
                } else {
                    Some(i)
                }
            });
            assert_eq!(out, vec![Some(1), None, Some(3), None]);
        });
        sim.run();
    }

    #[test]
    fn empty_input_spawns_nothing() {
        let sim = Simulation::new();
        sim.spawn("t", move |env| {
            let out: Vec<Option<u64>> = run_windowed(&env, "e", 4, Vec::new(), None, |_, ()| None);
            assert!(out.is_empty());
        });
        sim.run();
    }
}
