//! The discrete-event simulation kernel.
//!
//! Simulated actors ("processes") are ordinary closures that run on real OS
//! threads, but **exactly one process executes at any instant**: the
//! scheduler hands control to a process and blocks until that process either
//! suspends on a simulation primitive (sleep, channel, resource, link
//! transfer) or finishes. Events with equal timestamps fire in FIFO order
//! (monotonic sequence numbers), so a given program produces the same
//! timeline on every run.
//!
//! This is the classic "SimPy with threads" construction: it buys natural,
//! blocking, sequential code for workloads (a VM monitor model is literally
//! a loop of `read`/`write`/`compute` calls) at the cost of one parked OS
//! thread per live process.
//!
//! Two things keep the construction fast at fleet scale (10k+ processes):
//! the event queue is a hierarchical timing wheel ([`crate::wheel`]) rather
//! than a global binary heap, and the per-handoff blocking is a lock-free
//! state machine over `park`/`unpark` rather than a mutex + condvar pair —
//! a cross-thread baton handoff costs one futex wake plus one futex wait
//! and nothing else.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering as AtomicOrdering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::fault::splitmix64;
use crate::telemetry::Telemetry;
use crate::time::{SimDuration, SimTime};
use crate::wheel::TimingWheel;

/// How the kernel schedules at the OS level.
///
/// Every policy observes the same virtual-time contract: events fire in
/// `(time, seq)` order, exactly one process runs at any instant. What a
/// policy may vary is the *incidental* OS-level choreography — which
/// thread performs a handoff, whether a self-wake takes the fast path,
/// gratuitous `yield_now` calls. Those choices are invisible to a
/// correctly synchronized simulation, which is precisely what makes
/// [`SchedPolicy::chaos`] an oracle: run the same workload under several
/// seeds and any divergence in the event timeline or reports is a real
/// ordering bug, not noise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Production behavior: FIFO tie-break, direct baton handoff,
    /// self-wake fast path. The default.
    Fifo,
    /// Deterministic-but-adversarial schedule perturbation. At every
    /// suspend the kernel draws from a seeded PRNG (draws are serialized
    /// by the one-process-at-a-time invariant, so each seed replays
    /// exactly) and may insert OS yields, route the handoff through a
    /// pool worker, or force the slow self-wake path.
    Chaos {
        /// PRNG seed; each seed is one reproducible adversarial schedule.
        seed: u64,
    },
    /// Test-only broken policy: violates the FIFO tie-break by swapping
    /// equal-time wake events with seeded coin flips. Exists so tests can
    /// prove the divergence oracle actually fires; never use it for
    /// measurements.
    #[doc(hidden)]
    BrokenTieBreak {
        /// Seed for the coin flips.
        seed: u64,
    },
}

impl SchedPolicy {
    /// Shorthand for [`SchedPolicy::Chaos`] with the given seed.
    pub fn chaos(seed: u64) -> Self {
        SchedPolicy::Chaos { seed }
    }
}

/// Process-wide default [`SchedPolicy`] picked up by [`Simulation::new`].
/// Lets a binary-level flag (`--sched-chaos <seed>`) reach every
/// simulation constructed inside library code without threading a
/// parameter through every call site.
static DEFAULT_POLICY: Mutex<SchedPolicy> = Mutex::new(SchedPolicy::Fifo);

/// Set the process-wide default scheduling policy for simulations
/// created afterwards via [`Simulation::new`].
pub fn set_default_sched_policy(p: SchedPolicy) {
    *DEFAULT_POLICY.lock() = p;
}

/// The current process-wide default scheduling policy.
pub fn default_sched_policy() -> SchedPolicy {
    *DEFAULT_POLICY.lock()
}

/// One dispatched event, as recorded by the event trace (see
/// [`SimHandle::enable_event_trace`]). Two runs of the same workload must
/// produce identical traces under any [`SchedPolicy`] that honors the
/// virtual-time contract; [`first_divergence`] finds the first index
/// where they do not.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventRecord {
    /// Virtual time of the event, in nanoseconds.
    pub time_ns: u64,
    /// The event's FIFO sequence number. For the `"truncated"` sentinel
    /// this carries the number of records dropped after the cap.
    pub seq: u64,
    /// Event kind: `"wake"`, `"call"`, `"cancellable-call"`, or the
    /// `"truncated"` sentinel appended when the capped trace overflowed.
    pub kind: &'static str,
    /// Woken pid for `"wake"` events.
    pub pid: Option<usize>,
}

impl std::fmt::Display for EventRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.pid {
            Some(pid) => write!(
                f,
                "t={}ns seq={} {} pid={}",
                self.time_ns, self.seq, self.kind, pid
            ),
            None => write!(f, "t={}ns seq={} {}", self.time_ns, self.seq, self.kind),
        }
    }
}

/// Compare two event traces; `Some((index, a, b))` is the first position
/// where they differ (`None` entries mean one trace ended early). This is
/// the schedule-chaos oracle's report: the first diverging event pins
/// where two schedules stopped agreeing.
pub fn first_divergence(
    a: &[EventRecord],
    b: &[EventRecord],
) -> Option<(usize, Option<EventRecord>, Option<EventRecord>)> {
    let n = a.len().max(b.len());
    for i in 0..n {
        let ea = a.get(i);
        let eb = b.get(i);
        if ea != eb {
            return Some((i, ea.cloned(), eb.cloned()));
        }
    }
    None
}

/// Default record cap for [`SimHandle::enable_event_trace`]: enough for
/// every committed scenario while bounding a 10k-clone run (tens of
/// millions of events) to a few hundred MB instead of unbounded growth.
pub const DEFAULT_EVENT_TRACE_CAP: usize = 4 << 20;

/// Identifier of a simulated process.
pub(crate) type Pid = usize;

/// Sentinel panic payload used to unwind a process thread when the
/// simulation shuts down while the process is still blocked.
struct SimAbort;

/// Install (once) a panic hook that silences [`SimAbort`] unwinds — they
/// are the normal shutdown path for blocked processes, not errors — and
/// defers everything else to the previous hook.
fn install_quiet_abort_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<SimAbort>().is_none() {
                previous(info);
            }
        }));
    });
}

enum EventKind {
    /// Resume the given process. Carries the process's control block so
    /// the dispatch hot path never indexes the (cache-cold, randomly
    /// accessed) `procs` table: the reference is cloned at schedule time,
    /// when the control block's cache line is typically already warm.
    Wake(Pid, Arc<ProcCtl>),
    /// Run an arbitrary callback on the scheduler thread (used by the
    /// fluid-flow link model to complete transfers).
    Call(Box<dyn FnOnce() + Send>),
    /// Like `Call`, but carries a cancellation flag. A cancelled event is
    /// skipped by the scheduler *without* advancing `now` or counting as
    /// processed, so an unfired timeout leaves the timeline untouched —
    /// essential for deadline timers that almost never fire.
    CancellableCall(Arc<AtomicBool>, Box<dyn FnOnce() + Send>),
}

/// Token returned by [`SimHandle::schedule_call_cancellable`]; cancelling
/// it makes the scheduled callback a no-op that does not advance simulated
/// time when its slot comes up.
#[derive(Clone)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// Prevent the associated callback from running (idempotent).
    pub fn cancel(&self) {
        self.0.store(true, AtomicOrdering::Relaxed);
    }

    /// Whether the callback has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(AtomicOrdering::Relaxed)
    }
}

/// Process states, stored in [`ProcCtl::state`] as a `u8`.
const PROC_WAITING: u8 = 0;
const PROC_RUNNING: u8 = 1;
const PROC_DONE: u8 = 2;

/// Per-process control block. The `state` transitions are a lock-free
/// handoff protocol:
///
/// - Only the process's own thread stores `WAITING` (in `suspend`) and
///   `DONE` (at body exit).
/// - Only the current baton holder stores `RUNNING` (`set_running`),
///   which is valid because exactly one wake per suspended process is
///   ever in flight.
/// - Blocking is `std::thread::park` with the state re-checked in a
///   loop, so a banked unpark token (wake raced ahead of the park) and
///   spurious wakeups are both benign.
///
/// Field order matters: `state`, `abort` and the thread slot are the
/// per-handoff hot fields and sit together at the front so one cache
/// line fetch covers a wake (the line is cold on every handoff — at
/// 1000+ processes the wake order is effectively random).
pub(crate) struct ProcCtl {
    state: AtomicU8,
    abort: AtomicBool,
    /// OS thread hosting this process's body (a pool worker), registered
    /// before the body's first state check. `set_running` unparks it;
    /// when still `None` the worker has not started and will observe the
    /// `RUNNING` state on its first check (the slot mutex orders the two).
    thread: Mutex<Option<std::thread::Thread>>,
    /// Shutdown-only: `run_proc` waits here until the body finishes (or
    /// suspends again mid-unwind, which `suspend` signals too).
    exit_mu: Mutex<bool>,
    exit_cv: Condvar,
    name: String,
}

impl ProcCtl {
    fn new(name: String) -> Self {
        ProcCtl {
            state: AtomicU8::new(PROC_WAITING),
            abort: AtomicBool::new(false),
            thread: Mutex::new(None),
            exit_mu: Mutex::new(false),
            exit_cv: Condvar::new(),
            name,
        }
    }

    #[inline]
    fn state(&self) -> u8 {
        self.state.load(AtomicOrdering::Acquire)
    }

    /// Mark the process runnable and wake its (possibly parked) host
    /// thread. The release-ordered swap publishes everything the waker
    /// did before the handoff to the woken process.
    fn set_running(&self) {
        let prev = self.state.swap(PROC_RUNNING, AtomicOrdering::AcqRel);
        debug_assert_eq!(prev, PROC_WAITING, "woke a process that is running");
        if let Some(t) = self.thread.lock().as_ref() {
            t.unpark();
        }
    }

    /// Park until marked `RUNNING`. Re-checks in a loop, so stale unpark
    /// tokens from a previous process hosted on the same pool worker are
    /// harmless.
    fn wait_running(&self) {
        while self.state.load(AtomicOrdering::Acquire) != PROC_RUNNING {
            std::thread::park();
        }
    }

    /// Record body completion and wake any shutdown-phase waiter.
    fn finish(&self) {
        self.state.store(PROC_DONE, AtomicOrdering::Release);
        let mut ex = self.exit_mu.lock();
        *ex = true;
        self.exit_cv.notify_all();
    }
}

/// Capped event-trace buffer. Records past the cap are counted, not
/// stored, and surface as a single `"truncated"` sentinel record so the
/// chaos oracle can still compare (equally truncated) big-run traces.
struct TraceBuf {
    recs: Vec<EventRecord>,
    cap: usize,
    dropped: u64,
}

impl TraceBuf {
    fn record(&mut self, time: SimTime, seq: u64, kind: &EventKind) {
        if self.recs.len() >= self.cap {
            self.dropped += 1;
            return;
        }
        self.recs.push(EventRecord {
            time_ns: time.as_nanos(),
            seq,
            kind: match kind {
                EventKind::Wake(..) => "wake",
                EventKind::Call(_) => "call",
                EventKind::CancellableCall(..) => "cancellable-call",
            },
            pid: match kind {
                EventKind::Wake(pid, _) => Some(*pid),
                _ => None,
            },
        });
    }
}

struct KernelInner {
    wheel: TimingWheel<EventKind>,
    now: SimTime,
    seq: u64,
    procs: Vec<Arc<ProcCtl>>,
    failures: Vec<String>,
    events_processed: u64,
    policy: SchedPolicy,
    /// PRNG state for chaos/broken policies. Draws happen under this
    /// mutex and only from the single running process (or the single
    /// baton holder inside dispatch), so the draw sequence — and thus the
    /// whole perturbation schedule — is a pure function of the seed.
    rng: u64,
    /// When `Some`, every dispatched event is appended (cancelled events
    /// are skipped: they never advance time).
    trace: Option<TraceBuf>,
}

/// A process body, boxed for hand-off to a pool worker.
type Job = Box<dyn FnOnce() + Send>;

struct PoolQueue {
    /// Jobs handed to a parked worker but not yet picked up. A job is
    /// only queued while `parked` exceeds the jobs already waiting —
    /// otherwise a fresh thread is spawned with the job directly — so
    /// nothing here ever waits on a busy worker.
    jobs: std::collections::VecDeque<Job>,
    /// Workers inside `cv.wait`, counted by the workers themselves on
    /// the way in and out. Exact whatever wakes them: the condvar is
    /// `std`'s, which wakes spuriously — a worker that has released the
    /// queue lock but not yet gone to sleep is woken by the next
    /// `notify_one` *in addition to* the sleeper that notify picked.
    parked: usize,
    /// Set when the last [`SimHandle`] drops; parked workers exit.
    closed: bool,
}

struct PoolShared {
    q: Mutex<PoolQueue>,
    cv: Condvar,
}

/// Reusable OS threads for process bodies.
///
/// A fresh thread per simulated process costs a `clone(2)`, a stack
/// `mmap`/`munmap` pair and a page-fault storm — at tens of thousands of
/// short-lived processes (parallel RPC fan-out) that kernel time, mostly
/// TLB shootdowns, dominates the wall clock. Workers instead park between
/// processes and are re-dispatched, so a run needs only as many OS threads
/// as its peak count of *live* processes, with warm stacks.
///
/// Scheduling is unaffected: which OS thread executes a process body is
/// invisible to the simulation, so timelines stay bit-identical.
struct WorkerPool {
    shared: Arc<PoolShared>,
}

impl WorkerPool {
    fn new() -> Self {
        WorkerPool {
            shared: Arc::new(PoolShared {
                q: Mutex::new(PoolQueue {
                    jobs: std::collections::VecDeque::new(),
                    parked: 0,
                    closed: false,
                }),
                cv: Condvar::new(),
            }),
        }
    }

    /// Run `job` on a parked worker, or a fresh thread if none is free.
    /// A job occupies its worker for the process's whole lifetime
    /// (including parks), so it must never wait behind a busy worker.
    fn execute(&self, job: Job) {
        {
            let mut q = self.shared.q.lock();
            if q.parked > q.jobs.len() {
                // A parked worker no earlier job has spoken for.
                q.jobs.push_back(job);
                self.shared.cv.notify_one();
                return;
            }
        }
        let shared = self.shared.clone();
        // Process code is shallow (no deep recursion), so 512 KB is ample.
        std::thread::Builder::new()
            .name("sim-worker".into())
            .stack_size(512 * 1024)
            .spawn(move || worker_loop(shared, job))
            .expect("failed to spawn simulation worker thread");
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        let mut q = self.shared.q.lock();
        q.closed = true;
        self.shared.cv.notify_all();
    }
}

fn worker_loop(shared: Arc<PoolShared>, first_job: Job) {
    let mut job = first_job;
    loop {
        job();
        let mut q = shared.q.lock();
        job = loop {
            if let Some(j) = q.jobs.pop_front() {
                // Ours, or — if we just finished a job — one a parked
                // sibling was woken for; it parks again on finding the
                // queue empty.
                break j;
            }
            if q.closed {
                return;
            }
            q.parked += 1;
            shared.cv.wait(&mut q);
            q.parked -= 1;
        };
    }
}

/// What `dispatch_until_wake`'s locked section decided: hand the baton to
/// a process, run a callback inline, or report a drained queue.
enum Dispatched {
    Run(Pid, Arc<ProcCtl>),
    Exec(Box<dyn FnOnce() + Send>),
    Drained,
}

/// Shared, cloneable handle to the simulation kernel. Synchronization
/// primitives ([`crate::sync`], [`crate::link`]) hold one of these to
/// schedule wake-ups and callbacks.
#[derive(Clone)]
pub struct SimHandle {
    inner: Arc<Mutex<KernelInner>>,
    telemetry: Telemetry,
    pool: Arc<WorkerPool>,
    /// Copy of the kernel policy, so the Fifo hot path never takes the
    /// kernel lock just to learn that no chaos word is needed.
    policy: SchedPolicy,
    /// Set once `run()` observes quiescence; dispatching stops and events
    /// scheduled by unwinding processes stay unprocessed.
    shutting_down: Arc<AtomicBool>,
    /// Set (and notified) by the baton holder that drains the event
    /// queue; [`Simulation::run`] parks on it between the first wake and
    /// quiescence.
    quiesced: Arc<(Mutex<bool>, Condvar)>,
}

impl SimHandle {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.inner.lock().now
    }

    /// The simulation-wide metric registry and trace sink.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Number of events the scheduler has processed so far.
    pub fn events_processed(&self) -> u64 {
        self.inner.lock().events_processed
    }

    /// Start recording every dispatched event (virtual time, sequence
    /// number, kind, woken pid), up to [`DEFAULT_EVENT_TRACE_CAP`]
    /// records. Call before the run; pair with
    /// [`SimHandle::take_event_trace`]. Tracing is the raw material of
    /// the schedule-chaos oracle: traces from different [`SchedPolicy`]
    /// seeds must be identical.
    pub fn enable_event_trace(&self) {
        self.enable_event_trace_with_cap(DEFAULT_EVENT_TRACE_CAP);
    }

    /// Like [`SimHandle::enable_event_trace`] with an explicit record
    /// cap. Records past the cap are counted rather than stored; the
    /// taken trace then ends with a `"truncated"` sentinel record whose
    /// `seq` is the dropped count, so a capped trace is still an exact,
    /// comparable prefix.
    pub fn enable_event_trace_with_cap(&self, cap: usize) {
        let mut k = self.inner.lock();
        if k.trace.is_none() {
            k.trace = Some(TraceBuf {
                recs: Vec::new(),
                cap,
                dropped: 0,
            });
        }
    }

    /// Take the recorded event trace (empty if tracing was never
    /// enabled), leaving tracing enabled with a fresh buffer if it was.
    /// If the cap truncated the recording, the last record is the
    /// `"truncated"` sentinel (kind `"truncated"`, `seq` = dropped
    /// count, `time_ns` = current virtual time).
    pub fn take_event_trace(&self) -> Vec<EventRecord> {
        let mut k = self.inner.lock();
        let now = k.now;
        match k.trace.as_mut() {
            Some(t) => {
                let mut recs = std::mem::take(&mut t.recs);
                if t.dropped > 0 {
                    recs.push(EventRecord {
                        time_ns: now.as_nanos(),
                        seq: t.dropped,
                        kind: "truncated",
                        pid: None,
                    });
                    t.dropped = 0;
                }
                recs
            }
            None => Vec::new(),
        }
    }

    /// Number of processes spawned so far (each one is an OS thread for
    /// its lifetime; the wall-clock harness reports this).
    pub fn processes_spawned(&self) -> u64 {
        self.inner.lock().procs.len() as u64
    }

    /// Spawn a process; it becomes runnable at the current instant. This is
    /// the same operation as [`Simulation::spawn`] / [`Env::spawn`], exposed
    /// on the handle so library code (e.g. RPC servers) can start workers.
    pub fn spawn(
        &self,
        name: impl Into<String>,
        f: impl FnOnce(Env) + Send + 'static,
    ) -> ProcessHandle {
        spawn_with_handle(self, name.into(), f)
    }

    pub(crate) fn schedule_wake(&self, time: SimTime, pid: Pid) {
        let mut k = self.inner.lock();
        let ctl = k.procs[pid].clone();
        let seq = k.seq;
        k.seq += 1;
        k.wheel.push(time, seq, EventKind::Wake(pid, ctl));
    }

    /// Schedule an arbitrary callback to run on the scheduler thread at
    /// `time`. The callback must not block; it may schedule further events
    /// and wake processes.
    pub fn schedule_call(&self, time: SimTime, f: impl FnOnce() + Send + 'static) {
        let mut k = self.inner.lock();
        let seq = k.seq;
        k.seq += 1;
        k.wheel.push(time, seq, EventKind::Call(Box::new(f)));
    }

    /// Schedule a callback like [`SimHandle::schedule_call`], returning a
    /// [`CancelToken`]. If the token is cancelled before the event's time
    /// arrives, the scheduler skips the event entirely: `now` does not
    /// advance to the event's time and the callback never runs. Timeout
    /// timers use this so that a timer armed past the natural end of the
    /// simulation does not stretch the final timestamp.
    pub fn schedule_call_cancellable(
        &self,
        time: SimTime,
        f: impl FnOnce() + Send + 'static,
    ) -> CancelToken {
        let flag = Arc::new(AtomicBool::new(false));
        let mut k = self.inner.lock();
        let seq = k.seq;
        k.seq += 1;
        k.wheel.push(
            time,
            seq,
            EventKind::CancellableCall(flag.clone(), Box::new(f)),
        );
        CancelToken(flag)
    }

    fn spawn_inner(
        &self,
        name: String,
        f: impl FnOnce(Env) + Send + 'static,
    ) -> (Pid, Arc<ProcCtl>) {
        let ctl = Arc::new(ProcCtl::new(name));
        let pid;
        {
            // One kernel-lock acquisition covers registration AND the
            // initial wake. Spawning used to take this lock three times
            // (procs push, `now()`, `schedule_wake`); because the
            // spawning process holds the baton until it suspends, nobody
            // can interleave an event between those acquisitions, so
            // folding them together allocates the identical sequence
            // number and leaves the event timeline bit-for-bit unchanged
            // while cutting spawn cost at fleet scale (1000+ tasks).
            assert!(
                !self.shutting_down.load(AtomicOrdering::Acquire),
                "cannot spawn a process while the simulation is shutting down"
            );
            let mut k = self.inner.lock();
            pid = k.procs.len();
            k.procs.push(ctl.clone());
            let time = k.now;
            let seq = k.seq;
            k.seq += 1;
            k.wheel.push(time, seq, EventKind::Wake(pid, ctl.clone()));
        }
        let env = Env {
            handle: self.clone(),
            pid,
            ctl: ctl.clone(),
        };
        let thread_ctl = ctl.clone();
        let handle = self.clone();
        // Hand the body to a pool worker rather than a fresh OS thread:
        // see [`WorkerPool`].
        self.pool.execute(Box::new(move || {
            // Register this OS thread as the process's host, then wait
            // for the first wake. Registration goes first: a wake that
            // found the slot empty relies on this worker observing the
            // RUNNING state after taking the slot lock.
            *thread_ctl.thread.lock() = Some(std::thread::current());
            thread_ctl.wait_running();
            let aborted_at_start = thread_ctl.abort.load(AtomicOrdering::Acquire);
            if !aborted_at_start {
                let result = panic::catch_unwind(AssertUnwindSafe(|| f(env)));
                if let Err(payload) = result {
                    if payload.downcast_ref::<SimAbort>().is_none() {
                        let msg = payload
                            .downcast_ref::<&str>()
                            .map(|s| s.to_string())
                            .or_else(|| payload.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "<non-string panic>".to_string());
                        handle
                            .inner
                            .lock()
                            .failures
                            .push(format!("process '{}' panicked: {msg}", thread_ctl.name));
                    }
                }
            }
            thread_ctl.finish();
            // A panicking `Call` closure must not take the worker down
            // with it (the baton would be lost and the run would hang):
            // record it like a process failure and declare quiescence so
            // `run()` can surface it.
            handle.pass_baton_guarded();
        }));
        (pid, ctl)
    }

    /// Hand control to `pid` and block until it suspends or finishes.
    /// Only used by the shutdown phase of [`Simulation::run`]; during the
    /// run itself control passes process-to-process (see
    /// [`SimHandle::dispatch_until_wake`]).
    fn run_proc(&self, pid: Pid) {
        let ctl = self.inner.lock().procs[pid].clone();
        if ctl.state() == PROC_DONE {
            return;
        }
        debug_assert_eq!(ctl.state(), PROC_WAITING, "woke a process that is running");
        ctl.set_running();
        let mut ex = ctl.exit_mu.lock();
        while !*ex && ctl.state() == PROC_RUNNING {
            ctl.exit_cv.wait(&mut ex);
        }
    }

    /// Pop and dispatch events until one hands control to a process (its
    /// pid and control block are returned) or the queue drains (`None`).
    /// `Call` events run inline on the calling thread — the baton holder
    /// *is* the scheduler. Wakes for finished processes are skipped
    /// (their timers may outlive them), exactly as the central loop used
    /// to; the skip still advances `now` and counts as processed.
    fn dispatch_until_wake(&self) -> Option<(Pid, Arc<ProcCtl>)> {
        self.dispatch_after(|_| {})
    }

    /// [`SimHandle::dispatch_until_wake`] with a prologue that runs under
    /// the *same* kernel-lock acquisition as the first dispatch pop.
    /// `Env::sleep` passes its wake push here, collapsing what used to be
    /// three lock round-trips per sleep (`now()`, `schedule_wake`,
    /// dispatch) into one — on a contended lock line each extra
    /// acquisition is a cross-core cache miss, which dominates the
    /// handoff-heavy fleet workloads. Fusing is sound because the caller
    /// holds the baton: no other thread can interleave an event between
    /// the prologue and the pop.
    fn dispatch_after<F: FnOnce(&mut KernelInner)>(&self, pre: F) -> Option<(Pid, Arc<ProcCtl>)> {
        let mut pre = Some(pre);
        loop {
            let step = {
                let mut k = self.inner.lock();
                if let Some(p) = pre.take() {
                    p(&mut k);
                }
                loop {
                    let (mut time, mut seq, mut kind) = match k.wheel.pop() {
                        Some(e) => e,
                        None => break Dispatched::Drained,
                    };
                    if let EventKind::CancellableCall(flag, _) = &kind {
                        if flag.load(AtomicOrdering::Relaxed) {
                            // Cancelled timer: discard without touching
                            // `now` or the processed-event count, so it
                            // leaves no trace on the timeline.
                            continue;
                        }
                    }
                    if let SchedPolicy::BrokenTieBreak { .. } = k.policy {
                        // Test-only: seeded coin flips swap equal-time
                        // wake pairs, breaking the FIFO tie-break the
                        // determinism contract rests on. The chaos
                        // oracle must catch the resulting divergence.
                        k.rng = splitmix64(k.rng);
                        let flip = k.rng & 1 == 1;
                        let swappable = matches!(kind, EventKind::Wake(..))
                            && k.wheel.peek().is_some_and(|(pt, _, pk)| {
                                pt == time && matches!(pk, EventKind::Wake(..))
                            });
                        if flip && swappable {
                            let (ot, os, ok) = k.wheel.pop().expect("peeked event");
                            k.wheel.push(time, seq, kind);
                            time = ot;
                            seq = os;
                            kind = ok;
                        }
                    }
                    k.now = time;
                    k.events_processed += 1;
                    if let Some(trace) = k.trace.as_mut() {
                        trace.record(time, seq, &kind);
                    }
                    match kind {
                        // The control block rides in the event (cloned at
                        // schedule time), so the hot path neither indexes
                        // `procs` nor touches a cold refcount here.
                        EventKind::Wake(pid, ctl) => {
                            if ctl.state() == PROC_DONE {
                                continue;
                            }
                            break Dispatched::Run(pid, ctl);
                        }
                        EventKind::Call(f) | EventKind::CancellableCall(_, f) => {
                            break Dispatched::Exec(f)
                        }
                    }
                }
            };
            match step {
                Dispatched::Run(pid, ctl) => return Some((pid, ctl)),
                Dispatched::Exec(f) => f(),
                Dispatched::Drained => return None,
            }
        }
    }

    /// Pass the baton onward after the current process yields it: hand
    /// control to the next runnable process, or signal quiescence so
    /// [`Simulation::run`] can finish. No-op once shutdown has begun —
    /// the main thread drives aborts itself and events scheduled by
    /// unwinding processes must stay unprocessed.
    fn pass_baton(&self) {
        if self.shutting_down.load(AtomicOrdering::Acquire) {
            return;
        }
        match self.dispatch_until_wake() {
            Some((_pid, ctl)) => ctl.set_running(),
            None => {
                let (flag, cv) = &*self.quiesced;
                *flag.lock() = true;
                cv.notify_all();
            }
        }
    }

    /// [`SimHandle::pass_baton`] with the panic containment the process
    /// exit path needs: a panicking `Call` closure is recorded as a
    /// failure and quiescence is declared so `run()` can surface it,
    /// instead of losing the baton and hanging the run.
    fn pass_baton_guarded(&self) {
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| self.pass_baton())) {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string panic>".to_string());
            self.inner
                .lock()
                .failures
                .push(format!("scheduled callback panicked: {msg}"));
            let (flag, cv) = &*self.quiesced;
            *flag.lock() = true;
            cv.notify_all();
        }
    }
}

/// The per-process capability handle, passed to every process body. All
/// blocking simulation primitives go through an `Env`.
#[derive(Clone)]
pub struct Env {
    handle: SimHandle,
    pid: Pid,
    ctl: Arc<ProcCtl>,
}

impl Env {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.handle.now()
    }

    /// Access the kernel handle (for constructing sync objects).
    pub fn handle(&self) -> &SimHandle {
        &self.handle
    }

    /// The simulation-wide metric registry and trace sink.
    pub fn telemetry(&self) -> &Telemetry {
        self.handle.telemetry()
    }

    /// Name of this process.
    pub fn name(&self) -> &str {
        &self.ctl.name
    }

    /// Advance simulated time by `d` for this process.
    pub fn sleep(&self, d: SimDuration) {
        // The wake push is fused into the suspend's first kernel-lock
        // acquisition (see `dispatch_after`): reading `now`, allocating
        // the sequence number and pushing the wake all happen under the
        // lock that also pops the next event. The event timeline is
        // identical to the unfused `now()` + `schedule_wake` + `suspend`
        // sequence because this process holds the baton throughout.
        self.suspend_after(|k| {
            let t = k.now + d;
            let seq = k.seq;
            k.seq += 1;
            k.wheel
                .push(t, seq, EventKind::Wake(self.pid, self.ctl.clone()));
        });
    }

    /// Let every other event scheduled at the current instant run first.
    pub fn yield_now(&self) {
        self.sleep(SimDuration::ZERO);
    }

    /// Spawn a child process; it becomes runnable at the current instant.
    pub fn spawn(
        &self,
        name: impl Into<String>,
        f: impl FnOnce(Env) + Send + 'static,
    ) -> ProcessHandle {
        spawn_with_handle(&self.handle, name.into(), f)
    }

    pub(crate) fn pid(&self) -> Pid {
        self.pid
    }

    /// Block until some primitive wakes this process. Used internally by
    /// channels, resources, signals and links: the caller registers itself
    /// with the primitive under the primitive's lock, releases the lock,
    /// then suspends. Because only one process runs at a time, no wake can
    /// be lost in between.
    pub(crate) fn suspend(&self) {
        self.suspend_after(|_| {});
    }

    /// [`Env::suspend`] with a prologue run under the same kernel-lock
    /// acquisition as the chaos draw (chaos policies) or the first
    /// dispatch pop (everything else). `sleep` passes its wake push here.
    /// The push lands before any dispatching in both branches, so the
    /// sequence-number allocation — and therefore the event timeline —
    /// is identical across policies and to the unfused code.
    fn suspend_after<F: FnOnce(&mut KernelInner)>(&self, pre: F) {
        debug_assert_eq!(self.ctl.state(), PROC_RUNNING);
        // Only the owner thread makes the Running -> Waiting transition,
        // so a plain store is enough; the release ordering publishes this
        // process's work to whichever thread wakes it next.
        self.ctl.state.store(PROC_WAITING, AtomicOrdering::Release);
        if !matches!(self.handle.policy, SchedPolicy::Chaos { .. }) {
            // Fifo / BrokenTieBreak hot path: no chaos perturbations.
            let shutting_down = self.handle.shutting_down.load(AtomicOrdering::Acquire);
            if shutting_down {
                // Mid-unwind suspend during shutdown: the event is still
                // scheduled (nothing will dispatch it), and `run_proc`
                // must observe that this process yielded.
                {
                    let mut k = self.handle.inner.lock();
                    pre(&mut k);
                }
                let _ex = self.ctl.exit_mu.lock();
                self.ctl.exit_cv.notify_all();
            } else {
                // Pass the baton directly to the next runnable process
                // instead of round-tripping through a central scheduler
                // thread: one context switch per handoff instead of two.
                // If the next event is our own wake (a sleep chain with no
                // interleaved process), control never leaves this thread.
                match self.handle.dispatch_after(pre) {
                    Some((pid, _ctl)) if pid == self.pid => {
                        debug_assert_eq!(self.ctl.state(), PROC_WAITING);
                        self.ctl.state.store(PROC_RUNNING, AtomicOrdering::Release);
                        return;
                    }
                    Some((_pid, ctl)) => ctl.set_running(),
                    None => {
                        let (flag, cv) = &*self.handle.quiesced;
                        *flag.lock() = true;
                        cv.notify_all();
                    }
                }
            }
            self.ctl.wait_running();
            if self.ctl.abort.load(AtomicOrdering::Acquire) {
                install_quiet_abort_hook();
                panic::panic_any(SimAbort);
            }
            return;
        }
        // Under SchedPolicy::Chaos, perturb the OS-level choreography of
        // this handoff. All three perturbations are semantically inert for
        // correctly synchronized code — they stress thread interleavings
        // without touching virtual-time event order. The prologue and the
        // chaos draw share one lock acquisition; the draw still happens
        // after the push, exactly where `chaos_word` used to draw it.
        let w = {
            let mut k = self.handle.inner.lock();
            pre(&mut k);
            k.rng = splitmix64(k.rng);
            k.rng
        };
        for _ in 0..(w & 3) {
            std::thread::yield_now();
        }
        let via_pool = (w >> 3) & 7 == 0;
        let slow_self = (w >> 6) & 1 == 1;
        let shutting_down = self.handle.shutting_down.load(AtomicOrdering::Acquire);
        if shutting_down {
            // Mid-unwind suspend during shutdown: nothing dispatches, but
            // `run_proc` must observe that this process yielded.
            let _ex = self.ctl.exit_mu.lock();
            self.ctl.exit_cv.notify_all();
        } else if via_pool {
            // Forced preemption: route the handoff through a pool worker
            // (the classic central-scheduler shape — two context switches
            // instead of one) rather than dispatching inline.
            let h = self.handle.clone();
            self.handle
                .pool
                .execute(Box::new(move || h.pass_baton_guarded()));
        } else {
            match self.handle.dispatch_until_wake() {
                Some((pid, _ctl)) if pid == self.pid && !slow_self => {
                    debug_assert_eq!(self.ctl.state(), PROC_WAITING);
                    self.ctl.state.store(PROC_RUNNING, AtomicOrdering::Release);
                    return;
                }
                // With `slow_self`, a self-wake skips the fast path above
                // and goes through set_running + the park loop below like
                // any other handoff (the wait loop falls straight through
                // because the state is already Running).
                Some((_pid, ctl)) => ctl.set_running(),
                None => {
                    let (flag, cv) = &*self.handle.quiesced;
                    *flag.lock() = true;
                    cv.notify_all();
                }
            }
        }
        self.ctl.wait_running();
        if self.ctl.abort.load(AtomicOrdering::Acquire) {
            install_quiet_abort_hook();
            panic::panic_any(SimAbort);
        }
    }
}

/// Handle to a spawned process; lets another process wait for completion.
pub struct ProcessHandle {
    done: crate::sync::Signal,
}

impl ProcessHandle {
    /// Block the calling process until the spawned process finishes.
    pub fn join(&self, env: &Env) {
        self.done.wait(env);
    }
}

fn spawn_with_handle(
    handle: &SimHandle,
    name: String,
    f: impl FnOnce(Env) + Send + 'static,
) -> ProcessHandle {
    let done = crate::sync::Signal::new(handle);
    let done2 = done.clone();
    handle.spawn_inner(name, move |env| {
        f(env.clone());
        done2.set();
    });
    ProcessHandle { done }
}

/// A discrete-event simulation: owns the event queue and the scheduler.
pub struct Simulation {
    handle: SimHandle,
}

impl Simulation {
    /// Create an empty simulation at time zero, under the process-wide
    /// default scheduling policy (see [`set_default_sched_policy`]).
    pub fn new() -> Self {
        Self::with_policy(default_sched_policy())
    }

    /// Create an empty simulation at time zero under an explicit
    /// scheduling policy.
    pub fn with_policy(policy: SchedPolicy) -> Self {
        let seed = match policy {
            SchedPolicy::Fifo => 0,
            SchedPolicy::Chaos { seed } | SchedPolicy::BrokenTieBreak { seed } => seed,
        };
        Simulation {
            handle: SimHandle {
                inner: Arc::new(Mutex::new(KernelInner {
                    wheel: TimingWheel::new(),
                    now: SimTime::ZERO,
                    seq: 0,
                    procs: Vec::new(),
                    failures: Vec::new(),
                    events_processed: 0,
                    policy,
                    rng: splitmix64(seed ^ 0x5EED_CAFE_F00D_D00D),
                    trace: None,
                })),
                telemetry: Telemetry::new(),
                pool: Arc::new(WorkerPool::new()),
                policy,
                shutting_down: Arc::new(AtomicBool::new(false)),
                quiesced: Arc::new((Mutex::new(false), Condvar::new())),
            },
        }
    }

    /// Cloneable handle for constructing primitives before the run starts.
    pub fn handle(&self) -> SimHandle {
        self.handle.clone()
    }

    /// Spawn a root process; it becomes runnable at time zero (or the
    /// current time, if spawned mid-run from outside — not typical).
    pub fn spawn(
        &self,
        name: impl Into<String>,
        f: impl FnOnce(Env) + Send + 'static,
    ) -> ProcessHandle {
        spawn_with_handle(&self.handle, name.into(), f)
    }

    /// Run the simulation to quiescence (empty event queue) and return the
    /// final simulated time.
    ///
    /// Processes still blocked at quiescence (e.g. a server loop waiting on
    /// a request channel that will never receive again) are aborted
    /// cleanly. Panics raised *inside* processes are collected and re-raised
    /// here so test failures point at the real error.
    pub fn run(self) -> SimTime {
        let handle = self.handle;
        // Drive the first handoff from this thread, then park: control
        // passes process-to-process (each suspending process dispatches
        // its successor directly) until some baton holder drains the
        // event queue and signals quiescence.
        if let Some((_pid, ctl)) = handle.dispatch_until_wake() {
            ctl.set_running();
            let (flag, cv) = &*handle.quiesced;
            let mut q = flag.lock();
            while !*q {
                cv.wait(&mut q);
            }
        }

        // Quiescent: abort any process still blocked so its thread exits.
        handle.shutting_down.store(true, AtomicOrdering::Release);
        let (final_time, procs) = {
            let k = handle.inner.lock();
            (k.now, k.procs.clone())
        };
        for (pid, ctl) in procs.iter().enumerate() {
            if ctl.state() != PROC_DONE {
                ctl.abort.store(true, AtomicOrdering::Release);
                handle.run_proc(pid);
            }
        }
        let failures = {
            let mut k = handle.inner.lock();
            std::mem::take(&mut k.failures)
        };
        if !failures.is_empty() {
            panic!("simulation process failures:\n  {}", failures.join("\n  "));
        }
        final_time
    }
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering as AO};

    #[test]
    fn workers_woken_for_nothing_are_not_counted_twice() {
        // std's condvar may wake a waiter nobody notified. A worker that
        // wakes to an empty queue used to register itself as idle a
        // second time; once the real idle workers ran out, `execute`
        // queued a process for a worker that did not exist, the baton
        // passed to that process, and the run hung with every thread
        // parked. Wake-ups without a job are forced here by notifying
        // with nothing queued.
        use std::sync::mpsc;
        use std::time::Duration;
        let pool = WorkerPool::new();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        // Start a job that reports in and then blocks until released.
        let blocking = || {
            let (release, released) = mpsc::channel::<()>();
            let started = started_tx.clone();
            pool.execute(Box::new(move || {
                started.send(()).expect("test alive");
                let _ = released.recv();
            }));
            release
        };
        let wait_started = |what: &str| {
            started_rx
                .recv_timeout(Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("{what} was queued for a worker that does not exist"));
        };
        let wait_parked = |n: usize| {
            for _ in 0..10_000 {
                if pool.shared.q.lock().parked == n {
                    return;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            panic!("workers never parked");
        };
        // Two workers, both parked.
        let (a, b) = (blocking(), blocking());
        wait_started("first job");
        wait_started("second job");
        drop((a, b));
        wait_parked(2);
        for _ in 0..3 {
            pool.shared.cv.notify_all();
            std::thread::sleep(Duration::from_millis(20));
            wait_parked(2);
        }
        // Three processes: one per parked worker, a fresh thread for the
        // third. All three must start.
        let held = [blocking(), blocking(), blocking()];
        wait_started("a job");
        wait_started("a job");
        wait_started("the job beyond the parked workers");
        drop(held);
    }

    #[test]
    fn empty_simulation_finishes_at_zero() {
        let sim = Simulation::new();
        assert_eq!(sim.run(), SimTime::ZERO);
    }

    #[test]
    fn instantly_finishing_processes_quiesce_under_every_policy() {
        // Parking-order assumption, pinned: a process that never
        // suspends can finish — and signal quiescence — while the main
        // thread is still on its way from the first dispatch to the
        // `quiesced` wait loop. The (flag, condvar) pair makes the wait
        // fall through on the already-set flag instead of sleeping
        // forever. Chaos policies additionally route the final baton
        // handoffs through the worker pool, stressing the same window
        // from a different thread.
        for policy in [
            SchedPolicy::Fifo,
            SchedPolicy::chaos(1),
            SchedPolicy::chaos(7),
        ] {
            let sim = Simulation::with_policy(policy);
            let ran = Arc::new(AtomicU64::new(0));
            for i in 0..16 {
                let ran = ran.clone();
                sim.spawn(format!("f{i}"), move |_env| {
                    ran.fetch_add(1, AO::SeqCst);
                });
            }
            assert_eq!(sim.run(), SimTime::ZERO, "no process advanced time");
            assert_eq!(ran.load(AO::SeqCst), 16, "every process ran");
        }
    }

    #[test]
    fn sleep_advances_virtual_time() {
        let sim = Simulation::new();
        let observed = Arc::new(AtomicU64::new(0));
        let obs = observed.clone();
        sim.spawn("sleeper", move |env| {
            env.sleep(SimDuration::from_millis(250));
            obs.store(env.now().as_nanos(), AO::SeqCst);
        });
        let end = sim.run();
        assert_eq!(observed.load(AO::SeqCst), 250_000_000);
        assert_eq!(end.as_nanos(), 250_000_000);
    }

    #[test]
    fn equal_time_events_fire_in_spawn_order() {
        let sim = Simulation::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..5 {
            let order = order.clone();
            sim.spawn(format!("p{i}"), move |env| {
                env.sleep(SimDuration::from_secs(1));
                order.lock().push(i);
            });
        }
        sim.run();
        assert_eq!(*order.lock(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn nested_spawn_and_join() {
        let sim = Simulation::new();
        let total = Arc::new(AtomicU64::new(0));
        let t2 = total.clone();
        sim.spawn("parent", move |env| {
            let mut children = Vec::new();
            for i in 1..=4u64 {
                let t = t2.clone();
                children.push(env.spawn(format!("child{i}"), move |env| {
                    env.sleep(SimDuration::from_secs(i));
                    t.fetch_add(i, AO::SeqCst);
                }));
            }
            for c in &children {
                c.join(&env);
            }
            // All children joined; longest slept 4s.
            assert_eq!(env.now(), SimTime::ZERO + SimDuration::from_secs(4));
        });
        let end = sim.run();
        assert_eq!(total.load(AO::SeqCst), 10);
        assert_eq!(end.as_nanos(), SimDuration::from_secs(4).as_nanos());
    }

    #[test]
    fn blocked_process_is_aborted_cleanly_at_quiescence() {
        let sim = Simulation::new();
        let h = sim.handle();
        let (_tx, rx) = crate::sync::channel::<u32>(&h);
        sim.spawn("server", move |env| {
            // This recv never completes; the simulation must still shut
            // down and not report the abort as a failure.
            let _ = rx.recv(&env);
            unreachable!("recv should have been aborted");
        });
        sim.run();
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn process_panics_propagate_to_run() {
        let sim = Simulation::new();
        sim.spawn("bad", |_env| panic!("boom"));
        sim.run();
    }

    #[test]
    fn cancelled_callback_does_not_advance_time() {
        let sim = Simulation::new();
        let h = sim.handle();
        let fired = Arc::new(AtomicU64::new(0));
        let f2 = fired.clone();
        // A timer far in the future, cancelled before the run: the
        // simulation must end at the last *live* event, not at the timer.
        let token = h.schedule_call_cancellable(SimTime::from_nanos(1_000_000), move || {
            f2.store(1, AO::SeqCst);
        });
        sim.spawn("worker", |env| env.sleep(SimDuration::from_nanos(10)));
        token.cancel();
        let end = sim.run();
        assert_eq!(fired.load(AO::SeqCst), 0);
        assert_eq!(end.as_nanos(), 10);
    }

    #[test]
    fn uncancelled_cancellable_callback_fires() {
        let sim = Simulation::new();
        let h = sim.handle();
        let fired = Arc::new(AtomicU64::new(0));
        let f2 = fired.clone();
        let h2 = h.clone();
        let token = h.schedule_call_cancellable(SimTime::from_nanos(77), move || {
            f2.store(h2.now().as_nanos(), AO::SeqCst);
        });
        sim.run();
        assert_eq!(fired.load(AO::SeqCst), 77);
        assert!(!token.is_cancelled());
    }

    /// A workload with rich contention: equal-time wakes, channels,
    /// resources, nested spawns. Returns (final time, event trace,
    /// observed completion order).
    fn contended_run(policy: SchedPolicy) -> (SimTime, Vec<EventRecord>, Vec<u64>) {
        let sim = Simulation::with_policy(policy);
        let h = sim.handle();
        h.enable_event_trace();
        let order = Arc::new(Mutex::new(Vec::new()));
        let res = crate::sync::Resource::new(&h, 2);
        let (tx, rx) = crate::sync::channel::<u64>(&h);
        for i in 0..6u64 {
            let order = order.clone();
            let res = res.clone();
            let tx = tx.clone();
            sim.spawn(format!("p{i}"), move |env| {
                env.sleep(SimDuration::from_millis(10)); // all collide at t=10ms
                let _g = res.acquire(&env);
                env.sleep(SimDuration::from_millis(5 * (i % 3)));
                order.lock().push(i);
                tx.send(i);
            });
        }
        drop(tx);
        let sink = order.clone();
        sim.spawn("sink", move |env| {
            while let Ok(v) = rx.recv(&env) {
                sink.lock().push(100 + v);
            }
        });
        let end = sim.run();
        let trace = h.take_event_trace();
        let got = order.lock().clone();
        (end, trace, got)
    }

    #[test]
    fn chaos_seeds_leave_timeline_identical() {
        let (t0, trace0, order0) = contended_run(SchedPolicy::Fifo);
        assert!(!trace0.is_empty());
        for seed in 0..8u64 {
            let (t, trace, order) = contended_run(SchedPolicy::chaos(seed));
            assert_eq!(t, t0, "seed {seed}: final time diverged");
            assert_eq!(order, order0, "seed {seed}: completion order diverged");
            if let Some((i, a, b)) = first_divergence(&trace0, &trace) {
                panic!(
                    "seed {seed}: event trace diverged at index {i}: fifo={:?} chaos={:?}",
                    a.map(|e| e.to_string()),
                    b.map(|e| e.to_string())
                );
            }
        }
    }

    #[test]
    fn broken_tie_break_is_caught_by_the_oracle() {
        // The intentionally seeded ordering bug: BrokenTieBreak swaps
        // equal-time wakes, so some seed must produce a diverging trace —
        // proof the oracle detects real races rather than vacuously
        // passing. (A correct policy passes the same check above.)
        let (_, trace0, _) = contended_run(SchedPolicy::Fifo);
        let mut caught = None;
        for seed in 0..8u64 {
            let (_, trace, _) = contended_run(SchedPolicy::BrokenTieBreak { seed });
            if let Some((i, a, b)) = first_divergence(&trace0, &trace) {
                caught = Some((seed, i, a, b));
                break;
            }
        }
        let (seed, i, a, b) = caught.expect("no BrokenTieBreak seed diverged — oracle is blind");
        // The first-divergence report names both events.
        let a = a.expect("fifo trace ended early");
        let b = b.expect("broken trace ended early");
        assert_eq!(
            a.time_ns, b.time_ns,
            "seed {seed}: tie-break bug must diverge within one instant (index {i})"
        );
        assert_ne!(a.seq, b.seq);
    }

    #[test]
    fn chaos_is_deterministic_per_seed() {
        let (t1, trace1, order1) = contended_run(SchedPolicy::chaos(3));
        let (t2, trace2, order2) = contended_run(SchedPolicy::chaos(3));
        assert_eq!(t1, t2);
        assert_eq!(order1, order2);
        assert_eq!(first_divergence(&trace1, &trace2), None);
    }

    #[test]
    fn default_policy_is_picked_up_by_new() {
        // Serialize against other tests touching the global default.
        assert_eq!(default_sched_policy(), SchedPolicy::Fifo);
        set_default_sched_policy(SchedPolicy::chaos(9));
        let sim = Simulation::new();
        let policy = sim.handle().inner.lock().policy;
        set_default_sched_policy(SchedPolicy::Fifo);
        assert_eq!(policy, SchedPolicy::Chaos { seed: 9 });
    }

    #[test]
    fn event_trace_records_wakes_and_calls() {
        let sim = Simulation::new();
        let h = sim.handle();
        h.enable_event_trace();
        h.schedule_call(SimTime::from_nanos(5), || {});
        sim.spawn("p", |env| env.sleep(SimDuration::from_nanos(10)));
        sim.run();
        let trace = h.take_event_trace();
        assert!(trace.iter().any(|e| e.kind == "call" && e.time_ns == 5));
        assert!(trace.iter().any(|e| e.kind == "wake" && e.time_ns == 10));
        // Trace is in dispatch order: time is non-decreasing.
        for w in trace.windows(2) {
            assert!(w[0].time_ns <= w[1].time_ns);
        }
    }

    #[test]
    fn capped_event_trace_truncates_with_sentinel() {
        let sim = Simulation::new();
        let h = sim.handle();
        h.enable_event_trace_with_cap(8);
        sim.spawn("p", |env| {
            for _ in 0..32 {
                env.sleep(SimDuration::from_nanos(10));
            }
        });
        sim.run();
        let events = h.events_processed();
        let trace = h.take_event_trace();
        assert_eq!(trace.len(), 9, "8 records + 1 sentinel");
        let sentinel = trace.last().expect("sentinel");
        assert_eq!(sentinel.kind, "truncated");
        assert_eq!(sentinel.pid, None);
        assert_eq!(
            sentinel.seq,
            events - 8,
            "sentinel seq counts the dropped records"
        );
        // The kept prefix is still an exact, ordered prefix.
        for w in trace[..8].windows(2) {
            assert!((w[0].time_ns, w[0].seq) < (w[1].time_ns, w[1].seq));
        }
        // Taking drains the dropped count too: a second take is clean.
        assert!(h.take_event_trace().is_empty());
    }

    #[test]
    fn uncapped_scenarios_fit_default_cap() {
        // The committed chaos-oracle scenarios run well under the default
        // cap, so enabling the default trace changes nothing for them.
        let sim = Simulation::new();
        let h = sim.handle();
        h.enable_event_trace();
        sim.spawn("p", |env| {
            for _ in 0..100 {
                env.sleep(SimDuration::from_nanos(1));
            }
        });
        sim.run();
        let trace = h.take_event_trace();
        assert!(trace.iter().all(|e| e.kind != "truncated"));
    }

    #[test]
    fn first_divergence_reports_index_and_records() {
        let a = vec![EventRecord {
            time_ns: 1,
            seq: 0,
            kind: "wake",
            pid: Some(0),
        }];
        let mut b = a.clone();
        assert_eq!(first_divergence(&a, &b), None);
        b.push(EventRecord {
            time_ns: 2,
            seq: 1,
            kind: "call",
            pid: None,
        });
        let (i, ea, eb) = first_divergence(&a, &b).expect("length mismatch diverges");
        assert_eq!(i, 1);
        assert_eq!(ea, None);
        assert_eq!(eb.unwrap().to_string(), "t=2ns seq=1 call");
    }

    #[test]
    fn scheduler_callback_runs_at_requested_time() {
        let sim = Simulation::new();
        let h = sim.handle();
        let fired = Arc::new(AtomicU64::new(0));
        let f2 = fired.clone();
        let h2 = h.clone();
        h.schedule_call(SimTime::from_nanos(42), move || {
            f2.store(h2.now().as_nanos(), AO::SeqCst);
        });
        sim.run();
        assert_eq!(fired.load(AO::SeqCst), 42);
    }

    #[test]
    fn deep_timer_spread_dispatches_in_order() {
        // Timers spanning the wheel's level-0 window, level-1 window and
        // the overflow heap, scheduled by a single process: the kernel
        // must fire them in exact (time, seq) order.
        let sim = Simulation::new();
        let h = sim.handle();
        let fired = Arc::new(Mutex::new(Vec::new()));
        let mut times: Vec<u64> = (0..200)
            .map(|i| splitmix64(i as u64 ^ 0xABCD) % 60_000_000_000)
            .collect();
        times.push(0);
        times.push(90_000_000_000_000); // deep overflow
        for &t in &times {
            let fired = fired.clone();
            h.schedule_call(SimTime::from_nanos(t), move || {
                fired.lock().push(t);
            });
        }
        sim.run();
        let got = fired.lock().clone();
        let mut want = times.clone();
        want.sort_unstable();
        assert_eq!(got, want);
    }
}
