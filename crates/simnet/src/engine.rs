//! The discrete-event simulation kernel.
//!
//! Simulated actors ("processes") are ordinary closures, each running as a
//! stackful coroutine on the OS thread that calls [`Simulation::run`], and
//! **exactly one process executes at any instant**: the scheduler switches
//! into a process and gets control back when that process either suspends
//! on a simulation primitive (sleep, channel, resource, link transfer) or
//! finishes. Events with equal timestamps fire in FIFO order (monotonic
//! sequence numbers), so a given program produces the same timeline on
//! every run.
//!
//! This is the classic SimPy construction: it buys natural, blocking,
//! sequential code for workloads (a VM monitor model is literally a loop
//! of `read`/`write`/`compute` calls). A handoff is a user-space register
//! swap — the six callee-saved registers and the stack pointer, in
//! `simnet_coro_switch` below — with no futex, no kernel context switch
//! and one OS thread per simulation. Each process runs on a 512 KiB
//! `mmap`ed stack with a guard page; a finished process's stack goes back
//! on the run's free list, so a run maps as many stacks as it has
//! processes alive at its peak.
//!
//! The event queue is one binary heap ordered by `(time, seq)`, and every
//! event takes its sequence number in one place, `KernelInner::push`.
//!
//! All of the crate's `unsafe` code lives in this file (`xtask lint`'s
//! `unsafe-confined` rule), and it rests on one checked invariant: a
//! process only ever suspends from its own coroutine, on the thread inside
//! its simulation's `run` (see [`Env::suspend`]).

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "simnet's coroutine engine supports x86-64 Linux only: the stack switch is hand-written \
     x86-64 assembly and process stacks are mapped with Linux mmap flags"
);

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::ffi::c_void;
use std::panic::{self, AssertUnwindSafe};
use std::ptr::{self, NonNull};
use std::rc::Rc;

use crate::shared::Shared;
use crate::telemetry::Telemetry;
use crate::time::{SimDuration, SimTime};

/// One dispatched event, as recorded by the event trace (see
/// [`SimHandle::enable_event_trace`]). Two runs of the same workload
/// produce identical traces; [`first_divergence`] finds the first index
/// where two traces do not agree.
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
/// where they differ (`None` entries mean one trace ended early): the
/// first event at which two runs stopped agreeing.
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

/// Sentinel panic payload used to unwind a process when the simulation
/// shuts down while the process is still blocked.
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

/// The message of a caught panic, for the failure list `run()` re-raises.
fn panic_message(payload: &dyn Any) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic>".to_string())
}

enum EventKind {
    /// Resume the given process. Carries the process's control block so
    /// the dispatch hot path never indexes the (cache-cold, randomly
    /// accessed) `procs` table: the reference is cloned at schedule time,
    /// when the control block's cache line is typically already warm.
    Wake(Pid, Rc<ProcCtl>),
    /// Run an arbitrary callback on the scheduler's stack (used by the
    /// fluid-flow link model to complete transfers).
    Call(Box<dyn FnOnce()>),
    /// Like `Call`, but carries a cancellation flag. A cancelled event is
    /// skipped by the scheduler *without* advancing `now` or counting as
    /// processed, so an unfired timeout leaves the timeline untouched —
    /// essential for deadline timers that almost never fire.
    CancellableCall(Rc<Cell<bool>>, Box<dyn FnOnce()>),
}

/// Token returned by [`SimHandle::schedule_call_cancellable`]; cancelling
/// it makes the scheduled callback a no-op that does not advance simulated
/// time when its slot comes up.
#[derive(Clone)]
pub struct CancelToken(Rc<Cell<bool>>);

impl CancelToken {
    /// Prevent the associated callback from running (idempotent).
    pub fn cancel(&self) {
        self.0.set(true);
    }
}

/// Process states, stored in [`ProcCtl::state`].
const PROC_WAITING: u8 = 0;
const PROC_RUNNING: u8 = 1;
const PROC_DONE: u8 = 2;

/// A process body, boxed until its coroutine first runs.
type Job = Box<dyn FnOnce()>;

/// Per-process control block, read and written only by the thread inside
/// the simulation's `run` (the scheduler and the one coroutine it has
/// switched into).
pub(crate) struct ProcCtl {
    state: Cell<u8>,
    abort: Cell<bool>,
    /// Saved stack pointer while the coroutine is switched out; null
    /// until the process first runs.
    sp: Cell<*mut u8>,
    /// Base of the process's stack mapping while it holds one.
    stack: Cell<*mut u8>,
    /// The body, taken by the coroutine when it first runs (or dropped
    /// unrun when the simulation shuts down first).
    body: Cell<Option<Job>>,
    /// Debug builds: where this process took each [`Shared`] guard it
    /// still holds. Every suspend asserts that there are none.
    #[cfg(debug_assertions)]
    guards: RefCell<Vec<&'static panic::Location<'static>>>,
    name: String,
}

impl ProcCtl {
    fn new(name: String) -> Self {
        ProcCtl {
            state: Cell::new(PROC_WAITING),
            abort: Cell::new(false),
            sp: Cell::new(ptr::null_mut()),
            stack: Cell::new(ptr::null_mut()),
            body: Cell::new(None),
            #[cfg(debug_assertions)]
            guards: RefCell::new(Vec::new()),
            name,
        }
    }

    #[inline]
    fn state(&self) -> u8 {
        self.state.get()
    }

    fn set_state(&self, state: u8) {
        self.state.set(state);
    }
}

/// The process switched into on this thread, if any.
#[cfg(debug_assertions)]
fn running_proc<'a>() -> Option<&'a ProcCtl> {
    SchedCtx::on_this_thread().and_then(SchedCtx::current_proc)
}

/// Debug builds: record a [`Shared`] guard taken `at` by the running
/// process. Returns that process's identity for [`guard_released`], null
/// outside a process (scheduler callbacks, code around a run).
#[cfg(debug_assertions)]
pub(crate) fn guard_taken(at: &'static panic::Location<'static>) -> *const () {
    match running_proc() {
        Some(ctl) => {
            ctl.guards.borrow_mut().push(at);
            ptr::from_ref(ctl).cast()
        }
        None => ptr::null(),
    }
}

/// Debug builds: forget the guard taken `at` that [`guard_taken`]
/// recorded for `owner`, if `owner` is still the running process (a
/// guard dropped elsewhere spanned a suspend, which already failed).
#[cfg(debug_assertions)]
pub(crate) fn guard_released(owner: *const (), at: &'static panic::Location<'static>) {
    if let Some(ctl) = running_proc().filter(|c| ptr::eq(ptr::from_ref(*c).cast(), owner)) {
        let mut held = ctl.guards.borrow_mut();
        if let Some(i) = held.iter().rposition(|l| ptr::eq(*l, at)) {
            held.remove(i);
        }
    }
}

// ---------------------------------------------------------------------------
// Coroutines: the stack switch and the stacks
// ---------------------------------------------------------------------------

// `simnet_coro_switch(save, load)` pushes the six callee-saved registers
// of the System V ABI, stores the stack pointer to `*save`, loads `load`
// as the stack pointer and pops the registers saved there: the suspended
// side resumes by returning from its own call to the switch. Everything
// else the ABI lets a callee clobber, the compiler already assumes lost
// across this `extern "C"` call.
//
// `simnet_coro_start` is where a fresh stack's first switch returns to
// (see `start_frame`): it calls `coro_entry`, whose address the frame
// put in r12. `coro_entry` never returns. `.cfi_undefined rip` marks the
// trampoline as the outermost frame, so a backtrace taken in a process
// ends here instead of walking off the top of the stack.
std::arch::global_asm!(
    ".pushsection .text.simnet_coro,\"ax\",@progbits",
    ".p2align 4",
    ".globl simnet_coro_switch",
    ".hidden simnet_coro_switch",
    ".type simnet_coro_switch,@function",
    "simnet_coro_switch:",
    "push rbp",
    "push rbx",
    "push r12",
    "push r13",
    "push r14",
    "push r15",
    "mov [rdi], rsp",
    "mov rsp, rsi",
    "pop r15",
    "pop r14",
    "pop r13",
    "pop r12",
    "pop rbx",
    "pop rbp",
    "ret",
    ".size simnet_coro_switch, . - simnet_coro_switch",
    ".p2align 4",
    ".globl simnet_coro_start",
    ".hidden simnet_coro_start",
    ".type simnet_coro_start,@function",
    "simnet_coro_start:",
    ".cfi_startproc",
    ".cfi_undefined rip",
    "call r12",
    "ud2",
    ".cfi_endproc",
    ".size simnet_coro_start, . - simnet_coro_start",
    ".popsection",
);

extern "C" {
    fn simnet_coro_switch(save: *mut *mut u8, load: *mut u8);
    fn simnet_coro_start();
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
}

/// Bytes mapped per process stack, guard page included. Process code is
/// shallow (no deep recursion), so 512 KiB is ample.
const STACK_BYTES: usize = 512 * 1024;
/// The `PROT_NONE` page at the low end of every stack: an overflow faults
/// instead of silently running into the neighbouring mapping.
const GUARD_BYTES: usize = 4096;

const PROT_NONE: i32 = 0;
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
const MAP_NORESERVE: i32 = 0x4000;
const MAP_STACK: i32 = 0x20000;

/// Map one process stack. `MAP_NORESERVE`: a stack costs memory only for
/// the pages its process actually touches.
fn map_stack() -> NonNull<u8> {
    // SAFETY: an anonymous private mapping with no address hint aliases
    // nothing; the result is checked before use.
    let base = unsafe {
        mmap(
            ptr::null_mut(),
            STACK_BYTES,
            PROT_READ | PROT_WRITE,
            MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
            -1,
            0,
        )
    };
    assert!(
        base as isize != -1,
        "simnet: mapping a process stack failed: {}",
        std::io::Error::last_os_error()
    );
    // SAFETY: the guard page is the first page of the mapping just made.
    let rc = unsafe { mprotect(base, GUARD_BYTES, PROT_NONE) };
    assert_eq!(
        rc,
        0,
        "simnet: protecting a stack guard page failed: {}",
        std::io::Error::last_os_error()
    );
    STACKS_MAPPED.with(|n| n.set(n.get() + 1));
    NonNull::new(base.cast()).expect("mmap returned null")
}

/// The stack pointer a fresh stack's first switch loads: a frame whose
/// six register slots are zero except r12 = `coro_entry`, and whose
/// return address is the start trampoline. After the `ret` the stack
/// pointer sits at the (16-byte aligned) top, so the trampoline's `call`
/// enters `coro_entry` with the alignment the ABI requires.
fn start_frame(stack: NonNull<u8>) -> *mut u8 {
    // Popped in this order: r15 r14 r13 r12 rbx rbp, then `ret`.
    let frame: [usize; 7] = [
        0,
        0,
        0,
        coro_entry as *const () as usize,
        0,
        0,
        simnet_coro_start as *const () as usize,
    ];
    let top = stack.as_ptr().wrapping_add(STACK_BYTES).cast::<usize>();
    let sp = top.wrapping_sub(frame.len());
    // SAFETY: the seven words are the top 56 bytes of a writable mapping
    // of STACK_BYTES that no process is using, and page alignment makes
    // them word-aligned.
    unsafe { ptr::copy_nonoverlapping(frame.as_ptr(), sp, frame.len()) };
    sp.cast()
}

/// Where a process's coroutine begins, on its own stack: run the body,
/// record a panic as a failure, and switch back to the scheduler for the
/// last time. `extern "C"` with `catch_unwind` inside, so no unwind ever
/// reaches the stack switch (one that escaped would abort the program).
extern "C" fn coro_entry() -> ! {
    let sched = SchedCtx::on_this_thread().expect("a coroutine started outside Simulation::run");
    let ctl = sched
        .current_proc()
        .expect("a coroutine started with no process to run");
    let body = ctl.body.take();
    if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| {
        if let Some(body) = body {
            body();
        }
    })) {
        if payload.downcast_ref::<SimAbort>().is_none() {
            let msg = panic_message(&*payload);
            sched
                .handle
                .inner
                .lock()
                .failures
                .push(format!("process '{}' panicked: {msg}", ctl.name));
        }
    }
    ctl.set_state(PROC_DONE);
    sched.switch_out(ctl);
    // The scheduler never resumes a finished process.
    std::process::abort()
}

thread_local! {
    /// The scheduler of the `Simulation::run` executing on this thread,
    /// null outside one. `run` saves the previous value and restores it on
    /// exit, so a simulation run from inside another's process nests.
    static RUNNING: Cell<*const SchedCtx> = const { Cell::new(ptr::null()) };
    /// Process stacks this thread has mapped. Each run recycles finished
    /// processes' stacks, so this grows with peak live processes, not
    /// with spawns.
    static STACKS_MAPPED: Cell<u64> = const { Cell::new(0) };
}

/// Process stacks mapped on this thread so far (see `STACKS_MAPPED`).
#[cfg(test)]
pub(crate) fn stacks_mapped() -> u64 {
    STACKS_MAPPED.with(Cell::get)
}

/// The scheduler side of one [`Simulation::run`], on that call's stack.
struct SchedCtx {
    handle: SimHandle,
    /// The scheduler's stack pointer, saved while a process runs.
    sp: Cell<*mut u8>,
    /// The process switched into, null while the scheduler itself runs.
    current: Cell<*const ProcCtl>,
    /// Stacks of finished processes, ready for the next one to start.
    free: RefCell<Vec<NonNull<u8>>>,
}

impl SchedCtx {
    /// The scheduler running on this thread, if any.
    fn on_this_thread<'a>() -> Option<&'a SchedCtx> {
        let sched = RUNNING.with(Cell::get);
        // SAFETY: a non-null RUNNING points at the SchedCtx of a
        // `Simulation::run` frame still live on this thread: `run` sets it
        // after placing the context and restores the previous value
        // before the context is dropped.
        unsafe { sched.as_ref() }
    }

    /// The process this scheduler has switched into, if any.
    fn current_proc(&self) -> Option<&ProcCtl> {
        // SAFETY: `current` is set from a live `Rc<ProcCtl>` that
        // `resume`'s caller holds for the whole time the process runs, and
        // is cleared when control comes back to the scheduler.
        unsafe { self.current.get().as_ref() }
    }

    /// Switch from the scheduler into `ctl`'s coroutine, starting it on a
    /// stack of its own the first time, until it suspends or finishes.
    fn resume(&self, ctl: &Rc<ProcCtl>) {
        debug_assert_eq!(ctl.state(), PROC_WAITING, "woke a process that is running");
        if ctl.sp.get().is_null() {
            let stack = self.free.borrow_mut().pop().unwrap_or_else(map_stack);
            ctl.stack.set(stack.as_ptr());
            ctl.sp.set(start_frame(stack));
        }
        ctl.set_state(PROC_RUNNING);
        self.current.set(Rc::as_ptr(ctl));
        // SAFETY: `ctl.sp` is either the start frame of a stack owned by
        // this process or the value its own last `switch_out` saved; it
        // was suspended on this thread (the `Env::suspend` affinity
        // assert), so its registers and stack are exactly as it left them.
        unsafe { simnet_coro_switch(self.sp.as_ptr(), ctl.sp.get()) };
        self.current.set(ptr::null());
        if ctl.state() == PROC_DONE {
            self.reclaim_stack(ctl);
        }
    }

    /// From inside `ctl`'s coroutine: save its registers and give control
    /// back to the scheduler. Returns when the scheduler resumes it.
    fn switch_out(&self, ctl: &ProcCtl) {
        // SAFETY: called only on `ctl`'s own stack while `ctl` is the
        // process this scheduler switched into (asserted by the callers),
        // so `self.sp` holds the scheduler's stack pointer saved by that
        // `resume`, whose frame is still live below this coroutine.
        unsafe { simnet_coro_switch(ctl.sp.as_ptr(), self.sp.get()) };
    }

    /// Put a process's stack back on the free list. Only for a process
    /// that will never run again: finished, or abandoned at shutdown.
    fn reclaim_stack(&self, ctl: &ProcCtl) {
        ctl.sp.set(ptr::null_mut());
        let stack = ctl.stack.replace(ptr::null_mut());
        if let Some(stack) = NonNull::new(stack) {
            self.free.borrow_mut().push(stack);
        }
    }
}

impl Drop for SchedCtx {
    fn drop(&mut self) {
        for stack in self.free.get_mut().drain(..) {
            // SAFETY: every stack on the free list is a whole mapping made
            // by `map_stack` whose process will never run again. A failed
            // unmap only leaks the mapping.
            unsafe { munmap(stack.as_ptr().cast(), STACK_BYTES) };
        }
    }
}

/// Restores the previous [`RUNNING`] scheduler when a run ends.
struct RunningGuard(*const SchedCtx);

impl Drop for RunningGuard {
    fn drop(&mut self) {
        RUNNING.with(|r| r.set(self.0));
    }
}

// ---------------------------------------------------------------------------
// The kernel
// ---------------------------------------------------------------------------

/// Capped event-trace buffer. Records past the cap are counted, not
/// stored, and surface as a single `"truncated"` sentinel record so two
/// (equally truncated) big-run traces can still be compared.
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

/// A queued event. The queue pops the earliest `(time, seq)` first.
struct Event {
    time: SimTime,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    // `BinaryHeap` is a max-heap: the reversed key pops the earliest first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

struct KernelInner {
    queue: BinaryHeap<Event>,
    now: SimTime,
    /// The next event's sequence number: events at one instant fire in
    /// the order they were queued.
    seq: u64,
    procs: Vec<Rc<ProcCtl>>,
    failures: Vec<String>,
    events_processed: u64,
    /// Set once `run()` observes quiescence; nothing dispatches any more
    /// and events scheduled by unwinding processes stay unprocessed.
    shutting_down: bool,
    /// When `Some`, every dispatched event is appended (cancelled events
    /// are skipped: they never advance time).
    trace: Option<TraceBuf>,
}

impl KernelInner {
    /// Queue `kind` at `time`, behind every event already queued for
    /// that instant (the FIFO tie-break).
    fn push(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Event { time, seq, kind });
    }
}

/// Shared, cloneable handle to the simulation kernel. Synchronization
/// primitives ([`crate::sync`], [`crate::link`]) hold one of these to
/// schedule wake-ups and callbacks.
#[derive(Clone)]
pub struct SimHandle {
    inner: Shared<KernelInner>,
    telemetry: Telemetry,
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
    /// [`SimHandle::take_event_trace`], and compare two traces with
    /// [`first_divergence`].
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

    /// Number of processes spawned so far (each one a coroutine with a
    /// stack of its own for its lifetime; the wall-clock harness reports
    /// this).
    pub fn processes_spawned(&self) -> u64 {
        self.inner.lock().procs.len() as u64
    }

    /// Spawn a process; it becomes runnable at the current instant. This is
    /// the same operation as [`Simulation::spawn`] / [`Env::spawn`], exposed
    /// on the handle so library code (e.g. RPC servers) can start workers.
    pub fn spawn(&self, name: impl Into<String>, f: impl FnOnce(Env) + 'static) -> ProcessHandle {
        spawn_with_handle(self, name.into(), f)
    }

    pub(crate) fn schedule_wake(&self, time: SimTime, pid: Pid) {
        let mut k = self.inner.lock();
        let ctl = k.procs[pid].clone();
        k.push(time, EventKind::Wake(pid, ctl));
    }

    /// Schedule an arbitrary callback to run on the scheduler's stack at
    /// `time`. The callback must not block; it may schedule further events
    /// and wake processes.
    pub fn schedule_call(&self, time: SimTime, f: impl FnOnce() + 'static) {
        self.inner.lock().push(time, EventKind::Call(Box::new(f)));
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
        f: impl FnOnce() + 'static,
    ) -> CancelToken {
        let flag = Rc::new(Cell::new(false));
        self.inner
            .lock()
            .push(time, EventKind::CancellableCall(flag.clone(), Box::new(f)));
        CancelToken(flag)
    }

    fn spawn_inner(&self, name: String, f: impl FnOnce(Env) + 'static) {
        let ctl = Rc::new(ProcCtl::new(name));
        let pid = {
            let mut k = self.inner.lock();
            assert!(
                !k.shutting_down,
                "cannot spawn a process while the simulation is shutting down"
            );
            k.procs.push(ctl.clone());
            k.procs.len() - 1
        };
        let env = Env {
            handle: self.clone(),
            pid,
            ctl: ctl.clone(),
        };
        // The body is in place before the wake that starts it is queued.
        let body: Job = Box::new(move || f(env));
        ctl.body.set(Some(body));
        let mut k = self.inner.lock();
        let now = k.now;
        k.push(now, EventKind::Wake(pid, ctl));
    }

    /// Pop and dispatch events until one wakes a process (its control
    /// block is returned) or the queue drains (`None`). `Call` events run
    /// inline, on the calling (scheduler) stack. Wakes for finished
    /// processes are skipped — their timers may outlive them — but still
    /// advance `now` and count as processed.
    fn dispatch_until_wake(&self) -> Option<Rc<ProcCtl>> {
        loop {
            let call = {
                let mut k = self.inner.lock();
                loop {
                    let Event { time, seq, kind } = k.queue.pop()?;
                    if let EventKind::CancellableCall(flag, _) = &kind {
                        if flag.get() {
                            // Cancelled timer: discard without touching
                            // `now` or the processed-event count, so it
                            // leaves no trace on the timeline.
                            continue;
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
                        EventKind::Wake(_, ctl) => {
                            if ctl.state() == PROC_DONE {
                                continue;
                            }
                            return Some(ctl);
                        }
                        EventKind::Call(f) | EventKind::CancellableCall(_, f) => break f,
                    }
                }
            };
            call();
        }
    }
}

/// The per-process capability handle, passed to every process body. All
/// blocking simulation primitives go through an `Env`.
///
/// A process runs on the thread inside its simulation's `run`, and its
/// `Env` cannot leave that thread:
///
/// ```compile_fail,E0277
/// let sim = simnet::Simulation::new();
/// sim.spawn("p", |env| {
///     std::thread::spawn(move || env.sleep(simnet::SimDuration::from_secs(1)));
/// });
/// ```
#[derive(Clone)]
pub struct Env {
    handle: SimHandle,
    pid: Pid,
    ctl: Rc<ProcCtl>,
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
        // The wake push is fused into one kernel-lock acquisition: reading
        // `now` and queueing the wake.
        self.suspend_after(|k| {
            let t = k.now + d;
            k.push(t, EventKind::Wake(self.pid, self.ctl.clone()));
        });
    }

    /// Let every other event scheduled at the current instant run first.
    pub fn yield_now(&self) {
        self.sleep(SimDuration::ZERO);
    }

    /// Spawn a child process; it becomes runnable at the current instant.
    pub fn spawn(&self, name: impl Into<String>, f: impl FnOnce(Env) + 'static) -> ProcessHandle {
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
    ///
    /// Panics unless called from this process's own body, on the thread
    /// inside its simulation's `run`: an `Env` moved into another process
    /// must not switch stacks it does not own. Debug builds also panic if
    /// the process holds a [`Shared`] guard, which another process could
    /// then find taken.
    pub(crate) fn suspend(&self) {
        self.suspend_after(|_| {});
    }

    /// [`Env::suspend`] with a prologue run under the kernel lock before
    /// control leaves the process; `sleep` passes its wake push here.
    fn suspend_after<F: FnOnce(&mut KernelInner)>(&self, pre: F) {
        let sched = SchedCtx::on_this_thread()
            .filter(|s| ptr::eq(s.current.get(), Rc::as_ptr(&self.ctl)))
            .unwrap_or_else(|| {
                panic!(
                    "process '{}' must suspend on the thread running its own Simulation::run, \
                     from its own body (was its Env moved into another process?)",
                    self.ctl.name
                )
            });
        debug_assert_eq!(self.ctl.state(), PROC_RUNNING);
        #[cfg(debug_assertions)]
        {
            let held = self.ctl.guards.borrow();
            if !held.is_empty() {
                let sites: Vec<String> = held.iter().map(|l| l.to_string()).collect();
                panic!(
                    "process '{}' suspends holding a Shared guard taken at {}",
                    self.ctl.name,
                    sites.join(", ")
                );
            }
        }
        {
            let mut k = self.handle.inner.lock();
            pre(&mut k);
        }
        self.ctl.set_state(PROC_WAITING);
        sched.switch_out(&self.ctl);
        if self.ctl.abort.get() {
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
    f: impl FnOnce(Env) + 'static,
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
    /// Create an empty simulation at time zero.
    pub fn new() -> Self {
        Simulation {
            handle: SimHandle {
                inner: Shared::new(KernelInner {
                    queue: BinaryHeap::new(),
                    now: SimTime::ZERO,
                    seq: 0,
                    procs: Vec::new(),
                    failures: Vec::new(),
                    events_processed: 0,
                    shutting_down: false,
                    trace: None,
                }),
                telemetry: Telemetry::new(),
            },
        }
    }

    /// Cloneable handle for constructing primitives before the run starts.
    pub fn handle(&self) -> SimHandle {
        self.handle.clone()
    }

    /// Spawn a root process; it becomes runnable at time zero (or the
    /// current time, if spawned mid-run from outside — not typical).
    pub fn spawn(&self, name: impl Into<String>, f: impl FnOnce(Env) + 'static) -> ProcessHandle {
        spawn_with_handle(&self.handle, name.into(), f)
    }

    /// Run the simulation to quiescence (empty event queue) and return the
    /// final simulated time. Every process runs as a coroutine on the
    /// calling thread.
    ///
    /// Processes still blocked at quiescence (e.g. a server loop waiting on
    /// a request channel that will never receive again) are aborted
    /// cleanly: each is resumed once more and unwinds its stack. Panics
    /// raised *inside* processes or scheduled callbacks are collected and
    /// re-raised here so test failures point at the real error.
    pub fn run(self) -> SimTime {
        let handle = self.handle;
        let sched = SchedCtx {
            handle: handle.clone(),
            sp: Cell::new(ptr::null_mut()),
            current: Cell::new(ptr::null()),
            free: RefCell::new(Vec::new()),
        };
        let _running = RunningGuard(RUNNING.with(|r| r.replace(&sched)));

        // A panicking callback stops the dispatching; it is reported with
        // the process failures once the blocked processes are aborted.
        let dispatched = panic::catch_unwind(AssertUnwindSafe(|| {
            while let Some(ctl) = handle.dispatch_until_wake() {
                sched.resume(&ctl);
            }
        }));
        if let Err(payload) = dispatched {
            let msg = panic_message(&*payload);
            handle
                .inner
                .lock()
                .failures
                .push(format!("scheduled callback panicked: {msg}"));
        }

        // Quiescent: abort every process still blocked, in spawn order, so
        // its stack unwinds. A process that suspends again mid-unwind is
        // abandoned where it stopped, never to run again. The unwind it
        // was in then never finishes, so this thread keeps counting one
        // panic in progress (`std::thread::panicking()` stays true here).
        let (final_time, procs) = {
            let mut k = handle.inner.lock();
            k.shutting_down = true;
            (k.now, k.procs.clone())
        };
        for ctl in &procs {
            if ctl.state() == PROC_DONE {
                continue;
            }
            ctl.abort.set(true);
            if ctl.sp.get().is_null() {
                // Never started: drop the body unrun.
                drop(ctl.body.take());
                ctl.set_state(PROC_DONE);
            } else {
                sched.resume(ctl);
                if ctl.state() != PROC_DONE {
                    sched.reclaim_stack(ctl);
                }
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
    use crate::fault::splitmix64;
    use proptest::prelude::*;
    use std::cell::Cell;

    #[test]
    fn empty_simulation_finishes_at_zero() {
        let sim = Simulation::new();
        assert_eq!(sim.run(), SimTime::ZERO);
    }

    #[test]
    fn instantly_finishing_processes_quiesce() {
        // Processes that never suspend: each runs to completion on its
        // first switch, and the run ends when the last one finishes.
        let sim = Simulation::new();
        let ran = Rc::new(Cell::new(0));
        for i in 0..16 {
            let ran = ran.clone();
            sim.spawn(format!("f{i}"), move |_env| {
                ran.set(ran.get() + 1);
            });
        }
        assert_eq!(sim.run(), SimTime::ZERO, "no process advanced time");
        assert_eq!(ran.get(), 16, "every process ran");
    }

    #[test]
    fn sleep_advances_virtual_time() {
        let sim = Simulation::new();
        let observed = Rc::new(Cell::new(0));
        let obs = observed.clone();
        sim.spawn("sleeper", move |env| {
            env.sleep(SimDuration::from_millis(250));
            obs.set(env.now().as_nanos());
        });
        let end = sim.run();
        assert_eq!(observed.get(), 250_000_000);
        assert_eq!(end.as_nanos(), 250_000_000);
    }

    #[test]
    fn equal_time_events_fire_in_spawn_order() {
        let sim = Simulation::new();
        let order = Shared::new(Vec::new());
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
        let total = Rc::new(Cell::new(0));
        let t2 = total.clone();
        sim.spawn("parent", move |env| {
            let mut children = Vec::new();
            for i in 1..=4u64 {
                let t = t2.clone();
                children.push(env.spawn(format!("child{i}"), move |env| {
                    env.sleep(SimDuration::from_secs(i));
                    t.set(t.get() + i);
                }));
            }
            for c in &children {
                c.join(&env);
            }
            // All children joined; longest slept 4s.
            assert_eq!(env.now(), SimTime::ZERO + SimDuration::from_secs(4));
        });
        let end = sim.run();
        assert_eq!(total.get(), 10);
        assert_eq!(end.as_nanos(), SimDuration::from_secs(4).as_nanos());
    }

    #[test]
    fn blocked_process_is_aborted_cleanly_at_quiescence() {
        /// Suspends again while the abort unwinds through it.
        struct SleepsOnDrop(Env);
        impl Drop for SleepsOnDrop {
            fn drop(&mut self) {
                self.0.sleep(SimDuration::from_secs(1));
            }
        }
        let sim = Simulation::new();
        let h = sim.handle();
        let (_tx, rx) = crate::sync::channel::<u32>(&h);
        let (_tx2, rx2) = crate::sync::channel::<u32>(&h);
        sim.spawn("server", move |env| {
            // This recv never completes; the simulation must still shut
            // down and not report the abort as a failure.
            let _ = rx.recv(&env);
            unreachable!("recv should have been aborted");
        });
        sim.spawn("stubborn", move |env| {
            let _suspends_mid_unwind = SleepsOnDrop(env.clone());
            let _ = rx2.recv(&env);
            unreachable!("recv should have been aborted");
        });
        assert_eq!(sim.run(), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn process_panics_propagate_to_run() {
        let sim = Simulation::new();
        sim.spawn("bad", |_env| panic!("boom"));
        sim.run();
    }

    #[test]
    #[should_panic(expected = "scheduled callback panicked: call boom")]
    fn panicking_call_is_reported_by_run() {
        let sim = Simulation::new();
        let h = sim.handle();
        // A blocked process must still be aborted before the report.
        let (_tx, rx) = crate::sync::channel::<u32>(&h);
        sim.spawn("waiter", move |env| {
            let _ = rx.recv(&env);
        });
        h.schedule_call(SimTime::from_nanos(5), || panic!("call boom"));
        sim.run();
    }

    #[test]
    fn ten_thousand_live_processes_reuse_their_stacks() {
        const LIVE: usize = 10_000;
        fn wave(h: &SimHandle, done: &Rc<Cell<u64>>) {
            for i in 0..LIVE {
                let done = done.clone();
                h.spawn(format!("w{i}"), move |env| {
                    // Touch 64 KiB of this process's stack.
                    std::hint::black_box(&mut [0u8; 64 << 10]);
                    env.sleep(SimDuration::from_secs(1));
                    done.set(done.get() + 1);
                });
            }
        }
        let sim = Simulation::new();
        let h = sim.handle();
        let done = Rc::new(Cell::new(0));
        // First wave: all alive at once, sleeping. The second starts from a
        // callback after the first has finished, so it runs entirely on
        // recycled stacks.
        wave(&h, &done);
        let (h2, d2) = (h.clone(), done.clone());
        h.schedule_call(SimTime::ZERO + SimDuration::from_secs(2), move || {
            wave(&h2, &d2)
        });
        let mapped_before = stacks_mapped();
        assert_eq!(sim.run(), SimTime::ZERO + SimDuration::from_secs(3));
        assert_eq!(done.get(), 2 * LIVE as u64);
        assert_eq!(
            stacks_mapped() - mapped_before,
            LIVE as u64,
            "stacks mapped must equal peak live processes"
        );
    }

    #[test]
    fn cancelled_callback_does_not_advance_time() {
        let sim = Simulation::new();
        let h = sim.handle();
        let fired = Rc::new(Cell::new(0));
        let f2 = fired.clone();
        // A timer far in the future, cancelled before the run: the
        // simulation must end at the last *live* event, not at the timer.
        let token = h.schedule_call_cancellable(SimTime::from_nanos(1_000_000), move || {
            f2.set(1);
        });
        sim.spawn("worker", |env| env.sleep(SimDuration::from_nanos(10)));
        token.cancel();
        let end = sim.run();
        assert_eq!(fired.get(), 0);
        assert_eq!(end.as_nanos(), 10);
    }

    #[test]
    fn uncancelled_cancellable_callback_fires() {
        let sim = Simulation::new();
        let h = sim.handle();
        let fired = Rc::new(Cell::new(0));
        let f2 = fired.clone();
        let h2 = h.clone();
        let _token = h.schedule_call_cancellable(SimTime::from_nanos(77), move || {
            f2.set(h2.now().as_nanos());
        });
        sim.run();
        assert_eq!(fired.get(), 77);
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
        // A traced scenario well under the default cap carries no
        // truncation sentinel.
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
        let fired = Rc::new(Cell::new(0));
        let f2 = fired.clone();
        let h2 = h.clone();
        h.schedule_call(SimTime::from_nanos(42), move || {
            f2.set(h2.now().as_nanos());
        });
        sim.run();
        assert_eq!(fired.get(), 42);
    }

    #[test]
    fn deep_timer_spread_dispatches_in_order() {
        // Timers from nanoseconds to a day ahead, armed out of time
        // order: the kernel must fire them in exact (time, seq) order.
        let sim = Simulation::new();
        let h = sim.handle();
        let fired = Shared::new(Vec::new());
        let mut times: Vec<u64> = (0..200)
            .map(|i| splitmix64(i as u64 ^ 0xABCD) % 60_000_000_000)
            .collect();
        times.push(0);
        times.push(90_000_000_000_000);
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

    /// Where an armed event of the order oracle stands.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Armed {
        Pending,
        Fired,
        Cancelled,
    }

    /// One step of the order oracle's plan: what to arm (0 a call, 1 a
    /// cancellable call, 2 a sleep), how far ahead, when to cancel it
    /// (0 never, 1 at once, 2 when the next event fires) and how many
    /// further steps its firing arms.
    #[derive(Clone, Copy, Debug)]
    struct Step {
        kind: u8,
        delay: u64,
        cancel: u8,
        children: u8,
    }

    /// Arms the plan's steps from outside the run, from callbacks and
    /// from processes, and records what fired when.
    struct Oracle {
        h: SimHandle,
        plan: RefCell<std::collections::VecDeque<Step>>,
        /// Per event, in arm order: its time and where it stands.
        armed: RefCell<Vec<(SimTime, Armed)>>,
        /// `(event, now)` per firing, in firing order.
        fired: RefCell<Vec<(usize, SimTime)>>,
        /// Cancellable events the next firing cancels.
        to_cancel: RefCell<Vec<(usize, CancelToken)>>,
        spawned: Cell<u64>,
    }

    impl Oracle {
        fn note_armed(&self, delay: u64) -> (usize, SimTime) {
            let at = self.h.now() + SimDuration::from_nanos(delay);
            let mut armed = self.armed.borrow_mut();
            armed.push((at, Armed::Pending));
            (armed.len() - 1, at)
        }

        /// Move event `id` from `Pending` to `to`; any other state stays.
        fn settle(&self, id: usize, to: Armed) {
            let mut armed = self.armed.borrow_mut();
            if armed[id].1 == Armed::Pending {
                armed[id].1 = to;
            }
        }

        fn cancel(&self, id: usize, token: &CancelToken) {
            token.cancel();
            self.settle(id, Armed::Cancelled);
        }

        fn arm_next(self: &Rc<Self>, n: u8) {
            for _ in 0..n {
                let Some(step) = self.plan.borrow_mut().pop_front() else {
                    return;
                };
                let me = Rc::clone(self);
                if step.kind == 2 {
                    self.spawned.set(self.spawned.get() + 1);
                    self.h.spawn("sleeper", move |env| {
                        let (id, _) = me.note_armed(step.delay);
                        env.sleep(SimDuration::from_nanos(step.delay));
                        me.fire(id, step.children);
                    });
                    continue;
                }
                let (id, at) = self.note_armed(step.delay);
                let fire = move || me.fire(id, step.children);
                if step.kind == 0 {
                    self.h.schedule_call(at, fire);
                    continue;
                }
                let token = self.h.schedule_call_cancellable(at, fire);
                match step.cancel {
                    1 => self.cancel(id, &token),
                    2 => self.to_cancel.borrow_mut().push((id, token)),
                    _ => {}
                }
            }
        }

        fn fire(self: &Rc<Self>, id: usize, children: u8) {
            // A cancelled event that runs anyway stays `Cancelled` and
            // fails the property.
            self.settle(id, Armed::Fired);
            self.fired.borrow_mut().push((id, self.h.now()));
            for (id, token) in self.to_cancel.take() {
                self.cancel(id, &token);
            }
            self.arm_next(children);
        }
    }

    proptest! {
        /// Random mixes of calls, cancellable calls and sleeps, armed
        /// before the run, from callbacks and from processes, often at
        /// one instant, with a random subset cancelled: events fire in
        /// `(time, arm order)`, a cancelled one never runs and moves
        /// neither `now` nor the processed count, and the event trace is
        /// strictly increasing in `(time, seq)`.
        #[test]
        fn events_fire_in_time_then_arm_order(
            roots in 1u8..5,
            raw in collection::vec(
                (0u8..3, 0u8..6, any::<u64>(), 0u8..3, 0u8..4),
                1..64,
            ),
        ) {
            let sim = Simulation::new();
            let h = sim.handle();
            h.enable_event_trace();
            let plan = raw
                .iter()
                .map(|&(kind, class, r, cancel, children)| Step {
                    kind,
                    delay: match class {
                        0 => 0,
                        1 => r % 3,
                        2 => 1_000,
                        3 => r % 5_000_000,
                        4 => r % 60_000_000_000,
                        _ => r % 90_000_000_000_000,
                    },
                    cancel,
                    children,
                })
                .collect();
            let oracle = Rc::new(Oracle {
                h: h.clone(),
                plan: RefCell::new(plan),
                armed: RefCell::new(Vec::new()),
                fired: RefCell::new(Vec::new()),
                to_cancel: RefCell::new(Vec::new()),
                spawned: Cell::new(0),
            });
            oracle.arm_next(roots);
            let end = sim.run();

            let armed = oracle.armed.borrow();
            let fired = oracle.fired.borrow();
            for (id, (_, state)) in armed.iter().enumerate() {
                prop_assert!(*state != Armed::Pending, "event {} never fired", id);
            }
            let runs: Vec<usize> = fired.iter().map(|&(id, _)| id).collect();
            let want: Vec<usize> = (0..armed.len())
                .filter(|&id| armed[id].1 == Armed::Fired)
                .collect();
            let mut got = runs.clone();
            got.sort_unstable();
            prop_assert_eq!(got, want);
            for &(id, at) in fired.iter() {
                prop_assert_eq!(at, armed[id].0);
            }
            let order: Vec<(SimTime, usize)> = fired.iter().map(|&(id, at)| (at, id)).collect();
            prop_assert!(
                order.windows(2).all(|w| w[0] < w[1]),
                "fired out of (time, arm order): {:?}",
                order
            );
            let last = order.last().map_or(SimTime::ZERO, |&(at, _)| at);
            prop_assert_eq!(end, last);
            let events = h.events_processed();
            prop_assert_eq!(events, fired.len() as u64 + oracle.spawned.get());
            let trace = h.take_event_trace();
            prop_assert_eq!(trace.len() as u64, events);
            prop_assert!(trace
                .windows(2)
                .all(|w| (w[0].time_ns, w[0].seq) < (w[1].time_ns, w[1].seq)));
        }
    }
}
