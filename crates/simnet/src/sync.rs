//! Synchronization primitives for simulated processes.
//!
//! All of these are *virtual-time* primitives: blocking never consumes
//! simulated time by itself; a blocked process resumes at the instant the
//! condition it waits for becomes true. Because the scheduler runs exactly
//! one process at a time, the register-then-suspend pattern used throughout
//! is free of lost-wakeup races (see [`crate::engine`]).

use std::collections::VecDeque;

use crate::shared::Shared;

use crate::engine::{Env, Pid, SimHandle};

// ---------------------------------------------------------------------------
// Signal: a one-shot broadcast event
// ---------------------------------------------------------------------------

struct SignalInner {
    set: bool,
    waiters: Vec<Pid>,
}

/// A one-shot broadcast flag: processes wait until some other process (or a
/// scheduler callback) sets it. Used for process joins, barriers and
/// middleware "session finished" notifications.
#[derive(Clone)]
pub struct Signal {
    handle: SimHandle,
    inner: Shared<SignalInner>,
}

impl Signal {
    /// Create an unset signal.
    pub fn new(handle: &SimHandle) -> Self {
        Signal {
            handle: handle.clone(),
            inner: Shared::new(SignalInner {
                set: false,
                waiters: Vec::new(),
            }),
        }
    }

    /// Whether the signal has been set.
    pub fn is_set(&self) -> bool {
        self.inner.lock().set
    }

    /// Set the signal and wake all waiters at the current instant.
    pub fn set(&self) {
        let waiters = {
            let mut s = self.inner.lock();
            s.set = true;
            std::mem::take(&mut s.waiters)
        };
        let now = self.handle.now();
        for pid in waiters {
            self.handle.schedule_wake(now, pid);
        }
    }

    /// Block the calling process until the signal is set. Returns
    /// immediately if already set.
    pub fn wait(&self, env: &Env) {
        {
            let mut s = self.inner.lock();
            if s.set {
                return;
            }
            s.waiters.push(env.pid());
        }
        env.suspend();
        debug_assert!(self.inner.lock().set);
    }
}

// ---------------------------------------------------------------------------
// Channel: unbounded FIFO message queue
// ---------------------------------------------------------------------------

struct ChannelInner<T> {
    queue: VecDeque<T>,
    waiters: VecDeque<Pid>,
    /// Pids whose deadline timer fired while they were registered in
    /// `waiters`: the timer moves the pid here (under this lock) before
    /// waking it, so exactly one waker ever resumes a timed receiver and
    /// the receiver can tell a timeout wake from a message wake.
    timed_out: Vec<Pid>,
    senders: usize,
    receiver_alive: bool,
}

/// Sending half of a simulated channel. Cloning increases the sender count;
/// when all senders drop, blocked receivers observe disconnection.
pub struct Sender<T> {
    handle: SimHandle,
    inner: Shared<ChannelInner<T>>,
}

/// Receiving half of a simulated channel. Dropping the receiver discards
/// queued messages and makes subsequent sends no-ops.
pub struct Receiver<T> {
    inner: Shared<ChannelInner<T>>,
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let dropped = {
            let mut c = self.inner.lock();
            c.receiver_alive = false;
            std::mem::take(&mut c.queue)
        };
        // Dropped outside the lock: destructors may touch other channels
        // (e.g. an RPC envelope's reply sender waking its caller).
        drop(dropped);
    }
}

/// Error returned by [`Receiver::recv`] when the channel is empty and all
/// senders have been dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Disconnected;

/// Why a [`Receiver::recv_deadline`] returned without a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// The deadline passed with no message queued.
    Timeout,
    /// All senders dropped with the queue empty (same as [`Disconnected`]).
    Disconnected,
}

/// Create an unbounded simulated channel.
pub fn channel<T: 'static>(handle: &SimHandle) -> (Sender<T>, Receiver<T>) {
    let inner = Shared::new(ChannelInner {
        queue: VecDeque::new(),
        waiters: VecDeque::new(),
        timed_out: Vec::new(),
        senders: 1,
        receiver_alive: true,
    });
    (
        Sender {
            handle: handle.clone(),
            inner: inner.clone(),
        },
        Receiver { inner },
    )
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.inner.lock().senders += 1;
        Sender {
            handle: self.handle.clone(),
            inner: self.inner.clone(),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let waiters = {
            let mut c = self.inner.lock();
            c.senders -= 1;
            if c.senders == 0 {
                std::mem::take(&mut c.waiters)
            } else {
                VecDeque::new()
            }
        };
        let now = self.handle.now();
        for pid in waiters {
            self.handle.schedule_wake(now, pid);
        }
    }
}

impl<T: 'static> Sender<T> {
    /// Enqueue a message at the current instant, waking one blocked
    /// receiver if present. Never blocks (unbounded queue). If the
    /// receiver has been dropped the value is discarded — this is what
    /// makes a dropped RPC listener look like a reset connection.
    pub fn send(&self, value: T) {
        let woken = {
            let mut c = self.inner.lock();
            if !c.receiver_alive {
                return; // value dropped here, releasing any reply handles
            }
            c.queue.push_back(value);
            c.waiters.pop_front()
        };
        if let Some(pid) = woken {
            self.handle.schedule_wake(self.handle.now(), pid);
        }
    }
}

impl<T: 'static> Receiver<T> {
    /// Dequeue the next message, blocking in virtual time until one is
    /// available. Returns `Err(Disconnected)` once the queue is drained and
    /// every sender has been dropped.
    pub fn recv(&self, env: &Env) -> Result<T, Disconnected> {
        loop {
            {
                let mut c = self.inner.lock();
                if let Some(v) = c.queue.pop_front() {
                    return Ok(v);
                }
                if c.senders == 0 {
                    return Err(Disconnected);
                }
                c.waiters.push_back(env.pid());
            }
            env.suspend();
        }
    }

    /// Like [`Receiver::recv`], but give up once simulated time reaches
    /// `deadline`. A message queued at the exact deadline instant (but
    /// earlier in event order) wins over the timeout. The internal timer is
    /// cancellable, so an unfired deadline leaves no trace on the timeline
    /// — the simulation still ends at its natural final event.
    pub fn recv_deadline(
        &self,
        env: &Env,
        deadline: crate::time::SimTime,
    ) -> Result<T, RecvTimeoutError> {
        let handle = env.handle().clone();
        let pid = env.pid();
        loop {
            {
                let mut c = self.inner.lock();
                // Consume our timeout marker first so it can never go stale;
                // a queued message still wins over a simultaneous timeout.
                let fired = match c.timed_out.iter().position(|p| *p == pid) {
                    Some(pos) => {
                        c.timed_out.swap_remove(pos);
                        true
                    }
                    None => false,
                };
                if let Some(v) = c.queue.pop_front() {
                    return Ok(v);
                }
                if fired || handle.now() >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                if c.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                c.waiters.push_back(pid);
            }
            // Arm the deadline timer for this wait leg. The callback and
            // `send` race only under the channel lock: whoever removes the
            // pid from `waiters` is the single waker, so no stale second
            // wake can ever hit a later wait.
            let inner = self.inner.clone();
            let wake_handle = handle.clone();
            let token = handle.schedule_call_cancellable(deadline, move || {
                let fired = {
                    let mut c = inner.lock();
                    match c.waiters.iter().position(|p| *p == pid) {
                        Some(pos) => {
                            c.waiters.remove(pos);
                            c.timed_out.push(pid);
                            true
                        }
                        None => false, // a send or disconnect got there first
                    }
                };
                if fired {
                    wake_handle.schedule_wake(wake_handle.now(), pid);
                }
            });
            env.suspend();
            token.cancel();
        }
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.inner.lock().queue.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---------------------------------------------------------------------------
// Resource: FIFO counting semaphore (disk arms, CPU slots, ...)
// ---------------------------------------------------------------------------

struct ResourceInner {
    capacity: usize,
    in_use: usize,
    waiters: VecDeque<Pid>,
}

/// A FIFO counting semaphore. Grants are handed directly from releaser to
/// the longest-waiting process, so admission order is fair and
/// deterministic (no barging).
#[derive(Clone)]
pub struct Resource {
    handle: SimHandle,
    inner: Shared<ResourceInner>,
}

/// RAII guard for a [`Resource`] grant.
pub struct ResourceGuard {
    res: Resource,
}

impl Resource {
    /// Create a resource with `capacity` simultaneous grants.
    pub fn new(handle: &SimHandle, capacity: usize) -> Self {
        assert!(capacity > 0, "resource capacity must be positive");
        Resource {
            handle: handle.clone(),
            inner: Shared::new(ResourceInner {
                capacity,
                in_use: 0,
                waiters: VecDeque::new(),
            }),
        }
    }

    /// Acquire one grant, blocking in virtual time if none is free.
    pub fn acquire(&self, env: &Env) -> ResourceGuard {
        let granted = {
            let mut r = self.inner.lock();
            if r.in_use < r.capacity && r.waiters.is_empty() {
                r.in_use += 1;
                true
            } else {
                r.waiters.push_back(env.pid());
                false
            }
        };
        if !granted {
            // Ownership is transferred to us by the releaser before the
            // wake, so no re-check loop is needed (and FIFO order holds).
            env.suspend();
        }
        ResourceGuard { res: self.clone() }
    }

    /// Number of grants currently held.
    pub fn in_use(&self) -> usize {
        self.inner.lock().in_use
    }

    fn release(&self) {
        let woken = {
            let mut r = self.inner.lock();
            if let Some(pid) = r.waiters.pop_front() {
                // Hand the grant directly to the next waiter; `in_use`
                // stays constant across the transfer.
                Some(pid)
            } else {
                r.in_use -= 1;
                None
            }
        };
        if let Some(pid) = woken {
            self.handle.schedule_wake(self.handle.now(), pid);
        }
    }
}

impl Drop for ResourceGuard {
    fn drop(&mut self) {
        self.res.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulation;
    use crate::time::{SimDuration, SimTime};
    use std::cell::Cell;
    use std::rc::Rc;

    #[test]
    fn channel_delivers_in_fifo_order_without_time_cost() {
        let sim = Simulation::new();
        let h = sim.handle();
        let (tx, rx) = channel::<u32>(&h);
        let got = Shared::new(Vec::new());
        let got2 = got.clone();
        sim.spawn("recv", move |env| {
            for _ in 0..3 {
                let v = rx.recv(&env).unwrap();
                got2.lock().push(v);
            }
            assert_eq!(env.now(), SimTime::ZERO + SimDuration::from_secs(1));
        });
        sim.spawn("send", move |env| {
            env.sleep(SimDuration::from_secs(1));
            tx.send(1);
            tx.send(2);
            tx.send(3);
        });
        sim.run();
        assert_eq!(*got.lock(), vec![1, 2, 3]);
    }

    #[test]
    fn channel_disconnects_when_all_senders_drop() {
        let sim = Simulation::new();
        let h = sim.handle();
        let (tx, rx) = channel::<u32>(&h);
        sim.spawn("recv", move |env| {
            assert_eq!(rx.recv(&env), Ok(7));
            assert_eq!(rx.recv(&env), Err(Disconnected));
        });
        sim.spawn("send", move |env| {
            env.sleep(SimDuration::from_millis(5));
            tx.send(7);
            // tx drops here
        });
        sim.run();
    }

    #[test]
    fn recv_deadline_times_out_and_then_receives() {
        let sim = Simulation::new();
        let h = sim.handle();
        let (tx, rx) = channel::<u32>(&h);
        sim.spawn("recv", move |env| {
            // Message arrives at t=3s; a 1s deadline must time out at 1s.
            let deadline = env.now() + SimDuration::from_secs(1);
            assert_eq!(
                rx.recv_deadline(&env, deadline),
                Err(RecvTimeoutError::Timeout)
            );
            assert_eq!(env.now(), SimTime::ZERO + SimDuration::from_secs(1));
            // A later deadline that is never hit: message wins, and the
            // unfired timer must not extend the simulation.
            let deadline = env.now() + SimDuration::from_secs(100);
            assert_eq!(rx.recv_deadline(&env, deadline), Ok(9));
            assert_eq!(env.now(), SimTime::ZERO + SimDuration::from_secs(3));
        });
        sim.spawn("send", move |env| {
            env.sleep(SimDuration::from_secs(3));
            tx.send(9);
        });
        let end = sim.run();
        // Not 101s: the cancelled deadline timer left no trace.
        assert_eq!(end.as_nanos(), 3_000_000_000);
    }

    #[test]
    fn recv_deadline_disconnect_beats_timeout() {
        let sim = Simulation::new();
        let h = sim.handle();
        let (tx, rx) = channel::<u32>(&h);
        sim.spawn("recv", move |env| {
            let deadline = env.now() + SimDuration::from_secs(10);
            assert_eq!(
                rx.recv_deadline(&env, deadline),
                Err(RecvTimeoutError::Disconnected)
            );
            assert_eq!(env.now(), SimTime::ZERO + SimDuration::from_secs(2));
        });
        sim.spawn("send", move |env| {
            env.sleep(SimDuration::from_secs(2));
            drop(tx);
        });
        let end = sim.run();
        assert_eq!(end.as_nanos(), 2_000_000_000);
    }

    #[test]
    fn recv_deadline_message_at_exact_deadline_wins() {
        let sim = Simulation::new();
        let h = sim.handle();
        let (tx, rx) = channel::<u32>(&h);
        // Sender spawned first, so at the shared instant its send event
        // precedes the receiver's timer in sequence order.
        sim.spawn("send", move |env| {
            env.sleep(SimDuration::from_secs(1));
            tx.send(5);
        });
        sim.spawn("recv", move |env| {
            let deadline = env.now() + SimDuration::from_secs(1);
            assert_eq!(rx.recv_deadline(&env, deadline), Ok(5));
        });
        sim.run();
    }

    #[test]
    fn resource_serializes_access_fifo() {
        let sim = Simulation::new();
        let h = sim.handle();
        let res = Resource::new(&h, 1);
        let order = Shared::new(Vec::new());
        for i in 0..3u32 {
            let res = res.clone();
            let order = order.clone();
            sim.spawn(format!("p{i}"), move |env| {
                let _g = res.acquire(&env);
                order.lock().push((i, env.now().as_nanos()));
                env.sleep(SimDuration::from_secs(1));
            });
        }
        let end = sim.run();
        // One at a time: entries at t=0s, 1s, 2s in spawn order.
        assert_eq!(
            *order.lock(),
            vec![(0, 0), (1, 1_000_000_000), (2, 2_000_000_000)]
        );
        assert_eq!(end.as_nanos(), 3_000_000_000);
    }

    #[test]
    fn resource_capacity_two_admits_pairs() {
        let sim = Simulation::new();
        let h = sim.handle();
        let res = Resource::new(&h, 2);
        let max_concurrent = Rc::new(Cell::new(0));
        let cur = Rc::new(Cell::new(0));
        for i in 0..4u32 {
            let res = res.clone();
            let max_concurrent = max_concurrent.clone();
            let cur = cur.clone();
            sim.spawn(format!("p{i}"), move |env| {
                let _g = res.acquire(&env);
                let c = cur.get() + 1;
                cur.set(c);
                max_concurrent.set(max_concurrent.get().max(c));
                env.sleep(SimDuration::from_secs(1));
                cur.set(cur.get() - 1);
            });
        }
        let end = sim.run();
        assert_eq!(max_concurrent.get(), 2);
        assert_eq!(end.as_nanos(), 2_000_000_000);
    }

    #[test]
    fn signal_wakes_all_waiters_and_is_idempotent() {
        let sim = Simulation::new();
        let h = sim.handle();
        let sig = Signal::new(&h);
        let woken = Rc::new(Cell::new(0));
        for i in 0..3 {
            let sig = sig.clone();
            let woken = woken.clone();
            sim.spawn(format!("w{i}"), move |env| {
                sig.wait(&env);
                woken.set(woken.get() + 1);
                assert_eq!(env.now(), SimTime::ZERO + SimDuration::from_secs(2));
            });
        }
        let sig2 = sig.clone();
        sim.spawn("setter", move |env| {
            env.sleep(SimDuration::from_secs(2));
            sig2.set();
            sig2.set(); // idempotent
        });
        sim.run();
        assert_eq!(woken.get(), 3);
        assert!(sig.is_set());
    }
}
