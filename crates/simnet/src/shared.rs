//! [`Shared<T>`]: state shared by the processes of one simulation.
//!
//! Every process of a simulation is a coroutine on the one thread inside
//! its [`crate::Simulation::run`], and only one runs at a time, so shared
//! state needs a cell, not a lock: `Shared<T>` is an `Rc` around a
//! `RefCell`. Its [`Shared::lock`] keeps the lock's name (the lint's
//! `lock-guard-suspend` and `lock-double-acquire` rules look for it) and
//! checks at run time the only two ways such state can still go wrong:
//!
//! - **Re-entry.** A second `lock()` while a guard is live panics in every
//!   build, and the message names both call sites.
//! - **A guard across a suspend.** In debug builds each process records
//!   where it took the guards it holds, and the engine asserts at every
//!   suspend that the suspending process holds none.
//!
//! With both checks holding, a `Shared` can only ever be found taken by
//! its own holder, so no order of acquisitions can deadlock.
//!
//! Neither a `Shared` nor its guard can leave the thread:
//!
//! ```compile_fail,E0277
//! let state = simnet::Shared::new(0u64);
//! std::thread::spawn(move || *state.lock() += 1);
//! ```

use std::cell::{Cell, RefCell, RefMut};
use std::ops::{Deref, DerefMut};
use std::panic::Location;
use std::rc::Rc;

/// A cloneable, checked cell shared by the processes of one simulation;
/// clones share one value.
pub struct Shared<T>(Rc<Inner<T>>);

struct Inner<T> {
    /// Where the most recent guard was taken: the live guard's site
    /// whenever `value` is borrowed.
    site: Cell<Option<&'static Location<'static>>>,
    value: RefCell<T>,
}

impl<T> Shared<T> {
    /// A new cell holding `value`.
    pub fn new(value: T) -> Self {
        Shared(Rc::new(Inner {
            site: Cell::new(None),
            value: RefCell::new(value),
        }))
    }

    /// Exclusive access until the guard drops. Panics if a guard of this
    /// cell is still live, naming where each was taken.
    #[track_caller]
    pub fn lock(&self) -> SharedGuard<'_, T> {
        let at = Location::caller();
        let Ok(value) = self.0.value.try_borrow_mut() else {
            let held = self.0.site.get().map_or("?".to_string(), |l| l.to_string());
            panic!(
                "Shared<{}> locked again at {at} while its guard from {held} is live",
                std::any::type_name::<T>()
            );
        };
        self.0.site.set(Some(at));
        SharedGuard {
            value,
            #[cfg(debug_assertions)]
            owner: crate::engine::guard_taken(at),
            #[cfg(debug_assertions)]
            at,
        }
    }

    /// The value if this is the last clone, else this handle back.
    pub fn try_unwrap(self) -> Result<T, Self> {
        Rc::try_unwrap(self.0)
            .map(|inner| inner.value.into_inner())
            .map_err(Shared)
    }
}

impl<T> Clone for Shared<T> {
    fn clone(&self) -> Self {
        Shared(self.0.clone())
    }
}

impl<T: Default> Default for Shared<T> {
    fn default() -> Self {
        Shared::new(T::default())
    }
}

/// Exclusive access to a [`Shared`] value; returned by [`Shared::lock`].
pub struct SharedGuard<'a, T> {
    value: RefMut<'a, T>,
    /// The process that took the guard (null outside one) and where, for
    /// the engine's debug record of held guards.
    #[cfg(debug_assertions)]
    owner: *const (),
    #[cfg(debug_assertions)]
    at: &'static Location<'static>,
}

impl<T> Drop for SharedGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        crate::engine::guard_released(self.owner, self.at);
    }
}

impl<T> Deref for SharedGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for SharedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimDuration, Simulation};

    #[test]
    fn clones_share_one_value() {
        let a = Shared::new(41);
        let b = a.clone();
        *a.lock() += 1;
        assert_eq!(*b.lock(), 42);
        let a = a.try_unwrap().expect_err("`b` still holds the cell");
        drop(a);
        assert_eq!(b.try_unwrap().ok(), Some(42));
    }

    #[test]
    fn a_panicking_simulation_leaves_no_guard_record_behind() {
        // The first run panics at its suspend with a guard held; the next
        // run on this thread must start from clean per-process records.
        let failed = std::panic::catch_unwind(|| {
            let sim = Simulation::new();
            let state = Shared::new(0u32);
            sim.spawn("holder", move |env| {
                let _held = state.lock();
                env.sleep(SimDuration::from_millis(1));
                panic!("release builds do not check the suspend");
            });
            sim.run();
        });
        assert!(failed.is_err());
        let sim = Simulation::new();
        let state = Shared::new(0u32);
        sim.spawn("clean", move |env| {
            *state.lock() += 1;
            env.sleep(SimDuration::from_millis(1));
            *state.lock() += 1;
        });
        sim.run();
    }
}
