//! The two runtime checks of `simnet::Shared`, on the bugs the lint's
//! `lock-double-acquire` and `lock-guard-suspend` fixtures describe
//! (`crates/xtask/tests/fixtures/lockgraph-double/bad.rs` and
//! `lockgraph-guard-suspend/bad.rs`), written as simulations. The lint
//! finds these shapes in source; the checks below catch them on every
//! executed path. The expected messages name exact `file:line:col`
//! sites, so moving a line of this file means updating them.

use simnet::{Env, Shared, SimDuration, Simulation};

struct Cache {
    inner: Shared<Vec<u32>>,
}

impl Cache {
    /// The `lockgraph-double` bug: the same cell locked again while its
    /// guard is still live.
    fn promote(&self, key: u32) {
        let inner = self.inner.lock();
        if inner.contains(&key) {
            let again = self.inner.lock();
            drop(again);
        }
    }
}

#[test]
#[should_panic(expected = "Shared<alloc::vec::Vec<u32>> locked again at \
    crates/simnet/tests/lock_checks.rs:21:36 while its guard from \
    crates/simnet/tests/lock_checks.rs:19:32 is live")]
fn a_second_lock_while_the_guard_is_live_names_both_sites() {
    let sim = Simulation::new();
    let cache = Cache {
        inner: Shared::new(vec![7]),
    };
    sim.spawn("promote", move |_env| cache.promote(7));
    sim.run();
}

struct Proxy {
    state: Shared<Vec<String>>,
}

impl Proxy {
    /// The `lockgraph-guard-suspend` bug: a match scrutinee's guard lives
    /// through the whole match, across the arm that sleeps.
    #[allow(clippy::single_match)] // the fixture's shape
    fn resolve(&self, env: &Env, path: &str) {
        match self.state.lock().iter().find(|p| *p == path) {
            Some(_) => env.sleep(SimDuration::from_millis(1)),
            None => {}
        }
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    should_panic(
        expected = "process 'resolve' suspends holding a Shared guard taken at \
        crates/simnet/tests/lock_checks.rs:49:26"
    )
)]
fn a_guard_held_across_a_sleep_panics_in_debug_builds() {
    let sim = Simulation::new();
    let proxy = Proxy {
        state: Shared::new(vec!["/vm".to_string()]),
    };
    sim.spawn("resolve", move |env| proxy.resolve(&env, "/vm"));
    sim.run();
}
