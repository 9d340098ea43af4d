//! Bad: guards held across simnet suspend points in shapes no `let`
//! names — a temporary mid-statement and a match scrutinee.

impl Proxy {
    // Transient guard: no let binding at all, the temporary guard from
    // `.lock()` lives until the end of the statement — across the
    // blocking fetch that takes `env`.
    pub fn refill(&self, env: &Env, key: Key) {
        self.state.lock().insert(key, fetch_block(env, key));
    }

    // Match scrutinee: the guard from `.lock()` lives through the whole
    // match block, including the arm that sleeps.
    pub fn resolve(&self, env: &Env, path: &str) {
        match self.state.lock().find(path) {
            Some(_) => env.sleep(MS),
            None => {}
        }
    }
}
