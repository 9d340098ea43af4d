//! Good: a waived false positive. Lock classes are named by receiver
//! segment within a file, so `warm.state` and `cold.state` conflate to
//! one class and look like a double acquisition; the waiver records why
//! that is safe here.

impl Mover {
    pub fn migrate(&self, key: Key) {
        let w = self.warm.state.lock();
        // lint:allow(lock-double-acquire): warm.state and cold.state are distinct cells conflated by class naming
        let c = self.cold.state.lock();
        c.insert(key, w.remove(key));
    }
}
