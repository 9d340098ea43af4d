//! Bad: a waiver whose line triggers no lock-order violation — stale
//! suppressions are themselves violations, whatever rule they name.

impl Cache {
    pub fn get(&self, key: Key) {
        // lint:allow(lock-double-acquire): nothing here double-acquires
        let inner = self.inner.lock();
        inner.get(key);
    }
}
