//! Bad: the same lock class acquired while its guard is still live —
//! `Shared::lock` panics here at run time, naming both sites.

impl Cache {
    pub fn promote(&self, key: Key) {
        let inner = self.inner.lock();
        if inner.contains(key) {
            // Re-entry: `inner` is still held here.
            let again = self.inner.lock();
            again.touch(key);
        }
    }
}
