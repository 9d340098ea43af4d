//! Good: the store trims itself — insertion is the one eviction point,
//! behind the pin check — and callers express chunk lifetime through
//! the pin/unpin API instead of dropping entries directly.

use std::rc::Rc;

use crate::cas::ContentStore;
use crate::digest::Digest;

pub fn install(cas: &Rc<ContentStore>, chunk: &[u8]) -> Digest {
    cas.insert_pinned(chunk)
}

pub fn release(cas: &Rc<ContentStore>, recipe: &[Digest]) {
    for d in recipe {
        cas.unpin(d);
    }
}

pub fn resident(store: &ContentStore, d: &Digest) -> bool {
    store.contains(d)
}
