//! Bad: layers trimming the content store behind the CAS's back — an
//! ad-hoc sweep and a "free some room" remove bypass the pin ledger,
//! so a digest a live reference file still resolves through can vanish
//! while `cas.pin_blocked_evictions` reports nothing.

use std::rc::Rc;

use crate::cas::ContentStore;
use crate::digest::Digest;

pub fn make_room(cas: &Rc<ContentStore>, victims: &[Digest]) {
    for d in victims {
        cas.remove(d);
    }
}

pub fn reset(store: Rc<ContentStore>) {
    store.clear();
}

pub fn sweep(blob_store: &ContentStore, budget: u64) {
    blob_store.evict_to_fit(budget);
}
