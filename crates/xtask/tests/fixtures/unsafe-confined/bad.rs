//! Bad: `unsafe` with no proof, or with one that is not directly above.

struct Stack(*mut u8);

unsafe impl Send for Stack {}

fn top(base: *mut u8, len: usize) -> *mut u8 {
    // SAFETY: separated from its block by a blank line, so it proves nothing.

    unsafe { base.add(len) }
}

fn first_word(sp: *const usize) -> usize {
    // The pointer is fine.
    unsafe { *sp }
}

fn trailing(sp: *const usize) -> usize {
    unsafe { *sp } // SAFETY: a trailing comment does not count.
}
