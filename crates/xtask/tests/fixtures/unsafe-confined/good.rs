//! Good: inside the engine, every `unsafe` carries its proof on the
//! lines directly above — blocks, impls and multi-line comments alike.

struct Stack(*mut u8);

// SAFETY: a stack is only ever touched by the thread inside the
// simulation's run.
unsafe impl Send for Stack {}

fn top(base: *mut u8, len: usize) -> *mut u8 {
    // SAFETY: `len` is the size of the mapping that starts at `base`.
    unsafe { base.add(len) }
}

fn first_word(sp: *const usize) -> usize {
    let word = {
        // SAFETY: `sp` points at a frame written by `start_frame`.
        unsafe { *sp }
    };
    word
}
