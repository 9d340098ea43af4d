//! Good: fan-out flows through the transfer engine, which caps worker
//! processes at `min(window, jobs)`; a single helper spawn outside any
//! loop is also fine.
pub fn fetch_all(env: &Env, blocks: Vec<u64>, window: usize) {
    let out = simnet::run_windowed(env, "fetch", window, blocks, None, |env, b| {
        Some(fetch_one(env, b))
    });
    let _ = out;
}

pub fn flush_detached(env: &Env, files: Vec<u64>) {
    env.spawn("flush-files", move |env| {
        for f in files {
            upload(&env, f);
        }
    });
}
