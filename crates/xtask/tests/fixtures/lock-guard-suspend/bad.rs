//! Bad: lock guards held across suspending calls. Another process
//! could find the lock taken while this one is parked; `Shared` panics
//! at such a suspend in debug builds.
pub fn drain(env: &Env, state: &State) {
    let mut st = state.inner.lock();
    st.pending += 1;
    env.sleep(Duration::from_millis(1));
    st.pending -= 1;
}

pub fn wait_for(env: &Env, state: &State, sig: &Signal) {
    let st = state.inner.lock();
    let _n = st.pending;
    sig.wait(env);
}
