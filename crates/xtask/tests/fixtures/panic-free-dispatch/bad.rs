//! Bad: panicking constructs on the request dispatch path — hostile
//! bytes must produce error replies, never take the proxy down.
pub fn dispatch(args: &[u8]) -> Vec<u8> {
    let first = args[0];
    let parsed: Result<u32, u32> = decode(args);
    let v = parsed.unwrap();
    let w = decode(args).expect("decoded twice");
    if v > 100 {
        panic!("bad value");
    }
    vec![first, v as u8, w as u8]
}

fn decode(args: &[u8]) -> Result<u32, u32> {
    args.get(1).map(|b| *b as u32).ok_or(2)
}
