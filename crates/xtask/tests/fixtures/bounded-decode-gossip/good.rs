//! Good: the wire count flows through the blessed `bounded_alloc` sink,
//! capped by the protocol's digest-inventory bound, before a single
//! element is reserved.
pub struct Digest(pub u64, pub u64);

pub const MAX_GOSSIP_DIGESTS: usize = 1024;

fn bounded_alloc<T>(len: usize, limit: usize) -> Result<Vec<T>, ()> {
    if len > limit {
        return Err(());
    }
    Ok(Vec::with_capacity(len.min(4096)))
}

pub fn decode_gossip(bytes: &[u8]) -> Result<(u32, Vec<Digest>), ()> {
    let sender = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    let n = u32::from_be_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]) as usize;
    let mut digests: Vec<Digest> = bounded_alloc(n, MAX_GOSSIP_DIGESTS)?;
    for i in 0..n {
        let at = 8 + i * 16;
        let d0 = u64::from_be_bytes(bytes[at..at + 8].try_into().map_err(|_| ())?);
        let d1 = u64::from_be_bytes(bytes[at + 8..at + 16].try_into().map_err(|_| ())?);
        digests.push(Digest(d0, d1));
    }
    Ok((sender, digests))
}
