//! Bad: a gossip digest inventory decoded with its allocation sized
//! straight from the wire count — a sibling shard (or anything that can
//! reach the shard's LAN listener) can demand gigabytes with four bytes.
pub struct Digest(pub u64, pub u64);

pub fn decode_gossip(bytes: &[u8]) -> Result<(u32, Vec<Digest>), ()> {
    let sender = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    let n = u32::from_be_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]) as usize;
    let mut digests = Vec::with_capacity(n);
    for i in 0..n {
        let at = 8 + i * 16;
        let d0 = u64::from_be_bytes(bytes[at..at + 8].try_into().map_err(|_| ())?);
        let d1 = u64::from_be_bytes(bytes[at + 8..at + 16].try_into().map_err(|_| ())?);
        digests.push(Digest(d0, d1));
    }
    Ok((sender, digests))
}
