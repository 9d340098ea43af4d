//! Bad: decoders that answer hostile bytes with `None` — the caller
//! cannot tell a truncated message from a bad tag or a count over its
//! limit, so neither can the log or the counter it feeds.
pub struct Header {
    pub magic: u32,
    pub count: u32,
}

pub fn decode_header(bytes: &[u8]) -> Option<Header> {
    let magic = u32::from_be_bytes(*bytes.first_chunk::<4>()?);
    let count = u32::from_be_bytes(*bytes.get(4..)?.first_chunk::<4>()?);
    Some(Header { magic, count })
}

impl Header {
    pub fn from_bytes(bytes: &[u8]) -> std::option::Option<Self> {
        decode_header(bytes)
    }
}
