//! Good: every decoder returns a `Result` whose error names the refusal;
//! a helper that is not a decoder may still return `Option`, and a
//! parameter's closure type does not count as the return type.
pub struct Header {
    pub magic: u32,
    pub count: u32,
}

#[derive(Debug)]
pub enum Error {
    UnexpectedEof { needed: usize, remaining: usize },
}

fn word(bytes: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_be_bytes(*bytes.get(at..)?.first_chunk::<4>()?))
}

pub fn decode_header(bytes: &[u8]) -> Result<Header, Error> {
    let eof = Error::UnexpectedEof {
        needed: 8,
        remaining: bytes.len(),
    };
    match (word(bytes, 0), word(bytes, 4)) {
        (Some(magic), Some(count)) => Ok(Header { magic, count }),
        _ => Err(eof),
    }
}

pub fn decode_with(bytes: &[u8], check: impl Fn(u32) -> Option<u32>) -> Result<u32, Error> {
    let h = decode_header(bytes)?;
    check(h.count).ok_or(Error::UnexpectedEof {
        needed: 8,
        remaining: 0,
    })
}

impl Header {
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, Error> {
        decode_header(bytes)
    }
}

#[cfg(test)]
mod tests {
    fn decode_loose(bytes: &[u8]) -> Option<u8> {
        bytes.first().copied()
    }

    #[test]
    fn test_helpers_may_return_option() {
        assert_eq!(decode_loose(&[1]), Some(1));
    }
}
