//! Good: a run-length range decoder that reserves through the blessed
//! `bounded_alloc` sink, sized by the *clipped* request, and grows only
//! by the part of each record inside that request — each growth site
//! carrying the waiver that names the bound it relies on.
pub const MAX_DECOMPRESS_LEN: usize = 1 << 30;

fn bounded_alloc<T>(len: usize, limit: usize) -> Result<Vec<T>, ()> {
    if len > limit {
        return Err(());
    }
    Ok(Vec::with_capacity(len.min(4096)))
}

pub fn decode_range(stream: &[u8], offset: usize, len: usize) -> Result<Vec<u8>, ()> {
    let orig_len = u64::from_be_bytes(stream[..8].try_into().map_err(|_| ())?) as usize;
    if orig_len > MAX_DECOMPRESS_LEN {
        return Err(());
    }
    let start = offset.min(orig_len);
    let end = offset.saturating_add(len).min(orig_len);
    let mut out: Vec<u8> = bounded_alloc(end - start, MAX_DECOMPRESS_LEN)?;
    let (mut pos, mut i) = (0usize, 8usize);
    while i + 5 <= stream.len() {
        let rec = u32::from_be_bytes(stream[i..i + 4].try_into().map_err(|_| ())?) as usize;
        let fill = stream[i + 4];
        i += 5;
        if pos + rec > orig_len {
            return Err(());
        }
        let take = end.min(pos + rec).saturating_sub(start.max(pos));
        // lint:allow(bounded-decode): take <= end - start <= orig_len <= MAX_DECOMPRESS_LEN
        out.resize(out.len() + take, fill);
        pos += rec;
    }
    if pos != orig_len {
        return Err(());
    }
    Ok(out)
}
