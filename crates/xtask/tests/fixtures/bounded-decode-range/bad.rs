//! Bad: a run-length range decoder that trusts the stream — it reserves
//! the declared original length up front and materialises every record
//! at its declared length before slicing, so a 13-byte stream can demand
//! gigabytes to serve a 32-byte read.
pub fn decode_range(stream: &[u8], offset: usize, len: usize) -> Vec<u8> {
    let orig_len = u64::from_be_bytes(stream[..8].try_into().unwrap_or([0; 8])) as usize;
    let mut whole = Vec::with_capacity(orig_len);
    let mut i = 8usize;
    while i + 5 <= stream.len() {
        let rec = u32::from_be_bytes([stream[i], stream[i + 1], stream[i + 2], stream[i + 3]]);
        let fill = stream[i + 4];
        i += 5;
        whole.resize(whole.len() + rec as usize, fill);
    }
    let start = offset.min(whole.len());
    let end = offset.saturating_add(len).min(whole.len());
    whole[start..end].to_vec()
}
