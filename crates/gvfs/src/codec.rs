//! Zero-aware run-length codec, standing in for GZIP.
//!
//! The paper's file-based data channel compresses VM memory state with
//! GZIP before the SCP transfer. Suspended memory images are dominated by
//! zero-filled pages plus long runs of repeated bytes, which is where GZIP
//! gets its ratio on this data; this codec captures the same structure
//! (zero runs, byte runs, literals) deterministically and in-repo. A
//! [`CodecModel`] charges virtual CPU time for both directions.
//!
//! Wire format (little repetition of real formats is intended — this is a
//! private proxy-to-proxy stream):
//!
//! ```text
//! magic "GZRL" | u64 original_len | records...
//! record: tag u8
//!   0 = zero run:   u32 len
//!   1 = byte run:   u32 len, u8 value
//!   2 = literal:    u32 len, bytes
//! ```
//!
//! One record walker decodes: a validating walk builds a stream's record
//! index (one seek per 32 KiB of original bytes), and a range read seeks
//! with it and decodes only the records it overlaps, onto the caller's
//! buffer. The content store keeps each entry's index beside its stream.

use simnet::SimDuration;

const MAGIC: &[u8; 4] = b"GZRL";
/// Minimum run length worth encoding as a run record.
///
/// Any 15 consecutive bytes contain an 8-byte word aligned to the start
/// of the input, so every run of `MIN_RUN` or more equal bytes covers an
/// aligned word whose bytes are all equal: [`compress`] finds every run
/// it must encode by testing aligned words only.
const MIN_RUN: usize = 16;
const _: () = assert!(MIN_RUN >= 15, "the aligned-word scan misses shorter runs");
/// Largest length a single record can carry (its length field is a u32).
/// Longer runs and literals are split across consecutive records; the
/// previous `as u32` casts silently truncated them instead, corrupting
/// any input with a >4 GiB run.
const MAX_RECORD: usize = u32::MAX as usize;

/// Compress `data`.
pub fn compress(data: &[u8]) -> Vec<u8> {
    compress_with_record_cap(data, MAX_RECORD)
}

/// `compress` with the per-record length cap exposed, so tests can force
/// record splitting on small inputs instead of allocating >4 GiB.
fn compress_with_record_cap(data: &[u8], cap: usize) -> Vec<u8> {
    debug_assert!((1..=MAX_RECORD).contains(&cap));
    // lint:allow(bounded-decode): capacity derives from local input size, not wire bytes
    let mut out = Vec::with_capacity(64 + data.len() / 8);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(data.len() as u64).to_be_bytes());
    let mut lit_start = 0;
    let mut w = 0;
    while let Some(word) = word_at(data, w) {
        // Every run of `MIN_RUN` or more covers a word of equal bytes.
        if word != word.rotate_left(8) {
            w += 8;
            continue;
        }
        let b = word as u8;
        // Widen it to the maximal run: back over at most the open
        // literal, forward a word at a time, then byte by byte.
        let mut i = w;
        while i > lit_start && data[i - 1] == b {
            i -= 1;
        }
        let mut j = w + 8;
        while word_at(data, j) == Some(word) {
            j += 8;
        }
        while data.get(j) == Some(&b) {
            j += 1;
        }
        if j - i >= MIN_RUN {
            flush_literal(&mut out, &data[lit_start..i], cap);
            push_run(&mut out, b, j - i, cap);
            lit_start = j;
        }
        // The word holding `j` has a byte other than `b` past the run,
        // so the next candidate is the first word at or after `j`.
        w = j.next_multiple_of(8);
    }
    flush_literal(&mut out, &data[lit_start..], cap);
    out
}

/// The little-endian word at `at`, when 8 bytes remain there.
#[inline]
fn word_at(data: &[u8], at: usize) -> Option<u64> {
    let bytes = data.get(at..)?.first_chunk::<8>()?;
    Some(u64::from_le_bytes(*bytes))
}

/// Emit a run of `run` copies of `b`, split into records of at most `cap`.
fn push_run(out: &mut Vec<u8>, b: u8, mut run: usize, cap: usize) {
    while run > 0 {
        let n = run.min(cap);
        if b == 0 {
            out.push(0);
            out.extend_from_slice(&(n as u32).to_be_bytes());
        } else {
            out.push(1);
            out.extend_from_slice(&(n as u32).to_be_bytes());
            out.push(b);
        }
        run -= n;
    }
}

fn flush_literal(out: &mut Vec<u8>, lit: &[u8], cap: usize) {
    for chunk in lit.chunks(cap) {
        out.push(2);
        out.extend_from_slice(&(chunk.len() as u32).to_be_bytes());
        out.extend_from_slice(chunk);
    }
}

/// Decompression errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// Missing or wrong magic.
    BadMagic,
    /// Stream ended unexpectedly or record malformed.
    Truncated,
    /// Output did not match the declared original length.
    LengthMismatch,
    /// Declared original length exceeds [`MAX_DECOMPRESS_LEN`].
    TooLarge,
}

/// Hard cap on the original length a stream may declare. The header's
/// `u64 original_len` bounds every later growth check, so an honest cap
/// here bounds total decoder memory; 1 GiB comfortably exceeds any VM
/// memory image the simulated 2004-era hosts ship around.
pub const MAX_DECOMPRESS_LEN: usize = 1 << 30;

fn be_u32(bytes: &[u8]) -> Result<u32, CodecError> {
    match <[u8; 4]>::try_from(bytes) {
        Ok(a) => Ok(u32::from_be_bytes(a)),
        Err(_) => Err(CodecError::Truncated),
    }
}

fn be_u64(bytes: &[u8]) -> Result<u64, CodecError> {
    match <[u8; 8]>::try_from(bytes) {
        Ok(a) => Ok(u64::from_be_bytes(a)),
        Err(_) => Err(CodecError::Truncated),
    }
}

/// Decompress a stream produced by [`compress`].
pub fn decompress(stream: &[u8]) -> Result<Vec<u8>, CodecError> {
    decompress_range(stream, 0, MAX_DECOMPRESS_LEN)
}

/// Decompress only `[offset, offset + len)` of the original bytes
/// (clipped to the original length): index the stream, then read the
/// range. The result equals that slice of [`decompress`]'s output and
/// fails exactly when `decompress` fails — every record is validated
/// either way — but only the overlap is allocated and materialised.
pub fn decompress_range(stream: &[u8], offset: usize, len: usize) -> Result<Vec<u8>, CodecError> {
    let index = RecordIndex::build(stream)?;
    let end = offset.saturating_add(len).min(index.len);
    // Blessed sink for the wire-declared length: caps the speculative
    // reservation, while the index bounds all later growth.
    let mut out: Vec<u8> = xdr::bounded_alloc(end.saturating_sub(offset), MAX_DECOMPRESS_LEN)
        .map_err(|_| CodecError::TooLarge)?;
    index.read_into(stream, offset, len, &mut out)?;
    Ok(out)
}

/// Original bytes between two entries of a [`RecordIndex`]: a range read
/// walks at most one stride's records before it reaches its start.
const INDEX_STRIDE: usize = 32 * 1024;

/// Where a stream's records lie. Only [`RecordIndex::build`], which
/// validates every record, makes one, so a stream with an index decodes.
pub(crate) struct RecordIndex {
    /// Original (decoded) length.
    len: usize,
    /// Entry `k`: the stream offset and the original offset of the
    /// record holding original byte `k * INDEX_STRIDE`.
    seeks: Box<[(u32, u32)]>,
}

impl RecordIndex {
    /// Walk and validate every record of `stream`. Fails exactly when,
    /// and as, [`decompress`] fails; a stream past 4 GiB is `TooLarge`.
    pub(crate) fn build(stream: &[u8]) -> Result<RecordIndex, CodecError> {
        if stream.len() < 12 || &stream[..4] != MAGIC {
            return Err(CodecError::BadMagic);
        }
        let len = be_u64(&stream[4..12])? as usize;
        if len > MAX_DECOMPRESS_LEN {
            return Err(CodecError::TooLarge);
        }
        let (mut seeks, mut i, mut pos) = (Vec::new(), 12, 0);
        while i < stream.len() {
            let (n, _, next) = record_at(stream, i, len - pos)?;
            let at = u32::try_from(i).map_err(|_| CodecError::TooLarge)?;
            // Every stride that starts inside this record seeks to it.
            while seeks.len() * INDEX_STRIDE < pos + n {
                seeks.push((at, pos as u32));
            }
            (i, pos) = (next, pos + n);
        }
        if pos != len {
            return Err(CodecError::LengthMismatch);
        }
        let seeks = seeks.into_boxed_slice();
        Ok(RecordIndex { len, seeks })
    }

    /// Original (decoded) length of the indexed stream.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Append `[offset, offset + len)` of the original bytes (clipped) to
    /// `out`, decoding only the records that overlap it. A `stream` other
    /// than the indexed one fails where it disagrees, never out of bounds.
    pub(crate) fn read_into(
        &self,
        stream: &[u8],
        offset: usize,
        len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        let end = offset.saturating_add(len).min(self.len);
        if offset >= end {
            return Ok(());
        }
        let (at, from) = self.seeks[offset / INDEX_STRIDE];
        let (mut i, mut pos) = (at as usize, from as usize);
        while pos < end {
            let (n, fill, next) = record_at(stream, i, self.len - pos)?;
            // The part of this record the caller asked for.
            let (lo, hi) = (offset.max(pos) - pos, end.min(pos + n) - pos);
            match fill {
                _ if lo >= hi => {}
                // lint:allow(bounded-decode): hi - lo <= end - offset, the clipped request
                Some(b) => out.resize(out.len() + hi - lo, b),
                None => out.extend_from_slice(&stream[next - n + lo..next - n + hi]),
            }
            (i, pos) = (next, pos + n);
        }
        Ok(())
    }
}

/// The one record walker: the record whose header starts at `s[i]`, with
/// at most `room` original bytes left to account for, as its original
/// length `n`, its fill byte (`None` for a literal, whose bytes are the
/// `n` before the next header) and where the next header starts.
fn record_at(s: &[u8], i: usize, room: usize) -> Result<(usize, Option<u8>, usize), CodecError> {
    let tag = *s.get(i).ok_or(CodecError::Truncated)?;
    let n = be_u32(s.get(i + 1..i + 5).ok_or(CodecError::Truncated)?)? as usize;
    // A record claiming to expand past the declared original length can
    // only come from a corrupt stream: run-length records otherwise let
    // a few bytes of header demand gigabytes of output.
    if n > room {
        return Err(CodecError::LengthMismatch);
    }
    let at = i + 5;
    match (tag, s.get(at)) {
        (0, _) => Ok((n, Some(0), at)),
        (1, Some(&b)) => Ok((n, Some(b), at + 1)),
        (2, _) if s.len() - at >= n => Ok((n, None, at + n)),
        _ => Err(CodecError::Truncated),
    }
}

/// CPU-time model for the codec (GZIP-class throughputs on 2004 CPUs).
#[derive(Debug, Clone, Copy)]
pub struct CodecModel {
    /// Compression throughput, input bytes per second.
    pub compress_bytes_per_sec: f64,
    /// Decompression throughput, output bytes per second.
    pub decompress_bytes_per_sec: f64,
    /// Content-digest throughput, input bytes per second
    /// ([`crate::digest`] is a word-at-a-time mix, far cheaper than
    /// GZIP-class compression).
    pub digest_bytes_per_sec: f64,
}

impl Default for CodecModel {
    fn default() -> Self {
        // GZIP-class throughput on ~1 GHz Pentium III-era CPUs; digesting
        // is a small fixed number of ALU ops per word.
        CodecModel {
            compress_bytes_per_sec: 15e6,
            decompress_bytes_per_sec: 60e6,
            digest_bytes_per_sec: 400e6,
        }
    }
}

impl CodecModel {
    /// Time to compress `bytes` of input.
    pub fn compress_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.compress_bytes_per_sec)
    }

    /// Time to decompress to `bytes` of output.
    pub fn decompress_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.decompress_bytes_per_sec)
    }

    /// Time to digest `bytes` of input.
    pub fn digest_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.digest_bytes_per_sec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_round_trips() {
        let c = compress(b"");
        assert_eq!(decompress(&c).unwrap(), b"");
    }

    #[test]
    fn literal_data_round_trips() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let c = compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn zero_dominated_data_compresses_hard() {
        // Like a post-boot memory image: 90% zeros.
        let mut data = vec![0u8; 1_000_000];
        for i in 0..100 {
            let off = i * 10_000;
            for j in 0..1_000 {
                data[off + j] = ((i * 7 + j) % 251) as u8;
            }
        }
        let c = compress(&data);
        assert!(
            c.len() < data.len() / 8,
            "expected >8x ratio, got {} -> {}",
            data.len(),
            c.len()
        );
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn byte_runs_compress() {
        let mut data = vec![0xFFu8; 100_000];
        data.extend_from_slice(b"tail");
        let c = compress(&data);
        assert!(c.len() < 100);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn incompressible_data_grows_only_slightly() {
        // Pseudo-random bytes: no runs of 16.
        let mut x = 0x12345678u32;
        let data: Vec<u8> = (0..100_000)
            .map(|_| {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                (x >> 24) as u8
            })
            .collect();
        let c = compress(&data);
        assert!(c.len() < data.len() + 64);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn corrupt_streams_are_rejected() {
        assert_eq!(decompress(b"nope"), Err(CodecError::BadMagic));
        let mut c = compress(&vec![0u8; 1000]);
        c.truncate(c.len() - 2);
        assert!(decompress(&c).is_err());
        let mut c2 = compress(b"hello world hello world");
        let last = c2.len() - 1;
        c2[last] ^= 0xFF; // corrupt literal byte: still decodes, lengths ok
        let _ = decompress(&c2); // must not panic
    }

    #[test]
    fn oversized_record_is_rejected_without_allocating() {
        // Hand-built stream: declared original length 8, but a single
        // zero-run record claims 1 GiB. Must fail fast (LengthMismatch)
        // instead of materialising the run and failing at the final
        // length check.
        let mut s = Vec::new();
        s.extend_from_slice(MAGIC);
        s.extend_from_slice(&8u64.to_be_bytes());
        s.push(0); // zero-run tag
        s.extend_from_slice(&(1u32 << 30).to_be_bytes());
        assert_eq!(decompress(&s), Err(CodecError::LengthMismatch));

        // Same for a byte-run record.
        let mut s = Vec::new();
        s.extend_from_slice(MAGIC);
        s.extend_from_slice(&8u64.to_be_bytes());
        s.push(1); // byte-run tag
        s.extend_from_slice(&(1u32 << 30).to_be_bytes());
        s.push(0xAB);
        assert_eq!(decompress(&s), Err(CodecError::LengthMismatch));
    }

    #[test]
    fn a_range_of_a_huge_run_allocates_only_the_request() {
        // A valid stream of MAX_DECOMPRESS_LEN zeros is 17 bytes; reading
        // 32 bytes out of its middle must not materialise the run.
        let mut s = Vec::new();
        s.extend_from_slice(MAGIC);
        s.extend_from_slice(&(MAX_DECOMPRESS_LEN as u64).to_be_bytes());
        s.push(0); // zero-run tag
        s.extend_from_slice(&(MAX_DECOMPRESS_LEN as u32).to_be_bytes());
        let got = decompress_range(&s, MAX_DECOMPRESS_LEN / 2, 32).unwrap();
        assert_eq!(got, vec![0u8; 32]);
        assert!(got.capacity() < 4096, "capacity {}", got.capacity());
        // Ranges at and past the end clip like a slice of the whole.
        assert_eq!(
            decompress_range(&s, MAX_DECOMPRESS_LEN - 5, 32).unwrap(),
            [0u8; 5]
        );
        assert!(decompress_range(&s, MAX_DECOMPRESS_LEN, 32)
            .unwrap()
            .is_empty());
        assert!(decompress_range(&s, usize::MAX, usize::MAX)
            .unwrap()
            .is_empty());
        // The header walk still rejects what `decompress` rejects, even
        // when the damage lies outside the requested range.
        s.push(9); // unknown record tag after the run
        assert_eq!(decompress_range(&s, 0, 32), Err(CodecError::Truncated));
    }

    #[test]
    fn ranges_slice_every_record_kind() {
        // zero run | byte run | literal | zero run, split at a 7-byte cap
        // so ranges start and end inside, at and across record edges.
        let mut data = vec![0u8; 100];
        data.extend(std::iter::repeat_n(0x5A, 40));
        data.extend((0..60u8).map(|i| i.wrapping_mul(37)));
        data.extend(vec![0u8; MIN_RUN]);
        for s in [compress(&data), compress_with_record_cap(&data, 7)] {
            for off in 0..=data.len() + 1 {
                for len in [0, 1, 6, 7, 8, 50, data.len()] {
                    let want = &data[off.min(data.len())..(off + len).min(data.len())];
                    assert_eq!(decompress_range(&s, off, len).unwrap(), want, "{off}+{len}");
                }
            }
        }
    }

    #[test]
    fn huge_declared_length_is_rejected_before_allocating() {
        // A 12-byte header alone must not be able to demand gigabytes of
        // reservation: the declared original length is capped up front.
        let mut s = Vec::new();
        s.extend_from_slice(MAGIC);
        s.extend_from_slice(&(MAX_DECOMPRESS_LEN as u64 + 1).to_be_bytes());
        assert_eq!(decompress(&s), Err(CodecError::TooLarge));
    }

    #[test]
    fn runs_past_the_record_cap_split_without_truncating() {
        // A run longer than one record can hold must become several
        // records whose lengths sum to the full run — the old `as u32`
        // cast would have truncated it. No input buffer is needed:
        // push_run takes the length directly, so the >4 GiB case is
        // exercised without a >4 GiB allocation.
        for &(run, b) in &[
            (MAX_RECORD + 1, 0u8),
            (2 * MAX_RECORD + 17, 0u8),
            (MAX_RECORD + 5, 0xABu8),
        ] {
            let mut out = Vec::new();
            push_run(&mut out, b, run, MAX_RECORD);
            // Parse the records back and sum their declared lengths.
            let mut total = 0u64;
            let mut i = 0;
            while i < out.len() {
                let tag = out[i];
                assert_eq!(tag, if b == 0 { 0 } else { 1 });
                let len = be_u32(&out[i + 1..i + 5]).unwrap();
                assert!(len > 0);
                total += u64::from(len);
                i += if b == 0 { 5 } else { 6 };
            }
            assert_eq!(i, out.len());
            assert_eq!(total, run as u64, "run of {run} must survive splitting");
        }
    }

    #[test]
    fn split_records_round_trip() {
        // Force splitting with a tiny record cap: every run and literal
        // in this input exceeds the cap, so the stream is made entirely
        // of split records — and the (unchanged) decoder must reassemble
        // them byte-for-byte.
        let mut data = vec![0u8; 100]; // zero run, split into ceil(100/7) records
        data.extend(std::iter::repeat_n(0x5A, 40)); // byte run
        data.extend((0..60u8).map(|i| i.wrapping_mul(37))); // literal, no runs
        data.extend(vec![0u8; MIN_RUN]); // trailing run exactly at threshold
        let c = compress_with_record_cap(&data, 7);
        assert_eq!(decompress(&c).unwrap(), data);
        // And the default cap produces the same bytes back too.
        assert_eq!(decompress(&compress(&data)).unwrap(), data);
    }

    /// The byte scan `compress` used before it scanned by word: measure
    /// the maximal run at each position, emit the ones of `MIN_RUN` or
    /// more.
    fn byte_scan(data: &[u8], cap: usize) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(data.len() as u64).to_be_bytes());
        let mut i = 0;
        let mut lit_start = 0;
        while i < data.len() {
            let b = data[i];
            let mut j = i + 1;
            while j < data.len() && data[j] == b {
                j += 1;
            }
            if j - i >= MIN_RUN {
                flush_literal(&mut out, &data[lit_start..i], cap);
                push_run(&mut out, b, j - i, cap);
                lit_start = j;
            }
            i = j;
        }
        flush_literal(&mut out, &data[lit_start..], cap);
        out
    }

    /// Runs of random bytes and lengths (many near `MIN_RUN`) between
    /// random literals.
    fn runs_and_literals(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut data = Vec::new();
        while data.len() < len {
            let r = next();
            let n = match r % 4 {
                0 => 1 + (r >> 8) % 40,
                1 => 12 + (r >> 8) % 8,
                _ => 1 + (r >> 8) % 12,
            } as usize;
            let b = [0u8, 0xFF, (r >> 40) as u8][(r >> 32) as usize % 3];
            if r % 4 == 3 {
                data.extend((0..n).map(|_| next() as u8));
            } else {
                data.extend(std::iter::repeat_n(b, n));
            }
        }
        data.truncate(len);
        data
    }

    #[test]
    fn word_scan_emits_what_the_byte_scan_emitted() {
        for seed in 0..200u64 {
            let data = runs_and_literals(seed, 1 + (seed as usize * 37) % 3000);
            // Every start offset shifts which bytes share a word.
            for off in 0..8.min(data.len()) {
                let d = &data[off..];
                assert_eq!(compress(d), byte_scan(d, MAX_RECORD), "seed {seed} +{off}");
                let small = compress_with_record_cap(d, 7);
                assert_eq!(small, byte_scan(d, 7), "seed {seed} +{off}, cap 7");
            }
        }
    }

    #[test]
    fn runs_near_the_threshold_straddling_a_word_are_found_exactly() {
        // A run of 14-17 bytes at every offset across a word boundary,
        // between literal bytes that all differ from the run's byte.
        for run in 14..=17 {
            for start in 0..24 {
                for b in [0u8, 0x5A] {
                    let mut data: Vec<u8> = (0..start).map(|i| (i as u8) * 3 + 1).collect();
                    data.extend(std::iter::repeat_n(b, run));
                    data.extend((0..9u8).map(|i| i * 5 + 2));
                    let want = byte_scan(&data, MAX_RECORD);
                    assert_eq!(compress(&data), want, "run {run} at {start}");
                    assert_eq!(decompress(&want).unwrap(), data);
                }
            }
        }
    }

    /// The range decoder before the record index: walk and validate
    /// every record header from the start of the stream, materialising
    /// the overlap with the request.
    fn whole_walk(stream: &[u8], offset: usize, len: usize) -> Result<Vec<u8>, CodecError> {
        if stream.len() < 12 || &stream[..4] != MAGIC {
            return Err(CodecError::BadMagic);
        }
        let orig_len = be_u64(&stream[4..12])? as usize;
        if orig_len > MAX_DECOMPRESS_LEN {
            return Err(CodecError::TooLarge);
        }
        let start = offset.min(orig_len);
        let end = offset.saturating_add(len).min(orig_len);
        let mut out = Vec::new();
        let (mut pos, mut i) = (0usize, 12);
        while i < stream.len() {
            let tag = stream[i];
            i += 1;
            if stream.len() < i + 4 {
                return Err(CodecError::Truncated);
            }
            let rec = be_u32(&stream[i..i + 4])? as usize;
            i += 4;
            if pos + rec > orig_len {
                return Err(CodecError::LengthMismatch);
            }
            let lo = start.max(pos);
            let take = end.min(pos + rec).saturating_sub(lo);
            match tag {
                0 => out.resize(out.len() + take, 0),
                1 => {
                    if stream.len() < i + 1 {
                        return Err(CodecError::Truncated);
                    }
                    out.resize(out.len() + take, stream[i]);
                    i += 1;
                }
                2 => {
                    if stream.len() < i + rec {
                        return Err(CodecError::Truncated);
                    }
                    if take > 0 {
                        let from = i + (lo - pos);
                        out.extend_from_slice(&stream[from..from + take]);
                    }
                    i += rec;
                }
                _ => return Err(CodecError::Truncated),
            }
            pos += rec;
        }
        if pos != orig_len {
            return Err(CodecError::LengthMismatch);
        }
        Ok(out)
    }

    /// `runs_and_literals` pieces between long runs, some longer than an
    /// index stride.
    fn strided(seed: u64, len: usize) -> Vec<u8> {
        let mut data = Vec::new();
        let mut k = seed;
        while data.len() < len {
            k = k
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let n = 1 + (k >> 20) as usize % 3000;
            match k >> 60 {
                0..=3 => data.extend(std::iter::repeat_n((k >> 8) as u8 & 1, n * 25)),
                _ => data.extend(runs_and_literals(k, n)),
            }
        }
        data.truncate(len);
        data
    }

    #[test]
    fn the_indexed_read_equals_the_whole_walk() {
        let mut k = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |n: usize| {
            k ^= k << 13;
            k ^= k >> 7;
            k ^= k << 17;
            (k % n as u64) as usize
        };
        for seed in 0..12u64 {
            let data = strided(seed, next(3 * INDEX_STRIDE));
            for cap in [MAX_RECORD, 7, 1000, INDEX_STRIDE + 3] {
                let s = compress_with_record_cap(&data, cap);
                let n = data.len();
                let index = RecordIndex::build(&s).unwrap();
                assert_eq!(index.len(), n);
                // Offsets on and beside every stride and some record edges.
                let mut edges = vec![0, 1, n.saturating_sub(1), n, n + 1, n + INDEX_STRIDE];
                for k in 1..=n / INDEX_STRIDE + 1 {
                    edges.extend([k * INDEX_STRIDE - 1, k * INDEX_STRIDE, k * INDEX_STRIDE + 1]);
                }
                let (mut i, mut pos) = (12, 0);
                while i < s.len() {
                    let (len, _, after) = record_at(&s, i, n - pos).unwrap();
                    if next(8) == 0 {
                        edges.extend([pos, pos + 1, pos + len]);
                    }
                    (i, pos) = (after, pos + len);
                }
                for _ in 0..64 {
                    let off = edges[next(edges.len())];
                    let len = match next(4) {
                        0 => 0,
                        1 => usize::MAX,
                        2 => next(3 * INDEX_STRIDE),
                        _ => edges[next(edges.len())].saturating_sub(off),
                    };
                    let want = whole_walk(&s, off, len).unwrap();
                    assert_eq!(want, &data[off.min(n)..off.saturating_add(len).min(n)]);
                    let mut out = vec![0xEE; 3];
                    index.read_into(&s, off, len, &mut out).unwrap();
                    assert_eq!(out[3..], want, "seed {seed} cap {cap}: {off}+{len}");
                    assert_eq!(out[..3], [0xEE; 3]);
                    assert_eq!(decompress_range(&s, off, len).unwrap(), want);
                }
                // Damaged anywhere, it fails exactly as the whole walk does.
                for _ in 0..20 {
                    let mut bad = s.clone();
                    let at = next(bad.len());
                    if next(2) == 0 {
                        bad.truncate(at);
                    } else {
                        bad[at] ^= 1 + next(255) as u8;
                    }
                    let (off, len) = (next(n + 2), next(2 * INDEX_STRIDE));
                    assert_eq!(
                        decompress_range(&bad, off, len),
                        whole_walk(&bad, off, len),
                        "seed {seed} cap {cap}: damage at {at}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_stream_is_indexed_once_per_stride() {
        // 100 KiB of zeros in 1000-byte records: four strides, each
        // seeking to the record that holds its first byte.
        let s = compress_with_record_cap(&[0u8; 100 * 1024], 1000);
        let index = RecordIndex::build(&s).unwrap();
        let starts: Vec<u32> = index.seeks.iter().map(|&(_, pos)| pos).collect();
        assert_eq!(starts, [0, 32_000, 65_000, 98_000]);
        assert!(index
            .seeks
            .iter()
            .all(|&(at, pos)| at == 12 + pos / 1000 * 5));
        assert!(RecordIndex::build(&compress(b"")).unwrap().seeks.is_empty());
    }

    #[test]
    fn codec_model_times_scale_linearly() {
        let m = CodecModel::default();
        let t1 = m.compress_time(15_000_000);
        assert!((t1.as_secs_f64() - 1.0).abs() < 1e-9);
        let t2 = m.decompress_time(120_000_000);
        assert!((t2.as_secs_f64() - 2.0).abs() < 1e-9);
        let t3 = m.digest_time(400_000_000);
        assert!((t3.as_secs_f64() - 1.0).abs() < 1e-9);
    }
}
