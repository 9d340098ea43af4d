//! The canonical content digest for GVFS data paths.
//!
//! Every content hash in `gvfs` — file-channel recipes, the per-proxy
//! content-addressed store, flush acked-digest tracking — goes through
//! this module; the `canonical-digest` xtask rule enforces it. Ad-hoc
//! hashers on data paths are how two layers silently disagree about what
//! "the same bytes" means.
//!
//! The hash is a dependency-free, deterministic 128-bit mix extending the
//! block cache's splitmix64-style `mix` finalizer: two independent 64-bit
//! lanes absorb the input as little-endian words, each lane running the
//! finalizer with different injection, and the lanes are cross-folded at
//! the end. It is **not** cryptographic — the simulation's adversary is
//! accidental collision, not a malicious chunk forger, matching the
//! paper's trust model (proxies and middleware are one administrative
//! domain). With 128 bits, accidental collision over the few million
//! distinct chunks a run produces is negligible (~2^-80).
//!
//! Identity hashes (cache set indexing over file handles) deliberately do
//! NOT use this module: they hash *addresses*, not content, and live with
//! their cache geometry.

/// A 128-bit content digest: two independent 64-bit lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Digest(pub u64, pub u64);

impl Digest {
    /// Render as fixed-width hex (diagnostics, report keys).
    pub fn to_hex(self) -> String {
        format!("{:016x}{:016x}", self.0, self.1)
    }
}

/// On the wire a digest is its two lanes as XDR hypers.
impl xdr::Encode for Digest {
    fn encode(&self, enc: &mut xdr::Encoder) {
        enc.put_u64(self.0);
        enc.put_u64(self.1);
    }
}

impl xdr::Decode<'_> for Digest {
    fn decode(dec: &mut xdr::Decoder<'_>) -> xdr::Result<Self> {
        Ok(Digest(dec.get_u64()?, dec.get_u64()?))
    }
}

/// splitmix64 finalizer — the same avalanche the block cache's set-index
/// hash uses, reused here as the per-word mixer.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// Digest `data`. Deterministic across platforms and runs: the input is
/// consumed as little-endian 64-bit words with an explicit length-tagged
/// tail, so no padding bytes ever alias a real word.
pub fn digest(data: &[u8]) -> Digest {
    let mut lanes = Lanes::new(data.len());
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        lanes.absorb(le_word(w));
    }
    if let Some(x) = tail_word(words.remainder()) {
        lanes.absorb(x);
    }
    lanes.finish()
}

/// Digest four inputs of one length at once: each result equals
/// [`digest`] of its input. The four inputs' eight lanes are independent
/// multiply chains, so interleaving them word by word lets the CPU
/// overlap what one input's two chains leave idle. Four is the measured
/// optimum on 1 MiB inputs: one input digests at 1.37 GB/s, four
/// interleaved at 2.14 GB/s, eight at 1.91 GB/s. Inputs of unequal
/// length are digested one by one.
pub fn digest4(inputs: [&[u8]; 4]) -> [Digest; 4] {
    let len = inputs[0].len();
    if inputs.iter().any(|d| d.len() != len) {
        return inputs.map(digest);
    }
    let mut lanes = [Lanes::new(len); 4];
    let [w0, w1, w2, w3] = inputs.map(|d| d.chunks_exact(8));
    for (((x0, x1), x2), x3) in w0.zip(w1).zip(w2).zip(w3) {
        lanes[0].absorb(le_word(x0));
        lanes[1].absorb(le_word(x1));
        lanes[2].absorb(le_word(x2));
        lanes[3].absorb(le_word(x3));
    }
    let whole = len - len % 8;
    for (l, d) in lanes.iter_mut().zip(inputs) {
        if let Some(x) = tail_word(&d[whole..]) {
            l.absorb(x);
        }
    }
    lanes.map(Lanes::finish)
}

/// The two running lanes of one digest.
#[derive(Clone, Copy)]
struct Lanes(u64, u64);

impl Lanes {
    fn new(len: usize) -> Self {
        let len = len as u64;
        Lanes(
            0x9E37_79B9_7F4A_7C15 ^ len,
            0xC2B2_AE3D_27D4_EB4F ^ len.rotate_left(32),
        )
    }

    #[inline(always)]
    fn absorb(&mut self, x: u64) {
        self.0 = mix64(self.0 ^ x);
        self.1 = mix64(self.1.wrapping_add(x.rotate_left(17)));
    }

    fn finish(self) -> Digest {
        let Lanes(a, b) = self;
        Digest(mix64(a ^ b.rotate_left(32)), mix64(b ^ a.rotate_left(32)))
    }
}

#[inline(always)]
fn le_word(w: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(w);
    u64::from_le_bytes(word)
}

/// The last, partial word of an input: zero-padded and tagged with its
/// length so "abc" and "abc\0" differ even though their padded words
/// agree. `None` when the input is a whole number of words.
fn tail_word(rem: &[u8]) -> Option<u64> {
    if rem.is_empty() {
        return None;
    }
    let mut tail = [0u8; 8];
    tail[..rem.len()].copy_from_slice(rem);
    Some(u64::from_le_bytes(tail) ^ ((rem.len() as u64) << 56).rotate_left(7))
}

/// FNV-1a over `bytes`, folded to 64 bits. The canonical home for the
/// *seed* hashes gvfs needs (write verifier seeding from an instance
/// name); content hashing must use [`digest`] instead.
pub fn seed64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Digest a buffer chunk-by-chunk: one `(digest, len)` record per
/// `chunk_bytes` piece, in file order (the last record may be short).
/// This is the recipe layout shared by middleware meta generation and the
/// channel's `FETCH_RECIPE` procedure. Full chunks are digested four at a
/// time ([`digest4`]); the last group of fewer than four, and a short
/// last chunk, one at a time.
pub fn chunk_digests(data: &[u8], chunk_bytes: u32) -> Vec<(Digest, u32)> {
    if chunk_bytes == 0 {
        return Vec::new();
    }
    let cb = chunk_bytes as usize;
    let mut out = Vec::new();
    let mut quads = data.chunks_exact(4 * cb);
    for q in &mut quads {
        let ds = digest4([0, 1, 2, 3].map(|k| &q[k * cb..(k + 1) * cb]));
        out.extend(ds.map(|d| (d, chunk_bytes)));
    }
    out.extend(
        quads
            .remainder()
            .chunks(cb)
            .map(|c| (digest(c), c.len() as u32)),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_deterministic_and_length_sensitive() {
        let d1 = digest(b"hello world");
        let d2 = digest(b"hello world");
        assert_eq!(d1, d2);
        assert_ne!(digest(b"abc"), digest(b"abc\0"));
        assert_ne!(digest(b""), digest(b"\0"));
        assert_ne!(digest(&[0u8; 8]), digest(&[0u8; 16]));
    }

    #[test]
    fn known_vectors_pin_the_format() {
        // Golden values: any change to the mixing breaks recipes cached
        // in committed reports, so pin the exact output.
        assert_eq!(digest(b"").to_hex(), "19d64384d604f94854a7bb8e4b0918f9");
        let d = digest(b"gvfs");
        assert_eq!(d.to_hex(), "29e7aed7f84233368cc5d43ac4fef660");
        assert_ne!(d.0, d.1, "lanes must not collapse");
        assert_eq!(
            digest(&vec![0u8; 1 << 20]).to_hex(),
            "4ee791888bbfe49ba3889637c4d9256f"
        );
        let stream: Vec<u8> = (0..65536u32).map(|i| (i % 251) as u8).collect();
        assert_eq!(digest(&stream).to_hex(), "69a6456c24fc6b41fabde06ba5687bab");
    }

    #[test]
    fn lockstep_digests_equal_one_at_a_time() {
        let stream: Vec<u8> = (0..4096u32).map(|i| (i * 37 % 253) as u8).collect();
        let lens = (0..=100).chain((8..=1024).step_by(8).flat_map(|m| [m - 1, m, m + 1]));
        for len in lens {
            // Four different inputs of one length, one of them all zeros.
            let inputs =
                [&stream[..len], &stream[1..=len], &stream[3000 - len..3000]].map(|d| d.to_vec());
            let zeros = vec![0u8; len];
            let four = [&inputs[0][..], &inputs[1], &zeros, &inputs[2]];
            assert_eq!(digest4(four), four.map(digest), "len {len}");
        }
        // Unequal lengths fall back to one at a time.
        let mixed = [&stream[..0], &stream[..9], &stream[..64], &stream[..4096]];
        assert_eq!(digest4(mixed), mixed.map(digest));
    }

    #[test]
    fn chunk_digests_group_full_chunks_and_finish_the_rest_alone() {
        let data: Vec<u8> = (0..50_000u32).map(|i| (i * 13 % 241) as u8).collect();
        // 0 to 9 full chunks, with and without a short last chunk.
        for n in 0..10 {
            for short in [0, 1, 17] {
                let data = &data[..n * 1000 + short];
                let want: Vec<_> = data
                    .chunks(1000)
                    .map(|c| (digest(c), c.len() as u32))
                    .collect();
                assert_eq!(chunk_digests(data, 1000), want, "{n} chunks + {short}");
            }
        }
    }

    #[test]
    fn single_bit_flips_change_both_lanes() {
        let base = vec![0xA5u8; 4096];
        let d0 = digest(&base);
        for pos in [0usize, 1, 7, 8, 9, 4088, 4095] {
            let mut m = base.clone();
            m[pos] ^= 1;
            let d = digest(&m);
            assert_ne!(d, d0, "flip at {pos} undetected");
            assert_ne!(d.0, d0.0, "lane 0 blind to flip at {pos}");
            assert_ne!(d.1, d0.1, "lane 1 blind to flip at {pos}");
        }
    }

    #[test]
    fn no_collisions_over_structured_inputs() {
        // Zero runs, byte runs, shifted windows — the structures VM
        // images are made of.
        let mut seen = std::collections::BTreeSet::new();
        for len in 0..200usize {
            assert!(seen.insert(digest(&vec![0u8; len])), "zero-run len {len}");
            assert!(seen.insert(digest(&vec![0xFFu8; len + 10_000])));
        }
        let stream: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        for w in 0..128 {
            assert!(seen.insert(digest(&stream[w..w + 3000])), "window {w}");
        }
    }

    #[test]
    fn chunk_digests_cover_exactly_and_match_whole_chunks() {
        let data: Vec<u8> = (0..100_000u32).map(|i| (i * 31 % 255) as u8).collect();
        let recs = chunk_digests(&data, 1 << 15);
        let total: u64 = recs.iter().map(|(_, l)| *l as u64).sum();
        assert_eq!(total, data.len() as u64);
        assert_eq!(recs.len(), data.len().div_ceil(1 << 15));
        for (i, (d, l)) in recs.iter().enumerate() {
            let start = i * (1 << 15);
            assert_eq!(*d, digest(&data[start..start + *l as usize]));
        }
        assert!(chunk_digests(&data, 0).is_empty());
        assert!(chunk_digests(&[], 1024).is_empty());
    }

    #[test]
    fn seed64_matches_fnv1a_reference() {
        // FNV-1a 64-bit reference vectors.
        assert_eq!(seed64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(seed64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
