//! Meta-data handling (paper §3.2.2).
//!
//! Grid middleware generates per-file meta-data from application-tailored
//! knowledge; a GVFS proxy interprets it when the file is accessed:
//!
//! * a **zero map** marks which blocks of a (memory state) file are
//!   all-zero, so the client-side proxy services those reads locally and
//!   only non-zero blocks cross the WAN;
//! * **file-channel actions** — `compress`, `remote copy`, `uncompress`,
//!   `read locally` — switch the transfer of a file that will certainly
//!   be read in full (e.g. `.vmss` on resume) from block-by-block NFS to
//!   one compressed stream into the proxy's file cache.
//!
//! The meta-data file lives in the same directory as its subject, under
//! the special name [`meta_name_for`], exactly as the paper describes.
//!
//! The **content map** generalizes the zero map: instead of one bit
//! ("this block is zero"), it records one [`crate::digest`] digest per
//! fixed-size chunk, so the client proxy can serve *any* chunk whose
//! bytes it already holds — not just the all-zero ones — from its
//! content-addressed store, and fetch only the missing payloads through
//! the channel's `FETCH_BLOBS` procedure.

use crate::digest::{digest, digest4, Digest};
use vfs::{Payload, PayloadRef, Piece};

/// Special file-name prefix for meta-data files.
pub const META_PREFIX: &str = ".gvfs_meta.";

/// The meta-data file name for a subject file name.
pub fn meta_name_for(name: &str) -> String {
    format!("{META_PREFIX}{name}")
}

/// Whether a name denotes a meta-data file.
pub fn is_meta_name(name: &str) -> bool {
    name.starts_with(META_PREFIX)
}

/// A bitmap of all-zero blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZeroMap {
    /// Block granularity the map was computed at.
    pub block_size: u32,
    /// Number of blocks in the file.
    pub nblocks: u64,
    bits: Vec<u64>,
}

impl ZeroMap {
    /// Create an all-nonzero map for `nblocks` blocks.
    pub fn new(block_size: u32, nblocks: u64) -> Self {
        assert!(block_size > 0);
        ZeroMap {
            block_size,
            nblocks,
            // lint:allow(bounded-decode): a local generator's map, sized from a file this process scanned, not from decoded bytes
            bits: vec![0; nblocks.div_ceil(64) as usize],
        }
    }

    /// Mark a block as all-zero.
    pub fn set_zero(&mut self, block: u64) {
        assert!(block < self.nblocks);
        self.bits[(block / 64) as usize] |= 1 << (block % 64);
    }

    /// Whether a block is known all-zero. Out-of-range blocks are "zero"
    /// (reads past EOF return nothing).
    pub fn is_zero(&self, block: u64) -> bool {
        if block >= self.nblocks {
            return true;
        }
        self.bits[(block / 64) as usize] & (1 << (block % 64)) != 0
    }

    /// Whether an entire byte range is known zero.
    pub fn range_is_zero(&self, offset: u64, len: u32) -> bool {
        if len == 0 {
            return true;
        }
        let bs = self.block_size as u64;
        let first = offset / bs;
        let last = (offset + len as u64 - 1) / bs;
        (first..=last).all(|b| self.is_zero(b))
    }

    /// Number of blocks marked zero.
    pub fn zero_count(&self) -> u64 {
        let full = self.bits.iter().map(|w| w.count_ones() as u64).sum::<u64>();
        full
    }
}

/// File-channel action list. The order is fixed by the paper: compress on
/// the server, remote-copy, uncompress into the file cache, then read
/// locally; we keep a flag for the compress step so the benchmarks can
/// ablate it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileChannelSpec {
    /// Compress before the copy (GZIP in the paper, [`crate::codec`] here).
    pub compress: bool,
    /// Write-back uploads through the channel too.
    pub writeback: bool,
}

/// The per-chunk digest recipe of a file: ordered `(digest, len)`
/// records at `chunk_bytes` granularity (the last record may be short).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContentMap {
    /// Chunk granularity the digests were computed at.
    pub chunk_bytes: u32,
    /// Total bytes covered (the subject's size at generation time).
    pub total: u64,
    /// One record per chunk, in file order.
    pub records: Vec<(Digest, u32)>,
}

/// Cap on content-map records a parser will materialize: 16 M records
/// cover a 16 TB file at 1 MB chunks, far beyond any VM state file.
const MAX_CONTENT_RECORDS: usize = 1 << 24;

/// Parsed meta-data for one file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetaFile {
    /// Subject file size when the meta-data was generated.
    pub file_size: u64,
    /// Zero-block map, if generated.
    pub zero_map: Option<ZeroMap>,
    /// File-channel actions, if specified.
    pub channel: Option<FileChannelSpec>,
    /// Per-chunk digest recipe, if generated (dedup'd channel fetches).
    pub content_map: Option<ContentMap>,
}

impl MetaFile {
    /// Serialize to the on-disk representation.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"GVFSMETA1\n");
        out.extend_from_slice(&self.file_size.to_be_bytes());
        match &self.channel {
            Some(c) => {
                out.push(1);
                out.push(c.compress as u8);
                out.push(c.writeback as u8);
            }
            None => out.push(0),
        }
        match &self.zero_map {
            Some(zm) => {
                out.push(1);
                out.extend_from_slice(&zm.block_size.to_be_bytes());
                out.extend_from_slice(&zm.nblocks.to_be_bytes());
                for w in &zm.bits {
                    out.extend_from_slice(&w.to_be_bytes());
                }
            }
            None => out.push(0),
        }
        match &self.content_map {
            Some(cm) => {
                out.push(1);
                out.extend_from_slice(&cm.chunk_bytes.to_be_bytes());
                out.extend_from_slice(&cm.total.to_be_bytes());
                out.extend_from_slice(&(cm.records.len() as u64).to_be_bytes());
                for (d, len) in &cm.records {
                    out.extend_from_slice(&d.0.to_be_bytes());
                    out.extend_from_slice(&d.1.to_be_bytes());
                    out.extend_from_slice(&len.to_be_bytes());
                }
            }
            None => out.push(0),
        }
        out
    }

    /// Parse the on-disk representation. A refusal says why: a cut-off
    /// file is `UnexpectedEof`, a section tag other than 0 or 1
    /// `InvalidDiscriminant`, a count the rest of the input cannot hold
    /// `LengthOverLimit` (refused before it sizes an allocation), a wrong
    /// magic or a zero granularity `OutOfRange`, and bytes after the last
    /// section `TrailingBytes`.
    pub fn from_bytes(data: &[u8]) -> xdr::Result<MetaFile> {
        let mut r = Reader(data);
        if &r.take::<10>()? != b"GVFSMETA1\n" {
            return Err(xdr::Error::OutOfRange("magic"));
        }
        let file_size = u64::from_be_bytes(r.take()?);
        let channel = if r.tag()? {
            let [compress, writeback] = r.take()?;
            Some(FileChannelSpec {
                compress: compress != 0,
                writeback: writeback != 0,
            })
        } else {
            None
        };
        let zero_map = if r.tag()? {
            let block_size = u32::from_be_bytes(r.take()?);
            let nblocks = u64::from_be_bytes(r.take()?);
            if block_size == 0 {
                return Err(xdr::Error::OutOfRange("block_size"));
            }
            // 8 bytes per word.
            let nwords = nblocks.div_ceil(64);
            let mut bits = r.bounded(nwords, 8, usize::MAX)?;
            for _ in 0..nwords {
                bits.push(u64::from_be_bytes(r.take()?));
            }
            Some(ZeroMap {
                block_size,
                nblocks,
                bits,
            })
        } else {
            None
        };
        let content_map = if r.tag()? {
            let chunk_bytes = u32::from_be_bytes(r.take()?);
            let total = u64::from_be_bytes(r.take()?);
            let nrecords = u64::from_be_bytes(r.take()?);
            if chunk_bytes == 0 {
                return Err(xdr::Error::OutOfRange("chunk_bytes"));
            }
            // 20 bytes per record.
            let mut records = r.bounded(nrecords, 20, MAX_CONTENT_RECORDS)?;
            for _ in 0..nrecords {
                records.push((
                    Digest(u64::from_be_bytes(r.take()?), u64::from_be_bytes(r.take()?)),
                    u32::from_be_bytes(r.take()?),
                ));
            }
            Some(ContentMap {
                chunk_bytes,
                total,
                records,
            })
        } else {
            None
        };
        if !r.0.is_empty() {
            return Err(xdr::Error::TrailingBytes {
                remaining: r.0.len(),
            });
        }
        Ok(MetaFile {
            file_size,
            zero_map,
            channel,
            content_map,
        })
    }
}

/// The unread rest of a meta file: big-endian integers and one-byte
/// section tags, unpadded.
struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    fn take<const N: usize>(&mut self) -> xdr::Result<[u8; N]> {
        let Some((head, rest)) = self.0.split_first_chunk::<N>() else {
            return Err(xdr::Error::UnexpectedEof {
                needed: N,
                remaining: self.0.len(),
            });
        };
        self.0 = rest;
        Ok(*head)
    }

    /// A section tag: whether the section follows.
    fn tag(&mut self) -> xdr::Result<bool> {
        match self.take::<1>()? {
            [0] => Ok(false),
            [1] => Ok(true),
            [t] => Err(xdr::Error::InvalidDiscriminant(t.into())),
        }
    }

    /// Room for `count` items of `size` bytes each, refused when the
    /// rest of the input cannot hold them or there are over `limit`.
    fn bounded<T>(&self, count: u64, size: usize, limit: usize) -> xdr::Result<Vec<T>> {
        let count = usize::try_from(count).unwrap_or(usize::MAX);
        xdr::bounded_alloc(count, (self.0.len() / size).min(limit))
    }
}

/// Middleware-side generator: scan a file in `fs` and produce a zero map
/// at `block_size` granularity. This is the paper's pre-processing of the
/// memory state file on the image server.
pub fn generate_zero_map(fs: &vfs::Fs, h: vfs::Handle, block_size: u32) -> vfs::FsResult<ZeroMap> {
    let size = fs.size(h)?;
    let nblocks = size.div_ceil(block_size as u64);
    let mut zm = ZeroMap::new(block_size, nblocks);
    for b in 0..nblocks {
        let off = b * block_size as u64;
        let len = ((size - off).min(block_size as u64)) as usize;
        if fs.is_zero_range(h, off, len)? {
            zm.set_zero(b);
        }
    }
    Ok(zm)
}

/// Middleware-side generator: scan a file in `fs` and produce its
/// per-chunk digest recipe at `chunk_bytes` granularity. Like the zero
/// map this runs where the data lives (the image server), so clients get
/// the recipe for free with the meta-data.
pub fn generate_content_map(
    fs: &mut vfs::Fs,
    h: vfs::Handle,
    chunk_bytes: u32,
) -> vfs::FsResult<ContentMap> {
    scan_content_map(fs, h, chunk_bytes, 0)
}

/// The content map of `h`, read at virtual instant `now` (the reads set
/// the file's atime): the one scanner behind [`generate_content_map`]
/// and the channel's `FETCH_RECIPE`. Full-length chunks are digested
/// four at a time ([`digest4`]); a chunk that is a hole reuses the
/// digest of the last hole of its length; a chunk read as one piece is
/// digested in place, any other is gathered into one of four buffers the
/// whole scan reuses.
pub(crate) fn scan_content_map(
    fs: &mut vfs::Fs,
    h: vfs::Handle,
    chunk_bytes: u32,
    now: u64,
) -> vfs::FsResult<ContentMap> {
    assert!(chunk_bytes > 0);
    let total = fs.size(h)?;
    let nchunks = total.div_ceil(chunk_bytes as u64);
    // lint:allow(bounded-decode): a local generator's recipe, sized from a file this process scanned, not from decoded bytes
    let mut records = Vec::with_capacity(nchunks as usize);
    let mut bufs: [Vec<u8>; 4] = Default::default();
    // Full chunks waiting for a lockstep group, with their record slots.
    let mut group: Vec<(usize, Payload)> = Vec::with_capacity(4);
    let mut last_hole: Option<(usize, Digest)> = None;
    for c in 0..nchunks {
        let off = c * chunk_bytes as u64;
        let len = ((total - off).min(chunk_bytes as u64)) as u32;
        let (data, _) = fs.read(h, off, len as usize, now)?;
        let d = if data.pieces().all(|p| matches!(p, Piece::Zeros(_))) {
            match last_hole {
                Some((n, d)) if n == data.len() => d,
                _ => {
                    let d = digest(gather(&data, &mut bufs[0]));
                    last_hole = Some((data.len(), d));
                    d
                }
            }
        } else if data.len() == chunk_bytes as usize {
            group.push((records.len(), data));
            records.push((Digest(0, 0), len));
            if let [(i0, p0), (i1, p1), (i2, p2), (i3, p3)] = group.as_slice() {
                let [b0, b1, b2, b3] = &mut bufs;
                let ds = digest4([
                    gather(p0, b0),
                    gather(p1, b1),
                    gather(p2, b2),
                    gather(p3, b3),
                ]);
                for (i, d) in [i0, i1, i2, i3].into_iter().zip(ds) {
                    records[*i].0 = d;
                }
                group.clear();
            }
            continue;
        } else {
            digest(gather(&data, &mut bufs[0]))
        };
        records.push((d, len));
    }
    // Fewer than four full chunks left: one at a time.
    for (i, data) in &group {
        records[*i].0 = digest(gather(data, &mut bufs[0]));
    }
    Ok(ContentMap {
        chunk_bytes,
        total,
        records,
    })
}

/// The bytes of `data`: its one piece in place, or gathered into `buf`.
fn gather<'a>(data: &'a Payload, buf: &'a mut Vec<u8>) -> &'a [u8] {
    let mut pieces = data.pieces();
    if let (Some(Piece::Bytes(b)), None) = (pieces.next(), pieces.next()) {
        return b;
    }
    buf.clear();
    // lint:allow(bounded-decode): one chunk of a file this process scans, reserved once per scan buffer
    buf.reserve(data.len());
    PayloadRef::from(data).extend_vec(0..data.len(), buf);
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfs::Fs;

    #[test]
    fn meta_names() {
        assert_eq!(meta_name_for("vm.vmss"), ".gvfs_meta.vm.vmss");
        assert!(is_meta_name(".gvfs_meta.vm.vmss"));
        assert!(!is_meta_name("vm.vmss"));
    }

    #[test]
    fn zero_map_bit_operations() {
        let mut zm = ZeroMap::new(4096, 200);
        assert!(!zm.is_zero(0));
        zm.set_zero(0);
        zm.set_zero(64);
        zm.set_zero(199);
        assert!(zm.is_zero(0));
        assert!(zm.is_zero(64));
        assert!(zm.is_zero(199));
        assert!(!zm.is_zero(1));
        assert!(zm.is_zero(1000)); // out of range = past EOF = zero
        assert_eq!(zm.zero_count(), 3);
    }

    #[test]
    fn range_is_zero_spans_blocks() {
        let mut zm = ZeroMap::new(100, 10);
        for b in 2..=5 {
            zm.set_zero(b);
        }
        assert!(zm.range_is_zero(200, 400)); // blocks 2..=5
        assert!(!zm.range_is_zero(150, 100)); // touches block 1
        assert!(zm.range_is_zero(500, 0));
    }

    #[test]
    fn meta_file_round_trips_all_combinations() {
        let mut zm = ZeroMap::new(32768, 100);
        zm.set_zero(7);
        zm.set_zero(99);
        let cm = ContentMap {
            chunk_bytes: 1 << 20,
            total: 335_544_320,
            records: (0..320u64)
                .map(|i| (Digest(i.wrapping_mul(0x9E37), !i), 1 << 20))
                .collect(),
        };
        for meta in [
            MetaFile {
                file_size: 335_544_320,
                zero_map: Some(zm.clone()),
                channel: Some(FileChannelSpec {
                    compress: true,
                    writeback: false,
                }),
                content_map: Some(cm.clone()),
            },
            MetaFile {
                file_size: 0,
                zero_map: None,
                channel: None,
                content_map: None,
            },
            MetaFile {
                file_size: 5,
                zero_map: None,
                channel: Some(FileChannelSpec {
                    compress: false,
                    writeback: true,
                }),
                content_map: Some(ContentMap {
                    chunk_bytes: 4096,
                    total: 5,
                    records: vec![(Digest(1, 2), 5)],
                }),
            },
            MetaFile {
                file_size: 1 << 31,
                zero_map: Some(zm.clone()),
                channel: None,
                content_map: None,
            },
        ] {
            let bytes = meta.to_bytes();
            assert_eq!(MetaFile::from_bytes(&bytes), Ok(meta));
        }
    }

    /// Why `bytes` is not a meta file.
    fn refused(bytes: &[u8]) -> xdr::Error {
        MetaFile::from_bytes(bytes).expect_err("not a meta file")
    }

    fn eof(needed: usize, remaining: usize) -> xdr::Error {
        xdr::Error::UnexpectedEof { needed, remaining }
    }

    fn over(declared: u32, limit: u32) -> xdr::Error {
        xdr::Error::LengthOverLimit { declared, limit }
    }

    #[test]
    fn malformed_meta_is_rejected() {
        assert_eq!(refused(b""), eof(10, 0));
        assert_eq!(refused(b"GVFSMETA1\n"), eof(8, 0));
        assert_eq!(refused(b"GVFSMETA2\n"), xdr::Error::OutOfRange("magic"));
        let good = MetaFile {
            file_size: 10,
            zero_map: None,
            channel: None,
            content_map: Some(ContentMap {
                chunk_bytes: 4096,
                total: 10,
                records: vec![(Digest(3, 4), 10)],
            }),
        }
        .to_bytes();
        // Truncation inside the content-map section is rejected: a
        // record count the rest cannot hold, or a cut-off count.
        assert_eq!(refused(&good[..good.len() - 1]), over(1, 0));
        assert_eq!(refused(&good[..good.len() - 21]), eof(8, 7));
        let mut trailing = good.clone();
        trailing.push(0);
        let one_left = xdr::Error::TrailingBytes { remaining: 1 };
        assert_eq!(refused(&trailing), one_left);
        // A bogus section tag is rejected.
        let mut bad_tag = MetaFile {
            file_size: 10,
            zero_map: None,
            channel: None,
            content_map: None,
        }
        .to_bytes();
        *bad_tag.last_mut().unwrap() = 7;
        assert_eq!(refused(&bad_tag), xdr::Error::InvalidDiscriminant(7));
        // A record count far beyond the remaining input is rejected
        // without allocating.
        let mut huge = good.clone();
        // count field lives right after tag(1)+chunk_bytes(4)+total(8).
        let count_at = good.len() - 20 - 8;
        huge[count_at..count_at + 8].copy_from_slice(&(1u64 << 20).to_be_bytes());
        assert_eq!(refused(&huge), over(1 << 20, 1));
        // The pre-content-map layout, which ends right after the zero-map
        // section, is not a meta file.
        let tagged = MetaFile {
            file_size: 10,
            zero_map: None,
            channel: None,
            content_map: None,
        }
        .to_bytes();
        assert_eq!(refused(&tagged[..tagged.len() - 1]), eof(1, 0));
    }

    #[test]
    fn zero_map_claim_beyond_the_input_is_rejected_without_allocating() {
        // 32 bytes that claim 2^40 blocks: honouring the claim before
        // checking the input would reserve 2^34 words (128 GiB).
        let mut header = b"GVFSMETA1\n".to_vec();
        header.extend_from_slice(&0u64.to_be_bytes()); // file size
        header.push(0); // no channel actions
        header.push(1); // a zero map follows
        header.extend_from_slice(&4096u32.to_be_bytes());
        header.extend_from_slice(&(1u64 << 40).to_be_bytes());
        assert_eq!(header.len(), 32);
        assert_eq!(refused(&header), over(u32::MAX, 0));
    }

    #[test]
    fn generate_content_map_matches_file_contents() {
        let mut fs = Fs::new(0);
        let root = fs.root();
        let f = fs.create(root, "mem.vmss", 0o644, 0).unwrap();
        // 2.5 chunks at 4 KB granularity; chunk 1 repeats chunk 0.
        let chunk: Vec<u8> = (0..4096u32).map(|i| (i % 253) as u8).collect();
        fs.write(f, 0, &chunk, 0).unwrap();
        fs.write(f, 4096, &chunk, 0).unwrap();
        fs.write(f, 8192, &[5u8; 2048], 0).unwrap();
        let cm = generate_content_map(&mut fs, f, 4096).unwrap();
        assert_eq!(cm.total, 10_240);
        assert_eq!(cm.chunk_bytes, 4096);
        assert_eq!(
            cm.records,
            vec![
                (digest(&chunk), 4096),
                (digest(&chunk), 4096),
                (digest(&[5u8; 2048]), 2048),
            ]
        );
        // Round-trips through the meta file.
        let meta = MetaFile {
            file_size: 10_240,
            zero_map: None,
            channel: None,
            content_map: Some(cm),
        };
        assert_eq!(MetaFile::from_bytes(&meta.to_bytes()), Ok(meta));
    }

    #[test]
    fn generate_zero_map_matches_file_contents() {
        let mut fs = Fs::new(0);
        let root = fs.root();
        let f = fs.create(root, "mem.vmss", 0o644, 0).unwrap();
        // 10 blocks of 4 KB; blocks 3 and 7 have data.
        fs.setattr(f, Some(40_960), None, 0).unwrap();
        fs.write(f, 3 * 4096 + 17, &[9u8; 100], 0).unwrap();
        fs.write(f, 7 * 4096, &[1u8; 4096], 0).unwrap();
        let zm = generate_zero_map(&fs, f, 4096).unwrap();
        assert_eq!(zm.nblocks, 10);
        for b in 0..10u64 {
            assert_eq!(zm.is_zero(b), b != 3 && b != 7, "block {b}");
        }
        assert_eq!(zm.zero_count(), 8);
    }
}
