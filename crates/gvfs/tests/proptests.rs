//! Property-based invariants for the GVFS data structures.

use gvfs::block_cache::{BlockCache, BlockCacheConfig, Tag};
use gvfs::meta::{generate_content_map, ContentMap, MetaFile, ZeroMap};
use gvfs::{codec, Digest, FileChannelSpec};
use gvfs::{ChannelClient, CodecModel, ContentStore, DedupTel, RecipeFetch};
use gvfs::{FileCache, FileKey, ImageServer, Listen};
use oncrpc::{AuthSys, OpaqueAuth, RpcClient};
use proptest::prelude::*;
use simnet::{Link, SimDuration, Simulation};
use std::sync::Arc;
use vfs::{Disk, DiskModel, Fs};

/// An origin behind a fast link: its filesystem and a channel client.
fn channel_origin(sim: &Simulation) -> (Arc<parking_lot::Mutex<Fs>>, ChannelClient) {
    let h = sim.handle();
    let up = Link::from_mbps(&h, "up", 1000.0, SimDuration::from_micros(100));
    let down = Link::from_mbps(&h, "down", 1000.0, SimDuration::from_micros(100));
    let origin = ImageServer::start(&h, Listen::plain(up, down), 768 << 20, false);
    let rpc = RpcClient::new(origin.channel, OpaqueAuth::sys(&AuthSys::new("c", 1, 1)));
    (origin.fs, ChannelClient::new(rpc, CodecModel::default()))
}

proptest! {
    /// `bytes_stored` tracks the exact sum of resident frame payloads
    /// through arbitrary interleavings of insert (including overwrites
    /// and evictions — the tiny geometry forces them constantly),
    /// growing partial updates, flushes, and clears.
    #[test]
    fn block_cache_byte_accounting_never_drifts(
        ops in proptest::collection::vec(
            (0u8..6, 1u64..4, 0u64..16, 0usize..1025, any::<bool>()),
            1..200,
        )
    ) {
        let sim = Simulation::new();
        let h = sim.handle();
        let disk = Disk::new(&h, DiskModel::scsi_2004());
        // 2 banks × 2 sets × 2-way, 1 KB blocks: 8 frames total, so a
        // few dozen inserts guarantee heavy eviction traffic.
        let cache = std::sync::Arc::new(BlockCache::new(
            &h,
            disk,
            BlockCacheConfig {
                banks: 2,
                sets_per_bank: 2,
                assoc: 2,
                block_size: 1024,
            },
        ));
        let c = cache.clone();
        sim.spawn("ops", move |env| {
            for (op, file, block, len, dirty) in ops {
                let tag = Tag {
                    fileid: file,
                    generation: 1,
                    block,
                };
                match op {
                    // insert: weighted double so the cache stays full
                    0 | 1 => {
                        let _ = c.insert(&env, tag, vec![0xA5; len.min(1024)], dirty);
                    }
                    2 => {
                        let _ = c.lookup(&env, tag);
                    }
                    3 => {
                        let off = len.min(1023);
                        let n = (1024 - off).min(97);
                        let _ = c.update(&env, tag, off, &vec![7u8; n], dirty);
                    }
                    4 => {
                        let _ = c.take_dirty(&env);
                    }
                    5 => c.clear(),
                    _ => unreachable!(),
                }
                c.validate_accounting();
            }
        });
        sim.run();
        cache.validate_accounting();
    }

    /// The block cache against a model of what each resident frame must
    /// hold, with frames that share their bytes: clean inserts drawn
    /// from a three-content palette (so equal frames are one pooled
    /// allocation) next to random payloads, frames born dirty, `update`s
    /// at random offsets into pooled, private and flush-held frames
    /// alike, and `take_dirty` mid-sequence. Every payload a flush was
    /// handed is re-checked after each later step — an update of a tag
    /// the flush still holds must never show through to it — and the
    /// 2-way geometry keeps evicting: a dirty victim comes back with the
    /// model's bytes, a clean one vanishes silently and only if clean.
    #[test]
    fn block_cache_matches_a_model_under_sharing(
        ops in proptest::collection::vec(
            (0u8..8, 0u64..24, any::<u8>(), 0usize..1024, any::<bool>()),
            1..150,
        )
    ) {
        const BS: usize = 1024;
        fn content(pick: u8, len: usize) -> Vec<u8> {
            match pick % 5 {
                0 => vec![0u8; BS],
                1 => vec![0xAA; BS],
                2 => (0..BS).map(|i| (i / 3) as u8).collect(),
                _ => (0..=len).map(|i| (i as u8).wrapping_mul(pick | 1) ^ pick).collect(),
            }
        }
        let sim = Simulation::new();
        let h = sim.handle();
        let cache = Arc::new(BlockCache::new(
            &h,
            Disk::new(&h, DiskModel::scsi_2004()),
            BlockCacheConfig {
                banks: 2,
                sets_per_bank: 2,
                assoc: 2,
                block_size: BS as u32,
            },
        ));
        let c = cache.clone();
        sim.spawn("ops", move |env| {
            // tag -> (bytes, dirty) of every frame that may be resident.
            let mut model: std::collections::BTreeMap<Tag, (Vec<u8>, bool)> = Default::default();
            // What flushes were handed, next to a private copy of it.
            let mut flushed: Vec<(Vec<u8>, vfs::SharedBytes)> = Vec::new();
            for (op, t, pick, at, dirty) in ops {
                let tag = Tag {
                    fileid: 1 + t / 12,
                    generation: 1,
                    block: t % 12,
                };
                match op {
                    0..=3 => {
                        let data = content(pick, at);
                        let was_dirty = model.get(&tag).is_some_and(|(_, d)| *d);
                        if let Some((etag, edata)) = c.insert(&env, tag, data.clone(), dirty) {
                            let (bytes, was) = model.remove(&etag).expect("victim was resident");
                            assert!(was, "a clean victim must not be handed out");
                            assert_eq!(*edata, bytes, "evicted {etag:?}");
                        }
                        model.insert(tag, (data, dirty || was_dirty));
                    }
                    4 | 5 => {
                        let n = (BS - at).min(1 + pick as usize);
                        let bytes = vec![pick; n];
                        let hit = c.update(&env, tag, at, &bytes, dirty);
                        assert_eq!(hit, model.contains_key(&tag), "update {tag:?}");
                        if let Some((data, d)) = model.get_mut(&tag) {
                            if data.len() < at + n {
                                data.resize(at + n, 0);
                            }
                            data[at..at + n].copy_from_slice(&bytes);
                            *d |= dirty;
                        }
                    }
                    6 => {
                        let got = c.take_dirty(&env);
                        let want: Vec<(Tag, &Vec<u8>)> = model
                            .iter()
                            .filter(|(_, (_, d))| *d)
                            .map(|(t, (b, _))| (*t, b))
                            .collect();
                        assert_eq!(got.len(), want.len());
                        for ((gt, gb), (wt, wb)) in got.iter().zip(&want) {
                            assert_eq!((gt, &**gb), (wt, *wb));
                        }
                        flushed.extend(got.into_iter().map(|(_, b)| (Vec::clone(&b), b)));
                        model.values_mut().for_each(|(_, d)| *d = false);
                    }
                    _ => {
                        let _ = c.lookup(&env, tag);
                    }
                }
                // Clean frames leave silently; everything else is there
                // and reads like the model.
                model.retain(|t, (_, d)| c.contains(*t) || {
                    assert!(!*d, "dirty {t:?} vanished");
                    false
                });
                for (t, (bytes, _)) in &model {
                    assert_eq!(c.lookup(&env, *t).as_ref(), Some(bytes), "{t:?}");
                }
                for (then, held) in &flushed {
                    assert_eq!(then, &**held, "a flush's payload changed under it");
                }
                assert_eq!(c.dirty_frames(), model.values().filter(|(_, d)| *d).count() as u64);
                c.validate_accounting();
            }
        });
        sim.run();
    }

    /// `FileCache::bytes_stored` tracks the exact sum of disk-resident
    /// payloads — full files plus the *private overlay* of
    /// reference-backed files — through arbitrary interleavings of full
    /// installs, reference installs, CoW-breaking and extending writes,
    /// whole-file and chunk-wise dirty takes, sync-state flips, and
    /// clears, with a capacity small enough to force evictions. This is
    /// the PR 9 shared/private-split audit: in particular a
    /// whole-file `take_dirty` + `clear_synced` cycle on a partially
    /// diverged reference must neither double-charge nor under-charge.
    #[test]
    fn file_cache_byte_accounting_never_drifts(
        ops in proptest::collection::vec(
            (0u8..9, 1u64..5, 0u64..4096, 1usize..1200, any::<bool>()),
            1..200,
        )
    ) {
        let sim = Simulation::new();
        let h = sim.handle();
        let disk = Disk::new(&h, DiskModel::scsi_2004());
        // Small enough that a handful of installs forces evictions.
        let cache = Arc::new(FileCache::new(disk, 4096));
        let cas = Arc::new(ContentStore::new(1 << 20));
        let cas2 = cas.clone();
        let c = cache.clone();
        sim.spawn("ops", move |env| {
            let cas = cas2;
            for (op, file, off, len, flag) in ops {
                let key = FileKey { fileid: file, generation: 1 };
                match op {
                    // install: weighted double so eviction stays busy
                    0 | 1 => {
                        let data: Vec<u8> =
                            (0..len as u64).map(|i| (i * file) as u8).collect();
                        c.install(&env, key, &data);
                    }
                    2 => {
                        // Reference install: chunk aperiodic content onto
                        // the CAS with one pin per record occurrence,
                        // exactly as the proxy recipe path does.
                        let data: Vec<u8> = (0..(len as u64) * 3)
                            .map(|i| {
                                ((i + file).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32)
                                    as u8
                            })
                            .collect();
                        let recipe: Vec<(Digest, u32)> = data
                            .chunks(512)
                            .map(|chunk| {
                                (cas.insert_pinned(chunk), chunk.len() as u32)
                            })
                            .collect();
                        c.install_reference(&env, key, cas.clone(), 512, recipe, 0);
                    }
                    3 => {
                        // May land inside the file (CoW break on a
                        // reference) or past its end (extension →
                        // materialization).
                        let _ = c.write(&env, key, off, &vec![0xC0; len.min(700)]);
                    }
                    4 => {
                        let _ = c.read(&env, key, off, len as u32);
                    }
                    5 => {
                        let _ = c.take_dirty(&env, key, false);
                    }
                    6 => {
                        let _ = c.take_dirty(&env, key, true);
                    }
                    7 => {
                        if flag {
                            c.mark_dirty(key);
                        } else {
                            c.clear_synced(key);
                        }
                    }
                    8 => c.clear(),
                    _ => unreachable!(),
                }
                c.validate_accounting();
            }
        });
        sim.run();
        cache.validate_accounting();
        // Every pin the cache still holds is accounted by a live
        // reference entry; a cleared cache would leave zero.
        cache.clear();
        cache.validate_accounting();
        prop_assert_eq!(cas.pinned_bytes(), 0);
    }

    /// A chunked fetch reassembles the file byte-identically, and a
    /// chunked upload lands byte-identically on the server, for
    /// arbitrary contents across chunk-size / window combinations
    /// (including chunk sizes that don't divide the file length, windows
    /// larger than the chunk count, the serial window 1 and the unsplit
    /// chunk size 0 — together the whole-file serial transfer).
    #[test]
    fn chunked_channel_round_trips(
        len in 0usize..200_000,
        seed in any::<u64>(),
        chunk_kib in 0u32..48,
        window in 1usize..8,
    ) {
        let sim = Simulation::new();
        let (fs, chan) = channel_origin(&sim);

        let mul = seed | 1;
        let data: Vec<u8> = (0..len as u64).map(|i| (i.wrapping_mul(mul) >> 5) as u8).collect();
        let reversed: Vec<u8> = data.iter().rev().copied().collect();
        let fh = {
            let mut f = fs.lock();
            let root = f.root();
            let h = f.create(root, "img", 0o644, 0).unwrap();
            f.write(h, 0, &data, 0).unwrap();
            h
        };
        let fs2 = fs.clone();
        sim.spawn("client", move |env| {
            let chunk = chunk_kib << 10;
            let (got, _) = chan.fetch_chunked(&env, fh, chunk, window, None).unwrap();
            assert_eq!(got, data, "fetch chunk={chunk} window={window}");
            chan.upload_chunked(&env, fh, &reversed, chunk, window, None).unwrap();
            let mut f = fs2.lock();
            assert_eq!(f.size(fh).unwrap() as usize, reversed.len());
            if !reversed.is_empty() {
                let (back, _) = f.read(fh, 0, reversed.len(), 0).unwrap();
                assert_eq!(back, reversed, "upload chunk={chunk} window={window}");
            }
        });
        sim.run();
    }

    /// The recipe/blob dedup fetch reassembles byte-identically to what
    /// the monolithic chunked fetch would return, for arbitrary contents,
    /// chunk boundaries (including ones that don't divide the length),
    /// window sizes (the serial window 1 included), CAS pre-population
    /// (cold / partially warm), and with the recipe either hinted from
    /// meta-data or fetched via `FETCH_RECIPE` (where chunk size 0 asks
    /// for the 1 MB default). A repeat fetch moves zero fresh bytes.
    #[test]
    fn dedup_fetch_matches_chunked_fetch(
        len in 0usize..200_000,
        seed in any::<u64>(),
        chunk_kib in 0u32..48,
        window in 1usize..8,
        warm_mask in any::<u64>(),
        hint in any::<bool>(),
    ) {
        let sim = Simulation::new();
        let (fs, chan) = channel_origin(&sim);

        let mul = seed | 1;
        let data: Vec<u8> = (0..len as u64).map(|i| (i.wrapping_mul(mul) >> 5) as u8).collect();
        let chunk = chunk_kib << 10;
        let record = if chunk == 0 { 1 << 20 } else { chunk };
        let (fh, cmap) = {
            let mut f = fs.lock();
            let root = f.root();
            let hdl = f.create(root, "img", 0o644, 0).unwrap();
            f.write(hdl, 0, &data, 0).unwrap();
            let cmap = generate_content_map(&mut f, hdl, record).unwrap();
            (hdl, cmap)
        };
        // Pre-populate the CAS with an arbitrary subset of the chunks.
        let cas = ContentStore::new(1 << 30);
        for (i, ch) in data.chunks(record as usize).enumerate() {
            if warm_mask >> (i % 64) & 1 == 1 {
                cas.insert(ch);
            }
        }
        sim.spawn("client", move |env| {
            let dtel = DedupTel::unregistered();
            let rq = RecipeFetch {
                recipe_hint: if hint { Some(&cmap) } else { None },
                chunk_bytes: chunk,
                window,
                batch: 1,
                cas: &cas,
                dtel: &dtel,
                tel: None,
            };
            let df = chan.fetch_dedup(&env, fh, &rq).unwrap();
            assert_eq!(df.contents, data, "chunk={chunk} window={window}");
            assert!(df.fresh_bytes <= len as u64);
            // Every byte either crossed the wire or was avoided.
            assert_eq!(df.fresh_bytes + dtel.bytes_avoided.get(), len as u64);
            // Every chunk is now CAS-resident: a second fetch is pure hits.
            let df2 = chan.fetch_dedup(&env, fh, &rq).unwrap();
            assert_eq!(df2.contents, data);
            assert_eq!(df2.fresh_bytes, 0);
            assert_eq!(df2.wire, 0);
        });
        sim.run();
    }

    /// The codec is lossless on arbitrary byte strings.
    #[test]
    fn codec_round_trips_arbitrary_data(data in proptest::collection::vec(any::<u8>(), 0..20_000)) {
        let c = codec::compress(&data);
        prop_assert_eq!(codec::decompress(&c).unwrap(), data);
    }

    /// The codec is lossless on run-heavy data (the adversarial case for
    /// run-length encoders: runs crossing record boundaries).
    #[test]
    fn codec_round_trips_runny_data(runs in proptest::collection::vec((any::<u8>(), 1usize..2000), 1..40)) {
        let mut data = Vec::new();
        for (b, n) in runs {
            data.extend(std::iter::repeat_n(b, n));
        }
        let c = codec::compress(&data);
        prop_assert_eq!(codec::decompress(&c).unwrap(), data);
    }

    /// Compressing mostly-zero data always shrinks it substantially.
    #[test]
    fn codec_shrinks_zero_dominated_data(
        len in 10_000usize..100_000,
        sites in proptest::collection::vec((0usize..10_000, any::<u8>()), 0..50),
    ) {
        let mut data = vec![0u8; len];
        for (pos, b) in sites {
            data[pos % len] = b;
        }
        let c = codec::compress(&data);
        prop_assert!(c.len() < len / 4 + 1024, "{} -> {}", len, c.len());
    }

    /// Truncating a compressed stream never panics and never yields
    /// wrong-length output claimed as success.
    #[test]
    fn codec_rejects_truncations(data in proptest::collection::vec(any::<u8>(), 1..5_000), cut in 0.0f64..1.0) {
        let c = codec::compress(&data);
        let keep = ((c.len() as f64) * cut) as usize;
        if keep < c.len() {
            if let Ok(out) = codec::decompress(&c[..keep]) {
                // Only acceptable if the truncation kept everything needed.
                prop_assert_eq!(out, data);
            }
        }
    }

    /// A range decode is a slice of the whole decode, for mixed
    /// run/literal payloads and arbitrary ranges: empty, whole,
    /// straddling the end, past it.
    #[test]
    fn codec_range_decode_is_a_slice_of_the_whole(
        pieces in proptest::collection::vec((any::<u8>(), 1usize..600, any::<bool>()), 1..30),
        off in 0usize..12_000,
        len in 0usize..12_000,
    ) {
        let data = runs_and_literals(&pieces);
        let s = codec::compress(&data);
        let n = data.len();
        for (o, l) in [(off, len), (0, n), (off, 0), (off % (n + 1), usize::MAX), (n, 1)] {
            let want = &data[o.min(n)..o.saturating_add(l).min(n)];
            prop_assert_eq!(codec::decompress_range(&s, o, l).unwrap(), want);
        }
    }

    /// Damage is judged alike: under any truncation or byte flip the
    /// range decoder fails exactly when, and as, the whole decoder fails
    /// (every record header is validated either way), and where both
    /// still decode, the range is still the slice and no longer than
    /// asked for. Neither panics.
    #[test]
    fn codec_range_decode_fails_exactly_when_the_whole_decode_fails(
        pieces in proptest::collection::vec((any::<u8>(), 1usize..600, any::<bool>()), 1..30),
        off in 0usize..12_000,
        len in 0usize..12_000,
        damage in proptest::collection::vec((any::<bool>(), 0.0f64..1.0, 1u8..=255), 1..12),
    ) {
        let s = codec::compress(&runs_and_literals(&pieces));
        for (truncate, at, flip) in damage {
            let mut bad = s.clone();
            let pos = ((bad.len() as f64) * at) as usize;
            if truncate {
                bad.truncate(pos);
            } else {
                bad[pos] ^= flip;
            }
            match (codec::decompress(&bad), codec::decompress_range(&bad, off, len)) {
                (Ok(whole), Ok(part)) => {
                    let n = whole.len();
                    prop_assert_eq!(&part[..], &whole[off.min(n)..(off + len).min(n)]);
                    prop_assert!(part.len() <= len);
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (a, b) => prop_assert!(
                    false,
                    "whole {:?} vs range {:?}",
                    a.map(|v| v.len()),
                    b.map(|v| v.len())
                ),
            }
        }
    }

    /// A reference-backed file reads like the dense bytes it stands for:
    /// random in-bounds writes (copy-on-write breaks), chunk-wise dirty
    /// takes (overlay chunks that are clean again) and unaligned reads
    /// straddling shared chunks, private chunks and the end, against a
    /// plain `Vec<u8>` model. The synced digest, whenever it is first
    /// asked for — before or after the first write — is the digest of the
    /// pristine contents.
    #[test]
    fn reference_file_reads_like_its_dense_model(
        len in 1usize..5_000,
        seed in any::<u64>(),
        ask_synced_at in 0usize..40,
        ops in proptest::collection::vec(
            (0u8..4, 0usize..5_200, 1usize..1_500, any::<u8>()),
            1..40,
        ),
    ) {
        let sim = Simulation::new();
        let h = sim.handle();
        let cache = Arc::new(FileCache::new(Disk::new(&h, DiskModel::scsi_2004()), 1 << 20));
        let cas = Arc::new(ContentStore::new(1 << 20));
        let mul = seed | 1;
        let golden: Vec<u8> = (0..len as u64).map(|i| (i.wrapping_mul(mul) >> 7) as u8).collect();
        sim.spawn("ops", move |env| {
            let key = FileKey { fileid: 1, generation: 1 };
            let recipe: Vec<(Digest, u32)> = golden
                .chunks(512)
                .map(|c| (cas.insert_pinned(c), c.len() as u32))
                .collect();
            cache.install_reference(&env, key, cas.clone(), 512, recipe, 0);
            let mut model = golden.clone();
            for (step, (op, off, n, byte)) in ops.into_iter().enumerate() {
                if step == ask_synced_at {
                    assert_eq!(cache.synced_digest(key), Some(gvfs::digest::digest(&golden)));
                }
                match op {
                    0 | 1 => {
                        let (data, eof) = cache.read(&env, key, off as u64, n as u32).unwrap();
                        let end = (off + n).min(len);
                        assert_eq!(data, &model[off.min(len)..end], "read {off}+{n}");
                        assert_eq!(eof, off + data.len() >= len);
                    }
                    2 => {
                        // In bounds: the entry stays a reference.
                        let off = off % len;
                        let bytes = vec![byte; n.min(len - off)];
                        assert!(cache.write(&env, key, off as u64, &bytes));
                        model[off..off + bytes.len()].copy_from_slice(&bytes);
                    }
                    3 => {
                        match cache.take_dirty(&env, key, true) {
                            Some(gvfs::DirtyFile::Diverged { total, ranges, full_digest }) => {
                                assert_eq!(total, len as u64);
                                assert_eq!(full_digest, gvfs::digest::digest(&model));
                                for (at, bytes) in ranges {
                                    let at = at as usize;
                                    assert_eq!(bytes, &model[at..at + bytes.len()]);
                                }
                            }
                            Some(gvfs::DirtyFile::Whole(_)) => {
                                panic!("an in-bounds write must leave a chunk set")
                            }
                            None => {}
                        }
                    }
                    _ => unreachable!(),
                }
                assert!(cache.is_reference(key));
                cache.validate_accounting();
            }
            assert_eq!(cache.read(&env, key, 0, len as u32).unwrap().0, model);
        });
        sim.run();
    }

    /// MetaFile serialization round-trips for arbitrary zero maps.
    #[test]
    fn meta_file_round_trips(
        file_size in 0u64..1 << 40,
        nblocks in 0u64..5_000,
        zeros in proptest::collection::vec(any::<u64>(), 0..200),
        compress in any::<bool>(),
        writeback in any::<bool>(),
        with_channel in any::<bool>(),
        with_map in any::<bool>(),
        with_cmap in any::<bool>(),
        cmap_recs in proptest::collection::vec(
            (any::<u64>(), any::<u64>(), 0u32..1 << 21),
            0..60,
        ),
    ) {
        let zero_map = if with_map {
            let mut zm = ZeroMap::new(32 * 1024, nblocks);
            for z in &zeros {
                if nblocks > 0 {
                    zm.set_zero(z % nblocks);
                }
            }
            Some(zm)
        } else {
            None
        };
        let content_map = with_cmap.then(|| {
            let records: Vec<(Digest, u32)> = cmap_recs
                .iter()
                .map(|&(a, b, l)| (Digest(a, b), l))
                .collect();
            ContentMap {
                chunk_bytes: 1 << 20,
                total: records.iter().map(|(_, l)| *l as u64).sum(),
                records,
            }
        });
        let m = MetaFile {
            file_size,
            zero_map,
            channel: with_channel.then_some(FileChannelSpec { compress, writeback }),
            content_map,
        };
        prop_assert_eq!(MetaFile::from_bytes(&m.to_bytes()), Some(m));
    }

    /// Arbitrary bytes never panic the meta parser.
    #[test]
    fn meta_parser_never_panics(data in proptest::collection::vec(any::<u8>(), 0..600)) {
        let _ = MetaFile::from_bytes(&data);
    }

    /// A zero map's range query agrees with per-block queries.
    #[test]
    fn zero_map_range_agrees_with_blocks(
        nblocks in 1u64..400,
        zeros in proptest::collection::vec(any::<u64>(), 0..100),
        start in 0u64..500,
        len in 0u32..20_000,
    ) {
        let bs = 128u32;
        let mut zm = ZeroMap::new(bs, nblocks);
        for z in &zeros {
            zm.set_zero(z % nblocks);
        }
        let offset = start * 7;
        let range = zm.range_is_zero(offset, len);
        let blockwise = if len == 0 {
            true
        } else {
            let first = offset / bs as u64;
            let last = (offset + len as u64 - 1) / bs as u64;
            (first..=last).all(|b| zm.is_zero(b))
        };
        prop_assert_eq!(range, blockwise);
    }
}

/// `(byte, n, literal)` pieces laid end to end: `n` copies of `byte`
/// (a run record once long enough) or `n` run-free bytes seeded by it.
fn runs_and_literals(pieces: &[(u8, usize, bool)]) -> Vec<u8> {
    let mut data = Vec::new();
    for &(b, n, literal) in pieces {
        if literal {
            let mut x = u32::from(b) | 0x100;
            data.extend((0..n).map(|_| {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                (x >> 24) as u8
            }));
        } else {
            data.extend(std::iter::repeat_n(b, n));
        }
    }
    data
}
