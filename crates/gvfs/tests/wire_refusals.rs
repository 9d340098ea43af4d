//! Every typed wire message refuses damage cleanly. One generic check,
//! [`refuses_damage`], runs over every channel, gossip and meta message,
//! the NFS arguments the proxy decodes and the two batch envelopes: the
//! value round-trips, every strict prefix of its encoding is an `Err`
//! (not a panic and not a shorter value), and one appended word is
//! `TrailingBytes`. One property per message type then splices random
//! bytes onto a prefix of a valid encoding and decodes the result, which
//! may fail but must not panic.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::fmt::Debug;

use gvfs::channel::{
    BlobArgs, ChanStatus, ChunkArgs, ChunkBody, RecipeArgs, Reply, UploadArgs, WirePayload,
};
use gvfs::meta::{ContentMap, FileChannelSpec, MetaFile, ZeroMap};
use gvfs::{Digest, GossipDigests, MAX_GOSSIP_DIGESTS};
use nfs3::args::{
    CommitArgs, CreateArgs, ReadArgs, ReaddirArgs, RenameArgs, SetattrArgs, SymlinkArgs, WriteArgs,
};
use nfs3::proto::{DirOpArgs3, Fh3, Sattr3, StableHow};
use oncrpc::batch::{decode_batch, decode_batch_reply, encode_batch, encode_batch_reply};
use oncrpc::{BatchItem, BatchReplyItem, BATCH_ITEM_FAILED, BATCH_OK};
use proptest::collection::vec;
use proptest::prelude::*;
use vfs::Handle;
use xdr::{Decode, Encode, Error};

/// Check that `wire`, the encoding of `v`, decodes back to `v`; that
/// every strict prefix of it is refused; and that it is refused with one
/// more word on the end. Decoded values may borrow from the bytes they
/// came from, so the bytes are leaked to live as long as any `T`.
fn refuses_damage_with<T: PartialEq + Debug>(
    v: &T,
    wire: Vec<u8>,
    decode: impl Fn(&'static [u8]) -> xdr::Result<T>,
) {
    let wire: &'static [u8] = wire.leak();
    assert_eq!(decode(wire).as_ref(), Ok(v), "round trip");
    for cut in 0..wire.len() {
        assert!(
            decode(&wire[..cut]).is_err(),
            "{v:?} decoded from its first {cut} of {} bytes",
            wire.len()
        );
    }
    let longer: &'static [u8] = [wire, &[0; 4]].concat().leak();
    assert_eq!(
        decode(longer),
        Err(Error::TrailingBytes { remaining: 4 }),
        "{v:?} with a word appended"
    );
}

/// [`refuses_damage_with`] through the type's own `xdr::{Encode, Decode}`.
fn refuses_damage<T: Encode + Decode<'static> + PartialEq + Debug>(v: &T) {
    refuses_damage_with(v, xdr::to_bytes(v), xdr::from_bytes);
}

fn fh(fileid: u64) -> Fh3 {
    Fh3(Handle {
        fileid,
        generation: 3,
    })
}

const D: Digest = Digest(0x0123_4567_89AB_CDEF, 0xFEDC_BA98_7654_3210);

fn payload(data: &'static [u8]) -> WirePayload<'static> {
    WirePayload {
        len: 4 * data.len() as u64,
        compressed: true,
        data,
    }
}

fn recipe() -> ContentMap {
    ContentMap {
        chunk_bytes: 1 << 20,
        total: (2 << 20) + 5,
        records: vec![(D, 1 << 20), (Digest(1, 2), 1 << 20), (D, 5)],
    }
}

fn whereto(name: &str) -> DirOpArgs3 {
    DirOpArgs3 {
        dir: fh(1),
        name: name.into(),
    }
}

#[test]
fn channel_and_gossip_messages_refuse_damage() {
    refuses_damage(&ChunkArgs {
        file: fh(9),
        offset: 1 << 33,
        count: 1 << 20,
    });
    refuses_damage(&RecipeArgs {
        file: fh(9),
        chunk_bytes: 1 << 20,
    });
    refuses_damage(&BlobArgs {
        file: fh(9),
        offset: 3 << 20,
        len: 1 << 20,
        want: D,
    });
    for (compressed, payload) in [(true, &b"packed!"[..]), (false, &[][..])] {
        refuses_damage(&UploadArgs {
            file: fh(9),
            offset: 1 << 20,
            total: 5 << 20,
            compressed,
            payload,
        });
    }
    for digests in [vec![], vec![D, Digest(7, 7)]] {
        refuses_damage(&GossipDigests { sender: 4, digests });
    }
    for status in [
        ChanStatus::Ok,
        ChanStatus::NoEnt,
        ChanStatus::Stale,
        ChanStatus::BadStream,
    ] {
        refuses_damage(&status);
    }
    refuses_damage(&D);
    refuses_damage(&recipe());
    refuses_damage::<Reply<ContentMap>>(&Reply(Ok(recipe())));
    refuses_damage::<Reply<ContentMap>>(&Reply(Err(ChanStatus::NoEnt)));
    refuses_damage::<Reply<ChunkBody>>(&Reply(Ok(ChunkBody {
        total: 77,
        payload: payload(b"abc"),
    })));
    refuses_damage::<Reply<ChunkBody>>(&Reply(Err(ChanStatus::Stale)));
    refuses_damage(&Reply(Ok(payload(b"four"))));
    refuses_damage::<Reply<WirePayload>>(&Reply(Err(ChanStatus::BadStream)));
}

#[test]
fn nfs_arguments_refuse_damage() {
    refuses_damage(&ReadArgs {
        file: fh(2),
        offset: 1 << 30,
        count: 32768,
    });
    refuses_damage(&WriteArgs {
        file: fh(2),
        offset: 4096,
        count: 5,
        stable: StableHow::Unstable,
        data: b"hello",
    });
    let attrs = Sattr3 {
        mode: Some(0o644),
        size: Some(1 << 20),
    };
    refuses_damage(&SetattrArgs { file: fh(2), attrs });
    refuses_damage(&CreateArgs {
        whereto: whereto("new.vmss"),
        attrs,
    });
    refuses_damage(&SymlinkArgs {
        whereto: whereto("disk.vmdk"),
        attrs: Sattr3::default(),
        target: "/exports/golden/disk.vmdk".into(),
    });
    refuses_damage(&RenameArgs {
        from: whereto("a"),
        to: whereto("bcdef"),
    });
    refuses_damage(&ReaddirArgs {
        dir: fh(1),
        cookie: 7,
        cookieverf: 9,
        count: 4096,
    });
    refuses_damage(&CommitArgs {
        file: fh(2),
        offset: 0,
        count: 0,
    });
    refuses_damage(&whereto("vm.vmx"));
}

#[test]
fn batch_envelopes_refuse_damage() {
    let items = vec![
        BatchItem {
            proc: 6,
            args: vec![1, 2, 3],
        },
        BatchItem {
            proc: 3,
            args: vec![],
        },
    ];
    refuses_damage(&items[0]);
    refuses_damage_with(&items, encode_batch(&items), decode_batch);
    let replies = vec![
        BatchReplyItem {
            stat: BATCH_OK,
            result: vec![9; 5],
        },
        BatchReplyItem {
            stat: BATCH_ITEM_FAILED,
            result: vec![],
        },
    ];
    refuses_damage(&replies[0]);
    refuses_damage_with(&replies, encode_batch_reply(&replies), decode_batch_reply);
}

#[test]
fn meta_files_refuse_damage() {
    let mut zero_map = ZeroMap::new(32768, 100);
    zero_map.set_zero(7);
    let full = MetaFile {
        file_size: (2 << 20) + 5,
        zero_map: Some(zero_map),
        channel: Some(FileChannelSpec {
            compress: true,
            writeback: false,
        }),
        content_map: Some(recipe()),
    };
    let bare = MetaFile {
        file_size: 0,
        zero_map: None,
        channel: None,
        content_map: None,
    };
    for meta in [full, bare] {
        refuses_damage_with(&meta, meta.to_bytes(), MetaFile::from_bytes);
    }
}

#[test]
fn refusals_say_why() {
    let word = |w: u32| w.to_be_bytes().to_vec();
    assert_eq!(
        xdr::from_bytes::<ChanStatus>(&word(1)),
        Err(Error::InvalidDiscriminant(1))
    );
    let too_many = [word(4), word(MAX_GOSSIP_DIGESTS as u32 + 1)].concat();
    assert_eq!(
        xdr::from_bytes::<GossipDigests>(&too_many),
        Err(Error::LengthOverLimit {
            declared: MAX_GOSSIP_DIGESTS as u32 + 1,
            limit: MAX_GOSSIP_DIGESTS as u32,
        })
    );
    let mut no_chunks = recipe();
    no_chunks.chunk_bytes = 0;
    assert_eq!(
        xdr::from_bytes::<ContentMap>(&xdr::to_bytes(&no_chunks)),
        Err(Error::OutOfRange("chunk_bytes"))
    );
    // A recipe count the decoder will not allocate for: total, chunk
    // size, then a hyper count of 2^32 records with none behind it.
    let huge = [word(0), word(0), word(1 << 20), word(1), word(0)].concat();
    assert!(matches!(
        xdr::from_bytes::<ContentMap>(&huge),
        Err(Error::LengthOverLimit { .. })
    ));
}

/// One property per message type: random bytes spliced onto a random
/// prefix of `$sample`'s encoding never panic `$ty`'s decoder.
macro_rules! never_panics {
    ($($name:ident: $ty:ty = $sample:expr;)+) => {
        proptest! {
            $(
                #[test]
                fn $name(cut in any::<u16>(), noise in vec(any::<u8>(), 0..96)) {
                    let mut wire = xdr::to_bytes(&$sample);
                    wire.truncate(cut as usize % (wire.len() + 1));
                    wire.extend(noise);
                    let _ = xdr::from_bytes::<$ty>(&wire);
                }
            )+
        }
    };
}

never_panics! {
    chunk_args_never_panic: ChunkArgs = ChunkArgs { file: fh(1), offset: 2, count: 3 };
    recipe_args_never_panic: RecipeArgs = RecipeArgs { file: fh(1), chunk_bytes: 2 };
    blob_args_never_panic: BlobArgs = BlobArgs { file: fh(1), offset: 2, len: 3, want: D };
    upload_args_never_panic: UploadArgs = UploadArgs {
        file: fh(1),
        offset: 2,
        total: 3,
        compressed: true,
        payload: b"xyz",
    };
    gossip_never_panics: GossipDigests = GossipDigests { sender: 1, digests: vec![D, D] };
    status_never_panics: ChanStatus = ChanStatus::Stale;
    digest_never_panics: Digest = D;
    recipe_never_panics: ContentMap = recipe();
    recipe_reply_never_panics: Reply<ContentMap> = Reply(Ok(recipe()));
    chunk_reply_never_panics: Reply<ChunkBody> = Reply(Ok(ChunkBody { total: 9, payload: payload(b"ab") }));
    blob_reply_never_panics: Reply<WirePayload> = Reply(Ok(payload(b"abc")));
    read_args_never_panic: ReadArgs = ReadArgs { file: fh(1), offset: 2, count: 3 };
    write_args_never_panic: WriteArgs = WriteArgs {
        file: fh(1),
        offset: 2,
        count: 3,
        stable: StableHow::FileSync,
        data: b"abc",
    };
    setattr_args_never_panic: SetattrArgs = SetattrArgs {
        file: fh(1),
        attrs: Sattr3 { mode: Some(0o600), size: None },
    };
    create_args_never_panic: CreateArgs = CreateArgs {
        whereto: whereto("f"),
        attrs: Sattr3::default(),
    };
    symlink_args_never_panic: SymlinkArgs = SymlinkArgs {
        whereto: whereto("l"),
        attrs: Sattr3::default(),
        target: "t".into(),
    };
    rename_args_never_panic: RenameArgs = RenameArgs { from: whereto("a"), to: whereto("b") };
    readdir_args_never_panic: ReaddirArgs = ReaddirArgs {
        dir: fh(1),
        cookie: 2,
        cookieverf: 3,
        count: 4,
    };
    commit_args_never_panic: CommitArgs = CommitArgs { file: fh(1), offset: 2, count: 3 };
    dirop_args_never_panic: DirOpArgs3 = whereto("d");
    batch_item_never_panics: BatchItem = BatchItem { proc: 6, args: vec![1, 2] };
    batch_reply_item_never_panics: BatchReplyItem = BatchReplyItem {
        stat: BATCH_OK,
        result: vec![3],
    };
}

proptest! {
    /// The two batch envelopes and the meta file, whose codecs are
    /// functions of whole messages, under the same splicing.
    #[test]
    fn envelopes_and_meta_files_never_panic(cut in any::<u16>(), noise in vec(any::<u8>(), 0..96)) {
        let items = vec![BatchItem { proc: 6, args: vec![1] }];
        let replies = vec![BatchReplyItem { stat: BATCH_OK, result: vec![2] }];
        let meta = MetaFile {
            file_size: 5,
            zero_map: Some(ZeroMap::new(4096, 3)),
            channel: None,
            content_map: Some(recipe()),
        };
        let splice = |mut wire: Vec<u8>| {
            wire.truncate(cut as usize % (wire.len() + 1));
            wire.extend(&noise);
            wire
        };
        let _ = decode_batch(&splice(encode_batch(&items)));
        let _ = decode_batch_reply(&splice(encode_batch_reply(&replies)));
        let _ = MetaFile::from_bytes(&splice(meta.to_bytes()));
    }
}
