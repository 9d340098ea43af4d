//! The READ-result and WRITE-argument decoders hand out views of the
//! message they read instead of copies. These tests check that "by
//! reference" is what happens — the payload lies inside the buffer that
//! was decoded — and that nothing else changed with it: against the
//! owned decoders they replaced (kept here as the reference, on
//! `Decoder::get_opaque_var`), the by-reference ones accept and reject
//! exactly the same bytes — truncations, non-zero padding, over-limit
//! lengths, ranges past the maximum file size — and decode the same
//! values. The one deliberate difference is modelled in the reference: a
//! READ3res whose `count` disagrees with its data no longer decodes.
//!
//! A READ reply encoded from one pooled block also carries that block,
//! host side, as its attachment. The last properties check when it
//! does — exactly for a whole allocation or one block of zeros — that
//! the attachment equals the data it stands for, and that it survives a
//! relay that forwards the results it decoded.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use nfs3::args::WriteArgs;
use nfs3::proto::{Fh3, PostOpAttr, StableHow, Status, MAX_FILE_SIZE};
use nfs3::results::{decode_read, encode_read};
use oncrpc::{AcceptStat, ReplyBody, RpcMessage};
use proptest::prelude::*;
use std::rc::Rc;
use vfs::{Attr, FileType, Handle, Payload, PayloadRef, SharedBytes, CHUNK_SIZE};
use xdr::{Bytes, Decode, Decoder, Encode};

fn attr() -> Attr {
    Attr {
        ftype: FileType::Regular,
        mode: 0o644,
        nlink: 1,
        uid: 500,
        gid: 500,
        size: 1 << 20,
        used: 1 << 20,
        fileid: 42,
        atime_ns: 1,
        mtime_ns: 2,
        ctime_ns: 3,
    }
}

fn fh() -> Fh3 {
    Fh3(Handle {
        fileid: 9,
        generation: 1,
    })
}

/// READ3res as the owned decoder read it, plus the `count` check.
fn owned_read(results: &[u8]) -> Option<(Option<Attr>, Vec<u8>, bool)> {
    let mut dec = Decoder::new(results);
    if Status::from_u32(dec.get_u32().ok()?).ok()? != Status::Ok {
        return None;
    }
    let attr = PostOpAttr::decode(&mut dec).ok()?.0;
    let count = dec.get_u32().ok()?;
    let eof = dec.get_bool().ok()?;
    let data = dec.get_opaque_var().ok()?;
    (count as usize == data.len()).then_some((attr, data, eof))
}

/// WRITE3args as the owned decoder (and `xdr::from_bytes`) read them.
fn owned_write(args: &[u8]) -> Option<(Fh3, u64, u32, StableHow, Vec<u8>)> {
    let mut dec = Decoder::new(args);
    let file = Fh3::decode(&mut dec).ok()?;
    let offset = dec.get_u64().ok()?;
    let count = dec.get_u32().ok()?;
    let stable = StableHow::from_u32(dec.get_u32().ok()?).ok()?;
    let data = dec.get_opaque_var().ok()?;
    let end = offset.checked_add(count.max(data.len() as u32) as u64)?;
    (end <= MAX_FILE_SIZE && dec.finish().is_ok()).then_some((file, offset, count, stable, data))
}

/// Spoil a message in one of four ways picked by `kind`: leave it alone,
/// cut it short at `at`, overwrite one byte with `v`, or overwrite one
/// 32-bit word — a length, a count, an offset half, a discriminant, the
/// padding — with an awkward value or with `v`.
fn spoil(mut wire: Vec<u8>, (kind, at, v): (u8, usize, u32)) -> Vec<u8> {
    const AWKWARD: [u32; 6] = [0, 1, 3, u32::MAX, 0x7FFF_FFFF, 64 * 1024 * 1024 + 1];
    let words = wire.len() / 4;
    match kind {
        1 => wire.truncate(at.min(wire.len())),
        2 if !wire.is_empty() => {
            let at = wire.len() - 1 - at % wire.len();
            wire[at] = v as u8;
        }
        3 if words > 0 => {
            // Counted from the end for odd `at`, so the words around the
            // payload are hit as often as the header's.
            let w = (at / 2) % words;
            let w = if at % 2 == 0 { w } else { words - 1 - w };
            let v = AWKWARD.get(v as usize % 7).copied().unwrap_or(v);
            wire[w * 4..w * 4 + 4].copy_from_slice(&v.to_be_bytes());
        }
        _ => {}
    }
    wire
}

fn lies_inside(inner: &[u8], outer: &[u8]) -> bool {
    inner.is_empty() || outer.as_ptr_range().contains(&inner.as_ptr())
}

#[test]
fn read_data_is_a_view_of_the_reply_it_came_in() {
    let payload: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
    let reply = encode_read(Some(attr()), &payload, false);
    let res = decode_read(&reply).unwrap();
    assert_eq!(res.data, payload);
    assert!(lies_inside(&res.data, &reply));
    // 4 (status) + 88 (attributes) + 12 (count, eof, length).
    assert_eq!(res.data.as_ptr(), reply[104..].as_ptr());
}

#[test]
fn a_read_reply_whose_count_disagrees_with_its_data_does_not_decode() {
    let mut reply = encode_read(None, &[7u8; 64], true).to_vec();
    // status, post_op_attr (absent), then count.
    reply[8..12].copy_from_slice(&32u32.to_be_bytes());
    assert!(decode_read(&Bytes::from_vec(reply)).is_err());
}

#[test]
fn a_write_at_the_top_of_the_offset_space_does_not_decode() {
    let wire = xdr::to_bytes(&WriteArgs {
        file: fh(),
        offset: u64::MAX - 10,
        count: 32,
        stable: StableHow::Unstable,
        data: &[7u8; 32],
    });
    assert!(xdr::from_bytes::<WriteArgs>(&wire).is_err());
    assert!(owned_write(&wire).is_none());
}

proptest! {
    #[test]
    fn read_results_decode_by_reference_exactly_as_they_did_owned(
        len in 0usize..100,
        with_attr in any::<bool>(),
        eof in any::<bool>(),
        damage in (0u8..4, 0usize..200, any::<u32>()),
    ) {
        let payload: Vec<u8> = (0..len).map(|i| (i * 7 + 1) as u8).collect();
        let wire = encode_read(with_attr.then(attr), &payload, eof).to_vec();
        let wire = Bytes::from_vec(spoil(wire, damage));
        match (decode_read(&wire), owned_read(&wire)) {
            (Ok(res), Some((attr, data, eof))) => {
                prop_assert_eq!(res.attr, attr);
                prop_assert_eq!(&res.data[..], &data[..]);
                prop_assert_eq!(res.eof, eof);
                prop_assert!(lies_inside(&res.data, &wire));
            }
            (Err(_), None) => {}
            (by_ref, owned) => prop_assert!(false, "by reference {by_ref:?}, owned {owned:?}"),
        }
    }

    #[test]
    fn write_args_decode_by_reference_exactly_as_they_did_owned(
        len in 0usize..100,
        near_top in any::<bool>(),
        back in 0u64..200,
        damage in (0u8..4, 0usize..200, any::<u32>()),
    ) {
        let payload: Vec<u8> = (0..len).map(|i| (i * 5 + 3) as u8).collect();
        let offset = if near_top { MAX_FILE_SIZE - back } else { back * 4096 };
        let wire = xdr::to_bytes(&WriteArgs {
            file: fh(),
            offset,
            count: len as u32,
            stable: StableHow::Unstable,
            data: &payload,
        });
        let wire = spoil(wire, damage);
        match (xdr::from_bytes::<WriteArgs>(&wire), owned_write(&wire)) {
            (Ok(a), Some((file, offset, count, stable, data))) => {
                prop_assert_eq!(a.file, file);
                prop_assert_eq!((a.offset, a.count, a.stable), (offset, count, stable));
                prop_assert_eq!(a.data, &data[..]);
                prop_assert!(lies_inside(a.data, &wire));
                // What decodes also re-encodes to the bytes it came from.
                let mut enc = xdr::Encoder::new();
                a.encode(&mut enc);
                prop_assert_eq!(enc.as_bytes(), &wire[..]);
            }
            (Err(_), None) => {}
            (by_ref, owned) => prop_assert!(false, "by reference {by_ref:?}, owned {owned:?}"),
        }
    }
}

/// A payload of one of six shapes, `n` bytes long (at least 2), and the
/// allocation a reply encoded from it should carry: a whole piece, a
/// piece of the zero block, a sub-range of a piece, two pieces, a zero
/// run, and a plain slice (`bytes`, kept by the caller).
fn shaped(shape: u8, n: usize, bytes: &[u8]) -> (Option<Payload>, Option<SharedBytes>) {
    let piece: SharedBytes = Rc::new(bytes[..n].to_vec());
    let mut p = Payload::new();
    let carried = match shape {
        0 => {
            p.push_shared(Rc::clone(&piece), 0..n);
            Some(piece)
        }
        1 => {
            let zero = vfs::zero_block();
            p.push_shared(Rc::clone(&zero), 0..CHUNK_SIZE);
            Some(zero)
        }
        2 => {
            let wider: SharedBytes = Rc::new(bytes.to_vec());
            p.push_shared(wider, 1..n);
            None
        }
        3 => {
            p.push_shared(Rc::clone(&piece), 0..n / 2);
            p.push_shared(piece, n / 2..n);
            None
        }
        4 => {
            p.push_zeros(n);
            (n == CHUNK_SIZE).then(vfs::zero_block)
        }
        _ => return (None, None),
    };
    (Some(p), carried)
}

/// The results of a successful reply message.
fn results_of(wire: &Bytes) -> Bytes {
    match RpcMessage::decode_shared(wire).unwrap() {
        RpcMessage::Reply {
            body:
                ReplyBody::Accepted {
                    stat: AcceptStat::Success,
                    results,
                    ..
                },
            ..
        } => results,
        other => panic!("not a successful reply: {other:?}"),
    }
}

proptest! {
    #[test]
    fn a_read_reply_carries_exactly_the_one_block_it_was_encoded_from(
        shape in 0u8..6,
        one_block in any::<bool>(),
        len in 2usize..3000,
        eof in any::<bool>(),
    ) {
        let n = if one_block { CHUNK_SIZE } else { len };
        let bytes: Vec<u8> = (0..=n).map(|i| (i * 13 + 5) as u8).collect();
        let (payload, carried) = shaped(shape, n, &bytes);
        let data = match &payload {
            Some(p) => PayloadRef::from(p),
            None => PayloadRef::from(&bytes[..n]),
        };
        let reply = encode_read(Some(attr()), data, eof);
        let res = decode_read(&reply).unwrap();
        let mut want = Vec::new();
        data.extend_vec(0..data.len(), &mut want);
        prop_assert_eq!(&res.data[..], &want[..]);
        match (res.data.attached(), &carried) {
            (Some(got), Some(block)) => {
                prop_assert!(Rc::ptr_eq(got, block), "shape {shape}: another allocation");
                prop_assert_eq!(&got[..], &res.data[..]);
            }
            (None, None) => {}
            (got, _) => prop_assert!(false, "shape {shape}, {n} bytes: attached {:?}", got.is_some()),
        }
        // Through a relay: the server's reply on the wire, its results
        // forwarded under the relay's xid — in place, or copied when the
        // relay still holds the message — and decoded at the client.
        for relay_keeps_it in [false, true] {
            let upstream = RpcMessage::success(7, reply.clone()).into_wire();
            let results = results_of(&upstream);
            let kept = relay_keeps_it.then(|| results.clone());
            drop(upstream);
            let downstream = RpcMessage::success(8, results).into_wire();
            let res = decode_read(&results_of(&downstream)).unwrap();
            prop_assert_eq!(&res.data[..], &want[..]);
            match (res.data.attached(), &carried) {
                (Some(got), Some(block)) => {
                    prop_assert!(Rc::ptr_eq(got, block));
                    prop_assert_eq!(&got[..], &res.data[..]);
                }
                (None, None) => {}
                _ => prop_assert!(false, "the relay changed what the reply carries"),
            }
            drop(kept);
        }
    }
}
