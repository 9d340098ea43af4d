//! The result halves of the procedures the GVFS proxy understands — the
//! one place a READ3res, WRITE3res, COMMIT3res, GETATTR3res or LOOKUP3res
//! body is written or read. The server encodes its replies with these,
//! the client stub decodes them, and the proxy — which answers READ,
//! WRITE, COMMIT and GETATTR locally when its caches allow and peeks into
//! the replies it forwards — does both.
//!
//! Every result is `status | arm`: the success arm per procedure, and one
//! of two failure arms (`post_op_attr` for the read-side procedures,
//! `wcc_data` for the mutating ones; GETATTR's is void).
//!
//! Results are encoded behind room for the RPC reply header
//! ([`REPLY_HEADROOM`]), so the message that carries them is completed in
//! place, and a READ payload is decoded as a view of the reply it came
//! in: one copy on the sending side, none on the receiving side.

use oncrpc::msg::REPLY_HEADROOM;
use vfs::{Attr, Handle};
use xdr::{Bytes, Decode, Decoder, Encode, Encoder};

use crate::client::{NfsError, NfsResult};
use crate::proto::{Fattr3, Fh3, PostOpAttr, ReadRes, StableHow, Status, WccData, WriteRes};

/// Start a result with its status word.
pub(crate) fn header(status: Status) -> Encoder {
    // Room for any result without a payload: two sets of attributes.
    sized_header(status, 256)
}

/// [`header`], with capacity for `room` more bytes.
fn sized_header(status: Status, room: usize) -> Encoder {
    let mut enc = Encoder::with_headroom(REPLY_HEADROOM, 4 + room);
    enc.put_u32(status.as_u32());
    enc
}

/// Read a result's status word: the decoder positioned at the success
/// arm, or the server's failure status.
pub(crate) fn open(results: &[u8]) -> NfsResult<Decoder<'_>> {
    let mut dec = Decoder::new(results);
    match Status::from_u32(dec.get_u32()?)? {
        Status::Ok => Ok(dec),
        s => Err(NfsError::Status(s)),
    }
}

/// A result that is only its status (GETATTR's failure arm).
pub fn encode_status(status: Status) -> Bytes {
    header(status).into_shared()
}

/// `status | post_op_attr`: the failure arm of READ, LOOKUP and the other
/// read-side procedures.
pub fn encode_fail_postop(status: Status, attr: Option<Attr>) -> Bytes {
    let mut enc = header(status);
    PostOpAttr(attr).encode(&mut enc);
    enc.into_shared()
}

/// `status | wcc_data`: the failure arm of WRITE, COMMIT and the other
/// mutating procedures.
pub fn encode_fail_wcc(status: Status, attr: Option<Attr>) -> Bytes {
    let mut enc = header(status);
    WccData(attr).encode(&mut enc);
    enc.into_shared()
}

/// GETATTR3resok.
pub fn encode_getattr(attr: Attr) -> Bytes {
    let mut enc = header(Status::Ok);
    Fattr3(attr).encode(&mut enc);
    enc.into_shared()
}

/// Decode GETATTR3res.
pub fn decode_getattr(results: &[u8]) -> NfsResult<Attr> {
    Ok(Fattr3::decode(&mut open(results)?)?.0)
}

/// LOOKUP3resok: the object's handle and attributes, then the
/// directory's.
pub fn encode_lookup(obj: Handle, obj_attr: Option<Attr>, dir_attr: Option<Attr>) -> Bytes {
    let mut enc = header(Status::Ok);
    Fh3(obj).encode(&mut enc);
    PostOpAttr(obj_attr).encode(&mut enc);
    PostOpAttr(dir_attr).encode(&mut enc);
    enc.into_shared()
}

/// Decode LOOKUP3res into the object's handle and attributes.
pub fn decode_lookup(results: &[u8]) -> NfsResult<(Handle, Option<Attr>)> {
    let mut dec = open(results)?;
    let fh = Fh3::decode(&mut dec)?;
    Ok((fh.0, PostOpAttr::decode(&mut dec)?.0))
}

/// READ3resok (decoded as a [`ReadRes`]): the one copy `data` gets on
/// its way out, into a buffer sized for it.
pub fn encode_read(attr: Option<Attr>, data: &[u8], eof: bool) -> Bytes {
    // post_op_attr, count, eof and the length word precede the payload.
    let mut enc = sized_header(Status::Ok, 88 + 12 + xdr::padded(data.len()));
    PostOpAttr(attr).encode(&mut enc);
    enc.put_u32(data.len() as u32);
    enc.put_bool(eof);
    enc.put_opaque_var(data);
    enc.into_shared()
}

/// Decode READ3res; the data is a view of `results`, not a copy. A
/// reply whose `count` disagrees with the length of its data does not
/// decode.
pub fn decode_read(results: &Bytes) -> NfsResult<ReadRes> {
    let mut dec = open(results)?;
    let attr = PostOpAttr::decode(&mut dec)?.0;
    let count = dec.get_u32()?;
    let eof = dec.get_bool()?;
    let data = dec.get_opaque_var_ref()?;
    if data.len() != count as usize {
        return Err(NfsError::Decode(xdr::Error::LengthOverLimit {
            declared: data.len() as u32,
            limit: count,
        }));
    }
    let data = results.slice_ref(data);
    Ok(ReadRes { attr, data, eof })
}

/// WRITE3resok (decoded as a [`WriteRes`]).
pub fn encode_write(attr: Option<Attr>, count: u32, committed: StableHow, verf: u64) -> Bytes {
    let mut enc = header(Status::Ok);
    WccData(attr).encode(&mut enc);
    enc.put_u32(count);
    enc.put_u32(committed.as_u32());
    enc.put_u64(verf);
    enc.into_shared()
}

/// Decode WRITE3res.
pub fn decode_write(results: &[u8]) -> NfsResult<WriteRes> {
    let mut dec = open(results)?;
    Ok(WriteRes {
        attr: WccData::decode(&mut dec)?.0,
        count: dec.get_u32()?,
        committed: StableHow::from_u32(dec.get_u32()?)?,
        verf: dec.get_u64()?,
    })
}

/// COMMIT3resok.
pub fn encode_commit(attr: Option<Attr>, verf: u64) -> Bytes {
    let mut enc = header(Status::Ok);
    WccData(attr).encode(&mut enc);
    enc.put_u64(verf);
    enc.into_shared()
}

/// Decode COMMIT3res into the write verifier.
pub fn decode_commit(results: &[u8]) -> NfsResult<u64> {
    let mut dec = open(results)?;
    let _wcc = WccData::decode(&mut dec)?;
    Ok(dec.get_u64()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfs::FileType;

    fn attr() -> Attr {
        Attr {
            ftype: FileType::Regular,
            mode: 0o644,
            nlink: 1,
            uid: 500,
            gid: 500,
            size: 4096,
            used: 4096,
            fileid: 42,
            atime_ns: 1_500_000_123,
            mtime_ns: 2_000_000_456,
            ctime_ns: 3_000_000_789,
        }
    }

    #[test]
    fn success_arms_round_trip() {
        let read = ReadRes {
            attr: Some(attr()),
            data: b"payload".into(),
            eof: true,
        };
        let wire = encode_read(read.attr.clone(), &read.data, read.eof);
        assert_eq!(decode_read(&wire).unwrap(), read);
        let write = WriteRes {
            attr: None,
            count: 7,
            committed: StableHow::FileSync,
            verf: 0xFEED,
        };
        let wire = encode_write(None, write.count, write.committed, write.verf);
        assert_eq!(decode_write(&wire).unwrap(), write);
        assert_eq!(decode_commit(&encode_commit(Some(attr()), 9)).unwrap(), 9);
        assert_eq!(decode_getattr(&encode_getattr(attr())).unwrap(), attr());
        let h = Handle {
            fileid: 7,
            generation: 3,
        };
        let looked_up = decode_lookup(&encode_lookup(h, Some(attr()), None)).unwrap();
        assert_eq!(looked_up, (h, Some(attr())));
    }

    #[test]
    fn failure_arms_decode_as_their_status() {
        let stale = NfsError::Status(Status::Stale);
        let postop = encode_fail_postop(Status::Stale, Some(attr()));
        assert_eq!(decode_read(&postop).unwrap_err(), stale);
        assert_eq!(decode_lookup(&postop).unwrap_err(), stale);
        let wcc = encode_fail_wcc(Status::Stale, None);
        assert_eq!(decode_write(&wcc).unwrap_err(), stale);
        assert_eq!(decode_commit(&wcc).unwrap_err(), stale);
        let void = encode_status(Status::Stale);
        assert_eq!(decode_getattr(&void).unwrap_err(), stale);
        let short = Bytes::from(&[0u8, 0]);
        assert!(matches!(decode_read(&short), Err(NfsError::Decode(_))));
    }
}
