//! Argument/result structs for the NFS procedures the GVFS proxy needs to
//! understand. The proxy decodes READ and WRITE calls to consult its block
//! cache, so these types are shared between server, client and proxy.

use crate::proto::{DirOpArgs3, Fh3, Sattr3, StableHow, MAX_FILE_SIZE};
use xdr::{Decode, Decoder, Encode, Encoder, Error as XdrError, Result as XdrResult};

/// Refuse a READ or WRITE range that ends past [`MAX_FILE_SIZE`] — which
/// includes every one whose `offset + count` would overflow. Checked
/// here, where the arguments are decoded, so the server, the proxy and
/// every later hop refuse the same calls the same way (an undecodable
/// call is `GARBAGE_ARGS`) and none of them computes with the sum first.
fn check_range(offset: u64, count: u32) -> XdrResult<()> {
    match offset.checked_add(count as u64) {
        Some(end) if end <= MAX_FILE_SIZE => Ok(()),
        _ => Err(XdrError::LengthOverLimit {
            declared: count,
            limit: MAX_FILE_SIZE.saturating_sub(offset).min(u32::MAX as u64) as u32,
        }),
    }
}

/// READ3 arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadArgs {
    /// File to read.
    pub file: Fh3,
    /// Byte offset.
    pub offset: u64,
    /// Byte count.
    pub count: u32,
}

impl Encode for ReadArgs {
    fn encode(&self, enc: &mut Encoder) {
        self.file.encode(enc);
        enc.put_u64(self.offset);
        enc.put_u32(self.count);
    }
}

impl Decode<'_> for ReadArgs {
    fn decode(dec: &mut Decoder<'_>) -> XdrResult<Self> {
        let a = ReadArgs {
            file: Fh3::decode(dec)?,
            offset: dec.get_u64()?,
            count: dec.get_u32()?,
        };
        check_range(a.offset, a.count)?;
        Ok(a)
    }
}

/// WRITE3 arguments, around a payload that is only borrowed: the sender
/// encodes it straight out of wherever it lives, and the receiver
/// decodes it as a slice of the call it arrived in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteArgs<'a> {
    /// File to write.
    pub file: Fh3,
    /// Byte offset.
    pub offset: u64,
    /// Byte count (== data.len()).
    pub count: u32,
    /// Requested stability.
    pub stable: StableHow,
    /// Payload.
    pub data: &'a [u8],
}

impl WriteArgs<'_> {
    /// Bytes of the encoded arguments in front of the payload: handle,
    /// offset, count, stability and the length word.
    pub const HEAD_LEN: usize = 20 + 20;
}

impl<'a> Decode<'a> for WriteArgs<'a> {
    fn decode(dec: &mut Decoder<'a>) -> XdrResult<Self> {
        let a = WriteArgs {
            file: Fh3::decode(dec)?,
            offset: dec.get_u64()?,
            count: dec.get_u32()?,
            stable: StableHow::from_u32(dec.get_u32()?)?,
            data: dec.get_opaque_var_ref()?,
        };
        check_range(a.offset, a.count.max(a.data.len() as u32))?;
        Ok(a)
    }
}

impl Encode for WriteArgs<'_> {
    fn encode(&self, enc: &mut Encoder) {
        self.file.encode(enc);
        enc.put_u64(self.offset);
        enc.put_u32(self.count);
        enc.put_u32(self.stable.as_u32());
        enc.put_opaque_var(self.data);
    }
}

/// SETATTR3 arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetattrArgs {
    /// Target file.
    pub file: Fh3,
    /// New attributes.
    pub attrs: Sattr3,
}

impl Encode for SetattrArgs {
    fn encode(&self, enc: &mut Encoder) {
        self.file.encode(enc);
        self.attrs.encode(enc);
        enc.put_bool(false); // guard: no ctime check
    }
}

impl Decode<'_> for SetattrArgs {
    fn decode(dec: &mut Decoder<'_>) -> XdrResult<Self> {
        let file = Fh3::decode(dec)?;
        let attrs = Sattr3::decode(dec)?;
        let has_guard = dec.get_bool()?;
        if has_guard {
            let _sec = dec.get_u32()?;
            let _nsec = dec.get_u32()?;
        }
        Ok(SetattrArgs { file, attrs })
    }
}

/// CREATE3 arguments (UNCHECKED mode only).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CreateArgs {
    /// Where and what to create.
    pub whereto: DirOpArgs3,
    /// Initial attributes.
    pub attrs: Sattr3,
}

impl Encode for CreateArgs {
    fn encode(&self, enc: &mut Encoder) {
        self.whereto.encode(enc);
        enc.put_u32(0); // UNCHECKED
        self.attrs.encode(enc);
    }
}

impl Decode<'_> for CreateArgs {
    fn decode(dec: &mut Decoder<'_>) -> XdrResult<Self> {
        let whereto = DirOpArgs3::decode(dec)?;
        let how = dec.get_u32()?;
        let attrs = match how {
            0 | 1 => Sattr3::decode(dec)?,
            2 => {
                let _verf = dec.get_u64()?;
                Sattr3::default()
            }
            other => return Err(xdr::Error::InvalidDiscriminant(other)),
        };
        Ok(CreateArgs { whereto, attrs })
    }
}

/// SYMLINK3 arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymlinkArgs {
    /// Where to create the link.
    pub whereto: DirOpArgs3,
    /// Link attributes.
    pub attrs: Sattr3,
    /// Link target path.
    pub target: String,
}

xdr::record! { SymlinkArgs { whereto, attrs, target } }

/// RENAME3 arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RenameArgs {
    /// Source.
    pub from: DirOpArgs3,
    /// Destination.
    pub to: DirOpArgs3,
}

xdr::record! { RenameArgs { from, to } }

/// READDIR3 arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReaddirArgs {
    /// Directory handle.
    pub dir: Fh3,
    /// Resume cookie (0 = from the start).
    pub cookie: u64,
    /// Cookie verifier.
    pub cookieverf: u64,
    /// Maximum reply size.
    pub count: u32,
}

xdr::record! { ReaddirArgs { dir, cookie, cookieverf, count } }

/// COMMIT3 arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitArgs {
    /// File whose unstable writes should be committed.
    pub file: Fh3,
    /// Range start (0 = whole file).
    pub offset: u64,
    /// Range length (0 = to EOF).
    pub count: u32,
}

xdr::record! { CommitArgs { file, offset, count } }

#[cfg(test)]
mod tests {
    use super::*;
    use vfs::Handle;

    fn fh(n: u64) -> Fh3 {
        Fh3(Handle {
            fileid: n,
            generation: 1,
        })
    }

    #[test]
    fn read_args_round_trip() {
        let a = ReadArgs {
            file: fh(3),
            offset: 1 << 30,
            count: 32768,
        };
        let back: ReadArgs = xdr::from_bytes(&xdr::to_bytes(&a)).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn ranges_past_the_maximum_file_size_do_not_decode() {
        let read = |offset, count| {
            xdr::from_bytes::<ReadArgs>(&xdr::to_bytes(&ReadArgs {
                file: fh(3),
                offset,
                count,
            }))
        };
        assert!(read(MAX_FILE_SIZE - 8, 8).is_ok());
        assert!(read(MAX_FILE_SIZE - 8, 9).is_err());
        assert!(read(u64::MAX - 10, 32).is_err());
        assert!(read(u64::MAX, 0).is_err());
        let write = |offset, count, len| {
            let wire = xdr::to_bytes(&WriteArgs {
                file: fh(9),
                offset,
                count,
                stable: StableHow::Unstable,
                data: &vec![1; len],
            });
            xdr::from_bytes::<WriteArgs>(&wire).map(|_| ())
        };
        assert!(write(MAX_FILE_SIZE - 8, 8, 8).is_ok());
        // Neither the declared count nor the payload may overhang.
        assert!(write(MAX_FILE_SIZE - 8, 9, 8).is_err());
        assert!(write(MAX_FILE_SIZE - 8, 8, 9).is_err());
        assert!(write(u64::MAX - 10, 32, 32).is_err());
    }

    #[test]
    fn write_args_round_trip() {
        let a = WriteArgs {
            file: fh(9),
            offset: 12345,
            count: 5,
            stable: StableHow::Unstable,
            data: b"hello",
        };
        let wire = xdr::to_bytes(&a);
        let back = xdr::from_bytes::<WriteArgs>(&wire).unwrap();
        assert_eq!(back, a);
        // The payload is a slice of the call, not a copy of it.
        assert!(wire.as_ptr_range().contains(&back.data.as_ptr()));
    }

    #[test]
    fn create_symlink_rename_round_trip() {
        let c = CreateArgs {
            whereto: DirOpArgs3 {
                dir: fh(1),
                name: "new.vmss".into(),
            },
            attrs: Sattr3 {
                mode: Some(0o644),
                size: None,
            },
        };
        let back: CreateArgs = xdr::from_bytes(&xdr::to_bytes(&c)).unwrap();
        assert_eq!(back, c);

        let s = SymlinkArgs {
            whereto: DirOpArgs3 {
                dir: fh(1),
                name: "disk.vmdk".into(),
            },
            attrs: Sattr3::default(),
            target: "/exports/golden/disk.vmdk".into(),
        };
        let back: SymlinkArgs = xdr::from_bytes(&xdr::to_bytes(&s)).unwrap();
        assert_eq!(back, s);

        let r = RenameArgs {
            from: DirOpArgs3 {
                dir: fh(1),
                name: "a".into(),
            },
            to: DirOpArgs3 {
                dir: fh(2),
                name: "b".into(),
            },
        };
        let back: RenameArgs = xdr::from_bytes(&xdr::to_bytes(&r)).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn readdir_commit_round_trip() {
        let a = ReaddirArgs {
            dir: fh(1),
            cookie: 7,
            cookieverf: 9,
            count: 4096,
        };
        let back: ReaddirArgs = xdr::from_bytes(&xdr::to_bytes(&a)).unwrap();
        assert_eq!(back, a);

        let c = CommitArgs {
            file: fh(2),
            offset: 0,
            count: 0,
        };
        let back: CommitArgs = xdr::from_bytes(&xdr::to_bytes(&c)).unwrap();
        assert_eq!(back, c);
    }
}
