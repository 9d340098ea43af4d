//! Batched RPC: many logical calls in one wire round-trip.
//!
//! The fleet cloning scenario coalesces adjacent single-object fetches at
//! the proxy tiers into one WAN round-trip. Rather than teach the
//! transport a new message kind (which would disturb the carefully pinned
//! retransmit path), a batch is an ordinary call to a program-designated
//! *batch procedure* whose argument bytes are an envelope of `(proc,
//! args)` sub-calls and whose result bytes are an envelope of per-item
//! replies.
//!
//! Because the envelope rides inside the args of one standard call,
//! [`crate::RpcClient::call_batch`] goes through `call` unchanged:
//! retransmits reuse the one encoded request byte-for-byte under one xid
//! (the duplicate-request-cache contract), and the server executes the
//! whole envelope at most once. Batching therefore composes with every
//! fault schedule the single-call path already survives.
//!
//! Envelope wire format (XDR, RFC 4506):
//!
//! ```text
//! batch_args:  u32 count, then count × { u32 proc; opaque args<> }
//! batch_reply: u32 count, then count × { u32 stat; opaque result<> }
//! ```
//!
//! `stat` mirrors the enclosing RPC accept semantics per item: 0 is
//! success; non-zero marks that item failed on the server (the other
//! items' results remain usable).

use xdr::{bounded_alloc, Decode, Decoder, Encode, Encoder, Result};

/// Cap on sub-calls per envelope; a hostile count word must not cause a
/// large allocation ([`bounded_alloc`] enforces it on decode).
pub const MAX_BATCH_ITEMS: usize = 4096;

/// Per-item status: the sub-call executed and produced result bytes.
pub const BATCH_OK: u32 = 0;
/// Per-item status: the sub-call failed on the server; result bytes are
/// empty and the item should be retried individually or surfaced.
pub const BATCH_ITEM_FAILED: u32 = 1;

/// One logical sub-call inside a batch envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchItem {
    /// Procedure number within the enclosing call's program/version.
    pub proc: u32,
    /// Pre-encoded argument bytes for that procedure.
    pub args: Vec<u8>,
}

/// One per-item reply inside a batch reply envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchReplyItem {
    /// [`BATCH_OK`] or [`BATCH_ITEM_FAILED`].
    pub stat: u32,
    /// Result bytes of the sub-call (empty on failure).
    pub result: Vec<u8>,
}

xdr::record! { BatchItem { proc, args } }
xdr::record! { BatchReplyItem { stat, result } }

impl BatchReplyItem {
    /// Whether this item's sub-call succeeded.
    pub fn ok(&self) -> bool {
        self.stat == BATCH_OK
    }
}

/// Encode a batch request envelope (the args of the enclosing call).
pub fn encode_batch(items: &[BatchItem]) -> Vec<u8> {
    assert!(
        items.len() <= MAX_BATCH_ITEMS,
        "batch of {} exceeds MAX_BATCH_ITEMS",
        items.len()
    );
    encode_envelope(items)
}

/// Decode a batch request envelope (server side).
pub fn decode_batch(bytes: &[u8]) -> Result<Vec<BatchItem>> {
    decode_envelope(bytes)
}

/// Encode a batch reply envelope (the result bytes of the enclosing
/// call).
pub fn encode_batch_reply(items: &[BatchReplyItem]) -> Vec<u8> {
    encode_envelope(items)
}

/// Decode a batch reply envelope (client side).
pub fn decode_batch_reply(bytes: &[u8]) -> Result<Vec<BatchReplyItem>> {
    decode_envelope(bytes)
}

/// An envelope: a count word, then each item.
fn encode_envelope<T: Encode>(items: &[T]) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_array(items, |enc, item| item.encode(enc));
    enc.into_bytes()
}

/// Decode a whole envelope, refusing a count over [`MAX_BATCH_ITEMS`]
/// before allocating for it.
fn decode_envelope<'a, T: Decode<'a>>(bytes: &'a [u8]) -> Result<Vec<T>> {
    let mut dec = Decoder::new(bytes);
    let count = dec.get_u32()? as usize;
    let mut items = bounded_alloc(count, MAX_BATCH_ITEMS)?;
    for _ in 0..count {
        items.push(T::decode(&mut dec)?);
    }
    dec.finish()?;
    Ok(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_round_trips() {
        let items = vec![
            BatchItem {
                proc: 6,
                args: vec![1, 2, 3],
            },
            BatchItem {
                proc: 3,
                args: vec![],
            },
            BatchItem {
                proc: 6,
                args: vec![0xFF; 37],
            },
        ];
        let wire = encode_batch(&items);
        assert_eq!(decode_batch(&wire).unwrap(), items);

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
        let wire = encode_batch_reply(&replies);
        let back = decode_batch_reply(&wire).unwrap();
        assert_eq!(back, replies);
        assert!(back[0].ok());
        assert!(!back[1].ok());
    }

    #[test]
    fn empty_envelope_is_valid() {
        assert_eq!(decode_batch(&encode_batch(&[])).unwrap(), vec![]);
        assert_eq!(
            decode_batch_reply(&encode_batch_reply(&[])).unwrap(),
            vec![]
        );
    }

    #[test]
    fn hostile_count_is_rejected_without_allocation() {
        // count = u32::MAX with no items behind it.
        let mut enc = Encoder::new();
        enc.put_u32(u32::MAX);
        assert!(decode_batch(&enc.into_bytes()).is_err());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut wire = encode_batch(&[BatchItem {
            proc: 1,
            args: vec![4],
        }]);
        wire.extend_from_slice(&[0, 0, 0, 0]);
        assert!(decode_batch(&wire).is_err());
    }
}
