//! Property-based round-trip tests for the XDR codec.

use proptest::prelude::*;
use xdr::{Bytes, Decoder, Encoder};

proptest! {
    #[test]
    fn prepend_yields_prefix_then_view_for_any_headroom_and_owner_count(
        headroom in 0usize..40,
        prefix in proptest::collection::vec(any::<u8>(), 0..40),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        tail in 0usize..8,
        owners in 0usize..3,
    ) {
        // `payload` as a view with `headroom` bytes in front of it and
        // `tail` behind, shared with `owners` other views.
        let mut enc = Encoder::with_headroom(headroom, payload.len() + tail);
        enc.put_opaque_fixed(&payload);
        let encoded = enc.into_shared();
        let view = encoded.slice(0, payload.len());
        let others: Vec<Bytes> = (0..owners).map(|_| encoded.clone()).collect();
        drop(encoded);
        let before: Vec<Vec<u8>> = others.iter().map(Bytes::to_vec).collect();
        let at = view.as_slice().as_ptr();
        let joined = view.prepend(&prefix);
        prop_assert_eq!(&joined[..prefix.len()], &prefix[..]);
        prop_assert_eq!(&joined[prefix.len()..], &payload[..]);
        // No other view ever sees a byte change.
        for (other, was) in others.iter().zip(&before) {
            prop_assert_eq!(&other[..], &was[..]);
        }
        // In place exactly when there was room and nobody else looking.
        if !payload.is_empty() {
            let in_place = joined[prefix.len()..].as_ptr() == at;
            prop_assert_eq!(in_place, owners == 0 && prefix.len() <= headroom);
        }
    }

    #[test]
    fn u32_round_trips(v in any::<u32>()) {
        let mut e = Encoder::new();
        e.put_u32(v);
        let b = e.into_bytes();
        let mut d = Decoder::new(&b);
        prop_assert_eq!(d.get_u32().unwrap(), v);
        prop_assert!(d.finish().is_ok());
    }

    #[test]
    fn i64_round_trips(v in any::<i64>()) {
        let mut e = Encoder::new();
        e.put_i64(v);
        let b = e.into_bytes();
        let mut d = Decoder::new(&b);
        prop_assert_eq!(d.get_i64().unwrap(), v);
    }

    #[test]
    fn opaque_round_trips_and_is_word_aligned(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let mut e = Encoder::new();
        e.put_opaque_var(&data);
        prop_assert_eq!(e.len() % 4, 0);
        let b = e.into_bytes();
        let mut d = Decoder::new(&b);
        prop_assert_eq!(d.get_opaque_var().unwrap(), data);
        prop_assert!(d.finish().is_ok());
    }

    #[test]
    fn string_round_trips(s in "\\PC{0,200}") {
        let mut e = Encoder::new();
        e.put_string(&s);
        let b = e.into_bytes();
        let mut d = Decoder::new(&b);
        prop_assert_eq!(d.get_string().unwrap(), s);
    }

    #[test]
    fn mixed_sequences_round_trip(
        a in any::<u32>(),
        s in "\\PC{0,50}",
        data in proptest::collection::vec(any::<u8>(), 0..256),
        flag in any::<bool>(),
        h in any::<u64>(),
    ) {
        let mut e = Encoder::new();
        e.put_u32(a);
        e.put_string(&s);
        e.put_opaque_var(&data);
        e.put_bool(flag);
        e.put_u64(h);
        let b = e.into_bytes();
        let mut d = Decoder::new(&b);
        prop_assert_eq!(d.get_u32().unwrap(), a);
        prop_assert_eq!(d.get_string().unwrap(), s);
        prop_assert_eq!(d.get_opaque_var().unwrap(), data);
        prop_assert_eq!(d.get_bool().unwrap(), flag);
        prop_assert_eq!(d.get_u64().unwrap(), h);
        prop_assert!(d.finish().is_ok());
    }

    #[test]
    fn decoder_never_panics_on_arbitrary_input(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Fuzz the decoder: every operation must return Ok/Err, never panic.
        let mut d = Decoder::new(&data);
        let _ = d.get_u32();
        let _ = d.get_bool();
        let _ = d.get_opaque_var();
        let _ = d.get_string();
        let _ = d.get_array(|dd| dd.get_u64());
    }
}
