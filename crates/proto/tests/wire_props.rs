//! Property tests for `ropuf-wire/v1`.
//!
//! Two families, per the serving-layer acceptance criteria:
//!
//! 1. **Roundtrip** — for every message type, `decode(encode(m)) == m`
//!    over randomized field values.
//! 2. **Hostility** — arbitrary byte soup, mutated valid encodings and
//!    every strict prefix of a valid encoding produce typed errors
//!    (or a different valid message, for mutations) — the decoder
//!    never panics and never over-reads.

use proptest::collection::vec;
use proptest::prelude::*;
use ropuf_proto::{
    AuthItem, ErrorCode, FrameReader, FrameWriter, Request, RequestRef, Response, WireAuthResponse,
    WireFlagReason, WireVerdict,
};

/// Deterministically expands a compact seed tuple into an [`AuthItem`]
/// (the vendored proptest has no composite strategies).
fn item_from(seed: u64, nonce: Vec<u8>, helper: Vec<u8>, shape: u8) -> AuthItem {
    AuthItem {
        device_id: seed,
        now: seed.rotate_left(17),
        nonce,
        response: if shape & 1 == 0 {
            WireAuthResponse::Failure
        } else {
            let mut tag = [0u8; 32];
            tag.iter_mut()
                .enumerate()
                .for_each(|(i, b)| *b = (seed as u8).wrapping_add(i as u8));
            WireAuthResponse::Tag(tag)
        },
        presented_helper: (shape & 2 == 0).then_some(helper),
    }
}

fn reason_from(code: u8) -> WireFlagReason {
    WireFlagReason::from_code(code % 4).expect("codes 0..=3 are valid")
}

fn verdict_from(shape: u8) -> WireVerdict {
    match shape % 3 {
        0 => WireVerdict::Accept,
        1 => WireVerdict::Reject,
        _ => WireVerdict::Flagged(reason_from(shape / 3)),
    }
}

proptest! {
    #[test]
    fn hello_and_enroll_roundtrip(
        protocol in any::<u16>(),
        device_id in any::<u64>(),
        scheme_tag in any::<u8>(),
        helper in vec(any::<u8>(), 0..300),
        digest_fill in any::<u8>(),
    ) {
        let requests = [
            Request::Hello { protocol, client: format!("client-{protocol}") },
            Request::Enroll {
                device_id,
                scheme_tag,
                helper,
                key_digest: [digest_fill; 32],
            },
            Request::QueryVerdict { device_id },
            Request::LoopInfo,
            Request::SnapshotV2,
            Request::MetricsSnapshot,
            Request::TraceDump,
        ];
        for request in requests {
            let decoded = Request::decode(&request.encode());
            prop_assert_eq!(decoded.as_ref(), Ok(&request));
        }
    }

    #[test]
    fn authenticate_roundtrips(
        seed in any::<u64>(),
        nonce in vec(any::<u8>(), 0..64),
        helper in vec(any::<u8>(), 0..300),
        shape in any::<u8>(),
    ) {
        let request = Request::Authenticate(item_from(seed, nonce, helper, shape));
        let decoded = Request::decode(&request.encode());
            prop_assert_eq!(decoded.as_ref(), Ok(&request));
    }

    #[test]
    fn batch_authenticate_roundtrips(
        seed in any::<u64>(),
        shapes in vec(any::<u8>(), 0..12),
        helper in vec(any::<u8>(), 0..100),
    ) {
        let items: Vec<AuthItem> = shapes
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                item_from(seed.wrapping_add(i as u64), vec![s; (s % 9) as usize], helper.clone(), s)
            })
            .collect();
        let request = Request::BatchAuthenticate { items };
        let decoded = Request::decode(&request.encode());
            prop_assert_eq!(decoded.as_ref(), Ok(&request));
    }

    #[test]
    fn responses_roundtrip(
        protocol in any::<u16>(),
        device_id in any::<u64>(),
        at in any::<u64>(),
        shapes in vec(any::<u8>(), 0..12),
        reason_code in any::<u8>(),
        error_code in 1u8..=9,
        text in vec(97u8..123, 0..40),
        blob in vec(any::<u8>(), 0..200),
    ) {
        let text = String::from_utf8(text).expect("ascii letters");
        let responses = [
            Response::HelloOk { protocol, server: text.clone() },
            Response::EnrollOk { device_id },
            Response::Verdict(verdict_from(reason_code)),
            Response::VerdictBatch(shapes.iter().map(|&s| verdict_from(s)).collect()),
            Response::FlagInfo { flagged: None },
            Response::FlagInfo { flagged: Some((at, reason_from(reason_code))) },
            Response::SnapshotBin { bytes: blob.clone() },
            Response::MetricsBin { bytes: blob.clone() },
            Response::TraceBin { bytes: blob },
            Response::Error {
                code: ErrorCode::from_code(error_code).expect("1..=9 are valid"),
                detail: text,
            },
        ];
        for response in responses {
            let decoded = Response::decode(&response.encode());
            prop_assert_eq!(decoded.as_ref(), Ok(&response));
        }
    }

    /// The allocation-free codec paths are bit-for-bit the allocating
    /// ones: `encode_into` a dirty reused buffer == fresh `encode`, and
    /// the borrowing `RequestRef::decode` agrees with `Request::decode`
    /// on both the message and (under truncation) the error.
    #[test]
    fn reused_buffer_and_borrowing_paths_match_allocating_paths(
        seed in any::<u64>(),
        nonce in vec(any::<u8>(), 0..64),
        helper in vec(any::<u8>(), 0..200),
        shapes in vec(any::<u8>(), 0..6),
        shape in any::<u8>(),
        cut_seed in any::<u64>(),
    ) {
        let requests = [
            Request::Authenticate(item_from(seed, nonce.clone(), helper.clone(), shape)),
            Request::BatchAuthenticate {
                items: shapes
                    .iter()
                    .map(|&s| item_from(seed ^ u64::from(s), nonce.clone(), helper.clone(), s))
                    .collect(),
            },
            Request::Hello { protocol: seed as u16, client: format!("c{seed}") },
            Request::LoopInfo,
            Request::SnapshotV2,
            Request::MetricsSnapshot,
            Request::TraceDump,
        ];
        // One deliberately dirty buffer reused across all encodes.
        let mut reused = vec![0xEEu8; 37];
        for request in &requests {
            let fresh = request.encode();
            request.encode_into(&mut reused);
            prop_assert_eq!(&reused, &fresh);

            // Borrowing decode agrees with the owned decode...
            let borrowed = RequestRef::decode(&fresh);
            let owned = Request::decode(&fresh);
            prop_assert_eq!(
                borrowed.clone().map(RequestRef::into_owned),
                owned.clone()
            );
            prop_assert_eq!(owned.as_ref().ok(), Some(request));
            // ...and a re-encode of the borrowed view is byte-stable.
            let mut re = Vec::new();
            borrowed.unwrap().encode_into(&mut re);
            prop_assert_eq!(&re, &fresh);

            // Same typed error on truncation.
            if !fresh.is_empty() {
                let cut = (cut_seed % fresh.len() as u64) as usize;
                prop_assert_eq!(
                    RequestRef::decode(&fresh[..cut]).map(RequestRef::into_owned),
                    Request::decode(&fresh[..cut])
                );
            }
        }
    }

    /// Frames written through a reused writer and read back through a
    /// reused reader roundtrip bit-for-bit with the allocating API, in
    /// sequence position, for mixed message sizes.
    #[test]
    fn frame_buffer_reuse_roundtrips_sequences(
        seed in any::<u64>(),
        sizes in vec(1usize..300, 1..8),
    ) {
        let requests: Vec<Request> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| Request::Authenticate(item_from(
                seed.wrapping_add(i as u64),
                vec![i as u8; n],
                vec![!(i as u8); n / 2],
                i as u8,
            )))
            .collect();
        let mut wire = Vec::new();
        {
            // One writer: its internal encode buffer is reused across
            // every frame, shrinking and growing with the messages.
            let mut w = FrameWriter::new(&mut wire);
            for request in &requests {
                w.write_request(request).unwrap();
            }
        }
        // Reference wire bytes from the allocating encode.
        let mut reference = Vec::new();
        for request in &requests {
            let payload = request.encode();
            reference.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            reference.extend_from_slice(&payload);
        }
        prop_assert_eq!(&wire, &reference);

        // One reader: reused payload buffer, owned decode.
        let mut r = FrameReader::new(&wire[..]);
        for request in &requests {
            let got = r.read_request().unwrap();
            prop_assert_eq!(got.as_ref(), Some(request));
        }
        prop_assert_eq!(r.read_request().unwrap(), None);

        // Same stream through the borrowing read path.
        let mut r = FrameReader::new(&wire[..]);
        for request in &requests {
            let got = r.read_request_ref().unwrap().map(RequestRef::into_owned);
            prop_assert_eq!(got.as_ref(), Some(request));
        }
        prop_assert!(r.read_request_ref().unwrap().is_none(), "clean EOF");
    }

    /// Arbitrary byte soup never panics either decoder and never
    /// over-reads (an over-read would be a panic: the cursor is
    /// slice-backed).
    #[test]
    fn byte_soup_never_panics(soup in vec(any::<u8>(), 0..600)) {
        let _ = Request::decode(&soup);
        let _ = Response::decode(&soup);
        // The frame layer over the same soup: must terminate with
        // Ok(None), a frame, or a typed error — no panic, no hang.
        let mut reader = FrameReader::new(&soup[..]);
        for _ in 0..4 {
            if reader.read_request().is_err() {
                break;
            }
        }
    }

    /// Every strict prefix of a valid encoding fails with a typed
    /// error (strict framing means a shorter valid message can never
    /// hide inside a longer one's prefix).
    #[test]
    fn strict_prefixes_always_fail(
        seed in any::<u64>(),
        nonce in vec(any::<u8>(), 1..48),
        helper in vec(any::<u8>(), 1..200),
        shape in any::<u8>(),
    ) {
        let request = Request::Authenticate(item_from(seed, nonce, helper, shape));
        let bytes = request.encode();
        for cut in 0..bytes.len() {
            prop_assert!(
                Request::decode(&bytes[..cut]).is_err(),
                "prefix of length {} decoded", cut
            );
        }
    }

    /// Single-byte corruption of a valid encoding either still decodes
    /// (the flipped byte was plain data) or fails with a typed error —
    /// never a panic.
    #[test]
    fn point_mutations_never_panic(
        seed in any::<u64>(),
        nonce in vec(any::<u8>(), 0..32),
        helper in vec(any::<u8>(), 0..100),
        shape in any::<u8>(),
        flip in any::<u8>(),
        pos_seed in any::<u64>(),
    ) {
        let request = Request::Authenticate(item_from(seed, nonce, helper, shape));
        let mut bytes = request.encode();
        let pos = (pos_seed % bytes.len() as u64) as usize;
        bytes[pos] ^= flip | 1; // guaranteed to change the byte
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
    }
}
