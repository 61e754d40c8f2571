//! Codec coverage: property-based encode→decode identity over arbitrary
//! frames, plus adversarial decodes (truncations, hostile length
//! prefixes, unknown version/type bytes).

use dphls_seq::Base;
use dphls_serve::protocol::{
    decode_payload, encode, read_frame, write_frame, DecodeError, ErrorCode, ErrorFrame, Frame,
    ReadFrameError, Request, Response, DEFAULT_MAX_FRAME, MAX_KERNEL_NAME, PROTOCOL_VERSION,
};
use proptest::prelude::*;

fn arb_bases(max: usize) -> impl Strategy<Value = Vec<Base>> {
    proptest::collection::vec(0u8..4, 0..max)
        .prop_map(|codes| codes.into_iter().map(Base::from_code).collect())
}

/// Any short identifier over `[a-z_]` — the codec does not validate
/// kernel existence, only shape.
fn arb_kernel() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u8..27, 0..33).prop_map(|codes| {
        codes
            .into_iter()
            .map(|c| if c == 26 { '_' } else { (b'a' + c) as char })
            .collect()
    })
}

fn arb_request() -> impl Strategy<Value = Frame> {
    (arb_kernel(), arb_bases(64), arb_bases(64)).prop_map(|(kernel, query, reference)| {
        Frame::Request(Request {
            kernel,
            query,
            reference,
        })
    })
}

fn arb_response() -> impl Strategy<Value = Frame> {
    (
        (any::<u64>(), any::<i64>()),
        (any::<u32>(), any::<u32>()),
        any::<u64>(),
    )
        .prop_map(|((seq, score), (i, j), cells)| {
            Frame::Response(Response {
                seq,
                score,
                best_cell: (i, j),
                cells,
            })
        })
}

fn arb_error() -> impl Strategy<Value = Frame> {
    // Printable-ASCII message bytes keep the UTF-8 invariant trivially.
    (
        any::<u64>(),
        1u8..6,
        proptest::collection::vec(32u8..127, 0..81),
    )
        .prop_map(|(seq, code, message)| {
            let code = match code {
                1 => ErrorCode::BadVersion,
                2 => ErrorCode::BadFrame,
                3 => ErrorCode::UnknownKernel,
                4 => ErrorCode::Quarantined,
                _ => ErrorCode::ShuttingDown,
            };
            Frame::Error(ErrorFrame {
                seq,
                code,
                message: String::from_utf8(message).unwrap(),
            })
        })
}

/// Uniform over the three frame kinds (the shim has no `prop_oneof`, so
/// sample all three and select by discriminant).
fn arb_frame() -> impl Strategy<Value = Frame> {
    (0u8..3, arb_request(), arb_response(), arb_error()).prop_map(|(pick, req, resp, err)| {
        match pick {
            0 => req,
            1 => resp,
            _ => err,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn encode_decode_identity(frame in arb_frame()) {
        let payload = encode(&frame);
        prop_assert_eq!(decode_payload(&payload), Ok(frame));
    }

    #[test]
    fn stream_round_trip(frames in proptest::collection::vec(arb_frame(), 0..8)) {
        let mut wire = Vec::new();
        for frame in &frames {
            write_frame(&mut wire, frame).unwrap();
        }
        let mut cursor = wire.as_slice();
        let mut back = Vec::new();
        while let Some(frame) = read_frame(&mut cursor, DEFAULT_MAX_FRAME).unwrap() {
            back.push(frame);
        }
        prop_assert_eq!(back, frames);
    }

    #[test]
    fn truncated_payloads_never_panic(frame in arb_frame(), cut in 0usize..200) {
        let payload = encode(&frame);
        if cut < payload.len() {
            // Every proper prefix must decode to a clean error, not a
            // panic or a bogus success.
            prop_assert!(decode_payload(&payload[..cut]).is_err());
        }
    }
}

#[test]
fn oversized_prefix_rejected_without_allocation() {
    // 4 GiB-1 length prefix followed by nothing: the reader must reject
    // from the prefix alone. (If it tried to allocate/read the payload it
    // would error with Io(UnexpectedEof) instead.)
    let wire = u32::MAX.to_le_bytes();
    match read_frame(&mut wire.as_slice(), DEFAULT_MAX_FRAME) {
        Err(ReadFrameError::Decode(DecodeError::Oversized { len, max })) => {
            assert_eq!(len, u32::MAX as usize);
            assert_eq!(max, DEFAULT_MAX_FRAME);
        }
        other => panic!("expected Oversized, got {other:?}"),
    }
}

#[test]
fn truncated_stream_is_io_error_inside_a_frame() {
    let mut wire = Vec::new();
    write_frame(
        &mut wire,
        &Frame::Response(Response {
            seq: 1,
            score: 2,
            best_cell: (3, 4),
            cells: 5,
        }),
    )
    .unwrap();
    wire.truncate(wire.len() - 1);
    match read_frame(&mut wire.as_slice(), DEFAULT_MAX_FRAME) {
        Err(ReadFrameError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
        other => panic!("expected Io(UnexpectedEof), got {other:?}"),
    }
}

#[test]
fn clean_eof_is_none() {
    assert!(matches!(
        read_frame(&mut [].as_slice(), DEFAULT_MAX_FRAME),
        Ok(None)
    ));
}

#[test]
fn unknown_version_and_type_are_explicit() {
    let mut payload = encode(&Frame::Request(Request {
        kernel: "global_linear".into(),
        query: vec![Base::A],
        reference: vec![Base::C],
    }));
    payload[0] = 9;
    assert_eq!(decode_payload(&payload), Err(DecodeError::BadVersion(9)));
    payload[0] = PROTOCOL_VERSION;
    payload[1] = 77;
    assert_eq!(decode_payload(&payload), Err(DecodeError::BadType(77)));
}

#[test]
fn symbol_bytes_decode_in_either_case_and_u_as_t() {
    let mut payload = encode(&Frame::Request(Request {
        kernel: "k".into(),
        query: vec![Base::A; 10],
        reference: vec![Base::C; 2],
    }));
    let query = payload.len() - 16; // [qlen:4][query:10][rlen:4][ref:2]
    payload[query..query + 10].copy_from_slice(b"aCgTuUAcGt");
    payload[query + 14..].copy_from_slice(b"uG");
    use Base::{A, C, G, T};
    assert_eq!(
        decode_payload(&payload),
        Ok(Frame::Request(Request {
            kernel: "k".into(),
            query: vec![A, C, G, T, T, T, A, C, G, T],
            reference: vec![T, G],
        }))
    );
}

#[test]
#[should_panic(expected = "exceeds the 255-byte field")]
fn encode_refuses_a_kernel_name_its_length_byte_cannot_hold() {
    encode(&Frame::Request(Request {
        kernel: "k".repeat(MAX_KERNEL_NAME + 1),
        query: vec![Base::A],
        reference: vec![Base::A],
    }));
}

#[test]
fn a_255_byte_kernel_name_round_trips() {
    let frame = Frame::Request(Request {
        kernel: "k".repeat(MAX_KERNEL_NAME),
        query: vec![Base::G],
        reference: vec![],
    });
    assert_eq!(decode_payload(&encode(&frame)), Ok(frame));
}

#[test]
fn malformed_bodies_are_rejected() {
    // Non-ACGT symbol byte in the query.
    let mut payload = encode(&Frame::Request(Request {
        kernel: "k".into(),
        query: vec![Base::A],
        reference: vec![],
    }));
    let query_byte = payload.len() - 5; // [qlen:4]["A"][rlen:4]
    assert_eq!(payload[query_byte], b'A');
    payload[query_byte] = b'X';
    assert_eq!(
        decode_payload(&payload),
        Err(DecodeError::Malformed("non-ACGT symbol byte"))
    );

    // Every byte outside `ACGTU` / `acgtu` is rejected, the high half too.
    for bad in [b'N', b'n', b'-', 0, 0x80, 0xC3, 0xFF] {
        payload[query_byte] = bad;
        assert_eq!(
            decode_payload(&payload),
            Err(DecodeError::Malformed("non-ACGT symbol byte")),
            "byte {bad:#04x}"
        );
    }

    // Trailing garbage after a complete body.
    let mut payload = encode(&Frame::Response(Response {
        seq: 0,
        score: 0,
        best_cell: (0, 0),
        cells: 0,
    }));
    payload.push(0);
    assert_eq!(
        decode_payload(&payload),
        Err(DecodeError::Malformed("trailing bytes after frame body"))
    );

    // Unknown error code.
    let mut payload = encode(&Frame::Error(ErrorFrame {
        seq: 0,
        code: ErrorCode::Quarantined,
        message: String::new(),
    }));
    payload[10] = 200; // [ver][type][seq:8][code]
    assert_eq!(
        decode_payload(&payload),
        Err(DecodeError::Malformed("unknown error code"))
    );
}
