//! Property suite for the wire codec: every value that crosses a socket
//! must round-trip bit-exactly, and every malformed frame — truncated,
//! oversized, bad magic, padded — must be *rejected*, never mis-read.

use ccmx_comm::protocol::{Message, RunResult, Transcript, Turn, WireMsg};
use ccmx_comm::BitString;
use ccmx_net::api::{Request, Response};
use ccmx_net::wire::{
    encode_frame, read_frame, WireCodec, KIND_WIRE_MSG, MAGIC, MAX_PAYLOAD_BYTES,
};
use ccmx_net::{fault_mem_pair, FaultConfig, NetError, Transport};
use proptest::prelude::*;

fn bitstring_strategy(max_bits: usize) -> BoxedStrategy<BitString> {
    prop::collection::vec(any::<bool>(), 0..max_bits)
        .prop_map(BitString::from_bits)
        .boxed()
}

fn turn_strategy() -> BoxedStrategy<Turn> {
    prop_oneof![Just(Turn::A), Just(Turn::B)].boxed()
}

fn message_strategy() -> BoxedStrategy<Message> {
    (turn_strategy(), bitstring_strategy(96))
        .prop_map(|(from, bits)| Message { from, bits })
        .boxed()
}

fn transcript_strategy() -> BoxedStrategy<Transcript> {
    prop::collection::vec(message_strategy(), 0..12)
        .prop_map(Transcript::from_messages)
        .boxed()
}

fn wire_msg_strategy() -> BoxedStrategy<WireMsg> {
    prop_oneof![
        bitstring_strategy(128).prop_map(WireMsg::Bits),
        any::<bool>().prop_map(WireMsg::Final),
    ]
    .boxed()
}

/// The bit-string wire form as a per-bit encoder writes it: `u32` bit
/// count, then each bit ORed into byte `i / 8` at position `i % 8`.
/// Kept independent of the word-packed codec so the two can be
/// compared.
fn per_bit_wire_bytes(bits: &[bool]) -> Vec<u8> {
    let mut out = (bits.len() as u32).to_le_bytes().to_vec();
    let mut packed = vec![0u8; bits.len().div_ceil(8)];
    for (i, &b) in bits.iter().enumerate() {
        packed[i / 8] |= u8::from(b) << (i % 8);
    }
    out.extend_from_slice(&packed);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn packed_codec_matches_per_bit_reference(
        bits in prop::collection::vec(any::<bool>(), 0..=200),
    ) {
        let reference = per_bit_wire_bytes(&bits);
        let packed = BitString::from_bits(bits.clone());
        prop_assert_eq!(packed.to_wire_bytes(), reference.clone());
        let back = BitString::from_wire_bytes(&reference).unwrap();
        prop_assert_eq!(back.iter().collect::<Vec<_>>(), bits);
        prop_assert_eq!(back, packed);
    }

    #[test]
    fn packed_codec_rejects_nonzero_padding(
        bits in prop::collection::vec(any::<bool>(), 1..=200),
        pad in 1u8..=255,
    ) {
        let tail = bits.len() % 8;
        prop_assume!(tail != 0);
        let mut bytes = per_bit_wire_bytes(&bits);
        let last = bytes.len() - 1;
        bytes[last] |= pad << tail;
        prop_assume!(bytes[last] >> tail != 0);
        prop_assert!(matches!(
            BitString::from_wire_bytes(&bytes),
            Err(NetError::Frame(_))
        ));
    }

    #[test]
    fn bitstring_round_trips(bits in bitstring_strategy(256)) {
        let bytes = bits.to_wire_bytes();
        prop_assert_eq!(bytes.len(), 4 + bits.len().div_ceil(8));
        prop_assert_eq!(BitString::from_wire_bytes(&bytes).unwrap(), bits);
    }

    #[test]
    fn wire_msg_round_trips(msg in wire_msg_strategy()) {
        prop_assert_eq!(WireMsg::from_wire_bytes(&msg.to_wire_bytes()).unwrap(), msg);
    }

    #[test]
    fn message_round_trips(msg in message_strategy()) {
        prop_assert_eq!(Message::from_wire_bytes(&msg.to_wire_bytes()).unwrap(), msg);
    }

    #[test]
    fn transcript_round_trips_preserving_bit_count(t in transcript_strategy()) {
        let back = Transcript::from_wire_bytes(&t.to_wire_bytes()).unwrap();
        prop_assert_eq!(back.total_bits(), t.total_bits());
        prop_assert_eq!(back.rounds(), t.rounds());
        prop_assert_eq!(back, t);
    }

    #[test]
    fn run_result_round_trips(
        t in transcript_strategy(),
        output in any::<bool>(),
        by in turn_strategy(),
    ) {
        let r = RunResult { output, announced_by: by, transcript: t };
        prop_assert_eq!(RunResult::from_wire_bytes(&r.to_wire_bytes()).unwrap(), r);
    }

    #[test]
    fn cc_search_request_round_trips(
        rows in 1usize..65,
        cols in 1usize..65,
        bits in bitstring_strategy(128),
        depth_limit in any::<u32>(),
    ) {
        // The codec layer does not validate dims against bit count —
        // the server does — so round-tripping must hold for any combo.
        let req = Request::CcSearch { rows, cols, bits, depth_limit };
        prop_assert_eq!(Request::from_wire_bytes(&req.to_wire_bytes()).unwrap(), req);
    }

    #[test]
    fn cc_search_response_round_trips(
        cc in any::<u32>(),
        exact in any::<bool>(),
        nodes in any::<u64>(),
        certificate in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let resp = Response::CcSearch { cc, exact, nodes, certificate };
        prop_assert_eq!(Response::from_wire_bytes(&resp.to_wire_bytes()).unwrap(), resp);
        // Batched alongside older variants it must still round-trip.
        let batch = Response::Batch(vec![Response::Pong, Response::from_wire_bytes(&resp.to_wire_bytes()).unwrap()]);
        prop_assert_eq!(Response::from_wire_bytes(&batch.to_wire_bytes()).unwrap(), batch);
    }

    #[test]
    fn framed_wire_msg_round_trips(msg in wire_msg_strategy()) {
        let payload = msg.to_wire_bytes();
        let frame = encode_frame(KIND_WIRE_MSG, &payload).unwrap();
        let (kind, got) = read_frame(&mut frame.as_slice()).unwrap();
        prop_assert_eq!(kind, KIND_WIRE_MSG);
        prop_assert_eq!(WireMsg::from_wire_bytes(&got).unwrap(), msg);
    }

    #[test]
    fn truncated_frames_rejected(msg in wire_msg_strategy(), cut_seed in any::<u64>()) {
        let frame = encode_frame(KIND_WIRE_MSG, &msg.to_wire_bytes()).unwrap();
        // Cut anywhere strictly inside the frame: header or payload.
        let cut = 1 + (cut_seed as usize) % (frame.len() - 1);
        let err = read_frame(&mut frame[..cut].as_ref()).unwrap_err();
        prop_assert!(matches!(err, NetError::Frame(_)), "cut {} gave {}", cut, err);
    }

    #[test]
    fn truncated_payloads_rejected_by_codec(msg in wire_msg_strategy()) {
        let bytes = msg.to_wire_bytes();
        prop_assume!(bytes.len() > 1);
        for cut in 0..bytes.len() - 1 {
            prop_assert!(WireMsg::from_wire_bytes(&bytes[..cut]).is_err(), "cut {}", cut);
        }
    }

    #[test]
    fn trailing_garbage_rejected(msg in wire_msg_strategy(), junk in any::<u8>()) {
        let mut bytes = msg.to_wire_bytes();
        bytes.push(junk);
        prop_assert!(WireMsg::from_wire_bytes(&bytes).is_err());
    }

    #[test]
    fn oversized_length_field_rejected(extra in 1u64..1_000_000) {
        let declared = (MAX_PAYLOAD_BYTES as u64 + extra).min(u32::MAX as u64) as u32;
        let mut frame = vec![MAGIC, KIND_WIRE_MSG];
        frame.extend_from_slice(&declared.to_le_bytes());
        let err = read_frame(&mut frame.as_slice()).unwrap_err();
        prop_assert!(matches!(err, NetError::Frame(_)), "got {}", err);
    }

    #[test]
    fn oversized_payload_refused_at_encode(kind in any::<u8>()) {
        // Don't materialize >4MiB per case; a zero-filled Vec is cheap
        // enough at 128 cases and exercises the real check.
        let too_big = vec![0u8; MAX_PAYLOAD_BYTES + 1];
        prop_assert!(encode_frame(kind, &too_big).is_err());
    }

    #[test]
    fn corrupted_magic_rejected(msg in wire_msg_strategy(), bad_magic in any::<u8>()) {
        prop_assume!(bad_magic != MAGIC);
        let mut frame = encode_frame(KIND_WIRE_MSG, &msg.to_wire_bytes()).unwrap();
        frame[0] = bad_magic;
        prop_assert!(matches!(read_frame(&mut frame.as_slice()), Err(NetError::Frame(_))));
    }

    #[test]
    fn corrupted_payload_bytes_never_panic(
        msg in wire_msg_strategy(),
        pos_seed in any::<u64>(),
        xor in 1u8..=255,
    ) {
        // Codec payloads carry no checksum (the chaos envelope adds
        // one), so a flipped byte may decode to a *different* value or
        // a typed error — but it must never panic or loop.
        let mut bytes = msg.to_wire_bytes();
        let pos = (pos_seed as usize) % bytes.len();
        bytes[pos] ^= xor;
        let _ = WireMsg::from_wire_bytes(&bytes);
    }

    #[test]
    fn corrupted_run_results_never_panic(
        t in transcript_strategy(),
        output in any::<bool>(),
        by in turn_strategy(),
        pos_seed in any::<u64>(),
        xor in 1u8..=255,
    ) {
        let r = RunResult { output, announced_by: by, transcript: t };
        let mut bytes = r.to_wire_bytes();
        let pos = (pos_seed as usize) % bytes.len();
        bytes[pos] ^= xor;
        let _ = RunResult::from_wire_bytes(&bytes);
    }

    #[test]
    fn corrupted_frame_bytes_never_panic(
        msg in wire_msg_strategy(),
        pos_seed in any::<u64>(),
        xor in 1u8..=255,
    ) {
        let mut frame = encode_frame(KIND_WIRE_MSG, &msg.to_wire_bytes()).unwrap();
        let pos = (pos_seed as usize) % frame.len();
        frame[pos] ^= xor;
        match read_frame(&mut frame.as_slice()) {
            // A flip in the payload is invisible to the frame layer;
            // header flips must come back as typed errors.
            Ok((_, _)) => {}
            Err(NetError::Frame(_) | NetError::Disconnected | NetError::Io(_)) => {}
            Err(other) => prop_assert!(false, "untyped failure: {}", other),
        }
    }

}

proptest! {
    // Each case spins up threads and real drain windows; keep the case
    // count low so the suite stays fast.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fault_transport_bit_flips_cannot_corrupt_delivery(
        payloads in prop::collection::vec(bitstring_strategy(64), 1..6),
        seed in any::<u64>(),
    ) {
        // A flip-only fault schedule driven by the proptest seed: the
        // chaos envelope's checksum must catch every flip and the NACK
        // path must re-deliver the exact bits, metered exactly once.
        let flips = FaultConfig {
            flip_permille: 400,
            ..FaultConfig::quiet(seed)
        };
        let (mut a, mut b) = fault_mem_pair(flips, FaultConfig::quiet(seed ^ 1));
        let sent_bits: usize = payloads.iter().map(|p| p.len()).sum();
        // Recovery is peer-driven (NACK → retransmit), so the sender
        // must stay live until the receiver has everything: send on a
        // thread, then drain the NACK traffic.
        let expected = payloads.clone();
        let receiver = std::thread::spawn(move || {
            let mut got = Vec::new();
            for _ in 0..expected.len() {
                match b.recv_wire() {
                    Ok(WireMsg::Bits(bits)) => got.push(bits),
                    other => panic!("wrong message: {other:?}"),
                }
            }
            // Keep the endpoint alive so the sender's own drain can
            // finish; a Disconnected here just means the peer left.
            let _ = b.drain(std::time::Duration::from_millis(80));
            (got, b.stats())
        });
        for bits in &payloads {
            a.send_wire(&WireMsg::Bits(bits.clone())).unwrap();
        }
        match a.drain(std::time::Duration::from_millis(40)) {
            Ok(()) | Err(NetError::Disconnected) => {}
            Err(other) => prop_assert!(false, "drain failed: {}", other),
        }
        let (got, stats_b) = receiver.join().unwrap();
        prop_assert_eq!(got, payloads);
        prop_assert_eq!(a.stats().bits_sent, sent_bits);
        prop_assert_eq!(stats_b.bits_received, sent_bits);
    }
}
