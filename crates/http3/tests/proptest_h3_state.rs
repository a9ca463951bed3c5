//! Stateful HTTP/3 wire properties, mirroring the HPACK suite
//! (`crates/http2/tests/proptest_hpack.rs`): where that file drives a
//! persistent encoder/decoder pair over many blocks, this one drives the
//! h3 layers over whole *streams* — back-to-back frame sequences,
//! truncation at every byte (the restartable-decode property the
//! cancel-safe transport depends on), a reference model of SETTINGS
//! accumulation including the ability withdraw/restore rule, and QPACK's
//! deliberate statelessness (the anti-HPACK: no dynamic table, so no
//! state to keep in sync).

use bytes::Bytes;
use proptest::prelude::*;
use sww_http2::hpack::HeaderField;
use sww_http2::GenAbility;
use sww_http3::frame::{FrameError, H3Frame};
use sww_http3::{qpack, varint_decode, varint_encode, H3Settings, SETTINGS_SWW_GEN_ABILITY};

fn arb_header() -> impl Strategy<Value = HeaderField> {
    ("[a-z][a-z0-9-]{0,24}", "[ -~]{0,64}").prop_map(|(n, v)| HeaderField::new(n, v))
}

fn arb_ability() -> impl Strategy<Value = GenAbility> {
    prop_oneof![
        Just(GenAbility::none()),
        Just(GenAbility::full()),
        Just(GenAbility::upscale_only()),
        (0u32..16).prop_map(GenAbility::from_bits),
    ]
}

/// Frames whose encoding is canonical (encode∘decode = id): free-form
/// payload carriers plus the structured SETTINGS/GOAWAY pair.
fn arb_frame() -> impl Strategy<Value = H3Frame> {
    prop_oneof![
        prop::collection::vec(any::<u8>(), 0..96).prop_map(|p| H3Frame::Data(Bytes::from(p))),
        prop::collection::vec(arb_header(), 0..6)
            .prop_map(|h| H3Frame::Headers(Bytes::from(qpack::encode(&h)))),
        prop::collection::vec((0u64..(1 << 20), 0u64..(1 << 30)), 0..6).prop_map(H3Frame::Settings),
        (0u64..(1 << 20)).prop_map(H3Frame::GoAway),
        (64u64..1000, prop::collection::vec(any::<u8>(), 0..48)).prop_map(|(kind, payload)| {
            H3Frame::Unknown {
                kind,
                payload: Bytes::from(payload),
            }
        }),
    ]
}

/// One step of the SETTINGS model test: what an endpoint might put on a
/// control stream over a connection's lifetime.
#[derive(Debug, Clone)]
enum SettingsOp {
    /// A full announcement (`H3Settings::sww(..).to_frame()`): omits the
    /// ability pair entirely when the ability is empty.
    Announce(GenAbility),
    /// A mid-connection ability update: always carries the explicit
    /// pair, zero included — the only way to withdraw.
    UpdateAbility(GenAbility),
    /// Unknown/grease identifiers, which must be ignored.
    Grease(u64, u64),
}

fn arb_settings_op() -> impl Strategy<Value = SettingsOp> {
    prop_oneof![
        arb_ability().prop_map(SettingsOp::Announce),
        arb_ability().prop_map(SettingsOp::UpdateAbility),
        ((0u64..4096), (0u64..1 << 16)).prop_map(|(n, v)| SettingsOp::Grease(0x21 + 0x1f * n, v)),
    ]
}

fn settings_pairs(frame: H3Frame) -> Vec<(u64, u64)> {
    match frame {
        H3Frame::Settings(pairs) => pairs,
        other => panic!("expected SETTINGS, got {other:?}"),
    }
}

proptest! {
    /// A whole stream of frames encoded back to back decodes to exactly
    /// the same sequence, with the cursor landing on every frame
    /// boundary — the stateful analogue of the single-frame round-trip.
    #[test]
    fn frame_streams_roundtrip_in_order(frames in prop::collection::vec(arb_frame(), 1..8)) {
        let mut buf = Vec::new();
        for f in &frames {
            f.encode(&mut buf);
        }
        let mut pos = 0;
        for want in &frames {
            prop_assert_eq!(&H3Frame::decode(&buf, &mut pos).unwrap(), want);
        }
        prop_assert_eq!(pos, buf.len(), "decoder must consume the stream exactly");
    }

    /// Cutting that stream at *any* byte yields a clean prefix of the
    /// original frames followed by `Incomplete` — never a panic, never a
    /// wrong frame. This is the property the buffered QUIC-lite reader
    /// relies on to resume after a partial read.
    #[test]
    fn truncated_streams_decode_to_a_prefix_then_incomplete(
        frames in prop::collection::vec(arb_frame(), 1..6),
        cut_seed in any::<u32>(),
    ) {
        let mut buf = Vec::new();
        let mut boundaries = Vec::new();
        for f in &frames {
            f.encode(&mut buf);
            boundaries.push(buf.len());
        }
        let cut = cut_seed as usize % (buf.len() + 1);
        let mut pos = 0;
        let mut decoded = Vec::new();
        loop {
            match H3Frame::decode(&buf[..cut], &mut pos) {
                Ok(f) => decoded.push(f),
                Err(FrameError::Incomplete) => break,
                Err(e) => prop_assert!(false, "truncation gave {:?}", e),
            }
        }
        // Exactly the frames whose boundary fits inside the cut.
        let whole = boundaries.iter().filter(|&&b| b <= cut).count();
        prop_assert_eq!(decoded.len(), whole);
        prop_assert_eq!(&decoded[..], &frames[..whole]);
        prop_assert_eq!(pos, boundaries.get(whole.wrapping_sub(1)).copied().unwrap_or(0),
            "cursor must stay parked on the last complete boundary");
    }

    /// Reference model of SETTINGS accumulation over a connection:
    /// values persist until re-announced, unknown identifiers are
    /// ignored, and — the withdraw trap — a full announcement with no
    /// ability *omits* the pair and therefore leaves the previous
    /// advertisement standing, while `ability_update_frame` always puts
    /// the explicit (possibly zero) pair on the wire.
    #[test]
    fn settings_accumulation_matches_the_latest_pair_model(
        ops in prop::collection::vec(arb_settings_op(), 0..24)
    ) {
        let mut live = H3Settings::default();
        let mut model_ability = GenAbility::none();
        for op in ops {
            match op {
                SettingsOp::Announce(ability) => {
                    live.apply(&settings_pairs(H3Settings::sww(ability).to_frame()));
                    if ability.supported() {
                        model_ability = ability;
                    }
                    // else: pair omitted, previous value stands.
                }
                SettingsOp::UpdateAbility(ability) => {
                    live.apply(&settings_pairs(H3Settings::ability_update_frame(ability)));
                    model_ability = ability;
                }
                SettingsOp::Grease(id, value) => {
                    // Grease identifiers never collide with the SWW pair.
                    prop_assert!(id != SETTINGS_SWW_GEN_ABILITY);
                    live.apply(&[(id, value)]);
                }
            }
            prop_assert_eq!(live.gen_ability.bits(), model_ability.bits());
        }
    }

    /// An explicit zero update always withdraws, whatever history came
    /// before — and a later update restores.
    #[test]
    fn withdraw_then_restore_always_lands(
        history in prop::collection::vec(arb_settings_op(), 0..12),
        restored in arb_ability(),
    ) {
        let mut live = H3Settings::default();
        for op in history {
            match op {
                SettingsOp::Announce(a) => {
                    live.apply(&settings_pairs(H3Settings::sww(a).to_frame()));
                }
                SettingsOp::UpdateAbility(a) => {
                    live.apply(&settings_pairs(H3Settings::ability_update_frame(a)));
                }
                SettingsOp::Grease(id, v) => live.apply(&[(id, v)]),
            }
        }
        live.apply(&settings_pairs(H3Settings::ability_update_frame(GenAbility::none())));
        prop_assert!(!live.gen_ability.supported(), "explicit zero must withdraw");
        live.apply(&settings_pairs(H3Settings::ability_update_frame(restored)));
        prop_assert_eq!(live.gen_ability.bits(), restored.bits());
    }

    /// QPACK here is deliberately stateless (static table only): the
    /// same block encodes to the same bytes no matter what was encoded
    /// before, and every block decodes exactly. The anti-HPACK property
    /// — HPACK's suite checks tables stay in sync; this one checks there
    /// is no table to desynchronize.
    #[test]
    fn qpack_blocks_are_order_independent(
        blocks in prop::collection::vec(prop::collection::vec(arb_header(), 0..10), 1..6)
    ) {
        let first_pass: Vec<Vec<u8>> = blocks.iter().map(|b| qpack::encode(b)).collect();
        for (block, encoded) in blocks.iter().zip(&first_pass) {
            prop_assert_eq!(&qpack::decode(encoded).unwrap(), block);
            // Re-encoding after the whole history: bit-identical.
            prop_assert_eq!(&qpack::encode(block), encoded, "hidden encoder state");
        }
    }

    /// Back-to-back varints decode in order and consume the buffer
    /// exactly — the primitive under both the frame layer and the
    /// QUIC-lite chunk header.
    #[test]
    fn varint_streams_roundtrip(values in prop::collection::vec(0u64..(1 << 62), 1..32)) {
        let mut buf = Vec::new();
        for &v in &values {
            varint_encode(v, &mut buf);
        }
        let mut pos = 0;
        for &want in &values {
            prop_assert_eq!(varint_decode(&buf, &mut pos).unwrap(), want);
        }
        prop_assert_eq!(pos, buf.len());
    }
}
