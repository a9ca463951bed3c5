//! HTTP/3 frames (RFC 9114 §7.2): varint type + varint length + payload.

use crate::varint::{self, VarintError};
use bytes::Bytes;
use std::ops::Range;

/// Frame type codes (RFC 9114 §11.2.1).
pub(crate) const TYPE_DATA: u64 = 0x00;
/// HEADERS frame type.
pub(crate) const TYPE_HEADERS: u64 = 0x01;
/// CANCEL_PUSH frame type.
pub(crate) const TYPE_CANCEL_PUSH: u64 = 0x03;
/// SETTINGS frame type.
pub(crate) const TYPE_SETTINGS: u64 = 0x04;
/// GOAWAY frame type.
pub(crate) const TYPE_GOAWAY: u64 = 0x07;
/// MAX_PUSH_ID frame type.
pub(crate) const TYPE_MAX_PUSH_ID: u64 = 0x0d;

/// A parsed HTTP/3 frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum H3Frame {
    /// DATA: request/response content.
    Data(Bytes),
    /// HEADERS: a QPACK-encoded field section.
    Headers(Bytes),
    /// SETTINGS: identifier/value pairs (control stream only).
    Settings(Vec<(u64, u64)>),
    /// GOAWAY carrying a stream/push id.
    GoAway(u64),
    /// CANCEL_PUSH / MAX_PUSH_ID and friends we note but don't act on.
    CancelPush(u64),
    /// MAX_PUSH_ID.
    MaxPushId(u64),
    /// Reserved (`0x1f * N + 0x21`, RFC 9114 §7.2.8) or unknown type:
    /// ignored per §9.
    Unknown {
        /// Raw frame type.
        kind: u64,
        /// Raw payload.
        payload: Bytes,
    },
}

/// Frame codec errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Not enough bytes yet (streaming decoders retry with more data).
    Incomplete,
    /// Structurally invalid frame.
    Malformed(&'static str),
}

impl From<VarintError> for FrameError {
    fn from(e: VarintError) -> Self {
        match e {
            VarintError::Truncated => FrameError::Incomplete,
            VarintError::TooLarge => FrameError::Malformed("varint too large"),
        }
    }
}

impl H3Frame {
    /// Encode into `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            H3Frame::Data(p) => frame_header_payload(TYPE_DATA, p, out),
            H3Frame::Headers(p) => frame_header_payload(TYPE_HEADERS, p, out),
            H3Frame::Settings(pairs) => {
                let mut body = Vec::new();
                for &(id, value) in pairs {
                    varint::encode(id, &mut body);
                    varint::encode(value, &mut body);
                }
                frame_header_payload(TYPE_SETTINGS, &body, out);
            }
            H3Frame::GoAway(id) => {
                let mut body = Vec::new();
                varint::encode(*id, &mut body);
                frame_header_payload(TYPE_GOAWAY, &body, out);
            }
            H3Frame::CancelPush(id) => {
                let mut body = Vec::new();
                varint::encode(*id, &mut body);
                frame_header_payload(TYPE_CANCEL_PUSH, &body, out);
            }
            H3Frame::MaxPushId(id) => {
                let mut body = Vec::new();
                varint::encode(*id, &mut body);
                frame_header_payload(TYPE_MAX_PUSH_ID, &body, out);
            }
            H3Frame::Unknown { kind, payload } => frame_header_payload(*kind, payload, out),
        }
    }

    /// Decode one frame from `buf[*pos..]`, advancing `pos`. Returns
    /// `Err(Incomplete)` when more bytes are needed.
    pub fn decode(buf: &[u8], pos: &mut usize) -> Result<H3Frame, FrameError> {
        let mut p = *pos;
        let (kind, range) = decode_in_place(buf, &mut p)?;
        let payload = &buf[range];
        let frame = match kind {
            TYPE_DATA => H3Frame::Data(Bytes::copy_from_slice(payload)),
            TYPE_HEADERS => H3Frame::Headers(Bytes::copy_from_slice(payload)),
            TYPE_SETTINGS => {
                let mut pairs = Vec::new();
                let mut q = 0usize;
                while q < payload.len() {
                    let id = varint::decode(payload, &mut q)
                        .map_err(|_| FrameError::Malformed("settings id truncated"))?;
                    let value = varint::decode(payload, &mut q)
                        .map_err(|_| FrameError::Malformed("settings value truncated"))?;
                    pairs.push((id, value));
                }
                H3Frame::Settings(pairs)
            }
            TYPE_GOAWAY => {
                let mut q = 0usize;
                let id = varint::decode(payload, &mut q)
                    .map_err(|_| FrameError::Malformed("goaway id truncated"))?;
                H3Frame::GoAway(id)
            }
            TYPE_CANCEL_PUSH => {
                let mut q = 0usize;
                let id = varint::decode(payload, &mut q)
                    .map_err(|_| FrameError::Malformed("cancel_push id truncated"))?;
                H3Frame::CancelPush(id)
            }
            TYPE_MAX_PUSH_ID => {
                let mut q = 0usize;
                let id = varint::decode(payload, &mut q)
                    .map_err(|_| FrameError::Malformed("max_push_id truncated"))?;
                H3Frame::MaxPushId(id)
            }
            other => H3Frame::Unknown {
                kind: other,
                payload: Bytes::copy_from_slice(payload),
            },
        };
        *pos = p;
        Ok(frame)
    }
}

/// Read one frame's type and where its payload lies in `buf`, advancing
/// `pos` past it; the payload is not copied.
pub(crate) fn decode_in_place(
    buf: &[u8],
    pos: &mut usize,
) -> Result<(u64, Range<usize>), FrameError> {
    let mut p = *pos;
    let kind = varint::decode(buf, &mut p)?;
    let length = varint::decode(buf, &mut p)? as usize;
    if buf.len() - p < length {
        return Err(FrameError::Incomplete);
    }
    *pos = p + length;
    Ok((kind, p..p + length))
}

/// Append a frame of type `kind` whose payload `write` appends to `out`
/// in place: the length goes in front of it afterwards, so the payload is
/// never built apart and copied.
pub(crate) fn encode_in_place(kind: u64, out: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) {
    varint::encode(kind, out);
    let at = out.len();
    write(out);
    let length = (out.len() - at) as u64;
    varint::encode(length, out);
    out[at..].rotate_right(varint::len(length));
}

fn frame_header_payload(kind: u64, payload: &[u8], out: &mut Vec<u8>) {
    varint::encode(kind, out);
    varint::encode(payload.len() as u64, out);
    out.extend_from_slice(payload);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(f: &H3Frame) -> H3Frame {
        let mut buf = Vec::new();
        f.encode(&mut buf);
        let mut pos = 0;
        let out = H3Frame::decode(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        out
    }

    #[test]
    fn all_frames_roundtrip() {
        for f in [
            H3Frame::Data(Bytes::from_static(b"body")),
            H3Frame::Headers(Bytes::from_static(&[0x00, 0x00, 0xd1])),
            H3Frame::Settings(vec![(0x06, 4096), (0x4242, 1)]),
            H3Frame::GoAway(12),
            H3Frame::CancelPush(3),
            H3Frame::MaxPushId(100),
            H3Frame::Unknown {
                kind: 0x21,
                payload: Bytes::from_static(b"grease"),
            },
        ] {
            assert_eq!(roundtrip(&f), f);
        }
    }

    #[test]
    fn incomplete_input_signals_retry() {
        let mut buf = Vec::new();
        H3Frame::Data(Bytes::from_static(b"0123456789")).encode(&mut buf);
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert_eq!(
                H3Frame::decode(&buf[..cut], &mut pos),
                Err(FrameError::Incomplete),
                "cut={cut}"
            );
        }
    }

    #[test]
    fn back_to_back_frames_decode_sequentially() {
        let mut buf = Vec::new();
        H3Frame::Headers(Bytes::from_static(b"h")).encode(&mut buf);
        H3Frame::Data(Bytes::from_static(b"d1")).encode(&mut buf);
        H3Frame::Data(Bytes::from_static(b"d2")).encode(&mut buf);
        let mut pos = 0;
        assert!(matches!(
            H3Frame::decode(&buf, &mut pos).unwrap(),
            H3Frame::Headers(_)
        ));
        assert!(matches!(
            H3Frame::decode(&buf, &mut pos).unwrap(),
            H3Frame::Data(_)
        ));
        assert!(matches!(
            H3Frame::decode(&buf, &mut pos).unwrap(),
            H3Frame::Data(_)
        ));
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn a_payload_written_in_place_frames_like_a_copied_one() {
        // One- and two-octet lengths: the second moves the payload right.
        for n in [0usize, 1, 63, 64, 300] {
            let payload = vec![0xabu8; n];
            let mut copied = b"x".to_vec();
            H3Frame::Headers(Bytes::from(payload.clone())).encode(&mut copied);
            let mut in_place = b"x".to_vec();
            encode_in_place(TYPE_HEADERS, &mut in_place, |out| {
                out.extend_from_slice(&payload)
            });
            assert_eq!(in_place, copied, "n={n}");
            let mut pos = 1;
            assert_eq!(
                decode_in_place(&in_place, &mut pos),
                Ok((TYPE_HEADERS, in_place.len() - n..in_place.len()))
            );
            assert_eq!(pos, in_place.len());
        }
    }

    #[test]
    fn malformed_settings_rejected() {
        // SETTINGS body with an id but no value.
        let mut buf = Vec::new();
        varint::encode(TYPE_SETTINGS, &mut buf);
        varint::encode(1, &mut buf);
        buf.push(0x06);
        let mut pos = 0;
        assert!(matches!(
            H3Frame::decode(&buf, &mut pos),
            Err(FrameError::Malformed(_))
        ));
    }
}
