//! HTTP/2 binary framing layer (RFC 9113 §4, §6).
//!
//! Every frame starts with a fixed 9-octet header:
//!
//! ```text
//! +-----------------------------------------------+
//! |                 Length (24)                   |
//! +---------------+---------------+---------------+
//! |   Type (8)    |   Flags (8)   |
//! +-+-------------+---------------+-------------------------------+
//! |R|                 Stream Identifier (31)                      |
//! +=+=============================================================+
//! |                   Frame Payload (0...)                      ...
//! +---------------------------------------------------------------+
//! ```
//!
//! [`Frame`] is the typed in-memory representation; [`Frame::encode`] and
//! [`Frame::parse`] convert to and from the wire form. Unknown frame types
//! are preserved as [`Frame::Unknown`] so the connection layer can ignore
//! them per RFC 9113 §4.1 (mirroring how the unknown-SETTINGS rule enables
//! the paper's incremental deployment story).

mod data;
mod goaway;
mod headers;
mod ping;
mod priority;
mod push_promise;
mod rst_stream;
mod settings_frame;
mod window_update;

pub use data::DataFrame;
pub use goaway::GoAwayFrame;
pub use headers::{ContinuationFrame, HeadersFrame};
pub use ping::PingFrame;
use priority::PriorityFrame;
use push_promise::PushPromiseFrame;
pub use rst_stream::RstStreamFrame;
pub(crate) use settings_frame::SettingPair;
pub use settings_frame::SettingsFrame;
pub use window_update::WindowUpdateFrame;

use crate::error::H2Error;
use bytes::{BufMut, Bytes, BytesMut};

/// Length of the fixed frame header.
pub const FRAME_HEADER_LEN: usize = 9;

/// Default maximum frame payload size (RFC 9113 §4.2).
pub(crate) const DEFAULT_MAX_FRAME_SIZE: u32 = 16_384;

/// Largest permitted SETTINGS_MAX_FRAME_SIZE value.
pub(crate) const MAX_ALLOWED_FRAME_SIZE: u32 = (1 << 24) - 1;

/// Frame type registry (RFC 9113 §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum FrameType {
    /// Conveys arbitrary variable-length request/response content.
    Data = 0x0,
    /// Opens a stream and carries a header block fragment.
    Headers = 0x1,
    /// Deprecated stream priority signal.
    Priority = 0x2,
    /// Immediate stream termination.
    RstStream = 0x3,
    /// Connection configuration parameters.
    Settings = 0x4,
    /// Server push announcement.
    PushPromise = 0x5,
    /// Liveness / RTT measurement.
    Ping = 0x6,
    /// Connection shutdown.
    GoAway = 0x7,
    /// Flow-control credit.
    WindowUpdate = 0x8,
    /// Header block continuation.
    Continuation = 0x9,
}

impl FrameType {
    /// Decode a frame type octet; `None` for extension types.
    pub(crate) fn from_u8(v: u8) -> Option<FrameType> {
        use FrameType::*;
        Some(match v {
            0x0 => Data,
            0x1 => Headers,
            0x2 => Priority,
            0x3 => RstStream,
            0x4 => Settings,
            0x5 => PushPromise,
            0x6 => Ping,
            0x7 => GoAway,
            0x8 => WindowUpdate,
            0x9 => Continuation,
            _ => return None,
        })
    }
}

/// Frame flag bits used by this implementation (RFC 9113 §6).
pub(crate) mod flags {
    /// DATA / HEADERS: no further frames on this stream.
    pub const END_STREAM: u8 = 0x1;
    /// SETTINGS / PING: acknowledgement.
    pub const ACK: u8 = 0x1;
    /// HEADERS / PUSH_PROMISE / CONTINUATION: header block complete.
    pub const END_HEADERS: u8 = 0x4;
    /// DATA / HEADERS / PUSH_PROMISE: payload is padded.
    pub const PADDED: u8 = 0x8;
    /// HEADERS: priority block present.
    pub const PRIORITY: u8 = 0x20;
}

/// The fixed 9-octet header preceding every frame payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Payload length (24 bits on the wire).
    pub length: u32,
    /// Frame type octet (kept raw so unknown types survive).
    pub kind: u8,
    /// Type-specific flag bits.
    pub flags: u8,
    /// Stream identifier (31 bits; the reserved bit is masked off).
    pub stream_id: u32,
}

impl FrameHeader {
    /// Parse a header from exactly [`FRAME_HEADER_LEN`] octets.
    pub fn parse(buf: &[u8; FRAME_HEADER_LEN]) -> FrameHeader {
        let length = u32::from(buf[0]) << 16 | u32::from(buf[1]) << 8 | u32::from(buf[2]);
        let kind = buf[3];
        let flags = buf[4];
        let stream_id = (u32::from(buf[5]) << 24
            | u32::from(buf[6]) << 16
            | u32::from(buf[7]) << 8
            | u32::from(buf[8]))
            & 0x7fff_ffff;
        FrameHeader {
            length,
            kind,
            flags,
            stream_id,
        }
    }

    /// Encode the header into `out`.
    pub fn encode(&self, out: &mut BytesMut) {
        debug_assert!(self.length < 1 << 24, "frame length must fit 24 bits");
        out.put_u8((self.length >> 16) as u8);
        out.put_u8((self.length >> 8) as u8);
        out.put_u8(self.length as u8);
        out.put_u8(self.kind);
        out.put_u8(self.flags);
        out.put_u32(self.stream_id & 0x7fff_ffff);
    }
}

/// A fully parsed HTTP/2 frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// DATA (0x0).
    Data(DataFrame),
    /// HEADERS (0x1).
    Headers(HeadersFrame),
    /// PRIORITY (0x2).
    Priority(PriorityFrame),
    /// RST_STREAM (0x3).
    RstStream(RstStreamFrame),
    /// SETTINGS (0x4).
    Settings(SettingsFrame),
    /// PUSH_PROMISE (0x5).
    PushPromise(PushPromiseFrame),
    /// PING (0x6).
    Ping(PingFrame),
    /// GOAWAY (0x7).
    GoAway(GoAwayFrame),
    /// WINDOW_UPDATE (0x8).
    WindowUpdate(WindowUpdateFrame),
    /// CONTINUATION (0x9).
    Continuation(ContinuationFrame),
    /// Extension frame type: ignored but surfaced for observability.
    Unknown {
        /// Raw type octet.
        kind: u8,
        /// Raw flags.
        flags: u8,
        /// Stream the frame arrived on.
        stream_id: u32,
        /// Raw payload.
        payload: Bytes,
    },
}

impl Frame {
    /// Parse a frame from its header and exactly `header.length` payload
    /// octets.
    pub fn parse(header: FrameHeader, payload: Bytes) -> Result<Frame, H2Error> {
        debug_assert_eq!(payload.len() as u32, header.length);
        let frame = match FrameType::from_u8(header.kind) {
            Some(FrameType::Data) => Frame::Data(DataFrame::parse(header, payload)?),
            Some(FrameType::Headers) => Frame::Headers(HeadersFrame::parse(header, payload)?),
            Some(FrameType::Priority) => Frame::Priority(PriorityFrame::parse(header, payload)?),
            Some(FrameType::RstStream) => Frame::RstStream(RstStreamFrame::parse(header, payload)?),
            Some(FrameType::Settings) => Frame::Settings(SettingsFrame::parse(header, payload)?),
            Some(FrameType::PushPromise) => {
                Frame::PushPromise(PushPromiseFrame::parse(header, payload)?)
            }
            Some(FrameType::Ping) => Frame::Ping(PingFrame::parse(header, payload)?),
            Some(FrameType::GoAway) => Frame::GoAway(GoAwayFrame::parse(header, payload)?),
            Some(FrameType::WindowUpdate) => {
                Frame::WindowUpdate(WindowUpdateFrame::parse(header, payload)?)
            }
            Some(FrameType::Continuation) => {
                Frame::Continuation(ContinuationFrame::parse(header, payload)?)
            }
            None => Frame::Unknown {
                kind: header.kind,
                flags: header.flags,
                stream_id: header.stream_id,
                payload,
            },
        };
        Ok(frame)
    }

    /// Encode the frame (header + payload) into `out`.
    pub fn encode(&self, out: &mut BytesMut) {
        match self {
            Frame::Data(f) => f.encode(out),
            Frame::Headers(f) => f.encode(out),
            Frame::Priority(f) => f.encode(out),
            Frame::RstStream(f) => f.encode(out),
            Frame::Settings(f) => f.encode(out),
            Frame::PushPromise(f) => f.encode(out),
            Frame::Ping(f) => f.encode(out),
            Frame::GoAway(f) => f.encode(out),
            Frame::WindowUpdate(f) => f.encode(out),
            Frame::Continuation(f) => f.encode(out),
            Frame::Unknown {
                kind,
                flags,
                stream_id,
                payload,
            } => {
                FrameHeader {
                    length: payload.len() as u32,
                    kind: *kind,
                    flags: *flags,
                    stream_id: *stream_id,
                }
                .encode(out);
                out.extend_from_slice(payload);
            }
        }
    }
}

/// Strip RFC 9113 §6.1 padding: the first payload octet is the pad length,
/// which must be shorter than the remaining payload.
pub(crate) fn strip_padding(payload: Bytes) -> Result<Bytes, H2Error> {
    if payload.is_empty() {
        return Err(H2Error::protocol("PADDED frame with empty payload"));
    }
    let pad_len = payload[0] as usize;
    let body = payload.slice(1..);
    if pad_len > body.len() {
        // Pad length >= remaining payload is a connection error (§6.1).
        return Err(H2Error::protocol("padding exceeds payload"));
    }
    Ok(body.slice(..body.len() - pad_len))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let h = FrameHeader {
            length: 0x0012_3456,
            kind: 0x4,
            flags: 0x1,
            stream_id: 0x7fff_ffff,
        };
        let mut buf = BytesMut::new();
        h.encode(&mut buf);
        assert_eq!(buf.len(), FRAME_HEADER_LEN);
        let parsed = FrameHeader::parse(buf[..].try_into().unwrap());
        assert_eq!(parsed, h);
    }

    #[test]
    fn reserved_bit_is_masked() {
        let mut raw = [0u8; FRAME_HEADER_LEN];
        raw[5] = 0xff; // set R bit + high stream id bits
        let h = FrameHeader::parse(&raw);
        assert_eq!(h.stream_id, 0x7f00_0000);
    }

    #[test]
    fn unknown_frame_roundtrips() {
        let f = Frame::Unknown {
            kind: 0xfa,
            flags: 0x3,
            stream_id: 5,
            payload: Bytes::from_static(b"ext"),
        };
        let mut buf = BytesMut::new();
        f.encode(&mut buf);
        let h = FrameHeader::parse(buf[..FRAME_HEADER_LEN].try_into().unwrap());
        let parsed = Frame::parse(h, Bytes::copy_from_slice(&buf[FRAME_HEADER_LEN..])).unwrap();
        assert_eq!(parsed, f);
    }

    #[test]
    fn padding_is_stripped() {
        // pad_len=2, body "ab", padding "\0\0"
        let payload = Bytes::from_static(&[2, b'a', b'b', 0, 0]);
        assert_eq!(strip_padding(payload).unwrap(), Bytes::from_static(b"ab"));
    }

    #[test]
    fn oversized_padding_rejected() {
        let payload = Bytes::from_static(&[5, b'a', b'b']);
        assert!(strip_padding(payload).is_err());
        assert!(strip_padding(Bytes::new()).is_err());
    }
}
