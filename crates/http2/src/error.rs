//! HTTP/2 error codes (RFC 9113 §7) and the crate error type.

use std::fmt;

/// RFC 9113 §7 error codes, carried by RST_STREAM and GOAWAY frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum ErrorCode {
    /// Graceful shutdown / no error.
    NoError = 0x0,
    /// Protocol error detected.
    Protocol = 0x1,
    /// Implementation fault.
    Internal = 0x2,
    /// Flow-control limits exceeded.
    FlowControl = 0x3,
    /// Settings not acknowledged in time.
    SettingsTimeout = 0x4,
    /// Frame received for a closed stream.
    StreamClosed = 0x5,
    /// Frame size incorrect.
    FrameSize = 0x6,
    /// Stream not processed.
    RefusedStream = 0x7,
    /// Stream cancelled.
    Cancel = 0x8,
    /// Compression state not updated.
    Compression = 0x9,
    /// TCP connection error for CONNECT.
    Connect = 0xa,
    /// Processing capacity exceeded.
    EnhanceYourCalm = 0xb,
    /// Negotiated TLS parameters not acceptable.
    InadequateSecurity = 0xc,
    /// Use HTTP/1.1 for the request.
    Http11Required = 0xd,
}

impl ErrorCode {
    /// Decode a wire value. Unknown codes map to `Internal` per RFC 9113 §7
    /// ("implementations MUST NOT trigger special behaviour" — we treat them
    /// as any connection error of our own making).
    pub fn from_u32(v: u32) -> ErrorCode {
        use ErrorCode::*;
        match v {
            0x0 => NoError,
            0x1 => Protocol,
            0x2 => Internal,
            0x3 => FlowControl,
            0x4 => SettingsTimeout,
            0x5 => StreamClosed,
            0x6 => FrameSize,
            0x7 => RefusedStream,
            0x8 => Cancel,
            0x9 => Compression,
            0xa => Connect,
            0xb => EnhanceYourCalm,
            0xc => InadequateSecurity,
            0xd => Http11Required,
            _ => Internal,
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}(0x{:x})", *self as u32)
    }
}

/// Errors surfaced by the HTTP/2 layer.
#[derive(Debug)]
pub enum H2Error {
    /// A connection-level protocol error; the connection must be torn down
    /// with a GOAWAY carrying this code (RFC 9113 §5.4.1).
    Connection(ErrorCode, String),
    /// A stream-level error; only the stream is reset (RFC 9113 §5.4.2).
    Stream(u32, ErrorCode, String),
    /// The peer sent GOAWAY and the connection is closing.
    GoAway(ErrorCode, String),
    /// Underlying socket error.
    Io(std::io::Error),
    /// The peer closed the connection cleanly.
    Closed,
}

impl H2Error {
    /// Convenience constructor for connection-level PROTOCOL_ERROR.
    pub fn protocol(msg: impl Into<String>) -> H2Error {
        H2Error::Connection(ErrorCode::Protocol, msg.into())
    }

    /// Convenience constructor for connection-level FRAME_SIZE_ERROR.
    pub fn frame_size(msg: impl Into<String>) -> H2Error {
        H2Error::Connection(ErrorCode::FrameSize, msg.into())
    }

    /// Convenience constructor for connection-level COMPRESSION_ERROR.
    pub fn compression(msg: impl Into<String>) -> H2Error {
        H2Error::Connection(ErrorCode::Compression, msg.into())
    }
}

impl fmt::Display for H2Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            H2Error::Connection(code, msg) => write!(f, "connection error {code}: {msg}"),
            H2Error::Stream(id, code, msg) => write!(f, "stream {id} error {code}: {msg}"),
            H2Error::GoAway(code, msg) => write!(f, "peer sent GOAWAY {code}: {msg}"),
            H2Error::Io(e) => write!(f, "io error: {e}"),
            H2Error::Closed => write!(f, "connection closed"),
        }
    }
}

impl std::error::Error for H2Error {}

impl From<std::io::Error> for H2Error {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            H2Error::Closed
        } else {
            H2Error::Io(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_code_roundtrip() {
        for v in 0u32..=0xd {
            assert_eq!(ErrorCode::from_u32(v) as u32, v);
        }
    }

    #[test]
    fn unknown_code_maps_to_internal() {
        assert_eq!(ErrorCode::from_u32(0xff), ErrorCode::Internal);
    }

    #[test]
    fn eof_becomes_closed() {
        let io = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "eof");
        assert!(matches!(H2Error::from(io), H2Error::Closed));
    }
}
