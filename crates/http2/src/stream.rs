//! Stream states (RFC 9113 §5.1) and flow-control windows (§5.2).

use crate::error::{ErrorCode, H2Error};

/// The RFC 9113 §5.1 stream state machine.
///
/// ```text
///                 +--------+
///             .---|  idle  |---.
///  send/recv H|   +--------+   |send/recv H (+ES)
///             v                v
///         +--------+      half-closed
///         |  open  |----> (local/remote)
///         +--------+           |
///             |                v
///             '---------> +--------+
///        send/recv RST    | closed |
///                         +--------+
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamState {
    /// No frames exchanged yet.
    Idle,
    /// Both directions open.
    Open,
    /// We sent END_STREAM; peer may still send.
    HalfClosedLocal,
    /// Peer sent END_STREAM; we may still send.
    HalfClosedRemote,
    /// Terminal state.
    Closed,
}

impl StreamState {
    /// Apply "we sent HEADERS" (optionally ending the stream).
    pub(crate) fn on_send_headers(self, end_stream: bool) -> Result<StreamState, H2Error> {
        use StreamState::*;
        Ok(match (self, end_stream) {
            (Idle, false) => Open,
            (Idle, true) => HalfClosedLocal,
            // Trailers on an open stream.
            (Open, true) => HalfClosedLocal,
            (Open, false) => Open,
            (HalfClosedRemote, true) => Closed,
            (HalfClosedRemote, false) => HalfClosedRemote,
            (s, _) => {
                return Err(H2Error::protocol(format!("cannot send HEADERS in {s:?}")));
            }
        })
    }

    /// Apply "we received HEADERS".
    pub(crate) fn on_recv_headers(self, end_stream: bool) -> Result<StreamState, H2Error> {
        use StreamState::*;
        Ok(match (self, end_stream) {
            (Idle, false) => Open,
            (Idle, true) => HalfClosedRemote,
            (Open, true) => HalfClosedRemote,
            (Open, false) => Open,
            (HalfClosedLocal, true) => Closed,
            (HalfClosedLocal, false) => HalfClosedLocal,
            (s, _) => {
                return Err(H2Error::protocol(format!("HEADERS received in {s:?}")));
            }
        })
    }

    /// Apply "we sent DATA".
    pub(crate) fn on_send_data(self, end_stream: bool) -> Result<StreamState, H2Error> {
        use StreamState::*;
        Ok(match (self, end_stream) {
            (Open, false) => Open,
            (Open, true) => HalfClosedLocal,
            (HalfClosedRemote, false) => HalfClosedRemote,
            (HalfClosedRemote, true) => Closed,
            (s, _) => {
                return Err(H2Error::protocol(format!("cannot send DATA in {s:?}")));
            }
        })
    }

    /// Apply "we received DATA". A frame on a closed/idle stream is a
    /// STREAM_CLOSED / PROTOCOL_ERROR condition (§5.1).
    pub(crate) fn on_recv_data(
        self,
        stream_id: u32,
        end_stream: bool,
    ) -> Result<StreamState, H2Error> {
        use StreamState::*;
        Ok(match (self, end_stream) {
            (Open, false) => Open,
            (Open, true) => HalfClosedRemote,
            (HalfClosedLocal, false) => HalfClosedLocal,
            (HalfClosedLocal, true) => Closed,
            (Idle, _) => return Err(H2Error::protocol("DATA on idle stream")),
            (Closed | HalfClosedRemote, _) => {
                return Err(H2Error::Stream(
                    stream_id,
                    ErrorCode::StreamClosed,
                    "DATA on closed stream".into(),
                ));
            }
        })
    }

    /// Whether the stream is finished in both directions.
    pub(crate) fn is_closed(self) -> bool {
        matches!(self, StreamState::Closed)
    }
}

/// A flow-control window (connection- or stream-scoped). Window sizes are
/// signed: SETTINGS_INITIAL_WINDOW_SIZE changes can push them negative
/// (RFC 9113 §6.9.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowWindow {
    available: i64,
}

/// Maximum window size, 2^31 - 1.
pub const MAX_WINDOW: i64 = 0x7fff_ffff;

impl FlowWindow {
    /// A window with `initial` octets of credit.
    pub(crate) fn new(initial: u32) -> FlowWindow {
        FlowWindow {
            available: i64::from(initial),
        }
    }

    /// Octets currently sendable (0 when the window is negative).
    pub(crate) fn available(&self) -> usize {
        self.available.max(0) as usize
    }

    /// Consume credit for octets we are sending/receiving.
    pub(crate) fn consume(&mut self, n: usize) -> Result<(), H2Error> {
        let n = n as i64;
        if n > self.available {
            return Err(H2Error::Connection(
                ErrorCode::FlowControl,
                "flow-control window exceeded".into(),
            ));
        }
        self.available -= n;
        Ok(())
    }

    /// Add credit from a WINDOW_UPDATE. Overflow past 2^31-1 is a
    /// FLOW_CONTROL_ERROR (§6.9.1).
    pub(crate) fn grant(&mut self, n: u32) -> Result<(), H2Error> {
        self.available += i64::from(n);
        if self.available > MAX_WINDOW {
            return Err(H2Error::Connection(
                ErrorCode::FlowControl,
                "window overflow".into(),
            ));
        }
        Ok(())
    }

    /// Apply a SETTINGS_INITIAL_WINDOW_SIZE delta (§6.9.2); may go negative.
    pub(crate) fn adjust(&mut self, delta: i64) -> Result<(), H2Error> {
        self.available += delta;
        if self.available > MAX_WINDOW {
            return Err(H2Error::Connection(
                ErrorCode::FlowControl,
                "window overflow after settings change".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn happy_path_request_response() {
        // Client view: send request with END_STREAM, receive response.
        let s = StreamState::Idle;
        let s = s.on_send_headers(true).unwrap();
        assert_eq!(s, StreamState::HalfClosedLocal);
        let s = s.on_recv_headers(false).unwrap();
        assert_eq!(s, StreamState::HalfClosedLocal);
        let s = s.on_recv_data(1, true).unwrap();
        assert!(s.is_closed());
    }

    #[test]
    fn server_view() {
        let s = StreamState::Idle;
        let s = s.on_recv_headers(true).unwrap();
        assert_eq!(s, StreamState::HalfClosedRemote);
        let s = s.on_send_headers(false).unwrap();
        let s = s.on_send_data(true).unwrap();
        assert!(s.is_closed());
    }

    #[test]
    fn data_on_idle_is_protocol_error() {
        assert!(matches!(
            StreamState::Idle.on_recv_data(1, false),
            Err(H2Error::Connection(ErrorCode::Protocol, _))
        ));
    }

    #[test]
    fn data_on_closed_is_stream_error() {
        assert!(matches!(
            StreamState::Closed.on_recv_data(5, false),
            Err(H2Error::Stream(5, ErrorCode::StreamClosed, _))
        ));
    }

    #[test]
    fn window_consume_and_grant() {
        let mut w = FlowWindow::new(10);
        w.consume(4).unwrap();
        assert_eq!(w.available(), 6);
        assert!(w.consume(7).is_err());
        w.grant(5).unwrap();
        assert_eq!(w.available(), 11);
    }

    #[test]
    fn window_overflow_rejected() {
        let mut w = FlowWindow::new(u32::MAX >> 1);
        assert!(w.grant(10).is_err());
    }

    #[test]
    fn settings_adjust_can_go_negative() {
        let mut w = FlowWindow::new(100);
        w.consume(100).unwrap();
        w.adjust(-50).unwrap();
        assert_eq!(w.available(), 0);
        w.grant(60).unwrap();
        assert_eq!(w.available(), 10);
    }
}
