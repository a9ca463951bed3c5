//! HTTP/3 connection endpoints: control-stream SETTINGS exchange carrying
//! the SWW extension, and request/response transfer on bidirectional
//! streams — demonstrating the paper's §3.1 claim that the HTTP/2
//! negotiation carries over to HTTP/3 unchanged in spirit.

use crate::frame::{self, FrameError, H3Frame};
use crate::qpack;
use crate::settings::H3Settings;
use crate::transport::{QuicLite, TransportError};
use crate::varint;
use bytes::Bytes;
use std::borrow::Cow;
use std::io::Write;
use std::ops::Range;
use sww_http2::{GenAbility, Request, Response};
use tokio::io::{AsyncRead, AsyncWrite};

/// Unidirectional stream type for the control stream (RFC 9114 §6.2.1).
pub const STREAM_TYPE_CONTROL: u64 = 0x00;

/// HTTP/3 layer errors.
#[derive(Debug)]
pub enum H3Error {
    /// Transport failure.
    Transport(TransportError),
    /// Frame-layer failure.
    Frame(FrameError),
    /// QPACK failure.
    Qpack(qpack::QpackError),
    /// Semantic violation.
    Protocol(String),
}

impl std::fmt::Display for H3Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            H3Error::Transport(e) => write!(f, "transport: {e}"),
            H3Error::Frame(e) => write!(f, "frame: {e:?}"),
            H3Error::Qpack(e) => write!(f, "qpack: {e:?}"),
            H3Error::Protocol(m) => write!(f, "protocol: {m}"),
        }
    }
}

impl std::error::Error for H3Error {}

impl From<TransportError> for H3Error {
    fn from(e: TransportError) -> Self {
        H3Error::Transport(e)
    }
}

impl From<FrameError> for H3Error {
    fn from(e: FrameError) -> Self {
        H3Error::Frame(e)
    }
}

impl From<qpack::QpackError> for H3Error {
    fn from(e: qpack::QpackError) -> Self {
        H3Error::Qpack(e)
    }
}

/// What one unidirectional (control) stream carried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ControlSignal {
    /// SETTINGS were applied (initial exchange or a mid-connection
    /// update such as an ability withdraw/restore).
    Settings,
    /// The peer announced graceful shutdown.
    Goaway,
}

/// Build a control-stream payload: stream type + one SETTINGS frame.
pub(crate) fn control_stream_payload(settings: &H3Settings) -> Vec<u8> {
    control_frame_payload(&settings.to_frame())
}

/// Build a control-stream payload carrying an arbitrary control frame
/// (SETTINGS update, GOAWAY). The `QuicLite` shim closes each stream
/// with FIN before the receiver sees it, so every control *message*
/// travels on a fresh control-typed stream rather than as successive
/// frames on one long-lived stream — same frames, shim-shaped framing.
pub(crate) fn control_frame_payload(frame: &H3Frame) -> Vec<u8> {
    let mut out = Vec::new();
    varint::encode(STREAM_TYPE_CONTROL, &mut out);
    frame.encode(&mut out);
    out
}

/// Parse a received control stream: verify the type, apply SETTINGS or
/// note a GOAWAY, and report which it was.
pub(crate) fn apply_control_stream(
    data: &[u8],
    settings: &mut H3Settings,
) -> Result<ControlSignal, H3Error> {
    let mut pos = 0usize;
    let stream_type = varint::decode(data, &mut pos)
        .map_err(|_| H3Error::Protocol("control stream type truncated".into()))?;
    if stream_type != STREAM_TYPE_CONTROL {
        return Err(H3Error::Protocol(format!(
            "unexpected unidirectional stream type {stream_type}"
        )));
    }
    let frame = H3Frame::decode(data, &mut pos)?;
    match frame {
        H3Frame::Settings(pairs) => {
            settings.apply(&pairs);
            Ok(ControlSignal::Settings)
        }
        H3Frame::GoAway(_) => Ok(ControlSignal::Goaway),
        other => Err(H3Error::Protocol(format!(
            "control frame must be SETTINGS or GOAWAY, got {other:?}"
        ))),
    }
}

/// Encode a request as an HTTP/3 request-stream payload.
pub(crate) fn encode_request(req: &Request) -> Vec<u8> {
    encode_message(req.field_lines(), &req.body)
}

/// Decode a request-stream payload into a request.
pub(crate) fn decode_request(data: &[u8]) -> Result<Request, H3Error> {
    let mut req = Request::default();
    let body = decode_message(data, |name, value| {
        req.push_field(name, value).map_err(protocol)
    })?;
    req.body = body;
    req.validated().map_err(protocol)
}

/// Encode a response as a response-stream payload.
pub(crate) fn encode_response(resp: &Response) -> Vec<u8> {
    let mut digits = [0u8; 5];
    let written = {
        let mut unwritten = &mut digits[..];
        write!(unwritten, "{}", resp.status).expect("a u16 has at most five digits");
        5 - unwritten.len()
    };
    let status = std::str::from_utf8(&digits[..written]).expect("decimal digits");
    let lines = std::iter::once((":status", status)).chain(
        resp.headers
            .iter()
            .map(|f| (f.name.as_str(), f.value.as_str())),
    );
    encode_message(lines, &resp.body)
}

pub(crate) fn decode_response(data: &[u8]) -> Result<Response, H3Error> {
    let mut resp = Response::status(0);
    let body = decode_message(data, |name, value| {
        resp.push_field(name, value).map_err(protocol)
    })?;
    resp.body = body;
    resp.validated().map_err(protocol)
}

fn protocol(e: sww_http2::H2Error) -> H3Error {
    H3Error::Protocol(e.to_string())
}

/// Octets kept for a message's HEADERS frame before its body's; a larger
/// section grows the buffer once.
const HEADERS_ROOM: usize = 128;

/// Shared message encoding: the field lines QPACK-coded straight into a
/// HEADERS frame, then the body as one DATA frame.
fn encode_message<'a>(
    lines: impl IntoIterator<Item = (&'a str, &'a str)>,
    body: &Bytes,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADERS_ROOM + body.len());
    frame::encode_in_place(frame::TYPE_HEADERS, &mut out, |out| {
        qpack::encode_into(lines, out)
    });
    if !body.is_empty() {
        H3Frame::Data(body.clone()).encode(&mut out);
    }
    out
}

/// Shared message decoding, in place over the stream's octets: HEADERS
/// then zero or more DATA frames, ignoring reserved/unknown frames per
/// RFC 9114 §9. The first HEADERS frame's fields go to `field` in wire
/// order; the body is copied once, out of its DATA frames.
fn decode_message(
    data: &[u8],
    mut field: impl FnMut(Cow<'static, str>, String) -> Result<(), H3Error>,
) -> Result<Bytes, H3Error> {
    let mut pos = 0usize;
    let mut headers = false;
    // The first DATA payload, and all of them joined once there are more.
    let mut first: Option<Range<usize>> = None;
    let mut joined = Vec::new();
    while pos < data.len() {
        let (kind, payload) = frame::decode_in_place(data, &mut pos)?;
        match kind {
            frame::TYPE_HEADERS if !headers => {
                qpack::decode_with(&data[payload], &mut field)?;
                headers = true;
            }
            // A second HEADERS frame would be trailers; ignored.
            frame::TYPE_HEADERS => {}
            frame::TYPE_DATA => match &first {
                None => first = Some(payload),
                Some(first) => {
                    if joined.is_empty() {
                        joined.extend_from_slice(&data[first.clone()]);
                    }
                    joined.extend_from_slice(&data[payload]);
                }
            },
            frame::TYPE_SETTINGS
            | frame::TYPE_GOAWAY
            | frame::TYPE_CANCEL_PUSH
            | frame::TYPE_MAX_PUSH_ID => {
                return Err(H3Error::Protocol(format!(
                    "unexpected frame type {kind:#x} on request stream"
                )))
            }
            _ => {} // greased frames are skipped
        }
    }
    if !headers {
        return Err(H3Error::Protocol("message without HEADERS".into()));
    }
    Ok(match first {
        Some(first) if joined.is_empty() => Bytes::copy_from_slice(&data[first]),
        Some(_) => Bytes::from(joined),
        None => Bytes::new(),
    })
}

/// A resumption ticket: the server settings a client remembers from a
/// previous connection. Presenting one lets
/// [`H3ClientConnection::handshake_0rtt`] skip the wait for the server's
/// control stream and put the first request on the wire in the very
/// first flight — the QUIC 0-RTT shape, minus the crypto.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionTicket {
    /// The server's settings as seen when the ticket was minted.
    pub server_settings: H3Settings,
}

/// An HTTP/3 client connection.
pub struct H3ClientConnection<T> {
    quic: QuicLite<T>,
    local: H3Settings,
    remote: H3Settings,
    /// Responses that finished while we were waiting on a different
    /// stream — the no-head-of-line-blocking stash.
    ready: std::collections::HashMap<u64, Vec<u8>>,
    /// Whether the server's authoritative control stream has been seen
    /// (false while running on a 0-RTT ticket).
    server_control_seen: bool,
    /// This connection resumed from a [`SessionTicket`].
    resumed: bool,
}

impl<T: AsyncRead + AsyncWrite + Unpin> H3ClientConnection<T> {
    fn start(io: T, ability: GenAbility) -> (QuicLite<T>, H3Settings, Vec<u8>) {
        let quic = QuicLite::client(io);
        let local = H3Settings::sww(ability);
        let payload = control_stream_payload(&local);
        (quic, local, payload)
    }

    /// Handshake: exchange control streams carrying SETTINGS (including
    /// GEN_ABILITY) and return the connected client.
    pub async fn handshake(io: T, ability: GenAbility) -> Result<H3ClientConnection<T>, H3Error> {
        let (mut quic, local, payload) = Self::start(io, ability);
        let control = quic.open_uni();
        quic.send(control, &payload, true).await?;
        let mut conn = H3ClientConnection {
            quic,
            local,
            remote: H3Settings::default(),
            ready: std::collections::HashMap::new(),
            server_control_seen: false,
            resumed: false,
        };
        // Await the server's control stream before the first request —
        // the full 1-RTT setup.
        while !conn.server_control_seen {
            let (stream, data) = conn.quic.recv_any_stream().await?;
            conn.consume(stream, data)?;
        }
        Ok(conn)
    }

    /// 0-RTT resumption: adopt the ticket's remembered server settings
    /// and return immediately — without reading a single server byte —
    /// so the first request rides the same flight as the client's
    /// SETTINGS. The server's real control stream is applied whenever it
    /// arrives, transparently correcting a stale ticket.
    pub async fn handshake_0rtt(
        io: T,
        ability: GenAbility,
        ticket: SessionTicket,
    ) -> Result<H3ClientConnection<T>, H3Error> {
        let (mut quic, local, payload) = Self::start(io, ability);
        let control = quic.open_uni();
        quic.send(control, &payload, true).await?;
        Ok(H3ClientConnection {
            quic,
            local,
            remote: ticket.server_settings,
            ready: std::collections::HashMap::new(),
            server_control_seen: false,
            resumed: true,
        })
    }

    /// Mint a resumption ticket for a future [`handshake_0rtt`].
    ///
    /// [`handshake_0rtt`]: H3ClientConnection::handshake_0rtt
    pub fn session_ticket(&self) -> SessionTicket {
        SessionTicket {
            server_settings: self.remote,
        }
    }

    /// Whether this connection resumed from a ticket.
    pub fn resumed(&self) -> bool {
        self.resumed
    }

    /// Whether the server's authoritative control stream has been seen
    /// (always true after [`H3ClientConnection::handshake`]; becomes true
    /// on a 0-RTT connection once any response has been collected).
    pub fn server_control_seen(&self) -> bool {
        self.server_control_seen
    }

    /// The server's advertised ability.
    pub fn server_ability(&self) -> GenAbility {
        self.remote.gen_ability
    }

    /// The shared capability after negotiation.
    pub fn negotiated_ability(&self) -> GenAbility {
        self.local.gen_ability.intersect(self.remote.gen_ability)
    }

    /// Re-announce this client's ability mid-connection (withdraw or
    /// restore) on a fresh control-typed stream. The pair is always
    /// explicit on the wire — settings keep their previous value, so
    /// withdrawal cannot be expressed by omission.
    pub async fn update_ability(&mut self, ability: GenAbility) -> Result<(), H3Error> {
        self.local.gen_ability = ability;
        let stream = self.quic.open_uni();
        let payload = control_frame_payload(&H3Settings::ability_update_frame(ability));
        self.quic.send(stream, &payload, true).await?;
        Ok(())
    }

    /// Route one completed incoming stream: server-uni streams carry
    /// control signals, bidirectional streams carry responses (stashed
    /// until their requester asks).
    fn consume(&mut self, stream: u64, data: Vec<u8>) -> Result<(), H3Error> {
        if crate::transport::stream_id::is_uni(stream) {
            // The first authoritative SETTINGS replace a 0-RTT ticket's
            // remembered values wholesale — an omitted ability pair from
            // a non-participating server must erase the stale guess, not
            // merge with it. Later updates merge as usual.
            let mut incoming = if self.server_control_seen {
                self.remote
            } else {
                H3Settings::default()
            };
            match apply_control_stream(&data, &mut incoming)? {
                ControlSignal::Settings => {
                    self.remote = incoming;
                    self.server_control_seen = true;
                }
                // The server still answers the streams in flight; the
                // client has nothing to change.
                ControlSignal::Goaway => {}
            }
        } else {
            self.ready.insert(stream, data);
        }
        Ok(())
    }

    /// Read until `stream` completes, consuming control streams and
    /// stashing other responses along the way.
    async fn collect(&mut self, stream: u64) -> Result<Response, H3Error> {
        loop {
            if let Some(data) = self.ready.remove(&stream) {
                return decode_response(&data);
            }
            let (id, data) = self.quic.recv_any_stream().await?;
            self.consume(id, data)?;
        }
    }

    /// Issue a request on a fresh bidirectional stream.
    pub async fn send_request(&mut self, req: &Request) -> Result<Response, H3Error> {
        let stream = self.quic.open_bidi();
        self.quic.send(stream, &encode_request(req), true).await?;
        self.collect(stream).await
    }

    /// Issue a batch of requests, each on its own stream, *before*
    /// reading any response — the page-load pattern. Responses are
    /// returned in request order but collected in arrival order, so one
    /// slow generation never blocks the wire behind it (no head-of-line
    /// blocking across streams).
    pub async fn send_requests(&mut self, reqs: &[Request]) -> Result<Vec<Response>, H3Error> {
        let mut streams = Vec::with_capacity(reqs.len());
        for req in reqs {
            let stream = self.quic.open_bidi();
            self.quic.send(stream, &encode_request(req), true).await?;
            streams.push(stream);
        }
        let mut out = Vec::with_capacity(streams.len());
        for stream in streams {
            out.push(self.collect(stream).await?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::serve_h3_connection;
    use proptest::prelude::*;

    /// One seeded edit of a valid stream: flip a bit, overwrite an octet,
    /// cut the end or insert an octet, as `how` picks.
    fn mutate(mut bytes: Vec<u8>, how: u8, at: usize, octet: u8) -> Vec<u8> {
        let i = at % (bytes.len() + 1);
        match how % 4 {
            0 if i < bytes.len() => bytes[i] ^= 1 << (octet % 8),
            1 if i < bytes.len() => bytes[i] = octet,
            2 => bytes.truncate(i),
            _ => bytes.insert(i, octet),
        }
        bytes
    }

    fn arb_request() -> impl Strategy<Value = Request> {
        (
            "/[a-z0-9/]{0,24}",
            prop::collection::vec(("[a-z][a-z-]{0,12}", "[ -~]{0,24}"), 0..4),
            prop::collection::vec(any::<u8>(), 0..48),
        )
            .prop_map(|(path, headers, body)| {
                let mut req = Request::get(path);
                for (name, value) in headers {
                    req.headers.insert(name, value);
                }
                req.body = Bytes::from(body);
                req
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// A request stream and the response stream answering it, each
        /// round-tripped, then edited by seeded mutations: every edit
        /// decodes to a message or to an error, never a panic.
        #[test]
        fn mutated_message_streams_decode_or_fail_without_panicking(
            req in arb_request(),
            status in prop_oneof![Just(200u16), Just(304), Just(404), 100u16..1000],
            edits in prop::collection::vec((any::<u8>(), any::<usize>(), any::<u8>()), 1..4),
        ) {
            let mut resp = Response::status(status);
            resp.headers = req.headers.clone();
            resp.body = req.body.clone();
            let (mut req_stream, mut resp_stream) = (encode_request(&req), encode_response(&resp));
            prop_assert_eq!(decode_request(&req_stream).unwrap(), req.clone());
            prop_assert_eq!(decode_response(&resp_stream).unwrap(), resp.clone());
            for (how, at, octet) in edits {
                req_stream = mutate(req_stream, how, at, octet);
                resp_stream = mutate(resp_stream, how, at, octet);
            }
            let _ = decode_request(&req_stream);
            let _ = decode_response(&resp_stream);
        }
    }

    #[test]
    fn a_body_split_over_data_frames_is_joined() {
        let mut stream = encode_request(&Request::get("/split"));
        for part in [&b""[..], b"ab", b"", b"cde"] {
            H3Frame::Data(Bytes::copy_from_slice(part)).encode(&mut stream);
        }
        assert_eq!(&decode_request(&stream).unwrap().body[..], b"abcde");
    }

    #[test]
    fn a_control_frame_on_a_request_stream_is_refused() {
        let mut stream = encode_request(&Request::get("/x"));
        H3Frame::GoAway(4).encode(&mut stream);
        assert!(matches!(decode_request(&stream), Err(H3Error::Protocol(_))));
        let mut stream = Vec::new();
        H3Frame::Data(Bytes::from_static(b"no headers")).encode(&mut stream);
        assert!(matches!(decode_request(&stream), Err(H3Error::Protocol(_))));
    }

    async fn pair(
        server_ability: GenAbility,
        client_ability: GenAbility,
    ) -> H3ClientConnection<tokio::io::DuplexStream> {
        let (a, b) = tokio::io::duplex(1 << 20);
        tokio::spawn(async move {
            let _ = serve_h3_connection(b, server_ability, |req: Request, ctx| {
                let mut resp = Response::ok(Bytes::from(format!(
                    "echo:{} gen:{}",
                    req.path,
                    ctx.negotiated().can_generate()
                )));
                resp.headers.insert("content-type", "text/plain");
                resp
            })
            .await;
        });
        H3ClientConnection::handshake(a, client_ability)
            .await
            .expect("h3 handshake")
    }

    #[tokio::test]
    async fn h3_negotiation_both_support() {
        let mut client = pair(GenAbility::full(), GenAbility::full()).await;
        assert!(client.negotiated_ability().can_generate());
        assert!(client.server_ability().can_generate());
        let resp = client.send_request(&Request::get("/h3")).await.unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(&resp.body[..], b"echo:/h3 gen:true");
    }

    #[tokio::test]
    async fn h3_negotiation_fallback() {
        let mut client = pair(GenAbility::full(), GenAbility::none()).await;
        assert!(!client.negotiated_ability().supported());
        let resp = client.send_request(&Request::get("/x")).await.unwrap();
        assert_eq!(&resp.body[..], b"echo:/x gen:false");
    }

    #[tokio::test]
    async fn h3_multiple_requests_distinct_streams() {
        let mut client = pair(GenAbility::full(), GenAbility::full()).await;
        for i in 0..5 {
            let resp = client
                .send_request(&Request::get(format!("/r{i}")))
                .await
                .unwrap();
            assert_eq!(&resp.body[..], format!("echo:/r{i} gen:true").as_bytes());
        }
    }

    #[tokio::test]
    async fn h3_post_body_travels() {
        let (a, b) = tokio::io::duplex(1 << 20);
        tokio::spawn(async move {
            let _ = serve_h3_connection(b, GenAbility::full(), |req: Request, _ctx| {
                Response::ok(Bytes::from(req.body.len().to_string()))
            })
            .await;
        });
        let mut client = H3ClientConnection::handshake(a, GenAbility::full())
            .await
            .unwrap();
        let mut req = Request::get("/upload");
        req.method = "POST".into();
        req.body = Bytes::from(vec![1u8; 50_000]);
        let resp = client.send_request(&req).await.unwrap();
        assert_eq!(&resp.body[..], b"50000");
    }

    #[tokio::test]
    async fn same_ability_type_as_http2() {
        // The §3.1 point: one capability model across both protocol
        // versions. Negotiate over H3, then reuse the value with the
        // HTTP/2 Settings structure.
        let client = pair(GenAbility::upscale_only(), GenAbility::upscale_only()).await;
        let negotiated = client.negotiated_ability();
        assert!(negotiated.can_upscale());
        let h2 = sww_http2::Settings::sww(negotiated);
        assert!(h2.gen_ability.can_upscale());
    }
}
