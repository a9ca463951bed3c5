//! Connection plumbing shared by client and server: framed I/O, SETTINGS
//! exchange, header-block assembly, flow control and stream tracking.

use crate::error::{ErrorCode, H2Error};
use crate::frame::{
    ContinuationFrame, DataFrame, Frame, FrameHeader, GoAwayFrame, HeadersFrame, PingFrame,
    RstStreamFrame, SettingsFrame, WindowUpdateFrame, FRAME_HEADER_LEN,
};
use crate::hpack::{Decoder, Encoder, HeaderField};
use crate::settings::{GenAbility, Settings};
use crate::stream::{FlowWindow, StreamState};
use bytes::{Bytes, BytesMut};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use tokio::io::{AsyncRead, AsyncReadExt, AsyncWrite, AsyncWriteExt};

/// Hard cap on accepted frame payloads, defending the read buffer.
const ABSOLUTE_MAX_FRAME: u32 = 1 << 24;

/// Cap on an assembled header block across HEADERS + CONTINUATION frames,
/// defending against CONTINUATION floods (a peer streaming unbounded
/// fragments without END_HEADERS).
const MAX_HEADER_BLOCK: usize = 1 << 20;

/// Framed frame reader/writer over any async byte stream.
#[derive(Debug)]
pub struct FrameIo<T> {
    io: T,
    /// Largest payload we accept (our SETTINGS_MAX_FRAME_SIZE).
    pub max_recv_frame: u32,
}

impl<T: AsyncRead + AsyncWrite + Unpin> FrameIo<T> {
    /// Wrap a byte stream.
    pub fn new(io: T) -> FrameIo<T> {
        FrameIo {
            io,
            max_recv_frame: crate::frame::DEFAULT_MAX_FRAME_SIZE,
        }
    }

    /// Read one frame.
    pub async fn read_frame(&mut self) -> Result<Frame, H2Error> {
        let mut head = [0u8; FRAME_HEADER_LEN];
        self.io.read_exact(&mut head).await?;
        let header = FrameHeader::parse(&head);
        if header.length > self.max_recv_frame.min(ABSOLUTE_MAX_FRAME) {
            return Err(H2Error::frame_size(format!(
                "frame of {} octets exceeds limit",
                header.length
            )));
        }
        let mut payload = vec![0u8; header.length as usize];
        self.io.read_exact(&mut payload).await?;
        Frame::parse(header, Bytes::from(payload))
    }

    /// Write one frame and flush.
    pub async fn write_frame(&mut self, frame: &Frame) -> Result<(), H2Error> {
        let mut buf = BytesMut::with_capacity(FRAME_HEADER_LEN + 512);
        frame.encode(&mut buf);
        self.io.write_all(&buf).await?;
        self.io.flush().await?;
        Ok(())
    }

    /// Write raw octets (the client preface) and flush.
    pub async fn write_raw(&mut self, bytes: &[u8]) -> Result<(), H2Error> {
        self.io.write_all(bytes).await?;
        self.io.flush().await?;
        Ok(())
    }

    /// Read exactly `buf.len()` raw octets (the server reading the preface).
    pub async fn read_raw(&mut self, buf: &mut [u8]) -> Result<(), H2Error> {
        self.io.read_exact(buf).await?;
        Ok(())
    }
}

/// Direction of a traced frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Frame written by this endpoint.
    Sent,
    /// Frame read from the peer.
    Received,
}

/// One entry of the frame trace — a tcpdump-style summary of a frame that
/// crossed the connection, for debugging and protocol tests.
#[derive(Debug, Clone)]
pub struct FrameTraceEntry {
    /// Sent or received.
    pub direction: Direction,
    /// Frame type name ("SETTINGS", "HEADERS", …).
    pub kind: &'static str,
    /// Stream the frame applied to (0 = connection).
    pub stream_id: u32,
    /// Payload length in octets.
    pub length: usize,
}

fn frame_kind_name(frame: &Frame) -> &'static str {
    match frame {
        Frame::Data(_) => "DATA",
        Frame::Headers(_) => "HEADERS",
        Frame::Priority(_) => "PRIORITY",
        Frame::RstStream(_) => "RST_STREAM",
        Frame::Settings(s) if s.ack => "SETTINGS_ACK",
        Frame::Settings(_) => "SETTINGS",
        Frame::PushPromise(_) => "PUSH_PROMISE",
        Frame::Ping(p) if p.ack => "PING_ACK",
        Frame::Ping(_) => "PING",
        Frame::GoAway(_) => "GOAWAY",
        Frame::WindowUpdate(_) => "WINDOW_UPDATE",
        Frame::Continuation(_) => "CONTINUATION",
        Frame::Unknown { .. } => "UNKNOWN",
    }
}

fn frame_payload_len(frame: &Frame) -> usize {
    match frame {
        Frame::Data(f) => f.data.len(),
        Frame::Headers(f) => f.fragment.len(),
        Frame::Continuation(f) => f.fragment.len(),
        Frame::Settings(s) => s.params.len() * 6,
        Frame::GoAway(g) => 8 + g.debug_data.len(),
        Frame::Ping(_) => 8,
        Frame::RstStream(_) | Frame::WindowUpdate(_) => 4,
        Frame::Priority(_) => 5,
        Frame::PushPromise(f) => 4 + f.fragment.len(),
        Frame::Unknown { payload, .. } => payload.len(),
    }
}

/// A complete message (header block + full body) received on one stream.
#[derive(Debug, Clone)]
pub struct CompleteMessage {
    /// Stream the message arrived on.
    pub stream_id: u32,
    /// Decoded header fields, pseudo-headers first.
    pub fields: Vec<HeaderField>,
    /// Concatenated DATA payload.
    pub body: Bytes,
}

#[derive(Debug)]
struct StreamEntry {
    state: StreamState,
    send_window: FlowWindow,
    fields: Option<Vec<HeaderField>>,
    body: BytesMut,
}

impl StreamEntry {
    fn new(initial_send_window: u32) -> StreamEntry {
        StreamEntry {
            state: StreamState::Idle,
            send_window: FlowWindow::new(initial_send_window),
            fields: None,
            body: BytesMut::new(),
        }
    }
}

#[derive(Debug)]
struct HeaderAssembly {
    stream_id: u32,
    end_stream: bool,
    fragments: Vec<u8>,
}

/// The endpoint role, which fixes stream-id parity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Initiates odd-numbered streams.
    Client,
    /// Accepts streams; would push on even ids (we never push).
    Server,
}

/// A full HTTP/2 connection endpoint: owns the socket, both settings
/// structures, HPACK state, flow-control windows, and per-stream state.
#[derive(Debug)]
pub struct Connection<T> {
    io: FrameIo<T>,
    role: Role,
    /// Settings we announced.
    pub local: Settings,
    /// Settings the peer announced.
    pub remote: Settings,
    enc: Encoder,
    dec: Decoder,
    conn_send: FlowWindow,
    /// Live streams only: an entry is dropped as soon as its stream is
    /// closed and its message handed over, so a connection's memory is
    /// O(in-flight), not O(requests ever made). "Closed" and "never
    /// opened" are told apart by the two id high-water marks below.
    streams: HashMap<u32, StreamEntry>,
    assembly: Option<HeaderAssembly>,
    next_stream_id: u32,
    /// Highest stream id the peer has opened (0 = none yet). Peer ids
    /// must strictly increase (RFC 9113 §5.1.1), so every peer id at or
    /// below this is spent whether or not the table still holds it.
    highest_peer_stream: u32,
    pending: VecDeque<CompleteMessage>,
    remote_settings_seen: bool,
    goaway_received: bool,
    /// Bytes of padding/overhead counters for the stats layer.
    pub bytes_sent: u64,
    /// Total payload bytes received in DATA frames.
    pub bytes_received: u64,
    /// When enabled, a tcpdump-style log of every frame crossing the
    /// connection (see [`Connection::enable_trace`]).
    trace: Option<Vec<FrameTraceEntry>>,
}

impl<T: AsyncRead + AsyncWrite + Unpin> Connection<T> {
    fn new(io: T, role: Role, local: Settings) -> Connection<T> {
        Connection {
            io: FrameIo::new(io),
            role,
            local,
            remote: Settings::default(),
            enc: Encoder::new(),
            dec: Decoder::new(),
            conn_send: FlowWindow::new(65_535),
            streams: HashMap::new(),
            assembly: None,
            next_stream_id: if role == Role::Client { 1 } else { 2 },
            highest_peer_stream: 0,
            pending: VecDeque::new(),
            remote_settings_seen: false,
            goaway_received: false,
            bytes_sent: 0,
            bytes_received: 0,
            trace: None,
        }
    }

    /// Client-side handshake: send preface and SETTINGS, then process
    /// frames until the peer's SETTINGS arrive (paper §5.2: "the generative
    /// client begins by establishing a connection to the server, followed
    /// by exchanging settings").
    pub async fn client_handshake(io: T, local: Settings) -> Result<Connection<T>, H2Error> {
        let mut conn = Connection::new(io, Role::Client, local);
        conn.io.write_raw(crate::PREFACE).await?;
        conn.send_local_settings().await?;
        conn.await_remote_settings().await?;
        Ok(conn)
    }

    /// Server-side handshake: read the preface, send SETTINGS, then process
    /// frames until the client's SETTINGS arrive.
    pub async fn server_handshake(io: T, local: Settings) -> Result<Connection<T>, H2Error> {
        let mut conn = Connection::new(io, Role::Server, local);
        let mut preface = [0u8; 24];
        conn.io.read_raw(&mut preface).await?;
        if preface != *crate::PREFACE {
            return Err(H2Error::protocol("bad connection preface"));
        }
        conn.send_local_settings().await?;
        conn.await_remote_settings().await?;
        Ok(conn)
    }

    async fn send_local_settings(&mut self) -> Result<(), H2Error> {
        self.io.max_recv_frame = self.local.max_frame_size;
        self.dec
            .set_capacity_limit(self.local.header_table_size as usize);
        let frame = Frame::Settings(SettingsFrame::new(self.local.to_params()));
        self.write(&frame).await
    }

    async fn await_remote_settings(&mut self) -> Result<(), H2Error> {
        while !self.remote_settings_seen {
            let frame = self.io.read_frame().await?;
            self.handle_frame(frame).await?;
        }
        Ok(())
    }

    async fn write(&mut self, frame: &Frame) -> Result<(), H2Error> {
        let mut buf = BytesMut::new();
        frame.encode(&mut buf);
        self.bytes_sent += buf.len() as u64;
        sww_obs::counter(
            "sww_http2_frames_sent_total",
            &[("kind", frame_kind_name(frame))],
        )
        .inc();
        if let Some(trace) = &mut self.trace {
            trace.push(FrameTraceEntry {
                direction: Direction::Sent,
                kind: frame_kind_name(frame),
                stream_id: frame.stream_id(),
                length: frame_payload_len(frame),
            });
        }
        self.io.write_raw(&buf).await
    }

    /// Turn on frame tracing: every frame sent or received from now on is
    /// summarized into an in-memory log, like a tcpdump of the connection.
    pub fn enable_trace(&mut self) {
        self.trace.get_or_insert_with(Vec::new);
    }

    /// Drain the trace collected so far (empty when tracing is off).
    pub fn take_trace(&mut self) -> Vec<FrameTraceEntry> {
        self.trace.as_mut().map(std::mem::take).unwrap_or_default()
    }

    fn trace_received(&mut self, frame: &Frame) {
        sww_obs::counter(
            "sww_http2_frames_received_total",
            &[("kind", frame_kind_name(frame))],
        )
        .inc();
        if let Some(trace) = &mut self.trace {
            trace.push(FrameTraceEntry {
                direction: Direction::Received,
                kind: frame_kind_name(frame),
                stream_id: frame.stream_id(),
                length: frame_payload_len(frame),
            });
        }
    }

    /// The generative capability shared by both peers; content generation
    /// may be used only when this is non-empty (paper §3).
    pub fn negotiated_ability(&self) -> GenAbility {
        self.local.gen_ability.intersect(self.remote.gen_ability)
    }

    /// Announce an updated generative ability mid-connection (RFC 9113
    /// §6.5: settings apply connection-wide from the moment the peer
    /// processes them). Used e.g. to withdraw or upgrade GEN_ABILITY when
    /// a device's conditions change (battery saver, thermal limits).
    ///
    /// The setting is sent explicitly even when zero — omitted settings
    /// keep their previous value, so withdrawal must be on the wire.
    pub async fn announce_ability(&mut self, ability: GenAbility) -> Result<(), H2Error> {
        self.local.gen_ability = ability;
        let frame = Frame::Settings(SettingsFrame::new(vec![(
            crate::settings::SETTINGS_GEN_ABILITY,
            ability.bits(),
        )]));
        self.write(&frame).await
    }

    /// The capability the *peer* advertised.
    pub fn peer_ability(&self) -> GenAbility {
        self.remote.gen_ability
    }

    /// Allocate the next locally initiated stream id.
    pub fn open_stream(&mut self) -> u32 {
        let id = self.next_stream_id;
        self.next_stream_id += 2;
        self.streams
            .insert(id, StreamEntry::new(self.remote.initial_window_size));
        id
    }

    /// Send a complete message (headers, then body split across DATA
    /// frames honouring both flow-control windows and the peer's
    /// max_frame_size) and end the stream. `stream_id` must come from
    /// [`open_stream`](Connection::open_stream) or from a received
    /// message; a stream that has since been reset is a stream error.
    pub async fn send_message(
        &mut self,
        stream_id: u32,
        fields: &[HeaderField],
        body: Bytes,
    ) -> Result<(), H2Error> {
        let entry = self
            .streams
            .get_mut(&stream_id)
            .ok_or_else(|| stream_gone(stream_id))?;
        let end_on_headers = body.is_empty();
        entry.state = entry.state.on_send_headers(end_on_headers)?;
        let raw_len: usize = fields.iter().map(|f| f.name.len() + f.value.len()).sum();
        let block = self.enc.encode(fields);
        sww_obs::counter("sww_http2_hpack_bytes_total", &[("form", "raw")]).add(raw_len as u64);
        sww_obs::counter("sww_http2_hpack_bytes_total", &[("form", "encoded")])
            .add(block.len() as u64);
        self.send_header_block(stream_id, &block, end_on_headers)
            .await?;
        if !body.is_empty() {
            self.send_body(stream_id, body).await?;
        }
        self.forget_if_closed(stream_id);
        Ok(())
    }

    /// Drop a stream's entry once both directions are closed. Called
    /// where a direction ends — after the last frame of a sent message,
    /// after a received message moves to `pending` — so a closed entry
    /// never holds an undelivered message.
    fn forget_if_closed(&mut self, stream_id: u32) {
        let closed = |e: &StreamEntry| e.state.is_closed();
        if self.streams.get(&stream_id).is_some_and(closed) {
            self.streams.remove(&stream_id);
        }
    }

    async fn send_header_block(
        &mut self,
        stream_id: u32,
        block: &[u8],
        end_stream: bool,
    ) -> Result<(), H2Error> {
        let max = self.remote.max_frame_size as usize;
        if block.len() <= max {
            let frame = Frame::Headers(HeadersFrame {
                stream_id,
                fragment: Bytes::copy_from_slice(block),
                end_stream,
                end_headers: true,
                priority: None,
            });
            return self.write(&frame).await;
        }
        // Split into HEADERS + CONTINUATION frames.
        let first = Frame::Headers(HeadersFrame {
            stream_id,
            fragment: Bytes::copy_from_slice(&block[..max]),
            end_stream,
            end_headers: false,
            priority: None,
        });
        self.write(&first).await?;
        let mut rest = &block[max..];
        while rest.len() > max {
            let frame = Frame::Continuation(ContinuationFrame {
                stream_id,
                fragment: Bytes::copy_from_slice(&rest[..max]),
                end_headers: false,
            });
            self.write(&frame).await?;
            rest = &rest[max..];
        }
        let last = Frame::Continuation(ContinuationFrame {
            stream_id,
            fragment: Bytes::copy_from_slice(rest),
            end_headers: true,
        });
        self.write(&last).await
    }

    async fn send_body(&mut self, stream_id: u32, body: Bytes) -> Result<(), H2Error> {
        let mut offset = 0usize;
        while offset < body.len() {
            let remaining = body.len() - offset;
            // Wait for window on both the stream and the connection.
            let mut stalled = false;
            let writable = loop {
                // A RST_STREAM handled while we were blocked below drops
                // the entry: no window will ever arrive for it.
                let stream_avail = self
                    .streams
                    .get(&stream_id)
                    .ok_or_else(|| stream_gone(stream_id))?
                    .send_window
                    .available();
                let avail = stream_avail
                    .min(self.conn_send.available())
                    .min(self.remote.max_frame_size as usize)
                    .min(remaining);
                if avail > 0 {
                    break avail;
                }
                if !stalled {
                    stalled = true;
                    sww_obs::counter("sww_http2_flow_stalls_total", &[]).inc();
                }
                // Blocked: process incoming frames until credit arrives.
                let frame = self.io.read_frame().await?;
                self.handle_frame(frame).await?;
            };
            let end = offset + writable == body.len();
            self.conn_send.consume(writable)?;
            if let Some(entry) = self.streams.get_mut(&stream_id) {
                entry.send_window.consume(writable)?;
                entry.state = entry.state.on_send_data(end)?;
            }
            let frame = Frame::Data(DataFrame {
                stream_id,
                data: body.slice(offset..offset + writable),
                end_stream: end,
            });
            self.write(&frame).await?;
            offset += writable;
        }
        Ok(())
    }

    /// Receive the next complete message, transparently handling SETTINGS,
    /// PING, WINDOW_UPDATE, PRIORITY and CONTINUATION frames.
    pub async fn next_message(&mut self) -> Result<CompleteMessage, H2Error> {
        loop {
            if let Some(msg) = self.pending.pop_front() {
                return Ok(msg);
            }
            if self.goaway_received {
                return Err(H2Error::Closed);
            }
            let frame = self.io.read_frame().await?;
            self.handle_frame(frame).await?;
        }
    }

    /// Send RST_STREAM for one stream.
    pub async fn reset_stream(&mut self, stream_id: u32, code: ErrorCode) -> Result<(), H2Error> {
        self.streams.remove(&stream_id);
        self.write(&Frame::RstStream(RstStreamFrame::new(stream_id, code)))
            .await
    }

    /// Send a PING and wait for its acknowledgement; used for liveness.
    pub async fn ping(&mut self) -> Result<(), H2Error> {
        let payload = *b"sww-ping";
        self.write(&Frame::Ping(PingFrame::new(payload))).await?;
        loop {
            let frame = self.io.read_frame().await?;
            if let Frame::Ping(p) = &frame {
                if p.ack && p.payload == payload {
                    self.trace_received(&frame);
                    return Ok(());
                }
            }
            self.handle_frame(frame).await?;
        }
    }

    /// Graceful shutdown: send GOAWAY(NO_ERROR).
    pub async fn close(&mut self) -> Result<(), H2Error> {
        let last = self.highest_peer_stream;
        sww_obs::counter("sww_http2_goaway_total", &[("direction", "sent")]).inc();
        self.write(&Frame::GoAway(GoAwayFrame::new(
            last,
            ErrorCode::NoError,
            Bytes::new(),
        )))
        .await
    }

    /// Number of live (non-closed) streams — which is every stream the
    /// connection still holds state for.
    pub fn active_streams(&self) -> usize {
        self.streams.len()
    }

    async fn handle_frame(&mut self, frame: Frame) -> Result<(), H2Error> {
        self.trace_received(&frame);
        // A header block in progress must be contiguous (RFC 9113 §6.10).
        if self.assembly.is_some() && !matches!(frame, Frame::Continuation(_)) {
            return Err(H2Error::protocol("frame interleaved in header block"));
        }
        match frame {
            Frame::Settings(s) => {
                if s.ack {
                    return Ok(());
                }
                // Initial-window changes retroactively adjust all stream
                // send windows (§6.9.2).
                let old_window = self.remote.initial_window_size;
                self.remote.apply(&s.params)?;
                self.remote_settings_seen = true;
                let delta = i64::from(self.remote.initial_window_size) - i64::from(old_window);
                if delta != 0 {
                    for entry in self.streams.values_mut() {
                        entry.send_window.adjust(delta)?;
                    }
                }
                self.enc
                    .set_max_table_size(self.remote.header_table_size as usize);
                self.write(&Frame::Settings(SettingsFrame::ack())).await
            }
            Frame::Ping(p) => {
                if !p.ack {
                    self.write(&Frame::Ping(p.to_ack())).await?;
                }
                Ok(())
            }
            Frame::WindowUpdate(w) => {
                if w.stream_id == 0 {
                    self.conn_send.grant(w.increment)?;
                } else if let Some(entry) = self.streams.get_mut(&w.stream_id) {
                    if let Err(e) = entry.send_window.grant(w.increment) {
                        // Stream-scoped overflow resets just the stream.
                        drop(e);
                        self.reset_stream(w.stream_id, ErrorCode::FlowControl)
                            .await?;
                    }
                }
                Ok(())
            }
            Frame::GoAway(g) => {
                self.goaway_received = true;
                sww_obs::counter("sww_http2_goaway_total", &[("direction", "received")]).inc();
                if g.error_code != ErrorCode::NoError {
                    return Err(H2Error::GoAway(
                        g.error_code,
                        String::from_utf8_lossy(&g.debug_data).into_owned(),
                    ));
                }
                Ok(())
            }
            Frame::Priority(_) => Ok(()), // deprecated; ignored
            Frame::RstStream(r) => {
                // A reset stream delivers nothing further; an id already
                // forgotten (or never seen) is ignored, as before.
                self.streams.remove(&r.stream_id);
                Ok(())
            }
            Frame::PushPromise(p) => {
                // We always announce ENABLE_PUSH=0; a promise is an error.
                if !self.local.enable_push {
                    return Err(H2Error::protocol("PUSH_PROMISE with push disabled"));
                }
                self.reset_stream(p.promised_stream_id, ErrorCode::RefusedStream)
                    .await
            }
            Frame::Headers(h) => {
                if self.role == Role::Server && h.stream_id % 2 == 0 {
                    return Err(H2Error::protocol("client used even stream id"));
                }
                let local_id = self.is_local_id(h.stream_id);
                let entry = match self.streams.entry(h.stream_id) {
                    Entry::Occupied(e) => e.into_mut(),
                    Entry::Vacant(slot) => {
                        // Not a live stream, so it must be a new one of the
                        // peer's: its parity, above every id it has used.
                        // Anything else is a closed (forgotten) or
                        // never-opened stream (RFC 9113 §5.1, §5.1.1).
                        if local_id || h.stream_id <= self.highest_peer_stream {
                            return Err(H2Error::protocol(format!(
                                "HEADERS on closed or never-opened stream {}",
                                h.stream_id
                            )));
                        }
                        self.highest_peer_stream = h.stream_id;
                        slot.insert(StreamEntry::new(self.remote.initial_window_size))
                    }
                };
                entry.state = entry.state.on_recv_headers(h.end_stream)?;
                if h.end_headers {
                    self.finish_header_block(h.stream_id, &h.fragment, h.end_stream)?;
                } else {
                    self.assembly = Some(HeaderAssembly {
                        stream_id: h.stream_id,
                        end_stream: h.end_stream,
                        fragments: h.fragment.to_vec(),
                    });
                }
                Ok(())
            }
            Frame::Continuation(c) => {
                let mut asm = self
                    .assembly
                    .take()
                    .ok_or_else(|| H2Error::protocol("CONTINUATION without HEADERS"))?;
                if asm.stream_id != c.stream_id {
                    return Err(H2Error::protocol("CONTINUATION on wrong stream"));
                }
                if asm.fragments.len() + c.fragment.len() > MAX_HEADER_BLOCK {
                    return Err(H2Error::Connection(
                        ErrorCode::EnhanceYourCalm,
                        "header block exceeds limit".into(),
                    ));
                }
                asm.fragments.extend_from_slice(&c.fragment);
                if c.end_headers {
                    let fragments = std::mem::take(&mut asm.fragments);
                    self.finish_header_block(asm.stream_id, &fragments, asm.end_stream)?;
                } else {
                    self.assembly = Some(asm);
                }
                Ok(())
            }
            Frame::Data(d) => {
                let len = d.data.len();
                self.bytes_received += len as u64;
                let Some(entry) = self.streams.get_mut(&d.stream_id) else {
                    return Err(if self.was_opened(d.stream_id) {
                        stream_gone(d.stream_id)
                    } else {
                        H2Error::protocol(format!("DATA on unknown stream {}", d.stream_id))
                    });
                };
                entry.state = entry.state.on_recv_data(d.stream_id, d.end_stream)?;
                entry.body.extend_from_slice(&d.data);
                let complete = d.end_stream;
                // Auto flow control: immediately return the credit.
                if len > 0 {
                    self.write(&Frame::WindowUpdate(WindowUpdateFrame::new(0, len as u32)))
                        .await?;
                    if !complete {
                        self.write(&Frame::WindowUpdate(WindowUpdateFrame::new(
                            d.stream_id,
                            len as u32,
                        )))
                        .await?;
                    }
                }
                if complete {
                    self.complete_message(d.stream_id)?;
                }
                Ok(())
            }
            Frame::Unknown { .. } => Ok(()), // extension frames are ignored
        }
    }

    fn finish_header_block(
        &mut self,
        stream_id: u32,
        block: &[u8],
        end_stream: bool,
    ) -> Result<(), H2Error> {
        let fields = self.dec.decode(block)?;
        let entry = self
            .streams
            .get_mut(&stream_id)
            .expect("stream created on HEADERS");
        entry.fields = Some(fields);
        if end_stream {
            self.complete_message(stream_id)?;
        }
        Ok(())
    }

    fn complete_message(&mut self, stream_id: u32) -> Result<(), H2Error> {
        let entry = self
            .streams
            .get_mut(&stream_id)
            .expect("completing unknown stream");
        let fields = entry
            .fields
            .take()
            .ok_or_else(|| H2Error::protocol("stream ended without headers"))?;
        let body = std::mem::take(&mut entry.body).freeze();
        self.pending.push_back(CompleteMessage {
            stream_id,
            fields,
            body,
        });
        self.forget_if_closed(stream_id);
        Ok(())
    }

    /// Whether `stream_id` was ever opened on this connection, by either
    /// end — i.e. an id missing from the table is closed, not idle.
    fn was_opened(&self, stream_id: u32) -> bool {
        if self.is_local_id(stream_id) {
            stream_id < self.next_stream_id
        } else {
            stream_id <= self.highest_peer_stream
        }
    }

    /// Whether `stream_id` has this endpoint's parity (odd for a client).
    fn is_local_id(&self, stream_id: u32) -> bool {
        stream_id % 2 == self.next_stream_id % 2
    }
}

/// The error for touching a stream that was closed and forgotten.
fn stream_gone(stream_id: u32) -> H2Error {
    H2Error::Stream(
        stream_id,
        ErrorCode::StreamClosed,
        "stream is closed".into(),
    )
}
