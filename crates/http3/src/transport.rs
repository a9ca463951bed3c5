//! A minimal QUIC-like stream multiplexer over one reliable byte pipe.
//!
//! Real QUIC (UDP datagrams, TLS 1.3, loss recovery, flow control) is out
//! of scope — the paper's §3.1 point is about SETTINGS semantics, which
//! need only ordered, multiplexed streams. Stream identifiers follow QUIC
//! (RFC 9000 §2.1): the two low bits encode initiator and directionality,
//! so client-bidi streams are 0, 4, 8, …, client-uni 2, 6, …, server-uni
//! 3, 7, ….
//!
//! Wire format per chunk: `varint stream_id | u8 flags | varint len | bytes`
//! with flag bit 0 = FIN.

use crate::varint;
use std::collections::{HashMap, VecDeque};
use std::pin::Pin;
use std::task::{Context, Poll};
use tokio::io::{AsyncRead, AsyncWrite, AsyncWriteExt, ReadBuf};

/// Stream-id helpers.
pub mod stream_id {
    /// First client-initiated bidirectional stream.
    pub const CLIENT_BIDI_BASE: u64 = 0;
    /// First client-initiated unidirectional stream.
    pub const CLIENT_UNI_BASE: u64 = 2;
    /// First server-initiated unidirectional stream.
    pub const SERVER_UNI_BASE: u64 = 3;

    /// Whether a stream is unidirectional.
    pub(crate) fn is_uni(id: u64) -> bool {
        id & 0x2 != 0
    }
}

/// One received chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamChunk {
    /// Stream the data belongs to.
    pub stream_id: u64,
    /// Payload bytes.
    pub data: Vec<u8>,
    /// Whether the sender finished the stream.
    pub fin: bool,
}

/// Transport errors.
#[derive(Debug)]
pub enum TransportError {
    /// Socket error.
    Io(std::io::Error),
    /// Peer closed the pipe.
    Closed,
    /// Structurally invalid chunk.
    Malformed(&'static str),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Io(e) => write!(f, "io: {e}"),
            TransportError::Closed => write!(f, "transport closed"),
            TransportError::Malformed(m) => write!(f, "malformed chunk: {m}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            TransportError::Closed
        } else {
            TransportError::Io(e)
        }
    }
}

/// The multiplexer: owns the pipe and reassembles per-stream data.
#[derive(Debug)]
pub struct QuicLite<T> {
    io: T,
    /// Next bidi stream id to open locally.
    next_bidi: u64,
    /// Next uni stream id to open locally.
    next_uni: u64,
    /// Buffered whole streams (completed with FIN) awaiting the reader,
    /// in the order their FINs arrived.
    finished: VecDeque<(u64, Vec<u8>)>,
    /// Partially received streams.
    partial: HashMap<u64, Vec<u8>>,
    /// Octets held in `partial`, bounded by [`MAX_CHUNK`]: a peer that
    /// never finishes its streams is cut off, not buffered for.
    partial_octets: usize,
    /// Raw octets read off the pipe but not yet parsed into a chunk.
    /// Chunk parsing is restartable from this buffer, which makes
    /// [`QuicLite::poll_recv_chunk`] cancel-safe: a future dropped
    /// mid-header loses nothing.
    rbuf: Vec<u8>,
    /// Parse cursor into `rbuf` (consumed prefix, compacted lazily).
    rpos: usize,
    /// The pipe reported EOF; parsing continues until `rbuf` drains.
    eof: bool,
}

/// Maximum accepted chunk payload, and the most octets held across all
/// unfinished streams: together they bound buffer growth. Every sender
/// here writes each message as one FIN chunk, so only a peer that
/// withholds FINs comes near the second bound.
pub(crate) const MAX_CHUNK: u64 = 1 << 22;

impl<T: AsyncRead + AsyncWrite + Unpin> QuicLite<T> {
    /// Client-side endpoint.
    pub(crate) fn client(io: T) -> QuicLite<T> {
        QuicLite {
            io,
            next_bidi: stream_id::CLIENT_BIDI_BASE,
            next_uni: stream_id::CLIENT_UNI_BASE,
            finished: VecDeque::new(),
            partial: HashMap::new(),
            partial_octets: 0,
            rbuf: Vec::new(),
            rpos: 0,
            eof: false,
        }
    }

    /// Server-side endpoint.
    pub(crate) fn server(io: T) -> QuicLite<T> {
        QuicLite {
            io,
            next_bidi: 1, // server-initiated bidi (unused by HTTP/3)
            next_uni: stream_id::SERVER_UNI_BASE,
            finished: VecDeque::new(),
            partial: HashMap::new(),
            partial_octets: 0,
            rbuf: Vec::new(),
            rpos: 0,
            eof: false,
        }
    }

    /// Allocate a locally initiated bidirectional stream id.
    pub(crate) fn open_bidi(&mut self) -> u64 {
        let id = self.next_bidi;
        self.next_bidi += 4;
        id
    }

    /// Allocate a locally initiated unidirectional stream id.
    pub(crate) fn open_uni(&mut self) -> u64 {
        let id = self.next_uni;
        self.next_uni += 4;
        id
    }

    /// Send bytes on a stream.
    pub(crate) async fn send(
        &mut self,
        stream: u64,
        data: &[u8],
        fin: bool,
    ) -> Result<(), TransportError> {
        let mut head = Vec::with_capacity(16);
        varint::encode(stream, &mut head);
        head.push(u8::from(fin));
        varint::encode(data.len() as u64, &mut head);
        self.io.write_all(&head).await?;
        self.io.write_all(data).await?;
        self.io.flush().await?;
        Ok(())
    }

    /// Try to parse one complete chunk out of the read buffer. Returns
    /// `Ok(None)` when the buffer holds only a partial chunk.
    fn parse_chunk(&mut self) -> Result<Option<StreamChunk>, TransportError> {
        let buf = &self.rbuf[self.rpos..];
        let mut pos = 0usize;
        let Ok(stream_id) = varint::decode(buf, &mut pos) else {
            return Ok(None);
        };
        let Some(&flag) = buf.get(pos) else {
            return Ok(None);
        };
        pos += 1;
        let Ok(len) = varint::decode(buf, &mut pos) else {
            return Ok(None);
        };
        if len > MAX_CHUNK {
            return Err(TransportError::Malformed("chunk too large"));
        }
        let len = len as usize;
        if buf.len() < pos + len {
            return Ok(None);
        }
        let data = buf[pos..pos + len].to_vec();
        self.rpos += pos + len;
        // Compact once the consumed prefix dominates the buffer.
        if self.rpos > 4096 && self.rpos * 2 > self.rbuf.len() {
            self.rbuf.drain(..self.rpos);
            self.rpos = 0;
        }
        Ok(Some(StreamChunk {
            stream_id,
            data,
            fin: flag & 1 != 0,
        }))
    }

    /// Poll for the next chunk from the peer. Restartable: partial reads
    /// accumulate in an internal buffer, so callers may drop the
    /// surrounding future between polls without losing wire state. This
    /// is what lets a server interleave "wait for more requests" with
    /// "send finished responses" on one task.
    pub(crate) fn poll_recv_chunk(
        &mut self,
        cx: &mut Context<'_>,
    ) -> Poll<Result<StreamChunk, TransportError>> {
        loop {
            if let Some(chunk) = self.parse_chunk()? {
                return Poll::Ready(Ok(chunk));
            }
            if self.eof {
                return Poll::Ready(Err(if self.rpos < self.rbuf.len() {
                    TransportError::Malformed("pipe closed mid-chunk")
                } else {
                    TransportError::Closed
                }));
            }
            let mut tmp = [0u8; 4096];
            let mut rb = ReadBuf::new(&mut tmp);
            match Pin::new(&mut self.io).poll_read(cx, &mut rb) {
                Poll::Ready(Ok(())) if rb.filled().is_empty() => self.eof = true,
                Poll::Ready(Ok(())) => self.rbuf.extend_from_slice(rb.filled()),
                Poll::Ready(Err(e)) => return Poll::Ready(Err(e.into())),
                Poll::Pending => return Poll::Pending,
            }
        }
    }

    /// Route one received chunk into the per-stream reassembly maps,
    /// failing the connection once the unfinished streams hold more than
    /// [`MAX_CHUNK`] octets.
    fn ingest(&mut self, chunk: StreamChunk) -> Result<(), TransportError> {
        if !chunk.fin {
            self.partial_octets += chunk.data.len();
            if self.partial_octets > MAX_CHUNK as usize {
                return Err(TransportError::Malformed("unfinished streams over the cap"));
            }
            let held = self.partial.entry(chunk.stream_id).or_default();
            held.extend_from_slice(&chunk.data);
            return Ok(());
        }
        let whole = match self.partial.remove(&chunk.stream_id) {
            Some(mut held) => {
                self.partial_octets -= held.len();
                held.extend_from_slice(&chunk.data);
                held
            }
            None => chunk.data,
        };
        self.finished.push_back((chunk.stream_id, whole));
        Ok(())
    }

    /// Poll until *any* stream finishes; `Ready((id, payload))` hands the
    /// completed stream over, earliest FIN first. The poll-shaped twin of
    /// [`QuicLite::recv_any_stream`], for callers that multiplex reading
    /// with other event sources.
    pub(crate) fn poll_recv_any_stream(
        &mut self,
        cx: &mut Context<'_>,
    ) -> Poll<Result<(u64, Vec<u8>), TransportError>> {
        loop {
            if let Some(whole) = self.finished.pop_front() {
                return Poll::Ready(Ok(whole));
            }
            let ingested = match self.poll_recv_chunk(cx) {
                Poll::Ready(Ok(chunk)) => self.ingest(chunk),
                Poll::Ready(Err(e)) => Err(e),
                Poll::Pending => return Poll::Pending,
            };
            if let Err(e) = ingested {
                return Poll::Ready(Err(e));
            }
        }
    }

    /// Read chunks until *any* stream finishes; returns `(id, payload)`.
    pub(crate) async fn recv_any_stream(&mut self) -> Result<(u64, Vec<u8>), TransportError> {
        std::future::poll_fn(|cx| self.poll_recv_any_stream(cx)).await
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[tokio::test]
    async fn stream_ids_follow_quic_parity() {
        let (a, _b) = tokio::io::duplex(1024);
        let mut client = QuicLite::client(a);
        assert_eq!(client.open_bidi(), 0);
        assert_eq!(client.open_bidi(), 4);
        assert_eq!(client.open_uni(), 2);
        assert!(stream_id::is_uni(2));
        assert!(!stream_id::is_uni(4));
    }

    #[tokio::test]
    async fn interleaved_streams_reassemble() {
        let (a, b) = tokio::io::duplex(1 << 16);
        let mut tx = QuicLite::client(a);
        let mut rx = QuicLite::server(b);
        tx.send(0, b"hello ", false).await.unwrap();
        tx.send(4, b"other", true).await.unwrap();
        tx.send(0, b"world", true).await.unwrap();
        // Stream 4 finishes between stream 0's two chunks.
        let (id, four) = rx.recv_any_stream().await.unwrap();
        assert_eq!((id, four.as_slice()), (4, &b"other"[..]));
        let (id, zero) = rx.recv_any_stream().await.unwrap();
        assert_eq!((id, zero.as_slice()), (0, &b"hello world"[..]));
    }

    #[tokio::test]
    async fn recv_any_returns_first_finished() {
        let (a, b) = tokio::io::duplex(1 << 16);
        let mut tx = QuicLite::client(a);
        let mut rx = QuicLite::server(b);
        tx.send(8, b"first", true).await.unwrap();
        let (id, data) = rx.recv_any_stream().await.unwrap();
        assert_eq!((id, data.as_slice()), (8, &b"first"[..]));
    }

    #[tokio::test]
    async fn finished_streams_are_received_in_fin_order() {
        let (a, b) = tokio::io::duplex(1 << 16);
        let mut tx = QuicLite::client(a);
        let mut rx = QuicLite::server(b);
        // Stream 0 opens first and finishes second: FINs arrive 8, 0, 4.
        tx.send(0, b"zero ", false).await.unwrap();
        tx.send(8, b"eight", true).await.unwrap();
        tx.send(0, b"done", true).await.unwrap();
        tx.send(4, b"four", true).await.unwrap();
        tx.send(12, b"twelve", true).await.unwrap();
        let mut order = Vec::new();
        for _ in 0..4 {
            order.push(rx.recv_any_stream().await.unwrap());
        }
        let want: [(u64, &[u8]); 4] = [
            (8, b"eight"),
            (0, b"zero done"),
            (4, b"four"),
            (12, b"twelve"),
        ];
        for ((id, data), (want_id, want_data)) in order.iter().zip(want) {
            assert_eq!((*id, data.as_slice()), (want_id, want_data));
        }
    }

    #[tokio::test]
    async fn closed_pipe_reports_closed() {
        let (a, b) = tokio::io::duplex(1024);
        drop(b);
        let mut rx = QuicLite::<tokio::io::DuplexStream>::server(a);
        assert!(matches!(
            rx.recv_any_stream().await,
            Err(TransportError::Closed)
        ));
    }

    #[tokio::test]
    async fn large_payload_roundtrip() {
        let (a, b) = tokio::io::duplex(1 << 20);
        let mut tx = QuicLite::client(a);
        let mut rx = QuicLite::server(b);
        let big = vec![7u8; 200_000];
        let big2 = big.clone();
        let send = tokio::spawn(async move {
            tx.send(0, &big2, true).await.unwrap();
        });
        let (id, got) = rx.recv_any_stream().await.unwrap();
        send.await.unwrap();
        assert_eq!((id, got), (0, big));
    }
}
