#![warn(missing_docs)]

//! HTTP/3 support for SWW — the paper's §3.1 next step.
//!
//! "As HTTP/3 adoption is increasing, future SWW will require HTTP/3
//! support. We believe that similar use of SETTINGS under HTTP/3 can allow
//! to advertise client-server GenAI capabilities."
//!
//! This crate implements the HTTP/3 layer (RFC 9114 subset) over a QUIC
//! stream abstraction:
//!
//! * [`varint_encode`] / [`varint_decode`] — QUIC variable-length integers (RFC 9000 §16), the
//!   encoding every HTTP/3 structure is built from,
//! * [`frame`] — HTTP/3 frames (DATA, HEADERS, SETTINGS, GOAWAY, …) with
//!   the reserved-type/ignore-unknown rules,
//! * [`H3Settings`] — HTTP/3 SETTINGS including the SWW extension. HTTP/3
//!   setting identifiers of the form `0x1f * N + 0x21` are reserved for
//!   exercising ignore-unknown behaviour, so the GEN_ABILITY identifier is
//!   registered outside that space, mirroring the 0x07 prototype id,
//! * [`qpack`] — QPACK-lite: the RFC 9204 static table and prefixed-
//!   integer/literal encodings without dynamic-table state (a legal,
//!   interoperable encoder configuration),
//! * the transport — a minimal QUIC-like stream multiplexer over any
//!   reliable byte pipe: client/server unidirectional control streams and
//!   bidirectional request streams with varint stream framing. A real
//!   QUIC implementation (UDP, loss recovery, TLS) is out of scope; the
//!   paper's negotiation semantics only need ordered streams,
//! * [`H3ClientConnection`] — the H3 client connection: control-stream SETTINGS
//!   exchange, GEN_ABILITY negotiation, pipelined request streams and
//!   0-RTT resumption tickets,
//! * [`serve_h3_connection`] — the serving driver: one event loop per connection that
//!   runs each request stream on a crew thread when it may block and on
//!   the connection when it cannot, so a slow generation never
//!   head-of-line-blocks the other streams.

mod connection;
pub mod frame;
pub mod qpack;
mod server;
mod settings;
mod transport;
mod varint;

pub use connection::{H3ClientConnection, H3Error};
pub use server::{serve_h3_connection, serve_h3_connection_split, H3ServeContext, H3ServeStats};
pub use settings::{H3Settings, SETTINGS_SWW_GEN_ABILITY};
pub use varint::{decode as varint_decode, encode as varint_encode, len as varint_len};
