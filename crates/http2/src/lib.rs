#![warn(missing_docs)]

//! HTTP/2 (RFC 9113 subset) with the SWW `SETTINGS_GEN_ABILITY` extension.
//!
//! This crate implements the networking substrate of the paper's prototype
//! from scratch:
//!
//! * binary framing for all ten RFC 9113 frame types,
//! * HPACK header compression (RFC 7541 integer coding, static + dynamic
//!   tables, Huffman string coding),
//! * connection and stream state machines with flow control,
//! * async client/server connections on tokio,
//! * the paper's §3 modification: a new SETTINGS parameter,
//!   `SETTINGS_GEN_ABILITY` (identifier `0x07`), advertising a
//!   peer's client-side content-generation capability. Per RFC 9113 §6.5.2 a
//!   recipient ignores unknown settings, so non-participating peers interop
//!   untouched — the property the paper's §6.2 functionality matrix tests.
//!
//! The API is deliberately small: [`serve_connection`] drives a
//! handler over an accepted socket, [`ClientConnection`] performs
//! the handshake and issues requests. Both expose the negotiated generative
//! ability after the SETTINGS exchange.

mod client;
mod connection;
mod error;
pub mod frame;
mod headers;
pub mod hpack;
mod server;
mod settings;
mod stream;

pub use client::ClientConnection;
pub use connection::{Connection, FrameIo};
pub use error::{ErrorCode, H2Error};
pub use headers::{Request, Response};
pub use server::{serve_connection, serve_connection_until, ServeContext, ServeStats};
pub use settings::{GenAbility, Settings};

/// The fixed client connection preface (RFC 9113 §3.4).
pub const PREFACE: &[u8] = b"PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n";
