//! HTTP/2 client connection.

use crate::connection::Connection;
use crate::error::H2Error;
use crate::headers::{Request, Response};
use crate::settings::{GenAbility, Settings};
use tokio::io::{AsyncRead, AsyncWrite};

/// A client endpoint: performs the preface + SETTINGS handshake (including
/// the paper's GEN_ABILITY advertisement) and issues requests.
#[derive(Debug)]
pub struct ClientConnection<T> {
    conn: Connection<T>,
}

impl<T: AsyncRead + AsyncWrite + Unpin> ClientConnection<T> {
    /// Connect over an established byte stream, advertising `ability`.
    pub async fn handshake(io: T, ability: GenAbility) -> Result<ClientConnection<T>, H2Error> {
        let conn = Connection::client_handshake(io, Settings::sww(ability)).await?;
        Ok(ClientConnection { conn })
    }

    /// The generative ability the server advertised.
    pub fn server_ability(&self) -> GenAbility {
        self.conn.peer_ability()
    }

    /// The capability both ends share; generation is used only when this
    /// reports support (paper §3).
    pub fn negotiated_ability(&self) -> GenAbility {
        self.conn.negotiated_ability()
    }

    /// Issue a request and await the complete response.
    pub async fn send_request(&mut self, req: &Request) -> Result<Response, H2Error> {
        let stream_id = self.conn.open_stream();
        self.conn
            .send_message(stream_id, &req.to_fields(), req.body.clone())
            .await?;
        loop {
            let msg = self.conn.next_message().await?;
            if msg.stream_id == stream_id {
                let mut resp = Response::from_fields(msg.fields)?;
                resp.body = msg.body;
                return Ok(resp);
            }
            // A response for a different (pipelined) stream: not expected in
            // the sequential API; drop it.
        }
    }

    /// Issue several requests on separate streams before reading any
    /// response (HTTP/2 multiplexing), then collect responses in request
    /// order. Respects the server's SETTINGS_MAX_CONCURRENT_STREAMS by
    /// issuing in windows of at most that many in-flight streams.
    pub async fn send_pipelined(&mut self, reqs: &[Request]) -> Result<Vec<Response>, H2Error> {
        let window = self
            .conn
            .remote
            .max_concurrent_streams
            .map(|m| m.max(1) as usize)
            .unwrap_or(usize::MAX);
        let mut by_id = std::collections::HashMap::new();
        let mut ids = Vec::with_capacity(reqs.len());
        let mut next = 0usize;
        while by_id.len() < reqs.len() {
            // Fill the window.
            while next < reqs.len() && (next - by_id.len()) < window {
                let id = self.conn.open_stream();
                self.conn
                    .send_message(id, &reqs[next].to_fields(), reqs[next].body.clone())
                    .await?;
                ids.push(id);
                next += 1;
            }
            let msg = self.conn.next_message().await?;
            let mut resp = Response::from_fields(msg.fields)?;
            resp.body = msg.body;
            by_id.insert(msg.stream_id, resp);
        }
        Ok(ids
            .iter()
            .map(|id| by_id.remove(id).expect("collected all ids"))
            .collect())
    }

    /// Update the advertised generative ability mid-connection (e.g. a
    /// laptop entering battery-saver mode withdraws generation). The
    /// server applies the new SETTINGS to all subsequent responses.
    pub async fn update_ability(&mut self, ability: GenAbility) -> Result<(), H2Error> {
        self.conn.announce_ability(ability).await
    }

    /// Liveness check.
    pub async fn ping(&mut self) -> Result<(), H2Error> {
        self.conn.ping().await
    }

    /// Graceful GOAWAY.
    pub async fn close(&mut self) -> Result<(), H2Error> {
        self.conn.close().await
    }

    /// Total octets written to the socket (frames + payload), for the
    /// paper's data-reduction accounting.
    pub fn bytes_sent(&self) -> u64 {
        self.conn.bytes_sent
    }
}
