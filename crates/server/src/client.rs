//! Sync pipelined client.
//!
//! [`Client`] speaks the frame protocol over any [`Connection`]. Every
//! request gets a fresh monotone id; because the server may answer out
//! of order, responses that arrive while waiting for a different id are
//! stashed and handed out when their turn comes. That split —
//! [`Client::submit`] to send without waiting, [`Client::wait`] to
//! collect by id — is what lets one connection keep many requests in
//! flight. The typed convenience calls ([`Client::get`],
//! [`Client::put`], …) are plain submit-then-wait.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::protocol::{
    decode_response, encode_request, read_frame, write_frame, FrameError, Request, Response,
    ServerError, DEFAULT_MAX_FRAME,
};
use crate::transport::Connection;
use lsm_obs::MetricsSnapshot;
use lsm_tree::WriteBatch;

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport-level failure sending or receiving.
    Io(std::io::Error),
    /// The response stream violated framing.
    Frame(FrameError),
    /// A frame arrived but its body made no sense (undecodable status,
    /// or a response kind that does not match the request).
    Protocol(String),
    /// The server answered with a typed error.
    Remote(ServerError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Frame(e) => write!(f, "framing: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
            ClientError::Remote(e) => write!(f, "server: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Client result type.
pub type Result<T> = std::result::Result<T, ClientError>;

/// Key/value pairs returned by a scan.
pub type ScanEntries = Vec<(u64, Vec<u8>)>;

struct ReadHalf {
    reader: Box<dyn Read + Send>,
    /// Responses read while looking for some other id.
    stash: HashMap<u64, Response>,
}

/// A pipelined connection to an `lsm-server`. All methods take `&self`;
/// the writer and reader halves are independently locked, so one thread
/// can submit while another collects.
///
/// ```rust
/// use lsm_server::{Client, MemTransport, Server, ServerOptions};
/// use lsm_server::protocol::{Request, Response};
/// use lsm_tree::sharding::ShardedDb;
/// use lsm_tree::{Options, ShardedOptions, WriteBatch};
/// use std::sync::Arc;
///
/// let opts = ShardedOptions::learned(2, (0..4).collect(), Options::small_for_tests());
/// let db = ShardedDb::open_memory(opts).expect("open");
/// let (connector, listener) = MemTransport::endpoint();
/// let server = Server::start(db, Arc::new(listener), ServerOptions::default());
/// let client = Client::new(connector.connect().expect("dial"));
///
/// // Pipelining: several requests in flight on one connection, collected
/// // later by id — the server may complete them out of order.
/// let ids: Vec<u64> = (0..4)
///     .map(|k| {
///         let mut batch = WriteBatch::new();
///         batch.put(k, b"v");
///         client
///             .submit(&Request::WriteBatch { batch, durable: false })
///             .expect("submit")
///     })
///     .collect();
/// for id in ids {
///     assert!(matches!(client.wait(id).expect("wait"), Response::Committed { .. }));
/// }
///
/// // The typed conveniences are plain submit-then-wait.
/// assert_eq!(client.get(2).expect("get"), Some(vec![b'v']));
///
/// server.close().expect("graceful close");
/// ```
pub struct Client {
    writer: Mutex<Box<dyn Write + Send>>,
    read_half: Mutex<ReadHalf>,
    next_id: AtomicU64,
}

impl Client {
    /// Wrap a dialed [`Connection`].
    pub fn new(conn: Connection) -> Client {
        Client::from_halves(conn.reader, conn.writer)
    }

    /// Build a client from raw stream halves — for tests and tools that
    /// interleave hand-crafted frames with protocol traffic.
    pub fn from_halves(reader: Box<dyn Read + Send>, writer: Box<dyn Write + Send>) -> Client {
        Client {
            writer: Mutex::new(writer),
            read_half: Mutex::new(ReadHalf {
                reader,
                stash: HashMap::new(),
            }),
            next_id: AtomicU64::new(1),
        }
    }

    /// Send a request without waiting; returns its id.
    pub fn submit(&self, req: &Request) -> Result<u64> {
        let id = self.next_id.fetch_add(1, Ordering::AcqRel);
        let mut buf = Vec::new();
        encode_request(&mut buf, id, req);
        write_frame(&mut **self.writer.lock(), &buf)?;
        Ok(id)
    }

    /// Block until the response for `id` arrives (stashing any others
    /// that arrive first).
    pub fn wait(&self, id: u64) -> Result<Response> {
        let mut half = self.read_half.lock();
        loop {
            if let Some(resp) = half.stash.remove(&id) {
                return Ok(resp);
            }
            let (got, resp) = Self::read_one(&mut half)?;
            if got == id {
                return Ok(resp);
            }
            half.stash.insert(got, resp);
        }
    }

    fn read_one(half: &mut ReadHalf) -> Result<(u64, Response)> {
        let (id, tag, payload) =
            read_frame(&mut *half.reader, DEFAULT_MAX_FRAME).map_err(ClientError::Frame)?;
        let resp = decode_response(tag, &payload).map_err(ClientError::Protocol)?;
        Ok((id, resp))
    }

    fn call(&self, req: &Request) -> Result<Response> {
        let id = self.submit(req)?;
        self.wait(id)
    }

    // ------------------------------------------------- typed conveniences

    /// Point lookup.
    pub fn get(&self, key: u64) -> Result<Option<Vec<u8>>> {
        match self.call(&Request::Get { key })? {
            Response::Value(v) => Ok(v),
            other => Self::unexpected("GET", other),
        }
    }

    /// Single-key write (a batch of one); returns the commit sequence
    /// number.
    pub fn put(&self, key: u64, value: &[u8], durable: bool) -> Result<u64> {
        let mut batch = WriteBatch::with_capacity(1);
        batch.put(key, value);
        self.write_batch(batch, durable)
    }

    /// Single-key delete (a batch of one); returns the commit sequence
    /// number.
    pub fn delete(&self, key: u64, durable: bool) -> Result<u64> {
        let mut batch = WriteBatch::with_capacity(1);
        batch.delete(key);
        self.write_batch(batch, durable)
    }

    /// Atomic multi-key batch; returns the commit sequence number.
    pub fn write_batch(&self, batch: WriteBatch, durable: bool) -> Result<u64> {
        match self.call(&Request::WriteBatch { batch, durable })? {
            Response::Committed { seq } => Ok(seq),
            other => Self::unexpected("WRITE_BATCH", other),
        }
    }

    /// Range scan from `start`, up to `limit` pairs, read from one
    /// coherent cross-shard snapshot.
    pub fn scan(&self, start: u64, limit: u32) -> Result<ScanEntries> {
        match self.call(&Request::Scan { start, limit })? {
            Response::Entries(pairs) => Ok(pairs),
            other => Self::unexpected("SCAN", other),
        }
    }

    /// Scrape the server's metrics surface: counters (the engine's, then
    /// its sharding layer's residency report), per-shard latency quantiles
    /// and the recent event timeline. Render with
    /// [`MetricsSnapshot::render_text`] for a Prometheus-style exposition.
    pub fn metrics(&self) -> Result<MetricsSnapshot> {
        match self.call(&Request::Metrics)? {
            Response::Metrics(snap) => Ok(*snap),
            other => Self::unexpected("METRICS", other),
        }
    }

    fn unexpected<T>(what: &str, resp: Response) -> Result<T> {
        match resp {
            Response::Error(e) => Err(ClientError::Remote(e)),
            other => Err(ClientError::Protocol(format!(
                "{what} answered with mismatched response {other:?}"
            ))),
        }
    }
}
