//! `lsm-server`: a network front end over the sharded LSM engine.
//!
//! The engine crates answer *how fast is a lookup*; this crate answers
//! the question a deployment actually faces: what happens to latency
//! when requests arrive over a wire and the engine pushes back? It adds,
//! in order of appearance on a request's path:
//!
//! * [`protocol`] — a length-prefixed binary frame format (GET /
//!   WRITE_BATCH / SCAN / METRICS; every write is a batch, a single put
//!   or delete a batch of one), request ids chosen by the client and
//!   echoed by the server, responses free to arrive out of order —
//!   per-connection pipelining.
//!   It is the one wire format: the `METRICS` scrape — every engine
//!   counter, the sharding layer's residency report, latency quantiles
//!   and the event timeline — is encoded by it like any other payload,
//!   through the engine's one byte codec, `lsm_tree::codec`.
//! * [`transport`] — pluggable byte transports: real TCP, and an
//!   in-memory duplex pair so every test and benchmark exercises the
//!   full request path without sockets or network.
//! * [`Server`] — an acceptor, one reader thread per connection, and a
//!   shared worker pool. Admission control maps the engine's write
//!   stalls onto the network edge: a stopped engine sheds writes with a
//!   typed `RETRY_AFTER` instead of parking threads, and a slowed engine
//!   shrinks the per-connection pipeline window.
//!   [`Server::close`] drains in-flight requests before releasing the
//!   engine, so every acknowledged write survives a reopen.
//! * [`Client`] — the matching sync pipelined client.
//!
//! # Example
//!
//! ```
//! use lsm_server::{Client, MemTransport, Server, ServerOptions};
//! use lsm_tree::sharding::ShardedDb;
//! use lsm_tree::{Options, ShardedOptions};
//! use std::sync::Arc;
//!
//! // Two range shards, cut at the median of a sample of the keys.
//! let opts = ShardedOptions::learned(2, (0..16).collect(), Options::small_for_tests());
//! let db = ShardedDb::open_memory(opts).expect("open");
//! let (connector, listener) = MemTransport::endpoint();
//! let server = Server::start(db, Arc::new(listener), ServerOptions::default());
//!
//! let client = Client::new(connector.connect().expect("dial"));
//! client.put(7, b"value", false).expect("put");
//! assert_eq!(client.get(7).expect("get"), Some(b"value".to_vec()));
//!
//! server.close().expect("graceful close");
//! ```

pub mod client;
pub mod protocol;
pub mod server;
pub mod transport;

pub use client::{Client, ClientError};
pub use lsm_obs::MetricsSnapshot;
pub use protocol::{FrameError, Request, Response, ServerError};
pub use server::{Server, ServerOptions, MAX_SCAN_LIMIT};
pub use transport::{tcp_connect, Connection, Listener, MemConnector, MemTransport, TcpTransport};
