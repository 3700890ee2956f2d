//! The server: accepts connections, admits requests against engine
//! backpressure, executes them on a shared worker pool, and shuts down
//! in an order that never drops an acknowledged write.
//!
//! # Threading model
//!
//! One **acceptor** thread blocks on the transport's `accept`. Each
//! accepted connection gets one **reader** thread that decodes frames
//! and either sheds the request immediately (admission control, below)
//! or pushes it onto a global ready queue. A fixed pool of four **worker**
//! threads pops the queue, executes against the [`ShardedDb`], and
//! writes the response through the connection's writer mutex — so
//! responses from different requests interleave freely and a pipelined
//! client sees completions out of order, matched by request id.
//!
//! # Admission control
//!
//! The engine's write stalls ([`WritePressure`]) are mapped to the
//! network edge instead of being absorbed as open-ended blocking. One rule
//! (`window`): a request is admitted while its connection has fewer
//! requests in flight than the window of the pressure it meets, and shed
//! with [`ServerError::RetryAfter`] otherwise. A read meets `Clear`; a
//! write meets the engine's [`ShardedDb::write_pressure`]:
//!
//! * **Stop** — no window: writes are shed before touching the engine, a
//!   bounded, typed signal the client can back off on, instead of a worker
//!   thread parked inside `make_room`.
//! * **Slowdown** — `QUEUE_SLOWDOWN_CAP`, so a pipelining client fills its
//!   shrunken window and naturally slows to the engine's drain rate.
//! * **Clear** — `QUEUE_CAP`, bounding queue memory.
//!
//! A failed commit fails only its own group's writes, with the engine's
//! error; the next write is served as usual. [`ServerError::Poisoned`]
//! stays in the wire vocabulary for clients of earlier builds, whose
//! engines refused every write after a failed topology change; no engine
//! of this build sends it.
//!
//! # Shutdown ordering
//!
//! [`Server::close`] stops the acceptor, EOFs every connection's *read*
//! side (responses still flow out), joins the readers, drains the ready
//! queue through the workers, joins the workers, and only then closes
//! the engine. Anything acknowledged before `close` returns is therefore
//! fully applied — and, if written with `durable`, synced — before the
//! database directory is released.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use lsm_obs::{EventKind, GLOBAL_SHARD};
use lsm_tree::sharding::ShardedDb;
use lsm_tree::{Error as LsmError, WriteOptions, WritePressure};
use std::sync::{Condvar, Mutex};

use crate::protocol::{
    decode_request, encode_response, read_frame, write_frame, FrameError, Request, Response,
    ServerError, DEFAULT_MAX_FRAME,
};
use crate::transport::Listener;

/// Server-side cap on `Scan` limits, so one request can
/// neither hold a worker for an unbounded merge nor overflow the
/// client's frame cap.
pub const MAX_SCAN_LIMIT: usize = 4096;

/// Per-connection in-flight cap under [`WritePressure::Clear`].
const QUEUE_CAP: usize = 128;

/// Per-connection in-flight cap under [`WritePressure::Slowdown`] — below
/// `QUEUE_CAP`, so pipelined writers drain to the engine's pace.
const QUEUE_SLOWDOWN_CAP: usize = 16;

/// Backoff hint (milliseconds) carried by every [`ServerError::RetryAfter`].
const RETRY_AFTER_MS: u32 = 2;

/// Worker threads executing admitted requests, shared across all
/// connections.
const WORKERS: usize = 4;

/// Tuning for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Largest request frame accepted before the connection is dropped
    /// as corrupt.
    pub max_frame: usize,
}

impl Default for ServerOptions {
    fn default() -> ServerOptions {
        ServerOptions {
            max_frame: DEFAULT_MAX_FRAME,
        }
    }
}

/// Per-connection state shared between its reader thread and the worker
/// pool.
struct ConnState {
    /// Serializes response frames (workers and the reader's shed path
    /// both write here).
    writer: Mutex<Box<dyn Write + Send>>,
    /// Admitted-but-unanswered requests on this connection.
    inflight: AtomicUsize,
    /// EOFs the read side (graceful close) without cutting responses.
    read_shutdown: Arc<dyn Fn() + Send + Sync>,
    /// Tears the whole connection down (corrupt stream, final close).
    both_shutdown: Arc<dyn Fn() + Send + Sync>,
}

impl ConnState {
    fn send(&self, id: u64, resp: &Response) {
        let mut buf = Vec::new();
        encode_response(&mut buf, id, resp);
        // A send failure means the peer is gone; the reader will see EOF
        // and unwind the connection — nothing to do here.
        let _ = write_frame(&mut **self.writer.lock().unwrap(), &buf);
    }
}

/// One admitted request waiting for a worker.
struct Work {
    conn: Arc<ConnState>,
    id: u64,
    req: Request,
}

struct ReadyQueue {
    queue: Mutex<VecDeque<Work>>,
    cv: Condvar,
}

/// Everything the acceptor, readers and workers share.
struct Shared {
    db: ShardedDb,
    opts: ServerOptions,
    ready: ReadyQueue,
    /// Set by `close`: readers shed new requests with `ShuttingDown`,
    /// workers exit once the queue is dry.
    closing: AtomicBool,
    /// Live connections, for the closer to EOF; keyed by a serial.
    conns: Mutex<HashMap<u64, Arc<ConnState>>>,
    /// Reader threads to join on close, pushed by the acceptor.
    readers: Mutex<Vec<JoinHandle<()>>>,
    /// Total requests shed with `RetryAfter` since start (observability
    /// for tests and the bench runner).
    shed: AtomicUsize,
}

/// A running server. Dropping without [`Server::close`] aborts
/// connections without the drain guarantee; call `close` for the
/// graceful path.
pub struct Server {
    shared: Arc<Shared>,
    listener: Arc<dyn Listener>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Take ownership of `db` and serve it over `listener` until
    /// [`Server::close`].
    pub fn start(db: ShardedDb, listener: Arc<dyn Listener>, opts: ServerOptions) -> Server {
        let shared = Arc::new(Shared {
            db,
            opts,
            ready: ReadyQueue {
                queue: Mutex::new(VecDeque::new()),
                cv: Condvar::new(),
            },
            closing: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            readers: Mutex::new(Vec::new()),
            shed: AtomicUsize::new(0),
        });

        let worker_handles = (0..WORKERS)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("lsm-server-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();

        let acceptor = {
            let shared = Arc::clone(&shared);
            let listener = Arc::clone(&listener);
            std::thread::Builder::new()
                .name("lsm-server-acceptor".into())
                .spawn(move || acceptor_loop(&shared, listener.as_ref()))
                .expect("spawn acceptor")
        };

        Server {
            shared,
            listener,
            acceptor: Some(acceptor),
            workers: worker_handles,
        }
    }

    /// The transport endpoint being served (a TCP address, or `"mem"`).
    pub fn addr(&self) -> String {
        self.listener.addr()
    }

    /// Requests shed with `RetryAfter` so far.
    pub fn shed_count(&self) -> usize {
        self.shared.shed.load(Ordering::Relaxed)
    }

    /// The engine being served — for operational probes (residency, pausing
    /// maintenance in tests). Closing goes through [`Server::close`];
    /// this reference cannot (`ShardedDb::close` consumes the value).
    pub fn db(&self) -> &ShardedDb {
        &self.shared.db
    }

    /// Graceful shutdown: stop accepting, drain in-flight requests (their
    /// responses are written), then close the engine. Returns the
    /// engine's close result — `Ok` means everything acknowledged is on
    /// storage per its write options.
    pub fn close(mut self) -> lsm_tree::Result<()> {
        self.shared.closing.store(true, Ordering::Release);

        // 1. No new connections.
        self.listener.close();
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }

        // 2. EOF every reader: no new requests; response directions stay
        //    open so drained work still reaches its client.
        for conn in self.shared.conns.lock().unwrap().values() {
            (conn.read_shutdown)();
        }
        let readers = std::mem::take(&mut *self.shared.readers.lock().unwrap());
        for h in readers {
            let _ = h.join();
        }

        // 3. Drain: wake the workers; they exit once the ready queue is
        //    dry (every admitted request answered).
        self.shared.ready.cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }

        // 4. Now tear the connections down fully and release the engine.
        for (_, conn) in self.shared.conns.lock().unwrap().drain() {
            (conn.both_shutdown)();
        }
        let shared = Arc::try_unwrap(self.shared)
            .map_err(|_| ())
            .expect("all server threads joined; no Shared clones can remain");
        shared.db.close()
    }
}

fn acceptor_loop(shared: &Arc<Shared>, listener: &dyn Listener) {
    let mut serial = 0u64;
    while let Ok(conn) = listener.accept() {
        if shared.closing.load(Ordering::Acquire) {
            conn.shutdown_both();
            continue;
        }
        serial += 1;
        let id = serial;
        // Registered here, not by the reader thread: `close` joins this
        // thread before it EOFs `conns`, so every reader it then joins is in
        // the map. A reader that registered itself could do so after that
        // sweep, never see EOF, and hang the join.
        let state = Arc::new(ConnState {
            read_shutdown: conn.read_shutdown_handle(),
            both_shutdown: conn.both_shutdown_handle(),
            writer: Mutex::new(conn.writer),
            inflight: AtomicUsize::new(0),
        });
        shared.conns.lock().unwrap().insert(id, Arc::clone(&state));
        let shared2 = Arc::clone(shared);
        let reader = conn.reader;
        let handle = std::thread::Builder::new()
            .name(format!("lsm-server-conn-{id}"))
            .spawn(move || reader_loop(&shared2, id, reader, &state))
            .expect("spawn reader");
        shared.readers.lock().unwrap().push(handle);
    }
}

fn reader_loop(
    shared: &Arc<Shared>,
    conn_id: u64,
    mut reader: Box<dyn Read + Send>,
    state: &Arc<ConnState>,
) {
    loop {
        let (id, tag, payload) = match read_frame(&mut reader, shared.opts.max_frame) {
            Ok(frame) => frame,
            Err(FrameError::Closed) => break,
            Err(FrameError::Truncated | FrameError::BadLength(_) | FrameError::Io(_)) => {
                // The byte stream is desynchronized (or gone): frame
                // boundaries can no longer be trusted, so the only safe
                // answer is a clean disconnect.
                (state.both_shutdown)();
                break;
            }
        };
        let req = match decode_request(tag, &payload) {
            Ok(req) => req,
            Err(reason) => {
                // Framing is intact (the length prefix held), only this
                // request is malformed — answer it and keep the
                // connection.
                state.send(id, &Response::Error(ServerError::BadRequest(reason)));
                continue;
            }
        };
        match admit(shared, state, &req) {
            Admission::Admit => {
                state.inflight.fetch_add(1, Ordering::AcqRel);
                let mut q = shared.ready.queue.lock().unwrap();
                q.push_back(Work {
                    conn: Arc::clone(state),
                    id,
                    req,
                });
                shared.ready.cv.notify_one();
            }
            Admission::Shed(err) => {
                if matches!(err, ServerError::RetryAfter { .. }) {
                    shared.shed.fetch_add(1, Ordering::Relaxed);
                }
                if let Some(observer) = shared.db.observer() {
                    observer.emit(
                        EventKind::ServerShed,
                        GLOBAL_SHARD,
                        0,
                        req.is_write() as u64,
                        0,
                    );
                }
                state.send(id, &Response::Error(err));
            }
        }
    }

    // Keep the ConnState registered: drained responses may still need
    // its writer during close. The closer tears it down in step 4; for
    // a connection that died mid-run, remove it so the map stays small.
    if !shared.closing.load(Ordering::Acquire) {
        shared.conns.lock().unwrap().remove(&conn_id);
    }
}

enum Admission {
    Admit,
    Shed(ServerError),
}

/// Decide a request's fate at the network edge (before it costs a
/// worker): map engine backpressure onto shed-or-queue.
fn admit(shared: &Shared, state: &ConnState, req: &Request) -> Admission {
    if shared.closing.load(Ordering::Acquire) {
        return Admission::Shed(ServerError::ShuttingDown("server draining".into()));
    }
    let pressure = if !req.is_write() {
        WritePressure::Clear
    } else {
        shared.db.write_pressure()
    };
    if state.inflight.load(Ordering::Acquire) >= window(pressure) {
        return Admission::Shed(ServerError::RetryAfter { ms: RETRY_AFTER_MS });
    }
    Admission::Admit
}

/// The per-connection in-flight window a request meeting `pressure` is
/// admitted within. A stopped engine would park the worker inside
/// `make_room`: its window is empty, and the client retries after the hint.
fn window(pressure: WritePressure) -> usize {
    match pressure {
        WritePressure::Stop => 0,
        WritePressure::Slowdown => QUEUE_SLOWDOWN_CAP,
        WritePressure::Clear => QUEUE_CAP,
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let work = {
            let mut q = shared.ready.queue.lock().unwrap();
            loop {
                if let Some(w) = q.pop_front() {
                    break w;
                }
                if shared.closing.load(Ordering::Acquire) {
                    return;
                }
                q = shared.ready.cv.wait(q).unwrap();
            }
        };
        let resp = execute(&shared.db, work.req);
        work.conn.send(work.id, &resp);
        work.conn.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Run one request against the engine.
fn execute(db: &ShardedDb, req: Request) -> Response {
    match req {
        Request::Get { key } => match db.get(key) {
            Ok(v) => Response::Value(v),
            Err(e) => map_engine_error(e),
        },
        Request::WriteBatch { batch, durable } => {
            let wopts = if durable {
                WriteOptions::durable()
            } else {
                WriteOptions::default()
            };
            match db.write(batch, &wopts) {
                Ok(seq) => Response::Committed { seq },
                Err(e) => map_engine_error(e),
            }
        }
        Request::Scan { start, limit } => {
            match db.scan(start, (limit as usize).min(MAX_SCAN_LIMIT)) {
                Ok(pairs) => Response::Entries(pairs),
                Err(e) => map_engine_error(e),
            }
        }
        Request::Metrics => Response::Metrics(Box::new(db.metrics())),
    }
}

/// Translate an engine error into the wire vocabulary: an I/O or
/// corruption error, reported as the engine worded it.
fn map_engine_error(e: LsmError) -> Response {
    Response::Error(ServerError::Server(e.to_string()))
}
