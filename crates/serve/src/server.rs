//! The threaded server: bounded accept queue, worker pool, keep-alive
//! connection handling, and the drain lifecycle.
//!
//! ## Lifecycle
//!
//! [`Server::run`] owns the process until shutdown. The accept loop
//! blocks in `accept()`, which [`ServerHandle::shutdown`] wakes with a
//! connection of its own; accepted connections land in a *bounded* queue
//! and overflow is answered `503` at the door — the server's first
//! load-shedding tier, before any request bytes are read. Workers pop
//! connections and serve keep-alive request loops; each query
//! additionally passes the [`AdmissionController`] (the second tier,
//! `429`/`503` per request).
//!
//! ## Drain
//!
//! [`ServerHandle::shutdown`] (e.g. from a SIGINT handler) flips the
//! server into draining:
//!
//! 1. the accept loop stops accepting and `503`s everything still queued;
//! 2. admission refuses new queries ([`AdmissionError::Draining`]) while
//!    in-flight queries keep their permits;
//! 3. idle keep-alive connections are unblocked via
//!    `shutdown(Shutdown::Read)` so their reads return EOF immediately
//!    instead of dangling until the read timeout;
//! 4. once the queue is shed, the `run` thread fires the shared drain
//!    [`CancelToken`] if in-flight work outlives the drain deadline: any
//!    still-running query stops at its next governor checkpoint and
//!    completes as a `200` partial. [`Server::run`] returns once idle.
//!
//! [`AdmissionError::Draining`]: crate::admission::AdmissionError::Draining

use crate::admission::AdmissionController;
use crate::error::ServeError;
use crate::http::{self, HttpError, Method, Response};
use crate::policy::ServePolicy;
use crate::recorder::FlightRecorder;
use crate::routes::{self, RouteContext};
use crate::state::ServerState;
use flexpath::CancelToken;
use flexpath_engine::metrics::{self, Counter};
use std::collections::{BTreeMap, VecDeque};
use std::io::ErrorKind::{ConnectionRefused, TimedOut};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::sleep;
use std::time::{Duration, Instant};

/// Back-off after a transient accept or wake-connect failure (e.g.
/// EMFILE): brief, rather than spinning or dying.
const BACKOFF: Duration = Duration::from_millis(10);

/// State shared between the accept loop, workers, and every [`ServerHandle`].
#[derive(Debug)]
struct Shared {
    shutdown: AtomicBool,
    /// Where [`ServerHandle::shutdown`] connects to wake `accept()`.
    wake_addr: SocketAddr,
    drain_cancel: CancelToken,
    admission: AdmissionController,
    queue: Mutex<VecDeque<TcpStream>>,
    queue_cv: Condvar,
    /// Clones of every connection a worker is currently serving, so drain
    /// can unblock their reads. Keyed by a serial id.
    conns: Mutex<BTreeMap<u64, TcpStream>>,
    next_conn_id: AtomicU64,
    /// The process's query flight recorder (see [`crate::recorder`]).
    recorder: FlightRecorder,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Shared {
    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }
}

/// A handle for requesting shutdown from another thread (typically a
/// signal handler's monitor thread). Cloneable and cheap.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Begins the drain: stop accepting, refuse new queries, unblock idle
    /// connections, and bound in-flight work by the drain deadline.
    /// Idempotent; returns after its wake-up connect, within ~0.2 s even
    /// when it must retry ([`Server::run`] returns once the drain completes).
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.admission.drain();
        // Unblock idle keep-alive reads: EOF beats waiting out the read
        // timeout. In-flight responses still write fine — only the read
        // half closes.
        for conn in lock(&self.shared.conns).values() {
            let _ = conn.shutdown(Shutdown::Read);
        }
        self.shared.queue_cv.notify_all();
        // Wake the blocked accept(). Out of descriptors, retry while the idle
        // connections shut above close; refused or timed out, none is due.
        for _ in 0..10 {
            match TcpStream::connect_timeout(&self.shared.wake_addr, Duration::from_millis(100)) {
                Err(e) if !matches!(e.kind(), ConnectionRefused | TimedOut) => sleep(BACKOFF),
                _ => return,
            }
        }
    }

    /// Whether shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.shared.is_shutdown()
    }
}

/// The query service: a TCP listener plus shared state. Bind with
/// [`Server::bind`], then call [`Server::run`] (which blocks until a
/// [`ServerHandle::shutdown`]).
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
    policy: ServePolicy,
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.listener.local_addr().ok())
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds the listener and prepares shared state. `addr` may be
    /// `"127.0.0.1:0"` to pick a free port (see [`Server::local_addr`]).
    pub fn bind(
        addr: &str,
        state: Arc<ServerState>,
        policy: ServePolicy,
    ) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(addr)?;
        let mut wake_addr = listener.local_addr()?;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let mut recorder =
            FlightRecorder::new(policy.recorder_capacity, policy.slow_query_threshold);
        if let Some(path) = &policy.slow_log {
            recorder = recorder.with_slow_log(path)?;
        }
        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            wake_addr,
            drain_cancel: CancelToken::new(),
            admission: AdmissionController::new(
                policy.max_concurrent_queries,
                policy.initial_concurrent_queries,
                policy.admission_queue_depth,
                policy.admission_timeout,
            ),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            conns: Mutex::new(BTreeMap::new()),
            next_conn_id: AtomicU64::new(0),
            recorder,
        });
        Ok(Server {
            listener,
            state,
            policy,
            shared,
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> Result<std::net::SocketAddr, ServeError> {
        Ok(self.listener.local_addr()?)
    }

    /// A shutdown handle, safe to move to other threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Serves until shutdown, then drains and returns. Worker threads are
    /// scoped: when this returns, every connection is closed and every
    /// query has finished (completely or as a drain-cancelled partial).
    pub fn run(self) -> Result<(), ServeError> {
        let shared = &self.shared;
        let policy = &self.policy;
        let state = &self.state;
        std::thread::scope(|scope| {
            for _ in 0..policy.workers.max(1) {
                scope.spawn(move || worker_loop(shared, state, policy));
            }
            // Accept loop: blocks until a client or `shutdown`'s wake call.
            while !shared.is_shutdown() {
                match self.listener.accept() {
                    // Checked after accept returns: the wake connection is never
                    // counted, queued or shed; a client racing it gets a bare close.
                    _ if shared.is_shutdown() => break,
                    Ok((stream, _)) => {
                        metrics::global().add(Counter::ServeConnsAccepted, 1);
                        let mut queue = lock(&shared.queue);
                        if queue.len() >= policy.conn_queue_depth {
                            drop(queue);
                            // First shedding tier: the door. No request
                            // bytes are read from an overflowing client.
                            shed_connection(stream, policy);
                        } else {
                            queue.push_back(stream);
                            drop(queue);
                            shared.queue_cv.notify_one();
                        }
                    }
                    Err(_) => sleep(BACKOFF),
                }
            }

            // Drain: everything still queued gets a typed 503 without its
            // request being read; workers exit once the queue stays empty.
            let queued: Vec<TcpStream> = lock(&shared.queue).drain(..).collect();
            for stream in queued {
                shed_connection(stream, policy);
            }
            shared.queue_cv.notify_all();
            drain_watchdog(shared, policy.drain_deadline);
        });
        Ok(())
    }
}

/// Writes a `503 + Retry-After` and closes — used for door-level shedding
/// and for connections still queued when the drain begins.
///
/// The write is a single best-effort non-blocking attempt: this runs on
/// the accept loop, and a slow or unresponsive client being shed must not
/// stall `accept()` for well-behaved connections — exactly the moment
/// (overload) when that would hurt most. A freshly accepted socket's send
/// buffer is empty, so the small 503 body virtually always fits; when it
/// doesn't, the client just sees the close.
fn shed_connection(stream: TcpStream, policy: &ServePolicy) {
    metrics::global().add(Counter::ServeShedAtDoor, 1);
    let resp = routes::err_json(503, "overloaded", "connection queue full; retry later")
        .retry_after(policy.retry_after_secs);
    routes::count_response(resp.status);
    let mut buf = Vec::with_capacity(256);
    let _ = resp.write_to(&mut buf, false, true);
    if stream.set_nonblocking(true).is_ok() {
        use std::io::Write as _;
        let _ = (&stream).write(&buf);
    }
}

/// Fires the drain [`CancelToken`] if in-flight work outlives
/// `drain_deadline` from now; returns as soon as the server is idle.
fn drain_watchdog(shared: &Shared, drain_deadline: Duration) {
    let started = Instant::now();
    loop {
        let idle = lock(&shared.queue).is_empty()
            && lock(&shared.conns).is_empty()
            && shared.admission.in_flight() == 0;
        if idle {
            return;
        }
        if started.elapsed() >= drain_deadline {
            metrics::global().add(Counter::ServeDrainDeadlineFired, 1);
            shared.drain_cancel.cancel();
            return;
        }
        sleep(Duration::from_millis(5));
    }
}

/// One worker: pop connections off the shared queue and serve them until
/// shutdown *and* the queue is empty.
fn worker_loop(shared: &Shared, state: &ServerState, policy: &ServePolicy) {
    loop {
        // No wake-up is lost: after setting the flag, the accept loop
        // takes this lock before its `notify_all`.
        let mut queue = shared
            .queue_cv
            .wait_while(lock(&shared.queue), |q| {
                q.is_empty() && !shared.is_shutdown()
            })
            .unwrap_or_else(PoisonError::into_inner);
        let Some(stream) = queue.pop_front() else {
            return;
        };
        drop(queue);
        handle_connection(shared, state, policy, stream);
    }
}

/// Serves one connection's keep-alive request loop. All errors are typed:
/// parse failures get their mapped status, the connection closes, and the
/// worker moves on — nothing here can panic or hang past the socket
/// timeouts.
fn handle_connection(
    shared: &Shared,
    state: &ServerState,
    policy: &ServePolicy,
    mut stream: TcpStream,
) {
    if http::install_timeouts(&stream, policy.read_timeout, policy.write_timeout).is_err() {
        return;
    }
    // Register a clone so drain can unblock this connection's reads.
    let conn_id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
    if let Ok(clone) = stream.try_clone() {
        lock(&shared.conns).insert(conn_id, clone);
    }
    serve_requests(shared, state, policy, &mut stream);
    lock(&shared.conns).remove(&conn_id);
    let _ = stream.shutdown(Shutdown::Both);
}

fn serve_requests(
    shared: &Shared,
    state: &ServerState,
    policy: &ServePolicy,
    stream: &mut TcpStream,
) {
    let ctx = RouteContext {
        state,
        policy,
        admission: &shared.admission,
        drain_cancel: &shared.drain_cancel,
        recorder: &shared.recorder,
    };
    for served in 0..policy.max_requests_per_conn.max(1) {
        // A connection popped (or parked) after shutdown gets a shed
        // response without its request being read.
        if shared.is_shutdown() {
            let resp = routes::err_json(503, "draining", "server is draining")
                .retry_after(policy.retry_after_secs);
            routes::count_response(resp.status);
            let _ = resp.write_to(stream, false, true);
            return;
        }
        let req = match http::read_request(stream, &policy.http) {
            Ok(req) => req,
            Err(HttpError::ConnectionClosed) => return,
            Err(e) => {
                metrics::global().add(Counter::ServeHttpErrors, 1);
                let err = ServeError::Http(e);
                let resp = routes::error_response(&ctx, &err);
                routes::count_response(resp.status);
                let _ = resp.write_to(stream, false, true);
                return;
            }
        };
        let head_only = req.method == Method::Head;
        let close =
            req.wants_close() || req.pipelined_excess || served + 1 == policy.max_requests_per_conn;
        let resp: Response = routes::dispatch(&ctx, &req);
        if resp.write_to(stream, head_only, close).is_err() {
            return;
        }
        if close {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // End-to-end coverage lives in `tests/serve.rs`; here we only check
    // the pieces that are awkward to reach over a real socket.

    #[test]
    fn bind_on_port_zero_yields_an_addr_and_handle() {
        let dir = flexpath_reference::ScratchDir::new("serve-bind");
        let state = Arc::new(ServerState::open(dir.path()).unwrap());
        // An unspecified address: shutdown must wake accept() via loopback.
        let server = Server::bind("0.0.0.0:0", state, ServePolicy::for_tests()).unwrap();
        let port = server.local_addr().unwrap().port();
        assert_ne!(port, 0);
        let handle = server.handle();
        assert!(!handle.is_shutdown());
        let (done, finished) = std::sync::mpsc::channel();
        let join = std::thread::spawn(move || done.send(server.run().is_ok()));
        // One answered request puts run() in its blocking accept().
        let addr = SocketAddr::from((Ipv4Addr::LOCALHOST, port));
        let resp = crate::http_call(addr, "GET", "/healthz", b"", Duration::from_secs(5)).unwrap();
        assert_eq!(resp.status, 200);
        let door = || {
            let counters = metrics::global().snapshot().counters;
            [Counter::ServeConnsAccepted, Counter::ServeShedAtDoor]
                .map(|c| counters[Counter::NAMES[c as usize]])
        };
        let before = door();
        handle.shutdown();
        assert!(handle.is_shutdown());
        let ran_ok = finished
            .recv_timeout(Duration::from_secs(1))
            .expect("run() returns within 1 s of shutdown");
        assert!(ran_ok);
        join.join().unwrap().unwrap();
        // The wake connection is never counted (no other test in this
        // crate runs a server, so equality holds under parallel tests).
        assert_eq!(door(), before);

        // Shutdown before run (a SIGINT that beats `serve`'s run call):
        // the wake connection waits in the backlog, never accepted, and
        // run returns at once.
        let dir = flexpath_reference::ScratchDir::new("serve-bind-early");
        let state = Arc::new(ServerState::open(dir.path()).unwrap());
        let server = Server::bind("127.0.0.1:0", state, ServePolicy::for_tests()).unwrap();
        server.handle().shutdown();
        let started = Instant::now();
        server.run().unwrap();
        assert!(started.elapsed() < Duration::from_secs(1));
    }
}
