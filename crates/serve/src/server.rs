//! The daemon: acceptor, bounded queue, worker pool, graceful drain.
//!
//! Threading model:
//!
//! * The **acceptor** (the thread that calls [`Server::serve`]) polls a
//!   nonblocking listener. `GET` connections are answered inline — the
//!   read-only endpoints (`/v1/healthz`, `/v1/metrics`) cost microseconds
//!   and deliberately **bypass admission control**, so load and liveness
//!   stay observable while the prediction queue is saturated.
//! * Prediction work (`POST` connections) goes through a **bounded
//!   queue** into a **fixed worker pool**. When the queue is full the
//!   acceptor answers `429` with `Retry-After` immediately instead of
//!   letting latency grow without bound.
//! * Workers own a connection for its whole keep-alive lifetime and run
//!   requests through one shared [`XtraceEngine`], so identical
//!   concurrent requests coalesce onto a single pipeline execution and
//!   repeated requests resume warm from the artifact store.
//!
//! Graceful shutdown ([`ServerHandle::shutdown`], or a watched signal
//! flag): the acceptor stops accepting, workers drain the queue and
//! finish in-flight requests (answered with `Connection: close`), then
//! everything joins and [`Server::serve`] returns.
//!
//! Server load is observable through `serve.*` metrics exported at
//! `/v1/metrics`: `serve.accepted` / `serve.rejected` counters, the
//! `serve.queue_depth` / `serve.active` gauges, per-endpoint
//! `serve.requests.*` counters and `serve.latency_us.*` histograms.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use xtrace_core::{PipelineConfig, XtraceEngine, XtraceError};
use xtrace_obs::{Recorder, Snapshot};

use crate::http::{Conn, HttpError, ReadOutcome, Request, Response};
use crate::wire::{
    error_code, ServeErrorV1, ServeRequestV1, ServeResponseV1, ServeSweepResponseV1,
};

/// How the daemon is wired: bind address, pool size, queue bound, store.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:8191` (`:0` picks a free port).
    pub addr: String,
    /// Worker threads executing predictions.
    pub workers: usize,
    /// Connections that may wait for a worker before new ones get `429`.
    pub max_queue: usize,
    /// Artifact store root; `None` runs without cross-request caching.
    pub store: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            max_queue: 32,
            store: None,
        }
    }
}

/// Shared state between acceptor, workers, and handles.
struct Shared {
    engine: XtraceEngine,
    recorder: Arc<Recorder>,
    queue: Mutex<VecDeque<TcpStream>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    active: AtomicUsize,
    max_queue: usize,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    /// Records a queue-depth change on the gauge.
    fn note_depth(&self, depth: usize) {
        self.recorder
            .metrics()
            .gauge("serve.queue_depth")
            .set(depth as u64);
    }
}

/// A cheap-clone control handle onto a running [`Server`]: request
/// shutdown and observe server metrics from another thread.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Flags shutdown: the acceptor stops, workers drain, `serve`
    /// returns once in-flight work finishes.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.queue_cv.notify_all();
    }

    /// Snapshot of the server's own metrics registry (`serve.*`).
    pub fn snapshot(&self) -> Snapshot {
        self.shared.recorder.snapshot()
    }

    /// Busy workers right now.
    pub fn active(&self) -> usize {
        self.shared.active.load(Ordering::Acquire)
    }

    /// Connections parked in the admission queue right now.
    pub fn queue_depth(&self) -> usize {
        lock(&self.shared.queue).len()
    }
}

/// A bound daemon, ready to [`serve`](Server::serve).
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    workers: usize,
    shared: Arc<Shared>,
    watch: Option<&'static AtomicBool>,
}

impl Server {
    /// Binds the listener and builds the engine (attaching the artifact
    /// store when configured). Does not accept yet.
    pub fn bind(config: &ServeConfig) -> Result<Server, XtraceError> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| XtraceError::Usage(format!("cannot bind {}: {e}", config.addr)))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| XtraceError::Usage(format!("cannot configure listener: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| XtraceError::Usage(format!("cannot resolve bound address: {e}")))?;
        let mut engine = XtraceEngine::new();
        if let Some(root) = &config.store {
            engine = engine.with_store(root.clone())?;
        }
        let shared = Arc::new(Shared {
            engine,
            recorder: Recorder::new(),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            max_queue: config.max_queue.max(1),
        });
        Ok(Server {
            listener,
            addr,
            workers: config.workers.max(1),
            shared,
            watch: None,
        })
    }

    /// The address actually bound (resolves `:0` to the chosen port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A control handle usable from other threads while `serve` runs.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: self.shared.clone(),
        }
    }

    /// Additionally treat `flag` becoming `true` as a shutdown request —
    /// the bridge from an async-signal-safe handler (see
    /// [`crate::signal`]) into the server's own shutdown path.
    #[must_use]
    pub fn watch_flag(mut self, flag: &'static AtomicBool) -> Server {
        self.watch = Some(flag);
        self
    }

    /// Runs the daemon on the calling thread until shutdown is
    /// requested, then drains and joins the pool.
    pub fn serve(self) -> Result<(), XtraceError> {
        let mut pool = Vec::with_capacity(self.workers);
        for i in 0..self.workers {
            let shared = self.shared.clone();
            let worker = std::thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || worker_loop(&shared))
                .map_err(|e| XtraceError::Usage(format!("cannot spawn worker: {e}")))?;
            pool.push(worker);
        }

        loop {
            if let Some(flag) = self.watch {
                if flag.load(Ordering::Acquire) {
                    self.shared.shutdown.store(true, Ordering::Release);
                }
            }
            if self.shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => accept_connection(&self.shared, stream),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }

        // Drain: wake everyone; workers exit once the queue is empty.
        self.shared.queue_cv.notify_all();
        for worker in pool {
            let _ = worker.join();
        }
        Ok(())
    }
}

/// Admission control for one accepted connection.
///
/// `GET` connections (detected by peeking the first bytes) are answered
/// inline so the read-only endpoints never queue behind predictions.
/// Everything else is enqueued for the worker pool — or refused with
/// `429 Retry-After: 1` when the queue is at its bound.
fn accept_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let metrics = shared.recorder.metrics();
    metrics.counter("serve.accepted").incr();

    if starts_with_get(&stream) {
        serve_inline_get(shared, stream);
        return;
    }

    let mut queue = lock(&shared.queue);
    if queue.len() >= shared.max_queue {
        drop(queue);
        metrics.counter("serve.rejected").incr();
        let body = ServeErrorV1::new(
            "queue_full",
            format!("admission queue is at its bound of {}", shared.max_queue),
        )
        .to_json();
        let mut stream = stream;
        let _ = Response::json(429, body)
            .with_header("Retry-After", "1")
            .write_to(&mut stream, false);
        // The request was never read off the socket; close carefully so
        // the kernel doesn't RST the 429 away.
        crate::http::linger_close(&stream);
        return;
    }
    queue.push_back(stream);
    let depth = queue.len();
    drop(queue);
    shared.note_depth(depth);
    shared.queue_cv.notify_one();
}

/// Peeks whether the connection's first request is a `GET`. Waits
/// briefly for the first bytes; slow or silent clients fall through to
/// the worker queue, which handles every method.
fn starts_with_get(stream: &TcpStream) -> bool {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(5)));
    let deadline = Instant::now() + Duration::from_millis(50);
    let mut first = [0u8; 4];
    loop {
        match stream.peek(&mut first) {
            Ok(n) if n >= 4 => return &first[..4] == b"GET ",
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return false,
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Answers one `GET` request on the acceptor thread, then closes.
fn serve_inline_get(shared: &Arc<Shared>, stream: TcpStream) {
    let Ok(mut conn) = Conn::new(stream) else {
        return;
    };
    match conn.read_request(&shared.shutdown) {
        ReadOutcome::Request(req) => {
            let response = handle_request(shared, &req);
            let _ = response.write_to(conn.stream(), false);
        }
        ReadOutcome::Malformed(e) => {
            let _ = malformed_response(&e).write_to(conn.stream(), false);
            crate::http::linger_close(conn.stream());
        }
        ReadOutcome::Closed | ReadOutcome::Shutdown => {}
    }
}

/// A worker: pop a connection, serve its requests until it closes, go
/// back for the next one. Exits when shutdown is flagged *and* the
/// queue has drained.
fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let stream = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(stream) = queue.pop_front() {
                    let depth = queue.len();
                    drop(queue);
                    shared.note_depth(depth);
                    break stream;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                let (guard, _timeout) = shared
                    .queue_cv
                    .wait_timeout(queue, Duration::from_millis(100))
                    .unwrap_or_else(PoisonError::into_inner);
                queue = guard;
            }
        };
        let busy = shared.active.fetch_add(1, Ordering::AcqRel) + 1;
        let gauge = shared.recorder.metrics().gauge("serve.active");
        gauge.set(busy as u64);
        serve_connection(shared, stream);
        let busy = shared.active.fetch_sub(1, Ordering::AcqRel) - 1;
        gauge.set(busy as u64);
    }
}

/// Serves every request a connection pipelines, honoring keep-alive
/// until the client closes, an error occurs, or shutdown begins.
fn serve_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let Ok(mut conn) = Conn::new(stream) else {
        return;
    };
    loop {
        match conn.read_request(&shared.shutdown) {
            ReadOutcome::Request(req) => {
                // During drain, finish this request but close after it.
                let keep = req.keep_alive && !shared.shutdown.load(Ordering::Acquire);
                let response = handle_request(shared, &req);
                if response.write_to(conn.stream(), keep).is_err() || !keep {
                    return;
                }
            }
            ReadOutcome::Malformed(e) => {
                let _ = malformed_response(&e).write_to(conn.stream(), false);
                crate::http::linger_close(conn.stream());
                return;
            }
            ReadOutcome::Closed | ReadOutcome::Shutdown => return,
        }
    }
}

/// The `400`/`413` answer for a protocol violation.
fn malformed_response(e: &HttpError) -> Response {
    Response::json(
        e.status,
        ServeErrorV1::new("malformed_request", e.message.clone()).to_json(),
    )
}

/// Routes one parsed request, recording per-endpoint counters and
/// latency histograms.
fn handle_request(shared: &Arc<Shared>, req: &Request) -> Response {
    let endpoint = match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/v1/healthz") => "healthz",
        ("GET", "/v1/metrics") => "metrics",
        ("POST", "/v1/predict") => "predict",
        ("POST", "/v1/sweep") => "sweep",
        (_, "/v1/healthz" | "/v1/metrics" | "/v1/predict" | "/v1/sweep") => {
            return Response::json(
                405,
                ServeErrorV1::new(
                    "method_not_allowed",
                    format!("{} is not supported on {}", req.method, req.path),
                )
                .to_json(),
            );
        }
        _ => {
            return Response::json(
                404,
                ServeErrorV1::new("not_found", format!("no such endpoint {:?}", req.path))
                    .to_json(),
            );
        }
    };

    let metrics = shared.recorder.metrics();
    metrics
        .counter(&format!("serve.requests.{endpoint}"))
        .incr();
    let started = Instant::now();
    let response = match endpoint {
        "healthz" => Response::json(200, "{\"api_version\":1,\"status\":\"ok\"}".into()),
        "metrics" => Response::json(200, shared.recorder.snapshot().to_json()),
        _ => handle_run(shared, &req.body, endpoint == "predict"),
    };
    metrics
        .histogram(&format!("serve.latency_us.{endpoint}"))
        .record(started.elapsed().as_micros() as u64);
    response
}

/// Parses a request body into the v1 DTO (`400` on failure) and resolves
/// it into a pipeline config (`422`/`500` on a model-layer failure).
fn request_config(body: &[u8]) -> Result<PipelineConfig, Response> {
    let text = std::str::from_utf8(body).map_err(|_| {
        Response::json(
            400,
            ServeErrorV1::new("invalid_request", "body is not valid UTF-8").to_json(),
        )
    })?;
    let request = serde_json::from_str::<ServeRequestV1>(text).map_err(|e| {
        Response::json(
            400,
            ServeErrorV1::new("invalid_request", e.to_string()).to_json(),
        )
    })?;
    request.to_config().map_err(|e| model_error_response(&e))
}

/// The `422`/`500` answer for a model-layer failure.
fn model_error_response(e: &XtraceError) -> Response {
    let (status, code) = error_code(e);
    Response::json(status, ServeErrorV1::new(code, e.to_string()).to_json())
}

/// `POST /v1/predict` and `POST /v1/sweep`: one engine sweep over the
/// request's targets — a single target is a sweep of one — answered in the
/// endpoint's wire shape. `/v1/predict` refuses a multi-target request.
fn handle_run(shared: &Arc<Shared>, body: &[u8], predict: bool) -> Response {
    let config = match request_config(body) {
        Ok(c) => c,
        Err(response) => return response,
    };
    if predict && config.effective_targets().len() > 1 {
        return Response::json(
            422,
            ServeErrorV1::new(
                "invalid_config",
                "request names multiple targets; POST /v1/sweep instead",
            )
            .to_json(),
        );
    }
    let outcome = match shared.engine.run_sweep(&config) {
        Ok(outcome) => outcome,
        Err(e) => return model_error_response(&e),
    };
    let body = if predict {
        serde_json::to_string_pretty(&ServeResponseV1::from_outcome(&outcome.into()))
    } else {
        serde_json::to_string_pretty(&ServeSweepResponseV1::from_outcome(&outcome))
    };
    Response::json(200, body.expect("response serializes"))
}
