//! End-to-end tests of the `xtrace-serve` daemon over real sockets.
//!
//! Each test binds its own server on `127.0.0.1:0`, drives it with a
//! hand-rolled HTTP/1.1 client, and shuts it down through the control
//! handle. Covered here:
//!
//! * the **golden masked response**: a cold `/v1/predict` for the tiny
//!   SPECFEM3D config must match
//!   `tests/golden/specfem_tiny_serve_response.json` byte-for-byte, and
//!   its embedded prediction must equal the pipeline golden — the wire
//!   layer and the library goldens pin one schema;
//! * **coalescing**: two concurrent identical requests produce one cold
//!   pipeline execution (identical telemetry, one `coalesced` flag) and
//!   byte-identical predictions; a later request resumes **warm** from
//!   the store;
//! * the **error paths**: `400` (malformed JSON / unknown field), `422`
//!   (impossible config, multi-target predict), `429 Retry-After` under
//!   a full admission queue — while `GET` endpoints keep answering;
//! * **graceful shutdown**: an in-flight request completes and is
//!   answered before `serve` returns.
//!
//! To re-bless the golden after an *intentional* model change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --release --test serve
//! ```

mod common;

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use common::ScratchDir;
use xtrace::psins::Prediction;
use xtrace::serve::{ServeConfig, ServeErrorV1, ServeResponseV1, Server, ServerHandle};

/// A server running on its own thread, with its control handle.
struct TestServer {
    addr: SocketAddr,
    handle: ServerHandle,
    thread: std::thread::JoinHandle<Result<(), xtrace::core::XtraceError>>,
}

fn start_server(config: ServeConfig) -> TestServer {
    let server = Server::bind(&config).expect("bind 127.0.0.1:0");
    let addr = server.local_addr();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.serve());
    TestServer {
        addr,
        handle,
        thread,
    }
}

impl TestServer {
    fn stop(self) {
        self.handle.shutdown();
        self.thread
            .join()
            .expect("server thread")
            .expect("serve returns cleanly");
    }
}

/// One `Connection: close` request; returns (status, headers, body).
fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> (u16, Vec<(String, String)>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(300)))
        .unwrap();
    let body = body.unwrap_or_default();
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\
         Content-Length: {}\r\nContent-Type: application/json\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8(raw).expect("UTF-8 response");
    let (head, payload) = text.split_once("\r\n\r\n").expect("header terminator");
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap();
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {status_line:?}"));
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect();
    (status, headers, payload.to_string())
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

/// The request every golden file pins, as a wire body.
fn golden_request() -> &'static str {
    r#"{"app":"specfem3d","machine":"cray-xt5","training":[6,24,96],"target":384,
        "scale":"tiny","fast_tracer":true,"validate":false}"#
}

/// A cheap config for tests that only exercise the protocol.
fn cheap_request() -> &'static str {
    r#"{"app":"stencil3d","machine":"opteron","training":[2,4,8],"target":32,
        "fast_tracer":true,"validate":false}"#
}

fn wait_until(what: &str, timeout: Duration, mut ready: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !ready() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn golden_masked_predict_response() {
    let server = start_server(ServeConfig::default());
    let (status, _, body) = http(server.addr, "POST", "/v1/predict", Some(golden_request()));
    server.stop();
    assert_eq!(status, 200, "body: {body}");

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/specfem_tiny_serve_response.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &body).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); bless with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        body,
        expected,
        "serve response drifted from {}; if intentional, re-bless with \
         UPDATE_GOLDEN=1 and justify the delta in the PR",
        path.display()
    );

    // The wire prediction is the pipeline golden, not a parallel schema.
    let response: ServeResponseV1 = serde_json::from_str(&body).unwrap();
    let golden: Prediction = serde_json::from_str(
        &std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("tests/golden/specfem_tiny_prediction.json"),
        )
        .unwrap(),
    )
    .unwrap();
    assert_eq!(response.prediction, golden);
    assert!(!response.coalesced, "a lone cold request cannot coalesce");
    assert_eq!(response.telemetry.report.config_hash, response.config_hash);
}

#[test]
fn concurrent_identical_requests_coalesce_then_resume_warm() {
    let dir = ScratchDir::new("serve-coalesce");
    let server = start_server(ServeConfig {
        store: Some(dir.to_path_buf()),
        workers: 2,
        ..ServeConfig::default()
    });

    let addr = server.addr;
    let clients: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn(move || http(addr, "POST", "/v1/predict", Some(golden_request())))
        })
        .collect();
    let mut responses = Vec::new();
    for client in clients {
        let (status, _, body) = client.join().expect("client thread");
        assert_eq!(status, 200, "body: {body}");
        responses.push(serde_json::from_str::<ServeResponseV1>(&body).expect("response parses"));
    }

    // Exactly one cold pipeline execution: one follower flag, and both
    // requests carry the *same* run's telemetry — a cold run's store
    // writes, not a warm resume's hits.
    let coalesced: Vec<bool> = responses.iter().map(|r| r.coalesced).collect();
    assert_eq!(
        coalesced.iter().filter(|&&c| c).count(),
        1,
        "exactly one of the two concurrent requests must coalesce: {coalesced:?}"
    );
    assert_eq!(responses[0].prediction, responses[1].prediction);
    assert_eq!(
        responses[0].telemetry.metrics, responses[1].telemetry.metrics,
        "followers share the leader's (masked) snapshot"
    );
    assert_eq!(responses[0].telemetry.metrics.counters["store.writes"], 7);
    assert_eq!(responses[0].telemetry.report.cache_hits, 0);

    // Byte-identical prediction payloads, equal to the pipeline golden.
    let p0 = serde_json::to_string_pretty(&responses[0].prediction).unwrap();
    let p1 = serde_json::to_string_pretty(&responses[1].prediction).unwrap();
    assert_eq!(p0, p1);

    // A request arriving after completion starts a new flight and
    // resumes warm from the store instead of recomputing.
    let (status, _, body) = http(addr, "POST", "/v1/predict", Some(golden_request()));
    assert_eq!(status, 200);
    let warm: ServeResponseV1 = serde_json::from_str(&body).unwrap();
    assert!(!warm.coalesced);
    assert_eq!(
        warm.telemetry.report.cache_hits, 6,
        "warm run reuses every artifact"
    );
    assert_eq!(warm.prediction, responses[0].prediction);

    server.stop();
}

#[test]
fn sweep_returns_one_row_per_target() {
    let server = start_server(ServeConfig::default());
    let body = r#"{"app":"stencil3d","machine":"opteron","training":[2,4,8],"target":32,
                   "targets":[32,64],"fast_tracer":true,"validate":false}"#;
    let (status, _, text) = http(server.addr, "POST", "/v1/sweep", Some(body));
    // Targets keep request order: a descending list comes back descending.
    let body = r#"{"app":"stencil3d","machine":"opteron","training":[2,4,8],"target":64,
                   "targets":[64,32],"fast_tracer":true,"validate":false}"#;
    let (desc_status, _, desc_text) = http(server.addr, "POST", "/v1/sweep", Some(body));
    server.stop();
    assert_eq!(status, 200, "body: {text}");
    assert_eq!(desc_status, 200, "body: {desc_text}");
    let descending: xtrace::serve::ServeSweepResponseV1 = serde_json::from_str(&desc_text).unwrap();
    assert_eq!(descending.targets, vec![64, 32]);
    let row_targets: Vec<u32> = descending.rows.iter().map(|r| r.target).collect();
    assert_eq!(row_targets, vec![64, 32]);
    let response: xtrace::serve::ServeSweepResponseV1 = serde_json::from_str(&text).unwrap();
    assert_eq!(response.targets, vec![32, 64]);
    assert_eq!(response.rows.len(), 2);
    assert_eq!(response.rows[0].target, 32);
    assert_eq!(response.rows[1].target, 64);
    assert!(response
        .rows
        .iter()
        .all(|r| r.prediction.total_seconds > 0.0));
    assert!(!response.prefix_hash.is_empty());
    assert!(!response.coalesced);
}

#[test]
fn protocol_and_model_errors_map_to_stable_codes() {
    let server = start_server(ServeConfig::default());
    let addr = server.addr;

    // Malformed JSON → 400 invalid_request.
    let (status, _, body) = http(addr, "POST", "/v1/predict", Some("{not json"));
    assert_eq!(status, 400);
    let err: ServeErrorV1 = serde_json::from_str(&body).unwrap();
    assert_eq!(err.error, "invalid_request");

    // Unknown field → 400, naming the field.
    let (status, _, body) = http(
        addr,
        "POST",
        "/v1/predict",
        Some(r#"{"app":"a","machine":"m","training":[2,4],"target":8,"traget":9}"#),
    );
    assert_eq!(status, 400);
    assert!(body.contains("traget"), "body: {body}");

    // Unknown machine → 422 invalid_config (a typed XtraceError::Usage).
    let (status, _, body) = http(
        addr,
        "POST",
        "/v1/predict",
        Some(r#"{"app":"stencil3d","machine":"not-a-machine","training":[2,4],"target":8}"#),
    );
    assert_eq!(status, 422, "body: {body}");
    let err: ServeErrorV1 = serde_json::from_str(&body).unwrap();
    assert_eq!(err.error, "invalid_config");

    // Multi-target request on the single-target endpoint → 422.
    let (status, _, body) = http(
        addr,
        "POST",
        "/v1/predict",
        Some(
            r#"{"app":"stencil3d","machine":"opteron","training":[2,4],"target":16,"targets":[16,32]}"#,
        ),
    );
    assert_eq!(status, 422);
    assert!(body.contains("/v1/sweep"), "body: {body}");

    // A `targets` list that does not start with `target` → 422 on both
    // endpoints, never an answer for some other core count.
    for (path, body) in [
        (
            "/v1/predict",
            r#"{"app":"stencil3d","machine":"opteron","training":[2,4],"target":8,"targets":[64],"validate":false,"fast_tracer":true}"#,
        ),
        (
            "/v1/sweep",
            r#"{"app":"stencil3d","machine":"opteron","training":[2,4],"target":8,"targets":[16,32],"validate":false,"fast_tracer":true}"#,
        ),
    ] {
        let (status, _, body) = http(addr, "POST", path, Some(body));
        assert_eq!(status, 422, "{path} body: {body}");
        let err: ServeErrorV1 = serde_json::from_str(&body).unwrap();
        assert_eq!(err.error, "invalid_config", "{path} body: {body}");
    }

    // Unknown path → 404; wrong method on a real path → 405.
    let (status, _, _) = http(addr, "POST", "/v2/predict", Some("{}"));
    assert_eq!(status, 404);
    let (status, _, _) = http(addr, "POST", "/v1/healthz", Some("{}"));
    assert_eq!(status, 405);

    server.stop();
}

#[test]
fn full_queue_rejects_with_429_while_get_endpoints_answer() {
    let server = start_server(ServeConfig {
        workers: 1,
        max_queue: 1,
        ..ServeConfig::default()
    });
    let addr = server.addr;
    let handle = server.handle.clone();

    // A: occupies the only worker.
    let a = std::thread::spawn(move || http(addr, "POST", "/v1/predict", Some(cheap_request())));
    wait_until("worker busy with A", Duration::from_secs(60), || {
        handle.active() == 1
    });

    // B: fills the one queue slot.
    let handle = server.handle.clone();
    let b = std::thread::spawn(move || http(addr, "POST", "/v1/predict", Some(cheap_request())));
    wait_until("B parked in the queue", Duration::from_secs(60), || {
        handle.queue_depth() == 1
    });

    // C: queue full → immediate 429 with Retry-After.
    let (status, headers, body) = http(addr, "POST", "/v1/predict", Some(cheap_request()));
    assert_eq!(status, 429, "body: {body}");
    assert_eq!(header(&headers, "Retry-After"), Some("1"));
    let err: ServeErrorV1 = serde_json::from_str(&body).unwrap();
    assert_eq!(err.error, "queue_full");

    // The read-only endpoints bypass admission and still answer.
    let (status, _, body) = http(addr, "GET", "/v1/healthz", None);
    assert_eq!(status, 200);
    assert_eq!(body, "{\"api_version\":1,\"status\":\"ok\"}");
    let (status, _, body) = http(addr, "GET", "/v1/metrics", None);
    assert_eq!(status, 200);
    let snapshot = xtrace::obs::Snapshot::from_json(&body).expect("metrics snapshot parses");
    assert!(snapshot.counters["serve.rejected"] >= 1);
    assert!(snapshot.counters["serve.accepted"] >= 3);

    // A and B still complete successfully.
    let (status, _, _) = a.join().expect("client A");
    assert_eq!(status, 200);
    let (status, _, _) = b.join().expect("client B");
    assert_eq!(status, 200);

    server.stop();
}

#[test]
fn graceful_shutdown_answers_in_flight_work() {
    let server = start_server(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let addr = server.addr;
    let handle = server.handle.clone();

    let client =
        std::thread::spawn(move || http(addr, "POST", "/v1/predict", Some(cheap_request())));
    wait_until("request in flight", Duration::from_secs(60), || {
        handle.active() == 1
    });

    // Shut down mid-request: serve() must drain, and the client must
    // still receive its full 200.
    server.stop();
    let (status, headers, body) = client.join().expect("client thread");
    assert_eq!(status, 200, "body: {body}");
    assert_eq!(header(&headers, "Connection"), Some("close"));
    let response: ServeResponseV1 = serde_json::from_str(&body).unwrap();
    assert!(response.prediction.total_seconds > 0.0);
}

#[test]
fn keep_alive_serves_consecutive_requests_on_one_connection() {
    let server = start_server(ServeConfig::default());
    let mut stream = TcpStream::connect(server.addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(300)))
        .unwrap();

    let body = cheap_request();
    let one = format!(
        "POST /v1/predict HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    // Two requests, pipelined; the second response arrives on the same
    // connection (keep-alive is the HTTP/1.1 default) and resolves from
    // the engine without a new connection's admission pass.
    stream.write_all(one.as_bytes()).unwrap();
    stream.write_all(one.as_bytes()).unwrap();

    let mut responses = 0;
    let mut text = String::new();
    let mut chunk = [0u8; 65536];
    while responses < 2 {
        let n = stream.read(&mut chunk).expect("read");
        assert!(n > 0, "connection closed after {responses} responses");
        text.push_str(std::str::from_utf8(&chunk[..n]).unwrap());
        responses = text.matches("HTTP/1.1 200 OK").count();
    }
    assert_eq!(text.matches("Connection: keep-alive").count(), 2);
    server.stop();
}
