//! `serve-warm`: two keep-alive clients against an in-process
//! `xtrace_serve::Server` (two workers, default queue) sending
//! `POST /v1/predict` over a seeded working set of tiny SPECFEM3D configs
//! that set-up has already warmed. Each client sends its own half of the
//! set, so no two in-flight requests coalesce.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::Instant;

use xtrace_core::{ArtifactStore, PipelineConfig, XtraceEngine, XtraceError};
use xtrace_psins::Prediction;
use xtrace_serve::{ServeConfig, ServeRequestV1, ServeResponseV1, Server, ServerHandle};

use crate::client::{prediction_slice, Client};
use crate::ledger::{replay_run, same_prediction, Ledger, OpTrace};
use crate::seq::{serve_ops, serve_working_set, GOLDEN};
use crate::stats::{OpResult, Tally};
use crate::workload::{record_obs, remove_dir, repeat_setup, Params, RunOutput, TraceOutput};

/// Serve workers (the server's default, stated here so the run context
/// can report it).
pub const WORKERS: usize = 2;
/// Load-generating clients.
pub const CLIENTS: usize = 2;
/// The repository's pinned prediction for the golden config.
const GOLDEN_FILE: &str = "tests/golden/specfem_tiny_prediction.json";

/// One working-set entry.
type Key = (&'static str, u32);

/// The request body for a working-set config: shaped like the golden
/// (tiny scale, 6/24/96, fast tracer, validation off).
fn body(&(machine, target): &Key) -> String {
    format!(
        "{{\"app\":\"specfem3d\",\"machine\":\"{machine}\",\"training\":[6,24,96],\
         \"target\":{target},\"scale\":\"tiny\",\"fast_tracer\":true,\"validate\":false}}"
    )
}

/// What a worker does with a request body before the engine runs:
/// parse the v1 DTO and lower it onto a config.
fn decode(body: &str) -> Result<PipelineConfig, String> {
    let request: ServeRequestV1 = serde_json::from_str(body).map_err(|e| e.to_string())?;
    request.to_config().map_err(|e| e.to_string())
}

/// A running server over its own store, shut down and joined on drop.
struct Served {
    handle: ServerHandle,
    thread: Option<JoinHandle<Result<(), XtraceError>>>,
    addr: SocketAddr,
    dir: PathBuf,
}

impl Served {
    fn start(dir: PathBuf) -> Result<Served, String> {
        let server = Server::bind(&ServeConfig {
            workers: WORKERS,
            store: Some(dir.clone()),
            ..ServeConfig::default()
        })
        .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr();
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.serve());
        Ok(Served {
            handle,
            thread: Some(thread),
            addr,
            dir,
        })
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(thread) = self.thread.take() {
            // A failed serve loop has nothing left to clean up here.
            let _ = thread.join();
        }
        remove_dir(&self.dir);
    }
}

/// Reference output per config: the prediction's bytes as the wire
/// prints them, and the parsed prediction.
type Refs = BTreeMap<Key, (Vec<u8>, Prediction)>;

/// Set-up: start a server on an empty store and send every config once
/// (each a cold run), keeping each response's prediction as reference.
fn warm(params: &Params, set: &[Key], golden: &str) -> Result<(Served, Refs, Vec<String>), String> {
    let served = Served::start(params.scratch("store")?)?;
    let mut client = Client::new(served.addr);
    let mut refs = Refs::new();
    let mut failures = Vec::new();
    for key in set {
        let (status, payload) = client
            .post("/v1/predict", &body(key))
            .map_err(|e| format!("warm-up {key:?}: {e}"))?;
        if status != 200 {
            return Err(format!("warm-up {key:?}: status {status}"));
        }
        let slice = prediction_slice(&payload).ok_or("response without prediction")?;
        let text = std::str::from_utf8(slice).map_err(|e| e.to_string())?;
        let prediction: Prediction =
            serde_json::from_str(text).map_err(|e| format!("warm-up {key:?}: {e}"))?;
        if *key == GOLDEN {
            let pretty = serde_json::to_string_pretty(&prediction).map_err(|e| e.to_string())?;
            if pretty != golden {
                failures.push(format!("golden config {key:?} differs from {GOLDEN_FILE}"));
            }
        }
        refs.insert(*key, (slice.to_vec(), prediction));
    }
    Ok((served, refs, failures))
}

/// A client's measured loop. Traced runs alternate an untraced op with a
/// traced one; the traced op replays the server's phases from here.
struct ClientRun {
    tally: Tally,
    untraced: Vec<f64>,
    traced: Vec<OpTrace>,
}

/// The benchmark's own engine and store over the server's store
/// directory, warmed like the server's, for the traced replay.
struct Tracer {
    engine: XtraceEngine,
    store: ArtifactStore,
}

fn traced_op(
    tracer: &Tracer,
    client: &mut Client,
    key: &Key,
    reference: &(Vec<u8>, Prediction),
    tally: &mut Tally,
) -> OpTrace {
    let body = body(key);
    let mut tr = OpTrace::default();
    let t = Instant::now();
    let response = client.post("/v1/predict", &body);
    tr.add("serve.roundtrip_s", t.elapsed().as_secs_f64());
    tally.check(
        op_result(&response, &reference.0),
        &format!("{key:?} (traced round trip)"),
    );

    let config = tr.time("serve.decode_s", || decode(&body));
    let mut served = OpResult::Error;
    if let Ok(config) = &config {
        let t = Instant::now();
        let outcome = tracer.engine.run(config);
        tr.add("engine.run_s", t.elapsed().as_secs_f64());
        if let Ok(outcome) = &outcome {
            let encoded = tr.time("serve.encode_s", || {
                serde_json::to_string_pretty(&ServeResponseV1::from_outcome(outcome))
            });
            if let Ok(encoded) = encoded {
                tr.add("serve.response_bytes", encoded.len() as f64);
                served = match prediction_slice(encoded.as_bytes()) {
                    Some(s) if s == reference.0.as_slice() => OpResult::Ok,
                    _ => OpResult::Mismatch,
                };
            }
            record_obs(&mut tr, outcome.journal.as_ref(), outcome);
        }
        let replayed = replay_run(config, &tracer.store, &mut tr);
        tally.check(
            match &replayed {
                Ok(p) if same_prediction(p, &reference.1) => OpResult::Ok,
                Ok(_) => OpResult::Mismatch,
                Err(_) => OpResult::Error,
            },
            &format!("{key:?} (replay)"),
        );
    }
    tally.check(served, &format!("{key:?} (traced engine)"));
    tr
}

fn op_result(response: &std::io::Result<(u16, Vec<u8>)>, reference: &[u8]) -> OpResult {
    match response {
        Ok((200, payload)) => match prediction_slice(payload) {
            Some(s) if s == reference => OpResult::Ok,
            _ => OpResult::Mismatch,
        },
        Ok((status, _)) => OpResult::from_status(*status),
        Err(_) => OpResult::Error,
    }
}

/// One client's closed loop over its half until `deadline` (at least one
/// op). On a traced run every op is followed by a traced op.
fn client_loop(
    params: &Params,
    c: usize,
    half: &[Key],
    refs: &Refs,
    tracer: Option<&Tracer>,
    addr: SocketAddr,
    deadline: Instant,
) -> ClientRun {
    let mut client = Client::new(addr);
    let mut run = ClientRun {
        tally: Tally::default(),
        untraced: Vec::new(),
        traced: Vec::new(),
    };
    for (i, idx) in serve_ops(params.seed, c as u64, half.len(), 1 << 16)
        .into_iter()
        .enumerate()
    {
        if i > 0 && Instant::now() >= deadline {
            break;
        }
        let key = &half[idx];
        let reference = &refs[key];
        let t = Instant::now();
        let response = client.post("/v1/predict", &body(key));
        let dt = t.elapsed().as_secs_f64();
        let result = op_result(&response, &reference.0);
        run.tally
            .record(result, dt, &format!("client {c} op {i} {key:?}"));
        if let Some(tracer) = tracer {
            if result == OpResult::Ok {
                run.untraced.push(dt);
            }
            let traced = traced_op(tracer, &mut client, key, reference, &mut run.tally);
            run.traced.push(traced);
        }
    }
    run
}

pub fn run(params: &Params) -> Result<RunOutput, String> {
    let golden = std::fs::read_to_string(GOLDEN_FILE).map_err(|e| format!("{GOLDEN_FILE}: {e}"))?;
    let halves = serve_working_set(params.seed);
    let set: Vec<Key> = halves.iter().flatten().copied().collect();

    let mut setup_failures = Vec::new();
    let setup = repeat_setup(params, || {
        let (served, refs, failures) = warm(params, &set, &golden)?;
        setup_failures.extend(failures);
        let fingerprint = refs
            .values()
            .map(|(bytes, _)| String::from_utf8_lossy(bytes))
            .collect();
        Ok(((served, refs), fingerprint))
    })?;
    setup_failures.extend(setup.failures());
    let (served, refs) = setup.state;

    let tracer = if params.trace {
        let tracer = Tracer {
            engine: XtraceEngine::new()
                .with_store(&served.dir)
                .map_err(|e| format!("store: {e}"))?,
            store: ArtifactStore::open_shared(&served.dir).map_err(|e| format!("store: {e}"))?,
        };
        for key in &set {
            let config = decode(&body(key)).map_err(|e| format!("{key:?}: {e}"))?;
            tracer
                .engine
                .run(&config)
                .map_err(|e| format!("{key:?}: {e}"))?;
            replay_run(&config, &tracer.store, &mut OpTrace::default())
                .map_err(|e| format!("{key:?}: {e}"))?;
        }
        Some(tracer)
    } else {
        None
    };

    let begin = Instant::now();
    let deadline = params.deadline(begin);
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let clients: Vec<_> = halves
            .iter()
            .enumerate()
            .map(|(c, half)| {
                let (refs, tracer, addr) = (&refs, tracer.as_ref(), served.addr);
                scope.spawn(move || client_loop(params, c, half, refs, tracer, addr, deadline))
            })
            .collect();
        clients
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let timed_wall = begin.elapsed().as_secs_f64();
    drop(tracer);
    drop(served);

    let mut tally = Tally::default();
    let mut ledger = Ledger::default();
    let mut untraced = Vec::new();
    for run in runs {
        tally.merge(run.tally);
        untraced.extend(run.untraced);
        for tr in run.traced {
            ledger.push(tr);
        }
    }
    Ok(RunOutput {
        setup: setup.times,
        timed_wall,
        tally,
        clients: CLIENTS,
        trace: params.trace.then_some(TraceOutput {
            ledger,
            untraced,
            serve: true,
        }),
        setup_failures,
    })
}
