//! `xtrace` — command-line driver for the trace-extrapolation pipeline.
//!
//! This binary is a thin shell over `xtrace-core`: it parses flags into
//! typed requests (most subcommands into a [`PipelineConfig`]), hands them
//! to the library, and renders the results. All failure classes map onto
//! distinct exit codes via [`XtraceError::exit_code`]: `2` for usage
//! errors, `3` for filesystem/trace-format errors, `4` for model-layer
//! errors.
//!
//! ```text
//! xtrace machines                          list target-machine presets
//! xtrace apps                              list proxy applications
//! xtrace trace       --app A --ranks P --machine M [--rank R] [--scale S] [--out F]
//! xtrace extrapolate --target P [--forms paper|extended] --out F T1.json T2.json T3.json
//! xtrace predict     --trace F --app A --ranks P --machine M [--scale S]
//! xtrace pipeline    --app A --training P1,P2,P3 --target P --machine M
//!                    [--scale S] [--forms paper|extended] [--validate true|false]
//!                    [--store DIR] [--out F]
//! xtrace report      the pipeline run flags except --out, --metrics and
//!                    --critical-out, plus [--top N]
//! xtrace diff        --a F1 --b F2 [--threshold 0.001] [--top N]
//! xtrace bench-verdict PERFBENCH_OUT... [--history F] [--append [true|false]]
//! xtrace machine-export --machine M --out F.json
//! xtrace inspect     --app A --ranks P [--rank R] [--scale S]
//! xtrace serve       [--addr IP:PORT] [--workers N] [--max-queue N] [--store DIR]
//! ```
//!
//! `--machine` accepts either a preset name or a path to a profile exported
//! with `machine-export` (measured surface included — the PMaC hand-off
//! artifact between benchmarking and prediction).
//!
//! Traces are stored as JSON (`.json`) or the compact binary format
//! (anything else). `--scale` selects `tiny`, `small` (default;
//! laptop-friendly) or `paper` (the full Table I configuration).
//!
//! `xtrace pipeline --store DIR` files every stage artifact in an
//! `xtrace-core` artifact store keyed by the config hash; re-running the
//! identical command resumes from the store instead of recomputing.
//!
//! `xtrace pipeline --metrics-out metrics.json` attaches an `xtrace-obs`
//! recorder to the run and writes the full metrics snapshot (per-stage
//! spans, kernel counters, histograms) as JSON; `--metrics table` renders
//! the same snapshot human-readably on stderr. Metrics never change the
//! prediction — the report is bit-identical with or without them.
//!
//! `--trace-out trace.json` additionally enables the structured event
//! journal and exports it in Chrome Trace Event Format (open the file in
//! <https://ui.perfetto.dev> or `chrome://tracing`); `--diagnostics-out`
//! writes the per-element canonical-form fit diagnostics (candidate
//! SSE/R², winner, residuals, extrapolation distance) as JSON. The
//! journal is subject to the same guarantee as metrics: predictions are
//! bit-identical with it on or off.
//!
//! `xtrace report` runs the same pipeline as `xtrace pipeline` with the
//! journal always on and renders a run report on stdout: stage timing
//! breakdown, the canonical-form win table, the `--top <N>` (default 5)
//! worst-fit elements by winner R², the per-rank-class compute vs.
//! communication split rendered per swept target, and (unless
//! `--critical-path false`) the per-target critical-path attribution
//! tables with the bottleneck-flip-scale callout.
//!
//! `--target` takes a comma list to sweep several core counts over one
//! shared collection. A single target is a sweep of one: `pipeline` and
//! `report` each make one engine sweep, and the single-target output is
//! how a one-lane sweep renders.
//!
//! `--threads <N>` (accepted by every command) caps the rayon worker
//! count used for block-parallel collection and parallel fitting;
//! `0` or omitting the flag uses all hardware threads. Results are
//! identical at any thread count.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use xtrace_core::{
    make_app, make_machine, FormSet, PipelineConfig, PipelineReport, StageKind, StageObserver,
    SweepOutcome, SweepReport, XtraceEngine, XtraceError,
};
use xtrace_extrap::{fit_signature_obs, synthesize_from_fit, ExtrapolationConfig, FitReport};
use xtrace_machine::presets;
use xtrace_obs::ObsContext;
use xtrace_tracer::{
    from_bytes, load_json, save_json, to_bytes, IoError, SigMemo, TaskTrace, TracerConfig,
};

fn usage() -> &'static str {
    "usage:\n  \
     xtrace machines\n  \
     xtrace apps\n  \
     xtrace trace --app <name> --ranks <P> --machine <name> [--rank <R>] [--scale tiny|small|paper] [--out <file>]\n  \
     xtrace extrapolate --target <P> [--forms paper|extended] [--report true] [--out <file>] <trace files...>\n  \
     xtrace predict --trace <file> --app <name> --ranks <P> --machine <name> [--scale tiny|small|paper]\n  \
     xtrace pipeline --app <name> --training <P1,P2,P3> --target <P[,P2,...]> --machine <name>\n                  \
     [--scale tiny|small|paper] [--forms paper|extended] [--validate true|false]\n                  \
     [--tracer fast|default] [--ranks-per-count <K>] [--store <dir>] [--out <file>]\n                  \
     [--metrics-out <file.json>] [--metrics table]\n                  \
     [--trace-out <trace.json>] [--diagnostics-out <file.json>]\n                  \
     [--critical-path [true|false]] [--critical-out <file.json>]\n  \
     xtrace report --app <name> --training <P1,P2,P3> --target <P[,P2,...]> --machine <name>\n                  \
     [--scale tiny|small|paper] [--forms paper|extended] [--validate true|false]\n                  \
     [--tracer fast|default] [--ranks-per-count <K>] [--store <dir>] [--top <N>]\n                  \
     [--metrics-out <file.json>] [--trace-out <trace.json>] [--diagnostics-out <file.json>]\n                  \
     [--critical-path [true|false]]\n  \
     xtrace diff --a <file> --b <file> [--threshold <frac>] [--top <N>]\n  \
     xtrace bench-verdict <perfbench outputs...> [--history <file.jsonl>] [--append [true|false]]\n  \
     xtrace machine-export --machine <name> --out <file.json>\n  \
     xtrace inspect --app <name> --ranks <P> [--rank <R>] [--scale tiny|small|paper]\n  \
     xtrace serve [--addr <ip:port>] [--workers <N>] [--max-queue <N>] [--store <dir>]\n\n\
     trace files ending in .json are JSON; all others use the compact binary format\n\
     a comma list to --target sweeps several core counts over one shared collection\n\
     every command also accepts --threads <N> (rayon worker threads; 0 = all cores)\n\
     exit codes: 2 = usage error, 3 = I/O or trace-format error, 4 = model error"
}

type Result<T> = xtrace_core::Result<T>;

fn usage_err(message: impl Into<String>) -> XtraceError {
    XtraceError::Usage(message.into())
}

/// Minimal `--key value` argument scanner; positional arguments are
/// collected separately.
struct Args {
    flags: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Args {
    /// Flags that may appear bare (`--critical-path`), reading as `true`;
    /// every other flag requires an explicit value.
    const BOOLEAN_FLAGS: &'static [&'static str] = &["critical-path", "append"];

    fn parse(argv: &[String]) -> Result<Self> {
        let mut flags = Vec::new();
        let mut positional = Vec::new();
        let mut it = argv.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                let bare = Self::BOOLEAN_FLAGS.contains(&key)
                    && it.peek().is_none_or(|next| next.starts_with("--"));
                let value = if bare {
                    "true".to_string()
                } else {
                    it.next()
                        .ok_or_else(|| usage_err(format!("flag --{key} needs a value")))?
                        .clone()
                };
                flags.push((key.to_string(), value));
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Self { flags, positional })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn require(&self, key: &str) -> Result<&str> {
        self.get(key)
            .ok_or_else(|| usage_err(format!("missing --{key}")))
    }

    /// A `true|false` flag, `default` when absent.
    fn parse_bool(&self, key: &str, default: bool) -> Result<bool> {
        match self.get(key) {
            None => Ok(default),
            Some("true") => Ok(true),
            Some("false") => Ok(false),
            Some(other) => Err(usage_err(format!(
                "--{key} must be true|false, got {other:?}"
            ))),
        }
    }

    fn parse_u32(&self, key: &str) -> Result<u32> {
        self.require(key)?
            .parse()
            .map_err(|_| usage_err(format!("--{key} must be a positive integer")))
    }
}

fn cmd_inspect(args: &Args) -> Result<()> {
    let app = make_app(args.require("app")?, args.get("scale").unwrap_or("small"))?;
    let ranks = args.parse_u32("ranks")?;
    let rank: u32 = args
        .get("rank")
        .unwrap_or("0")
        .parse()
        .map_err(|_| usage_err("--rank must be an integer"))?;
    if rank >= ranks {
        return Err(usage_err(format!(
            "--rank {rank} out of range for {ranks} ranks"
        )));
    }
    let rp = app.spmd().rank_program(rank, ranks);
    println!("{} — rank {rank} of {ranks}\n", app.spmd().name());
    print!("{}", xtrace_ir::render_program(&rp.program));
    println!("events:");
    for (i, e) in rp.events.iter().enumerate() {
        println!("  [{i}] {e:?}");
    }
    Ok(())
}

/// Writes an output file, creating missing parent directories. Both the
/// directory creation and the write map failures onto
/// [`XtraceError::Io`] (exit code 3) rather than surfacing a raw I/O
/// error.
fn write_file(path: &str, body: impl AsRef<[u8]>) -> Result<()> {
    let io_err = |e: std::io::Error| {
        XtraceError::Io(IoError::Io {
            path: path.into(),
            source: e,
        })
    };
    if let Some(parent) = Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(io_err)?;
        }
    }
    std::fs::write(path, body).map_err(io_err)
}

fn cmd_machine_export(args: &Args) -> Result<()> {
    let machine = make_machine(args.require("machine")?)?;
    let out = args.require("out")?;
    let spec = machine.to_spec(); // measures the surface if needed
    let json = serde_json::to_string_pretty(&spec).expect("serializable");
    write_file(out, json)?;
    eprintln!(
        "exported {} ({} surface points) to {out}",
        machine.name,
        machine.surface().points.len()
    );
    Ok(())
}

fn load_trace(path: &Path) -> Result<TaskTrace> {
    if path.extension().is_some_and(|e| e == "json") {
        Ok(load_json(path)?)
    } else {
        let bytes = std::fs::read(path).map_err(|e| {
            XtraceError::Io(IoError::Io {
                path: path.to_path_buf(),
                source: e,
            })
        })?;
        Ok(from_bytes(&bytes)?)
    }
}

fn store_trace(trace: &TaskTrace, path: &Path) -> Result<()> {
    if path.extension().is_some_and(|e| e == "json") {
        Ok(save_json(trace, path)?)
    } else {
        std::fs::write(path, to_bytes(trace)).map_err(|e| {
            XtraceError::Io(IoError::Io {
                path: path.to_path_buf(),
                source: e,
            })
        })
    }
}

fn cmd_machines() -> Result<()> {
    println!(
        "{:<20} {:>7} {:>9} {:>24}",
        "name", "levels", "clock", "caches"
    );
    for m in presets::all() {
        let caches: Vec<String> = m
            .hierarchy
            .levels
            .iter()
            .map(|l| format!("{}K", l.size_bytes / 1024))
            .collect();
        println!(
            "{:<20} {:>7} {:>6.1}GHz {:>24}",
            m.name,
            m.depth(),
            m.clock_hz / 1e9,
            caches.join("/")
        );
    }
    Ok(())
}

fn cmd_apps() -> Result<()> {
    println!("specfem3d   spectral-element seismic wave propagation proxy");
    println!("uh3d        hybrid particle-in-cell magnetosphere proxy");
    println!("stencil3d   3-D Jacobi relaxation proxy");
    Ok(())
}

fn cmd_trace(args: &Args) -> Result<()> {
    let obs = ObsContext::disabled();
    let app = make_app(args.require("app")?, args.get("scale").unwrap_or("small"))?;
    let ranks = args.parse_u32("ranks")?;
    let machine = make_machine(args.require("machine")?)?;
    let cfg = TracerConfig::default();

    let sig = xtrace_tracer::collect_signature_memo_obs(
        app.spmd(),
        ranks,
        &machine,
        &cfg,
        &SigMemo::new(),
        &obs,
    );
    let trace = match args.get("rank") {
        Some(r) => {
            let r: u32 = r
                .parse()
                .map_err(|_| usage_err("--rank must be an integer"))?;
            xtrace_tracer::collect_task_trace(app.spmd(), r, ranks, &machine, &cfg, None, &obs)
        }
        None => sig.longest_task().clone(),
    };
    eprintln!(
        "traced rank {} of {} ({} blocks, {:.3e} memory ops, longest task = rank {})",
        trace.rank,
        ranks,
        trace.blocks.len(),
        trace.total_mem_ops(),
        sig.comm.longest_rank
    );
    match args.get("out") {
        Some(path) => store_trace(&trace, &PathBuf::from(path))?,
        None => println!(
            "{}",
            serde_json::to_string_pretty(&trace).expect("serializable")
        ),
    }
    Ok(())
}

fn cmd_extrapolate(args: &Args) -> Result<()> {
    let target = args.parse_u32("target")?;
    let forms = FormSet::parse(args.get("forms").unwrap_or("paper"))?.forms();
    if args.positional.is_empty() {
        return Err(usage_err(
            "extrapolate needs trace files as positional arguments",
        ));
    }
    let traces: Vec<TaskTrace> = args
        .positional
        .iter()
        .map(|p| load_trace(&PathBuf::from(p)))
        .collect::<Result<_>>()?;
    let cfg = ExtrapolationConfig {
        forms,
        // At least two training points (three is the paper's default); a
        // single trace would degenerate to constant extrapolation.
        min_traces: traces.len().clamp(2, 3),
        ..ExtrapolationConfig::default()
    };
    let fit = fit_signature_obs(&traces, target, &cfg, &ObsContext::disabled())?;
    let out = synthesize_from_fit(&fit);
    eprintln!(
        "extrapolated {} from {:?} cores to {target}",
        out.app,
        traces.iter().map(|t| t.nranks).collect::<Vec<_>>()
    );
    if args.get("report").is_some_and(|v| v == "true") {
        eprintln!(
            "{}",
            FitReport::from_fits(&fit.fits, cfg.influence_threshold).render()
        );
    }
    match args.get("out") {
        Some(path) => store_trace(&out, &PathBuf::from(path))?,
        None => println!(
            "{}",
            serde_json::to_string_pretty(&out).expect("serializable")
        ),
    }
    Ok(())
}

fn cmd_predict(args: &Args) -> Result<()> {
    let trace = load_trace(&PathBuf::from(args.require("trace")?))?;
    let app = make_app(args.require("app")?, args.get("scale").unwrap_or("small"))?;
    let ranks = args.parse_u32("ranks")?;
    let machine = make_machine(args.require("machine")?)?;
    let comm = app.comm_obs(ranks, &xtrace_obs::ObsContext::disabled());
    let pred = xtrace_psins::try_predict_runtime(&trace, &comm, &machine)?;
    println!("application : {}", trace.app);
    println!("trace       : rank {} @ {} cores", trace.rank, trace.nranks);
    println!("machine     : {}", machine.name);
    println!("memory time : {:>10.3} s", pred.memory_seconds);
    println!("fp time     : {:>10.3} s", pred.fp_seconds);
    println!("compute     : {:>10.3} s", pred.compute_seconds);
    println!("comm        : {:>10.3} s", pred.comm_seconds);
    println!("total       : {:>10.3} s", pred.total_seconds);
    Ok(())
}

/// Narrates pipeline progress on stderr.
struct EprintObserver;

impl StageObserver for EprintObserver {
    fn stage_finished(&mut self, stage: StageKind, seconds: f64) {
        eprintln!("[{}] done in {seconds:.2}s", stage.label());
    }
    fn progress(&mut self, stage: StageKind, message: &str) {
        eprintln!("[{}] {message}", stage.label());
    }
    fn cache_event(&mut self, stage: StageKind, artifact: &str, hit: bool) {
        if hit {
            eprintln!("[{}] reusing {artifact} from store", stage.label());
        }
    }
}

/// Parses the pipeline-shaped flags shared by `pipeline` and `report`
/// into a [`PipelineConfig`], through the same builder the serve wire
/// request lowers onto. `--target` accepts a comma list; more than one
/// entry turns the run into a multi-target sweep sharing one collection.
fn pipeline_config(args: &Args) -> Result<PipelineConfig> {
    let counts = |key: &str, what: &str| -> Result<Vec<u32>> {
        args.require(key)?
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .map_err(|_| usage_err(format!("bad {what} {s:?}")))
            })
            .collect()
    };
    let training = counts("training", "core count")?;
    let targets = counts("target", "target core count")?;
    let fast_tracer = match args.get("tracer").unwrap_or("default") {
        "fast" => true,
        "default" => false,
        other => {
            return Err(usage_err(format!(
                "--tracer must be fast|default, got {other:?}"
            )))
        }
    };
    let mut builder = PipelineConfig::builder(
        args.require("app")?,
        args.require("machine")?,
        training,
        targets[0],
    )
    .scale(args.get("scale").unwrap_or("small"))
    .forms(FormSet::parse(args.get("forms").unwrap_or("paper"))?)
    .validate(args.parse_bool("validate", true)?)
    .fast_tracer(fast_tracer)
    .critical_path(args.parse_bool("critical-path", true)?);
    if let Some(k) = args.get("ranks-per-count") {
        builder = builder.ranks_per_count(
            k.parse()
                .ok()
                .filter(|&k| k >= 1)
                .ok_or_else(|| usage_err("--ranks-per-count must be a positive integer"))?,
        );
    }
    if targets.len() > 1 {
        builder = builder.targets(targets);
    }
    Ok(builder.build())
}

/// Renders one target's critical-path attribution: the per-(class, phase)
/// path-share table (shares sum to exactly 10 000 bp), the bottleneck
/// callout, and any blocking-partner edges.
fn critical_path_section(target: u32, critical: &xtrace_spmd::CriticalPathReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "\ncritical path (p = {target}): {:.3e} s across {} rank class(es)",
        critical.path_seconds, critical.classes
    );
    let _ = writeln!(
        out,
        "  {:<8} {:<9} {:>12} {:>8} {:>8}",
        "class", "phase", "seconds", "events", "share"
    );
    for seg in &critical.segments {
        let _ = writeln!(
            out,
            "  {:<8} {:<9} {:>12.3e} {:>8} {:>7.2}%",
            seg.class,
            seg.phase,
            seg.seconds,
            seg.events,
            f64::from(seg.share_bp) / 100.0
        );
    }
    if let Some(b) = critical.bottleneck() {
        let _ = writeln!(
            out,
            "  bottleneck: class {} {} ({:.2}% of the path)",
            b.class,
            b.phase,
            f64::from(b.share_bp) / 100.0
        );
    }
    for e in &critical.edges {
        let _ = writeln!(
            out,
            "  blocking: class {} waited {:.3e} s on class {} over {} event(s)",
            e.waiter_class, e.seconds, e.blocker_class, e.events
        );
    }
    out
}

/// Renders the per-rank-class compute/comm split for each requested
/// target core count, from the replay journal's `spmd.class_total`
/// events (last simulation's entry per class wins — e.g. the validation
/// collect). Targets that were never simulated with a journal are
/// labelled as such rather than silently dropped.
fn class_split_section(journal: &xtrace_obs::JournalSnapshot, targets: &[u32]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for &target in targets {
        let nranks = f64::from(target);
        let mut per_class: std::collections::BTreeMap<
            u64,
            &std::collections::BTreeMap<String, f64>,
        > = std::collections::BTreeMap::new();
        for e in &journal.events {
            if e.name == "spmd.class_total" && e.args.get("nranks") == Some(&nranks) {
                per_class.insert(e.args.get("class").copied().unwrap_or(0.0) as u64, &e.args);
            }
        }
        let _ = writeln!(
            out,
            "\nrank-class compute/comm split (target p = {target}):"
        );
        if per_class.is_empty() {
            let _ = writeln!(out, "  (no simulation journaled at p = {target})");
            continue;
        }
        for (c, a) in per_class {
            let compute = a.get("compute_s").copied().unwrap_or(0.0);
            let comm = a.get("comm_s").copied().unwrap_or(0.0);
            let busy = (compute + comm).max(f64::MIN_POSITIVE);
            let _ = writeln!(
                out,
                "  class {c}: {:>6} ranks  compute {:>9.3} s ({:>5.1}%)  comm {:>9.3} s ({:>5.1}%)",
                a.get("ranks").copied().unwrap_or(0.0) as u64,
                compute,
                100.0 * compute / busy,
                comm,
                100.0 * comm / busy
            );
        }
    }
    out
}

/// Runs `config` through a fresh engine as one sweep — a single target is
/// a sweep of one — with `--store` attached and progress narrated on
/// stderr. One engine per invocation gives the run its own scoped
/// observability context, so the snapshots written afterwards are this
/// run's and nothing else's. `--diagnostics-out` is per-target, so a wider
/// sweep refuses it before running.
fn run_pipeline(args: &Args, config: &PipelineConfig) -> Result<(XtraceEngine, SweepOutcome)> {
    if args.get("diagnostics-out").is_some() && config.effective_targets().len() > 1 {
        return Err(usage_err(
            "--diagnostics-out is per-target; run a single target for diagnostics",
        ));
    }
    let mut engine = XtraceEngine::new();
    if let Some(dir) = args.get("store") {
        engine = engine.with_store(dir)?;
    }
    let outcome = engine.run_sweep_with_observer(config, Some(Box::new(EprintObserver)))?;
    Ok((engine, outcome))
}

/// Reports on stderr how many artifacts the store served, and the in-memory
/// cache counters of the engine's store when one is attached (`--store`).
fn print_store_summary(engine: &XtraceEngine, sweep: &SweepReport) {
    let hits: usize = sweep.reports.iter().map(|r| r.cache_hits).sum();
    let misses: usize = sweep.reports.iter().map(|r| r.cache_misses).sum();
    if hits > 0 {
        eprintln!("store: {hits} artifact(s) reused, {misses} computed");
    }
    if let Some(stats) = engine.store().map(|s| s.cache_stats()) {
        eprintln!(
            "store cache: {} hit(s), {} miss(es), {} write(s)",
            stats.hits, stats.misses, stats.writes
        );
    }
}

/// Writes the observability artifacts shared by `pipeline` and `report`:
/// `--metrics-out` (snapshot JSON), `--trace-out` (Chrome trace), and
/// `--diagnostics-out` (the one target's fit diagnostics JSON). The
/// snapshots are the *run's own* (from its [`SweepOutcome`]), so
/// sequential or concurrent runs in one process can never bleed counters
/// into each other's output.
fn write_obs_outputs(args: &Args, outcome: &SweepOutcome) -> Result<()> {
    if let Some(path) = args.get("metrics-out") {
        write_file(path, outcome.metrics.to_json() + "\n")?;
        eprintln!("wrote metrics to {path}");
    }
    if let Some(path) = args.get("trace-out") {
        let journal = outcome.journal.as_ref().ok_or_else(|| {
            XtraceError::Model("--trace-out needs the event journal (internal error)".into())
        })?;
        write_file(path, xtrace_obs::chrome_trace(journal) + "\n")?;
        eprintln!("wrote Chrome trace to {path} (open in https://ui.perfetto.dev)");
    }
    if let Some(path) = args.get("diagnostics-out") {
        // `run_pipeline` admits this flag on one target only.
        let diag = outcome.sweep.reports[0]
            .fit_diagnostics
            .as_ref()
            .ok_or_else(|| {
                XtraceError::Model(
                    "fit diagnostics unavailable: this run resumed the fit stage from a store \
                     written before diagnostics existed — rerun after clearing the store"
                        .into(),
                )
            })?;
        write_file(path, diag.to_json() + "\n")?;
        eprintln!("wrote fit diagnostics to {path}");
    }
    Ok(())
}

/// Renders the shared-prefix summary plus the per-target result table of
/// a sweep. The table carries wall-clock and store-state columns, so
/// `pipeline` sends it to stderr (its stdout must stay deterministic
/// across thread counts and store states) while `report` prints it —
/// `report` is the human diagnostics view, like its stage-timing table.
fn sweep_table(sweep: &SweepReport) -> String {
    use std::fmt::Write as _;
    let first = &sweep.reports[0];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "\n{} on {} — {} targets over one collection (prefix {} ran once in {:.2}s)",
        first.extrapolated.app,
        first.extrapolated.machine,
        sweep.targets.len(),
        sweep.prefix_hash,
        sweep.prefix_seconds
    );
    let validated = sweep.reports.iter().any(|r| r.validation.is_some());
    if validated {
        let _ = writeln!(
            out,
            "{:<8} {:>12} {:>8} {:>10} {:>12}",
            "target", "runtime (s)", "% err", "tail (s)", "store h/m"
        );
    } else {
        let _ = writeln!(
            out,
            "{:<8} {:>12} {:>10} {:>12}",
            "target", "runtime (s)", "tail (s)", "store h/m"
        );
    }
    for (t, r) in sweep.targets.iter().zip(&sweep.reports) {
        // The target-specific share of the wall time: everything past the
        // shared Collect + Fit prefix.
        let tail: f64 = r
            .timings
            .iter()
            .filter(|t| {
                matches!(
                    t.stage,
                    StageKind::Synthesize | StageKind::Convolve | StageKind::Validate
                )
            })
            .map(|t| t.seconds)
            .sum();
        if validated {
            let err = r.validation.as_ref().map_or("-".to_string(), |v| {
                format!("{:.1}%", 100.0 * v.extrapolated_error)
            });
            let _ = writeln!(
                out,
                "{:<8} {:>12.3} {:>8} {:>10.3} {:>9}/{}",
                t, r.prediction.total_seconds, err, tail, r.cache_hits, r.cache_misses
            );
        } else {
            let _ = writeln!(
                out,
                "{:<8} {:>12.3} {:>10.3} {:>9}/{}",
                t, r.prediction.total_seconds, tail, r.cache_hits, r.cache_misses
            );
        }
    }
    out
}

/// Prints one deterministic prediction line per target on stdout,
/// identical at any thread count or store state. A validated one-lane
/// sweep renders the single-target `Extrap.`/`Coll.` table instead.
fn print_predictions(sweep: &SweepReport) {
    let single = sweep.targets.len() == 1;
    for (t, r) in sweep.targets.iter().zip(&sweep.reports) {
        match &r.validation {
            Some(v) if single => {
                println!(
                    "\n{:<16} {:>6} {:>8} {:>12} {:>8}",
                    "application", "cores", "trace", "runtime (s)", "% err"
                );
                for (label, total, err) in [
                    ("Extrap.", r.prediction.total_seconds, v.extrapolated_error),
                    ("Coll.", v.collected.total_seconds, v.collected_error),
                ] {
                    println!(
                        "{:<16} {:>6} {:>8} {:>12.3} {:>7.1}%",
                        r.extrapolated.app,
                        t,
                        label,
                        total,
                        100.0 * err
                    );
                }
                println!("measured: {:.3} s", v.measured_seconds);
            }
            Some(v) => println!(
                "{} @ {} cores: predicted {:.3} s, measured {:.3} s, err {:.1}% (config {})",
                r.extrapolated.app,
                t,
                r.prediction.total_seconds,
                v.measured_seconds,
                100.0 * v.extrapolated_error,
                r.config_hash
            ),
            None => println!(
                "{} @ {} cores: predicted {:.3} s (config {})",
                r.extrapolated.app, t, r.prediction.total_seconds, r.config_hash
            ),
        }
    }
}

fn cmd_pipeline(args: &Args) -> Result<()> {
    let config = pipeline_config(args)?;
    let metrics_table = match args.get("metrics") {
        None | Some("none") => false,
        Some("table") => true,
        Some(other) => {
            return Err(usage_err(format!(
                "--metrics must be table|none, got {other:?}"
            )))
        }
    };
    let (engine, outcome) = run_pipeline(args, &config)?;
    let sweep = &outcome.sweep;
    print_predictions(sweep);
    if sweep.targets.len() > 1 {
        eprint!("{}", sweep_table(sweep));
    }
    print_store_summary(&engine, sweep);
    if let Some(path) = args.get("out") {
        // One target writes its prediction; a wider sweep writes the
        // stable per-target row schema shared with the serve API.
        let body = match &sweep.reports[..] {
            [report] => serde_json::to_string_pretty(&report.prediction),
            _ => serde_json::to_string_pretty(&sweep.prediction_rows()),
        }
        .expect("serializable");
        write_file(path, body + "\n")?;
        eprintln!("wrote {} prediction(s) to {path}", sweep.reports.len());
    }
    if metrics_table {
        eprintln!("{}", outcome.metrics.render_table());
    }
    write_obs_outputs(args, &outcome)?;
    write_critical_out(args, sweep)
}

/// `xtrace report`: run the pipeline (journal always on) and render a
/// human-readable run report. One target renders the run's stage timing
/// breakdown, canonical-form win table and the top-K worst-fit elements; a
/// wider sweep renders the shared-prefix timings, the per-target result
/// table and per-target win counts. Both then render the per-rank-class
/// compute vs. communication split from the replay journal and the
/// critical-path attribution of every target.
fn cmd_report(args: &Args) -> Result<()> {
    let config = pipeline_config(args)?;
    let top: usize = args
        .get("top")
        .unwrap_or("5")
        .parse()
        .map_err(|_| usage_err("--top must be an integer"))?;
    let (engine, outcome) = run_pipeline(args, &config)?;
    let sweep = &outcome.sweep;
    match &sweep.reports[..] {
        [report] => print_run_summary(report, top),
        _ => print_sweep_summary(sweep),
    }
    if let Some(journal) = &outcome.journal {
        print!("{}", class_split_section(journal, &sweep.targets));
    }
    let bottlenecks = sweep.bottlenecks();
    if sweep.targets.len() > 1 && !bottlenecks.is_empty() {
        println!("\ncritical-path bottleneck per target:");
        for (t, class, phase, share_bp) in &bottlenecks {
            println!(
                "  t={t}: class {class} {phase} ({:.2}% of the path)",
                f64::from(*share_bp) / 100.0
            );
        }
        match sweep.bottleneck_flip_target() {
            Some(flip) => println!(
                "  bottleneck flips at p = {flip}: the dominant cost changes between \
                 these scales — extrapolations crossing p = {flip} change regime"
            ),
            None => println!("  bottleneck is stable across every swept target"),
        }
    }
    for (t, r) in sweep.targets.iter().zip(&sweep.reports) {
        if let Some(critical) = &r.critical_path {
            print!("{}", critical_path_section(*t, critical));
        }
    }
    print_store_summary(&engine, sweep);
    write_obs_outputs(args, &outcome)
}

/// The head of a one-target run report: the prediction, its validation,
/// the stage timing breakdown, the canonical-form win table and the `top`
/// worst-fit elements by winner R².
fn print_run_summary(report: &PipelineReport, top: usize) {
    println!("== xtrace run report ==");
    println!(
        "{} @ {} cores on {} — predicted {:.3} s (config {})",
        report.extrapolated.app,
        report.extrapolated.nranks,
        report.extrapolated.machine,
        report.prediction.total_seconds,
        report.config_hash
    );
    if let Some(v) = &report.validation {
        println!(
            "validated: measured {:.3} s, extrapolated err {:.1}%, collected err {:.1}%",
            v.measured_seconds,
            100.0 * v.extrapolated_error,
            100.0 * v.collected_error
        );
    }

    let total: f64 = report.timings.iter().map(|t| t.seconds).sum();
    println!("\nstage timings:");
    for t in &report.timings {
        let pct = if total > 0.0 {
            100.0 * t.seconds / total
        } else {
            0.0
        };
        println!(
            "  {:<12} {:>9.3} s  {:>5.1}%",
            t.stage.label(),
            t.seconds,
            pct
        );
    }
    println!("  {:<12} {:>9.3} s", "total", total);

    let Some(diag) = &report.fit_diagnostics else {
        println!("\nfit diagnostics unavailable (fit stage resumed from a pre-diagnostics store)");
        return;
    };
    println!(
        "\ncanonical-form wins ({} elements, extrapolation distance {:.1}x):",
        diag.elements.len(),
        diag.extrapolation_distance()
    );
    let total_wins: u64 = diag.form_wins.values().sum::<u64>().max(1);
    for (form, n) in &diag.form_wins {
        println!(
            "  {:<10} {:>6}  {:>5.1}%",
            form,
            n,
            100.0 * *n as f64 / total_wins as f64
        );
    }
    println!("\nworst-fit elements (by winner R², top {top}):");
    println!(
        "  {:<22} {:<5} {:<14} {:<10} {:>11} {:>8}",
        "block", "instr", "feature", "form", "sse", "R²"
    );
    for i in diag.worst_fit(top) {
        let e = &diag.elements[i];
        println!(
            "  {:<22} i{:<4} {:<14} {:<10} {:>11.4e} {:>8.4}",
            e.block, e.instr, e.feature, e.winner, e.winner_sse, e.winner_r2
        );
    }
}

/// The head of a multi-target sweep report: the shared-prefix timing
/// breakdown, the per-target result table and the per-target
/// canonical-form win counts.
fn print_sweep_summary(sweep: &SweepReport) {
    let first = &sweep.reports[0];
    println!("== xtrace sweep report ==");
    println!(
        "{} on {} — training {:?}, targets {:?}",
        first.extrapolated.app, first.extrapolated.machine, first.training_counts, sweep.targets
    );
    println!("\nshared prefix (ran once for every target):");
    for t in first
        .timings
        .iter()
        .filter(|t| matches!(t.stage, StageKind::Collect | StageKind::Fit))
    {
        println!("  {:<12} {:>9.3} s", t.stage.label(), t.seconds);
    }
    print!("{}", sweep_table(sweep));

    println!("\ncanonical-form wins per target:");
    for (t, r) in sweep.targets.iter().zip(&sweep.reports) {
        match &r.fit_diagnostics {
            Some(diag) => {
                let wins: Vec<String> = diag
                    .form_wins
                    .iter()
                    .map(|(form, n)| format!("{form} {n}"))
                    .collect();
                println!("  t={t}: {}", wins.join(", "));
            }
            None => println!("  t={t}: (diagnostics unavailable)"),
        }
    }
}

/// `xtrace bench-verdict`: judges saved perfbench outputs against the
/// like-for-like rows of `BENCH_history.jsonl` (same workload, metric,
/// host cores and threads), with each end-to-end metric's direction and
/// bound from the `BENCHMARK.json` beside the history (see
/// [`xtrace_obs::judge`]). `--append` records the judged rows. Exits 4
/// when any metric regresses.
fn cmd_bench_verdict(args: &Args) -> Result<()> {
    use xtrace_obs::{HistoryRow, PerfbenchRun, Verdict};
    let append = args.parse_bool("append", false)?;
    if args.positional.is_empty() {
        return Err(usage_err(
            "bench-verdict needs saved perfbench outputs as positional arguments",
        ));
    }
    let read = |path: &Path| {
        std::fs::read_to_string(path).map_err(|e| {
            XtraceError::Io(IoError::Io {
                path: path.into(),
                source: e,
            })
        })
    };
    let history_path = Path::new(args.get("history").unwrap_or("BENCH_history.jsonl"));
    let benchmark_path = history_path
        .parent()
        .unwrap_or(Path::new(""))
        .join("BENCHMARK.json");
    let metrics = xtrace_obs::end_to_end_metrics(&read(&benchmark_path)?)
        .map_err(|e| XtraceError::Model(format!("{}: {e}", benchmark_path.display())))?;
    let history = match std::fs::read_to_string(history_path) {
        Ok(s) => xtrace_obs::history_rows(&s)
            .map_err(|e| XtraceError::Model(format!("{}: {e}", history_path.display())))?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => {
            return Err(XtraceError::Io(IoError::Io {
                path: history_path.into(),
                source: e,
            }))
        }
    };

    // Refuse every unusable run before judging or recording any.
    let date = utc_date(std::time::SystemTime::now());
    let mut fresh: Vec<HistoryRow> = Vec::new();
    for path in &args.positional {
        let run = PerfbenchRun::parse(&read(Path::new(path))?)
            .map_err(|e| usage_err(format!("{path}: {e}")))?;
        if run.traced {
            return Err(usage_err(format!(
                "{path}: a traced run (--trace 1) reports per-layer metrics; \
                 judge an untraced one"
            )));
        }
        if !run.correct {
            return Err(usage_err(format!(
                "{path}: the run is not correct; its timings judge nothing"
            )));
        }
        fresh.extend(
            run.history_rows(&metrics, &date)
                .map_err(|e| usage_err(format!("{path}: {e}")))?,
        );
    }

    // Each run contributed one row per metric, in `metrics` order.
    let mut regressions: Vec<String> = Vec::new();
    for (row, metric) in fresh.iter().zip(metrics.iter().cycle()) {
        let series: Vec<f64> = history
            .iter()
            .filter(|h| h.same_series(row))
            .map(|h| h.value)
            .collect();
        let label = format!("{} {} {} {}", row.workload, row.metric, row.value, row.unit);
        match xtrace_obs::judge(&series, row.value, metric) {
            Verdict::New => println!(
                "new   {label} (no history at {} cores, {} threads)",
                row.host_cores, row.threads
            ),
            Verdict::Ok { baseline, z } => {
                println!("ok    {label} (baseline {baseline}, z {z:+.1})")
            }
            Verdict::Regressed {
                baseline,
                z,
                worse_frac,
            } => {
                println!(
                    "FAIL  {label} vs baseline {baseline} ({:.1}% worse, bound {:.0}%, z {z:.1})",
                    100.0 * worse_frac,
                    100.0 * metric.bound
                );
                regressions.push(format!("{}.{}", row.workload, row.metric));
            }
        }
    }

    if append {
        let mut lines = String::new();
        for row in &fresh {
            lines.push_str(&serde_json::to_string(row).expect("serializable"));
            lines.push('\n');
        }
        use std::io::Write;
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(history_path)
            .and_then(|mut f| f.write_all(lines.as_bytes()))
            .map_err(|e| {
                XtraceError::Io(IoError::Io {
                    path: history_path.into(),
                    source: e,
                })
            })?;
        eprintln!(
            "appended {} row(s) to {}",
            fresh.len(),
            history_path.display()
        );
    }
    if regressions.is_empty() {
        Ok(())
    } else {
        Err(XtraceError::Model(format!(
            "{} metric(s) regressed: {}",
            regressions.len(),
            regressions.join(", ")
        )))
    }
}

/// `YYYY-MM-DD` of `now` in UTC (civil-from-days on the proleptic
/// Gregorian calendar).
fn utc_date(now: std::time::SystemTime) -> String {
    let secs = now
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let days = (secs / 86_400) as i64 + 719_468;
    let (era, doe) = (days / 146_097, days % 146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

/// The `--critical-out` payload: every target's critical-path report plus
/// the sweep's bottleneck-flip scale.
#[derive(serde::Serialize)]
struct CriticalOut {
    /// The swept targets, in sweep order.
    targets: Vec<u32>,
    /// First target whose bottleneck differs from the first target's.
    flip_target: Option<u32>,
    /// One report per target, ordered like `targets`.
    reports: Vec<xtrace_spmd::CriticalPathReport>,
}

/// Writes `--critical-out`: the per-target critical-path reports and the
/// flip scale as JSON. An error when attribution is disabled or
/// unavailable, so CI never silently gates on an empty file.
fn write_critical_out(args: &Args, sweep: &SweepReport) -> Result<()> {
    let Some(path) = args.get("critical-out") else {
        return Ok(());
    };
    let reports: Vec<xtrace_spmd::CriticalPathReport> = sweep
        .reports
        .iter()
        .filter_map(|r| r.critical_path.clone())
        .collect();
    if reports.len() != sweep.targets.len() {
        return Err(XtraceError::Model(
            "--critical-out needs critical-path attribution (--critical-path true, the default)"
                .into(),
        ));
    }
    let out = CriticalOut {
        targets: sweep.targets.clone(),
        flip_target: sweep.bottleneck_flip_target(),
        reports,
    };
    let body = serde_json::to_string_pretty(&out).expect("serializable");
    write_file(path, body + "\n")?;
    eprintln!("wrote critical-path attribution to {path}");
    Ok(())
}

fn cmd_diff(args: &Args) -> Result<()> {
    let a = load_trace(&PathBuf::from(args.require("a")?))?;
    let b = load_trace(&PathBuf::from(args.require("b")?))?;
    let threshold: f64 = args
        .get("threshold")
        .unwrap_or("0.001")
        .parse()
        .map_err(|_| usage_err("--threshold must be a fraction"))?;
    let top: usize = args
        .get("top")
        .unwrap_or("10")
        .parse()
        .map_err(|_| usage_err("--top must be an integer"))?;
    if a.blocks.len() != b.blocks.len() {
        return Err(XtraceError::Model(format!(
            "traces do not align: {} vs {} blocks",
            a.blocks.len(),
            b.blocks.len()
        )));
    }
    let errors = xtrace_extrap::element_errors(&a, &b);
    let summary = xtrace_extrap::summarize(&errors, threshold);
    println!(
        "comparing {} @ {} cores (A) against {} @ {} cores (B)",
        a.app, a.nranks, b.app, b.nranks
    );
    println!("elements compared:     {}", summary.n_total);
    println!(
        "influential (>= {:.2}%): {}",
        100.0 * threshold,
        summary.n_influential
    );
    println!(
        "influential max error: {:.2}%",
        100.0 * summary.max_rel_err_influential
    );
    println!(
        "influential under 20%: {:.1}%",
        100.0 * summary.frac_influential_under_20pct
    );
    println!(
        "max error (all):       {:.2}%",
        100.0 * summary.max_rel_err_all
    );
    let mut worst: Vec<_> = errors.iter().filter(|e| e.rel_err > 0.0).collect();
    worst.sort_by(|x, y| y.rel_err.partial_cmp(&x.rel_err).expect("finite"));
    if !worst.is_empty() {
        println!("\nworst elements:");
        for e in worst.iter().take(top) {
            println!(
                "  {:<22} i{:<3} {:<14} A {:>12.4e}  B {:>12.4e}  err {:>7.2}%  influence {:>6.3}%",
                e.block,
                e.instr,
                e.feature.label(),
                e.got,
                e.expected,
                100.0 * e.rel_err,
                100.0 * e.influence
            );
        }
    }
    Ok(())
}

/// `xtrace serve`: the prediction daemon. Binds, prints the resolved
/// address (so wrappers using `--addr 127.0.0.1:0` learn the port),
/// and serves until SIGTERM/SIGINT, then drains and exits 0.
fn cmd_serve(args: &Args) -> Result<()> {
    let parse_count = |key: &str, default: usize| -> Result<usize> {
        match args.get(key) {
            None => Ok(default),
            Some(v) => match v.parse::<usize>() {
                Ok(n) if n > 0 => Ok(n),
                _ => Err(usage_err(format!("--{key} must be a positive integer"))),
            },
        }
    };
    let config = xtrace_serve::ServeConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:8191").to_string(),
        workers: parse_count("workers", 2)?,
        max_queue: parse_count("max-queue", 32)?,
        store: args.get("store").map(PathBuf::from),
    };
    let server = xtrace_serve::Server::bind(&config)?;
    let flag = xtrace_serve::signal::install_shutdown_flag();
    println!("listening on {}", server.local_addr());
    eprintln!(
        "serve: workers={} max-queue={} store={}",
        config.workers,
        config.max_queue,
        config
            .store
            .as_ref()
            .map_or_else(|| "(none)".into(), |p| p.display().to_string()),
    );
    server.watch_flag(flag).serve()?;
    eprintln!("serve: drained in-flight work, shutting down");
    Ok(())
}

/// One subcommand: its name, its handler and every flag it reads besides
/// the global `--threads`.
struct Command {
    name: &'static str,
    run: fn(&Args) -> Result<()>,
    flags: &'static [&'static str],
}

/// Every subcommand. A flag missing from a command's list is refused
/// before any work starts, so a misspelt or unsupported flag can never be
/// silently ignored.
const COMMANDS: &[Command] = &[
    Command {
        name: "machines",
        run: |_| cmd_machines(),
        flags: &[],
    },
    Command {
        name: "apps",
        run: |_| cmd_apps(),
        flags: &[],
    },
    Command {
        name: "trace",
        run: cmd_trace,
        flags: &["app", "scale", "ranks", "machine", "rank", "out"],
    },
    Command {
        name: "extrapolate",
        run: cmd_extrapolate,
        flags: &["target", "forms", "report", "out"],
    },
    Command {
        name: "predict",
        run: cmd_predict,
        flags: &["trace", "app", "scale", "ranks", "machine"],
    },
    Command {
        name: "pipeline",
        run: cmd_pipeline,
        flags: &[
            "app",
            "machine",
            "training",
            "target",
            "scale",
            "forms",
            "validate",
            "tracer",
            "ranks-per-count",
            "critical-path",
            "store",
            "out",
            "metrics",
            "metrics-out",
            "trace-out",
            "diagnostics-out",
            "critical-out",
        ],
    },
    Command {
        name: "report",
        run: cmd_report,
        flags: &[
            "app",
            "machine",
            "training",
            "target",
            "scale",
            "forms",
            "validate",
            "tracer",
            "ranks-per-count",
            "critical-path",
            "store",
            "top",
            "metrics-out",
            "trace-out",
            "diagnostics-out",
        ],
    },
    Command {
        name: "diff",
        run: cmd_diff,
        flags: &["a", "b", "threshold", "top"],
    },
    Command {
        name: "bench-verdict",
        run: cmd_bench_verdict,
        flags: &["history", "append"],
    },
    Command {
        name: "machine-export",
        run: cmd_machine_export,
        flags: &["machine", "out"],
    },
    Command {
        name: "inspect",
        run: cmd_inspect,
        flags: &["app", "scale", "ranks", "rank"],
    },
    Command {
        name: "serve",
        run: cmd_serve,
        flags: &["addr", "workers", "max-queue", "store"],
    },
];

fn run() -> Result<()> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else {
        return Err(usage_err(usage()));
    };
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        println!("{}", usage());
        return Ok(());
    }
    let Some(command) = COMMANDS.iter().find(|c| c.name == cmd) else {
        return Err(usage_err(format!("unknown command {cmd:?}\n{}", usage())));
    };
    let args = Args::parse(&argv[1..])?;
    if let Some((key, _)) = args
        .flags
        .iter()
        .find(|(k, _)| k != "threads" && !command.flags.contains(&k.as_str()))
    {
        return Err(usage_err(format!(
            "unknown flag --{key} for `xtrace {cmd}`\n{}",
            usage()
        )));
    }
    if let Some(t) = args.get("threads") {
        let n: usize = t
            .parse()
            .map_err(|_| usage_err("--threads must be a non-negative integer (0 = all cores)"))?;
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build_global()
            .map_err(|e| usage_err(format!("failed to configure thread pool: {e}")))?;
    }
    (command.run)(&args)
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::{Duration, UNIX_EPOCH};

    #[test]
    fn utc_dates_follow_the_gregorian_calendar() {
        let day = |d: u64| super::utc_date(UNIX_EPOCH + Duration::from_secs(d * 86_400 + 3_600));
        assert_eq!(day(0), "1970-01-01");
        assert_eq!(day(11_016), "2000-02-29");
        assert_eq!(day(20_744), "2026-10-18");
    }
}
