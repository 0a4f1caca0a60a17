//! Trace-file persistence.
//!
//! PMaC's pipeline materializes one trace file per MPI task; the
//! extrapolator and the PSiNS simulator both consume those files. Two
//! formats are provided, both **versioned** so future readers can evolve
//! the schema while rejecting files from the future:
//!
//! * **JSON** (via serde) — human-inspectable, used by the CLI and the
//!   experiment harness. Traces are wrapped in a
//!   `{"format", "version", "trace"}` envelope; bare legacy traces
//!   (version-0 files, written before the envelope existed) still load.
//! * a **compact binary codec** (hand-rolled on `bytes`) — for bulk
//!   multi-rank collections. Version 2 transposes the trace into columnar
//!   form (`crate::columnar`) and delta/RLE-compresses every numeric
//!   column (`crate::codec`), typically an order of magnitude smaller
//!   than the v1 record-oriented layout; v1 files still load through
//!   explicit version dispatch in [`from_bytes`].
//!
//! The `xtrace-core` artifact store persists traces through these exact
//! functions, so every trace artifact on disk — CLI output, store entry,
//! experiment dump — is one of these two formats.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use bytes::{Buf, BufMut, Bytes, BytesMut};
use serde::{Deserialize, Serialize};
use xtrace_cache::MEMORY_LEVEL_CAP;
use xtrace_ir::SourceLoc;

use crate::codec;
use crate::columnar::{FeatureMatrix, TraceColumns};
use crate::sig::{BlockRecord, FeatureVector, InstrRecord, TaskTrace};

/// Magic prefix of the binary format.
const MAGIC: &[u8; 4] = b"XTRC";
/// Current binary format version: v2, the compressed columnar envelope.
/// Version-1 files (uncompressed record-oriented) still load through the
/// explicit dispatch in [`from_bytes`].
const VERSION: u16 = 2;
/// The record-oriented uncompressed format, readable forever.
const VERSION_V1: u16 = 1;
/// Identifies the JSON envelope (the `format` field).
pub const JSON_FORMAT: &str = "xtrace-task-trace";
/// Current JSON envelope version.
pub const JSON_VERSION: u32 = 1;

/// Errors from the binary codec.
#[derive(Debug)]
pub enum CodecError {
    /// The buffer does not start with the `XTRC` magic.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// The buffer ended before the structure was complete.
    Truncated,
    /// A string field was not valid UTF-8.
    BadString,
    /// The buffer is structurally inconsistent (bad varint, run overflow,
    /// column-length mismatch, out-of-range dictionary index, …).
    Corrupt(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "not an xtrace binary trace (bad magic)"),
            CodecError::BadVersion(v) => write!(f, "unsupported trace format version {v}"),
            CodecError::Truncated => write!(f, "trace buffer truncated"),
            CodecError::BadString => write!(f, "invalid UTF-8 in trace string"),
            CodecError::Corrupt(what) => write!(f, "corrupt trace buffer: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Errors from trace-file persistence (either format, either direction).
#[derive(Debug)]
pub enum IoError {
    /// The underlying filesystem operation failed.
    Io {
        /// File being read or written.
        path: PathBuf,
        /// The OS error.
        source: io::Error,
    },
    /// The file is not parseable as a trace.
    Parse {
        /// File being read.
        path: PathBuf,
        /// Parser diagnostic.
        message: String,
    },
    /// The file comes from a newer writer than this reader supports.
    UnsupportedVersion {
        /// Version found in the file.
        got: u32,
        /// Highest version this build reads.
        supported: u32,
    },
    /// The binary codec rejected the buffer.
    Codec(CodecError),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io { path, source } => write!(f, "{}: {source}", path.display()),
            IoError::Parse { path, message } => {
                write!(f, "{}: not a trace file: {message}", path.display())
            }
            IoError::UnsupportedVersion { got, supported } => write!(
                f,
                "trace file version {got} is newer than the supported version {supported}"
            ),
            IoError::Codec(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Io { source, .. } => Some(source),
            IoError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodecError> for IoError {
    fn from(e: CodecError) -> Self {
        IoError::Codec(e)
    }
}

/// The versioned JSON on-disk form of a trace.
#[derive(Serialize, Deserialize)]
struct TraceEnvelope {
    format: String,
    version: u32,
    trace: TaskTrace,
}

/// Saves a trace as pretty-printed, versioned JSON.
pub fn save_json(trace: &TaskTrace, path: &Path) -> Result<(), IoError> {
    let s = trace_json_string(trace).map_err(|message| IoError::Parse {
        path: path.to_path_buf(),
        message,
    })?;
    fs::write(path, s).map_err(|source| IoError::Io {
        path: path.to_path_buf(),
        source,
    })
}

/// The versioned JSON envelope of `trace` as a string (the exact bytes
/// [`save_json`] writes), for callers that sink through their own storage
/// layer (the artifact store's backends).
pub fn trace_json_string(trace: &TaskTrace) -> std::result::Result<String, String> {
    let envelope = TraceEnvelope {
        format: JSON_FORMAT.to_string(),
        version: JSON_VERSION,
        trace: trace.clone(),
    };
    serde_json::to_string_pretty(&envelope).map_err(|e| e.to_string())
}

/// Loads a JSON trace — either the current envelope or a bare legacy
/// (pre-envelope) trace object. Envelopes from a newer writer are
/// rejected with [`IoError::UnsupportedVersion`].
pub fn load_json(path: &Path) -> Result<TaskTrace, IoError> {
    let s = fs::read_to_string(path).map_err(|source| IoError::Io {
        path: path.to_path_buf(),
        source,
    })?;
    parse_json(&s, path)
}

/// [`load_json`] on an in-memory string (shared with the artifact store).
pub fn parse_json(s: &str, path: &Path) -> Result<TaskTrace, IoError> {
    let probe: serde_json::Value = serde_json::from_str(s).map_err(|e| IoError::Parse {
        path: path.to_path_buf(),
        message: e.to_string(),
    })?;
    if probe["format"].as_str() == Some(JSON_FORMAT) {
        let version = probe["version"].as_u64().unwrap_or(0) as u32;
        if version > JSON_VERSION {
            return Err(IoError::UnsupportedVersion {
                got: version,
                supported: JSON_VERSION,
            });
        }
        let envelope: TraceEnvelope = serde_json::from_str(s).map_err(|e| IoError::Parse {
            path: path.to_path_buf(),
            message: e.to_string(),
        })?;
        Ok(envelope.trace)
    } else {
        // Legacy: a bare trace object (version 0).
        serde_json::from_str(s).map_err(|e| IoError::Parse {
            path: path.to_path_buf(),
            message: e.to_string(),
        })
    }
}

/// Encodes a trace into the current (v2) compressed columnar format.
///
/// The trace is transposed into [`TraceColumns`] and every numeric column
/// goes through the delta + run-length codec (`crate::codec`); pattern
/// labels are dictionary-encoded. Real signatures shrink by an order of
/// magnitude versus v1 because most columns are constant or
/// arithmetic-ramp shaped. Codec byte counts are dropped here; use
/// [`to_bytes_obs`] to report them on an explicit observability
/// context.
pub fn to_bytes(trace: &TaskTrace) -> Bytes {
    to_bytes_obs(trace, &xtrace_obs::ObsContext::disabled())
}

/// [`to_bytes`] reporting the compressed and raw (v1-equivalent) byte
/// counts on `obs`'s `tracer.codec.compressed_bytes` /
/// `tracer.codec.raw_bytes` counters.
pub fn to_bytes_obs(trace: &TaskTrace, obs: &xtrace_obs::ObsContext) -> Bytes {
    let cols = TraceColumns::from_trace(trace);
    let mut b = BytesMut::with_capacity(1024);
    b.put_slice(MAGIC);
    b.put_u16(VERSION);
    put_str(&mut b, &cols.app);
    b.put_u32(cols.rank);
    b.put_u32(cols.nranks);
    put_str(&mut b, &cols.machine);
    b.put_u8(cols.depth as u8);
    b.put_u32(cols.n_blocks() as u32);
    for bi in 0..cols.n_blocks() {
        put_str(&mut b, &cols.block_names[bi]);
        put_str(&mut b, &cols.block_files[bi]);
        b.put_u32(cols.block_lines[bi]);
        put_str(&mut b, &cols.block_functions[bi]);
    }
    codec::encode_u64_column(&cols.invocations, &mut b);
    codec::encode_u64_column(&cols.iterations, &mut b);
    let ninstrs: Vec<u64> = cols
        .instr_start
        .windows(2)
        .map(|w| u64::from(w[1] - w[0]))
        .collect();
    codec::encode_u64_column(&ninstrs, &mut b);
    let instr_idx: Vec<u64> = cols.instr_index.iter().map(|&v| u64::from(v)).collect();
    codec::encode_u64_column(&instr_idx, &mut b);
    // Pattern labels: first-appearance dictionary plus an index column.
    let mut dict: Vec<&str> = Vec::new();
    let mut pattern_idx: Vec<u64> = Vec::with_capacity(cols.patterns.len());
    for p in &cols.patterns {
        let k = match dict.iter().position(|d| d == p) {
            Some(k) => k,
            None => {
                dict.push(p);
                dict.len() - 1
            }
        };
        pattern_idx.push(k as u64);
    }
    b.put_u32(dict.len() as u32);
    for d in &dict {
        put_str(&mut b, d);
    }
    codec::encode_u64_column(&pattern_idx, &mut b);
    for col in &cols.features.scalars {
        codec::encode_f64_column(col, &mut b);
    }
    for col in &cols.features.hit_rates {
        codec::encode_f64_column(col, &mut b);
    }
    let out = b.freeze();

    let m = obs.metrics();
    if m.enabled() {
        m.counter("tracer.codec.compressed_bytes")
            .add(out.len() as u64);
        m.counter("tracer.codec.raw_bytes")
            .add(v1_encoded_len(trace));
    }
    out
}

/// Size in bytes of the v1 (uncompressed) encoding of `trace`, computed
/// without building the buffer — the "raw" side of the compression
/// metrics (`tracer.codec.raw_bytes`).
pub fn v1_encoded_len(trace: &TaskTrace) -> u64 {
    let str_len = |s: &str| 4 + s.len() as u64;
    let mut n = 4 + 2 + str_len(&trace.app) + 4 + 4 + str_len(&trace.machine) + 1 + 4;
    for blk in &trace.blocks {
        n += str_len(&blk.name) + str_len(&blk.source.file) + 4 + str_len(&blk.source.function);
        n += 8 + 8 + 4;
        for ins in &blk.instrs {
            n += 4 + str_len(&ins.pattern) + 8 * (12 + MEMORY_LEVEL_CAP as u64);
        }
    }
    n
}

/// Encodes a trace into the legacy v1 record-oriented format. Kept for
/// compatibility tooling (fixture generation, raw-size baselines); new
/// writers should use [`to_bytes`].
pub fn to_bytes_v1(trace: &TaskTrace) -> Bytes {
    let mut b = BytesMut::with_capacity(1024);
    b.put_slice(MAGIC);
    b.put_u16(VERSION_V1);
    put_str(&mut b, &trace.app);
    b.put_u32(trace.rank);
    b.put_u32(trace.nranks);
    put_str(&mut b, &trace.machine);
    b.put_u8(trace.depth as u8);
    b.put_u32(trace.blocks.len() as u32);
    for blk in &trace.blocks {
        put_str(&mut b, &blk.name);
        put_str(&mut b, &blk.source.file);
        b.put_u32(blk.source.line);
        put_str(&mut b, &blk.source.function);
        b.put_u64(blk.invocations);
        b.put_u64(blk.iterations);
        b.put_u32(blk.instrs.len() as u32);
        for ins in &blk.instrs {
            b.put_u32(ins.instr);
            put_str(&mut b, &ins.pattern);
            let f = &ins.features;
            for v in [
                f.exec_count,
                f.mem_ops,
                f.loads,
                f.stores,
                f.bytes_per_ref,
                f.fp_add,
                f.fp_mul,
                f.fp_div,
                f.fp_sqrt,
                f.fp_fma,
                f.working_set,
                f.ilp,
            ] {
                b.put_f64(v);
            }
            for &h in &f.hit_rates {
                b.put_f64(h);
            }
        }
    }
    b.freeze()
}

/// Decodes a trace from the compact binary format, dispatching on the
/// envelope version: v1 (record-oriented) and v2 (compressed columnar)
/// both load; anything else is rejected.
pub fn from_bytes(mut buf: &[u8]) -> Result<TaskTrace, CodecError> {
    if buf.remaining() < 6 {
        return Err(CodecError::Truncated);
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = buf.get_u16();
    match version {
        VERSION_V1 => decode_v1(buf),
        VERSION => decode_v2(buf),
        v => Err(CodecError::BadVersion(v)),
    }
}

/// Upper bound on the bytes of one v2 pattern-dictionary label. Every
/// instruction gets its own copy of its label, so without the bound a
/// small envelope whose instructions share one long label decodes to
/// instruction-cap times that label. Labels are access-pattern classes
/// (`strided`, `random`, `stencil`, `fp`), at most 7 bytes.
const MAX_PATTERN_LEN: usize = 32;

/// Decodes the v2 body (everything after magic + version).
fn decode_v2(mut buf: &[u8]) -> Result<TaskTrace, CodecError> {
    let app = get_str(&mut buf)?;
    need(buf, 8)?;
    let rank = buf.get_u32();
    let nranks = buf.get_u32();
    let machine = get_str(&mut buf)?;
    need(buf, 5)?;
    let depth = usize::from(buf.get_u8());
    let nblocks = buf.get_u32() as usize;
    if nblocks > codec::MAX_COLUMN_LEN {
        return Err(CodecError::Corrupt("block count exceeds cap"));
    }
    let mut block_names = Vec::with_capacity(nblocks.min(1 << 16));
    let mut block_files = Vec::with_capacity(nblocks.min(1 << 16));
    let mut block_lines = Vec::with_capacity(nblocks.min(1 << 16));
    let mut block_functions = Vec::with_capacity(nblocks.min(1 << 16));
    for _ in 0..nblocks {
        block_names.push(get_str(&mut buf)?);
        block_files.push(get_str(&mut buf)?);
        need(buf, 4)?;
        block_lines.push(buf.get_u32());
        block_functions.push(get_str(&mut buf)?);
    }
    let invocations = codec::decode_u64_column(&mut buf, nblocks)?;
    let iterations = codec::decode_u64_column(&mut buf, nblocks)?;
    let ninstrs = codec::decode_u64_column(&mut buf, nblocks)?;
    let mut instr_start = Vec::with_capacity(nblocks + 1);
    instr_start.push(0u32);
    let mut total: usize = 0;
    for &n in &ninstrs {
        total = total
            .checked_add(n as usize)
            .filter(|&t| t <= codec::MAX_TRACE_INSTRUCTIONS)
            .ok_or(CodecError::Corrupt("instruction count exceeds cap"))?;
        instr_start.push(total as u32);
    }
    let instr_index: Vec<u32> = codec::decode_u64_column(&mut buf, total)?
        .into_iter()
        .map(|v| u32::try_from(v).map_err(|_| CodecError::Corrupt("instruction index exceeds u32")))
        .collect::<Result<_, _>>()?;
    need(buf, 4)?;
    let npatterns = buf.get_u32() as usize;
    if npatterns > total {
        return Err(CodecError::Corrupt("pattern dictionary larger than trace"));
    }
    let mut dict = Vec::with_capacity(npatterns);
    for _ in 0..npatterns {
        let label = get_str(&mut buf)?;
        if label.len() > MAX_PATTERN_LEN {
            return Err(CodecError::Corrupt("pattern label exceeds cap"));
        }
        dict.push(label);
    }
    let patterns: Vec<String> = codec::decode_u64_column(&mut buf, total)?
        .into_iter()
        .map(|k| {
            dict.get(k as usize)
                .cloned()
                .ok_or(CodecError::Corrupt("pattern index out of dictionary"))
        })
        .collect::<Result<_, _>>()?;
    let mut features = FeatureMatrix::with_capacity(total);
    for col in features.scalars.iter_mut() {
        *col = codec::decode_f64_column(&mut buf, total)?;
    }
    for col in features.hit_rates.iter_mut() {
        *col = codec::decode_f64_column(&mut buf, total)?;
    }
    let cols = TraceColumns {
        app,
        rank,
        nranks,
        machine,
        depth,
        block_names,
        block_files,
        block_lines,
        block_functions,
        invocations,
        iterations,
        instr_start,
        instr_index,
        patterns,
        features,
    };
    Ok(cols.to_trace())
}

/// Decodes the v1 body (everything after magic + version).
fn decode_v1(mut buf: &[u8]) -> Result<TaskTrace, CodecError> {
    let app = get_str(&mut buf)?;
    need(buf, 8)?;
    let rank = buf.get_u32();
    let nranks = buf.get_u32();
    let machine = get_str(&mut buf)?;
    need(buf, 5)?;
    let depth = usize::from(buf.get_u8());
    let nblocks = buf.get_u32() as usize;
    let mut blocks = Vec::with_capacity(nblocks.min(1 << 16));
    for _ in 0..nblocks {
        let name = get_str(&mut buf)?;
        let file = get_str(&mut buf)?;
        need(buf, 4)?;
        let line = buf.get_u32();
        let function = get_str(&mut buf)?;
        need(buf, 20)?;
        let invocations = buf.get_u64();
        let iterations = buf.get_u64();
        let ninstr = buf.get_u32() as usize;
        let mut instrs = Vec::with_capacity(ninstr.min(1 << 16));
        for _ in 0..ninstr {
            need(buf, 4)?;
            let instr = buf.get_u32();
            let pattern = get_str(&mut buf)?;
            need(buf, 8 * (12 + MEMORY_LEVEL_CAP))?;
            let mut f = FeatureVector {
                exec_count: buf.get_f64(),
                mem_ops: buf.get_f64(),
                loads: buf.get_f64(),
                stores: buf.get_f64(),
                bytes_per_ref: buf.get_f64(),
                fp_add: buf.get_f64(),
                fp_mul: buf.get_f64(),
                fp_div: buf.get_f64(),
                fp_sqrt: buf.get_f64(),
                fp_fma: buf.get_f64(),
                working_set: buf.get_f64(),
                ilp: buf.get_f64(),
                ..Default::default()
            };
            for h in f.hit_rates.iter_mut() {
                *h = buf.get_f64();
            }
            instrs.push(InstrRecord {
                instr,
                pattern,
                features: f,
            });
        }
        blocks.push(BlockRecord {
            name,
            source: SourceLoc::new(file, line, function),
            invocations,
            iterations,
            instrs,
        });
    }
    Ok(TaskTrace {
        app,
        rank,
        nranks,
        machine,
        depth,
        blocks,
    })
}

fn put_str(b: &mut BytesMut, s: &str) {
    b.put_u32(s.len() as u32);
    b.put_slice(s.as_bytes());
}

fn need(buf: &[u8], n: usize) -> Result<(), CodecError> {
    if buf.remaining() < n {
        Err(CodecError::Truncated)
    } else {
        Ok(())
    }
}

fn get_str(buf: &mut &[u8]) -> Result<String, CodecError> {
    need(buf, 4)?;
    let len = buf.get_u32() as usize;
    need(buf, len)?;
    let mut bytes = vec![0u8; len];
    buf.copy_to_slice(&mut bytes);
    String::from_utf8(bytes).map_err(|_| CodecError::BadString)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TaskTrace {
        TaskTrace {
            app: "specfem3d-proxy".into(),
            rank: 17,
            nranks: 96,
            machine: "cray-xt5".into(),
            depth: 3,
            blocks: vec![BlockRecord {
                name: "stiffness-matmul".into(),
                source: SourceLoc::new("compute_forces.f90", 312, "compute_forces_elastic"),
                invocations: 1000,
                iterations: 42,
                instrs: vec![
                    InstrRecord {
                        instr: 0,
                        pattern: "strided".into(),
                        features: FeatureVector {
                            exec_count: 42_000.0,
                            mem_ops: 42_000.0,
                            loads: 42_000.0,
                            bytes_per_ref: 8.0,
                            hit_rates: [0.874, 0.91, 0.95, 1.0],
                            working_set: 27.6e6,
                            ilp: 2.5,
                            ..Default::default()
                        },
                    },
                    InstrRecord {
                        instr: 1,
                        pattern: "fp".into(),
                        features: FeatureVector {
                            exec_count: 378_000.0,
                            fp_fma: 378_000.0,
                            ilp: 2.5,
                            ..Default::default()
                        },
                    },
                ],
            }],
        }
    }

    #[test]
    fn binary_roundtrip_is_exact() {
        let t = sample();
        let bytes = to_bytes(&t);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn binary_is_smaller_than_json() {
        let t = sample();
        let bin = to_bytes(&t);
        let json = serde_json::to_string(&t).unwrap();
        assert!(
            bin.len() < json.len(),
            "binary {} vs json {}",
            bin.len(),
            json.len()
        );
    }

    #[test]
    fn json_file_roundtrip() {
        let t = sample();
        let dir = std::env::temp_dir().join("xtrace-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        save_json(&t, &path).unwrap();
        let back = load_json(&path).unwrap();
        assert_eq!(back, t, "envelope roundtrip is exact");
        // The on-disk form is the versioned envelope.
        let raw: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(raw["format"], JSON_FORMAT);
        assert_eq!(raw["version"], u64::from(JSON_VERSION));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn legacy_bare_json_still_loads() {
        let t = sample();
        let dir = std::env::temp_dir().join("xtrace-io-test-legacy");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("legacy.json");
        std::fs::write(&path, serde_json::to_string_pretty(&t).unwrap()).unwrap();
        let back = load_json(&path).unwrap();
        assert_eq!(back, t);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn json_rejects_forward_version() {
        let t = sample();
        let dir = std::env::temp_dir().join("xtrace-io-test-fwd");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("future.json");
        save_json(&t, &path).unwrap();
        let bumped = std::fs::read_to_string(&path).unwrap().replace(
            &format!("\"version\": {JSON_VERSION}"),
            &format!("\"version\": {}", JSON_VERSION + 41),
        );
        std::fs::write(&path, bumped).unwrap();
        match load_json(&path) {
            Err(IoError::UnsupportedVersion { got, supported }) => {
                assert_eq!(got, JSON_VERSION + 41);
                assert_eq!(supported, JSON_VERSION);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn json_io_error_carries_path() {
        let missing = Path::new("/nonexistent-dir-xtrace/trace.json");
        match load_json(missing) {
            Err(IoError::Io { path, .. }) => assert_eq!(path, missing),
            other => panic!("expected Io error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_magic() {
        assert!(matches!(
            from_bytes(b"NOPE\0\x01"),
            Err(CodecError::BadMagic)
        ));
    }

    #[test]
    fn rejects_bad_version() {
        let mut b = BytesMut::new();
        b.put_slice(MAGIC);
        b.put_u16(99);
        assert!(matches!(
            from_bytes(&b.freeze()),
            Err(CodecError::BadVersion(99))
        ));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let full = to_bytes(&sample());
        // Any prefix must fail gracefully, never panic.
        for cut in 0..full.len() {
            let r = from_bytes(&full[..cut]);
            assert!(r.is_err(), "prefix of {cut} bytes unexpectedly decoded");
        }
    }

    #[test]
    fn rejects_invalid_utf8() {
        let mut b = BytesMut::new();
        b.put_slice(MAGIC);
        b.put_u16(VERSION);
        b.put_u32(2);
        b.put_slice(&[0xFF, 0xFE]);
        // Pad out so the string read has enough bytes.
        assert!(matches!(
            from_bytes(&b.freeze()),
            Err(CodecError::BadString)
        ));
    }

    #[test]
    fn empty_trace_roundtrips() {
        let t = TaskTrace {
            app: String::new(),
            rank: 0,
            nranks: 1,
            machine: String::new(),
            depth: 1,
            blocks: vec![],
        };
        assert_eq!(from_bytes(&to_bytes(&t)).unwrap(), t);
    }
}
