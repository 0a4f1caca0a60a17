//! The application-signature data model.
//!
//! A [`TaskTrace`] is one MPI task's trace file; an [`AppSignature`] is the
//! collection the prediction framework consumes. The extrapolator treats
//! every element of every instruction's [`FeatureVector`] as an independent
//! scalar time series across core counts, so the vector exposes a uniform
//! [`FeatureId`]-indexed get/set interface alongside its named fields.

use serde::{Deserialize, Serialize};
use xtrace_cache::MEMORY_LEVEL_CAP;
use xtrace_ir::SourceLoc;
use xtrace_spmd::CommProfile;

/// Identifies one scalar element of a feature vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FeatureId {
    /// Dynamic executions of the instruction.
    ExecCount,
    /// Dynamic memory references (0 for FP instructions).
    MemOps,
    /// Dynamic loads.
    Loads,
    /// Dynamic stores.
    Stores,
    /// Bytes per reference.
    BytesPerRef,
    /// Dynamic FP adds.
    FpAdd,
    /// Dynamic FP multiplies.
    FpMul,
    /// Dynamic FP divides.
    FpDiv,
    /// Dynamic FP square roots.
    FpSqrt,
    /// Dynamic fused multiply-adds.
    FpFma,
    /// Cumulative hit rate at cache level `0..MEMORY_LEVEL_CAP-1`.
    HitRate(u8),
    /// Working-set size in bytes (the referenced region's footprint).
    WorkingSet,
    /// Block instruction-level parallelism.
    Ilp,
}

impl FeatureId {
    /// All extrapolatable elements for a machine with `depth` cache levels.
    pub fn all(depth: usize) -> Vec<FeatureId> {
        let mut v = vec![
            FeatureId::ExecCount,
            FeatureId::MemOps,
            FeatureId::Loads,
            FeatureId::Stores,
            FeatureId::BytesPerRef,
            FeatureId::FpAdd,
            FeatureId::FpMul,
            FeatureId::FpDiv,
            FeatureId::FpSqrt,
            FeatureId::FpFma,
        ];
        for l in 0..depth.min(MEMORY_LEVEL_CAP) {
            v.push(FeatureId::HitRate(l as u8));
        }
        v.push(FeatureId::WorkingSet);
        v.push(FeatureId::Ilp);
        v
    }

    /// Short label for experiment output (`"L2 hit rate"` etc.).
    pub fn label(&self) -> String {
        match self {
            FeatureId::ExecCount => "exec count".into(),
            FeatureId::MemOps => "memory ops".into(),
            FeatureId::Loads => "loads".into(),
            FeatureId::Stores => "stores".into(),
            FeatureId::BytesPerRef => "bytes/ref".into(),
            FeatureId::FpAdd => "fp add".into(),
            FeatureId::FpMul => "fp mul".into(),
            FeatureId::FpDiv => "fp div".into(),
            FeatureId::FpSqrt => "fp sqrt".into(),
            FeatureId::FpFma => "fp fma".into(),
            FeatureId::HitRate(l) => format!("L{} hit rate", l + 1),
            FeatureId::WorkingSet => "working set".into(),
            FeatureId::Ilp => "ilp".into(),
        }
    }

    /// True for elements that are rates/ratios in `[0, 1]` (clamped after
    /// extrapolation).
    pub fn is_rate(&self) -> bool {
        matches!(self, FeatureId::HitRate(_))
    }
}

/// Per-instruction measurements — the unit of extrapolation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FeatureVector {
    /// Dynamic executions.
    pub exec_count: f64,
    /// Dynamic memory references.
    pub mem_ops: f64,
    /// Dynamic loads.
    pub loads: f64,
    /// Dynamic stores.
    pub stores: f64,
    /// Bytes per reference.
    pub bytes_per_ref: f64,
    /// Dynamic FP adds.
    pub fp_add: f64,
    /// Dynamic FP multiplies.
    pub fp_mul: f64,
    /// Dynamic FP divides.
    pub fp_div: f64,
    /// Dynamic FP square roots.
    pub fp_sqrt: f64,
    /// Dynamic FMAs.
    pub fp_fma: f64,
    /// Cumulative hit rates per cache level (entries past the machine's
    /// depth stay 1.0).
    pub hit_rates: [f64; MEMORY_LEVEL_CAP],
    /// Working-set footprint in bytes.
    pub working_set: f64,
    /// Block ILP.
    pub ilp: f64,
}

impl Default for FeatureVector {
    fn default() -> Self {
        Self {
            exec_count: 0.0,
            mem_ops: 0.0,
            loads: 0.0,
            stores: 0.0,
            bytes_per_ref: 0.0,
            fp_add: 0.0,
            fp_mul: 0.0,
            fp_div: 0.0,
            fp_sqrt: 0.0,
            fp_fma: 0.0,
            hit_rates: [1.0; MEMORY_LEVEL_CAP],
            working_set: 0.0,
            ilp: 1.0,
        }
    }
}

impl FeatureVector {
    /// Reads one element.
    pub fn get(&self, id: FeatureId) -> f64 {
        match id {
            FeatureId::ExecCount => self.exec_count,
            FeatureId::MemOps => self.mem_ops,
            FeatureId::Loads => self.loads,
            FeatureId::Stores => self.stores,
            FeatureId::BytesPerRef => self.bytes_per_ref,
            FeatureId::FpAdd => self.fp_add,
            FeatureId::FpMul => self.fp_mul,
            FeatureId::FpDiv => self.fp_div,
            FeatureId::FpSqrt => self.fp_sqrt,
            FeatureId::FpFma => self.fp_fma,
            FeatureId::HitRate(l) => self.hit_rates[usize::from(l)],
            FeatureId::WorkingSet => self.working_set,
            FeatureId::Ilp => self.ilp,
        }
    }

    /// Writes one element.
    pub fn set(&mut self, id: FeatureId, v: f64) {
        match id {
            FeatureId::ExecCount => self.exec_count = v,
            FeatureId::MemOps => self.mem_ops = v,
            FeatureId::Loads => self.loads = v,
            FeatureId::Stores => self.stores = v,
            FeatureId::BytesPerRef => self.bytes_per_ref = v,
            FeatureId::FpAdd => self.fp_add = v,
            FeatureId::FpMul => self.fp_mul = v,
            FeatureId::FpDiv => self.fp_div = v,
            FeatureId::FpSqrt => self.fp_sqrt = v,
            FeatureId::FpFma => self.fp_fma = v,
            FeatureId::HitRate(l) => self.hit_rates[usize::from(l)] = v,
            FeatureId::WorkingSet => self.working_set = v,
            FeatureId::Ilp => self.ilp = v,
        }
    }

    /// Total FP operations (FMA counted once, as an operation).
    pub fn fp_ops(&self) -> f64 {
        self.fp_add + self.fp_mul + self.fp_div + self.fp_sqrt + self.fp_fma
    }
}

/// One instruction's record inside a block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstrRecord {
    /// Instruction index within the block.
    pub instr: u32,
    /// Address-pattern label for memory instructions (`"strided"`,
    /// `"random"`, `"stencil"`), `"fp"` otherwise. Informational.
    pub pattern: String,
    /// Measured/derived features.
    pub features: FeatureVector,
}

/// One basic block's record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlockRecord {
    /// Stable block name (extrapolation aligns blocks across core counts by
    /// name).
    pub name: String,
    /// Source provenance.
    pub source: SourceLoc,
    /// Block invocations over the whole run.
    pub invocations: u64,
    /// Loop trips per invocation.
    pub iterations: u64,
    /// Per-instruction records, ordered by instruction index.
    pub instrs: Vec<InstrRecord>,
}

impl BlockRecord {
    /// Total dynamic memory operations of the block.
    pub fn mem_ops(&self) -> f64 {
        self.instrs.iter().map(|i| i.features.mem_ops).sum()
    }

    /// Total dynamic FP operations of the block.
    pub fn fp_ops(&self) -> f64 {
        self.instrs.iter().map(|i| i.features.fp_ops()).sum()
    }
}

/// One MPI task's trace file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskTrace {
    /// Application name.
    pub app: String,
    /// Rank this trace belongs to.
    pub rank: u32,
    /// Core count of the run.
    pub nranks: u32,
    /// Target machine the cache simulation mimicked.
    pub machine: String,
    /// Cache depth of that machine.
    pub depth: usize,
    /// Per-block records.
    pub blocks: Vec<BlockRecord>,
}

impl TaskTrace {
    /// Total dynamic memory operations across all blocks.
    pub fn total_mem_ops(&self) -> f64 {
        self.blocks.iter().map(|b| b.mem_ops()).sum()
    }

    /// Total dynamic FP operations across all blocks.
    pub fn total_fp_ops(&self) -> f64 {
        self.blocks.iter().map(|b| b.fp_ops()).sum()
    }

    /// The influence of an instruction: its share of the task's memory
    /// operations, or of FP operations for instructions without memory
    /// references (Section IV's influence criterion; threshold 0.1%).
    pub fn influence(&self, features: &FeatureVector) -> f64 {
        if features.mem_ops > 0.0 {
            let total = self.total_mem_ops();
            if total > 0.0 {
                features.mem_ops / total
            } else {
                0.0
            }
        } else {
            let total = self.total_fp_ops();
            if total > 0.0 {
                features.fp_ops() / total
            } else {
                0.0
            }
        }
    }

    /// Finds a block by name.
    pub fn block(&self, name: &str) -> Option<&BlockRecord> {
        self.blocks.iter().find(|b| b.name == name)
    }
}

/// The signature of one application run: the traced task(s) plus the
/// communication profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppSignature {
    /// Traced tasks (at minimum, the most computationally demanding one).
    pub traces: Vec<TaskTrace>,
    /// Communication profile from the lightweight MPI profiling pass.
    pub comm: CommProfile,
}

impl AppSignature {
    /// The trace of the most computationally demanding task.
    ///
    /// # Panics
    ///
    /// Panics if the signature contains no trace for that task (cannot
    /// happen for signatures built by [`crate::collect_signature_memo_obs`]).
    pub fn longest_task(&self) -> &TaskTrace {
        self.traces
            .iter()
            .find(|t| t.rank == self.comm.longest_rank)
            .expect("signature contains the longest task's trace")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fv(mem: f64, fma: f64) -> FeatureVector {
        FeatureVector {
            exec_count: mem.max(fma),
            mem_ops: mem,
            loads: mem,
            bytes_per_ref: 8.0,
            fp_fma: fma,
            ..Default::default()
        }
    }

    #[test]
    fn feature_get_set_roundtrip_all_ids() {
        let mut v = FeatureVector::default();
        for (k, id) in FeatureId::all(3).into_iter().enumerate() {
            v.set(id, k as f64 + 0.5);
            assert_eq!(v.get(id), k as f64 + 0.5, "{id:?}");
        }
    }

    #[test]
    fn all_ids_depth_dependence() {
        assert_eq!(FeatureId::all(2).len(), FeatureId::all(3).len() - 1);
        assert!(FeatureId::all(3).contains(&FeatureId::HitRate(2)));
        assert!(!FeatureId::all(2).contains(&FeatureId::HitRate(2)));
    }

    #[test]
    fn labels_and_rate_flags() {
        assert_eq!(FeatureId::HitRate(1).label(), "L2 hit rate");
        assert!(FeatureId::HitRate(0).is_rate());
        assert!(!FeatureId::MemOps.is_rate());
    }

    #[test]
    fn influence_uses_mem_ops_when_present() {
        let trace = TaskTrace {
            app: "t".into(),
            rank: 0,
            nranks: 4,
            machine: "m".into(),
            depth: 2,
            blocks: vec![BlockRecord {
                name: "b".into(),
                source: SourceLoc::new("f", 1, "g"),
                invocations: 1,
                iterations: 1,
                instrs: vec![
                    InstrRecord {
                        instr: 0,
                        pattern: "strided".into(),
                        features: fv(900.0, 0.0),
                    },
                    InstrRecord {
                        instr: 1,
                        pattern: "random".into(),
                        features: fv(100.0, 0.0),
                    },
                    InstrRecord {
                        instr: 2,
                        pattern: "fp".into(),
                        features: fv(0.0, 50.0),
                    },
                ],
            }],
        };
        let b = &trace.blocks[0];
        assert!((trace.influence(&b.instrs[0].features) - 0.9).abs() < 1e-12);
        assert!((trace.influence(&b.instrs[1].features) - 0.1).abs() < 1e-12);
        // FP instruction: share of FP ops.
        assert!((trace.influence(&b.instrs[2].features) - 1.0).abs() < 1e-12);
        assert!((trace.total_mem_ops() - 1000.0).abs() < 1e-12);
        assert!((trace.total_fp_ops() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn fp_ops_counts_fma_once() {
        let v = FeatureVector {
            fp_add: 3.0,
            fp_fma: 2.0,
            ..Default::default()
        };
        assert_eq!(v.fp_ops(), 5.0);
    }

    #[test]
    fn default_vector_is_neutral() {
        let v = FeatureVector::default();
        assert_eq!(v.mem_ops, 0.0);
        assert_eq!(v.hit_rates, [1.0; MEMORY_LEVEL_CAP]);
        assert_eq!(v.ilp, 1.0);
    }
}
