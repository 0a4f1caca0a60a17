//! Bulk-synchronous discrete-event engine.
//!
//! Advances one virtual clock per rank through the SPMD event script.
//! Compute events move only the local clock (by whatever the plugged-in
//! [`ComputeModel`] charges); communication events synchronize clocks —
//! locally for halo exchanges, globally for collectives — and then charge
//! the network cost from [`NetworkModel`]. The slowest rank's finish time
//! is the application runtime; the gap between a rank's arrival at a
//! synchronization point and its departure is attributed to communication
//! (it is wait-plus-wire time, exactly how MPI profilers attribute it).
//!
//! # Rank-class deduplication
//!
//! SPMD rank programs are identical within master/worker classes: at a
//! fixed core count the proxies produce two or three distinct programs
//! (master, remainder worker, plain worker), not `nranks` of them. The
//! engine exploits that through [`RankClasses`]: one representative
//! program is materialized per class, the compute model is charged once
//! per (class, [`ComputeModel::class_key`]) pair, and only the per-rank
//! state that genuinely differs — clocks, synchronization waits, and
//! `Exchange` neighbor lists — is kept per rank. This collapses the
//! O(nranks) program builds and model charges of the naive engine to
//! O(classes) while producing bit-identical [`SimReport`]s: every
//! per-rank floating-point update is performed in the same order with the
//! same values as the naive per-rank walk (the reference implementation is
//! kept as [`simulate_naive`] and equality is enforced by
//! proptests).
//!
//! # Two-phase stepping
//!
//! Between synchronization points every rank's advance depends only on the
//! pre-event clocks, so each event is applied in two phases: a pure
//! per-rank update computation over the pre-event snapshot, followed by an
//! in-order commit. Stepping is serial: one event's per-rank work is a few
//! arithmetic operations, so fanning it out costs more in thread hand-off
//! than it saves, and a sweep already runs one simulation per lane.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};
use xtrace_obs::ObsContext;

use crate::compute::ComputeModel;
use crate::critical::{CriticalPathAccumulator, CriticalPathReport, PathPhase};
use crate::event::{exchange_lists, RankEvent, RankProgram, SpmdApp};
use crate::net::NetworkModel;

/// One interval of a replay timeline: what a rank was doing, and when.
///
/// PSiNS is "an open source event tracer and execution simulator"; this is
/// the event-tracer half — the record stream a timeline viewer (or the
/// tests) consume.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimelineEntry {
    /// Rank the interval belongs to.
    pub rank: u32,
    /// Index of the event in the rank's script.
    pub event_index: usize,
    /// Event classification (the [`RankEvent::kind_tag`] names).
    pub kind: String,
    /// Interval start, in seconds from application start.
    pub start_s: f64,
    /// Interval end.
    pub end_s: f64,
}

/// Per-rank time breakdown.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RankTimes {
    /// Seconds spent in compute segments.
    pub compute_s: f64,
    /// Seconds spent communicating (wire time plus synchronization wait).
    pub comm_s: f64,
    /// Final clock value.
    pub finish_s: f64,
}

/// Result of simulating an application at one core count.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Application runtime: the slowest rank's finish time.
    pub total_seconds: f64,
    /// Per-rank breakdowns, indexed by rank.
    pub ranks: Vec<RankTimes>,
}

impl SimReport {
    /// Rank with the largest compute time — the task the paper extrapolates
    /// ("this task tends to have the most impact on overall execution
    /// time", Section IV).
    pub fn most_computational_rank(&self) -> u32 {
        let mut best = 0usize;
        for (i, r) in self.ranks.iter().enumerate().skip(1) {
            // Strictly greater: ties resolve to the lowest rank id, keeping
            // the choice deterministic and stable across core counts.
            if r.compute_s > self.ranks[best].compute_s {
                best = i;
            }
        }
        best as u32
    }

    /// Ratio of max to mean compute time across ranks (1.0 = perfectly
    /// balanced).
    pub fn compute_imbalance(&self) -> f64 {
        let max = self
            .ranks
            .iter()
            .map(|r| r.compute_s)
            .fold(f64::MIN, f64::max);
        let mean = self.ranks.iter().map(|r| r.compute_s).sum::<f64>() / self.ranks.len() as f64;
        if mean > 0.0 {
            max / mean
        } else {
            1.0
        }
    }
}

/// Why a simulation could not be run.
#[derive(Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The simulation was asked for zero ranks.
    NoRanks,
    /// A rank's program failed [`RankProgram::validate`].
    InvalidRank {
        /// Offending rank.
        rank: u32,
        /// The validation failure.
        detail: String,
    },
    /// A rank's event count differs from rank 0's (an SPMD violation).
    EventCountMismatch {
        /// Offending rank.
        rank: u32,
    },
    /// A rank's event kind differs from rank 0's at the same index (an
    /// SPMD violation).
    EventKindMismatch {
        /// Offending rank.
        rank: u32,
        /// Offending event index.
        event: usize,
    },
    /// An exchange partner list names a rank outside the job.
    BadNeighbor {
        /// Offending rank.
        rank: u32,
        /// The out-of-range neighbor.
        neighbor: u32,
    },
    /// An app's [`SpmdApp::rank_class`] / [`SpmdApp::exchange_partners`]
    /// overrides disagree with its materialized rank programs.
    ClassContract {
        /// Offending rank.
        rank: u32,
        /// What disagreed.
        detail: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::NoRanks => write!(f, "need at least one rank"),
            SimError::InvalidRank { rank, detail } => write!(f, "rank {rank}: {detail}"),
            SimError::EventCountMismatch { rank } => write!(
                f,
                "rank {rank} event count differs from rank 0 (SPMD violation)"
            ),
            SimError::EventKindMismatch { rank, event } => write!(
                f,
                "rank {rank} event {event} kind differs from rank 0 (SPMD violation)"
            ),
            SimError::BadNeighbor { rank, neighbor } => write!(
                f,
                "rank {rank} exchanges with out-of-range neighbor {neighbor}"
            ),
            SimError::ClassContract { rank, detail } => {
                write!(f, "rank {rank} violates the rank-class contract: {detail}")
            }
        }
    }
}

// Debug delegates to Display so an `.expect(...)` on a simulation result
// panics with the human-readable message.
impl std::fmt::Debug for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Display::fmt(self, f)
    }
}

impl std::error::Error for SimError {}

/// Rank-class decomposition of an SPMD job: one representative
/// [`RankProgram`] per equivalence class plus the per-rank residue (class
/// assignment and `Exchange` neighbor lists).
///
/// Two ranks are in the same class when their programs are identical
/// except for `Exchange` neighbor lists. For the proxy apps that yields
/// two or three classes at any core count, so materializing and
/// compute-charging per class instead of per rank collapses the dominant
/// replay cost from O(nranks) to O(1).
#[derive(Debug, Clone)]
pub struct RankClasses {
    /// One representative program per class, in first-seen (rank) order.
    representatives: Vec<RankProgram>,
    /// Rank → class index.
    assignment: Vec<u32>,
    /// Rank → (`Exchange` slot in script order) → neighbor list.
    partners: Vec<Vec<Vec<u32>>>,
}

/// True when the two programs differ at most in `Exchange` neighbor lists.
fn same_class(a: &RankProgram, b: &RankProgram) -> bool {
    if a.program != b.program || a.events.len() != b.events.len() {
        return false;
    }
    a.events.iter().zip(&b.events).all(|(x, y)| match (x, y) {
        (
            RankEvent::Exchange {
                bytes_per_neighbor: bx,
                repeats: rx,
                ..
            },
            RankEvent::Exchange {
                bytes_per_neighbor: by,
                repeats: ry,
                ..
            },
        ) => bx == by && rx == ry,
        _ => x == y,
    })
}

/// Shape/validity check shared by the naive engine and class building.
fn validate_programs(programs: &[RankProgram]) -> Result<(), SimError> {
    if programs.is_empty() {
        return Err(SimError::NoRanks);
    }
    let nranks = programs.len() as u32;
    let nevents = programs[0].events.len();
    for (r, p) in programs.iter().enumerate() {
        if let Err(detail) = p.validate(nranks) {
            return Err(SimError::InvalidRank {
                rank: r as u32,
                detail,
            });
        }
        if p.events.len() != nevents {
            return Err(SimError::EventCountMismatch { rank: r as u32 });
        }
        for (i, e) in p.events.iter().enumerate() {
            if e.kind_tag() != programs[0].events[i].kind_tag() {
                return Err(SimError::EventKindMismatch {
                    rank: r as u32,
                    event: i,
                });
            }
        }
    }
    Ok(())
}

impl RankClasses {
    /// Number of ranks in the job.
    pub fn nranks(&self) -> u32 {
        self.assignment.len() as u32
    }

    /// Number of equivalence classes.
    pub fn num_classes(&self) -> usize {
        self.representatives.len()
    }

    /// The representative programs, in first-seen (rank) order.
    pub fn representatives(&self) -> &[RankProgram] {
        &self.representatives
    }

    /// Rank → class index.
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// Groups already-materialized programs by structural equality (modulo
    /// `Exchange` neighbors). O(nranks × classes) comparisons — the
    /// correct-by-construction path used when no cheap class key exists.
    pub fn try_from_programs(programs: &[RankProgram]) -> Result<Self, SimError> {
        validate_programs(programs)?;
        let mut representatives: Vec<RankProgram> = Vec::new();
        let mut assignment = Vec::with_capacity(programs.len());
        let mut partners = Vec::with_capacity(programs.len());
        for p in programs {
            let c = match representatives.iter().position(|rep| same_class(rep, p)) {
                Some(c) => c,
                None => {
                    representatives.push(p.clone());
                    representatives.len() - 1
                }
            };
            assignment.push(c as u32);
            partners.push(exchange_lists(p));
        }
        Ok(Self {
            representatives,
            assignment,
            partners,
        })
    }

    /// Builds classes from an app's [`SpmdApp::rank_class`] keys without
    /// materializing every rank's program — the O(classes) fast path.
    /// Every rank's partner lists come from one
    /// [`SpmdApp::exchange_partners`] call for the whole job; a result that
    /// does not hold exactly `nranks` entries is a
    /// [`SimError::ClassContract`].
    ///
    /// Falls back to [`RankClasses::try_from_programs`] when the app does
    /// not provide keys. In debug builds the keys and partner lists are
    /// verified against fully materialized programs.
    pub fn try_from_app(app: &dyn SpmdApp, nranks: u32) -> Result<Self, SimError> {
        if nranks == 0 {
            return Err(SimError::NoRanks);
        }
        let keys: Option<Vec<u64>> = (0..nranks).map(|r| app.rank_class(r, nranks)).collect();
        let Some(keys) = keys else {
            let programs: Vec<RankProgram> =
                (0..nranks).map(|r| app.rank_program(r, nranks)).collect();
            return Self::try_from_programs(&programs);
        };

        let mut key_to_class: HashMap<u64, u32> = HashMap::new();
        let mut representatives: Vec<RankProgram> = Vec::new();
        let mut assignment = Vec::with_capacity(nranks as usize);
        for r in 0..nranks {
            let c = match key_to_class.get(&keys[r as usize]) {
                Some(&c) => c,
                None => {
                    let c = representatives.len() as u32;
                    representatives.push(app.rank_program(r, nranks));
                    key_to_class.insert(keys[r as usize], c);
                    c
                }
            };
            assignment.push(c);
        }
        // Built after the representatives on purpose: built first, the many
        // small per-rank lists left the heap fragmented enough to raise the
        // process's peak RSS by ~1.6 MiB in most `paper-cold` benchmark runs
        // (glibc malloc, 2-vCPU host).
        let partners = app.exchange_partners(nranks);
        if partners.len() != nranks as usize {
            return Err(SimError::ClassContract {
                rank: partners.len().min(nranks as usize) as u32,
                detail: format!(
                    "exchange_partners returned {} rank entries for {nranks} ranks",
                    partners.len()
                ),
            });
        }
        let classes = Self {
            representatives,
            assignment,
            partners,
        };
        classes.validate()?;
        #[cfg(debug_assertions)]
        classes.verify_app_contract(app, nranks)?;
        Ok(classes)
    }

    /// Internal consistency check used by the engine: representative
    /// programs are valid, classes agree on event shape, and every rank's
    /// partner lists line up with the script's `Exchange` slots.
    fn validate(&self) -> Result<(), SimError> {
        let nranks = self.assignment.len();
        if nranks == 0 || self.representatives.is_empty() {
            return Err(SimError::NoRanks);
        }
        let first_rank_of = |class: usize| -> u32 {
            self.assignment
                .iter()
                .position(|&c| c as usize == class)
                .map(|r| r as u32)
                .unwrap_or(0)
        };
        let base = &self.representatives[self.assignment[0] as usize];
        let nevents = base.events.len();
        for (c, rep) in self.representatives.iter().enumerate() {
            if let Err(detail) = rep.validate(nranks as u32) {
                return Err(SimError::InvalidRank {
                    rank: first_rank_of(c),
                    detail,
                });
            }
            if rep.events.len() != nevents {
                return Err(SimError::EventCountMismatch {
                    rank: first_rank_of(c),
                });
            }
            for (i, e) in rep.events.iter().enumerate() {
                if e.kind_tag() != base.events[i].kind_tag() {
                    return Err(SimError::EventKindMismatch {
                        rank: first_rank_of(c),
                        event: i,
                    });
                }
            }
        }
        let nslots = base
            .events
            .iter()
            .filter(|e| matches!(e, RankEvent::Exchange { .. }))
            .count();
        for (r, lists) in self.partners.iter().enumerate() {
            if (self.assignment[r] as usize) >= self.representatives.len() {
                return Err(SimError::ClassContract {
                    rank: r as u32,
                    detail: format!("class {} out of range", self.assignment[r]),
                });
            }
            if lists.len() != nslots {
                return Err(SimError::ClassContract {
                    rank: r as u32,
                    detail: format!(
                        "{} exchange partner lists for {nslots} Exchange events",
                        lists.len()
                    ),
                });
            }
            for list in lists {
                for &n in list {
                    if n as usize >= nranks {
                        return Err(SimError::BadNeighbor {
                            rank: r as u32,
                            neighbor: n,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Debug-build safety net for app-provided class keys: materialize
    /// every rank's program and check it really is its representative
    /// modulo `Exchange` neighbors, and that `exchange_partners` agrees
    /// with the program.
    #[cfg(debug_assertions)]
    fn verify_app_contract(&self, app: &dyn SpmdApp, nranks: u32) -> Result<(), SimError> {
        for r in 0..nranks {
            let p = app.rank_program(r, nranks);
            let rep = &self.representatives[self.assignment[r as usize] as usize];
            if !same_class(rep, &p) {
                return Err(SimError::ClassContract {
                    rank: r,
                    detail: "rank_class key equates programs that differ beyond Exchange \
                             neighbor lists"
                        .into(),
                });
            }
            if exchange_lists(&p) != self.partners[r as usize] {
                return Err(SimError::ClassContract {
                    rank: r,
                    detail: "exchange_partners disagrees with rank_program".into(),
                });
            }
        }
        Ok(())
    }
}

/// Runs the class-deduplicated engine over a prepared decomposition (build
/// it with [`RankClasses::try_from_app`] or
/// [`RankClasses::try_from_programs`]), recording into `obs`.
pub fn simulate(
    classes: &RankClasses,
    net: &NetworkModel,
    compute: &mut dyn ComputeModel,
    obs: &ObsContext,
) -> Result<SimReport, SimError> {
    simulate_classes_inner(classes, net, compute, None, None, obs)
}

/// [`simulate`] additionally attributing, per superstep, which
/// (rank-class, phase) segment lies on the critical path of the simulated
/// clock, and publishing the deterministic `spmd.critical_path.*` gauges
/// when metrics are enabled. Attribution is computed serially from the
/// deterministic simulation state, so the [`SimReport`] is bit-identical
/// to the unattributed run and the [`CriticalPathReport`] is
/// thread-invariant.
pub fn simulate_attributed(
    classes: &RankClasses,
    net: &NetworkModel,
    compute: &mut dyn ComputeModel,
    obs: &ObsContext,
) -> Result<(SimReport, CriticalPathReport), SimError> {
    let mut acc = CriticalPathAccumulator::default();
    let report = simulate_classes_inner(classes, net, compute, None, Some(&mut acc), obs)?;
    let critical = acc.finish(classes.nranks(), classes.num_classes() as u32);
    let metrics = obs.metrics();
    if metrics.enabled() {
        metrics
            .gauge("spmd.critical_path.segments")
            .set(critical.segments.len() as u64);
        metrics
            .gauge("spmd.critical_path.edges")
            .set(critical.edges.len() as u64);
        if let Some(b) = critical.bottleneck() {
            metrics
                .gauge("spmd.critical_path.bottleneck_class")
                .set(u64::from(b.class));
            metrics
                .gauge("spmd.critical_path.bottleneck_share_bp")
                .set(u64::from(b.share_bp));
        }
    }
    Ok((report, critical))
}

/// [`simulate`] additionally recording the full replay timeline (one entry
/// per rank per event, in event order). Recording keeps stepping serial.
pub fn simulate_timeline(
    classes: &RankClasses,
    net: &NetworkModel,
    compute: &mut dyn ComputeModel,
) -> Result<(SimReport, Vec<TimelineEntry>), SimError> {
    let mut timeline = Vec::new();
    let report = simulate_classes_inner(
        classes,
        net,
        compute,
        Some(&mut |e| timeline.push(e)),
        None,
        &ObsContext::disabled(),
    )?;
    Ok((report, timeline))
}

/// The frozen reference engine: walks every rank individually, charging
/// the compute model per rank, exactly as the engine worked before class
/// deduplication. Kept public so benches can measure the dedup speedup and
/// proptests can assert bit-identical reports.
pub fn simulate_naive(
    programs: &[RankProgram],
    net: &NetworkModel,
    compute: &mut dyn ComputeModel,
) -> Result<SimReport, SimError> {
    validate_programs(programs)?;
    Ok(naive_inner(programs, net, compute))
}

fn event_kind_name(e: &RankEvent) -> &'static str {
    match e {
        RankEvent::Compute { .. } => "compute",
        RankEvent::Exchange { .. } => "exchange",
        RankEvent::Allreduce { .. } => "allreduce",
        RankEvent::Broadcast { .. } => "broadcast",
        RankEvent::Alltoall { .. } => "alltoall",
        RankEvent::Barrier { .. } => "barrier",
    }
}

/// The deduplicated bulk-synchronous engine.
///
/// Each event is applied in two phases: per-rank `(new_clock, Δcompute,
/// Δcomm)` updates computed purely from the pre-event clocks, then an
/// in-order commit that also emits timeline entries when tracing. The
/// per-rank arithmetic is exactly the naive engine's — same values, same
/// order — so reports are bit-identical.
///
/// When `attr` is supplied, each superstep's critical segment is fed into
/// the accumulator between the two phases, reading only the pre-event
/// `clocks` snapshot and the already-computed `updates` vector — the
/// forward arithmetic is untouched, so attribution can never perturb the
/// report, and the attribution itself is a pure function of deterministic
/// state, so it is identical at any thread count.
fn simulate_classes_inner(
    classes: &RankClasses,
    net: &NetworkModel,
    compute: &mut dyn ComputeModel,
    mut record: Option<&mut dyn FnMut(TimelineEntry)>,
    mut attr: Option<&mut CriticalPathAccumulator>,
    obs: &ObsContext,
) -> Result<SimReport, SimError> {
    classes.validate()?;
    let nranks = classes.assignment.len();
    let assignment = &classes.assignment;
    let reps = &classes.representatives;
    let nevents = reps[0].events.len();

    // Refined compute-charging groups: (program class, model class key).
    // A model without keys opts out — every rank forms its own group and
    // is charged individually, exactly like the naive engine.
    let keys: Option<Vec<u64>> = (0..nranks).map(|r| compute.class_key(r as u32)).collect();
    let (group_of, group_reps): (Vec<u32>, Vec<u32>) = match keys {
        Some(keys) => {
            let mut map: HashMap<(u32, u64), u32> = HashMap::new();
            let mut group_of = Vec::with_capacity(nranks);
            let mut group_reps: Vec<u32> = Vec::new();
            for r in 0..nranks {
                let ck = (assignment[r], keys[r]);
                let g = match map.get(&ck) {
                    Some(&g) => g,
                    None => {
                        let g = group_reps.len() as u32;
                        group_reps.push(r as u32);
                        map.insert(ck, g);
                        g
                    }
                };
                group_of.push(g);
            }
            (group_of, group_reps)
        }
        None => ((0..nranks as u32).collect(), (0..nranks as u32).collect()),
    };

    // Observability: class/group/event counts are functions of the input
    // alone; the simulation count sits under the scheduling prefix that
    // masked snapshots drop.
    let metrics = obs.metrics();
    if metrics.enabled() {
        metrics.gauge("spmd.rank_classes").set(reps.len() as u64);
        metrics
            .gauge("spmd.compute_groups")
            .set(group_reps.len() as u64);
        metrics.counter("spmd.events_stepped").add(nevents as u64);
        metrics.counter("sched.spmd.serial_sims").incr();
    }

    // Journal: per-rank-class compute/exchange attribution on the
    // *simulated* clock. One lane per class, one event per (event, class),
    // emitted from the serial commit loop at the class's first member
    // rank — so the stream is deterministic and survives masking (the
    // wall timestamps are masked; start_s/end_s are simulation results).
    let journal = obs.journal();
    let journal_on = journal.enabled();
    let (class_first, class_lanes): (Vec<u32>, Vec<String>) = if journal_on {
        let mut first = vec![u32::MAX; reps.len()];
        for (r, &c) in assignment.iter().enumerate() {
            if first[c as usize] == u32::MAX {
                first[c as usize] = r as u32;
            }
        }
        let lanes = (0..reps.len()).map(|c| format!("class{c}")).collect();
        (first, lanes)
    } else {
        (Vec::new(), Vec::new())
    };
    // Critical-path lanes: one per class, named with the "critical" prefix
    // the Chrome exporter routes to its dedicated process group. Emitted
    // only when attribution is on, from the same serial section, so the
    // stream stays deterministic.
    let crit_lanes: Vec<String> = if journal_on && attr.is_some() {
        (0..reps.len())
            .map(|c| format!("critical.class{c}"))
            .collect()
    } else {
        Vec::new()
    };
    if journal_on {
        journal.begin(
            "spmd.sim",
            "spmd",
            &[
                ("nranks", nranks as f64),
                ("classes", reps.len() as f64),
                ("events", nevents as f64),
            ],
        );
    }

    let mut clocks = vec![0.0f64; nranks];
    let mut times = vec![RankTimes::default(); nranks];
    let mut exchange_slot = 0usize;

    for i in 0..nevents {
        let kind_name = event_kind_name(&reps[0].events[i]);
        let updates: Vec<(f64, f64, f64)> = match &reps[0].events[i] {
            RankEvent::Compute { .. } => {
                // Charge the model once per refined group at the group's
                // lowest member rank; every member advances by that dt.
                let mut dts = vec![0.0f64; group_reps.len()];
                for (g, &rep_rank) in group_reps.iter().enumerate() {
                    let p = &reps[assignment[rep_rank as usize] as usize];
                    if let RankEvent::Compute { block, invocations } = &p.events[i] {
                        let dt = compute.seconds(rep_rank, &p.program, *block, *invocations);
                        debug_assert!(dt.is_finite() && dt >= 0.0);
                        dts[g] = dt;
                    }
                }
                (0..nranks)
                    .map(|r| {
                        let dt = dts[group_of[r] as usize];
                        (clocks[r] + dt, dt, 0.0)
                    })
                    .collect()
            }
            RankEvent::Exchange { .. } => {
                let slot = exchange_slot;
                exchange_slot += 1;
                // Wire cost depends only on (class, partner count): compute
                // each distinct combination once.
                let mut costs: HashMap<(u32, usize), f64> = HashMap::new();
                for (r, &c) in assignment.iter().enumerate() {
                    let len = classes.partners[r][slot].len();
                    if let RankEvent::Exchange {
                        bytes_per_neighbor,
                        repeats,
                        ..
                    } = &reps[c as usize].events[i]
                    {
                        costs.entry((c, len)).or_insert_with(|| {
                            net.exchange(len as u32, *bytes_per_neighbor) * *repeats as f64
                        });
                    }
                }
                (0..nranks)
                    .map(|r| {
                        let list = &classes.partners[r][slot];
                        let mut sync = clocks[r];
                        for &n in list {
                            sync = sync.max(clocks[n as usize]);
                        }
                        let end = sync + costs[&(assignment[r], list.len())];
                        (end, 0.0, end - clocks[r])
                    })
                    .collect()
            }
            _ => {
                // Collectives: a global rank-order max fold (preserved
                // bit-for-bit from the naive engine), then a per-class
                // cost.
                let global = clocks.iter().cloned().fold(f64::MIN, f64::max);
                let costs: Vec<f64> = reps
                    .iter()
                    .map(|p| match &p.events[i] {
                        RankEvent::Allreduce { bytes, repeats } => {
                            net.allreduce(nranks as u32, *bytes) * *repeats as f64
                        }
                        RankEvent::Broadcast { bytes, repeats } => {
                            net.broadcast(nranks as u32, *bytes) * *repeats as f64
                        }
                        RankEvent::Alltoall {
                            bytes_per_pair,
                            repeats,
                        } => net.alltoall(nranks as u32, *bytes_per_pair) * *repeats as f64,
                        RankEvent::Barrier { repeats } => {
                            net.barrier(nranks as u32) * *repeats as f64
                        }
                        _ => 0.0,
                    })
                    .collect();
                (0..nranks)
                    .map(|r| {
                        let end = global + costs[assignment[r] as usize];
                        (end, 0.0, end - clocks[r])
                    })
                    .collect()
            }
        };

        // Critical-path attribution: identify the critical rank (max
        // post-event clock; ties resolve to the latest-arriving, then
        // lowest, rank) from the pre-commit snapshot and decompose its
        // superstep interval. Reads `clocks` and `updates` only — never
        // writes simulation state.
        if let Some(acc) = attr.as_deref_mut() {
            let mut crit = 0usize;
            for (r, u) in updates.iter().enumerate().skip(1) {
                let best = &updates[crit];
                if u.0 > best.0 || (u.0 == best.0 && clocks[r] > clocks[crit]) {
                    crit = r;
                }
            }
            let cclass = assignment[crit];
            let arrival = clocks[crit];
            let end = updates[crit].0;
            match &reps[0].events[i] {
                RankEvent::Compute { .. } => {
                    acc.add(cclass, PathPhase::Compute, updates[crit].1);
                    if journal_on {
                        journal.instant(
                            "critical.compute",
                            &crit_lanes[cclass as usize],
                            &[
                                ("class", f64::from(cclass)),
                                ("start_s", arrival),
                                ("end_s", end),
                            ],
                        );
                    }
                }
                _ => {
                    // Synchronization scope: the critical rank's neighbor
                    // list for exchanges, every rank for collectives. The
                    // blocker is the last-arriving rank in scope (ties to
                    // the first in scope order, so a tie with the critical
                    // rank itself means zero wait and no edge).
                    let (mut sync, mut blocker) = (arrival, crit);
                    if let RankEvent::Exchange { .. } = &reps[0].events[i] {
                        let slot = exchange_slot - 1;
                        for &n in &classes.partners[crit][slot] {
                            if clocks[n as usize] > sync {
                                sync = clocks[n as usize];
                                blocker = n as usize;
                            }
                        }
                    } else {
                        for (r, &a) in clocks.iter().enumerate() {
                            if a > sync {
                                sync = a;
                                blocker = r;
                            }
                        }
                    }
                    let wait = sync - arrival;
                    let bclass = assignment[blocker];
                    acc.add_wait(cclass, bclass, wait);
                    acc.add(cclass, PathPhase::Exchange, end - sync);
                    if journal_on {
                        if wait > 0.0 {
                            journal.instant(
                                "critical.wait",
                                &crit_lanes[cclass as usize],
                                &[
                                    ("class", f64::from(cclass)),
                                    ("blocker_class", f64::from(bclass)),
                                    ("start_s", arrival),
                                    ("end_s", sync),
                                ],
                            );
                        }
                        journal.instant(
                            "critical.exchange",
                            &crit_lanes[cclass as usize],
                            &[
                                ("class", f64::from(cclass)),
                                ("start_s", sync),
                                ("end_s", end),
                            ],
                        );
                    }
                }
            }
        }

        // Commit phase: write clocks and breakdowns in rank order, tracing
        // if asked.
        for (r, &(end, dcompute, dcomm)) in updates.iter().enumerate() {
            if let Some(rec) = record.as_deref_mut() {
                rec(TimelineEntry {
                    rank: r as u32,
                    event_index: i,
                    kind: kind_name.to_string(),
                    start_s: clocks[r],
                    end_s: end,
                });
            }
            if journal_on && class_first[assignment[r] as usize] == r as u32 {
                journal.instant(
                    kind_name,
                    &class_lanes[assignment[r] as usize],
                    &[("start_s", clocks[r]), ("end_s", end)],
                );
            }
            clocks[r] = end;
            times[r].compute_s += dcompute;
            times[r].comm_s += dcomm;
        }
    }

    for (r, t) in times.iter_mut().enumerate() {
        t.finish_s = clocks[r];
    }
    if journal_on {
        // Per-class compute vs. communication split, sampled at the
        // class's first member rank (exchange costs may vary within a
        // class by partner count, so this is the representative's view).
        let mut members = vec![0u64; reps.len()];
        for &c in assignment {
            members[c as usize] += 1;
        }
        for (c, &r) in class_first.iter().enumerate() {
            if r == u32::MAX {
                continue;
            }
            let t = &times[r as usize];
            journal.instant(
                "spmd.class_total",
                "spmd",
                &[
                    ("class", c as f64),
                    ("ranks", members[c] as f64),
                    ("nranks", nranks as f64),
                    ("compute_s", t.compute_s),
                    ("comm_s", t.comm_s),
                    ("finish_s", t.finish_s),
                ],
            );
        }
        journal.end("spmd.sim", "spmd", &[]);
    }
    Ok(SimReport {
        total_seconds: clocks.iter().cloned().fold(0.0, f64::max),
        ranks: times,
    })
}

/// The pre-dedup per-rank walk (already shape-validated).
fn naive_inner(
    programs: &[RankProgram],
    net: &NetworkModel,
    compute: &mut dyn ComputeModel,
) -> SimReport {
    let nranks = programs.len();
    let nevents = programs[0].events.len();
    let mut clocks = vec![0.0f64; nranks];
    let mut times = vec![RankTimes::default(); nranks];

    for i in 0..nevents {
        // Collectives need the pre-event arrival times of all ranks.
        let arrivals = clocks.clone();
        let is_collective = matches!(
            programs[0].events[i],
            RankEvent::Allreduce { .. }
                | RankEvent::Broadcast { .. }
                | RankEvent::Alltoall { .. }
                | RankEvent::Barrier { .. }
        );
        let global_arrival = if is_collective {
            arrivals.iter().cloned().fold(f64::MIN, f64::max)
        } else {
            0.0
        };

        for (r, prog) in programs.iter().enumerate() {
            match &prog.events[i] {
                RankEvent::Compute { block, invocations } => {
                    let dt = compute.seconds(r as u32, &prog.program, *block, *invocations);
                    debug_assert!(dt.is_finite() && dt >= 0.0);
                    clocks[r] += dt;
                    times[r].compute_s += dt;
                }
                RankEvent::Exchange {
                    neighbors,
                    bytes_per_neighbor,
                    repeats,
                } => {
                    let mut sync = arrivals[r];
                    for &n in neighbors {
                        sync = sync.max(arrivals[n as usize]);
                    }
                    let cost =
                        net.exchange(neighbors.len() as u32, *bytes_per_neighbor) * *repeats as f64;
                    clocks[r] = sync + cost;
                    times[r].comm_s += clocks[r] - arrivals[r];
                }
                RankEvent::Allreduce { bytes, repeats } => {
                    let cost = net.allreduce(nranks as u32, *bytes) * *repeats as f64;
                    clocks[r] = global_arrival + cost;
                    times[r].comm_s += clocks[r] - arrivals[r];
                }
                RankEvent::Broadcast { bytes, repeats } => {
                    let cost = net.broadcast(nranks as u32, *bytes) * *repeats as f64;
                    clocks[r] = global_arrival + cost;
                    times[r].comm_s += clocks[r] - arrivals[r];
                }
                RankEvent::Alltoall {
                    bytes_per_pair,
                    repeats,
                } => {
                    let cost = net.alltoall(nranks as u32, *bytes_per_pair) * *repeats as f64;
                    clocks[r] = global_arrival + cost;
                    times[r].comm_s += clocks[r] - arrivals[r];
                }
                RankEvent::Barrier { repeats } => {
                    let cost = net.barrier(nranks as u32) * *repeats as f64;
                    clocks[r] = global_arrival + cost;
                    times[r].comm_s += clocks[r] - arrivals[r];
                }
            }
        }
    }

    for (r, t) in times.iter_mut().enumerate() {
        t.finish_s = clocks[r];
    }
    SimReport {
        total_seconds: clocks.iter().cloned().fold(0.0, f64::max),
        ranks: times,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::NominalComputeModel;
    use std::collections::BTreeMap;
    use xtrace_ir::{AddressPattern, BasicBlock, BlockId, Instruction, MemOp, Program, SourceLoc};

    /// Test app: rank r computes (r+1) heavy iterations, then allreduces.
    struct Skewed {
        iters_scale: u64,
    }

    impl SpmdApp for Skewed {
        fn name(&self) -> &str {
            "skewed"
        }
        fn rank_program(&self, rank: u32, _nranks: u32) -> RankProgram {
            let mut b = Program::builder();
            let r = b.region("a", 4096, 8);
            let blk = b.block(BasicBlock::new(
                BlockId(0),
                "work",
                SourceLoc::new("t.c", 1, "f"),
                self.iters_scale * u64::from(rank + 1),
                vec![Instruction::mem(MemOp::Load, r, 8, AddressPattern::unit(8))],
            ));
            RankProgram {
                program: b.build().unwrap(),
                events: vec![
                    RankEvent::Compute {
                        block: blk,
                        invocations: 1,
                    },
                    RankEvent::Allreduce {
                        bytes: 8,
                        repeats: 1,
                    },
                ],
            }
        }
    }

    fn net() -> NetworkModel {
        NetworkModel::new(1e-6, 1e9)
    }

    fn try_sim(app: &dyn SpmdApp, nranks: u32) -> Result<SimReport, SimError> {
        let classes = RankClasses::try_from_app(app, nranks)?;
        simulate(
            &classes,
            &net(),
            &mut NominalComputeModel::default(),
            &ObsContext::disabled(),
        )
    }

    fn sim(app: &dyn SpmdApp, nranks: u32) -> SimReport {
        try_sim(app, nranks).expect("simulate")
    }

    fn programs_of(app: &dyn SpmdApp, nranks: u32) -> Vec<RankProgram> {
        (0..nranks).map(|r| app.rank_program(r, nranks)).collect()
    }

    fn sim_programs(programs: &[RankProgram], compute: &mut dyn ComputeModel) -> SimReport {
        let classes = RankClasses::try_from_programs(programs).expect("classes build");
        simulate(&classes, &net(), compute, &ObsContext::disabled()).expect("simulate")
    }

    fn naive(programs: &[RankProgram], compute: &mut dyn ComputeModel) -> SimReport {
        simulate_naive(programs, &net(), compute).expect("naive walk")
    }

    /// Runs `f` inside a `threads`-wide pool under a fresh recorder,
    /// returning its result and the recorded counters.
    fn in_pool<T>(threads: usize, f: impl FnOnce(&ObsContext) -> T) -> (T, BTreeMap<String, u64>) {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        let obs = ObsContext::with_recorder(xtrace_obs::Recorder::new());
        let out = pool.install(|| f(&obs));
        (out, obs.snapshot().expect("recording context").counters)
    }

    #[test]
    fn slowest_rank_sets_total() {
        let report = sim(&Skewed { iters_scale: 1000 }, 4);
        let slowest = report.ranks[3].compute_s;
        let coll = net().allreduce(4, 8);
        assert!((report.total_seconds - (slowest + coll)).abs() < 1e-12);
        assert_eq!(report.most_computational_rank(), 3);
    }

    #[test]
    fn fast_ranks_accumulate_wait_time() {
        let report = sim(&Skewed { iters_scale: 1000 }, 4);
        // Rank 0 computes 1/4 of rank 3's time and waits the rest.
        assert!(report.ranks[0].comm_s > report.ranks[3].comm_s);
        // Everyone finishes the allreduce at the same instant.
        for r in &report.ranks {
            assert!((r.finish_s - report.total_seconds).abs() < 1e-12);
        }
    }

    #[test]
    fn imbalance_reflects_skew() {
        let report = sim(&Skewed { iters_scale: 100 }, 4);
        // compute times 1:2:3:4, mean 2.5, max 4 -> 1.6.
        assert!((report.compute_imbalance() - 1.6).abs() < 1e-9);
    }

    /// Ring app: each rank exchanges with (r±1) mod P.
    struct Ring;
    impl SpmdApp for Ring {
        fn name(&self) -> &str {
            "ring"
        }
        fn rank_program(&self, rank: u32, nranks: u32) -> RankProgram {
            let mut b = Program::builder();
            let r = b.region("a", 4096, 8);
            let blk = b.block(BasicBlock::new(
                BlockId(0),
                "w",
                SourceLoc::new("t.c", 2, "g"),
                100,
                vec![Instruction::mem(MemOp::Load, r, 8, AddressPattern::unit(8))],
            ));
            let left = (rank + nranks - 1) % nranks;
            let right = (rank + 1) % nranks;
            RankProgram {
                program: b.build().unwrap(),
                events: vec![
                    RankEvent::Compute {
                        block: blk,
                        invocations: 1,
                    },
                    RankEvent::Exchange {
                        neighbors: vec![left, right],
                        bytes_per_neighbor: 4096,
                        repeats: 3,
                    },
                ],
            }
        }
    }

    #[test]
    fn balanced_ring_has_equal_finish_times() {
        let report = sim(&Ring, 8);
        let f0 = report.ranks[0].finish_s;
        for r in &report.ranks {
            assert!((r.finish_s - f0).abs() < 1e-15);
        }
        let expected_comm = net().exchange(2, 4096) * 3.0;
        assert!((report.ranks[0].comm_s - expected_comm).abs() < 1e-12);
    }

    #[test]
    fn single_rank_runs_without_comm_cost() {
        let report = sim(&Skewed { iters_scale: 10 }, 1);
        assert!(
            report.ranks[0].comm_s.abs() < 1e-15,
            "allreduce of 1 is free"
        );
        assert!(report.total_seconds > 0.0);
    }

    /// SPMD violation: ranks disagree on the event kind at index 0.
    struct Misaligned;
    impl SpmdApp for Misaligned {
        fn name(&self) -> &str {
            "bad"
        }
        fn rank_program(&self, rank: u32, _nranks: u32) -> RankProgram {
            let mut b = Program::builder();
            b.region("a", 64, 8);
            let events = if rank == 0 {
                vec![RankEvent::Barrier { repeats: 1 }]
            } else {
                vec![RankEvent::Allreduce {
                    bytes: 8,
                    repeats: 1,
                }]
            };
            RankProgram {
                program: b.build().unwrap(),
                events,
            }
        }
    }

    #[test]
    fn misaligned_ranks_report_typed_errors() {
        let err = try_sim(&Misaligned, 2).expect_err("misaligned ranks must fail");
        assert!(matches!(err, SimError::EventKindMismatch { rank: 1, .. }));
        assert!(err.to_string().contains("SPMD violation"));
        let err = try_sim(&Ring, 0).expect_err("zero ranks must fail");
        assert_eq!(err, SimError::NoRanks);
        assert!(err.to_string().contains("at least one rank"));
    }

    #[test]
    fn timeline_covers_every_rank_event_in_order() {
        let app = Skewed { iters_scale: 100 };
        let programs = programs_of(&app, 4);
        let classes = RankClasses::try_from_programs(&programs).expect("classes build");
        let (report, timeline) =
            simulate_timeline(&classes, &net(), &mut NominalComputeModel::default())
                .expect("simulate");
        // 4 ranks x 2 events.
        assert_eq!(timeline.len(), 8);
        for e in &timeline {
            assert!(e.end_s >= e.start_s, "{e:?}");
            assert!(e.end_s <= report.total_seconds + 1e-12);
        }
        // Per rank: intervals are contiguous and ordered.
        for r in 0..4u32 {
            let mine: Vec<_> = timeline.iter().filter(|e| e.rank == r).collect();
            assert_eq!(mine[0].kind, "compute");
            assert_eq!(mine[1].kind, "allreduce");
            assert!((mine[1].start_s - mine[0].end_s).abs() < 1e-12);
        }
        // The traced report matches the untraced one.
        let plain = sim_programs(&programs, &mut NominalComputeModel::default());
        assert_eq!(plain, report);
    }

    #[test]
    fn timeline_serializes() {
        let classes = RankClasses::try_from_app(&Ring, 2).expect("classes build");
        let (_, timeline) =
            simulate_timeline(&classes, &net(), &mut NominalComputeModel::default())
                .expect("simulate");
        let json = serde_json::to_string(&timeline).unwrap();
        let back: Vec<TimelineEntry> = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), timeline.len());
    }

    #[test]
    fn ring_collapses_to_one_class() {
        // Identical programs, differing only in Exchange neighbors.
        let classes = RankClasses::try_from_programs(&programs_of(&Ring, 16)).unwrap();
        assert_eq!(classes.num_classes(), 1);
        assert_eq!(classes.nranks(), 16);
    }

    #[test]
    fn skewed_ranks_stay_distinct_classes() {
        let app = Skewed { iters_scale: 10 };
        let classes = RankClasses::try_from_programs(&programs_of(&app, 4)).unwrap();
        assert_eq!(classes.num_classes(), 4, "distinct trip counts");
    }

    #[test]
    fn dedup_report_is_bit_identical_to_naive() {
        for nranks in [1u32, 2, 5, 8, 16] {
            let programs = programs_of(&Ring, nranks);
            let dedup = sim_programs(&programs, &mut NominalComputeModel::default());
            let reference = naive(&programs, &mut NominalComputeModel::default());
            assert_eq!(dedup, reference, "nranks={nranks}");
        }
        let programs = programs_of(&Skewed { iters_scale: 100 }, 8);
        let dedup = sim_programs(&programs, &mut NominalComputeModel::default());
        assert_eq!(dedup, naive(&programs, &mut NominalComputeModel::default()));
    }

    /// App with a rank-class override: one master, workers all alike.
    struct ClassedRing;
    impl SpmdApp for ClassedRing {
        fn name(&self) -> &str {
            "classed-ring"
        }
        fn rank_program(&self, rank: u32, nranks: u32) -> RankProgram {
            let mut p = Ring.rank_program(rank, nranks);
            if rank == 0 {
                // The master computes ten times the work.
                if let RankEvent::Compute { invocations, .. } = &mut p.events[0] {
                    *invocations = 10;
                }
            }
            p
        }
        fn rank_class(&self, rank: u32, _nranks: u32) -> Option<u64> {
            Some(u64::from(rank == 0))
        }
        fn exchange_partners(&self, nranks: u32) -> Vec<Vec<Vec<u32>>> {
            (0..nranks)
                .map(|rank| vec![vec![(rank + nranks - 1) % nranks, (rank + 1) % nranks]])
                .collect()
        }
    }

    /// [`ClassedRing`] counting its partner calls, optionally dropping the
    /// last rank's entry.
    struct CountingRing {
        calls: std::sync::atomic::AtomicUsize,
        short: bool,
    }
    impl CountingRing {
        fn new(short: bool) -> Self {
            Self {
                calls: std::sync::atomic::AtomicUsize::new(0),
                short,
            }
        }
        fn calls(&self) -> usize {
            self.calls.load(std::sync::atomic::Ordering::SeqCst)
        }
    }
    impl SpmdApp for CountingRing {
        fn name(&self) -> &str {
            "counting-ring"
        }
        fn rank_program(&self, rank: u32, nranks: u32) -> RankProgram {
            ClassedRing.rank_program(rank, nranks)
        }
        fn rank_class(&self, rank: u32, nranks: u32) -> Option<u64> {
            ClassedRing.rank_class(rank, nranks)
        }
        fn exchange_partners(&self, nranks: u32) -> Vec<Vec<Vec<u32>>> {
            self.calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            let mut lists = ClassedRing.exchange_partners(nranks);
            if self.short {
                lists.pop();
            }
            lists
        }
    }

    #[test]
    fn partners_are_asked_for_once_per_job() {
        for nranks in [1u32, 12, 300] {
            let app = CountingRing::new(false);
            let classes = RankClasses::try_from_app(&app, nranks).expect("classes build");
            assert_eq!(app.calls(), 1, "nranks={nranks}");
            assert_eq!(classes.nranks(), nranks);
        }
    }

    #[test]
    fn partner_lists_for_the_wrong_rank_count_are_a_contract_error() {
        let app = CountingRing::new(true);
        let err = RankClasses::try_from_app(&app, 12).expect_err("11 entries for 12 ranks");
        assert_eq!(app.calls(), 1);
        assert!(
            matches!(err, SimError::ClassContract { rank: 11, .. }),
            "{err}"
        );
        assert!(
            err.to_string().contains("11 rank entries for 12 ranks"),
            "{err}"
        );
    }

    #[test]
    fn app_class_keys_match_materialized_grouping() {
        let fast = RankClasses::try_from_app(&ClassedRing, 12).unwrap();
        assert_eq!(fast.num_classes(), 2);
        let programs = programs_of(&ClassedRing, 12);
        let slow = RankClasses::try_from_programs(&programs).unwrap();
        assert_eq!(fast.assignment(), slow.assignment());
        let a = sim(&ClassedRing, 12);
        let b = naive(&programs, &mut NominalComputeModel::default());
        assert_eq!(a, b);
    }

    /// A rank-dependent model must opt out of dedup and still match naive.
    #[test]
    fn keyless_models_are_charged_per_rank() {
        let programs = programs_of(&Ring, 6);
        let model = |rank: u32, _: &Program, _: BlockId, inv: u64| {
            (f64::from(rank) + 1.0) * 1e-6 * inv as f64
        };
        let dedup = sim_programs(&programs, &mut { model });
        assert_eq!(dedup, naive(&programs, &mut { model }));
        // Rank-dependent charges really did land per rank.
        assert!(dedup.ranks[5].compute_s > dedup.ranks[0].compute_s);
    }

    /// A 4-thread and a 1-thread pool produce identical reports.
    #[test]
    fn stepping_is_bit_identical_across_pool_sizes() {
        let app = Skewed { iters_scale: 100 };
        let classes = RankClasses::try_from_app(&app, 256).expect("classes build");
        let run = |obs: &ObsContext| {
            simulate(&classes, &net(), &mut NominalComputeModel::default(), obs).expect("simulate")
        };
        let (wide, _) = in_pool(4, run);
        let (serial, serial_counters) = in_pool(1, run);
        assert_eq!(serial_counters.get("sched.spmd.serial_sims"), Some(&1));
        assert_eq!(wide, serial);
    }

    /// Hub-and-spoke: rank 0 exchanges with every worker (and pays the
    /// wide-exchange cost), workers compute twice the master's work and
    /// exchange only with rank 0 — so the master is critical at the
    /// exchange *after* waiting on the workers.
    struct Hub;
    impl SpmdApp for Hub {
        fn name(&self) -> &str {
            "hub"
        }
        fn rank_program(&self, rank: u32, nranks: u32) -> RankProgram {
            let mut b = Program::builder();
            let r = b.region("a", 4096, 8);
            let iters = if rank == 0 { 100 } else { 200 };
            let blk = b.block(BasicBlock::new(
                BlockId(0),
                "w",
                SourceLoc::new("t.c", 3, "h"),
                iters,
                vec![Instruction::mem(MemOp::Load, r, 8, AddressPattern::unit(8))],
            ));
            let neighbors = if rank == 0 {
                (1..nranks).collect()
            } else {
                vec![0]
            };
            RankProgram {
                program: b.build().unwrap(),
                events: vec![
                    RankEvent::Compute {
                        block: blk,
                        invocations: 1,
                    },
                    RankEvent::Exchange {
                        neighbors,
                        bytes_per_neighbor: 1 << 20,
                        repeats: 1,
                    },
                ],
            }
        }
    }

    fn attr(app: &dyn SpmdApp, nranks: u32, obs: &ObsContext) -> (SimReport, CriticalPathReport) {
        let classes = RankClasses::try_from_app(app, nranks).expect("classes build");
        simulate_attributed(&classes, &net(), &mut NominalComputeModel::default(), obs)
            .expect("simulate")
    }

    #[test]
    fn attribution_decomposes_the_skewed_path() {
        let app = Skewed { iters_scale: 1000 };
        let (report, critical) = attr(&app, 4, &ObsContext::disabled());
        assert_eq!(critical.nranks, 4);
        assert_eq!(critical.classes, 4);
        assert_eq!(critical.share_sum_bp(), 10_000);
        // Rank 3 computes the most and arrives at the allreduce last, so
        // the path is its compute plus the collective wire time — no rank
        // on the path ever waits.
        assert!(critical.edges.is_empty(), "{:?}", critical.edges);
        let keys: Vec<(u32, PathPhase)> = critical
            .segments
            .iter()
            .map(|s| (s.class, s.phase))
            .collect();
        assert_eq!(
            keys,
            vec![(3, PathPhase::Compute), (3, PathPhase::Exchange)]
        );
        assert_eq!(critical.bottleneck().expect("non-empty path").class, 3);
        // Globally synchronized app: the path telescopes exactly.
        assert!((critical.path_seconds - report.total_seconds).abs() < 1e-12);
    }

    #[test]
    fn attribution_records_blocking_edges_on_path_waits() {
        let (report, critical) = attr(&Hub, 8, &ObsContext::disabled());
        assert_eq!(critical.classes, 2);
        assert_eq!(critical.share_sum_bp(), 10_000);
        // The master (class 0) waits for the slower workers (class 1),
        // then pays the wide-exchange wire cost — all three phases of its
        // superstep sit on the path, plus the worker compute before it.
        let e = critical
            .edges
            .iter()
            .find(|e| e.waiter_class == 0)
            .expect("master must block on workers");
        assert_eq!(e.blocker_class, 1);
        assert!(e.seconds > 0.0);
        let wait = critical
            .segments
            .iter()
            .find(|s| (s.class, s.phase) == (0, PathPhase::Wait))
            .expect("wait segment on path");
        assert!((wait.seconds - e.seconds).abs() < 1e-15);
        assert!(critical.path_seconds >= report.total_seconds - 1e-12);
    }

    #[test]
    fn attribution_does_not_perturb_the_report() {
        let app = Skewed { iters_scale: 500 };
        let plain = sim(&app, 8);
        let (attributed, _) = attr(&app, 8, &ObsContext::disabled());
        assert_eq!(plain, attributed);
    }

    #[test]
    fn attribution_is_identical_across_pool_sizes() {
        let app = Skewed { iters_scale: 100 };
        let ((wide_report, wide_critical), _) = in_pool(4, |obs| attr(&app, 256, obs));
        let ((serial_report, serial_critical), serial_counters) =
            in_pool(1, |obs| attr(&app, 256, obs));
        assert_eq!(serial_counters.get("sched.spmd.serial_sims"), Some(&1));
        assert_eq!(wide_report, serial_report);
        assert_eq!(wide_critical, serial_critical);
    }

    #[test]
    fn bad_partner_list_is_rejected() {
        let mut classes = RankClasses::try_from_programs(&programs_of(&Ring, 4)).unwrap();
        classes.partners[2][0] = vec![9];
        let err = simulate(
            &classes,
            &net(),
            &mut NominalComputeModel::default(),
            &ObsContext::disabled(),
        )
        .expect_err("out-of-range neighbor");
        assert!(matches!(
            err,
            SimError::BadNeighbor {
                rank: 2,
                neighbor: 9
            }
        ));
    }
}
