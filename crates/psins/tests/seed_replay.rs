//! The frozen seed replay path as a test oracle.
//!
//! The code below is a faithful copy of the convolution/replay stage as
//! it stood before the scale-out work: the string-keyed per-group compute
//! model, full per-rank program materialization, and the per-rank
//! bulk-synchronous walk that re-validates shapes and clones the arrival
//! vector every event. The test pins today's replay legs to it bit for
//! bit: the interned model down the naive walk, and the class-deduplicated
//! replay on one thread and on several. **Do not "improve" the oracle** —
//! its value is that it does not change.

use std::collections::HashMap;

use xtrace_apps::{SpecfemProxy, Uh3dProxy};
use xtrace_machine::{presets, MachineProfile};
use xtrace_obs::{ObsContext, Recorder};
use xtrace_psins::{try_predict_runtime, try_replay_groups, GroupComputeModel};
use xtrace_spmd::{
    simulate, simulate_naive, ComputeModel, RankClasses, RankEvent, RankProgram, RankTimes,
    SimReport, SpmdApp,
};
use xtrace_tracer::{collect_task_trace, TaskTrace, TracerConfig};

/// The seed's [`ComputeModel`]: per group, a block-name → seconds map,
/// probed by `String` key on every charge.
struct SeedGroupComputeModel {
    /// Per group: block name → convolved seconds per loop iteration.
    per_iteration: Vec<HashMap<String, f64>>,
    /// Rank → group index.
    assignment: Vec<usize>,
}

impl SeedGroupComputeModel {
    /// Builds the model exactly as the seed did: one serial
    /// [`predict_runtime`] convolution per group, no memoization.
    fn new(groups: &[(TaskTrace, u64)], nranks: u32, machine: &MachineProfile) -> Self {
        let covered: u64 = groups.iter().map(|(_, n)| n).sum();
        assert!(
            covered >= u64::from(nranks),
            "groups cover {covered} ranks, need {nranks}"
        );
        let per_iteration = groups
            .iter()
            .map(|(trace, _)| {
                let comm = xtrace_spmd::CommProfile {
                    nranks,
                    longest_rank: trace.rank,
                    events: vec![],
                    compute_imbalance: 1.0,
                };
                let pred = try_predict_runtime(trace, &comm, machine).unwrap();
                pred.per_block
                    .iter()
                    .zip(&trace.blocks)
                    .map(|(bt, block)| {
                        let units = (block.invocations.max(1) * block.iterations.max(1)) as f64;
                        (bt.name.clone(), bt.combined_s / units)
                    })
                    .collect()
            })
            .collect();
        let mut assignment = Vec::with_capacity(nranks as usize);
        for (gi, (_, n)) in groups.iter().enumerate() {
            for _ in 0..*n {
                if assignment.len() < nranks as usize {
                    assignment.push(gi);
                }
            }
        }
        Self {
            per_iteration,
            assignment,
        }
    }
}

impl ComputeModel for SeedGroupComputeModel {
    fn seconds(
        &mut self,
        rank: u32,
        program: &xtrace_ir::Program,
        block: xtrace_ir::BlockId,
        invocations: u64,
    ) -> f64 {
        let group = self.assignment[rank as usize];
        let b = program.block(block);
        self.per_iteration[group]
            .get(&b.name)
            .copied()
            .unwrap_or(0.0)
            * b.iterations as f64
            * invocations as f64
    }
}

/// The seed's whole-application replay: materialize every rank's program,
/// then walk ranks one at a time.
fn seed_replay_groups(
    app: &dyn SpmdApp,
    nranks: u32,
    groups: &[(TaskTrace, u64)],
    machine: &MachineProfile,
) -> SimReport {
    let programs: Vec<RankProgram> = (0..nranks).map(|r| app.rank_program(r, nranks)).collect();
    let mut model = SeedGroupComputeModel::new(groups, nranks, machine);
    seed_simulate_programs(&programs, &machine.net, &mut model)
}

/// The seed's bulk-synchronous engine, verbatim: per-rank shape
/// re-validation up front, an `arrivals` clone per event, and one
/// `compute.seconds` call per rank per compute event.
fn seed_simulate_programs(
    programs: &[RankProgram],
    net: &xtrace_spmd::NetworkModel,
    compute: &mut dyn ComputeModel,
) -> SimReport {
    let nranks = programs.len();
    assert!(nranks > 0, "need at least one rank");
    let nevents = programs[0].events.len();
    for (r, p) in programs.iter().enumerate() {
        if let Err(e) = p.validate(nranks as u32) {
            panic!("rank {r}: {e}");
        }
        assert_eq!(
            p.events.len(),
            nevents,
            "rank {r} event count differs from rank 0 (SPMD violation)"
        );
        for (i, e) in p.events.iter().enumerate() {
            assert_eq!(
                e.kind_tag(),
                programs[0].events[i].kind_tag(),
                "rank {r} event {i} kind differs from rank 0 (SPMD violation)"
            );
        }
    }

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
                        assert!(
                            (n as usize) < nranks,
                            "rank {r} exchanges with out-of-range neighbor {n}"
                        );
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

/// Two-group signature layout: the master rank's trace for rank 0, a
/// worker's trace for everyone else.
fn groups_for(app: &dyn SpmdApp, nranks: u32, machine: &MachineProfile) -> Vec<(TaskTrace, u64)> {
    let (cfg, obs) = (TracerConfig::fast(), ObsContext::disabled());
    let t0 = collect_task_trace(app, 0, nranks, machine, &cfg, None, &obs);
    let t1 = collect_task_trace(app, 1, nranks, machine, &cfg, None, &obs);
    vec![(t0, 1), (t1, u64::from(nranks) - 1)]
}

/// Seed oracle, naive walk over today's interned model, and the
/// class-deduplicated replay on 1 and 4 threads: four equal reports. The
/// 4-thread leg is recorded, so the test also pins which stepping path it
/// took: chunked parallel stepping iff `parallel` (the engine steps
/// serially below 256 ranks).
fn assert_replay_legs_match_the_seed(app: &dyn SpmdApp, nranks: u32, parallel: bool) {
    let machine = presets::bluewaters_phase1();
    let groups = groups_for(app, nranks, &machine);
    let pool = |n: usize| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .expect("pool")
    };

    let seed = seed_replay_groups(app, nranks, &groups, &machine);
    let naive = pool(1).install(|| {
        let programs: Vec<RankProgram> = (0..nranks).map(|r| app.rank_program(r, nranks)).collect();
        let mut model =
            GroupComputeModel::try_new(&groups, nranks, &machine).expect("model builds");
        simulate_naive(&programs, &machine.net, &mut model).expect("naive replay runs")
    });
    let dedup_serial = pool(1)
        .install(|| try_replay_groups(app, nranks, &groups, &machine).expect("dedup replay runs"));
    let (dedup_parallel, counters) = pool(4).install(|| {
        let obs = ObsContext::with_recorder(Recorder::new());
        let mut model =
            GroupComputeModel::try_new(&groups, nranks, &machine).expect("model builds");
        let classes = RankClasses::try_from_app(app, nranks).expect("classes build");
        let report = simulate(&classes, &machine.net, &mut model, &obs).expect("replay runs");
        (report, obs.snapshot().expect("recording context").counters)
    });

    let name = app.name();
    assert!(seed.total_seconds > 0.0, "{name}: empty replay");
    assert_eq!(naive, seed, "{name}: naive walk drifted from the seed");
    assert_eq!(
        dedup_serial, seed,
        "{name}: dedup replay drifted from the seed"
    );
    assert_eq!(
        dedup_parallel, seed,
        "{name}: parallel dedup replay drifted from the seed"
    );
    let path = if parallel {
        "sched.spmd.parallel_sims"
    } else {
        "sched.spmd.serial_sims"
    };
    assert_eq!(
        counters.get(path),
        Some(&1),
        "{name} at {nranks} ranks: the 4-thread replay did not take the expected stepping path"
    );
}

#[test]
fn replay_legs_are_bit_identical_to_the_seed_oracle() {
    assert_replay_legs_match_the_seed(&SpecfemProxy::small(), 32, false);
    assert_replay_legs_match_the_seed(&Uh3dProxy::small(), 16, false);
    assert_replay_legs_match_the_seed(&SpecfemProxy::small(), 256, true);
}
