//! The three workloads: their seeded inputs and their set-up.
//!
//! * `kernel-flow` — one caller, one exact max-flow or min st-cut at a
//!   time through `PlanarSolver::run` on 16 n=100 diagonal grids with
//!   directed capacities. Nearly all time is λ-probe labeling and one
//!   core idles: where a faster kernel or intra-query parallelism shows.
//! * `serve-mix` — two closed-loop clients through a 2-worker, 2-shard
//!   `ServiceEngine` over 64 small (n=30) tenants and all six query
//!   kinds, pool prewarmed, no mutations: the serving stack's share of
//!   the job (service, scheduler, pool) is large and both cores are busy.
//! * `respec-sweep` — the same engine and clients over 32 n=81 tenants,
//!   one of which gets two edge weights spiked every tick, under
//!   weight-tier queries only (global min cut, girth): writes beside
//!   reads, pool misses, respec reuse and evictions.
//!
//! The engine workloads spread their traffic over many tenants because
//! a tenant's cost depends on its random graph: with a handful of
//! tenants, which graphs a seed draws moves throughput by 15% or more.

use duality_core::{InstanceKey, PlanarInstance, PlanarSolver, Query};
use duality_planar::gen;
use duality_service::{AdmissionPolicy, ServiceEngine, SpanSink};
use duality_workload::{
    Arrival, FamilySpec, MutationRule, QueryMix, Scenario, TenantSpec, TraceJob,
};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Serial exact flow and cut queries: the labeling kernel.
    KernelFlow,
    /// Small mixed queries through the serving engine.
    ServeMix,
    /// Weight respecs beside weight-tier queries through the engine.
    RespecSweep,
}

impl Workload {
    /// Every workload, in presentation order.
    pub const ALL: [Workload; 3] = [
        Workload::KernelFlow,
        Workload::ServeMix,
        Workload::RespecSweep,
    ];

    /// The workload called `name` on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::KernelFlow => "kernel-flow",
            Workload::ServeMix => "serve-mix",
            Workload::RespecSweep => "respec-sweep",
        }
    }
}

/// Input sizes. [`Scale::FULL`] is what the benchmark runs; the tests
/// run [`Scale::SMOKE`], which has the same shape at toy sizes.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// `kernel-flow`: grid side (n = side²) and instance count.
    pub kernel_side: usize,
    /// `kernel-flow`: distinct instances.
    pub kernel_instances: usize,
    /// `serve-mix`: tenant grid `(w, h)`.
    pub serve_grid: (usize, usize),
    /// `respec-sweep`: tenant grid side.
    pub respec_side: usize,
    /// Jobs per list, per workload in [`Workload::ALL`] order. A timed
    /// window always completes at least one full pass over the list.
    pub jobs: [usize; 3],
    /// Grid sides of the traced run's labeling ladder.
    pub ladder: [usize; 3],
}

impl Scale {
    /// The benchmark's sizes.
    pub const FULL: Scale = Scale {
        kernel_side: 10,
        kernel_instances: 16,
        serve_grid: (6, 5),
        respec_side: 9,
        jobs: [128, 4000, 1000],
        ladder: [8, 12, 16],
    };

    #[cfg(test)]
    /// Toy sizes for the tests: the smallest lists that still put ten
    /// samples beyond p90.
    pub const SMOKE: Scale = Scale {
        kernel_side: 5,
        kernel_instances: 4,
        serve_grid: (4, 3),
        respec_side: 4,
        jobs: [100, 100, 100],
        ladder: [3, 4, 5],
    };

    /// The list length of `workload`.
    pub fn jobs(&self, workload: Workload) -> usize {
        self.jobs[Workload::ALL
            .iter()
            .position(|&w| w == workload)
            .expect("ALL lists every workload")]
    }
}

/// Tenant count of `serve-mix`.
pub const SERVE_TENANTS: usize = 64;
/// Tenant count of `respec-sweep`.
pub const RESPEC_TENANTS: usize = 32;
/// Engine worker threads (serve-mix, respec-sweep).
pub const WORKERS: usize = 2;
/// Engine pool shards.
pub const SHARDS: usize = 2;
/// Per-shard pool capacity: at least the tenant count.
pub const POOL_CAPACITY: usize = 64;
/// Engine queue capacity (admission blocks beyond it).
pub const QUEUE_CAPACITY: usize = 64;
/// Closed-loop clients, each with one job outstanding.
pub const CLIENTS: usize = 2;

/// SplitMix64: derives independent sub-seeds from the workload seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `kernel-flow` inputs: warm solvers and `(solver, query)` jobs.
pub struct KernelFlow {
    /// One warm solver per instance.
    pub solvers: Vec<PlanarSolver>,
    /// The job list: solver index and query.
    pub jobs: Vec<(usize, Query)>,
}

/// Builds the `kernel-flow` instances and jobs from `seed`, warming each
/// solver's labeling engine as a serving user would have it warm.
pub fn kernel_flow(seed: u64, scale: &Scale) -> KernelFlow {
    let side = scale.kernel_side;
    let solvers: Vec<PlanarSolver> = (0..scale.kernel_instances)
        .map(|i| {
            let g = gen::diag_grid(side, side, mix(seed, 2 * i as u64)).expect("grids embed");
            let caps =
                gen::random_directed_capacities(g.num_edges(), 1, 9, mix(seed, 2 * i as u64 + 1));
            let solver = PlanarSolver::builder(&g)
                .capacities(caps)
                .build()
                .expect("generated capacities are valid");
            solver.labeling_engine();
            solver
        })
        .collect();
    let n = (side * side) as u64;
    let k = solvers.len();
    let jobs = (0..scale.jobs(Workload::KernelFlow))
        .map(|j| {
            let stream = 1_000 + 2 * j as u64;
            let s = (mix(seed, stream) % n) as usize;
            let t = ((s as u64 + 1 + mix(seed, stream + 1) % (n - 1)) % n) as usize;
            // Kinds alternate per pass over the instances, so every
            // instance sees both kinds.
            let query = if (j / k).is_multiple_of(2) {
                Query::MaxFlow { s, t }
            } else {
                Query::MinStCut { s, t }
            };
            (j % k, query)
        })
        .collect();
    KernelFlow { solvers, jobs }
}

/// The seeded scenario behind `serve-mix` or `respec-sweep`.
pub fn scenario(workload: Workload, seed: u64, scale: &Scale) -> Scenario {
    let jobs = scale.jobs(workload) as u64;
    let (tenants, mix, mutations) = match workload {
        Workload::ServeMix => {
            let (w, h) = scale.serve_grid;
            (
                vec![TenantSpec::of(FamilySpec::DiagGrid { w, h }); SERVE_TENANTS],
                QueryMix::uniform(),
                vec![],
            )
        }
        Workload::RespecSweep => {
            let s = scale.respec_side;
            (
                vec![TenantSpec::of(FamilySpec::DiagGrid { w: s, h: s }); RESPEC_TENANTS],
                QueryMix {
                    max_flow: 0,
                    min_st_cut: 0,
                    approx_max_flow: 0,
                    approx_min_st_cut: 0,
                    global_min_cut: 1,
                    girth: 1,
                },
                vec![MutationRule::RandomWeightSpikes {
                    every: 1,
                    count: 2,
                    factor: 5,
                }],
            )
        }
        Workload::KernelFlow => panic!("kernel-flow has no scenario"),
    };
    Scenario {
        name: workload.name().into(),
        seed,
        tenants,
        ticks: jobs / 2,
        arrival: Arrival::ClosedLoop {
            queries_per_tick: 2,
            max_in_flight: CLIENTS,
        },
        mix,
        mutations,
        tenant_skew: 1,
        deadline_ticks: None,
        tenant_seed_stride: 3,
    }
}

/// Records and materializes a scenario's job list.
pub fn engine_jobs(scenario: &Scenario) -> Vec<TraceJob> {
    scenario
        .record()
        .expect("the scenario's tenants build")
        .materialize()
        .expect("a fresh recording replays")
}

/// A started engine of the benchmark's shape.
pub fn engine(workers: usize, shards: usize, sink: Option<Arc<dyn SpanSink>>) -> ServiceEngine {
    let mut builder = ServiceEngine::builder()
        .workers(workers)
        .shards(shards)
        .queue_capacity(QUEUE_CAPACITY)
        .pool_capacity(POOL_CAPACITY)
        .admission(AdmissionPolicy::Block);
    if let Some(sink) = sink {
        builder = builder.span_sink(sink);
    }
    builder
        .build()
        .expect("the default leaf threshold is valid")
}

/// Admits each tenant's first spec into the engine's pool and builds its
/// whole substrate (labeling engine, dual graph, weight-tier labels).
pub fn prewarm(engine: &ServiceEngine, jobs: &[TraceJob]) {
    let mut seen = Vec::new();
    for job in jobs {
        if seen.contains(&job.tenant) {
            continue;
        }
        seen.push(job.tenant);
        let solver = engine.solver(&job.instance);
        solver.labeling_engine();
        solver.dual_graph();
        solver
            .run(Query::GlobalMinCut)
            .expect("tenants have at least two vertices");
    }
}

/// Digest of a job list: instance identity and query of every job.
pub fn job_list_fingerprint<'a>(
    jobs: impl IntoIterator<Item = (&'a PlanarInstance, Query)>,
) -> u64 {
    let mut h = DefaultHasher::new();
    for (instance, query) in jobs {
        InstanceKey::of(instance).to_string().hash(&mut h);
        query.hash(&mut h);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`job_list_fingerprint`] of the list `workload` runs for `seed`.
    fn fingerprint_of(workload: Workload, seed: u64, scale: &Scale) -> u64 {
        match workload {
            Workload::KernelFlow => {
                let set = kernel_flow(seed, scale);
                job_list_fingerprint(
                    set.jobs
                        .iter()
                        .map(|&(i, q)| (set.solvers[i].instance().as_ref(), q)),
                )
            }
            _ => {
                let jobs = engine_jobs(&scenario(workload, seed, scale));
                job_list_fingerprint(jobs.iter().map(|j| (j.instance.as_ref(), j.query)))
            }
        }
    }

    #[test]
    fn job_lists_depend_only_on_the_seed() {
        for workload in Workload::ALL {
            let a = fingerprint_of(workload, 11, &Scale::SMOKE);
            assert_eq!(
                a,
                fingerprint_of(workload, 11, &Scale::SMOKE),
                "{workload:?}"
            );
            assert_ne!(
                a,
                fingerprint_of(workload, 12, &Scale::SMOKE),
                "{workload:?}"
            );
        }
    }

    #[test]
    fn kernel_jobs_cover_every_instance_with_both_kinds() {
        let set = kernel_flow(3, &Scale::SMOKE);
        for i in 0..set.solvers.len() {
            let kinds: Vec<_> = set.jobs.iter().filter(|j| j.0 == i).map(|j| j.1).collect();
            assert!(kinds.iter().any(|q| matches!(q, Query::MaxFlow { .. })));
            assert!(kinds.iter().any(|q| matches!(q, Query::MinStCut { .. })));
            assert!(kinds.iter().all(|q| match *q {
                Query::MaxFlow { s, t } | Query::MinStCut { s, t } => s != t,
                _ => false,
            }));
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("flow-kernel"), None);
    }
}
