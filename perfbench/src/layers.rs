//! Per-layer probes: timed calls into each crate's public functions on
//! the workload's own instances, run outside the timed windows.

use crate::stats::{median, Metrics};
use crate::workloads::{self, mix};
use duality_bdd::{Bdd, BddOptions};
use duality_congest::{primitives, CostLedger};
use duality_core::{PlanarInstance, PlanarSolver, Query, SolverPool};
use duality_labeling::DualSsspEngine;
use duality_planar::{dual::dual_graph, gen, FaceId, PlanarGraph, Weight};
use duality_service::query_kind;
use std::sync::Arc;
use std::time::Instant;

/// The six query kinds, as `query_kind` names them.
pub const KINDS: [&str; 6] = [
    "max-flow",
    "min-st-cut",
    "approx-max-flow",
    "approx-min-st-cut",
    "global-min-cut",
    "girth",
];

/// Instances of the workload the per-instance probes visit.
const PROBE_INSTANCES: usize = 4;
/// Jobs per query kind in the per-kind timing (the workload's own, or
/// one synthesized per probe instance).
const JOBS_PER_KIND: usize = 4;

/// Seconds `f` took, with its result.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = std::hint::black_box(f());
    (out, t0.elapsed().as_secs_f64())
}

/// Least-squares slope of `ln y` against `ln x`.
fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let k = points.len() as f64;
    let (xs, ys): (Vec<f64>, Vec<f64>) = points.iter().map(|&(x, y)| (x.ln(), y.ln())).unzip();
    let (mx, my) = (xs.iter().sum::<f64>() / k, ys.iter().sum::<f64>() / k);
    let cov: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let var: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    cov / var
}

/// A max-flow job of the workload with its answer and warm run time.
struct FlowJob {
    inst: Arc<PlanarInstance>,
    s: usize,
    t: usize,
    lambda: Weight,
    run_ms: f64,
}

/// Replays max-flow's λ binary search on `job` through `engine`, timing
/// every `DualSsspEngine::labels` call: the probes, then the final
/// labeling at λ*. Returns the per-call milliseconds and the final
/// call's dual lengths (capacities after pushing λ* along the BFS s→t
/// dart path, as the pipeline does).
fn replay_search(job: &FlowJob, engine: &DualSsspEngine<'_>) -> (Vec<f64>, Vec<Weight>) {
    let g = job.inst.graph();
    let caps = job.inst.capacities();
    let path = primitives::st_dart_path(
        g,
        job.s,
        job.t,
        engine.cost_model(),
        &mut CostLedger::new(),
        "st-path",
    )
    .expect("generated graphs are connected");
    let residual = |lambda: Weight| {
        let mut lengths = caps.to_vec();
        for d in &path {
            lengths[d.index()] -= lambda;
            lengths[d.rev().index()] += lambda;
        }
        lengths
    };
    let mut ms = Vec::new();
    let mut feasible = |lambda: Weight| {
        let lengths = residual(lambda);
        let (ok, s) = timed(|| engine.labels(&lengths, &mut CostLedger::new()).is_ok());
        ms.push(s * 1e3);
        ok
    };
    let (mut lo, mut hi): (Weight, Weight) =
        (0, g.out_darts(job.s).iter().map(|d| caps[d.index()]).sum());
    while lo < hi {
        let mid = lo + (hi - lo + 1) / 2;
        if feasible(mid) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    assert_eq!(
        lo, job.lambda,
        "the replayed search finds the pipeline's λ*"
    );
    assert!(feasible(lo), "λ* is feasible");
    (ms, residual(lo))
}

/// `labeling.*`, `bdd.*`, `planar.*` and `core.kernel_share`: labeling
/// at the lengths of the workload's own max-flow jobs, decomposition and
/// dual on its instances, and the labeling ladder.
fn kernel_layers(
    instances: &[Arc<PlanarInstance>],
    flows: &[FlowJob],
    grid: (usize, usize),
    ladder: [usize; 3],
    seed: u64,
    m: &mut Metrics,
) {
    let (mut engine_new, mut bdd_build, mut dual) = (vec![], vec![], vec![]);
    let mut shape = (0, 0);
    for inst in instances {
        let g = inst.graph();
        let cm = PlanarSolver::from_instance(Arc::clone(inst)).cost_model();
        for _ in 0..2 {
            let (bdd, s) =
                timed(|| Bdd::build(g, &BddOptions::default(), &cm, &mut CostLedger::new()));
            bdd_build.push(s * 1e3);
            shape = (bdd.bags.len(), bdd.depth());
            dual.push(timed(|| dual_graph(g).expect("planar graphs have duals")).1 * 1e3);
            engine_new
                .push(timed(|| DualSsspEngine::new(g, &cm, None, &mut CostLedger::new())).1 * 1e3);
        }
    }
    let (mut labels, mut decode, mut share) = (vec![], vec![], vec![]);
    let mut words = 0;
    for (i, job) in flows.iter().enumerate() {
        let solver = PlanarSolver::from_instance(Arc::clone(&job.inst));
        let engine = solver.labeling_engine();
        let (calls, lengths) = replay_search(job, engine);
        share.push(calls.iter().sum::<f64>() / job.run_ms);
        labels.extend(calls);
        let l = engine
            .labels(&lengths, &mut CostLedger::new())
            .expect("λ* is feasible");
        for _ in 0..3 {
            decode.push(timed(|| l.distances_from(FaceId(0), &mut CostLedger::new())).1 * 1e6);
        }
        if i == 0 {
            words = job
                .inst
                .graph()
                .faces()
                .map(|f| l.label_words(f))
                .sum::<u64>();
        }
    }
    m.put("labeling.labels_ms", median(&labels), "ms");
    m.put("core.kernel_share", median(&share), "ratio");
    let mut points = Vec::new();
    // The ladder labels directed grids at their capacities; its metric
    // names carry the ladder's n.
    for side in ladder {
        let g = gen::diag_grid(side, side, mix(seed, 7_000 + side as u64)).expect("grids embed");
        let caps =
            gen::random_directed_capacities(g.num_edges(), 1, 9, mix(seed, 7_100 + side as u64));
        let solver = PlanarSolver::builder(&g)
            .capacities(caps)
            .build()
            .expect("valid capacities");
        let engine = solver.labeling_engine();
        let times: Vec<f64> = (0..3)
            .map(|_| {
                let (labels, s) =
                    timed(|| engine.labels(solver.capacities(), &mut CostLedger::new()));
                assert!(labels.is_ok(), "capacities have no negative cycle");
                s * 1e3
            })
            .collect();
        let ms = median(&times);
        m.put(format!("labeling.labels_ms.n{}", side * side), ms, "ms");
        points.push(((side * side) as f64, ms));
    }
    m.put("labeling.ladder_exponent", loglog_slope(&points), "slope");
    m.put("labeling.engine_new_ms", median(&engine_new), "ms");
    m.put("labeling.decode_us", median(&decode), "us");
    m.put("labeling.label_words", words as f64, "words");
    m.put("bdd.build_ms", median(&bdd_build), "ms");
    m.put("bdd.bags", shape.0 as f64, "count");
    m.put("bdd.depth", shape.1 as f64, "count");
    let gen_ms: Vec<f64> = (0..5)
        .map(|r| {
            timed(|| gen::diag_grid(grid.0, grid.1, mix(seed, 7_200 + r)).expect("grids embed")).1
                * 1e3
        })
        .collect();
    m.put("planar.gen_ms", median(&gen_ms), "ms");
    m.put("planar.dual_graph_ms", median(&dual), "ms");
}

/// Two vertices of the largest face: a pair the st-planar
/// (approximate) queries accept.
fn boundary_pair(g: &PlanarGraph) -> (usize, usize) {
    let outer = g
        .faces()
        .max_by_key(|&f| g.face_darts(f).len())
        .expect("graphs have faces");
    let darts = g.face_darts(outer);
    let s = g.tail(darts[0]);
    let t = darts
        .iter()
        .map(|&d| g.tail(d))
        .find(|&v| v != s)
        .expect("faces have two vertices");
    (s, t)
}

/// A probe job of `kind` on `inst`, for a kind the workload's own list
/// lacks. The approximate kinds need undirected capacities, so directed
/// instances get a symmetric respec of the same graph.
fn synthesize(kind: &str, inst: &Arc<PlanarInstance>) -> (Arc<PlanarInstance>, Query) {
    let n = inst.n();
    let caps = inst.capacities();
    let undirected = (0..inst.m()).all(|e| caps[2 * e] == caps[2 * e + 1]);
    let sym = || {
        if undirected {
            Arc::clone(inst)
        } else {
            let c = (0..2 * inst.m())
                .map(|d| caps[d].max(caps[d ^ 1]))
                .collect();
            inst.with_capacities(c)
                .expect("symmetric capacities are valid")
        }
    };
    match kind {
        "max-flow" => (Arc::clone(inst), Query::MaxFlow { s: 0, t: n - 1 }),
        "min-st-cut" => (Arc::clone(inst), Query::MinStCut { s: 0, t: n - 1 }),
        "global-min-cut" => (Arc::clone(inst), Query::GlobalMinCut),
        "girth" => (Arc::clone(inst), Query::Girth),
        approx => {
            let (s, t) = boundary_pair(inst.graph());
            let query = if approx == "approx-max-flow" {
                Query::ApproxMaxFlow {
                    s,
                    t,
                    eps_inverse: 4,
                }
            } else {
                Query::ApproxMinStCut {
                    s,
                    t,
                    eps_inverse: 4,
                }
            };
            (sym(), query)
        }
    }
}

/// `core.solver_run_us.<kind>` and `core.probes_per_flow`: warm
/// `PlanarSolver::run` per kind, on the workload's own jobs of that kind
/// where it has them. Returns the max-flow jobs with their answers.
fn run_layers(
    jobs: &[(Arc<PlanarInstance>, Query)],
    instances: &[Arc<PlanarInstance>],
    m: &mut Metrics,
) -> Vec<FlowJob> {
    let mut flows = Vec::new();
    let mut probes = Vec::new();
    for kind in KINDS {
        let mut picked: Vec<(Arc<PlanarInstance>, Query)> = jobs
            .iter()
            .filter(|(_, q)| query_kind(q) == kind)
            .take(JOBS_PER_KIND)
            .cloned()
            .collect();
        if picked.is_empty() {
            picked = instances.iter().map(|i| synthesize(kind, i)).collect();
        }
        let mut us = Vec::new();
        for (inst, query) in &picked {
            let solver = PlanarSolver::from_instance(Arc::clone(inst));
            let warm = solver.run(*query).expect("probe queries are satisfiable");
            let runs: Vec<f64> = (0..2)
                .map(|_| timed(|| solver.run(*query)).1 * 1e6)
                .collect();
            if let (Some(r), &Query::MaxFlow { s, t }) = (warm.as_max_flow(), query) {
                probes.push(f64::from(r.probes));
                flows.push(FlowJob {
                    inst: Arc::clone(inst),
                    s,
                    t,
                    lambda: r.value,
                    run_ms: median(&runs) / 1e3,
                });
            }
            us.extend(runs);
        }
        m.put(format!("core.solver_run_us.{kind}"), median(&us), "us");
    }
    m.put(
        "core.probes_per_flow",
        probes.iter().sum::<f64>() / probes.len() as f64,
        "count",
    );
    flows
}

/// `core.pool_overhead_us`, `service.engine_overhead_us`,
/// `core.respec_us` and `core.weight_tier_ms`: the same cheap query
/// through `PlanarSolver::run`, `SolverPool::run` and a 1-worker
/// `ServiceEngine::run`, then the cost of a weight respec.
fn overhead_layers(instances: &[Arc<PlanarInstance>], seed: u64, m: &mut Metrics) {
    let pool = SolverPool::new(workloads::POOL_CAPACITY);
    let engine = workloads::engine(1, 1, None);
    let (mut solver_us, mut pool_us, mut engine_us) = (vec![], vec![], vec![]);
    for inst in instances {
        // The cheapest kind, so that the layers' own cost is not lost in
        // the query's run-to-run noise.
        let (inst, query) = synthesize("approx-max-flow", inst);
        let solver = pool.solver(&inst);
        engine
            .run(&inst, query)
            .expect("boundary pairs are st-planar");
        for _ in 0..50 {
            solver_us.push(timed(|| solver.run(query)).1 * 1e6);
            pool_us.push(timed(|| pool.run(&inst, query)).1 * 1e6);
            engine_us.push(timed(|| engine.run(&inst, query)).1 * 1e6);
        }
    }
    m.put(
        "core.pool_overhead_us",
        median(&pool_us) - median(&solver_us),
        "us",
    );
    m.put(
        "service.engine_overhead_us",
        median(&engine_us) - median(&pool_us),
        "us",
    );

    let base = PlanarSolver::from_instance(Arc::clone(&instances[0]));
    base.run(Query::GlobalMinCut)
        .expect("instances have two vertices");
    let warm: Vec<f64> = (0..3)
        .map(|_| timed(|| base.run(Query::GlobalMinCut)).1 * 1e3)
        .collect();
    let (mut respec_us, mut cold_ms) = (vec![], vec![]);
    for r in 0..5 {
        let mut w = base.edge_weights().to_vec();
        for k in 0..2 {
            let e = (mix(seed, 8_000 + 2 * r + k) % w.len() as u64) as usize;
            w[e] *= 5;
        }
        let (spiked, s) = timed(|| {
            base.respec_edge_weights(w)
                .expect("spiked weights are valid")
        });
        respec_us.push(s * 1e6);
        cold_ms.push(timed(|| spiked.run(Query::GlobalMinCut)).1 * 1e3);
    }
    m.put("core.respec_us", median(&respec_us), "us");
    m.put(
        "core.weight_tier_ms",
        median(&cold_ms) - median(&warm),
        "ms",
    );
}

/// Every probe-based per-layer metric for a workload whose jobs are
/// `jobs` on graphs of shape `grid`.
pub fn probe(
    jobs: &[(Arc<PlanarInstance>, Query)],
    grid: (usize, usize),
    ladder: [usize; 3],
    seed: u64,
    m: &mut Metrics,
) {
    let mut instances: Vec<Arc<PlanarInstance>> = Vec::new();
    for (inst, _) in jobs {
        if instances.len() < PROBE_INSTANCES && !instances.iter().any(|i| Arc::ptr_eq(i, inst)) {
            instances.push(Arc::clone(inst));
        }
    }
    let flows = run_layers(jobs, &instances, m);
    kernel_layers(&instances, &flows, grid, ladder, seed, m);
    overhead_layers(&instances, seed, m);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_of_a_power_law() {
        let pts: Vec<(f64, f64)> = [64.0, 144.0, 256.0]
            .iter()
            .map(|&n: &f64| (n, 3.0 * n.powf(2.2)))
            .collect();
        assert!((loglog_slope(&pts) - 2.2).abs() < 1e-9);
    }
}
