//! One benchmark run: set-up, timed window(s), correctness gate, metrics.

use crate::host;
use crate::layers;
use crate::stats::{median, percentile, ratio, Metrics};
use crate::window::{self, Verdict, Window};
use crate::workloads::{self, KernelFlow, Scale, Workload};
use duality_core::{PlanarInstance, Query};
use duality_service::{ServiceEngine, SpanRecord, SpanSink};
use duality_workload::{Scenario, TraceJob};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("rounds_total", "rounds"),
    ("peak_rss_mb", "MiB"),
    ("completed_ratio", "ratio"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run. A
/// layer is one crate; the prefix names it.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("labeling.labels_ms", "ms"),
    ("labeling.labels_ms.n64", "ms"),
    ("labeling.labels_ms.n144", "ms"),
    ("labeling.labels_ms.n256", "ms"),
    ("labeling.ladder_exponent", "slope"),
    ("labeling.engine_new_ms", "ms"),
    ("labeling.decode_us", "us"),
    ("labeling.label_words", "words"),
    ("bdd.build_ms", "ms"),
    ("bdd.bags", "count"),
    ("bdd.depth", "count"),
    ("planar.gen_ms", "ms"),
    ("planar.dual_graph_ms", "ms"),
    ("core.solver_run_us.max-flow", "us"),
    ("core.solver_run_us.min-st-cut", "us"),
    ("core.solver_run_us.approx-max-flow", "us"),
    ("core.solver_run_us.approx-min-st-cut", "us"),
    ("core.solver_run_us.global-min-cut", "us"),
    ("core.solver_run_us.girth", "us"),
    ("core.probes_per_flow", "count"),
    ("core.kernel_share", "ratio"),
    ("core.pool_overhead_us", "us"),
    ("core.respec_us", "us"),
    ("core.weight_tier_ms", "ms"),
    ("core.pool_hits", "count"),
    ("core.pool_misses", "count"),
    ("core.pool_respec_reuses", "count"),
    ("core.pool_evictions", "count"),
    ("core.pool_lock_contended", "count"),
    ("core.pool_peak_resident_bytes", "bytes"),
    ("core.pool_hit_ratio", "ratio"),
    ("service.engine_overhead_us", "us"),
    ("service.wait_ms_p50", "ms"),
    ("service.wait_ms_p90", "ms"),
    ("service.exec_ms_p50", "ms"),
    ("service.exec_ms_p90", "ms"),
    ("service.queue_high_water", "count"),
    ("sched.steals", "count"),
    ("sched.steal_fails", "count"),
    ("sched.parks", "count"),
    ("sched.unparks", "count"),
    ("sched.injector_overflows", "count"),
    ("sched.steal_ratio", "ratio"),
    ("workload.record_ms", "ms"),
    ("workload.materialize_ms", "ms"),
    ("congest.query_rounds", "rounds"),
    ("congest.substrate_rounds", "rounds"),
    ("proc.cpu_ms_per_job", "ms"),
    ("proc.cpu_util", "ratio"),
    ("trace.jobs_per_s_delta", "1/s"),
];

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// What one run prints.
pub struct Report {
    /// The correctness gate passed and no job failed.
    pub correct: bool,
    /// Jobs attempted in the timed window(s).
    pub attempted: usize,
    /// Jobs that returned an error.
    pub failed: usize,
    /// The metrics of the result line.
    pub metrics: Metrics,
    /// Lines printed before the result line.
    pub notes: Vec<String>,
}

/// A workload's inputs after set-up.
enum Setup {
    Kernel(KernelFlow),
    Engine {
        scenario: Scenario,
        jobs: Vec<TraceJob>,
        engine: ServiceEngine,
    },
}

impl Setup {
    fn build(workload: Workload, seed: u64, scale: &Scale, workers: usize) -> Setup {
        if workload == Workload::KernelFlow {
            return Setup::Kernel(workloads::kernel_flow(seed, scale));
        }
        let scenario = workloads::scenario(workload, seed, scale);
        let jobs = workloads::engine_jobs(&scenario);
        let engine = workloads::engine(workers, workloads::SHARDS, None);
        workloads::prewarm(&engine, &jobs);
        Setup::Engine {
            scenario,
            jobs,
            engine,
        }
    }

    fn window(&self, seconds: f64) -> Window {
        match self {
            Setup::Kernel(set) => window::kernel_window(set, seconds),
            Setup::Engine { jobs, engine, .. } => {
                window::engine_window(engine, jobs, workloads::CLIENTS, seconds)
            }
        }
    }

    fn verify(&self, windows: &[&Window]) -> Verdict {
        match self {
            Setup::Kernel(set) => window::verify_kernel(set, windows),
            Setup::Engine { jobs, .. } => window::verify_engine(jobs, windows),
        }
    }

    /// The job list as `(instance, query)` pairs.
    fn jobs(&self) -> Vec<(Arc<PlanarInstance>, Query)> {
        match self {
            Setup::Kernel(set) => set
                .jobs
                .iter()
                .map(|&(i, q)| (Arc::clone(set.solvers[i].instance()), q))
                .collect(),
            Setup::Engine { jobs, .. } => jobs
                .iter()
                .map(|j| (Arc::clone(&j.instance), j.query))
                .collect(),
        }
    }
}

/// Sets the workload up [`SETUP_REPS`] times; returns the last set-up
/// and the median set-up seconds.
fn setup(workload: Workload, seed: u64, scale: &Scale, workers: usize) -> (Setup, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(Setup::build(workload, seed, scale, workers));
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times))
}

/// Runs `workload` on the inputs of `seed`, with `workers` engine
/// workers on the engine workloads. Untraced runs time one window of
/// `seconds` and report [`END_TO_END`]; traced runs time an untraced and
/// a traced window of `seconds / 2` each and report [`PER_LAYER`].
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: &Scale,
    workers: usize,
) -> Report {
    let (setup, setup_s) = self::setup(workload, seed, scale, workers);
    if trace {
        return traced(workload, seed, seconds, scale, workers, setup);
    }
    let w = setup.window(seconds);
    let rss = host::peak_rss_mb();
    let verdict = setup.verify(&[&w]);
    let sorted = w.sorted_ms();
    let mut m = Metrics::default();
    m.put("setup_s", setup_s, "s");
    m.put("jobs_per_s", w.jobs_per_s(), "1/s");
    m.put(
        "latency_p50_ms",
        percentile(&sorted, 0.5).expect("the window ran a full list"),
        "ms",
    );
    m.put(
        "latency_p90_ms",
        percentile(&sorted, 0.9).expect("lists hold at least 100 jobs"),
        "ms",
    );
    m.put("rounds_total", verdict.rounds_total() as f64, "rounds");
    m.put("peak_rss_mb", rss, "MiB");
    let attempted = w.samples.len();
    m.put(
        "completed_ratio",
        ratio((attempted - w.failed()) as f64, attempted as f64),
        "ratio",
    );
    let jobs = setup.jobs();
    let list = workloads::job_list_fingerprint(jobs.iter().map(|(i, q)| (i.as_ref(), *q)));
    let mut notes = vec![format!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"job_list\": \"{:016x}\", \"list\": {}, \"samples\": {attempted}, \"wall_s\": {}}}",
        workload.name(),
        list,
        jobs.len(),
        w.wall_s
    )];
    for q in [0.5, 0.9, 0.99] {
        if let Some(v) = percentile(&sorted, q) {
            notes.push(format!(
                "{{\"percentile\": {q}, \"latency_ms\": {v}, \"samples\": {attempted}, \"beyond\": {}}}",
                attempted - ((q * attempted as f64).ceil() as usize)
            ));
        }
    }
    Report {
        correct: verdict.mismatches == 0 && w.failed() == 0,
        attempted,
        failed: w.failed(),
        metrics: m,
        notes,
    }
}

/// Collects every span the engine emits.
#[derive(Default)]
struct Spans(Mutex<Vec<SpanRecord>>);

impl SpanSink for Spans {
    fn record(&self, span: SpanRecord) {
        self.0.lock().expect("span sink lock").push(span);
    }
}

/// `p50` and `p90` of `values` (ms) under `prefix`.
fn put_quantiles(m: &mut Metrics, prefix: &str, mut values: Vec<f64>) {
    values.sort_by(f64::total_cmp);
    for (q, tag) in [(0.5, "p50"), (0.9, "p90")] {
        let v = percentile(&values, q).expect("traced windows run at least 100 jobs");
        m.put(format!("{prefix}_{tag}"), v, "ms");
    }
}

fn traced(
    workload: Workload,
    seed: u64,
    seconds: f64,
    scale: &Scale,
    workers: usize,
    setup: Setup,
) -> Report {
    let half = seconds / 2.0;
    let mut m = Metrics::default();
    let (pool0, sched0) = match &setup {
        Setup::Engine { engine, .. } => (engine.pool_stats(), engine.metrics().scheduler),
        Setup::Kernel(_) => Default::default(),
    };
    let plain = setup.window(half);
    // Pool, scheduler and queue counters of the untraced window; zero on
    // kernel-flow, whose path has no pool, scheduler or queue.
    let (pool, sched, high_water) = match &setup {
        Setup::Engine { engine, .. } => {
            let snap = engine.metrics();
            (engine.pool_stats(), snap.scheduler, snap.queue_high_water)
        }
        Setup::Kernel(_) => Default::default(),
    };
    let (traced, spans) = match &setup {
        // A single caller has no engine spans: its trace is the
        // benchmark's own per-job record.
        Setup::Kernel(_) => (setup.window(half), None),
        Setup::Engine { jobs, .. } => {
            let sink = Arc::new(Spans::default());
            let engine = workloads::engine(workers, workloads::SHARDS, Some(sink.clone()));
            workloads::prewarm(&engine, jobs);
            let w = window::engine_window(&engine, jobs, workloads::CLIENTS, half);
            drop(engine);
            let spans = std::mem::take(&mut *sink.0.lock().expect("span sink lock"));
            (w, Some(spans))
        }
    };
    let verdict = setup.verify(&[&plain, &traced]);

    let jobs = setup.jobs();
    let grid = match workload {
        Workload::KernelFlow => (scale.kernel_side, scale.kernel_side),
        Workload::ServeMix => scale.serve_grid,
        Workload::RespecSweep => (scale.respec_side, scale.respec_side),
    };
    layers::probe(&jobs, grid, scale.ladder, seed, &mut m);

    let d = |a: u64, b: u64| (a - b) as f64;
    let (hits, misses) = (d(pool.hits, pool0.hits), d(pool.misses, pool0.misses));
    m.put("core.pool_hits", hits, "count");
    m.put("core.pool_misses", misses, "count");
    m.put(
        "core.pool_respec_reuses",
        d(pool.respec_reuses, pool0.respec_reuses),
        "count",
    );
    m.put(
        "core.pool_evictions",
        d(pool.evictions, pool0.evictions),
        "count",
    );
    m.put(
        "core.pool_lock_contended",
        d(pool.lock_contended, pool0.lock_contended),
        "count",
    );
    m.put(
        "core.pool_peak_resident_bytes",
        pool.peak_resident_bytes as f64,
        "bytes",
    );
    m.put("core.pool_hit_ratio", ratio(hits, hits + misses), "ratio");

    match spans {
        Some(spans) => {
            put_quantiles(
                &mut m,
                "service.wait_ms",
                spans.iter().map(|s| s.wait_us() as f64 / 1e3).collect(),
            );
            put_quantiles(
                &mut m,
                "service.exec_ms",
                spans
                    .iter()
                    .filter_map(|s| s.service_us())
                    .map(|us| us as f64 / 1e3)
                    .collect(),
            );
        }
        None => {
            // A single caller has no queue: the whole job is execution.
            put_quantiles(&mut m, "service.wait_ms", vec![0.0; traced.samples.len()]);
            put_quantiles(
                &mut m,
                "service.exec_ms",
                traced.samples.iter().map(|s| s.ms).collect(),
            );
        }
    }
    m.put("service.queue_high_water", high_water as f64, "count");

    let (steals, fails) = (
        d(sched.steals, sched0.steals),
        d(sched.steal_fails, sched0.steal_fails),
    );
    m.put("sched.steals", steals, "count");
    m.put("sched.steal_fails", fails, "count");
    m.put("sched.parks", d(sched.parks, sched0.parks), "count");
    m.put("sched.unparks", d(sched.unparks, sched0.unparks), "count");
    m.put(
        "sched.injector_overflows",
        d(sched.injector_overflows, sched0.injector_overflows),
        "count",
    );
    m.put("sched.steal_ratio", ratio(steals, steals + fails), "ratio");

    let (record_ms, materialize_ms) = match &setup {
        Setup::Engine { scenario, .. } => {
            let (mut rec, mut mat) = (vec![], vec![]);
            for _ in 0..3 {
                let t0 = Instant::now();
                let trace = scenario.record().expect("the scenario's tenants build");
                rec.push(t0.elapsed().as_secs_f64() * 1e3);
                let t0 = Instant::now();
                std::hint::black_box(trace.materialize().expect("a fresh recording replays"));
                mat.push(t0.elapsed().as_secs_f64() * 1e3);
            }
            (median(&rec), median(&mat))
        }
        // kernel-flow generates its inputs without the workload crate.
        Setup::Kernel(_) => (0.0, 0.0),
    };
    m.put("workload.record_ms", record_ms, "ms");
    m.put("workload.materialize_ms", materialize_ms, "ms");
    m.put(
        "congest.query_rounds",
        verdict.query_rounds as f64,
        "rounds",
    );
    m.put(
        "congest.substrate_rounds",
        verdict.substrate_rounds as f64,
        "rounds",
    );
    let done = (plain.samples.len() - plain.failed()) as f64;
    m.put("proc.cpu_ms_per_job", plain.cpu_s * 1e3 / done, "ms");
    m.put("proc.cpu_util", plain.cpu_s / plain.wall_s, "ratio");
    m.put(
        "trace.jobs_per_s_delta",
        traced.jobs_per_s() - plain.jobs_per_s(),
        "1/s",
    );

    let failed = plain.failed() + traced.failed();
    Report {
        correct: verdict.mismatches == 0 && failed == 0,
        attempted: plain.samples.len() + traced.samples.len(),
        failed,
        metrics: m,
        notes: vec![format!(
            "{{\"workload\": \"{}\", \"seed\": {seed}, \"untraced_jobs_per_s\": {}, \"traced_jobs_per_s\": {}}}",
            workload.name(),
            plain.jobs_per_s(),
            traced.jobs_per_s()
        )],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`PER_LAYER`] with the ladder rungs named for `scale`'s ladder.
    fn per_layer(scale: &Scale) -> Vec<(String, &'static str)> {
        let rung =
            |ladder: [usize; 3], i: usize| format!("labeling.labels_ms.n{}", ladder[i] * ladder[i]);
        let mut v: Vec<(String, &str)> = PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let name = (0..3)
                    .find(|&i| rung(Scale::FULL.ladder, i) == name)
                    .map_or(name.to_string(), |i| rung(scale.ladder, i));
                (name, unit)
            })
            .collect();
        v.sort();
        v
    }

    fn names(m: &Metrics) -> Vec<(String, &'static str)> {
        let mut v: Vec<(String, &str)> = m
            .names()
            .into_iter()
            .map(|(n, u)| (n.to_string(), u))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn smoke_runs_pass_the_gate_and_print_every_metric_with_its_unit() {
        for w in Workload::ALL {
            let r = run(w, 5, 0.0, false, &Scale::SMOKE, workloads::WORKERS);
            assert!(r.correct && r.failed == 0, "{w:?}");
            assert_eq!(r.attempted, Scale::SMOKE.jobs(w), "{w:?}: one full pass");
            let mut want: Vec<(String, &str)> = END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect();
            want.sort();
            assert_eq!(names(&r.metrics), want, "{w:?}");
            let line = r.metrics.result_line(r.correct, r.attempted, r.failed);
            assert!(line.contains("\"latency_p90_ms\": {\"value\": "), "{line}");

            let t = run(w, 5, 0.0, true, &Scale::SMOKE, workloads::WORKERS);
            assert!(t.correct && t.failed == 0, "{w:?} traced");
            assert_eq!(names(&t.metrics), per_layer(&Scale::SMOKE), "{w:?} traced");
        }
    }

    #[test]
    fn rounds_total_repeats_across_runs_and_worker_counts() {
        for w in Workload::ALL {
            let bill = |workers| {
                let r = run(w, 9, 0.0, false, &Scale::SMOKE, workers);
                assert!(r.correct, "{w:?} on {workers} workers");
                r.metrics.get("rounds_total").expect("printed")
            };
            let two = bill(2);
            assert!(two > 0.0);
            assert_eq!(two, bill(2), "{w:?}: two identical runs");
            assert_eq!(two, bill(1), "{w:?}: 1 vs 2 workers");
        }
    }

    #[test]
    fn benchmark_json_declares_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text =
            std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in Workload::ALL {
            assert!(
                text.contains(&format!("\"name\": \"{}\"", w.name())),
                "{w:?}"
            );
        }
        assert_eq!(
            text.matches("\"unit\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }
}
