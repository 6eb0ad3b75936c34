//! Timed closed-loop windows and the correctness gate that follows them.

use crate::host;
use crate::workloads::KernelFlow;
use duality_baselines::cuts::planar_directed_min_cut_reference;
use duality_baselines::flow::planar_max_flow_reference;
use duality_baselines::girth::planar_weighted_girth;
use duality_core::{Outcome, PlanarInstance, Query};
use duality_planar::Weight;
use duality_service::ServiceEngine;
use duality_workload::driver::run_serial_jobs;
use duality_workload::SerialReport;
use duality_workload::{outcome_fingerprint, TraceJob};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Threads of the serial reference pass, which runs after the timed
/// window.
const VERIFY_THREADS: usize = 2;

/// One completed job of a window.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Position in the (cycled) job list.
    pub job: usize,
    /// Submit → result time on the benchmark's clock.
    pub ms: f64,
    /// What the job returned, `None` when it failed.
    pub outcome: Option<Answer>,
}

/// The parts of an outcome the gate checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Answer {
    /// [`outcome_fingerprint`] of the outcome.
    pub fingerprint: u64,
    /// The marginal query rounds of the outcome.
    pub query_rounds: u64,
    /// The answer's value, for the exact kinds.
    pub value: Option<Weight>,
}

impl Answer {
    fn of(outcome: &Outcome) -> Answer {
        Answer {
            fingerprint: outcome_fingerprint(outcome),
            query_rounds: outcome.rounds().query_total(),
            value: match outcome {
                Outcome::MaxFlow(r) => Some(r.value),
                Outcome::MinStCut(r) => Some(r.value),
                Outcome::GlobalMinCut(r) => Some(r.value),
                Outcome::Girth(r) => Some(r.girth),
                Outcome::ApproxMaxFlow(_) | Outcome::ApproxMinStCut(_) => None,
            },
        }
    }
}

/// What one timed window measured.
#[derive(Debug)]
pub struct Window {
    /// Every job the window ran, in completion order per client.
    pub samples: Vec<Sample>,
    /// Wall seconds from the first submit to the last result.
    pub wall_s: f64,
    /// Process CPU seconds (user + system) over the same span.
    pub cpu_s: f64,
}

impl Window {
    /// Latencies in ascending order.
    pub fn sorted_ms(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.samples.iter().map(|s| s.ms).collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Jobs that returned an error.
    pub fn failed(&self) -> usize {
        self.samples.iter().filter(|s| s.outcome.is_none()).count()
    }

    /// Completed jobs per wall second.
    pub fn jobs_per_s(&self) -> f64 {
        (self.samples.len() - self.failed()) as f64 / self.wall_s
    }
}

/// Should a client stop before taking job `j` of a `len`-job list? Only
/// after `seconds` have passed *and* every list position was taken once.
fn done(start: Instant, seconds: f64, j: usize, len: usize) -> bool {
    j >= len && start.elapsed() >= Duration::from_secs_f64(seconds)
}

/// Runs `kernel-flow` jobs one at a time for `seconds` and at least one
/// pass over the list, cycling it.
pub fn kernel_window(set: &KernelFlow, seconds: f64) -> Window {
    let cpu0 = host::cpu_seconds();
    let start = Instant::now();
    let mut samples = Vec::new();
    for j in 0.. {
        if done(start, seconds, j, set.jobs.len()) {
            break;
        }
        let (i, query) = set.jobs[j % set.jobs.len()];
        let t0 = Instant::now();
        let result = std::hint::black_box(set.solvers[i].run(query));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        samples.push(Sample {
            job: j,
            ms,
            outcome: result.ok().as_ref().map(Answer::of),
        });
    }
    Window {
        samples,
        wall_s: start.elapsed().as_secs_f64(),
        cpu_s: host::cpu_seconds() - cpu0,
    }
}

/// Runs `clients` closed-loop clients against `engine` for `seconds`
/// and at least one pass over the list, each keeping one job
/// outstanding and taking the next list position when its job resolves.
pub fn engine_window(
    engine: &ServiceEngine,
    jobs: &[TraceJob],
    clients: usize,
    seconds: f64,
) -> Window {
    let next = AtomicUsize::new(0);
    let all = Mutex::new(Vec::new());
    let cpu0 = host::cpu_seconds();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let j = next.fetch_add(1, Ordering::Relaxed);
                    if done(start, seconds, j, jobs.len()) {
                        break;
                    }
                    let job = &jobs[j % jobs.len()];
                    let t0 = Instant::now();
                    let result = engine
                        .submit(&job.instance, job.query)
                        .ok()
                        .and_then(|ticket| ticket.wait().ok());
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    local.push(Sample {
                        job: j,
                        ms,
                        outcome: result.as_ref().map(Answer::of),
                    });
                }
                all.lock().expect("no client panics").extend(local);
            });
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut samples = all.into_inner().expect("no client panics");
    samples.sort_by_key(|s| s.job);
    Window {
        samples,
        wall_s,
        cpu_s: host::cpu_seconds() - cpu0,
    }
}

/// The verdict of the correctness gate plus the exact round bill.
#[derive(Debug)]
pub struct Verdict {
    /// Completed jobs whose answer differed from the reference.
    pub mismatches: usize,
    /// Marginal query rounds of one pass over the job list.
    pub query_rounds: u64,
    /// Substrate rounds of one pass: each distinct spec's bill once.
    pub substrate_rounds: u64,
}

impl Verdict {
    /// The exact CONGEST bill of one pass over the job list.
    pub fn rounds_total(&self) -> u64 {
        self.query_rounds + self.substrate_rounds
    }
}

/// Query rounds of one pass over a `len`-job list, taken from the first
/// completed sample at each position; `None` if a position never
/// completed.
fn pass_query_rounds(windows: &[&Window], len: usize) -> Option<u64> {
    let mut first: Vec<Option<u64>> = vec![None; len];
    for s in windows.iter().flat_map(|w| &w.samples) {
        if let Some(a) = s.outcome {
            first[s.job % len].get_or_insert(a.query_rounds);
        }
    }
    first.into_iter().sum()
}

/// The centralized baseline's answer value for the exact kinds (flow and
/// cut value by Dinic, directed global min cut and weighted girth by
/// dual shortest paths); `None` for the approximate kinds, whose outputs
/// the serial fingerprints alone pin.
fn baseline(instance: &PlanarInstance, query: Query) -> Option<Weight> {
    let (g, weights) = (instance.graph(), instance.edge_weights());
    match query {
        Query::MaxFlow { s, t } | Query::MinStCut { s, t } => {
            Some(planar_max_flow_reference(g, instance.capacities(), s, t))
        }
        Query::GlobalMinCut => planar_directed_min_cut_reference(g, weights),
        Query::Girth => planar_weighted_girth(g, weights),
        Query::ApproxMaxFlow { .. } | Query::ApproxMinStCut { .. } => None,
    }
}

/// Samples whose answer is not `expected` at their position of a
/// `len`-job list.
fn mismatches(windows: &[&Window], len: usize, expected: impl Fn(usize, &Answer) -> bool) -> usize {
    windows
        .iter()
        .flat_map(|w| &w.samples)
        .filter(|s| s.outcome.is_some_and(|a| !expected(s.job % len, &a)))
        .count()
}

/// Gate for `kernel-flow`: every flow and cut value must equal
/// centralized Dinic on the same instance, and repeats of a job must
/// return the first run's outcome. The substrate bill is each solver's,
/// which a serial caller builds once per instance.
pub fn verify_kernel(set: &KernelFlow, windows: &[&Window]) -> Verdict {
    let len = set.jobs.len();
    let values: Vec<Option<Weight>> = set
        .jobs
        .iter()
        .map(|&(i, query)| baseline(set.solvers[i].instance(), query))
        .collect();
    let mut first: Vec<Option<u64>> = vec![None; len];
    for s in windows.iter().flat_map(|w| &w.samples) {
        if let Some(a) = s.outcome {
            first[s.job % len].get_or_insert(a.fingerprint);
        }
    }
    let wrong = mismatches(windows, len, |pos, a| {
        a.value == values[pos] && Some(a.fingerprint) == first[pos]
    });
    let query_rounds = pass_query_rounds(windows, len);
    Verdict {
        mismatches: wrong + usize::from(query_rounds.is_none()),
        query_rounds: query_rounds.unwrap_or(0),
        substrate_rounds: set
            .solvers
            .iter()
            .map(|s| s.substrate_rounds().total())
            .sum(),
    }
}

/// `run_serial_jobs` over `jobs`, one tenant's jobs per call on
/// [`VERIFY_THREADS`] threads, with the [`baseline`] value of every job.
/// Specs never cross tenants, so this equals one serial pass over the
/// whole list.
fn serial_by_tenant(jobs: &[TraceJob]) -> (SerialReport, Vec<Option<Weight>>) {
    let tenants = jobs.iter().map(|j| j.tenant + 1).max().unwrap_or(0);
    let parts: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..VERIFY_THREADS)
            .map(|part| {
                scope.spawn(move || {
                    (part..tenants)
                        .step_by(VERIFY_THREADS)
                        .map(|tenant| {
                            let (index, own): (Vec<usize>, Vec<TraceJob>) = jobs
                                .iter()
                                .enumerate()
                                .filter(|(_, j)| j.tenant == tenant)
                                .map(|(i, j)| (i, j.clone()))
                                .unzip();
                            let report =
                                run_serial_jobs(&own).expect("recorded queries are satisfiable");
                            let values: Vec<_> =
                                own.iter().map(|j| baseline(&j.instance, j.query)).collect();
                            (index, report, values)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("serial reference threads do not panic"))
            .collect()
    });
    let mut merged = SerialReport {
        fingerprints: vec![0; jobs.len()],
        query_rounds: 0,
        substrate_rounds: 0,
        solvers: 0,
    };
    let mut values = vec![None; jobs.len()];
    for (index, report, part) in parts {
        for ((i, fp), value) in index.into_iter().zip(report.fingerprints).zip(part) {
            merged.fingerprints[i] = fp;
            values[i] = value;
        }
        merged.query_rounds += report.query_rounds;
        merged.substrate_rounds += report.substrate_rounds;
        merged.solvers += report.solvers;
    }
    (merged, values)
}

/// Gate for the engine workloads: every outcome fingerprint must equal
/// serial ground truth (`run_serial_jobs`: one fresh solver per spec,
/// jobs in list order), and every exact value must equal the
/// centralized baseline. The bill is the serial pass's: the engine's
/// query rounds are part of each fingerprint, and the serial substrate
/// bill counts each distinct spec once, independent of thread timing.
pub fn verify_engine(jobs: &[TraceJob], windows: &[&Window]) -> Verdict {
    let (serial, values) = serial_by_tenant(jobs);
    let wrong = mismatches(windows, jobs.len(), |pos, a| {
        a.fingerprint == serial.fingerprints[pos] && a.value == values[pos]
    });
    let engine_rounds = pass_query_rounds(windows, jobs.len());
    Verdict {
        mismatches: wrong + usize::from(engine_rounds != Some(serial.query_rounds)),
        query_rounds: serial.query_rounds,
        substrate_rounds: serial.substrate_rounds,
    }
}
