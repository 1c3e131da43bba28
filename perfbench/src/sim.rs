//! The simulated engine's workloads: the GWAS campaign run lazily
//! (`run_lazy` over a [`GwasSource`]) and eagerly (`run` over the
//! fully built graph), both under the [`LocalityScheduler`].
//!
//! Traced repetitions wrap the scheduler and the graph source; the
//! wrappers forward every decision unchanged, which the workload checks
//! by comparing makespan, event count and the whole execution trace
//! against the untraced repetitions.

use crate::alloc::{self, Region};
use crate::clock::{now_ns, process_cpu_s, thread_cpu_s};
use crate::spans::{SpanLog, NO_PARENT};
use crate::stats::percentile;
use crate::{Rep, TILING_TOLERANCE};
use continuum_dag::{DagError, DataId, ExpandSink, GraphSource, TaskId, TaskSpec};
use continuum_platform::{NodeId, NodeSpec, Platform, PlatformBuilder};
use continuum_runtime::{
    LazyRunOutcome, LocalityScheduler, PlacementView, RuntimeError, Scheduler, SimOptions,
    SimRuntime, SimWorkload, TaskProfile,
};
use continuum_sim::{ExecutionTrace, FaultPlan};
use continuum_workflows::{GwasSource, GwasWorkload};
use std::time::Instant;

/// Nodes of the MareNostrum-class platform both campaigns run on.
const NODES: usize = 100;
/// Chunk pipelines the lazy source keeps materialized ahead.
const WINDOW: usize = 256;
const CHROMOSOMES: usize = 22;
/// Chunks per chromosome of the lazy campaign: long enough for the
/// source window to slide through several chromosomes.
pub const LAZY_CHUNKS: usize = 300;
/// Chunks per chromosome of the eager campaign: large enough for the
/// ready backlog to saturate the platform (below ~65 it does not), small
/// enough for a run to stay under a second (the cost grows
/// superlinearly with the backlog).
pub const EAGER_CHUNKS: usize = 80;
/// Eager campaigns per repetition, seeded differently: how saturated the
/// backlog gets depends on the drawn durations, and averaging two
/// campaigns halves the variance the seed adds to the run's cost.
pub const EAGER_CAMPAIGNS: usize = 2;

fn platform() -> Platform {
    PlatformBuilder::new()
        .cluster("mn4", NODES, NodeSpec::hpc(48, 96_000))
        .build()
}

/// The campaign a seed selects: the seed draws task durations and
/// memory classes, never the campaign's shape.
pub fn campaign(seed: u64, chunks: usize) -> GwasWorkload {
    GwasWorkload::new()
        .chromosomes(CHROMOSOMES)
        .chunks_per_chromosome(chunks)
        .seed(seed)
}

/// What must repeat bit for bit across repetitions.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    tasks: usize,
    makespan_s: f64,
    events: Option<u64>,
    trace: ExecutionTrace,
}

/// What the scheduler wrapper counted over a repetition.
#[derive(Default)]
struct SchedCounts {
    calls: u64,
    ready: u64,
    placed: u64,
    allocs: u64,
}

/// Scheduler wrapper of traced repetitions: times each `place` call
/// and counts what it was offered and what it placed.
struct TracedScheduler<'a> {
    inner: &'a mut LocalityScheduler,
    log: &'a SpanLog,
    root: u32,
    counts: &'a mut SchedCounts,
}

impl Scheduler for TracedScheduler<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn place(&mut self, view: &PlacementView<'_>, ready: &[TaskId]) -> Vec<(TaskId, NodeId)> {
        let id = self.log.open();
        let a0 = alloc::thread_allocs();
        let t0 = now_ns();
        let out = self.inner.place(view, ready);
        let t1 = now_ns();
        self.counts.allocs += alloc::thread_allocs() - a0;
        self.log.close(id, self.root, "sched.place", t0, t1);
        self.counts.calls += 1;
        self.counts.ready += ready.len() as u64;
        self.counts.placed += out.len() as u64;
        out
    }
}

/// What the graph-source wrapper counted over a repetition.
#[derive(Default)]
struct SourceCounts {
    calls: u64,
    submits: u64,
    /// Allocations inside source calls, sink submits included.
    allocs: u64,
    /// Allocations inside sink submits (engine-side work).
    sink_allocs: u64,
}

/// Graph-source wrapper of traced repetitions: times `prime` and
/// `on_task_complete`, and hands the source a [`CountingSink`].
struct TracedSource<'a> {
    inner: &'a mut GwasSource,
    log: &'a SpanLog,
    root: u32,
    counts: &'a mut SourceCounts,
}

/// Expand sink handed to the wrapped source: forwards to the engine's
/// sink and times each `submit` as a child of the source call.
struct CountingSink<'s> {
    inner: &'s mut dyn ExpandSink<TaskProfile>,
    log: &'s SpanLog,
    parent: u32,
    submits: u64,
    allocs: u64,
}

impl ExpandSink<TaskProfile> for CountingSink<'_> {
    fn data(&mut self, name: &str) -> DataId {
        self.inner.data(name)
    }

    fn initial_data(&mut self, name: &str, bytes: u64) -> DataId {
        self.inner.initial_data(name, bytes)
    }

    fn submit(&mut self, spec: TaskSpec, payload: TaskProfile) -> Result<TaskId, DagError> {
        let id = self.log.open();
        let a0 = alloc::thread_allocs();
        let t0 = now_ns();
        let r = self.inner.submit(spec, payload);
        let t1 = now_ns();
        self.allocs += alloc::thread_allocs() - a0;
        self.log.close(id, self.parent, "sink.submit", t0, t1);
        self.submits += 1;
        r
    }

    fn close_data(&mut self, data: DataId) {
        self.inner.close_data(data)
    }
}

impl TracedSource<'_> {
    fn call(
        &mut self,
        name: &'static str,
        sink: &mut dyn ExpandSink<TaskProfile>,
        f: impl FnOnce(&mut GwasSource, &mut dyn ExpandSink<TaskProfile>) -> Result<(), DagError>,
    ) -> Result<(), DagError> {
        let id = self.log.open();
        let a0 = alloc::thread_allocs();
        let t0 = now_ns();
        let mut counting = CountingSink {
            inner: sink,
            log: self.log,
            parent: id,
            submits: 0,
            allocs: 0,
        };
        let r = f(self.inner, &mut counting);
        let t1 = now_ns();
        self.counts.allocs += alloc::thread_allocs() - a0;
        self.log.close(id, self.root, name, t0, t1);
        self.counts.calls += 1;
        self.counts.submits += counting.submits;
        self.counts.sink_allocs += counting.allocs;
        r
    }
}

impl GraphSource<TaskProfile> for TracedSource<'_> {
    fn prime(&mut self, sink: &mut dyn ExpandSink<TaskProfile>) -> Result<(), DagError> {
        self.call("source.call", sink, |s, k| s.prime(k))
    }

    fn on_task_complete(
        &mut self,
        task: TaskId,
        sink: &mut dyn ExpandSink<TaskProfile>,
    ) -> Result<(), DagError> {
        self.call("source.call", sink, |s, k| s.on_task_complete(task, k))
    }

    fn total_tasks(&self) -> Option<u64> {
        self.inner.total_tasks()
    }
}

type CampaignResult = Result<(Outcome, Option<LazyRunOutcome>), RuntimeError>;

/// One of the two GWAS workloads: one or more campaigns run back to
/// back per repetition, with the first repetition's outcomes as the
/// reference every later one must reproduce.
pub struct Gwas {
    lazy: bool,
    campaigns: Vec<GwasWorkload>,
    reference: Option<Vec<Outcome>>,
    /// Simulated per-task latency (start to end, transfer stall
    /// included) in virtual µs: p50, p99 and the sample count.
    latency: (f64, f64, usize),
}

impl Gwas {
    /// `count` campaigns of `chunks` chunks per chromosome, with seeds
    /// derived from `seed`.
    pub fn new(lazy: bool, seed: u64, chunks: usize, count: usize) -> Self {
        let campaigns = (0..count as u64)
            .map(|i| {
                campaign(
                    seed.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
                    chunks,
                )
            })
            .collect();
        Gwas {
            lazy,
            campaigns,
            reference: None,
            latency: (0.0, 0.0, 0),
        }
    }

    /// Tasks one repetition completes.
    pub fn tasks(&self) -> usize {
        self.campaigns.iter().map(GwasWorkload::task_count).sum()
    }

    /// Runs the campaigns once; `between` runs after set-up, before the
    /// timed region. `traced` wraps the scheduler (and the source, when
    /// lazy) and fills the repetition's layer metrics.
    pub fn rep(&mut self, traced: bool, between: &mut dyn FnMut()) -> Rep {
        let expected = self.tasks();
        let n_campaigns = self.campaigns.len();
        let log = traced.then(|| SpanLog::with_capacity(3 * expected + 16));
        let mut results: Vec<CampaignResult> = Vec::with_capacity(n_campaigns);
        let mut region = Region::start();

        let t_setup = Instant::now();
        let build_t = Instant::now();
        let workloads: Vec<SimWorkload> = if self.lazy {
            Vec::new()
        } else {
            self.campaigns.iter().map(GwasWorkload::build).collect()
        };
        let build_s = build_t.elapsed().as_secs_f64();
        let mut sources: Vec<GwasSource> = if self.lazy {
            self.campaigns
                .iter()
                .map(|c| c.clone().into_source(WINDOW))
                .collect()
        } else {
            Vec::new()
        };
        let runtime = SimRuntime::new(platform(), SimOptions::default());
        let mut schedulers: Vec<LocalityScheduler> =
            (0..n_campaigns).map(|_| LocalityScheduler::new()).collect();
        let setup_s = t_setup.elapsed().as_secs_f64();
        region.exclude(between);

        let root = log.as_ref().map_or(NO_PARENT, SpanLog::open);
        let (mut sched_counts, mut source_counts) =
            (SchedCounts::default(), SourceCounts::default());
        let allocs0 = region.allocs();
        let (cpu0, tcpu0) = (process_cpu_s(), thread_cpu_s());
        let t0 = now_ns();
        for (i, plain) in schedulers.iter_mut().enumerate() {
            let mut wrapped;
            let sched: &mut dyn Scheduler = match log.as_ref() {
                Some(log) => {
                    wrapped = TracedScheduler {
                        inner: plain,
                        log,
                        root,
                        counts: &mut sched_counts,
                    };
                    &mut wrapped
                }
                None => plain,
            };
            let faults = FaultPlan::new();
            let result = if self.lazy {
                let source = &mut sources[i];
                let run = match log.as_ref() {
                    Some(log) => {
                        let mut traced_source = TracedSource {
                            inner: source,
                            log,
                            root,
                            counts: &mut source_counts,
                        };
                        runtime.run_lazy(&mut traced_source, sched, &faults)
                    }
                    None => runtime.run_lazy(source, sched, &faults),
                };
                run.map(|mut o| {
                    let outcome = Outcome {
                        tasks: o.report.tasks_completed,
                        makespan_s: o.report.makespan_s,
                        events: Some(o.events_processed),
                        trace: std::mem::take(&mut o.trace),
                    };
                    (outcome, Some(o))
                })
            } else {
                runtime
                    .run_traced(&workloads[i], sched, &faults)
                    .map(|(report, trace)| {
                        let outcome = Outcome {
                            tasks: report.tasks_completed,
                            makespan_s: report.makespan_s,
                            events: None,
                            trace,
                        };
                        (outcome, None)
                    })
            };
            results.push(result);
        }
        let t1 = now_ns();
        let (cpu_s, tcpu_s) = (process_cpu_s() - cpu0, thread_cpu_s() - tcpu0);
        let wall_s = (t1 - t0) as f64 * 1e-9;
        let allocs = region.allocs() - allocs0;
        let peak_bytes = region.peak_growth();
        let threads = crate::clock::process_threads();

        let mut rep = Rep {
            setup_s,
            wall_s,
            cpu_s,
            ops: expected as u64,
            failed: 0,
            allocs,
            peak_bytes,
            latency: self.latency,
            threads,
            layers: Vec::new(),
            tiling_ok: true,
            spans: None,
            slowdown: 1.0,
        };
        let mut outcomes = Vec::with_capacity(n_campaigns);
        let mut lazy_outcomes = Vec::new();
        for (result, campaign) in results.into_iter().zip(&self.campaigns) {
            match result {
                Ok((outcome, lazy)) => {
                    if outcome.tasks != campaign.task_count() {
                        eprintln!(
                            "completed {} of {} tasks",
                            outcome.tasks,
                            campaign.task_count()
                        );
                        rep.failed += campaign.task_count().abs_diff(outcome.tasks) as u64;
                    }
                    outcomes.push(outcome);
                    lazy_outcomes.extend(lazy);
                }
                Err(e) => {
                    eprintln!("campaign failed: {e}");
                    rep.failed = expected as u64;
                    return rep;
                }
            }
        }
        match &self.reference {
            None => {
                self.latency = latency_us(&outcomes);
                rep.latency = self.latency;
                self.reference = Some(outcomes);
            }
            Some(reference) if *reference != outcomes => {
                for (now, first) in outcomes.iter().zip(reference) {
                    eprintln!(
                        "outcome vs the first repetition (traced: {traced}): \
                         makespan {} vs {}, events {:?} vs {:?}, traces equal: {}",
                        now.makespan_s,
                        first.makespan_s,
                        now.events,
                        first.events,
                        now.trace == first.trace
                    );
                }
                rep.failed = expected as u64;
            }
            Some(_) => {}
        }

        if let Some(log) = &log {
            log.close(root, NO_PARENT, "run", t0, t1);
            let layers = log.layers();
            let self_s = |name: &str| layers.get(name).map_or(0.0, |l| l.self_ns as f64 * 1e-9);
            let sched_s = self_s("sched.place");
            let source_s = self_s("source.call");
            let sink_s = self_s("sink.submit");
            // The engine (event loop, settle, retire, the access
            // processor behind the sink) is the main thread's CPU
            // outside the wrapped calls.
            let engine_s = tcpu_s - sched_s - source_s;
            let n = expected as f64;
            let sc = &sched_counts;
            let per_call = |v: f64| v / sc.calls.max(1) as f64;
            let mut m = vec![
                ("sched.calls", sc.calls as f64),
                ("sched.busy_share", sched_s / cpu_s),
                ("sched.us_per_call", per_call(sched_s * 1e6)),
                ("sched.ready_per_call", per_call(sc.ready as f64)),
                (
                    "sched.placed_per_ready",
                    sc.placed as f64 / sc.ready.max(1) as f64,
                ),
                ("sched.allocs_per_call", per_call(sc.allocs as f64)),
                ("engine.self_share", engine_s / cpu_s),
                ("engine.heap_bytes_per_task", peak_bytes as f64 / n),
                ("workflows.build_s", build_s),
            ];
            if self.lazy {
                let src = &source_counts;
                let max = |f: fn(&LazyRunOutcome) -> usize| {
                    lazy_outcomes.iter().map(f).max().unwrap_or(0) as f64
                };
                let events: u64 = lazy_outcomes.iter().map(|o| o.events_processed).sum();
                let retired: usize = lazy_outcomes.iter().map(|o| o.retired_tasks).sum();
                m.extend([
                    ("source.calls", src.calls as f64),
                    ("source.busy_share", source_s / cpu_s),
                    (
                        "source.us_per_call",
                        source_s * 1e6 / src.calls.max(1) as f64,
                    ),
                    ("source.submits", src.submits as f64),
                    (
                        "source.allocs_per_task",
                        (src.allocs - src.sink_allocs) as f64 / src.submits.max(1) as f64,
                    ),
                    ("engine.sink_share", sink_s / cpu_s),
                    ("engine.events_per_task", events as f64 / n),
                    ("engine.peak_event_queue", max(|o| o.peak_event_queue)),
                    (
                        "engine.peak_materialized_tasks",
                        max(|o| o.peak_materialized_tasks),
                    ),
                    ("engine.peak_live_values", max(|o| o.peak_live_values)),
                    ("engine.retired_tasks", retired as f64),
                ]);
            }
            // Tiling: the wall-clock spans must fit inside the thread's
            // CPU time (the engine residual stays non-negative), and
            // the one thread must account for the whole process CPU.
            let thread_gap = (cpu_s - tcpu_s).abs() / cpu_s;
            let residual = engine_s / cpu_s;
            let tiling_error = thread_gap.max((-residual).max(0.0));
            rep.tiling_ok = tiling_error <= TILING_TOLERANCE;
            m.push(("ledger.tiling_error", tiling_error));
            rep.layers = m;
        }
        drop((runtime, workloads, sources));
        rep.spans = log;
        rep
    }
}

/// Simulated start-to-end latency of every task, in virtual µs.
fn latency_us(outcomes: &[Outcome]) -> (f64, f64, usize) {
    let mut v: Vec<u64> = outcomes
        .iter()
        .flat_map(|o| o.trace.records())
        .map(|r| ((r.end_s - r.start_s) * 1e6).round() as u64)
        .collect();
    v.sort_unstable();
    (
        percentile(&v, 50.0) as f64,
        percentile(&v, 99.0) as f64,
        v.len(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_changes_the_schedule_but_not_the_invariants() {
        for lazy in [true, false] {
            let mut makespans = Vec::new();
            for seed in [1u64, 2] {
                let mut gwas = Gwas::new(lazy, seed, 6, 2);
                // The traced repetition must reproduce the untraced one
                // bit for bit; a mismatch would mark its ops failed.
                for traced in [false, true, false] {
                    let rep = gwas.rep(traced, &mut || {});
                    assert_eq!(rep.failed, 0, "lazy {lazy} seed {seed} traced {traced}");
                    assert_eq!(rep.ops, gwas.tasks() as u64);
                }
                let reference = gwas.reference.as_ref().expect("first repetition");
                assert_eq!(reference.len(), 2);
                assert_eq!(reference[0].tasks, CHROMOSOMES * 6 * 3 + CHROMOSOMES + 1);
                assert_ne!(reference[0].makespan_s, reference[1].makespan_s);
                makespans.push(reference[0].makespan_s);
            }
            assert_ne!(makespans[0], makespans[1], "seed must change the inputs");
        }
    }
}
