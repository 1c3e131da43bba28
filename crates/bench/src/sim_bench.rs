//! Paper-scale SimRuntime macro-benchmark: the wall-clock and memory
//! cost of simulating the §VI-A GWAS campaign at 10⁴, 10⁵ and 10⁶
//! tasks, with the graph materialized lazily (a [`GwasSource`] window
//! ahead of the execution frontier) instead of built up front.
//!
//! Two things are measured per scale:
//!
//! * **event throughput** — discrete events processed per wall-clock
//!   second, which bounds simulation fidelity at campaign scale;
//! * **residency** — peak materialized tasks, peak live values and
//!   peak heap bytes, which lazy materialization keeps proportional to
//!   the frontier (window + one chromosome) rather than the campaign.
//!
//! Results are written to `BENCH_sim.json` by the `sim_bench` binary:
//!
//! ```text
//! cargo run --release -p continuum-bench --bin sim_bench -- --label lazy
//! cargo run --release -p continuum-bench --bin sim_bench -- --smoke --check
//! ```
//!
//! `--check` additionally runs every scale twice and asserts the two
//! runs produce bit-for-bit identical execution traces.

use continuum_platform::{NodeSpec, Platform, PlatformBuilder};
use continuum_runtime::{LazyRunOutcome, LocalityScheduler, SimOptions, SimRuntime};
use continuum_sim::{ExecutionTrace, FaultPlan};
use continuum_workflows::GwasWorkload;
use serde::Serialize;
use std::time::Instant;

/// One campaign scale pinned to a platform.
pub struct SimCase {
    /// Scale name (`1e4`, `1e5`, `1e6`).
    pub name: &'static str,
    /// Campaign parameters (chromosomes × chunks chosen so the task
    /// count lands on the scale's order of magnitude).
    pub campaign: GwasWorkload,
    /// Chunk pipelines materialized ahead of the frontier.
    pub window: usize,
    /// Nodes of the MareNostrum-class platform.
    pub nodes: usize,
}

impl SimCase {
    /// Number of tasks this case's campaign generates.
    pub fn task_count(&self) -> usize {
        self.campaign.task_count()
    }

    fn platform(&self) -> Platform {
        PlatformBuilder::new()
            .cluster("mn4", self.nodes, NodeSpec::hpc(48, 96_000))
            .build()
    }
}

/// The benchmark scales. `smoke` keeps only the 10⁴-task campaign
/// (CI budget); the full sweep adds 10⁵ and 10⁶. Task counts follow
/// `c·k·3 + c + 1` for `c` chromosomes × `k` chunks.
pub fn cases(smoke: bool) -> Vec<SimCase> {
    let mut v = vec![SimCase {
        name: "1e4",
        campaign: GwasWorkload::new()
            .chromosomes(22)
            .chunks_per_chromosome(151),
        window: 256,
        nodes: 100,
    }];
    if !smoke {
        v.push(SimCase {
            name: "1e5",
            campaign: GwasWorkload::new()
                .chromosomes(22)
                .chunks_per_chromosome(1_515),
            window: 256,
            nodes: 100,
        });
        v.push(SimCase {
            name: "1e6",
            campaign: GwasWorkload::new()
                .chromosomes(22)
                .chunks_per_chromosome(15_151),
            window: 256,
            nodes: 100,
        });
    }
    v
}

/// One timed lazy run of one scale.
#[derive(Debug, Clone, Serialize)]
pub struct SimMeasurement {
    /// Scale name.
    pub case: String,
    /// Tasks completed (the whole campaign).
    pub tasks: usize,
    /// Discrete events processed.
    pub events: u64,
    /// Wall-clock milliseconds for the run.
    pub wall_ms: f64,
    /// Events processed per wall-clock second.
    pub events_per_sec: f64,
    /// Simulated (virtual) makespan.
    pub makespan_s: f64,
    /// Peak materialized (non-retired) tasks — the frontier
    /// high-water mark lazy materialization is about.
    pub peak_materialized_tasks: usize,
    /// Tasks retired (payload tombstoned) over the run.
    pub retired_tasks: usize,
    /// Peak live values in the data registry.
    pub peak_live_values: usize,
    /// Peak event-queue occupancy.
    pub peak_event_queue: usize,
    /// Heap allocations during the run (0 without a counter).
    pub allocations: u64,
    /// Peak resident heap bytes during the run (0 without a counter).
    pub peak_resident_bytes: u64,
}

/// Runs `case` lazily, returning the measurement and the execution
/// trace (for run-to-run identity checks).
/// `alloc_stats` samples `(allocation count, peak live bytes)` from a
/// counting global allocator; library callers can pass `|| (0, 0)`.
///
/// # Panics
///
/// Panics if the campaign fails to complete.
pub fn measure(
    case: &SimCase,
    alloc_stats: impl Fn() -> (u64, u64),
) -> (SimMeasurement, ExecutionTrace) {
    let runtime = SimRuntime::new(case.platform(), SimOptions::default());
    let mut source = case.campaign.clone().into_source(case.window);
    let (allocs_before, _) = alloc_stats();
    let start = Instant::now();
    let outcome: LazyRunOutcome = runtime
        .run_lazy(
            &mut source,
            &mut LocalityScheduler::new(),
            &FaultPlan::new(),
        )
        .expect("bench campaign completes");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let (allocs_after, peak_bytes) = alloc_stats();
    let m = SimMeasurement {
        case: case.name.to_string(),
        tasks: outcome.report.tasks_completed,
        events: outcome.events_processed,
        wall_ms,
        events_per_sec: outcome.events_processed as f64 / (wall_ms / 1e3),
        makespan_s: outcome.report.makespan_s,
        peak_materialized_tasks: outcome.peak_materialized_tasks,
        retired_tasks: outcome.retired_tasks,
        peak_live_values: outcome.peak_live_values,
        peak_event_queue: outcome.peak_event_queue,
        allocations: allocs_after - allocs_before,
        peak_resident_bytes: peak_bytes,
    };
    (m, outcome.trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_scale_completes_and_runs_agree() {
        // A sub-smoke campaign so `cargo test` stays fast; the real
        // 10⁴ scale runs in the binary's --smoke mode.
        let case = SimCase {
            name: "test",
            campaign: GwasWorkload::new().chromosomes(2).chunks_per_chromosome(40),
            window: 8,
            nodes: 10,
        };
        let (first, first_trace) = measure(&case, || (0, 0));
        let (second, second_trace) = measure(&case, || (0, 0));
        assert_eq!(first.tasks, case.task_count());
        assert_eq!(first_trace, second_trace, "runs must agree bit-for-bit");
        assert_eq!(first.makespan_s, second.makespan_s);
        assert_eq!(first.events, second.events);
        // Lazy materialization keeps the frontier well under the
        // campaign size even at test scale.
        assert!(
            first.peak_materialized_tasks < case.task_count() / 2,
            "peak {} vs total {}",
            first.peak_materialized_tasks,
            case.task_count()
        );
        assert!(first.retired_tasks > 0);
    }
}
