//! Property-based check of the lazy GWAS path the sim_bench measures:
//! for arbitrary campaign shapes, windows and platforms, the lazily
//! materialized run completes every task with residency counters that
//! never exceed the campaign.

use continuum_platform::{NodeSpec, Platform, PlatformBuilder};
use continuum_runtime::{LazyRunOutcome, LocalityScheduler, SimOptions, SimRuntime};
use continuum_sim::FaultPlan;
use continuum_workflows::GwasWorkload;
use proptest::prelude::*;

fn platform(nodes: usize) -> Platform {
    PlatformBuilder::new()
        .cluster("mn", nodes, NodeSpec::hpc(4, 96_000))
        .build()
}

fn run_lazy_gwas(
    chromosomes: usize,
    chunks: usize,
    window: usize,
    nodes: usize,
    seed: u64,
) -> LazyRunOutcome {
    let mut source = GwasWorkload::new()
        .chromosomes(chromosomes)
        .chunks_per_chromosome(chunks)
        .seed(seed)
        .into_source(window);
    SimRuntime::new(platform(nodes), SimOptions::default())
        .run_lazy(
            &mut source,
            &mut LocalityScheduler::new(),
            &FaultPlan::new(),
        )
        .expect("lazy GWAS completes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The campaign always completes, and the frontier and retirement
    /// counters stay within the campaign size.
    #[test]
    fn lazy_gwas_completes_with_bounded_residency(
        chromosomes in 1usize..4,
        chunks in 1usize..8,
        window in 1usize..6,
        nodes in 1usize..4,
        seed in 0u64..200,
    ) {
        let out = run_lazy_gwas(chromosomes, chunks, window, nodes, seed);
        prop_assert_eq!(out.report.tasks_completed, out.total_tasks);
        prop_assert!(out.peak_materialized_tasks <= out.total_tasks);
        prop_assert!(out.retired_tasks <= out.total_tasks);
    }
}
