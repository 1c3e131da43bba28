//! Paper-scale SimRuntime macro-benchmark driver: times lazy GWAS
//! campaigns at 10⁴–10⁶ tasks and records the results in a labelled,
//! mergeable JSON file.
//!
//! ```text
//! cargo run --release -p continuum-bench --bin sim_bench -- --label lazy
//! cargo run --release -p continuum-bench --bin sim_bench -- --smoke --check
//! ```
//!
//! `--label <name>` stores this binary's measurements under that name
//! in the output file (default `BENCH_sim.json`), preserving runs
//! recorded under other labels. `--smoke` keeps only the 10⁴-task
//! campaign for CI. `--check` runs every scale a second time, asserts
//! the two runs produce bit-for-bit identical execution traces and
//! exits non-zero otherwise — the determinism every simulated result
//! rests on.

use continuum_bench::sim_bench::{cases, measure, SimMeasurement};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts heap allocations and tracks peak live bytes. Allocation
/// count is "how many times the engine asked the allocator for
/// memory"; peak bytes is the resident high-water mark of everything
/// allocated through this process (campaign state included).
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers entirely to the system allocator; the counters are
// relaxed atomics with no other side effects.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        let live =
            LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed) + layout.size() as u64;
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        let old = layout.size() as u64;
        let new = new_size as u64;
        if new >= old {
            let live = LIVE_BYTES.fetch_add(new - old, Ordering::Relaxed) + (new - old);
            PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
        } else {
            LIVE_BYTES.fetch_sub(old - new, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn alloc_stats() -> (u64, u64) {
    (
        ALLOCATIONS.load(Ordering::Relaxed),
        PEAK_BYTES.load(Ordering::Relaxed),
    )
}

/// Rebases the peak tracker to the current live level, so each run's
/// peak reflects that run and not an earlier, larger one.
fn reset_peak() {
    PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn measurement_to_value(m: &SimMeasurement) -> serde::Value {
    serde::Serialize::to_json_value(m)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let check = args.iter().any(|a| a == "--check");
    let label = flag_value(&args, "--label").unwrap_or_else(|| "current".to_string());
    let out_path = flag_value(&args, "--out").unwrap_or_else(|| "BENCH_sim.json".to_string());

    println!(
        "sim macro-bench — lazy GWAS campaigns, {} scale, label `{label}`",
        if smoke { "smoke" } else { "full" }
    );
    println!(
        "{:<6} {:>9} {:>9} {:>10} {:>12} {:>10} {:>10} {:>9} {:>12}",
        "case",
        "tasks",
        "events",
        "wall_ms",
        "events/s",
        "peak_mat",
        "peak_vals",
        "peak_evq",
        "peak_bytes"
    );
    let mut results = Vec::new();
    let mut mismatched = false;
    for case in cases(smoke) {
        reset_peak();
        let (m, trace) = measure(&case, alloc_stats);
        println!(
            "{:<6} {:>9} {:>9} {:>10.1} {:>12.0} {:>10} {:>10} {:>9} {:>12}",
            m.case,
            m.tasks,
            m.events,
            m.wall_ms,
            m.events_per_sec,
            m.peak_materialized_tasks,
            m.peak_live_values,
            m.peak_event_queue,
            m.peak_resident_bytes
        );
        results.push(m);
        if check && measure(&case, alloc_stats).1 != trace {
            eprintln!("MISMATCH: two runs' traces differ at scale {}", case.name);
            mismatched = true;
        }
    }
    if check && !mismatched {
        println!("\ncheck: two runs' execution traces are identical at every scale");
    }

    // Merge into the output file, preserving other labels.
    let mut runs: Vec<(String, serde::Value)> = match std::fs::read_to_string(&out_path) {
        Ok(text) => serde::json::parse(&text)
            .ok()
            .and_then(|doc| {
                doc.get("runs")
                    .and_then(|r| r.as_obj().map(<[(String, serde::Value)]>::to_vec))
            })
            .unwrap_or_default(),
        Err(_) => Vec::new(),
    };
    let entry = serde::Value::Obj(vec![
        (
            "scale".to_string(),
            serde::Value::Str(if smoke { "smoke" } else { "full" }.to_string()),
        ),
        (
            "results".to_string(),
            serde::Value::Arr(results.iter().map(measurement_to_value).collect()),
        ),
    ]);
    runs.retain(|(k, _)| *k != label);
    runs.push((label.clone(), entry));
    let doc = serde::Value::Obj(vec![
        (
            "bench".to_string(),
            serde::Value::Str("sim-macro".to_string()),
        ),
        ("runs".to_string(), serde::Value::Obj(runs)),
    ]);
    if let Err(e) = std::fs::write(&out_path, doc.to_string() + "\n") {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {} result(s) to {out_path}", results.len());

    if mismatched {
        std::process::exit(2);
    }
}
