//! The threaded engine's workloads: a task DAG of diamond blocks
//! (`local-dag`) and an async four-stage stream pipeline
//! (`local-stream`), both on one worker thread plus the submitting
//! main thread.
//!
//! Task values and stream elements carry the benchmark's time stamps,
//! so latency is measured inside the data the runtime moves: a task
//! records from the moment it became ready to its body's start, an
//! element from its source stamp to its receipt at the sink.

use crate::alloc::{self, Region};
use crate::clock::{
    clock_s, now_ns, process_cpu_s, process_threads, this_thread_clock, thread_cpu_s,
};
use crate::spans::{SpanLog, NO_PARENT};
use crate::stats::percentile;
use crate::{Rep, TILING_TOLERANCE};
use continuum_dag::TaskSpec;
use continuum_platform::Constraints;
use continuum_runtime::{LocalConfig, LocalRuntime, TaskContext};
use std::cell::Cell;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicI32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::Instant;

/// Worker threads of the local engine. With two vCPUs, one worker plus
/// the submitting main thread keeps every thread on its own CPU.
pub const WORKERS: usize = 1;
/// Branches per diamond block.
const WIDTH: usize = 8;
/// Diamond blocks per repetition (`WIDTH + 2` tasks each).
pub const DAG_BLOCKS: usize = 2_000;
/// Elements per repetition of the stream pipeline.
pub const STREAM_ELEMENTS: usize = 100_000;
/// Capacity of each stream channel.
const STREAM_CAPACITY: usize = 64;

/// Splitmix-style mixer: every output bit depends on every input bit.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Latency samples and optional spans shared with task bodies. The
/// sample buffer is allocated before the timed region.
struct Probe {
    samples: Vec<AtomicU64>,
    next: AtomicUsize,
    log: Option<SpanLog>,
    root: u32,
    worker_clock: AtomicI32,
}

impl Probe {
    fn new(samples: usize, traced: bool, spans: usize) -> Arc<Self> {
        let log = traced.then(|| SpanLog::with_capacity(spans));
        let root = log.as_ref().map_or(NO_PARENT, SpanLog::open);
        Arc::new(Probe {
            samples: (0..samples).map(|_| AtomicU64::new(0)).collect(),
            next: AtomicUsize::new(0),
            log,
            root,
            worker_clock: AtomicI32::new(0),
        })
    }

    fn sample(&self, ns: u64) {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = self.samples.get(i) {
            slot.store(ns, Ordering::Relaxed);
        }
    }

    fn span(&self, name: &'static str, start_ns: u64, end_ns: u64) {
        if let Some(log) = &self.log {
            log.close(log.open(), self.root, name, start_ns, end_ns);
        }
    }

    /// p50, p99 (µs) and count of the recorded samples.
    fn latency_us(&self) -> (f64, f64, usize) {
        let n = self.next.load(Ordering::Relaxed).min(self.samples.len());
        if n == 0 {
            return (0.0, 0.0, 0);
        }
        let mut v: Vec<u64> = self.samples[..n]
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .collect();
        v.sort_unstable();
        (
            percentile(&v, 50.0) as f64 / 1e3,
            percentile(&v, 99.0) as f64 / 1e3,
            n,
        )
    }

    /// Runs a task on the worker that records its CPU clock, so the
    /// ledger can read the worker's CPU time from the main thread.
    fn find_worker_clock(self: &Arc<Self>, rt: &LocalRuntime) {
        let probe = Arc::clone(self);
        let out = rt.data::<()>("clock");
        rt.submit(
            TaskSpec::new("clock").output(out.id()),
            Constraints::new(),
            move |ctx| {
                let clock = this_thread_clock();
                probe.worker_clock.store(clock, Ordering::Relaxed);
                ctx.set_output(0, ());
            },
        )
        .expect("clock probe admitted");
        rt.wait_all().expect("clock probe completes");
    }
}

fn runtime() -> LocalRuntime {
    LocalRuntime::new(LocalConfig::default().worker_threads(WORKERS))
}

/// CPU split of one local repetition, for the ledger's tiling check.
struct CpuSplit {
    process_s: f64,
    main_s: f64,
    worker_s: f64,
}

impl CpuSplit {
    /// Spans must fit inside their thread's CPU time (each residual is
    /// non-negative), and main plus worker must account for the
    /// process. Returns the largest violation as a share of the
    /// process CPU.
    fn tiling_error(&self, main_spans_s: f64, worker_spans_s: f64) -> f64 {
        let p = self.process_s;
        let threads = (self.main_s + self.worker_s - p).abs() / p;
        let main = (main_spans_s - self.main_s).max(0.0) / p;
        let worker = (worker_spans_s - self.worker_s).max(0.0) / p;
        threads.max(main).max(worker)
    }
}

/// A task value: the payload and the wall stamp its body ended at.
#[derive(Clone, Copy)]
struct Stamped {
    v: u64,
    end_ns: u64,
}

/// Body wrapper: records ready-to-start latency (ready is the later of
/// the submit call and the last input's end stamp), runs `f` over the
/// input payloads and stamps the output.
fn stamped_body(
    probe: &Probe,
    submitted_ns: u64,
    ctx: &mut TaskContext,
    f: impl FnOnce(&TaskContext) -> u64,
) {
    let start = now_ns();
    let ready = (0..ctx.input_count())
        .map(|i| ctx.input::<Stamped>(i).end_ns)
        .fold(submitted_ns, u64::max);
    probe.sample(start.saturating_sub(ready));
    let v = f(ctx);
    let end = now_ns();
    ctx.set_output(0, Stamped { v, end_ns: end });
    probe.span("local.body", start, end);
}

/// Lane constant of branch `lane` under `seed`.
fn lane(seed: u64, lane: usize) -> u64 {
    mix(seed ^ (lane as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f))
}

/// The DAG's carry after `blocks` blocks, folded sequentially.
pub fn dag_reference(seed: u64, blocks: usize) -> u64 {
    let mut carry = mix(seed);
    for b in 0..blocks {
        let src = mix(carry ^ b as u64);
        let branches = (0..WIDTH).fold(0u64, |acc, l| {
            acc.wrapping_add(mix(src.wrapping_add(lane(seed, l))))
        });
        carry = mix(carry.wrapping_add(branches));
    }
    carry
}

/// The diamond-block DAG: a source reads the running carry, eight
/// branches read the source, and a join folds them into the carry
/// (`InOut`).
pub struct Dag {
    seed: u64,
    blocks: usize,
    expected: u64,
}

impl Dag {
    pub fn new(seed: u64, blocks: usize) -> Self {
        Dag {
            seed,
            blocks,
            expected: dag_reference(seed, blocks),
        }
    }

    pub fn tasks(&self) -> usize {
        self.blocks * (WIDTH + 2)
    }

    pub fn rep(&mut self, traced: bool, between: &mut dyn FnMut()) -> Rep {
        let tasks = self.tasks();
        let probe = Probe::new(tasks, traced, 2 * tasks + 4 * self.blocks + 8);
        let seed = self.seed;
        let mut region = Region::start();

        let t_setup = Instant::now();
        let rt = runtime();
        let carry = rt.data::<Stamped>("carry");
        rt.set_initial(
            &carry,
            Stamped {
                v: mix(seed),
                end_ns: 0,
            },
        );
        let setup_s = t_setup.elapsed().as_secs_f64();
        if traced {
            probe.find_worker_clock(&rt);
        }
        let worker_clock = probe.worker_clock.load(Ordering::Relaxed);
        region.exclude(between);

        let mut failed = 0u64;
        let mut data_ns = 0u64;
        let (submit_ns, submit_allocs) = (Cell::new(0u64), Cell::new(0u64));
        let mut live_peak = 0usize;
        // Submits one task whose body maps its inputs with `f(ctx, arg)`;
        // the spec is built inside the timed call, as a user builds it.
        let submit = |spec: &dyn Fn() -> TaskSpec, f: fn(&TaskContext, u64) -> u64, arg: u64| {
            let a0 = alloc::thread_allocs();
            let submitted = now_ns();
            let p = Arc::clone(&probe);
            let ok = rt
                .submit(spec(), Constraints::new(), move |ctx| {
                    stamped_body(&p, submitted, ctx, |ctx| f(ctx, arg))
                })
                .is_ok();
            if traced {
                let end = now_ns();
                submit_ns.set(submit_ns.get() + end - submitted);
                submit_allocs.set(submit_allocs.get() + alloc::thread_allocs() - a0);
                probe.span("local.submit", submitted, end);
            }
            ok
        };

        let allocs0 = region.allocs();
        let (cpu0, main0) = (process_cpu_s(), thread_cpu_s());
        let worker0 = traced.then(|| clock_s(worker_clock));
        let t0 = now_ns();
        for b in 0..self.blocks {
            let d0 = now_ns();
            let src = rt.data::<Stamped>(format!("src{b}"));
            let branches = rt.data_batch::<Stamped>("br", WIDTH);
            if traced {
                let d1 = now_ns();
                data_ns += d1 - d0;
                probe.span("local.data", d0, d1);
            }
            let mut ok = submit(
                &|| TaskSpec::new("src").input(carry.id()).output(src.id()),
                |ctx, b| mix(ctx.input::<Stamped>(0).v ^ b),
                b as u64,
            );
            for (l, br) in branches.iter().enumerate() {
                ok &= submit(
                    &|| TaskSpec::new("branch").input(src.id()).output(br.id()),
                    |ctx, c| mix(ctx.input::<Stamped>(0).v.wrapping_add(c)),
                    lane(seed, l),
                );
            }
            ok &= submit(
                &|| {
                    TaskSpec::new("join")
                        .inputs(branches.iter().map(|d| d.id()))
                        .inout(carry.id())
                },
                |ctx, _| {
                    let n = ctx.input_count();
                    let branches =
                        (0..n - 1).fold(0u64, |acc, i| acc.wrapping_add(ctx.input::<Stamped>(i).v));
                    mix(ctx.input::<Stamped>(n - 1).v.wrapping_add(branches))
                },
                0,
            );
            if !ok {
                failed += (WIDTH + 2) as u64;
            }
            if traced && b % 16 == 0 {
                live_peak = live_peak.max(rt.live_value_count());
            }
        }
        let drain0 = now_ns();
        let drained = rt.wait_all();
        let t1 = now_ns();
        let cpu = CpuSplit {
            process_s: process_cpu_s() - cpu0,
            main_s: thread_cpu_s() - main0,
            worker_s: worker0.map_or(0.0, |w0| clock_s(worker_clock) - w0),
        };
        let allocs = region.allocs() - allocs0;
        let peak_bytes = region.peak_growth();
        let threads = process_threads();

        if let Err(e) = &drained {
            eprintln!("local-dag run failed: {e}");
            failed = tasks as u64;
        } else {
            let lost = tasks.saturating_sub(rt.completed_count() - usize::from(traced));
            failed += lost as u64;
            match rt.get(&carry) {
                Ok(c) if c.v == self.expected => {}
                _ => {
                    eprintln!("local-dag checksum differs from the sequential fold");
                    failed = tasks as u64;
                }
            }
        }
        let mut rep = Rep {
            setup_s,
            wall_s: (t1 - t0) as f64 * 1e-9,
            cpu_s: cpu.process_s,
            ops: tasks as u64,
            failed,
            allocs,
            peak_bytes,
            latency: probe.latency_us(),
            threads,
            layers: Vec::new(),
            tiling_ok: true,
            spans: None,
            slowdown: 1.0,
        };
        if let Some(log) = &probe.log {
            log.close(probe.root, NO_PARENT, "run", t0, t1);
            let body_s = log
                .layers()
                .get("local.body")
                .map_or(0.0, |l| l.self_ns as f64 * 1e-9);
            probe.span("local.drain", drain0, t1);
            let submit_s = submit_ns.get() as f64 * 1e-9;
            let n = tasks as f64;
            let tiling = cpu.tiling_error(submit_s + data_ns as f64 * 1e-9, body_s);
            rep.tiling_ok = tiling <= TILING_TOLERANCE;
            rep.layers = vec![
                ("local.submit_us_per_task", submit_s * 1e6 / n),
                ("local.submit_share", submit_s / rep.wall_s),
                ("local.allocs_per_submit", submit_allocs.get() as f64 / n),
                (
                    "local.worker_cpu_us_per_task",
                    (cpu.worker_s - body_s) * 1e6 / n,
                ),
                ("local.drain_s", (t1 - drain0) as f64 * 1e-9),
                ("local.live_values_peak", live_peak as f64),
                ("local.inflight_high_water", rt.inflight_high_water() as f64),
                ("local.heap_bytes_per_task", peak_bytes as f64 / n),
                ("ledger.tiling_error", tiling),
            ];
        }
        drop(rt);
        rep.spans = Arc::into_inner(probe).and_then(|p| p.log);
        rep
    }
}

/// One stream element: the payload and its source stamp.
struct Elem {
    v: u64,
    sent_ns: u64,
}

/// Counters of the stream wrappers, shared by the four tasks.
#[derive(Default)]
struct StreamCounters {
    parks: [AtomicU64; 2],
    parked_now: AtomicUsize,
    parked_peak: AtomicUsize,
}

const SEND: usize = 0;
const RECV: usize = 1;

/// Wraps a stream `send_async`/`recv_async` future: counts each
/// `Poll::Pending` (a park of the task) and records a span from the
/// first poll to `Ready`, as a child of the task's body span.
struct Watched<'p, F> {
    inner: F,
    probe: &'p Probe,
    counters: &'p StreamCounters,
    kind: usize,
    parent: u32,
    start_ns: u64,
    parked: bool,
}

impl<F: Future + Unpin> Future for Watched<'_, F> {
    type Output = F::Output;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        let this = self.get_mut();
        let Some(log) = &this.probe.log else {
            return Pin::new(&mut this.inner).poll(cx);
        };
        if this.start_ns == 0 {
            this.start_ns = now_ns();
        }
        if this.parked {
            this.parked = false;
            this.counters.parked_now.fetch_sub(1, Ordering::Relaxed);
        }
        match Pin::new(&mut this.inner).poll(cx) {
            Poll::Ready(v) => {
                let name = if this.kind == SEND {
                    "stream.send"
                } else {
                    "stream.recv"
                };
                log.close(log.open(), this.parent, name, this.start_ns, now_ns());
                Poll::Ready(v)
            }
            Poll::Pending => {
                this.parked = true;
                this.counters.parks[this.kind].fetch_add(1, Ordering::Relaxed);
                let now = this.counters.parked_now.fetch_add(1, Ordering::Relaxed) + 1;
                this.counters.parked_peak.fetch_max(now, Ordering::Relaxed);
                Poll::Pending
            }
        }
    }
}

fn watch<'p, F>(
    probe: &'p Probe,
    counters: &'p StreamCounters,
    parent: u32,
    kind: usize,
    inner: F,
) -> Watched<'p, F> {
    Watched {
        inner,
        probe,
        counters,
        kind,
        parent,
        start_ns: 0,
        parked: false,
    }
}

/// Per-stage affine maps `v -> v * m + a` of the two middle stages.
fn stage_maps(seed: u64) -> [(u64, u64); 2] {
    [
        (mix(seed ^ 1) | 1, mix(seed ^ 2)),
        (mix(seed ^ 3) | 1, mix(seed ^ 4)),
    ]
}

/// First element value emitted by the source under `seed`.
fn stream_base(seed: u64) -> u64 {
    mix(seed ^ 5)
}

/// The sink's sum in closed form: the source emits `base + i`, the
/// stages are affine, and wrapping arithmetic is a ring, so the sum is
/// `m * Σ(base + i) + n * a` for the composed map `v -> v * m + a`.
pub fn stream_reference(seed: u64, n: u64) -> u64 {
    let [(m1, a1), (m2, a2)] = stage_maps(seed);
    let (m, a) = (m1.wrapping_mul(m2), a1.wrapping_mul(m2).wrapping_add(a2));
    let tri = (u128::from(n) * u128::from(n.saturating_sub(1)) / 2) as u64;
    let sum_in = n.wrapping_mul(stream_base(seed)).wrapping_add(tri);
    m.wrapping_mul(sum_in).wrapping_add(n.wrapping_mul(a))
}

/// `source → stage → stage → sink` over bounded stream channels, every
/// task an async body parked on `send_async`/`recv_async`.
pub struct Stream {
    seed: u64,
    elements: usize,
    expected: u64,
}

impl Stream {
    pub fn new(seed: u64, elements: usize) -> Self {
        Stream {
            seed,
            elements,
            expected: stream_reference(seed, elements as u64),
        }
    }

    pub fn rep(&mut self, traced: bool, between: &mut dyn FnMut()) -> Rep {
        let n = self.elements;
        let probe = Probe::new(n, traced, 6 * n + 16);
        let counters = Arc::new(StreamCounters::default());
        let mut region = Region::start();

        let t_setup = Instant::now();
        let rt = runtime();
        let s: Vec<_> = (0..3)
            .map(|i| rt.stream::<Elem>(format!("s{i}"), STREAM_CAPACITY))
            .collect();
        let result = rt.data::<(u64, u64)>("sum");
        let setup_s = t_setup.elapsed().as_secs_f64();
        if traced {
            probe.find_worker_clock(&rt);
        }
        let worker_clock = probe.worker_clock.load(Ordering::Relaxed);
        region.exclude(between);

        let allocs0 = region.allocs();
        let (cpu0, main0) = (process_cpu_s(), thread_cpu_s());
        let worker0 = traced.then(|| clock_s(worker_clock));
        let t0 = now_ns();
        let mut submit_ns = 0u64;
        let mut ok = true;
        let base = stream_base(self.seed);
        let maps = stage_maps(self.seed);
        for stage in 0..4 {
            let spec = match stage {
                0 => TaskSpec::new("source").stream_out(s[0].id()),
                3 => TaskSpec::new("sink")
                    .stream_in(s[2].id())
                    .output(result.id()),
                k => TaskSpec::new("stage")
                    .stream_in(s[k - 1].id())
                    .stream_out(s[k].id()),
            };
            let (p, c) = (Arc::clone(&probe), Arc::clone(&counters));
            let map = maps[stage.clamp(1, 2) - 1];
            let a = now_ns();
            let submitted = rt.submit_async(spec, Constraints::new(), move |ctx| async move {
                stream_task(stage, ctx, &p, &c, base, n as u64, map).await
            });
            ok &= submitted.is_ok();
            if traced {
                let b = now_ns();
                submit_ns += b - a;
                probe.span("local.submit", a, b);
            }
        }
        let drained = rt.wait_all();
        let t1 = now_ns();
        let cpu = CpuSplit {
            process_s: process_cpu_s() - cpu0,
            main_s: thread_cpu_s() - main0,
            worker_s: worker0.map_or(0.0, |w0| clock_s(worker_clock) - w0),
        };
        let allocs = region.allocs() - allocs0;
        let peak_bytes = region.peak_growth();
        let threads = process_threads();

        let mut failed = 0;
        match (&drained, ok, rt.get(&result)) {
            (Ok(()), true, Ok(r)) if *r == (self.expected, n as u64) => {}
            (Ok(()), true, Ok(r)) => {
                eprintln!(
                    "local-stream sink got {} elements summing to {}, expected {n} summing to {}",
                    r.1, r.0, self.expected
                );
                failed = n as u64 - r.1.min(n as u64);
                if r.0 != self.expected {
                    failed = n as u64;
                }
            }
            _ => {
                eprintln!("local-stream run failed: {drained:?}");
                failed = n as u64;
            }
        }
        let mut rep = Rep {
            setup_s,
            wall_s: (t1 - t0) as f64 * 1e-9,
            cpu_s: cpu.process_s,
            ops: n as u64,
            failed,
            allocs,
            peak_bytes,
            latency: probe.latency_us(),
            threads,
            layers: Vec::new(),
            tiling_ok: true,
            spans: None,
            slowdown: 1.0,
        };
        if let Some(log) = &probe.log {
            log.close(probe.root, NO_PARENT, "run", t0, t1);
            let layers = log.layers();
            let get = |name: &str| layers.get(name).copied().unwrap_or_default();
            let task = get("stream.task");
            let lifetime = task.total_ns.max(1) as f64;
            let kelem = n as f64 / 1e3;
            let body_s = task.self_ns as f64 * 1e-9;
            let tiling = cpu.tiling_error(submit_ns as f64 * 1e-9, body_s);
            rep.tiling_ok = tiling <= TILING_TOLERANCE;
            rep.layers = vec![
                (
                    "stream.send_parks_per_kelem",
                    counters.parks[SEND].load(Ordering::Relaxed) as f64 / kelem,
                ),
                (
                    "stream.recv_parks_per_kelem",
                    counters.parks[RECV].load(Ordering::Relaxed) as f64 / kelem,
                ),
                (
                    "stream.send_wait_share",
                    get("stream.send").total_ns as f64 / lifetime,
                ),
                (
                    "stream.recv_wait_share",
                    get("stream.recv").total_ns as f64 / lifetime,
                ),
                ("stream.stage_body_share", task.self_ns as f64 / lifetime),
                (
                    "local.parked_peak",
                    counters.parked_peak.load(Ordering::Relaxed) as f64,
                ),
                ("local.submit_us_per_task", submit_ns as f64 * 1e-3 / 4.0),
                (
                    "local.worker_cpu_us_per_elem",
                    (cpu.worker_s - body_s) * 1e6 / n as f64,
                ),
                ("ledger.tiling_error", tiling),
            ];
        }
        drop(rt);
        rep.spans = Arc::into_inner(probe).and_then(|p| p.log);
        rep
    }
}

/// Body of pipeline task `stage` (0 source, 1–2 stages, 3 sink).
async fn stream_task(
    stage: usize,
    mut ctx: TaskContext,
    probe: &Probe,
    counters: &StreamCounters,
    base: u64,
    n: u64,
    (m, a): (u64, u64),
) -> TaskContext {
    let start = now_ns();
    let id = probe.log.as_ref().map_or(NO_PARENT, SpanLog::open);
    match stage {
        0 => {
            let tx = ctx.stream_writer::<Elem>(0);
            for i in 0..n {
                let e = Elem {
                    v: base.wrapping_add(i),
                    sent_ns: now_ns(),
                };
                if !watch(probe, counters, id, SEND, tx.send_async(e)).await {
                    break;
                }
            }
        }
        3 => {
            let rx = ctx.stream_reader::<Elem>(0);
            let (mut sum, mut count) = (0u64, 0u64);
            while let Some(e) = watch(probe, counters, id, RECV, rx.recv_async()).await {
                probe.sample(now_ns().saturating_sub(e.sent_ns));
                sum = sum.wrapping_add(e.v);
                count += 1;
            }
            ctx.set_output(0, (sum, count));
        }
        _ => {
            let rx = ctx.stream_reader::<Elem>(0);
            let tx = ctx.stream_writer::<Elem>(0);
            while let Some(e) = watch(probe, counters, id, RECV, rx.recv_async()).await {
                let out = Elem {
                    v: e.v.wrapping_mul(m).wrapping_add(a),
                    sent_ns: e.sent_ns,
                };
                if !watch(probe, counters, id, SEND, tx.send_async(out)).await {
                    break;
                }
            }
        }
    }
    if let Some(log) = &probe.log {
        log.close(id, probe.root, "stream.task", start, now_ns());
    }
    ctx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_closed_form_matches_a_direct_fold() {
        for seed in [0u64, 1, 42, u64::MAX] {
            let [(m1, a1), (m2, a2)] = stage_maps(seed);
            let base = stream_base(seed);
            let direct = (0..1000u64).fold(0u64, |acc, i| {
                let v = base.wrapping_add(i);
                let v = v.wrapping_mul(m1).wrapping_add(a1);
                acc.wrapping_add(v.wrapping_mul(m2).wrapping_add(a2))
            });
            assert_eq!(stream_reference(seed, 1000), direct, "seed {seed}");
        }
    }

    #[test]
    fn seed_changes_inputs_but_not_the_invariants() {
        let (a, b) = (Dag::new(1, 40), Dag::new(2, 40));
        assert_ne!(a.expected, b.expected, "seed must change the DAG's values");
        assert_eq!(a.tasks(), b.tasks());
        assert_ne!(stream_reference(1, 500), stream_reference(2, 500));
        for seed in [1u64, 2] {
            let mut dag = Dag::new(seed, 40);
            let rep = dag.rep(false, &mut || {});
            assert_eq!((rep.failed, rep.ops), (0, 400), "dag seed {seed}");
            assert_eq!(rep.latency.2, 400, "one latency sample per task");
            let mut stream = Stream::new(seed, 500);
            let rep = stream.rep(false, &mut || {});
            assert_eq!((rep.failed, rep.ops), (0, 500), "stream seed {seed}");
            assert_eq!(rep.latency.2, 500, "one latency sample per element");
        }
    }

    #[test]
    fn traced_repetitions_fill_the_ledger_and_keep_outputs() {
        let mut dag = Dag::new(7, 30);
        let rep = dag.rep(true, &mut || {});
        assert_eq!(rep.failed, 0);
        let names: Vec<_> = rep.layers.iter().map(|(k, _)| *k).collect();
        assert!(names.contains(&"local.submit_us_per_task"));
        let spans = rep.spans.expect("traced repetition keeps its spans");
        assert_eq!(spans.layers()["local.body"].count, 300);
        let mut stream = Stream::new(7, 300);
        let rep = stream.rep(true, &mut || {});
        assert_eq!(rep.failed, 0);
        let spans = rep.spans.expect("traced repetition keeps its spans");
        assert_eq!(spans.layers()["stream.task"].count, 4);
        assert_eq!(spans.layers()["stream.recv"].count, 3 * 301);
    }
}
