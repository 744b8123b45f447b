//! `net-exec`: a closed loop with one client sending whole-network requests
//! through `NetGraph::execute` with a transform cache, on a mini-ResNet with
//! the Table 1 conv/transition structure at reduced scale.
//!
//! This is the workload where the functional interpreter (`gpusim` launch),
//! the host Winograd pipeline, transitions and the transform cache do the
//! work; the timing layer runs only while planning in set-up.

use std::cell::RefCell;
use std::time::Instant;

use gpusim::{DeviceSpec, Digest};
use tensor::{LayoutKind, Tensor4};
use wino_core::netgraph::{run_transition, NetNode};
use wino_core::TransformCache;
use wino_core::{Algo, AlgoPolicy, AlgoTiming, Conv, DirectTimer, LayerTimer, NetGraph, NetPlan};

use crate::report::{cpu, derive_seed, median, wall, HostRef, Outcome, Stopwatch};
use crate::trace::{Analysis, Ctx, Tracer};
use crate::{Opts, Scale};

pub struct NetScale {
    /// Builds the graph at a given batch size (the check uses batch 1).
    pub graph: fn(usize) -> NetGraph,
    pub batch: usize,
    pub device: DeviceSpec,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Requests every run makes, whatever the time; the digest covers these.
    pub min_requests: usize,
}

/// Mini-ResNet: Table 1's doubling channels and halving spatial size over
/// three stages, at 16×16 input.
fn mini(batch: usize) -> NetGraph {
    NetGraph::new("mini", batch, 64, 16)
        .conv(64)
        .conv(64)
        .transition(128, 8)
        .conv(128)
        .conv(128)
        .transition(256, 4)
        .conv(256)
}

fn mini_smoke(batch: usize) -> NetGraph {
    NetGraph::new("mini-smoke", batch, 32, 8)
        .conv(64)
        .transition(64, 4)
        .conv(64)
}

impl NetScale {
    pub fn full() -> NetScale {
        NetScale {
            graph: mini,
            batch: 32,
            device: DeviceSpec::v100(),
            setups: 3,
            min_requests: 4,
        }
    }

    pub fn smoke() -> NetScale {
        NetScale {
            graph: mini_smoke,
            setups: 1,
            ..NetScale::full()
        }
    }
}

/// [`LayerTimer`] around [`DirectTimer`] that spans and times every call.
struct SpanTimer<'a> {
    tr: &'a Tracer,
    ctx: Ctx,
    /// (host seconds, simulated cycles) per call.
    calls: RefCell<Vec<(f64, f64)>>,
}

impl LayerTimer for SpanTimer<'_> {
    fn time(&self, conv: &Conv, algo: Algo) -> AlgoTiming {
        let t = Instant::now();
        let r = self
            .tr
            .span("core.conv.time", self.ctx, |_| DirectTimer.time(conv, algo));
        let cycles = r.time_s * conv.device.clock_hz;
        self.calls
            .borrow_mut()
            .push((t.elapsed().as_secs_f64(), cycles));
        r
    }
}

fn digest_plan(d: &mut Digest, p: &NetPlan) {
    for c in &p.choices {
        d.str(&c.name)
            .str(c.algo.name())
            .f64(c.time_s)
            .f64(c.transform_s);
        d.u64(c.workspace_bytes).u64(c.hoisted_bytes);
    }
    d.f64(p.time_steady_s)
        .f64(p.time_cold_s)
        .f64(p.transitions_s);
    d.u64(p.arena_reuse.plan.peak_bytes);
    d.u64(p.arena_noreuse.plan.peak_bytes);
}

fn digest_tensor(d: &mut Digest, t: &Tensor4) {
    for v in t.as_slice() {
        d.u32(v.to_bits());
    }
}

/// Image `n` of an NCHW batch, as a batch-1 tensor.
fn image(t: &Tensor4, n: usize) -> Tensor4 {
    let t = t.to_layout(LayoutKind::Nchw);
    let [_, c, h, w] = t.dims();
    let len = c * h * w;
    Tensor4::from_vec(
        LayoutKind::Nchw,
        [1, c, h, w],
        t.as_slice()[n * len..(n + 1) * len].to_vec(),
    )
}

/// Largest absolute difference between `got` and `want`, relative to the
/// largest magnitude in `want`.
pub fn rel_error(got: &Tensor4, want: &Tensor4) -> f64 {
    let got = got.to_layout(LayoutKind::Nchw);
    let want = want.to_layout(LayoutKind::Nchw);
    assert_eq!(got.dims(), want.dims());
    let scale = want
        .as_slice()
        .iter()
        .fold(0f32, |m, v| m.max(v.abs()))
        .max(f32::MIN_POSITIVE);
    let diff = got
        .as_slice()
        .iter()
        .zip(want.as_slice())
        .fold(0f32, |m, (a, b)| m.max((a - b).abs()));
    f64::from(diff / scale)
}

/// Tolerance of the per-image check against the direct reference.
pub const REL_TOL: f64 = 1e-3;

/// A planned network: graph, device and one algorithm per conv node.
struct Planned<'a> {
    g: &'a NetGraph,
    device: &'a DeviceSpec,
    algos: &'a [Algo],
}

/// The per-node path `NetGraph::execute` takes, one span per public call.
fn execute_traced(
    tr: &Tracer,
    ctx: Ctx,
    net: &Planned,
    input: &Tensor4,
    filters: &[Tensor4],
    cache: &mut TransformCache,
    miss_s: &mut f64,
) -> Tensor4 {
    tr.span("net.request.traced", ctx, |ctx| {
        let mut cur = input.clone();
        let mut ci = 0;
        for node in &net.g.nodes {
            match node {
                NetNode::Conv(c) => {
                    let conv = Conv::new(c.problem, net.device.clone());
                    let algo = net.algos[ci];
                    if matches!(algo, Algo::OursFused | Algo::CudnnWinograd) {
                        let misses = cache.misses;
                        let t = Instant::now();
                        let tf = tr.span("core.transform_cache.get_or_insert", ctx, |_| {
                            cache.get_or_insert(&conv, &filters[ci])
                        });
                        if cache.misses > misses {
                            *miss_s += t.elapsed().as_secs_f64();
                        }
                        cur = tr.span("core.conv.run.fused", ctx, |_| {
                            conv.run_fused_pretransformed(algo, &cur, &tf)
                        });
                    } else {
                        cur = tr.span("core.conv.run.nonfused", ctx, |_| {
                            conv.run(algo, &cur, &filters[ci]).output
                        });
                    }
                    ci += 1;
                }
                NetNode::Transition(t) => {
                    cur = tr.span("core.netgraph.transition", ctx, |_| run_transition(t, &cur));
                }
            }
        }
        cur
    })
}

pub fn run_workload(scale: &Scale, opts: &Opts, tr: &Tracer) -> Outcome {
    let s = &scale.net;
    let mut out = Outcome {
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        ..Default::default()
    };
    let mut digest = Digest::new();
    digest.str("perfbench/net-exec/v1");
    let g = (s.graph)(s.batch);
    let g1 = (s.graph)(1);
    // Two weight sets, alternated across requests, so the transform cache
    // both misses and hits.
    let weights = [
        g.random_filters(derive_seed(opts.seed, "net.weights", 0)),
        g.random_filters(derive_seed(opts.seed, "net.weights", 1)),
    ];

    // ---- set-up: plan the graph (timing layer) several times.
    let mut setup_s = Vec::new();
    let mut plan_digests = Vec::new();
    let mut plan = None;
    let mut calls = Vec::new();
    for i in 0..s.setups {
        let t = Stopwatch::start();
        let (p, c) = tr.span("core.netgraph.plan", Ctx::root(i as u64), |ctx| {
            let timer = SpanTimer {
                tr,
                ctx,
                calls: RefCell::new(Vec::new()),
            };
            let p = g.plan(&s.device, AlgoPolicy::Auto, &timer);
            (p, timer.calls.into_inner())
        });
        setup_s.push(t.sample());
        calls.extend(c);
        let mut d = Digest::new();
        digest_plan(&mut d, &p);
        plan_digests.push(d.hex());
        plan = Some(p);
    }
    let plan = plan.expect("at least one set-up");
    out.set("core.netgraph.plan_s", median(&wall(&setup_s)));
    out.setup_s = setup_s;
    let call_s: Vec<f64> = calls.iter().map(|c| c.0).collect();
    out.set("core.conv.time_s", median(&call_s));
    let (host_s, cycles) = calls
        .iter()
        .fold((0.0, 0.0), |(h, c), x| (h + x.0, c + x.1));
    out.set("core.conv.sim_mcycles_per_s", cycles / host_s / 1e6);
    out.checks.check(plan.validate().is_ok(), || {
        format!("NetPlan::validate: {:?}", plan.validate())
    });
    out.checks
        .check(plan_digests.iter().all(|d| *d == plan_digests[0]), || {
            "repeated plans of the same graph differ".into()
        });
    digest_plan(&mut digest, &plan);
    out.set("net_sim_us", plan.time_steady_s * 1e6);
    let mib = |b: u64| b as f64 / (1u64 << 20) as f64;
    out.set("net_arena_mb", mib(plan.arena_reuse.plan.peak_bytes));
    out.set(
        "core.memplan.arena_mb",
        mib(plan.arena_reuse.plan.peak_bytes),
    );
    out.set(
        "core.memplan.bump_mb",
        mib(plan.arena_noreuse.plan.peak_bytes),
    );
    let algos: Vec<Algo> = plan.choices.iter().map(|c| c.algo).collect();

    // ---- run: one client, next request after the previous completes.
    let t_run = Stopwatch::start();
    let mut cache = TransformCache::new();
    let mut traced_cache = TransformCache::new();
    let mut exec_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut ref_s = Vec::new();
    let mut miss_s = 0.0;
    let mut fixed_lookups = (0, 0);
    let mut href = HostRef::new(out.threads);
    let mut i = 0usize;
    while i < s.min_requests || t_run.wall_s() < opts.seconds {
        let ctx = Ctx::root(i as u64);
        let input = g.random_input(derive_seed(opts.seed, "net.input", i as u64));
        let filters = &weights[i % 2];
        let (got, dt, units) = href.time(|| {
            tr.span("core.netgraph.execute", ctx, |_| {
                g.execute(&s.device, &algos, &input, filters, Some(&mut cache))
            })
        });
        exec_s.push(dt);
        out.host_op_ref.push(units);
        if tr.enabled() {
            let t = Stopwatch::start();
            let net = Planned {
                g: &g,
                device: &s.device,
                algos: &algos,
            };
            let traced = execute_traced(
                tr,
                ctx,
                &net,
                &input,
                filters,
                &mut traced_cache,
                &mut miss_s,
            );
            traced_s.push(t.cpu_s());
            let same = traced.dims() == got.dims()
                && traced
                    .as_slice()
                    .iter()
                    .zip(got.as_slice())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            out.checks.check(same, || {
                format!("request {i}: per-node path is not bit-identical to execute")
            });
        }
        // Output check: one seeded image of the batch against the direct
        // reference on a batch-1 copy of the graph.
        let n = (derive_seed(opts.seed, "net.image", i as u64) % s.batch as u64) as usize;
        let t = Instant::now();
        let want = tr.span("core.reference.execute_reference", ctx, |_| {
            g1.execute_reference(&image(&input, n), filters)
        });
        ref_s.push(t.elapsed().as_secs_f64());
        let mut got_n = image(&got, n);
        if opts.plant_mismatch {
            let peak = got_n.as_slice().iter().fold(0f32, |m, v| m.max(v.abs()));
            got_n.as_mut_slice()[0] += 1.0 + 0.01 * peak;
        }
        let err = rel_error(&got_n, &want);
        out.checks.check(err <= REL_TOL, || {
            format!("request {i} image {n}: relative error {err:e} > {REL_TOL:e}")
        });
        if i < s.min_requests {
            digest_tensor(&mut digest, &got);
        }
        if i + 1 == s.min_requests {
            // Cache counts after the fixed requests only: later requests
            // depend on how fast the host is.
            fixed_lookups = (cache.hits, cache.misses);
        }
        i += 1;
    }
    out.host_op_ms = exec_s.iter().map(|s| s.scaled(1e3)).collect();
    out.ref_ms = href.readings;
    let exec_cpu_s = cpu(&exec_s);
    let exec_s = wall(&exec_s);
    out.set("net_exec_s", median(&exec_s));
    out.set("core.netgraph.execute_s", median(&exec_s));
    out.set("core.reference.execute_s", median(&ref_s));
    let (hits, misses) = fixed_lookups;
    out.set(
        "core.transform_cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    digest.u64(hits).u64(misses);

    if tr.enabled() {
        let a = Analysis::new(tr.spans());
        let per_req = |name: &str| {
            let by = a.self_by_req(name);
            let v: Vec<f64> = (0..i as u64)
                .map(|r| by.get(&r).copied().unwrap_or(0.0))
                .collect();
            median(&v)
        };
        out.set("core.conv.run_s.fused", per_req("core.conv.run.fused"));
        out.set(
            "core.conv.run_s.nonfused",
            per_req("core.conv.run.nonfused"),
        );
        out.set(
            "core.netgraph.transition_s",
            per_req("core.netgraph.transition"),
        );
        out.set("core.conv.transform_filter_s", miss_s);
        let base = median(&exec_cpu_s);
        out.set(
            "trace.overhead_pct",
            100.0 * (median(&traced_s) - base) / base,
        );
    }
    out.sim_digest = digest.hex();
    out
}
