//! `tune-anneal`: the island annealer re-times control-code-patched fused
//! schedules from the detuned baseline on the tune binary's proxy shape.
//!
//! This loads the timing layer differently from `serve-ladder`: hundreds
//! of one-wave `BatchTimer::time` calls instead of a few full-device runs,
//! plus `sass.tune` proposal and legality checking. The engine and the
//! functional interpreter (apart from the output check) stay idle.

use gpusim::digest::module_digest;
use gpusim::{BatchTimer, DeviceSpec, Digest, Gpu, LaunchDims, ParamBuilder, TimingOptions};
use kernels::filter_transform::emit_filter_transform;
use kernels::{FusedConfig, FusedKernel};
use sass::island::{run_islands, IslandConfig, IslandOutcome, Priors, SeedKind};
use sass::tune::TuneRegion;
use sass::{Instruction, Module};
use tensor::XorShiftRng;

use crate::report::{cpu, derive_seed, median, HostRef, Outcome, Stopwatch};
use crate::trace::{Analysis, Ctx, Tracer};
use crate::{Opts, Scale};

pub struct TuneScale {
    pub config: FusedConfig,
    pub device: DeviceSpec,
    pub islands: usize,
    pub epochs: u64,
    /// Anneal steps per island per anneal.
    pub budget: u64,
    /// Anneals every run makes, whatever the time; sim metrics and the
    /// digest cover these.
    pub fixed_anneals: usize,
    /// Set-ups before the first anneal and again after every anneal, so
    /// that `setup_s`, their median, samples the whole run.
    pub setups: usize,
}

impl TuneScale {
    pub fn full() -> TuneScale {
        TuneScale {
            config: FusedConfig::ours(32, 8, 8, 32, 64),
            device: DeviceSpec::v100(),
            islands: 2,
            epochs: 2,
            budget: 120,
            fixed_anneals: 3,
            setups: 5,
        }
    }

    pub fn smoke() -> TuneScale {
        TuneScale {
            config: FusedConfig::ours(32, 4, 4, 32, 64),
            budget: 8,
            fixed_anneals: 1,
            setups: 1,
            ..TuneScale::full()
        }
    }
}

/// Everything the objective needs, built once per set-up.
struct Proxy {
    hand: FusedKernel,
    timer: BatchTimer,
    regions: Vec<TuneRegion>,
    alloc_bytes: [u64; 3],
    capacity: usize,
    dims: LaunchDims,
    params: Vec<u8>,
    opts: TimingOptions,
    hand_cycles: u64,
    detuned_cycles: u64,
}

fn module_with(base: &Module, insts: Vec<Instruction>) -> Module {
    Module::new(
        &base.info.name,
        base.info.smem_bytes,
        base.info.param_bytes,
        insts,
    )
}

impl Proxy {
    fn gpu(&self, dev: &DeviceSpec) -> Gpu {
        let mut gpu = Gpu::new(dev.clone(), self.capacity);
        for &b in &self.alloc_bytes {
            gpu.alloc(b);
        }
        gpu
    }

    fn time(
        &self,
        dev: &DeviceSpec,
        timer: &mut BatchTimer,
        insts: &[Instruction],
        perm: &[u32],
    ) -> Option<u64> {
        let cand = module_with(&self.hand.module, insts.to_vec());
        timer
            .time(
                &mut self.gpu(dev),
                &cand,
                perm,
                self.dims,
                &self.params,
                self.opts,
            )
            .ok()
            .map(|t| t.wave_cycles)
    }
}

fn setup(s: &TuneScale) -> Proxy {
    let cfg = s.config;
    let hand = FusedKernel::emit(cfg);
    let (c, h, w, n, k) = (
        u64::from(cfg.c),
        u64::from(cfg.h),
        u64::from(cfg.w),
        u64::from(cfg.n),
        u64::from(cfg.k),
    );
    let alloc_bytes = [c * h * w * n * 4, c * 16 * k * 4, k * h * w * n * 4];
    let capacity = (alloc_bytes.iter().sum::<u64>() + (1 << 20)).next_power_of_two() as usize;
    let dims = hand.launch_dims();
    let params = {
        let mut gpu = Gpu::new(s.device.clone(), capacity);
        let a = gpu.alloc(alloc_bytes[0]);
        let b = gpu.alloc(alloc_bytes[1]);
        let o = gpu.alloc(alloc_bytes[2]);
        hand.params(a, b, o)
    };
    let opts = TimingOptions {
        region: Some(hand.region),
        ..Default::default()
    };
    let regions = hand
        .regions
        .iter()
        .map(|r| TuneRegion {
            name: r.name.clone(),
            start: r.start,
            end: r.end,
        })
        .collect();
    let timer = BatchTimer::new(&hand.module);
    let mut ctx = Proxy {
        hand,
        timer,
        regions,
        alloc_bytes,
        capacity,
        dims,
        params,
        opts,
        hand_cycles: 0,
        detuned_cycles: 0,
    };
    let ident: Vec<u32> = (0..ctx.hand.module.insts.len() as u32).collect();
    let mut timer = ctx.timer.clone();
    ctx.hand_cycles = ctx
        .time(&s.device, &mut timer, &ctx.hand.module.insts, &ident)
        .expect("hand schedule times");
    let mut detuned = ctx.hand.module.insts.clone();
    sass::tune::detune(&mut detuned);
    ctx.detuned_cycles = ctx
        .time(&s.device, &mut timer, &detuned, &ident)
        .expect("detuned schedule times");
    ctx
}

/// Functional output of `module` on the proxy shape (fixed data).
fn launch_output(s: &TuneScale, module: &Module) -> Vec<f32> {
    let cfg = s.config;
    let (c, h, w, n, k) = (
        cfg.c as usize,
        cfg.h as usize,
        cfg.w as usize,
        cfg.n as usize,
        cfg.k as usize,
    );
    let mut rng = XorShiftRng::new(0x7157);
    let input: Vec<f32> = (0..c * h * w * n)
        .map(|_| rng.gen_range(-1.0, 1.0))
        .collect();
    let filter: Vec<f32> = (0..c * 9 * k).map(|_| rng.gen_range(-1.0, 1.0)).collect();
    let mut gpu = Gpu::new(s.device.clone(), 1 << 26);
    let d_in = gpu.alloc_upload_f32(&input);
    let d_filt = gpu.alloc_upload_f32(&filter);
    let d_tf = gpu.alloc((c * 16 * k) as u64 * 4);
    let d_out = gpu.alloc((k * h * w * n) as u64 * 4);
    let fx = emit_filter_transform(cfg.c, cfg.k);
    let fx_params = ParamBuilder::new().push_ptr(d_filt).push_ptr(d_tf).build();
    gpu.launch(
        &fx,
        LaunchDims::linear(cfg.c * cfg.k / 256, 256),
        &fx_params,
    )
    .expect("filter transform launches");
    let kern = FusedKernel::emit(cfg);
    let params = kern.params(d_in, d_tf, d_out);
    match gpu.launch(module, kern.launch_dims(), &params) {
        Ok(()) => gpu
            .mem
            .download_f32(d_out, k * h * w * n)
            .expect("output downloads"),
        Err(_) => Vec::new(),
    }
}

pub fn run_workload(scale: &Scale, opts: &Opts, tr: &Tracer) -> Outcome {
    let s = &scale.tune;
    let mut out = Outcome {
        threads: 1,
        ..Default::default()
    };
    let mut digest = Digest::new();
    digest.str("perfbench/tune-anneal/v1");

    // ---- set-up: emit, decode, and time the hand and detuned schedules.
    let mut setup_s = Vec::new();
    let mut set_up = |i: usize| {
        let t = Stopwatch::start();
        let cx = tr.span("tune.setup", Ctx::root(i as u64), |_| setup(s));
        setup_s.push(t.sample());
        cx
    };
    let cx = set_up(0);
    for i in 1..s.setups {
        set_up(i);
    }
    digest.u64(cx.hand_cycles).u64(cx.detuned_cycles);
    out.set("sass.tune.hand_cycles", cx.hand_cycles as f64);
    out.set("sass.tune.detuned_cycles", cx.detuned_cycles as f64);

    // ---- run: anneals with seeds derived from the workload seed. With
    // tracing on, odd anneals are traced, so the overhead is measurable.
    let t_run = Stopwatch::start();
    let mut outcomes: Vec<IslandOutcome> = Vec::new();
    let mut run_s = Vec::new();
    let (mut evals, mut wall) = (0u64, 0.0);
    let mut traced_ms = Vec::new();
    let mut traced_ids = Vec::new();
    let mut href = HostRef::new(out.threads);
    let mut r = 0usize;
    // With tracing on, at least one anneal is traced.
    let min_anneals = s.fixed_anneals.max(if tr.enabled() { 2 } else { 1 });
    while r < min_anneals || t_run.wall_s() < opts.seconds {
        let traced = tr.enabled() && r % 2 == 1;
        let mut icfg = IslandConfig::new(
            s.islands,
            s.epochs,
            (s.budget / s.epochs).max(1),
            derive_seed(opts.seed, "tune.anneal", r as u64),
        );
        icfg.seeds = vec![SeedKind::Detuned, SeedKind::DetunedGreedy];
        // The islands share one thread, so the only parallelism is inside
        // the layers and CPU time per evaluation does not depend on how
        // loaded the host's second CPU is (see README.md).
        icfg.jobs = 1;
        let anneal = |actx: Option<Ctx>| {
            run_islands(
                &cx.hand.module.insts,
                &cx.regions,
                &Priors::default(),
                &icfg,
                |_| {
                    let mut timer = cx.timer.clone();
                    let cx = &cx;
                    let dev = &s.device;
                    move |insts: &[Instruction], perm: &[u32]| match actx {
                        Some(c) => tr.span("gpusim.batch.time", c, |_| {
                            cx.time(dev, &mut timer, insts, perm)
                        }),
                        None => cx.time(dev, &mut timer, insts, perm),
                    }
                },
            )
        };
        let (o, dt, units) = href.time(|| {
            if traced {
                tr.span("sass.island.run_islands", Ctx::root(r as u64), |c| {
                    traced_ids.push(c.parent.expect("span id"));
                    anneal(Some(c))
                })
            } else {
                anneal(None)
            }
        });
        if traced {
            traced_ms.push(dt.cpu * 1e3 / o.stats.evals.max(1) as f64);
        } else {
            evals += o.stats.evals;
            wall += dt.wall;
            run_s.push(dt.wall);
            out.host_op_ms
                .push(dt.scaled(1e3 / o.stats.evals.max(1) as f64));
            out.host_op_ref.push(units / o.stats.evals.max(1) as f64);
        }
        for i in 0..s.setups {
            let again = set_up((r + 1) * s.setups + i);
            out.checks.check(
                (again.hand_cycles, again.detuned_cycles) == (cx.hand_cycles, cx.detuned_cycles),
                || "a repeated set-up times the schedules differently".into(),
            );
        }
        if r < s.fixed_anneals {
            outcomes.push(o);
        }
        r += 1;
    }

    out.ref_ms = href.readings;
    out.setup_s = setup_s;

    // ---- sim results and checks over the fixed anneals.
    let hand_out = launch_output(s, &cx.hand.module);
    let mut recovery = Vec::new();
    let mut best_cycles = Vec::new();
    let (mut proposed, mut legal, mut n_evals, mut failed, mut accepted) = (0, 0, 0, 0, 0);
    for (i, o) in outcomes.iter().enumerate() {
        let best = module_with(&cx.hand.module, o.best_insts.clone());
        let mut d = Digest::new();
        module_digest(&best, &mut d);
        digest.str(&d.hex()).u64(o.best_cost);
        for isl in &o.per_island {
            digest
                .u64(isl.start_cost)
                .u64(isl.best_cost)
                .u64(isl.stats.evals);
            digest.u64(isl.stats.accepted).u64(isl.stats.illegal);
        }
        recovery.push(100.0 * cx.hand_cycles as f64 / o.best_cost as f64);
        best_cycles.push(o.best_cost as f64);
        proposed += o.stats.proposed;
        legal += o.stats.proposed - o.stats.inapplicable - o.stats.illegal;
        n_evals += o.stats.evals;
        failed += o.stats.failed;
        accepted += o.stats.accepted;

        let lint = tr.span("sass.lint", Ctx::root(i as u64), |_| {
            sass::lint(&best.insts)
        });
        out.checks.check(lint.is_empty(), || {
            format!("anneal {i}: best schedule fails lint: {lint:?}")
        });
        out.checks.check(o.best_cost <= cx.detuned_cycles, || {
            format!(
                "anneal {i}: best {} worse than start {}",
                o.best_cost, cx.detuned_cycles
            )
        });
        let mut got = tr.span("gpusim.launch", Ctx::root(i as u64), |_| {
            launch_output(s, &best)
        });
        if opts.plant_mismatch {
            if let Some(v) = got.first_mut() {
                *v = f32::from_bits(v.to_bits() ^ 1);
            }
        }
        let exact = got.len() == hand_out.len()
            && got
                .iter()
                .zip(&hand_out)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        out.checks.check(exact, || {
            format!("anneal {i}: tuned output is not bit-exact with the hand schedule")
        });
    }
    out.checks.check(!hand_out.is_empty(), || {
        "hand schedule fails to launch".into()
    });
    out.set("tune_recovery_pct", median(&recovery));
    out.set("sass.tune.best_cycles", median(&best_cycles));
    out.set("sass.tune.proposed", proposed as f64);
    out.set("sass.tune.evals", n_evals as f64);
    out.set("sass.tune.failed", failed as f64);
    out.set(
        "sass.tune.legal_ratio",
        legal as f64 / proposed.max(1) as f64,
    );
    out.set(
        "sass.tune.accept_ratio",
        accepted as f64 / n_evals.max(1) as f64,
    );
    out.set("tune_evals_per_s", evals as f64 / wall);
    out.set("sass.island.run_s", median(&run_s));

    if tr.enabled() && !traced_ids.is_empty() {
        let a = Analysis::new(tr.spans());
        let evals_ms: Vec<f64> = a
            .durations("gpusim.batch.time")
            .iter()
            .map(|s| s * 1e3)
            .collect();
        let cover: Vec<f64> = traced_ids.iter().map(|&i| a.child_cover_s(i)).collect();
        let self_s: Vec<f64> = traced_ids.iter().map(|&i| a.self_s(i)).collect();
        out.set("gpusim.batch.eval_ms", median(&evals_ms));
        out.set("gpusim.batch.time_s", median(&cover));
        out.set("sass.tune.self_s", median(&self_s));
        let base = median(&cpu(&out.host_op_ms));
        out.set(
            "trace.overhead_pct",
            100.0 * (median(&traced_ms) - base) / base,
        );
    }
    out.sim_digest = digest.hex();
    out
}
