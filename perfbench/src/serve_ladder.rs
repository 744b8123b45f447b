//! `serve-ladder`: cold plan builds, then an open-loop MMPP-2 stream played
//! through the serving engine at a ladder of fixed rates on each device.
//!
//! Set-up is nearly all multi-wave device timing (`Planner::build` probes
//! every candidate algorithm through `core.conv.time`); the run is nearly
//! all engine and queue work. The functional interpreter stays idle.

use gpusim::{DeviceSpec, Digest};
use serve::telemetry::{MissCause, Telemetry, TelemetryOptions};
use serve::{generate, run, run_recorded, EngineConfig, Plan, Planner, Request, RunStats};
use serve::{ShapeClass, TrafficConfig};

use crate::report::{cpu, derive_seed, median, quantile, HostRef, Outcome, Sample, Stopwatch};
use crate::trace::{Ctx, Tracer};
use crate::{Opts, Scale};

pub struct ServeScale {
    pub classes: Vec<ShapeClass>,
    pub batch_sizes: Vec<u32>,
    pub tune_budget: u64,
    pub devices: Vec<DeviceSpec>,
    /// Simulated arrival window of one ladder call.
    pub duration_ns: u64,
    /// Fixed rates, ascending, requests per simulated second.
    pub ladder: Vec<f64>,
    /// Rate at which p50/p99 are reported (below both saturation points).
    pub nominal_rps: f64,
    /// Bisection steps between the last passing and first failing rung.
    pub refine_steps: u32,
    pub engine: EngineConfig,
}

impl ServeScale {
    pub fn full() -> ServeScale {
        ServeScale {
            classes: ShapeClass::resnet_mix(),
            batch_sizes: vec![32],
            tune_budget: 12,
            devices: vec![DeviceSpec::v100(), DeviceSpec::rtx2070()],
            duration_ns: 1_000_000_000,
            ladder: (1..=10).map(|i| 25_000.0 * f64::from(i)).collect(),
            nominal_rps: 50_000.0,
            refine_steps: 3,
            engine: EngineConfig {
                slo_ns: 50_000_000,
                pool: 2,
                warm: true,
            },
        }
    }

    /// Same code paths at a fraction of the cost, for tests.
    pub fn smoke() -> ServeScale {
        ServeScale {
            classes: ShapeClass::smoke_mix(),
            duration_ns: 50_000_000,
            tune_budget: 4,
            ladder: vec![20_000.0, 200_000.0, 2_000_000.0, 20_000_000.0],
            nominal_rps: 20_000.0,
            refine_steps: 1,
            ..ServeScale::full()
        }
    }
}

fn dev_label(d: &DeviceSpec) -> &'static str {
    match d.name {
        "V100" => "v100",
        "RTX2070" => "rtx2070",
        other => panic!("no metric names for device {other}"),
    }
}

/// One engine call's simulated result on one device.
struct Rung {
    rate: f64,
    requests: Vec<Request>,
    stats: RunStats,
}

impl Rung {
    fn passes(&self, s: &ServeScale) -> bool {
        self.stats.completed == self.stats.requests
            && self.stats.p99_ns <= s.engine.slo_ns
            && self.stats.makespan_ns <= s.duration_ns + s.engine.slo_ns
    }
}

fn traffic(s: &ServeScale, seed: u64, rate: f64) -> TrafficConfig {
    TrafficConfig {
        seed: derive_seed(seed, "serve.traffic", rate.to_bits()),
        duration_ns: s.duration_ns,
        rate_rps: rate,
        burst_factor: 4.0,
        ..Default::default()
    }
}

fn digest_stats(d: &mut Digest, st: &RunStats) {
    d.u64(st.requests)
        .u64(st.completed)
        .u64(st.p50_ns)
        .u64(st.p99_ns);
    d.u64(st.p999_ns)
        .u64(st.mean_ns)
        .u64(st.max_ns)
        .u64(st.makespan_ns);
    d.u64(st.slo_misses).u64(st.batches).f64(st.mean_fill);
    d.f64(st.throughput_rps_per_device);
}

fn digest_of(st: &RunStats) -> String {
    let mut d = Digest::new();
    digest_stats(&mut d, st);
    d.hex()
}

fn digest_plan(d: &mut Digest, p: &Plan) {
    d.str(&p.device)
        .str(&p.class)
        .str(&p.bound)
        .f64(p.break_even_k);
    for v in &p.variants {
        d.u32(v.n).str(&v.algo).u64(v.service_ns).f64(v.tflops);
    }
    d.u64(p.build_cost_ns);
    if let Some(t) = &p.tuned {
        d.u32(t.n).str(&t.schedule_digest).u64(t.hand_cycles);
        d.u64(t.tuned_cycles).u64(t.evals);
    }
}

pub fn run_workload(scale: &Scale, opts: &Opts, tr: &Tracer) -> Outcome {
    let s = &scale.serve;
    let mut out = Outcome {
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        ..Default::default()
    };
    let mut digest = Digest::new();
    digest.str("perfbench/serve-ladder/v1");

    // ---- set-up: cold in-memory plan builds, devices one after another.
    let t0 = Stopwatch::start();
    let mut plans: Vec<Vec<Plan>> = Vec::new();
    let mut probes = 0usize;
    tr.span("serve.setup", Ctx::root(0), |ctx| {
        for dev in &s.devices {
            let mut planner = Planner::new(dev.clone(), s.batch_sizes.clone());
            planner.tune_budget = s.tune_budget;
            planner.tune_seed = derive_seed(opts.seed, "serve.tune", 0);
            let mut dev_plans = Vec::new();
            for class in &s.classes {
                probes += s.batch_sizes.len() * planner.candidates(class).len();
                let plan = tr.span("serve.plan.build", ctx, |_| planner.build(class));
                dev_plans.push(plan);
            }
            plans.push(dev_plans);
        }
    });
    let setup = t0.sample();
    out.setup_s.push(setup);
    out.set("serve.plan.build_s", setup.wall);
    out.set("serve.plan.probes", probes as f64);
    out.set("serve.plan.s_per_probe", setup.wall / probes as f64);

    let mut build_cost_ns = 0u64;
    for (dev, dev_plans) in s.devices.iter().zip(&mut plans) {
        if opts.plant_mismatch {
            // A tuned schedule whose cubin does not match its digest.
            dev_plans[0].tuned = Some(serve::plan::TunedSchedule {
                n: 0,
                schedule_digest: "planted".into(),
                cubin: Vec::new(),
                hand_cycles: 0,
                tuned_cycles: 0,
                evals: 0,
                params: String::new(),
                source: "planted".into(),
            });
        }
        let mut log_tflops = 0.0;
        let mut n_var = 0usize;
        for p in dev_plans.iter() {
            out.checks.check(p.verify(), || {
                format!("{} plan {} fails Plan::verify", dev.name, p.class)
            });
            digest_plan(&mut digest, p);
            build_cost_ns += p.build_cost_ns;
            for v in &p.variants {
                log_tflops += v.tflops.ln();
                n_var += 1;
            }
        }
        out.set(
            &format!("serve.plan.tflops_geomean.{}", dev_label(dev)),
            (log_tflops / n_var as f64).exp(),
        );
    }
    out.set("serve.plan.build_cost_ms", build_cost_ns as f64 / 1e6);

    // ---- pass 0: the simulated results (fixed work, seed-determined).
    let t_run = Stopwatch::start();
    let mut gen_s = Vec::new();
    let mut run_s = Vec::new();
    let mut rungs: Vec<Vec<Rung>> = Vec::new();
    let classes = &s.classes;
    let engine_call = |ctx: Ctx, traced: bool, dev_plans: &[Plan], reqs: &[Request]| {
        let t = Stopwatch::start();
        let st = if traced {
            tr.span("serve.engine.run", ctx, |_| {
                run(&s.engine, classes, dev_plans, reqs)
            })
        } else {
            run(&s.engine, classes, dev_plans, reqs)
        };
        (st, t.sample())
    };
    for (di, dev) in s.devices.iter().enumerate() {
        let mut dev_rungs: Vec<Rung> = Vec::new();
        let mut rung = |rate: f64, out: &mut Outcome| {
            let ctx = Ctx::root(di as u64);
            let t = Stopwatch::start();
            let requests = tr.span("serve.traffic.generate", ctx, |_| {
                generate(&traffic(s, opts.seed, rate), classes)
            });
            gen_s.push(t.wall_s());
            let (stats, dt) = engine_call(ctx, false, &plans[di], &requests);
            run_s.push(dt.wall);
            out.checks
                .check(stats.completed == requests.len() as u64, || {
                    format!(
                        "{}: {} of {} requests completed",
                        dev.name,
                        stats.completed,
                        requests.len()
                    )
                });
            Rung {
                rate,
                requests,
                stats,
            }
        };
        for &rate in &s.ladder {
            dev_rungs.push(rung(rate, &mut out));
        }
        // Goodput: the highest passing rung, refined by bisection towards
        // the first failing rung above it.
        let best = dev_rungs.iter().rposition(|r| r.passes(s));
        let mut goodput = best.map_or(0.0, |i| dev_rungs[i].rate);
        if let Some(i) = best.filter(|&i| i + 1 < s.ladder.len()) {
            let (mut lo, mut hi) = (dev_rungs[i].rate, dev_rungs[i + 1].rate);
            for _ in 0..s.refine_steps {
                let r = rung(0.5 * (lo + hi), &mut out);
                if r.passes(s) {
                    lo = r.rate;
                } else {
                    hi = r.rate;
                }
                dev_rungs.push(r);
            }
            goodput = lo;
        }
        digest.str(dev.name).f64(goodput);
        for r in &dev_rungs {
            digest.f64(r.rate);
            digest_stats(&mut digest, &r.stats);
        }
        let nominal = dev_rungs
            .iter()
            .find(|r| r.rate == s.nominal_rps)
            .expect("the nominal rate is a ladder rung");
        let dev = dev_label(dev);
        let ms = |ns: u64| ns as f64 / 1e6;
        out.set(&format!("goodput_rps.{dev}"), goodput);
        out.set(&format!("p50_ms.{dev}"), ms(nominal.stats.p50_ns));
        out.set(&format!("p99_ms.{dev}"), ms(nominal.stats.p99_ns));
        out.set(
            &format!("serve.engine.batches.{dev}"),
            nominal.stats.batches as f64,
        );
        out.set(
            &format!("serve.engine.mean_fill.{dev}"),
            nominal.stats.mean_fill,
        );
        rungs.push(dev_rungs);
    }

    // ---- timing passes: replay the fixed ladder rungs of both devices
    // until the time is up; one host sample per pass, per 1000 simulated
    // requests, with a reference reading between engine calls. With tracing
    // on, even passes are traced, so the overhead is measurable.
    let mut traced_ms = Vec::new();
    let mut mreq_per_s = Vec::new();
    // At least one untraced pass, and one traced pass when tracing.
    let min_passes = if tr.enabled() { 2 } else { 1 };
    let mut href = HostRef::new(1);
    let mut pass = 1u64;
    while pass <= min_passes || t_run.wall_s() < opts.seconds {
        let traced = tr.enabled() && pass.is_multiple_of(2);
        let mut total = Sample::default();
        let mut units = 0.0;
        let mut requests = 0usize;
        for (di, dev_rungs) in rungs.iter().enumerate() {
            for r in &dev_rungs[..s.ladder.len()] {
                let ctx = Ctx::root(pass * 16 + di as u64);
                let ((st, dt), _, u) =
                    href.time(|| engine_call(ctx, traced, &plans[di], &r.requests));
                units += u;
                total.wall += dt.wall;
                total.cpu += dt.cpu;
                requests += r.requests.len();
                if !traced {
                    run_s.push(dt.wall);
                }
                out.checks.check(digest_of(&st) == digest_of(&r.stats), || {
                    format!("engine replay at {} rps is not deterministic", r.rate)
                });
            }
        }
        let per_kreq = total.scaled(1e6 / requests as f64);
        if traced {
            traced_ms.push(per_kreq.cpu);
        } else {
            out.host_op_ms.push(per_kreq);
            out.host_op_ref.push(units * 1e3 / requests as f64);
            mreq_per_s.push(requests as f64 / total.wall / 1e6);
        }
        pass += 1;
    }
    out.ref_ms = href.readings;
    let requests: usize = rungs.iter().flatten().map(|r| r.requests.len()).sum();
    out.set("serve.engine.requests", requests as f64);
    out.set("serve.traffic.generate_s", median(&gen_s));
    out.set("serve.engine.run_s", median(&run_s));
    out.set("engine_mreq_per_s", median(&mreq_per_s));
    if tr.enabled() && !traced_ms.is_empty() {
        let base = median(&cpu(&out.host_op_ms));
        out.set(
            "trace.overhead_pct",
            100.0 * (median(&traced_ms) - base) / base,
        );
    }

    // ---- traced run only: flight-recorder observation at the nominal
    // rate and at the first failing rung (pure observation).
    if tr.enabled() {
        for (di, dev) in s.devices.iter().enumerate() {
            let dev_rungs = &rungs[di];
            let dev = dev_label(dev);
            let nominal = dev_rungs
                .iter()
                .find(|r| r.rate == s.nominal_rps)
                .expect("nominal rung");
            let (st, tel) = recorded(tr, s, &plans[di], nominal, di);
            out.checks
                .check(digest_of(&st) == digest_of(&nominal.stats), || {
                    format!("{dev}: run_recorded disagrees with run")
                });
            let (waits, service): (Vec<f64>, Vec<f64>) = tel
                .spans()
                .iter()
                .map(|sp| {
                    (
                        (sp.dispatch_ns - sp.arrival_ns) as f64 / 1e6,
                        (sp.complete_ns - sp.dispatch_ns) as f64 / 1e6,
                    )
                })
                .unzip();
            out.set(
                &format!("serve.queue.wait_p99_ms.{dev}"),
                quantile(&waits, 0.99),
            );
            out.set(
                &format!("serve.engine.service_p99_ms.{dev}"),
                quantile(&service, 0.99),
            );

            if let Some(fail) = dev_rungs[..s.ladder.len()].iter().find(|r| !r.passes(s)) {
                let (_, tel) = recorded(tr, s, &plans[di], fail, di);
                for cause in [
                    MissCause::Queueing,
                    MissCause::Service,
                    MissCause::PlanBuild,
                ] {
                    let n = tel
                        .spans()
                        .iter()
                        .filter(|sp| sp.miss && sp.cause == cause)
                        .count();
                    out.set(&format!("serve.miss.{}.{dev}", cause.name()), n as f64);
                }
            }
        }
    }
    out.sim_digest = digest.hex();
    out
}

fn recorded(
    tr: &Tracer,
    s: &ServeScale,
    plans: &[Plan],
    r: &Rung,
    di: usize,
) -> (RunStats, Telemetry) {
    let mut tel = Telemetry::new(TelemetryOptions::on());
    let st = tr.span("serve.engine.run_recorded", Ctx::root(di as u64), |_| {
        run_recorded(&s.engine, &s.classes, plans, &r.requests, &mut tel)
    });
    (st, tel)
}
