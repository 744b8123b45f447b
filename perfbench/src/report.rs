//! Metric registry, output checks, statistics and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Whether a number is a cost on the machine running the benchmark
/// (wall-clock or CPU time) or an output of the simulated GPU model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Host,
    Sim,
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub kind: Kind,
}

const fn host(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        kind: Kind::Host,
    }
}

const fn sim(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        kind: Kind::Sim,
    }
}

/// Printed by every workload with tracing off. Host times here are process
/// CPU time over all threads: on a shared virtual machine, wall-clock time
/// also counts whatever the hypervisor steals, which varies from minute to
/// minute. The wall-clock values are in the per-layer set. `op_cost` is the
/// CPU time of one unit of work in [`HostRef`] units.
pub const END_TO_END: &[MetricDef] = &[
    host("setup_s", "s"),
    host("peak_rss_mb", "MB"),
    host("op_cost", "ref"),
];

/// Printed by every workload with tracing on. A layer a workload does not
/// reach reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    // every workload
    sim("failed_frac", "ratio"),
    host("host.nproc", "count"),
    host("host.threads", "count"),
    host("host_op.samples", "count"),
    host("trace.overhead_pct", "%"),
    host("trace.spans", "count"),
    host("setup.wall_s", "s"),
    host("setup.cpu_s", "s"),
    host("host_op.wall_ms", "ms"),
    host("host_op.cpu_ms", "ms"),
    host("host.ref_ms", "ms"),
    // serve-ladder
    sim("goodput_rps.v100", "1/s"),
    sim("goodput_rps.rtx2070", "1/s"),
    sim("p50_ms.v100", "ms"),
    sim("p99_ms.v100", "ms"),
    sim("p50_ms.rtx2070", "ms"),
    sim("p99_ms.rtx2070", "ms"),
    host("engine_mreq_per_s", "Mreq/s"),
    host("serve.plan.build_s", "s"),
    sim("serve.plan.probes", "count"),
    host("serve.plan.s_per_probe", "s"),
    sim("serve.plan.tflops_geomean.v100", "TFLOPS"),
    sim("serve.plan.tflops_geomean.rtx2070", "TFLOPS"),
    sim("serve.plan.build_cost_ms", "ms"),
    host("serve.traffic.generate_s", "s"),
    host("serve.engine.run_s", "s"),
    sim("serve.engine.requests", "count"),
    sim("serve.engine.batches.v100", "count"),
    sim("serve.engine.batches.rtx2070", "count"),
    sim("serve.engine.mean_fill.v100", "ratio"),
    sim("serve.engine.mean_fill.rtx2070", "ratio"),
    sim("serve.queue.wait_p99_ms.v100", "ms"),
    sim("serve.queue.wait_p99_ms.rtx2070", "ms"),
    sim("serve.engine.service_p99_ms.v100", "ms"),
    sim("serve.engine.service_p99_ms.rtx2070", "ms"),
    sim("serve.miss.queueing.v100", "count"),
    sim("serve.miss.queueing.rtx2070", "count"),
    sim("serve.miss.service.v100", "count"),
    sim("serve.miss.service.rtx2070", "count"),
    sim("serve.miss.plan_build.v100", "count"),
    sim("serve.miss.plan_build.rtx2070", "count"),
    // net-exec
    host("net_exec_s", "s"),
    sim("net_sim_us", "us"),
    sim("net_arena_mb", "MB"),
    host("core.netgraph.plan_s", "s"),
    host("core.conv.time_s", "s"),
    host("core.conv.sim_mcycles_per_s", "Mcycle/s"),
    host("core.netgraph.execute_s", "s"),
    host("core.conv.run_s.fused", "s"),
    host("core.conv.run_s.nonfused", "s"),
    host("core.conv.transform_filter_s", "s"),
    host("core.netgraph.transition_s", "s"),
    sim("core.transform_cache.hit_ratio", "ratio"),
    sim("core.memplan.arena_mb", "MB"),
    sim("core.memplan.bump_mb", "MB"),
    host("core.reference.execute_s", "s"),
    // tune-anneal
    host("tune_evals_per_s", "1/s"),
    sim("tune_recovery_pct", "%"),
    host("sass.island.run_s", "s"),
    host("gpusim.batch.eval_ms", "ms"),
    host("gpusim.batch.time_s", "s"),
    host("sass.tune.self_s", "s"),
    sim("sass.tune.proposed", "count"),
    sim("sass.tune.evals", "count"),
    sim("sass.tune.failed", "count"),
    sim("sass.tune.legal_ratio", "ratio"),
    sim("sass.tune.accept_ratio", "ratio"),
    sim("sass.tune.hand_cycles", "cycles"),
    sim("sass.tune.detuned_cycles", "cycles"),
    sim("sass.tune.best_cycles", "cycles"),
];

pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Output checks: every comparison the benchmark makes against a reference
/// counts as one attempt.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Count one check; on failure, say what failed on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("[perfbench] CHECK FAILED: {}", what());
        }
    }

    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed as f64 / self.attempted as f64
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Seconds of each set-up the run made.
    pub setup_s: Vec<Sample>,
    /// Host milliseconds per unit of work, one sample per unit measured
    /// with tracing off.
    pub host_op_ms: Vec<Sample>,
    /// The same units' CPU time in [`HostRef`] units, one per sample.
    pub host_op_ref: Vec<f64>,
    /// CPU milliseconds of one reference chunk, one per reading.
    pub ref_ms: Vec<f64>,
    pub checks: Checks,
    /// Per-layer values by name (host and sim).
    pub layer: BTreeMap<&'static str, f64>,
    /// Digest over every simulated output of the fixed part of the run.
    pub sim_digest: String,
    /// Threads the workload's layers run on.
    pub threads: usize,
}

impl Outcome {
    /// Record a registered metric.
    pub fn set(&mut self, name: &str, value: f64) {
        let d = def(name).unwrap_or_else(|| panic!("metric {name} is not registered"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.layer.insert(d.name, value);
    }

    /// Every sim-kind per-layer value, for determinism comparisons.
    pub fn sim_values(&self) -> Vec<(&'static str, f64)> {
        self.layer
            .iter()
            .filter(|(n, _)| def(n).is_some_and(|d| d.kind == Kind::Sim))
            .map(|(n, v)| (*n, *v))
            .collect()
    }
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile; 0 for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Derive an independent 64-bit seed from the workload seed and a label
/// (splitmix64 over the seed mixed with an FNV-1a hash of the label).
pub fn derive_seed(seed: u64, label: &str, index: u64) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in label.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100000001b3);
    }
    let mut z = seed ^ h ^ index.wrapping_mul(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    (z ^ (z >> 31)).max(1)
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name": {"value": v, "unit": "u"}, ...}` in the order given.
pub fn metrics_json(values: &[(&MetricDef, f64)]) -> String {
    let body: Vec<String> = values
        .iter()
        .map(|(d, v)| {
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(d.name),
                json_str(d.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line the benchmark ends with.
pub fn result_line(checks: &Checks, metrics: &[(&MetricDef, f64)]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        metrics_json(metrics)
    )
}

/// A human-readable report line: workload, seed, digest, and every value
/// the run computed with its kind.
pub fn report_line(workload: &str, seed: u64, trace: bool, out: &Outcome) -> String {
    let mut vals = Vec::new();
    for (name, v) in &out.layer {
        let d = def(name).expect("registered");
        let kind = match d.kind {
            Kind::Host => "host",
            Kind::Sim => "sim",
        };
        vals.push(format!(
            "{}: {{\"value\": {v}, \"unit\": {}, \"kind\": \"{kind}\"}}",
            json_str(name),
            json_str(d.unit)
        ));
    }
    format!(
        "{{\"report\": {}, \"seed\": {seed}, \"trace\": {trace}, \"sim_digest\": {}, \"values\": {{{}}}}}",
        json_str(workload),
        json_str(&out.sim_digest),
        vals.join(", ")
    )
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds this process has run so far, summed over all its threads,
/// including threads that have exited. Time the hypervisor steals from the
/// virtual CPU is not counted, unlike wall-clock time.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux) that outlives the call, and the clock id is a
    // constant the kernel always supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// One host-time measurement, wall-clock and process CPU, in the unit of
/// the field it is stored in.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sample {
    pub wall: f64,
    pub cpu: f64,
}

impl Sample {
    pub fn scaled(self, k: f64) -> Sample {
        Sample {
            wall: self.wall * k,
            cpu: self.cpu * k,
        }
    }
}

pub fn wall(xs: &[Sample]) -> Vec<f64> {
    xs.iter().map(|s| s.wall).collect()
}

pub fn cpu(xs: &[Sample]) -> Vec<f64> {
    xs.iter().map(|s| s.cpu).collect()
}

/// Wall-clock and process-CPU stopwatch.
#[derive(Clone, Copy)]
pub struct Stopwatch {
    wall: std::time::Instant,
    cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            wall: std::time::Instant::now(),
            cpu: process_cpu_s(),
        }
    }

    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    pub fn cpu_s(&self) -> f64 {
        process_cpu_s() - self.cpu
    }

    /// Seconds since start, both clocks.
    pub fn sample(&self) -> Sample {
        Sample {
            wall: self.wall_s(),
            cpu: self.cpu_s(),
        }
    }
}

/// Keys one reference chunk pushes through a `BinaryHeap` and pops again.
const REF_KEYS: u64 = 1 << 16;
/// Share of a unit's CPU time each reference reading aims to take.
const REF_SHARE: f64 = 0.1;

/// One reference chunk: push pseudo-random keys through a std `BinaryHeap`
/// and pop them all. Depends on nothing in the workspace.
fn ref_chunk(seed: u64) -> u64 {
    let mut heap = std::collections::BinaryHeap::with_capacity(REF_KEYS as usize);
    let mut x = seed | 1;
    for i in 0..REF_KEYS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(std::cmp::Reverse((x >> 16, i)));
    }
    let mut acc = 0u64;
    while let Some(std::cmp::Reverse((k, i))) = heap.pop() {
        acc = acc.wrapping_mul(31).wrapping_add(k ^ i);
    }
    acc
}

/// A fixed host task timed right before and right after each unit of
/// measured work, on as many threads as the work uses.
///
/// The benchmark host is a shared virtual machine whose speed drifts by
/// 15–25 % over tens of seconds, and by up to 2x over an hour, for all code
/// at once: an engine pass and a heap sort interleaved with it slow down
/// and speed up together. Dividing a unit's CPU time by the reference's CPU
/// time around it cancels most of that common drift, so the quotient moves
/// when the benchmarked code does and much less when the host does.
pub struct HostRef {
    threads: usize,
    /// Chunks per thread in the next reading.
    chunks: u64,
    /// CPU milliseconds of one chunk on one thread, one per reading.
    pub readings: Vec<f64>,
}

impl HostRef {
    /// A reference on `threads` threads, warmed up.
    pub fn new(threads: usize) -> HostRef {
        let mut h = HostRef {
            threads: threads.max(1),
            chunks: 4,
            readings: Vec::new(),
        };
        h.read();
        h.readings.clear();
        h.chunks = 1;
        h
    }

    /// Run the reference once; CPU milliseconds per chunk per thread.
    fn read(&mut self) -> f64 {
        let chunks = self.chunks;
        let work = move |t: u64| (0..chunks).fold(0, |a, c| a ^ ref_chunk(t * chunks + c));
        let sw = Stopwatch::start();
        if self.threads == 1 {
            std::hint::black_box(work(0));
        } else {
            std::thread::scope(|s| {
                let hs: Vec<_> = (0..self.threads as u64)
                    .map(|t| s.spawn(move || work(t)))
                    .collect();
                for h in hs {
                    std::hint::black_box(h.join().expect("reference thread"));
                }
            });
        }
        let ms = sw.cpu_s() * 1e3 / (self.threads as u64 * chunks) as f64;
        self.readings.push(ms);
        ms
    }

    /// Run one unit of work between two reference readings. Returns its
    /// result, its own host time, and its CPU time over the mean of the two
    /// readings' CPU time per chunk.
    pub fn time<T>(&mut self, work: impl FnOnce() -> T) -> (T, Sample, f64) {
        let before = self.read();
        let sw = Stopwatch::start();
        let v = work();
        let dt = sw.sample();
        let per_reading = REF_SHARE * dt.cpu * 1e3 / (before * self.threads as f64);
        self.chunks = (per_reading.ceil() as u64).max(1);
        let after = self.read();
        (v, dt, dt.cpu * 1e3 / (0.5 * (before + after)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_units_count_reference_chunks() {
        let mut h = HostRef::new(1);
        let (_, _, units) = h.time(|| (0..4).fold(0, |a, c| a ^ ref_chunk(c)));
        // Four chunks of work read as about four units; the bounds only
        // allow for a noisy host.
        assert!((2.0..8.0).contains(&units), "{units} units");
        assert_eq!(h.readings.len(), 2, "one reading before, one after");
    }
}
