//! The repository benchmark: three workloads driven through the public
//! functions of `serve`, `wino_core`, `gpusim` and `sass`, with every output
//! checked. See `perfbench/README.md` for the metrics and how to read them.

pub mod net_exec;
pub mod report;
pub mod serve_ladder;
pub mod trace;
pub mod tune_anneal;

use report::Outcome;
use trace::Tracer;

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: &[&str] = &["serve-ladder", "net-exec", "tune-anneal"];

/// Seed a run uses when none is given. Seed 71311 is held out for
/// confirming claims (see README.md).
pub const DEFAULT_SEED: u64 = 2020;

/// Per-run options from the command line.
#[derive(Clone, Debug)]
pub struct Opts {
    pub seed: u64,
    /// Minimum measured seconds after set-up.
    pub seconds: f64,
    /// Corrupt one output before its check (used by the tests to show a
    /// mismatch is caught).
    pub plant_mismatch: bool,
}

/// Problem sizes of every workload.
pub struct Scale {
    pub serve: serve_ladder::ServeScale,
    pub net: net_exec::NetScale,
    pub tune: tune_anneal::TuneScale,
}

impl Scale {
    /// The sizes the benchmark command runs.
    pub fn full() -> Scale {
        Scale {
            serve: serve_ladder::ServeScale::full(),
            net: net_exec::NetScale::full(),
            tune: tune_anneal::TuneScale::full(),
        }
    }

    /// Small sizes on the same code paths, for tests.
    pub fn smoke() -> Scale {
        Scale {
            serve: serve_ladder::ServeScale::smoke(),
            net: net_exec::NetScale::smoke(),
            tune: tune_anneal::TuneScale::smoke(),
        }
    }
}

/// Run one workload; `None` for an unknown name.
pub fn run(workload: &str, scale: &Scale, opts: &Opts, tr: &Tracer) -> Option<Outcome> {
    let mut out = match workload {
        "serve-ladder" => serve_ladder::run_workload(scale, opts, tr),
        "net-exec" => net_exec::run_workload(scale, opts, tr),
        "tune-anneal" => tune_anneal::run_workload(scale, opts, tr),
        _ => return None,
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    out.set("host.nproc", nproc as f64);
    out.set("host.threads", out.threads as f64);
    out.set("failed_frac", out.checks.failed_frac());
    out.set("host_op.samples", out.host_op_ms.len() as f64);
    out.set("setup.wall_s", report::median(&report::wall(&out.setup_s)));
    out.set("setup.cpu_s", report::median(&report::cpu(&out.setup_s)));
    out.set(
        "host_op.wall_ms",
        report::median(&report::wall(&out.host_op_ms)),
    );
    out.set(
        "host_op.cpu_ms",
        report::median(&report::cpu(&out.host_op_ms)),
    );
    out.set("host.ref_ms", report::median(&out.ref_ms));
    if tr.enabled() {
        out.set("trace.spans", tr.spans().len() as f64);
    }
    Some(out)
}
