//! Benchmark command:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-ladder|net-exec|tune-anneal> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result object. With `--trace 1`
//! the spans are written to `perfbench/out/trace-<workload>-<seed>.json`.

use std::process::ExitCode;

use perfbench::report::{self, MetricDef, END_TO_END, PER_LAYER};
use perfbench::trace::{Analysis, Tracer};
use perfbench::{Opts, Scale, DEFAULT_SEED, WORKLOADS};

struct Args {
    workload: String,
    opts: Opts,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        opts: Opts {
            seed,
            seconds,
            plant_mismatch: false,
        },
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let tr = Tracer::new(args.trace);
    let scale = Scale::full();
    let out = perfbench::run(&args.workload, &scale, &args.opts, &tr).expect("workload validated");
    println!(
        "{}",
        report::report_line(&args.workload, args.opts.seed, args.trace, &out)
    );

    let metrics: Vec<(&MetricDef, f64)> = if args.trace {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/trace-{}-{}.json", args.workload, args.opts.seed);
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, Analysis::new(tr.spans()).to_json()));
        match written {
            Ok(()) => eprintln!("[perfbench] spans written to {path}"),
            Err(e) => {
                eprintln!("perfbench: writing {path}: {e}");
                return ExitCode::from(1);
            }
        }
        PER_LAYER
            .iter()
            .map(|d| (d, out.layer.get(d.name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|d| {
                let v = match d.name {
                    "setup_s" => out.layer["setup.cpu_s"],
                    "peak_rss_mb" => report::peak_rss_mb(),
                    "op_cost" => report::median(&out.host_op_ref),
                    other => unreachable!("end-to-end metric {other} has no source"),
                };
                (d, v)
            })
            .collect()
    };
    println!("{}", report::result_line(&out.checks, &metrics));
    ExitCode::SUCCESS
}
