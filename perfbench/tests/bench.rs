//! Tests of the benchmark itself, at smoke scale. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::trace::{Analysis, Span, Tracer};
use perfbench::{Opts, Scale, WORKLOADS};

fn opts(seed: u64, plant_mismatch: bool) -> Opts {
    Opts {
        seed,
        seconds: 0.0,
        plant_mismatch,
    }
}

fn run(workload: &str, o: &Opts) -> perfbench::report::Outcome {
    perfbench::run(workload, &Scale::smoke(), o, &Tracer::new(false)).expect("known workload")
}

#[test]
fn planted_mismatch_raises_failed_frac() {
    for w in WORKLOADS {
        let clean = run(w, &opts(5, false));
        assert!(clean.checks.attempted > 0, "{w}: no checks made");
        assert_eq!(clean.checks.failed, 0, "{w}: clean run fails checks");
        assert_eq!(clean.layer["failed_frac"], 0.0);

        let planted = run(w, &opts(5, true));
        assert!(
            planted.checks.failed > 0,
            "{w}: planted mismatch not caught"
        );
        assert!(
            planted.layer["failed_frac"] > 0.0,
            "{w}: failed_frac stays 0"
        );
    }
}

#[test]
fn same_seed_gives_identical_sim_metrics_and_digest() {
    for w in WORKLOADS {
        let a = run(w, &opts(11, false));
        let b = run(w, &opts(11, false));
        assert!(!a.sim_values().is_empty(), "{w}: no sim metrics");
        assert_eq!(a.sim_values(), b.sim_values(), "{w}: sim metrics differ");
        assert_eq!(a.sim_digest, b.sim_digest, "{w}: sim digest differs");

        let c = run(w, &opts(12, false));
        assert_ne!(a.sim_digest, c.sim_digest, "{w}: digest ignores the seed");
    }
}

#[test]
fn traced_run_keeps_sim_results_and_records_spans() {
    for w in WORKLOADS {
        let plain = run(w, &opts(3, false));
        let tr = Tracer::new(true);
        let traced = perfbench::run(w, &Scale::smoke(), &opts(3, false), &tr).expect("known");
        assert_eq!(
            plain.sim_digest, traced.sim_digest,
            "{w}: tracing moved a sim output"
        );
        assert_eq!(traced.checks.failed, 0, "{w}: traced run fails checks");
        let spans = tr.spans();
        assert!(!spans.is_empty(), "{w}: no spans recorded");
        assert!(
            spans.iter().all(|s| s.end_ns >= s.start_ns),
            "{w}: open span"
        );
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let span = |name, parent, start_ns, end_ns| Span {
        name,
        parent,
        req: 0,
        start_ns,
        end_ns,
    };
    // Parent 0..100; children 10..40 and 30..60 overlap (two threads), and
    // 80..90 stands alone: 60 covered, 40 self.
    let a = Analysis::new(vec![
        span("p", None, 0, 100),
        span("c", Some(0), 10, 40),
        span("c", Some(0), 30, 60),
        span("c", Some(0), 80, 90),
    ]);
    assert!((a.child_cover_s(0) - 60e-9).abs() < 1e-15);
    assert!((a.self_s(0) - 40e-9).abs() < 1e-15);
    assert_eq!(a.durations("c").len(), 3);
}

#[test]
fn benchmark_json_names_every_metric_and_workload() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for w in WORKLOADS {
        assert!(
            json.contains(&format!("\"name\": \"{w}\"")),
            "workload {w} missing"
        );
    }
    for d in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", d.name, d.unit);
        assert!(
            json.contains(&entry),
            "metric {} missing or with another unit",
            d.name
        );
    }
    let entries = json.matches("\"unit\":").count();
    assert_eq!(
        entries,
        END_TO_END.len() + PER_LAYER.len(),
        "unregistered metric"
    );
}
