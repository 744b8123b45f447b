//! Golden bit-identity contract for the full-device timing path
//! (`gpusim::time_kernel_device`), the companion of `hotloop_identity.rs`.
//!
//! Three kernel families on both simulated devices — our fused Winograd
//! kernel, a tiled GEMM and the 36-batched GEMM of the nonfused Winograd
//! pipeline — on grids that are not a multiple of the SM count, so the
//! round-robin dispatch produces two SM classes (the first `total mod S`
//! SMs own one more block). Each case runs at the occupancy residency and
//! at one block per SM (several waves per SM, so the L1/L2/backlog carry
//! and the steady-state fast-forward are exercised), with the stall
//! profile and hardware counters on, under `jobs` 1, 2 and 8. Every line
//! pins a digest of the complete `KernelTiming` `Debug` rendering (bit-
//! identical iff the digests match); a traced run per case also pins the
//! recorded wave spans.
//!
//! The goldens pin the device-model scheduling as it stood when the file was
//! introduced; any later host-side rework of the device loop must reproduce
//! them unchanged. Regenerate only when an intentional model change lands:
//!
//! ```text
//! DEVICE_GOLDEN_REGEN=1 cargo test -p gpusim --test device_identity
//! ```

use gpusim::{
    time_kernel_device, time_kernel_device_traced, DeviceOptions, DeviceSpec, Digest, Gpu,
    TimingOptions,
};
use kernels::gemm::{GemmConfig, GemmKernel};
use kernels::{FusedConfig, FusedKernel};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/device_identity.txt"
);

/// Allocates a case's buffers on a fresh GPU and returns the parameter block.
type ParamFn = Box<dyn Fn(&mut Gpu) -> Vec<u8>>;

struct Case {
    name: &'static str,
    module: sass::Module,
    dims: gpusim::LaunchDims,
    region: (u32, u32),
    params: ParamFn,
}

fn gemm_case(name: &'static str, cfg: GemmConfig) -> Case {
    let kern = GemmKernel::emit(cfg);
    let b = cfg.batches as u64;
    let (a_bytes, b_bytes, c_bytes) = (
        (cfg.m * cfg.kd) as u64 * 4 * b,
        (cfg.kd * cfg.n) as u64 * 4 * b,
        (cfg.m * cfg.n) as u64 * 4 * b,
    );
    Case {
        name,
        dims: kern.launch_dims(),
        region: kern.region,
        module: kern.module.clone(),
        params: Box::new(move |gpu| {
            let a = gpu.alloc(a_bytes);
            let bb = gpu.alloc(b_bytes);
            let c = gpu.alloc(c_bytes);
            kern.params(a, bb, c)
        }),
    }
}

fn cases() -> Vec<Case> {
    // Every grid is 100 or 108 blocks: two SM classes on the 80-SM V100, and
    // on the 36-SM RTX 2070 two classes for the 100-block grids (the 36-batch
    // grid is a whole multiple of 36 there, one class).
    let (c, h, w, n, k) = (32u32, 10u32, 10u32, 32u32, 256u32);
    let kern = FusedKernel::emit(FusedConfig::ours(c, h, w, n, k));
    let (din, dtf, dout) = (
        (c * h * w * n) as u64 * 4,
        (c * 16 * k) as u64 * 4,
        (k * h * w * n) as u64 * 4,
    );
    let fused = Case {
        name: "fused_ours",
        dims: kern.launch_dims(),
        region: kern.region,
        module: kern.module.clone(),
        params: Box::new(move |gpu| {
            let a = gpu.alloc(din);
            let b = gpu.alloc(dtf);
            let o = gpu.alloc(dout);
            kern.params(a, b, o)
        }),
    };
    vec![
        fused,
        gemm_case("gemm", GemmConfig::new(640, 1280, 16)),
        gemm_case("gemm_batched36", GemmConfig::new(64, 384, 32).batched(36)),
    ]
}

fn opts(case: &Case, blocks_per_sm: Option<u32>, jobs: usize) -> DeviceOptions {
    DeviceOptions {
        base: TimingOptions {
            blocks_per_sm,
            region: Some(case.region),
            profile: true,
            counters: true,
            ..Default::default()
        },
        jobs,
        ..Default::default()
    }
}

fn label(case: &Case, dev: &DeviceSpec, blocks_per_sm: Option<u32>) -> String {
    let occ = blocks_per_sm.map_or("occ".to_string(), |b| format!("b{b}"));
    format!("{}/{}/{occ}", case.name, dev.name)
}

/// One untraced device run rendered as a golden line.
fn run_line(case: &Case, dev: &DeviceSpec, blocks_per_sm: Option<u32>, jobs: usize) -> String {
    let o = opts(case, blocks_per_sm, jobs);
    let mut gpu = Gpu::new(dev.clone(), 1 << 24);
    let params = (case.params)(&mut gpu);
    let t = time_kernel_device(&mut gpu, &case.module, case.dims, &params, o)
        .expect("device timing run failed");
    let mut d = Digest::new();
    d.str(&format!("{t:?}"));
    format!(
        "{}/j{jobs} timing={} wave_cycles={} waves={} busy_sms={} time_bits={:016x}",
        label(case, dev, blocks_per_sm),
        d.hex(),
        t.wave_cycles,
        t.waves,
        t.busy_sms,
        t.time_s.to_bits(),
    )
}

/// The traced entry point at 2 workers: timing digest plus the span list.
fn traced_line(case: &Case, dev: &DeviceSpec, blocks_per_sm: Option<u32>) -> String {
    let o = opts(case, blocks_per_sm, 2);
    let mut gpu = Gpu::new(dev.clone(), 1 << 24);
    let params = (case.params)(&mut gpu);
    let (t, tr) = time_kernel_device_traced(&mut gpu, &case.module, case.dims, &params, o)
        .expect("traced device timing run failed");
    let (mut dt, mut ds) = (Digest::new(), Digest::new());
    dt.str(&format!("{t:?}"));
    ds.str(&format!("{:?}", tr.spans));
    format!(
        "{}/traced timing={} spans={} n_spans={} makespan={} truncated={}",
        label(case, dev, blocks_per_sm),
        dt.hex(),
        ds.hex(),
        tr.spans.len(),
        tr.makespan_cycles,
        tr.truncated,
    )
}

#[test]
fn device_path_is_bit_identical_to_golden() {
    let devices = [DeviceSpec::v100(), DeviceSpec::rtx2070()];
    let mut lines = Vec::new();
    for case in cases() {
        for dev in &devices {
            for blocks_per_sm in [None, Some(1)] {
                for jobs in [1, 2, 8] {
                    lines.push(run_line(&case, dev, blocks_per_sm, jobs));
                }
                lines.push(traced_line(&case, dev, blocks_per_sm));
            }
        }
    }
    let text = lines.join("\n") + "\n";

    if std::env::var("DEVICE_GOLDEN_REGEN").is_ok() {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN).parent().unwrap()).unwrap();
        std::fs::write(GOLDEN, &text).unwrap();
        eprintln!("regenerated {GOLDEN}");
        return;
    }

    let golden = std::fs::read_to_string(GOLDEN)
        .expect("missing golden file; run with DEVICE_GOLDEN_REGEN=1 to create it");
    if text != golden {
        for (got, want) in lines.iter().zip(golden.lines()) {
            if got != want {
                eprintln!("mismatch:\n  got  {got}\n  want {want}");
            }
        }
        panic!("device timing output drifted from the committed golden (see above)");
    }
}
