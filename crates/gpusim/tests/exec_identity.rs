//! Golden bit-identity contract for functional execution (`Gpu::launch`,
//! `Gpu::launch_parallel` and `Gpu::launch_counted`), the companion of
//! `hotloop_identity.rs` and `device_identity.rs`.
//!
//! Six kernels on both simulated devices — our fused Winograd kernel and
//! the cuDNN-like fused kernel on shapes with edge tiles (odd H and W, so
//! the zero-padding predicates are live), the standalone filter-transform
//! kernel, a tiled GEMM, the 36-batched GEMM of the nonfused pipeline and
//! the fp16 `HFMA2` port — each run through all three launchers on seeded
//! random inputs. Every line pins a digest of the whole allocated arena
//! after the launch (inputs and outputs, bit for bit) and, for the counted
//! launcher, the complete `ExecCounters` rendering.
//!
//! The goldens pin the functional executor as it stood when the file was
//! introduced; any later rework of the executor must reproduce them
//! unchanged. Regenerate only when the kernels themselves change:
//!
//! ```text
//! EXEC_GOLDEN_REGEN=1 cargo test -p gpusim --test exec_identity
//! ```

use gpusim::{DeviceSpec, Digest, Gpu, LaunchDims};
use kernels::filter_transform::{emit_filter_transform, transformed_filter_len};
use kernels::fp16::{pack_f16_duplicated, pack_f16_pairs};
use kernels::gemm::{GemmConfig, GemmKernel};
use kernels::{FusedConfig, FusedKernel};
use tensor::XorShiftRng;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/exec_identity.txt"
);

/// First address the arena hands out (`GlobalMemory`'s fixed base).
const ARENA_BASE: u64 = 0x1000_0000;

/// Allocates and fills a case's buffers on a fresh GPU and returns the
/// parameter block.
type ParamFn = Box<dyn Fn(&mut Gpu) -> Vec<u8>>;

struct Case {
    name: &'static str,
    module: sass::Module,
    dims: LaunchDims,
    params: ParamFn,
}

/// Upload `words` random values in [-1, 1) drawn from `rng`.
fn upload_random(gpu: &mut Gpu, rng: &mut XorShiftRng, words: usize) -> u64 {
    let data: Vec<f32> = (0..words).map(|_| rng.gen_range(-1.0, 1.0)).collect();
    gpu.alloc_upload_f32(&data)
}

/// Upload `values` random values in [-1, 1) as the half2 words `pack`
/// makes of them (finite fp16 data, so every result bit is pinned).
fn upload_half2(
    gpu: &mut Gpu,
    rng: &mut XorShiftRng,
    values: usize,
    pack: fn(&[f32]) -> Vec<u32>,
) -> u64 {
    let data: Vec<f32> = (0..values).map(|_| rng.gen_range(-1.0, 1.0)).collect();
    let words: Vec<f32> = pack(&data).into_iter().map(f32::from_bits).collect();
    gpu.alloc_upload_f32(&words)
}

fn fused_case(name: &'static str, cfg: FusedConfig, seed: u64) -> Case {
    let kern = FusedKernel::emit(cfg);
    // fp16 packs two batch elements per word.
    let n_words = if cfg.fp16 { cfg.n / 2 } else { cfg.n };
    let din = (cfg.c * cfg.h * cfg.w * n_words) as usize;
    let dtf = (cfg.c * 16 * cfg.k) as usize;
    let dout = (cfg.k * cfg.h * cfg.w * n_words) as u64 * 4;
    Case {
        name,
        dims: kern.launch_dims(),
        module: kern.module.clone(),
        params: Box::new(move |gpu| {
            let mut rng = XorShiftRng::new(seed);
            let (a, b) = if cfg.fp16 {
                (
                    upload_half2(gpu, &mut rng, 2 * din, pack_f16_pairs),
                    upload_half2(gpu, &mut rng, dtf, pack_f16_duplicated),
                )
            } else {
                (
                    upload_random(gpu, &mut rng, din),
                    upload_random(gpu, &mut rng, dtf),
                )
            };
            let o = gpu.alloc(dout);
            kern.params(a, b, o)
        }),
    }
}

fn gemm_case(name: &'static str, cfg: GemmConfig, seed: u64) -> Case {
    let kern = GemmKernel::emit(cfg);
    let b = cfg.batches as usize;
    let (a_words, b_words, c_bytes) = (
        (cfg.m * cfg.kd) as usize * b,
        (cfg.kd * cfg.n) as usize * b,
        (cfg.m * cfg.n) as u64 * 4 * b as u64,
    );
    Case {
        name,
        dims: kern.launch_dims(),
        module: kern.module.clone(),
        params: Box::new(move |gpu| {
            let mut rng = XorShiftRng::new(seed);
            let a = upload_random(gpu, &mut rng, a_words);
            let bb = upload_random(gpu, &mut rng, b_words);
            let c = gpu.alloc(c_bytes);
            kern.params(a, bb, c)
        }),
    }
}

fn filter_transform_case(c: u32, k: u32, seed: u64) -> Case {
    Case {
        name: "filter_transform",
        dims: LaunchDims::linear(c * k / 256, 256),
        module: emit_filter_transform(c, k),
        params: Box::new(move |gpu| {
            let mut rng = XorShiftRng::new(seed);
            let f = upload_random(gpu, &mut rng, (c * 9 * k) as usize);
            let out = gpu.alloc(transformed_filter_len(c, k) as u64 * 4);
            gpusim::ParamBuilder::new()
                .push_ptr(f)
                .push_ptr(out)
                .build()
        }),
    }
}

fn cases() -> Vec<Case> {
    vec![
        // 7×5 images: a partial last tile in both dimensions.
        fused_case("fused_ours", FusedConfig::ours(16, 5, 7, 32, 64), 11),
        fused_case(
            "fused_cudnn_like",
            FusedConfig::cudnn_like(16, 7, 5, 32, 64),
            12,
        ),
        filter_transform_case(16, 64, 13),
        gemm_case("gemm", GemmConfig::new(128, 256, 16), 14),
        gemm_case(
            "gemm_batched36",
            GemmConfig::new(64, 128, 8).batched(36),
            15,
        ),
        fused_case("fused_fp16", FusedConfig::ours_fp16(8, 5, 5, 64, 64), 16),
    ]
}

/// Digest of every byte the arena has handed out.
fn arena_digest(gpu: &Gpu) -> String {
    let words = gpu.mem.used() as usize / 4;
    let mut d = Digest::new();
    for v in gpu.mem.download_f32(ARENA_BASE, words).unwrap() {
        d.u32(v.to_bits());
    }
    d.hex()
}

fn run_line(case: &Case, dev: &DeviceSpec, launcher: &str) -> String {
    let mut gpu = Gpu::new(dev.clone(), 1 << 24);
    let params = (case.params)(&mut gpu);
    let counters = match launcher {
        "launch" => {
            gpu.launch(&case.module, case.dims, &params)
                .expect("launch failed");
            None
        }
        "parallel" => {
            gpu.launch_parallel(&case.module, case.dims, &params)
                .expect("parallel launch failed");
            None
        }
        "counted" => Some(
            gpu.launch_counted(&case.module, case.dims, &params)
                .expect("counted launch failed"),
        ),
        other => unreachable!("unknown launcher {other}"),
    };
    let mut line = format!(
        "{}/{}/{launcher} arena={} bytes={}",
        case.name,
        dev.name,
        arena_digest(&gpu),
        gpu.mem.used()
    );
    if let Some(c) = counters {
        let mut d = Digest::new();
        d.str(&format!("{c:?}"));
        line += &format!(
            " counters={} smem_phases={} global_sectors={}",
            d.hex(),
            c.smem_phases,
            c.global_sectors
        );
    }
    line
}

#[test]
fn functional_launches_are_bit_identical_to_golden() {
    let devices = [DeviceSpec::v100(), DeviceSpec::rtx2070()];
    let mut lines = Vec::new();
    for case in cases() {
        for dev in &devices {
            for launcher in ["launch", "parallel", "counted"] {
                lines.push(run_line(&case, dev, launcher));
            }
        }
    }
    let text = lines.join("\n") + "\n";

    if std::env::var("EXEC_GOLDEN_REGEN").is_ok() {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN).parent().unwrap()).unwrap();
        std::fs::write(GOLDEN, &text).unwrap();
        eprintln!("regenerated {GOLDEN}");
        return;
    }

    let golden = std::fs::read_to_string(GOLDEN)
        .expect("missing golden file; run with EXEC_GOLDEN_REGEN=1 to create it");
    if text != golden {
        for (got, want) in lines.iter().zip(golden.lines()) {
            if got != want {
                eprintln!("mismatch:\n  got  {got}\n  want {want}");
            }
        }
        panic!("functional execution drifted from the committed golden (see above)");
    }
}
