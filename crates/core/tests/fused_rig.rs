//! The fused-kernel timing rig is the one buffer layout every fused timing
//! uses: its device timing of the hand module is exactly what
//! [`Conv::time`] reports for the fused algorithm, its tuner objective on
//! the identity schedule is exactly its one-wave timing, and its parameters
//! point at the documented allocation order.

use gpusim::{DeviceSpec, Gpu, KernelTiming};
use kernels::FusedKernel;
use wino_core::{Algo, Conv, ConvProblem};

fn same(a: &KernelTiming, b: &KernelTiming) -> bool {
    a.wave_cycles == b.wave_cycles
        && a.waves == b.waves
        && a.total_blocks == b.total_blocks
        && a.busy_sms == b.busy_sms
        && a.region_cycles == b.region_cycles
        && a.dram_bytes == b.dram_bytes
        && a.time_s.to_bits() == b.time_s.to_bits()
        && a.tflops.to_bits() == b.tflops.to_bits()
}

#[test]
fn rig_matches_conv_time_and_objective_on_both_devices() {
    // Small, but address-sensitive on both devices: moving the transformed
    // filter and output buffers (dropping the filter slab before them)
    // changes this shape's device timing, so a caller with its own buffer
    // layout cannot match the rig by accident.
    let p = ConvProblem::resnet3x3(64, 64, 16, 64);
    for dev in [DeviceSpec::v100(), DeviceSpec::rtx2070()] {
        let conv = Conv::new(p, dev.clone());
        let rig = FusedKernel::emit(conv.ours_config()).rig(&dev);

        let via_conv = conv.time(Algo::OursFused).kernel.expect("fused kernel");
        let via_rig = rig.time_device(rig.module(), rig.opts).unwrap();
        assert!(
            same(&via_conv, &via_rig),
            "{}: Conv::time and the rig disagree:\n{via_conv:?}\n{via_rig:?}",
            dev.name
        );

        let ident: Vec<u32> = (0..rig.module().insts.len() as u32).collect();
        let objective = rig.objective()(&rig.module().insts, &ident);
        let wave = rig.time_wave(rig.module(), rig.opts).unwrap();
        assert_eq!(objective, Some(wave.wave_cycles), "{}", dev.name);
    }
}

#[test]
fn rig_params_follow_the_documented_layout() {
    let p = ConvProblem::resnet3x3(32, 64, 8, 64);
    let dev = DeviceSpec::v100();
    let kern = FusedKernel::emit(Conv::new(p, dev.clone()).ours_config());
    let rig = kern.rig(&dev);
    // Input, filter, transformed filter, output — in that order.
    let bytes = [
        p.c * p.h * p.w * p.n * 4,
        p.c * 9 * p.k * 4,
        p.c * 16 * p.k * 4,
        p.k * p.h * p.w * p.n * 4,
    ];
    let mut gpu = Gpu::new(dev, 1 << 24);
    let ptrs = bytes.map(|b| gpu.alloc(b as u64));
    assert_eq!(rig.params(), kern.params(ptrs[0], ptrs[2], ptrs[3]));
    assert_eq!(rig.gpu().mem.used(), gpu.mem.used());
}
