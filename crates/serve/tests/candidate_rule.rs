//! The serving planner and the network planner share one candidate rule
//! (`wino_core::netgraph::candidates`) and one argmin tie-break (first
//! candidate wins a tie), so for the same layer shape they pick the same
//! algorithm.

use gpusim::DeviceSpec;
use serve::{Planner, ShapeClass};
use wino_core::{AlgoPolicy, DirectTimer, NetGraph};

#[test]
fn planner_and_netgraph_pick_the_same_algorithm() {
    let n = 32;
    for dev in [DeviceSpec::v100(), DeviceSpec::rtx2070()] {
        let planner = Planner::new(dev.clone(), vec![n]);
        for class in ShapeClass::smoke_mix() {
            let plan = planner.build(&class);
            let graph = NetGraph::new("one_conv", n as usize, class.c as usize, class.hw as usize)
                .conv(class.k as usize);
            let net = graph.plan(&dev, AlgoPolicy::Auto, &DirectTimer);
            assert_eq!(
                plan.variants[0].algo,
                net.choices[0].algo.name(),
                "{} on {}",
                class.name,
                dev.name
            );
        }
    }
}
