//! Differential pin on the paper's CNNs: HIOS-LP and HIOS-MR must equal
//! `hios::core::reference` in schedule and latency bits on Inception-v3
//! @299 and NASNet-A @331, at M = 2 and 4, with and without the
//! intra-GPU pass.  Structured models are where tied stage arrivals are
//! most common, which is exactly what the window pass's tight-edge
//! tests compare; the random-DAG proptests rarely produce them.

use hios::core::lp::{HiosLpConfig, schedule_hios_lp};
use hios::core::mr::{HiosMrConfig, schedule_hios_mr};
use hios::core::reference;
use hios::cost::AnalyticCostModel;
use hios::graph::Graph;
use hios::models::{ModelConfig, inception_v3, nasnet_a};

fn check(name: &str, g: &Graph) {
    let cost = AnalyticCostModel::a40_nvlink().build_table(g);
    for m in [2usize, 4] {
        for intra in [false, true] {
            let lp = HiosLpConfig {
                num_gpus: m,
                window: 4,
                intra,
            };
            let fast = schedule_hios_lp(g, &cost, lp);
            let slow = reference::schedule_hios_lp(g, &cost, lp);
            assert_eq!(
                fast.schedule, slow.schedule,
                "LP {name} m={m} intra={intra}"
            );
            assert_eq!(
                fast.latency.to_bits(),
                slow.latency.to_bits(),
                "LP {name} m={m} intra={intra}"
            );
            let mr = HiosMrConfig {
                num_gpus: m,
                window: 4,
                intra,
            };
            let fast = schedule_hios_mr(g, &cost, mr);
            let slow = reference::schedule_hios_mr(g, &cost, mr);
            assert_eq!(
                fast.schedule, slow.schedule,
                "MR {name} m={m} intra={intra}"
            );
            assert_eq!(
                fast.latency.to_bits(),
                slow.latency.to_bits(),
                "MR {name} m={m} intra={intra}"
            );
        }
    }
}

#[test]
fn inception_v3_at_299_matches_reference() {
    check(
        "inception_v3@299",
        &inception_v3(&ModelConfig::with_input(299)),
    );
}

#[test]
fn nasnet_a_at_331_matches_reference() {
    check("nasnet@331", &nasnet_a(&ModelConfig::with_input(331)));
}
