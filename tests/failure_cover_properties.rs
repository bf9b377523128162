//! Seeded property tests for failure handling: whenever the greedy set
//! cover reports `complete`, the chosen (spine, core-port) combinations
//! really reach every member pod and local leaf through alive switches
//! only; and `complete = false` only when no cover exists at all. Inputs
//! come from the in-repo SplitMix64 generator, one seed per case.

mod common;

use common::{cases, distinct};
use elmo::topology::{
    Clos, CoreId, FailureState, GroupTree, HostId, PodId, SpineId, UpstreamCover,
};

fn check_cover(topo: &Clos, failures: &FailureState, tree: &GroupTree, sender_pod: PodId) {
    let cover = UpstreamCover::compute(topo, failures, tree, sender_pod, true);
    let remote: Vec<PodId> = tree.pods().filter(|&p| p != sender_pod).collect();

    // Which remote pods do the chosen ports actually reach?
    let reaches = |pod: PodId| -> bool {
        cover.leaf_up_ports.iter().any(|&sl| {
            let s = topo.spine_in_pod(sender_pod, sl);
            if !failures.spine_alive(s) {
                return false;
            }
            let cores: Vec<CoreId> = topo.cores_of_spine(s).collect();
            cover
                .spine_up_ports
                .iter()
                .any(|&pl| failures.core_reaches_pod(topo, cores[pl], pod))
        })
    };

    if cover.complete {
        // Every chosen spine must be alive.
        for &sl in &cover.leaf_up_ports {
            assert!(failures.spine_alive(topo.spine_in_pod(sender_pod, sl)));
        }
        // Every remote pod covered.
        for &p in &remote {
            assert!(reaches(p), "complete cover misses pod {p}");
        }
        // Local leaves need at least one alive spine when anything exists to
        // reach beyond the sender's own leaf.
        if !remote.is_empty() || tree.num_leaves() > 0 {
            assert!(!cover.leaf_up_ports.is_empty() || remote.is_empty());
        }
    } else {
        // Incompleteness must be genuine: brute-force all (spine, core)
        // pairs and confirm some pod is unreachable.
        let all_reachable = remote.iter().all(|&p| {
            topo.spines_in_pod(sender_pod)
                .any(|s| failures.spine_reaches_pod(topo, s, p))
        }) && topo
            .spines_in_pod(sender_pod)
            .any(|s| failures.spine_alive(s));
        assert!(!all_reachable, "cover said incomplete but a path exists");
    }
}

#[test]
fn greedy_cover_is_sound() {
    let topo = Clos::paper_example();
    cases(0xC0FE_0000, 256, |rng| {
        let members = distinct(rng, 64, 2, 12);
        let dead_spines = distinct(rng, 8, 0, 5);
        let dead_cores = distinct(rng, 4, 0, 3);
        let sender_pod = PodId(rng.below(4) as u32);
        let mut failures = FailureState::none();
        for s in dead_spines {
            failures.fail_spine(SpineId(s));
        }
        for c in dead_cores {
            failures.fail_core(CoreId(c));
        }
        let tree = GroupTree::new(&topo, members.into_iter().map(HostId));
        check_cover(&topo, &failures, &tree, sender_pod);
    });
}

#[test]
fn healthy_network_cover_is_minimal() {
    let topo = Clos::paper_example();
    cases(0x4EA1_0000, 256, |rng| {
        let members = distinct(rng, 64, 2, 12);
        let sender_pod = PodId(rng.below(4) as u32);
        let tree = GroupTree::new(&topo, members.into_iter().map(HostId));
        let cover = UpstreamCover::compute(&topo, &FailureState::none(), &tree, sender_pod, true);
        assert!(cover.complete);
        // Without failures one spine and at most one core port suffice.
        assert!(cover.leaf_up_ports.len() <= 1);
        assert!(cover.spine_up_ports.len() <= 1);
    });
}
