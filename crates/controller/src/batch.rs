//! Two-phase deterministic batch encoding (the parallel encode pipeline).
//!
//! Per-group encoding is embarrassingly parallel except for one shared
//! resource: the fabric-wide s-rule budget ([`SRuleSpace`], per-switch
//! `Fmax`). Running Algorithm 1 for many groups concurrently against a
//! shared tracker would make results depend on thread interleaving, so the
//! pipeline splits the work:
//!
//! * **Phase 1 (parallel)** — encode every group *optimistically*, assuming
//!   every s-rule allocation succeeds, while recording the exact sequence of
//!   capacity requests Algorithm 1 issued ([`encode_group_optimistic`]).
//! * **Phase 2 (sequential, group order)** — replay each group's requests
//!   into the real [`SRuleSpace`] in group order ([`try_admit`]). If every
//!   request is granted — always true with unlimited `Fmax`, the paper's
//!   main configuration — the optimistic encoding *is* the serial encoding,
//!   because Algorithm 1's control flow only observes allocation results.
//!   If any request is refused, the group's trial reservations are rolled
//!   back and the group is re-encoded serially against the live tracker
//!   ([`encode_group_admitted`]), reproducing the serial path exactly —
//!   including the subtle coupling where a refused *spine* allocation grows
//!   the spine default rule and thereby shrinks the leaf layer's bit budget.
//!
//! The two drivers of this loop are [`crate::Controller::create_groups_batch`]
//! and `elmo_sim::sweep`. Both are byte-identical to a serial group-by-group
//! encode at any thread count: `batch_create_matches_sequential_create`
//! (controller unit test) and `tests/parallel_determinism.rs` check this on
//! unlimited and capacity-limited configurations.

use std::cell::RefCell;
use std::sync::OnceLock;

use elmo_core::{encode_group_with, EncodeScratch, EncoderConfig, GroupEncoding};
use elmo_topology::{Clos, GroupTree, LeafId, PodId};

use crate::srules::SRuleSpace;

/// Batch-pipeline metrics. Counters are recorded from both parallel
/// (phase 1) and sequential (phase 2) code — commutative sums, so totals
/// are identical at any thread count. The wall-clock spans live under the
/// nondeterministic `span.` namespace.
pub(crate) struct BatchMetrics {
    pub(crate) groups: elmo_obs::Counter,
    pub(crate) optimistic_encodes: elmo_obs::Counter,
    pub(crate) admitted: elmo_obs::Counter,
    pub(crate) reencoded: elmo_obs::Counter,
}

pub(crate) fn metrics() -> &'static BatchMetrics {
    static M: OnceLock<BatchMetrics> = OnceLock::new();
    M.get_or_init(|| BatchMetrics {
        groups: elmo_obs::counter("controller.batch.groups"),
        optimistic_encodes: elmo_obs::counter("controller.batch.optimistic_encodes"),
        admitted: elmo_obs::counter("controller.batch.admitted"),
        reencoded: elmo_obs::counter("controller.batch.reencoded"),
    })
}

/// One s-rule capacity request recorded during an optimistic encode, in the
/// order Algorithm 1 issues it against a live tracker.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SRuleReq {
    /// One group-table entry on every spine of the pod.
    Pod(PodId),
    /// One group-table entry on the leaf.
    Leaf(LeafId),
}

/// Phase 1: encode one group assuming unlimited s-rule capacity, recording
/// every allocation Algorithm 1 would have made into `reqs` (cleared first).
pub fn encode_group_optimistic(
    topo: &Clos,
    tree: &GroupTree,
    cfg: &EncoderConfig,
    scratch: &mut EncodeScratch,
    reqs: &mut Vec<SRuleReq>,
) -> GroupEncoding {
    reqs.clear();
    let cell = RefCell::new(reqs);
    let mut spine_alloc = |p: PodId| {
        cell.borrow_mut().push(SRuleReq::Pod(p));
        true
    };
    let mut leaf_alloc = |l: LeafId| {
        cell.borrow_mut().push(SRuleReq::Leaf(l));
        true
    };
    encode_group_with(topo, tree, cfg, &mut spine_alloc, &mut leaf_alloc, scratch)
}

/// Phase 2 admission: try to reserve every recorded request, in order.
/// All-or-nothing — on the first refusal every reservation made for this
/// group is rolled back and `false` is returned, leaving `srules` exactly
/// as it was so the caller can re-encode against the pre-group state.
pub fn try_admit(srules: &mut SRuleSpace, reqs: &[SRuleReq]) -> bool {
    for (i, req) in reqs.iter().enumerate() {
        let granted = match *req {
            SRuleReq::Pod(p) => srules.alloc_pod(p),
            SRuleReq::Leaf(l) => srules.alloc_leaf(l),
        };
        if !granted {
            for r in &reqs[..i] {
                match *r {
                    SRuleReq::Pod(p) => srules.free_pod(p),
                    SRuleReq::Leaf(l) => srules.free_leaf(l),
                }
            }
            return false;
        }
    }
    true
}

/// Serial-path encode against the live tracker, used when admission fails.
/// Partial allocations stick even when later ones are refused — exactly the
/// semantics of encoding this group serially at this point in the order.
pub fn encode_group_admitted(
    topo: &Clos,
    tree: &GroupTree,
    cfg: &EncoderConfig,
    srules: &mut SRuleSpace,
    scratch: &mut EncodeScratch,
) -> GroupEncoding {
    let cell = RefCell::new(srules);
    let mut spine_alloc = |p: PodId| cell.borrow_mut().alloc_pod(p);
    let mut leaf_alloc = |l: LeafId| cell.borrow_mut().alloc_leaf(l);
    encode_group_with(topo, tree, cfg, &mut spine_alloc, &mut leaf_alloc, scratch)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_admit_rolls_back_on_refusal() {
        let topo = Clos::paper_example();
        let mut srules = SRuleSpace::new(&topo, 1, 1);
        assert!(srules.alloc_leaf(LeafId(0))); // pre-fill leaf 0
        let reqs = [
            SRuleReq::Leaf(LeafId(1)),
            SRuleReq::Pod(PodId(0)),
            SRuleReq::Leaf(LeafId(0)), // refused: at capacity
        ];
        assert!(!try_admit(&mut srules, &reqs));
        assert_eq!(srules.leaf_usage(LeafId(1)), 0, "rolled back");
        assert_eq!(srules.pod_usage(PodId(0)), 0, "rolled back");
        assert_eq!(srules.leaf_usage(LeafId(0)), 1, "pre-existing kept");
    }
}
