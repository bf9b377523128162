//! Differential mode: replay a deterministic sample of (group, sender)
//! pairs through the fast-path fabric and assert the observed deliveries
//! match the static walk's reachable set, byte for byte.
//!
//! The static checker proves properties over the rule state; this mode
//! proves the checker itself models the data plane faithfully. Any
//! disagreement is reported as a violation: a host the walk predicts but
//! the replay misses (`Loss`), the reverse (`Leakage`), copy-count skew
//! (`Duplicate`), or delivered bytes differing from the expected
//! header-stripped copy (`EncapMismatch`).

use std::collections::BTreeMap;
use std::sync::Arc;

use elmo_controller::{Controller, GroupId};
use elmo_core::SplitMix64;
use elmo_dataplane::{DeliveryBatch, Fabric, HypervisorSwitch, SenderFlow};
use elmo_topology::HostId;

use crate::report::{RuleRef, Violation, ViolationKind, Witness};
use crate::walk;

/// Result of one differential run.
#[derive(Clone, Debug)]
pub struct DifferentialOutcome {
    /// (group, sender) pairs actually replayed.
    pub sampled: usize,
    /// Disagreements between the static walk and the replay.
    pub violations: Vec<Violation>,
    /// For every diverging (group, sender), the traced copy tree of a
    /// single-packet re-run — the postmortem witness the report embeds.
    pub divergence_traces: Vec<DivergenceTrace>,
}

/// The traced replication tree of one diverging replay: which switches
/// copied the packet where, so a Loss/Leakage report shows *where* the
/// tree and the static walk part ways instead of only that they do.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DivergenceTrace {
    /// The diverging group.
    pub group: GroupId,
    /// The replayed sender.
    pub sender: HostId,
    /// The copy tree as the versioned `elmo_trace` JSON document.
    pub tree_json: String,
}

/// Replay up to `max_samples` groups (one deterministic random sender
/// each) through `fabric` and diff against the static walk. Requires the
/// same installed state `check_state` sees; the fabric is only borrowed
/// mutably because injection updates switch counters.
pub fn differential_check(
    ctl: &Controller,
    fabric: &mut Fabric,
    max_samples: usize,
    seed: u64,
) -> DifferentialOutcome {
    differential_check_with(ctl, fabric, max_samples, seed, 1)
}

/// [`differential_check`] with the replay spread over `replay_threads`
/// workers (0 = one per core). Every sampled sender's packet is built
/// first and the whole sample replays as one batch, so the engine's
/// packet-range split, post-join merge and compiled hop table are all on
/// the path being diffed; deliveries are attributed back to their sample
/// by packet index. The walk's predictions don't change, so any
/// divergence the engine introduces surfaces as a Loss/Leakage/
/// EncapMismatch violation here.
pub fn differential_check_with(
    ctl: &Controller,
    fabric: &mut Fabric,
    max_samples: usize,
    seed: u64,
    replay_threads: usize,
) -> DifferentialOutcome {
    let layout = *ctl.layout();
    let mut ids: Vec<GroupId> = ctl
        .groups()
        .filter(|g| !g.unicast_fallback)
        .map(|g| g.id)
        .collect();
    ids.sort_unstable_by_key(|g| g.0);
    // Deterministic sample without replacement (Fisher-Yates prefix).
    let mut rng = SplitMix64::new(seed);
    for i in (1..ids.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        ids.swap(i, j);
    }
    ids.truncate(max_samples);
    ids.sort_unstable_by_key(|g| g.0);

    // Phase 1: walk and encapsulate every sample. A sample that fails
    // before replay keeps its violation in group order.
    let mut samples: Vec<Result<Probe, Violation>> = Vec::new();
    let mut sampled = 0usize;
    let mut flights = Vec::new();
    // The sample each batch packet belongs to.
    let mut owners: Vec<usize> = Vec::new();
    for gid in ids {
        let Some(state) = ctl.group(gid) else {
            continue;
        };
        let senders: Vec<HostId> = state.sender_hosts().collect();
        if senders.is_empty() {
            continue;
        }
        let sender = senders[(rng.next_u64() % senders.len() as u64) as usize];
        let Some(header) = ctl.header_for(gid, sender) else {
            samples.push(Err(Violation {
                group: Some(gid),
                kind: ViolationKind::Loss,
                witness: Witness {
                    host: Some(sender),
                    ..Witness::default()
                },
                detail: "controller produced no header for a multicast sender".into(),
            }));
            continue;
        };
        sampled += 1;
        let predicted =
            walk::walk_sender(ctl.topo(), &layout, fabric, state, sender, &header).deliveries;

        let mut hv = HypervisorSwitch::new(sender);
        hv.install_flow(
            state.vni,
            state.tenant_addr,
            SenderFlow::new(state.outer_addr, state.vni, &header, &layout, vec![]),
        );
        let payload: Arc<[u8]> = format!("elmo-verify differential g{}", gid.0)
            .into_bytes()
            .into();
        let mut pkts = hv.send_flight(state.vni, state.tenant_addr, &payload);
        if pkts.len() != 1 {
            samples.push(Err(Violation {
                group: Some(gid),
                kind: ViolationKind::EncapMismatch,
                witness: Witness {
                    rule: Some(RuleRef::Encap),
                    host: Some(sender),
                    ..Witness::default()
                },
                detail: format!("sender flow produced {} packets, expected 1", pkts.len()),
            }));
            continue;
        }
        let pkt = pkts.remove(0);
        // Every host copy is the same bytes: the outer stack with the Elmo
        // header stripped, plus the payload.
        let expected_bytes = {
            let mut host_copy = pkt.clone();
            host_copy.elmo = None;
            host_copy.to_bytes(&layout)
        };
        owners.push(samples.len());
        samples.push(Ok(Probe {
            gid,
            sender,
            predicted,
            expected_bytes,
            delivered: Vec::new(),
        }));
        flights.push((sender, pkt));
    }

    // Phase 2: one replay for the whole sample, deliveries attributed to
    // their sample by batch packet index.
    let mut out = DeliveryBatch::new();
    fabric.replay_flights_sharded(&flights, replay_threads, &mut out);
    // `entries` and `for_each` walk the same canonical order.
    let packets: Vec<u32> = out.entries().map(|(_, pkt)| pkt).collect();
    let mut k = 0;
    out.for_each(|h, bytes| {
        if let Ok(probe) = &mut samples[owners[packets[k] as usize]] {
            probe.delivered.push((h, bytes.to_vec()));
        }
        k += 1;
    });

    // Phase 3: diff each sample against its walk, in group order.
    let mut violations = Vec::new();
    let mut divergence_traces = Vec::new();
    let mut flight = 0;
    for sample in samples {
        let Probe {
            gid,
            sender,
            predicted,
            expected_bytes,
            delivered,
        } = match sample {
            Ok(probe) => probe,
            Err(v) => {
                violations.push(v);
                continue;
            }
        };
        // Replayed samples are the batch's packets, in order.
        let pkt = &flights[flight].1;
        flight += 1;
        let before = violations.len();
        let mut observed: BTreeMap<HostId, u32> = BTreeMap::new();
        for (h, bytes) in delivered {
            *observed.entry(h).or_insert(0) += 1;
            if bytes != expected_bytes {
                violations.push(Violation {
                    group: Some(gid),
                    kind: ViolationKind::EncapMismatch,
                    witness: Witness {
                        rule: Some(RuleRef::Encap),
                        host: Some(h),
                        ..Witness::default()
                    },
                    detail: "delivered bytes differ from the expected header-stripped copy".into(),
                });
            }
        }
        for (&h, &n) in &predicted {
            let got = observed.get(&h).copied().unwrap_or(0);
            if got != n {
                violations.push(Violation {
                    group: Some(gid),
                    kind: if got < n {
                        ViolationKind::Loss
                    } else {
                        ViolationKind::Duplicate
                    },
                    witness: Witness {
                        host: Some(h),
                        ..Witness::default()
                    },
                    detail: format!("static walk predicts {n} copies, replay delivered {got}"),
                });
            }
        }
        for (&h, &n) in &observed {
            if !predicted.contains_key(&h) {
                violations.push(Violation {
                    group: Some(gid),
                    kind: ViolationKind::Leakage,
                    witness: Witness {
                        host: Some(h),
                        ..Witness::default()
                    },
                    detail: format!("replay delivered {n} copies the static walk does not predict"),
                });
            }
        }
        if violations.len() > before {
            // Divergence: attach the traced copy tree of a re-run as the
            // witness. Tracing never changes deliveries, so the re-run
            // reproduces exactly what the diff above observed.
            fabric.start_tree_trace();
            let _ = fabric.inject_flight(sender, pkt.clone());
            let events = fabric.take_tree_trace();
            let tree = elmo_obs::CopyTree::build(0, &events, |n| {
                elmo_dataplane::trace_node_label(ctl.topo(), n)
            });
            divergence_traces.push(DivergenceTrace {
                group: gid,
                sender,
                tree_json: tree.to_json(),
            });
        }
    }
    DifferentialOutcome {
        sampled,
        violations,
        divergence_traces,
    }
}

/// One sampled (group, sender) pair that reached the replay.
struct Probe {
    gid: GroupId,
    sender: HostId,
    /// The static walk's per-host copy counts.
    predicted: BTreeMap<HostId, u32>,
    /// The header-stripped bytes every host copy must equal.
    expected_bytes: Vec<u8>,
    /// What the replay delivered for this sample's packet.
    delivered: Vec<(HostId, Vec<u8>)>,
}
