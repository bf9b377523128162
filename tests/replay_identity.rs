//! Byte-identity golden tests for the replay engine.
//!
//! Every `Fabric` entry point (parse once, forward structs, materialize
//! at delivery) must be observationally indistinguishable from the
//! `elmo::dataplane::reference` oracle (the encode-per-hop byte loop):
//! identical `(HostId, Vec<u8>)` deliveries in identical order, identical
//! per-switch `SwitchStats`, identical per-tier link-byte counters, and
//! identical capture and hop records — on the paper's Figure 3 end-to-end
//! scenario as well as s-rule and default-p-rule encodings, at every
//! worker count.

use std::net::Ipv4Addr;
use std::sync::Arc;

use elmo::core::{encode_group, header_for_sender, EncoderConfig, HeaderLayout};
use elmo::dataplane::{
    reference, DeliveryBatch, Fabric, HypervisorSwitch, SenderFlow, SwitchConfig,
};
use elmo::net::vxlan::Vni;
use elmo::topology::{Clos, GroupTree, HostId, LeafId, PodId, UpstreamCover};

const OUTER: Ipv4Addr = Ipv4Addr::new(239, 1, 1, 1);
const GROUP: Ipv4Addr = Ipv4Addr::new(225, 0, 0, 1);
const MEMBERS: [HostId; 6] = [
    HostId(0),
    HostId(1),
    HostId(42),
    HostId(48),
    HostId(49),
    HostId(57),
];

/// One encoded scenario, ready to build identical fabrics from.
struct Scenario {
    topo: Clos,
    layout: HeaderLayout,
    enc: elmo::core::GroupEncoding,
    tree: GroupTree,
}

/// The paper's Figure 3 configuration: pod P3 lands on the default p-rule,
/// everything else on exact p-rules.
fn figure3_scenario() -> Scenario {
    let topo = Clos::paper_example();
    let layout = HeaderLayout::for_clos(&topo);
    let tree = GroupTree::new(&topo, MEMBERS);
    let cfg = EncoderConfig::with_budget(&layout, 325, 0);
    let mut sa = |_p| false;
    let mut la = |_l| false;
    let enc = encode_group(&topo, &tree, &cfg, &mut sa, &mut la);
    Scenario {
        topo,
        layout,
        enc,
        tree,
    }
}

/// A tight-budget encoding with group-table capacity available: some
/// switches get s-rules instead of p-rules.
fn srule_scenario() -> Scenario {
    let topo = Clos::paper_example();
    let layout = HeaderLayout::for_clos(&topo);
    let tree = GroupTree::new(&topo, MEMBERS);
    let cfg = EncoderConfig {
        r: 0,
        k_max: 2,
        h_spine_max: 2,
        h_leaf_max: 2,
        budget_bytes: 325,
        mode: elmo::core::RedundancyMode::Sum,
    };
    let mut sa = |_p| true;
    let mut la = |_l| true;
    let enc = encode_group(&topo, &tree, &cfg, &mut sa, &mut la);
    assert!(
        !enc.d_spine.s_rules.is_empty() || !enc.d_leaf.s_rules.is_empty(),
        "scenario must exercise s-rules"
    );
    Scenario {
        topo,
        layout,
        enc,
        tree,
    }
}

/// Same tight budget with no s-rule capacity: overflow switches fall to the
/// default p-rule and over-deliver.
fn default_prule_scenario() -> Scenario {
    let topo = Clos::paper_example();
    let layout = HeaderLayout::for_clos(&topo);
    let tree = GroupTree::new(&topo, MEMBERS);
    let cfg = EncoderConfig {
        r: 0,
        k_max: 2,
        h_spine_max: 2,
        h_leaf_max: 2,
        budget_bytes: 325,
        mode: elmo::core::RedundancyMode::Sum,
    };
    let mut sa = |_p| false;
    let mut la = |_l| false;
    let enc = encode_group(&topo, &tree, &cfg, &mut sa, &mut la);
    assert!(
        enc.d_leaf.default_rule.is_some() || enc.d_spine.default_rule.is_some(),
        "scenario must exercise the default p-rule"
    );
    Scenario {
        topo,
        layout,
        enc,
        tree,
    }
}

fn build_fabric(s: &Scenario) -> Fabric {
    let mut fabric = Fabric::new(s.topo, SwitchConfig::default());
    for (leaf, bm) in &s.enc.d_leaf.s_rules {
        fabric
            .leaf_mut(LeafId(*leaf))
            .install_srule(OUTER, bm.clone())
            .expect("leaf capacity");
    }
    for (pod, bm) in &s.enc.d_spine.s_rules {
        fabric
            .install_pod_srule(PodId(*pod), OUTER, bm.clone())
            .expect("spine capacity");
    }
    fabric
}

fn sender_packets(s: &Scenario, sender: HostId, count: usize) -> Vec<Vec<u8>> {
    let header = header_for_sender(
        &s.topo,
        &s.layout,
        &s.tree,
        &s.enc,
        sender,
        &UpstreamCover::multipath(),
    );
    let mut hv = HypervisorSwitch::new(sender);
    hv.install_flow(
        Vni(1),
        GROUP,
        SenderFlow::new(OUTER, Vni(1), &header, &s.layout, vec![]),
    );
    (0..count)
        .map(|i| {
            let payload = format!("replay identity payload #{i} from host {sender}");
            hv.send(Vni(1), GROUP, payload.as_bytes(), &s.layout)
                .remove(0)
        })
        .collect()
}

/// Assert every observable of two fabrics matches: per-tier link bytes and
/// each individual switch's counters.
fn assert_fabrics_identical(a: &Fabric, b: &Fabric, what: &str) {
    assert_eq!(a.stats, b.stats, "{what}: FabricStats diverged");
    let topo = *a.topo();
    for l in topo.leaves() {
        assert_eq!(
            a.leaf(l).stats,
            b.leaf(l).stats,
            "{what}: leaf {l:?} stats diverged"
        );
    }
    for sp in topo.spines() {
        assert_eq!(
            a.spine(sp).stats,
            b.spine(sp).stats,
            "{what}: spine {sp:?} stats diverged"
        );
    }
    for c in topo.cores() {
        assert_eq!(
            a.core(c).stats,
            b.core(c).stats,
            "{what}: core {c:?} stats diverged"
        );
    }
}

/// Drive the same packets through the fast path and the reference path,
/// asserting byte-identical deliveries and identical counters.
fn assert_paths_identical(s: &Scenario, what: &str) {
    let mut fast = build_fabric(s);
    let mut reference = build_fabric(s);
    for &sender in &MEMBERS {
        for pkt in sender_packets(s, sender, 3) {
            let d_fast = fast.inject(sender, pkt.clone());
            let d_ref = reference::inject(&mut reference, sender, pkt).deliveries;
            assert_eq!(d_fast, d_ref, "{what}: deliveries diverged");
            assert!(!d_fast.is_empty(), "{what}: scenario delivered nothing");
        }
    }
    assert_fabrics_identical(&fast, &reference, what);
}

#[test]
fn figure3_fast_path_is_byte_identical_to_reference() {
    assert_paths_identical(&figure3_scenario(), "figure3");
}

#[test]
fn srule_fast_path_is_byte_identical_to_reference() {
    assert_paths_identical(&srule_scenario(), "srule");
}

#[test]
fn default_prule_fast_path_is_byte_identical_to_reference() {
    assert_paths_identical(&default_prule_scenario(), "default-prule");
}

#[test]
fn unicast_fast_path_is_byte_identical_to_reference() {
    let topo = Clos::paper_example();
    let layout = HeaderLayout::for_clos(&topo);
    let mut fast = Fabric::new(topo, SwitchConfig::default());
    let mut reference = Fabric::new(topo, SwitchConfig::default());
    let mut hv_a = HypervisorSwitch::new(HostId(0));
    let mut hv_b = HypervisorSwitch::new(HostId(0));
    for target in [HostId(1), HostId(13), HostId(57)] {
        let pa = hv_a
            .send_unicast_to(&[target], Vni(3), b"uni", &layout)
            .remove(0);
        let pb = hv_b
            .send_unicast_to(&[target], Vni(3), b"uni", &layout)
            .remove(0);
        assert_eq!(pa, pb);
        let d_fast = fast.inject(HostId(0), pa);
        let d_ref = reference::inject(&mut reference, HostId(0), pb).deliveries;
        assert_eq!(d_fast, d_ref);
        assert_eq!(d_fast[0].0, target);
    }
    assert_fabrics_identical(&fast, &reference, "unicast");
}

#[test]
fn inject_batch_matches_sequential_injects() {
    let s = figure3_scenario();
    let mut one_by_one = build_fabric(&s);
    let mut batched = build_fabric(&s);
    let mut batch = Vec::new();
    let mut expected = Vec::new();
    for &sender in &MEMBERS[..3] {
        for pkt in sender_packets(&s, sender, 2) {
            expected.extend(one_by_one.inject(sender, pkt.clone()));
            batch.push((sender, pkt));
        }
    }
    let got = batched.inject_batch(batch, 1);
    assert_eq!(got, expected);
    assert_fabrics_identical(&one_by_one, &batched, "batch");
}

#[test]
fn inject_flight_matches_byte_injection() {
    let s = figure3_scenario();
    let sender = HostId(0);
    let header = header_for_sender(
        &s.topo,
        &s.layout,
        &s.tree,
        &s.enc,
        sender,
        &UpstreamCover::multipath(),
    );
    // Two hypervisors with identical state: one sends bytes, one flights.
    let mut hv_bytes = HypervisorSwitch::new(sender);
    let mut hv_flight = HypervisorSwitch::new(sender);
    for hv in [&mut hv_bytes, &mut hv_flight] {
        hv.install_flow(
            Vni(1),
            GROUP,
            SenderFlow::new(OUTER, Vni(1), &header, &s.layout, vec![]),
        );
    }
    let mut fast = build_fabric(&s);
    let mut flight_fab = build_fabric(&s);
    let payload: Arc<[u8]> = Arc::from(&b"flight payload"[..]);
    for _ in 0..4 {
        let pkt = hv_bytes.send(Vni(1), GROUP, &payload, &s.layout).remove(0);
        let flight = hv_flight.send_flight(Vni(1), GROUP, &payload).remove(0);
        assert_eq!(flight.to_bytes(&s.layout), pkt, "send_flight wire bytes");
        let d_bytes = fast.inject(sender, pkt);
        let d_flight = flight_fab.inject_flight(sender, flight);
        assert_eq!(d_bytes, d_flight);
    }
    assert_fabrics_identical(&fast, &flight_fab, "flight");
}

#[test]
fn replay_is_deterministic_across_runs() {
    let run = || {
        let s = figure3_scenario();
        let mut fabric = build_fabric(&s);
        let mut out = Vec::new();
        for &sender in &MEMBERS {
            for pkt in sender_packets(&s, sender, 2) {
                out.extend(fabric.inject(sender, pkt));
            }
        }
        (out, fabric.stats)
    };
    let (d1, s1) = run();
    let (d2, s2) = run();
    assert_eq!(d1, d2, "deliveries must be bit-identical across runs");
    assert_eq!(s1, s2, "link counters must be identical across runs");
}

#[test]
fn capture_is_identical_and_restartable() {
    let s = figure3_scenario();
    let mut fast = build_fabric(&s);
    let mut reference = build_fabric(&s);
    let pkts = sender_packets(&s, HostId(0), 2);

    // Session 1: both paths capture the same wire copies in the same order.
    fast.start_capture(1024);
    fast.inject(HostId(0), pkts[0].clone());
    let cap_fast = fast.take_capture();
    let cap_ref = reference::inject(&mut reference, HostId(0), pkts[0].clone()).wire;
    assert!(!cap_fast.is_empty());
    assert_eq!(cap_fast, cap_ref, "captured copies diverged");

    // Session 2: take_capture reset state, so a fresh capture works and is
    // independent of the first.
    fast.start_capture(1024);
    fast.inject(HostId(0), pkts[1].clone());
    let cap2 = fast.take_capture();
    assert_eq!(cap2.len(), cap_fast.len(), "second session captures anew");
    assert_ne!(cap2, cap_fast, "entropy differs, so copies differ");

    // After take_capture, capturing is off: nothing is recorded.
    fast.inject(HostId(0), pkts[0].clone());
    assert!(fast.take_capture().is_empty());

    // The capture limit is honored per session.
    fast.start_capture(3);
    fast.inject(HostId(0), pkts[0].clone());
    assert_eq!(fast.take_capture().len(), 3);
}

#[test]
fn failed_switch_behaves_identically_on_both_paths() {
    let s = figure3_scenario();
    let mut fast = build_fabric(&s);
    let mut reference = build_fabric(&s);
    for f in [&mut fast, &mut reference] {
        f.fail_core(elmo::topology::CoreId(0));
        f.fail_core(elmo::topology::CoreId(1));
    }
    for pkt in sender_packets(&s, HostId(0), 3) {
        let d_fast = fast.inject(HostId(0), pkt.clone());
        let d_ref = reference::inject(&mut reference, HostId(0), pkt).deliveries;
        assert_eq!(d_fast, d_ref, "deliveries diverged under failure");
    }
    assert_fabrics_identical(&fast, &reference, "failed-core");
}

/// One packet at a time through `inject`, each packet's deliveries sorted
/// into the canonical per-packet order — what a batch replay promises at
/// any worker count.
fn canonicalize_serial(fabric: &mut Fabric, batch: &[(HostId, Vec<u8>)]) -> Vec<(HostId, Vec<u8>)> {
    let mut out = Vec::new();
    for (sender, pkt) in batch {
        let mut per_pkt = fabric.inject(*sender, pkt.clone());
        per_pkt.sort_unstable_by(|a, b| ((a.0).0, &a.1).cmp(&((b.0).0, &b.1)));
        out.extend(per_pkt);
    }
    out
}

/// Replay a flight batch on `workers` workers, deliveries materialized in
/// canonical order.
fn replay_vec(
    fabric: &mut Fabric,
    flights: &[(HostId, elmo::dataplane::FlightPacket)],
    workers: usize,
) -> Vec<(HostId, Vec<u8>)> {
    let mut out = DeliveryBatch::new();
    fabric.replay_flights_sharded(flights, workers, &mut out);
    out.to_vec()
}

/// Drive one scenario's batch through per-packet `inject` and through
/// `inject_batch` at several worker counts: the delivery set (canonical
/// order) and every merged counter must match exactly.
fn assert_sharded_identical(s: &Scenario, what: &str) {
    let mut batch = Vec::new();
    for &sender in &MEMBERS {
        for pkt in sender_packets(s, sender, 3) {
            batch.push((sender, pkt));
        }
    }
    let mut serial = build_fabric(s);
    let expected = canonicalize_serial(&mut serial, &batch);
    assert!(!expected.is_empty(), "{what}: scenario delivered nothing");
    for shards in [1usize, 2, 4, 8] {
        let mut sharded = build_fabric(s);
        let got = sharded.inject_batch(batch.clone(), shards);
        assert_eq!(
            got, expected,
            "{what}: sharded({shards}) delivery set diverged"
        );
        assert_fabrics_identical(&serial, &sharded, &format!("{what}: sharded({shards})"));
    }
    // Batches smaller than the worker count: some workers get one packet,
    // and with no packets at all the engine still runs one empty range.
    for len in SMALL_BATCHES {
        let small = &batch[..len];
        let mut serial = build_fabric(s);
        let expected = canonicalize_serial(&mut serial, small);
        for shards in [1usize, 2, 4, 8] {
            let mut sharded = build_fabric(s);
            let got = sharded.inject_batch(small.to_vec(), shards);
            assert_eq!(
                got, expected,
                "{what}: sharded({shards}) delivery set diverged on {len} packets"
            );
            assert_fabrics_identical(
                &serial,
                &sharded,
                &format!("{what}: sharded({shards}), {len} packets"),
            );
        }
    }
}

/// Batch lengths below most worker counts, replayed by the sharded and
/// traced identity checks on top of their full batches.
const SMALL_BATCHES: [usize; 3] = [0, 1, 3];

#[test]
fn figure3_sharded_replay_matches_serial_at_all_shard_counts() {
    assert_sharded_identical(&figure3_scenario(), "figure3");
}

#[test]
fn srule_sharded_replay_matches_serial_at_all_shard_counts() {
    assert_sharded_identical(&srule_scenario(), "srule");
}

#[test]
fn default_prule_sharded_replay_matches_serial_at_all_shard_counts() {
    assert_sharded_identical(&default_prule_scenario(), "default-prule");
}

#[test]
fn sharded_flights_match_sharded_bytes() {
    let s = figure3_scenario();
    let sender = HostId(0);
    let header = header_for_sender(
        &s.topo,
        &s.layout,
        &s.tree,
        &s.enc,
        sender,
        &UpstreamCover::multipath(),
    );
    let mut hv_bytes = HypervisorSwitch::new(sender);
    let mut hv_flight = HypervisorSwitch::new(sender);
    for hv in [&mut hv_bytes, &mut hv_flight] {
        hv.install_flow(
            Vni(1),
            GROUP,
            SenderFlow::new(OUTER, Vni(1), &header, &s.layout, vec![]),
        );
    }
    let mut byte_batch = Vec::new();
    let mut flight_batch = Vec::new();
    for i in 0..6 {
        let payload: Arc<[u8]> = Arc::from(format!("sharded flight payload #{i}").into_bytes());
        byte_batch.push((
            sender,
            hv_bytes.send(Vni(1), GROUP, &payload, &s.layout).remove(0),
        ));
        flight_batch.push((
            sender,
            hv_flight.send_flight(Vni(1), GROUP, &payload).remove(0),
        ));
    }
    let mut from_bytes = build_fabric(&s);
    let mut from_flights = build_fabric(&s);
    let d_bytes = from_bytes.inject_batch(byte_batch, 4);
    let d_flights = replay_vec(&mut from_flights, &flight_batch, 4);
    assert_eq!(d_bytes, d_flights, "flight/byte sharded paths diverged");
    assert!(!d_bytes.is_empty());
    assert_fabrics_identical(&from_bytes, &from_flights, "sharded flight vs bytes");
}

#[test]
fn sharded_replay_respects_failed_switches() {
    let s = figure3_scenario();
    let mut batch = Vec::new();
    for &sender in &MEMBERS {
        for pkt in sender_packets(&s, sender, 2) {
            batch.push((sender, pkt));
        }
    }
    let fail = |f: &mut Fabric| {
        f.fail_core(elmo::topology::CoreId(0));
        f.fail_core(elmo::topology::CoreId(1));
    };
    let mut serial = build_fabric(&s);
    fail(&mut serial);
    let expected = canonicalize_serial(&mut serial, &batch);
    for shards in [2usize, 4] {
        let mut sharded = build_fabric(&s);
        fail(&mut sharded);
        let got = sharded.inject_batch(batch.clone(), shards);
        assert_eq!(got, expected, "sharded({shards}) under failure diverged");
        assert_fabrics_identical(&serial, &sharded, "sharded failed-core");
    }
}

#[test]
fn sharded_replay_is_deterministic_across_runs_and_shard_counts() {
    let run = |shards: usize| {
        let s = figure3_scenario();
        let mut fabric = build_fabric(&s);
        let mut batch = Vec::new();
        for &sender in &MEMBERS {
            for pkt in sender_packets(&s, sender, 2) {
                batch.push((sender, pkt));
            }
        }
        let out = fabric.inject_batch(batch, shards);
        (out, fabric.stats)
    };
    let (d2a, s2a) = run(2);
    let (d2b, s2b) = run(2);
    assert_eq!(d2a, d2b, "same shard count must be bit-identical");
    assert_eq!(s2a, s2b);
    let (d4, s4) = run(4);
    assert_eq!(d2a, d4, "shard count must not change the delivery vector");
    assert_eq!(s2a, s4, "shard count must not change link counters");
}

/// Flight-packet form of [`sender_packets`], for the tracing tests.
fn sender_flights(
    s: &Scenario,
    sender: HostId,
    count: usize,
) -> Vec<elmo::dataplane::FlightPacket> {
    let header = header_for_sender(
        &s.topo,
        &s.layout,
        &s.tree,
        &s.enc,
        sender,
        &UpstreamCover::multipath(),
    );
    let mut hv = HypervisorSwitch::new(sender);
    hv.install_flow(
        Vni(1),
        GROUP,
        SenderFlow::new(OUTER, Vni(1), &header, &s.layout, vec![]),
    );
    (0..count)
        .map(|i| {
            let payload: Arc<[u8]> =
                Arc::from(format!("traced replay payload #{i} from host {sender}").into_bytes());
            hv.send_flight(Vni(1), GROUP, &payload).remove(0)
        })
        .collect()
}

/// Copy-tree tracing must be a pure observer: trace-enabled sharded
/// replay keeps the delivery set bit-identical to an untraced run at
/// every shard count, and the recorded event set (canonically sorted by
/// `take_tree_trace`) is the same at 1/2/4/8 shards as on the serial
/// path — so the reconstructed copy-tree topology is shard-invariant.
fn assert_traced_identical(s: &Scenario, what: &str) {
    let mut batch = Vec::new();
    for &sender in &MEMBERS {
        for flight in sender_flights(s, sender, 2) {
            batch.push((sender, flight));
        }
    }
    // Untraced canonical deliveries: the baseline tracing must not change.
    let mut plain = build_fabric(s);
    let expected = replay_vec(&mut plain, &batch, 1);
    assert!(!expected.is_empty(), "{what}: scenario delivered nothing");

    // One injection at a time in one session: the running packet offset
    // numbers them in injection order, so their events are directly
    // comparable with one batch's indices.
    let mut serial = build_fabric(s);
    serial.start_tree_trace();
    for (sender, flight) in &batch {
        serial.inject_flight(*sender, flight.clone());
    }
    let serial_events = serial.take_tree_trace();
    assert!(!serial_events.is_empty(), "{what}: trace recorded nothing");

    for shards in [1usize, 2, 4, 8] {
        let mut traced = build_fabric(s);
        traced.start_tree_trace();
        let got = replay_vec(&mut traced, &batch, shards);
        assert_eq!(
            got, expected,
            "{what}: tracing changed deliveries at {shards} shards"
        );
        let events = traced.take_tree_trace();
        assert_eq!(
            events, serial_events,
            "{what}: trace events diverged at {shards} shards"
        );
        assert_fabrics_identical(&plain, &traced, &format!("{what}: traced({shards})"));
        // The per-packet trees those events reconstruct are identical
        // too; spot-check the first packet's tree at every shard count.
        let tree = elmo::obs::CopyTree::build(0, &events, |n| format!("{n}"));
        let serial_tree = elmo::obs::CopyTree::build(0, &serial_events, |n| format!("{n}"));
        assert_eq!(
            tree, serial_tree,
            "{what}: copy tree diverged at {shards} shards"
        );
    }
    for len in SMALL_BATCHES {
        let small = &batch[..len];
        let mut plain = build_fabric(s);
        let expected = replay_vec(&mut plain, small, 1);
        let mut serial = build_fabric(s);
        serial.start_tree_trace();
        for (sender, flight) in small {
            serial.inject_flight(*sender, flight.clone());
        }
        let serial_events = serial.take_tree_trace();
        for shards in [1usize, 2, 4, 8] {
            let mut traced = build_fabric(s);
            traced.start_tree_trace();
            let got = replay_vec(&mut traced, small, shards);
            assert_eq!(
                got, expected,
                "{what}: tracing changed deliveries at {shards} shards on {len} packets"
            );
            assert_eq!(
                traced.take_tree_trace(),
                serial_events,
                "{what}: trace events diverged at {shards} shards on {len} packets"
            );
            assert_fabrics_identical(
                &plain,
                &traced,
                &format!("{what}: traced({shards}), {len} packets"),
            );
        }
    }
}

/// The full batched ≡ scalar ≡ reference triangle: the run-grouped SoA
/// engine (`replay_flights_sharded` through one *reused* `DeliveryBatch`,
/// materialized via the zero-copy `for_each` the bench times) must match
/// the encode-per-hop reference path byte for byte at 1/2/4/8 shards,
/// with tracing enabled as well as disabled. Per-packet `inject` from
/// wire bytes is the middle leg — its equality with both ends pins all
/// three.
fn assert_batched_matches_reference(s: &Scenario, what: &str) {
    let mut wire_batch = Vec::new();
    let mut flights = Vec::new();
    for &sender in &MEMBERS {
        for pkt in sender_packets(s, sender, 3) {
            // Parse the identical wire bytes the reference path consumes,
            // so the two streams cannot drift apart by construction.
            flights.push((
                sender,
                elmo::dataplane::FlightPacket::parse(&pkt, &s.layout).expect("packet parses"),
            ));
            wire_batch.push((sender, pkt));
        }
    }
    // Reference leg: encode-per-hop, canonicalized per packet.
    let mut reference = build_fabric(s);
    let mut expected = Vec::new();
    for (sender, pkt) in &wire_batch {
        let mut per_pkt = reference::inject(&mut reference, *sender, pkt.clone()).deliveries;
        per_pkt.sort_unstable_by(|a, b| ((a.0).0, &a.1).cmp(&((b.0).0, &b.1)));
        expected.extend(per_pkt);
    }
    assert!(!expected.is_empty(), "{what}: scenario delivered nothing");
    // Per-packet leg.
    let mut serial = build_fabric(s);
    let scalar = canonicalize_serial(&mut serial, &wire_batch);
    assert_eq!(scalar, expected, "{what}: scalar != reference");
    assert_fabrics_identical(&reference, &serial, &format!("{what}: scalar"));
    // Batched leg: one DeliveryBatch reused across every shard count and
    // tracing mode, so arena recycling is part of what's being proven.
    let mut out = elmo::dataplane::DeliveryBatch::new();
    for tracing in [false, true] {
        for shards in [1usize, 2, 4, 8] {
            let mut batched = build_fabric(s);
            if tracing {
                batched.start_tree_trace();
            }
            batched.replay_flights_sharded(&flights, shards, &mut out);
            let mut got = Vec::with_capacity(expected.len());
            out.for_each(|h, b| got.push((h, b.to_vec())));
            assert_eq!(
                got, expected,
                "{what}: batched({shards}, tracing={tracing}) != reference"
            );
            assert_fabrics_identical(
                &reference,
                &batched,
                &format!("{what}: batched({shards}, tracing={tracing})"),
            );
            if tracing {
                assert!(
                    !batched.take_tree_trace().is_empty(),
                    "{what}: traced batched({shards}) recorded nothing"
                );
            }
        }
    }
}

#[test]
fn figure3_batched_engine_matches_reference() {
    assert_batched_matches_reference(&figure3_scenario(), "figure3");
}

#[test]
fn srule_batched_engine_matches_reference() {
    assert_batched_matches_reference(&srule_scenario(), "srule");
}

#[test]
fn default_prule_batched_engine_matches_reference() {
    assert_batched_matches_reference(&default_prule_scenario(), "default-prule");
}

#[test]
fn figure3_traced_replay_is_bit_identical_at_all_shard_counts() {
    assert_traced_identical(&figure3_scenario(), "figure3");
}

#[test]
fn srule_traced_replay_is_bit_identical_at_all_shard_counts() {
    assert_traced_identical(&srule_scenario(), "srule");
}

#[test]
fn default_prule_traced_replay_is_bit_identical_at_all_shard_counts() {
    assert_traced_identical(&default_prule_scenario(), "default-prule");
}

#[test]
fn garbage_bytes_count_parse_drop_on_ingress_leaf() {
    let topo = Clos::paper_example();
    let mut fast = Fabric::new(topo, SwitchConfig::default());
    let mut reference = Fabric::new(topo, SwitchConfig::default());
    assert!(fast.inject(HostId(0), vec![0u8; 24]).is_empty());
    assert!(reference::inject(&mut reference, HostId(0), vec![0u8; 24])
        .deliveries
        .is_empty());
    assert_eq!(fast.leaf(LeafId(0)).stats.dropped_parse, 1);
    assert_fabrics_identical(&fast, &reference, "garbage");
    // The batched wrapper parses on the ingress leaf's behalf too.
    for shards in [1usize, 4] {
        let mut sharded = Fabric::new(topo, SwitchConfig::default());
        assert!(sharded
            .inject_batch([(HostId(0), vec![0u8; 24])], shards)
            .is_empty());
        assert_fabrics_identical(&sharded, &reference, "garbage, sharded");
    }
}

/// The oracle's records for a byte batch, packet by packet: every wire
/// copy and every hop record, concatenated in batch order.
fn oracle_records(
    fabric: &mut Fabric,
    batch: &[(HostId, Vec<u8>)],
) -> (Vec<Vec<u8>>, Vec<elmo::dataplane::HopRecord>) {
    let mut wire = Vec::new();
    let mut hops = Vec::new();
    for (sender, pkt) in batch {
        let run = reference::inject(fabric, *sender, pkt.clone());
        wire.extend(run.wire);
        hops.extend(run.hops);
    }
    (wire, hops)
}

/// Capture and hop tracing are views of the engine's copy-tree events,
/// so they run on the workers: at 1/2/4 workers a capture session and an
/// `inject_traced` batch must equal the oracle's wire-copy and hop
/// records in content and order, and each other.
fn assert_sessions_match_oracle(s: &Scenario, fail: fn(&mut Fabric), what: &str) {
    let mut batch = Vec::new();
    for &sender in &MEMBERS {
        for pkt in sender_packets(s, sender, 2) {
            batch.push((sender, pkt));
        }
    }
    let mut oracle = build_fabric(s);
    fail(&mut oracle);
    let (wire, hops) = oracle_records(&mut oracle, &batch);
    assert!(!hops.is_empty(), "{what}: oracle recorded no hops");
    let mut first: Option<(Vec<Vec<u8>>, Vec<elmo::dataplane::HopRecord>)> = None;
    for workers in [1usize, 2, 4] {
        let mut captured = build_fabric(s);
        fail(&mut captured);
        captured.start_capture(usize::MAX);
        captured.inject_batch(batch.clone(), workers);
        let got_wire = captured.take_capture();
        assert_eq!(
            got_wire, wire,
            "{what}: capture at {workers} workers != oracle"
        );
        assert_fabrics_identical(&oracle, &captured, &format!("{what}: capture({workers})"));

        let mut traced = build_fabric(s);
        fail(&mut traced);
        let (_, got_hops) = traced.inject_traced(batch.clone(), workers);
        assert_eq!(
            got_hops, hops,
            "{what}: hop records at {workers} workers != oracle"
        );
        assert_fabrics_identical(&oracle, &traced, &format!("{what}: traced({workers})"));

        match &first {
            None => first = Some((got_wire, got_hops)),
            Some((w1, h1)) => {
                assert_eq!(&got_wire, w1, "{what}: capture at {workers} != 1 worker");
                assert_eq!(&got_hops, h1, "{what}: hops at {workers} != 1 worker");
            }
        }
    }
}

fn no_failure(_: &mut Fabric) {}

fn fail_cores(f: &mut Fabric) {
    f.fail_core(elmo::topology::CoreId(0));
    f.fail_core(elmo::topology::CoreId(1));
}

#[test]
fn figure3_capture_and_hops_match_oracle_at_all_worker_counts() {
    assert_sessions_match_oracle(&figure3_scenario(), no_failure, "figure3");
}

#[test]
fn srule_capture_and_hops_match_oracle_at_all_worker_counts() {
    assert_sessions_match_oracle(&srule_scenario(), no_failure, "srule");
}

#[test]
fn failed_core_capture_and_hops_match_oracle_at_all_worker_counts() {
    assert_sessions_match_oracle(&figure3_scenario(), fail_cores, "failed-core");
}

/// A garbage packet never reaches the engine, but its raw bytes were put
/// on the host link, so the capture still records them — between the
/// copies of its neighbours, exactly where the oracle's wire record has
/// them.
#[test]
fn capture_records_garbage_ingress_bytes_in_order() {
    let s = figure3_scenario();
    let pkts = sender_packets(&s, HostId(0), 2);
    let batch = vec![
        (HostId(0), pkts[0].clone()),
        (HostId(0), vec![0u8; 24]),
        (HostId(0), pkts[1].clone()),
    ];
    let mut oracle = build_fabric(&s);
    let (wire, _) = oracle_records(&mut oracle, &batch);
    assert!(wire.contains(&vec![0u8; 24]));
    for workers in [1usize, 2, 4] {
        let mut f = build_fabric(&s);
        f.start_capture(usize::MAX);
        f.inject_batch(batch.clone(), workers);
        assert_eq!(
            f.take_capture(),
            wire,
            "garbage capture at {workers} workers"
        );
        assert_fabrics_identical(&oracle, &f, &format!("garbage capture({workers})"));
    }
}
