//! End-to-end checks of the elmo-obs wiring: the global metric counters
//! must mirror the fabric's own per-instance accounting exactly, and a
//! snapshot written to disk must round-trip through the JSON layer and
//! satisfy the declared-metric contract CI enforces.

use std::net::Ipv4Addr;
use std::sync::Mutex;

use elmo::controller::{Controller, ControllerConfig, GroupId, MemberRole};
use elmo::dataplane::{
    DeliveryBatch, Fabric, FabricStats, FlightPacket, HypervisorSwitch, SenderFlow, SwitchConfig,
    SwitchStats, VmSlot,
};
use elmo::net::vxlan::Vni;
use elmo::topology::{Clos, HostId, LeafId, PodId};

/// The obs registry is process-global; serialize the tests in this binary.
static REGISTRY: Mutex<()> = Mutex::new(());

#[test]
fn fabric_globals_mirror_local_stats_exactly() {
    let _guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    elmo::obs::reset();

    // One cross-pod group on the paper-example fabric, driven end to end.
    let topo = Clos::paper_example();
    let mut ctl = Controller::new(topo, ControllerConfig::paper_default(12));
    let gid = GroupId(1);
    let vni = Vni(7);
    let tenant_addr = Ipv4Addr::new(225, 1, 2, 3);
    let members = [0u32, 1, 42, 48, 57];
    ctl.create_group(
        gid,
        vni,
        tenant_addr,
        members.iter().map(|&h| (HostId(h), MemberRole::Both)),
    );
    let state = ctl.group(gid).expect("group");
    let build_fabric = || {
        let mut fabric = Fabric::new(topo, SwitchConfig::default());
        for (leaf, bm) in &state.enc.d_leaf.s_rules {
            fabric
                .leaf_mut(LeafId(*leaf))
                .install_srule(state.outer_addr, bm.clone())
                .expect("leaf capacity");
        }
        for (pod, bm) in &state.enc.d_spine.s_rules {
            fabric
                .install_pod_srule(PodId(*pod), state.outer_addr, bm.clone())
                .expect("spine capacity");
        }
        fabric
    };
    let mut fabric = build_fabric();
    let sender = HostId(members[0]);
    let header = ctl.header_for(gid, sender).expect("header");
    let mut hv = HypervisorSwitch::new(sender);
    hv.install_flow(
        vni,
        tenant_addr,
        SenderFlow::new(state.outer_addr, vni, &header, ctl.layout(), vec![]),
    );
    let mut rx = HypervisorSwitch::new(HostId(members[1]));
    rx.subscribe(state.outer_addr, VmSlot(0));
    let mut delivered = 0usize;
    for pkt in hv.send(vni, tenant_addr, b"obs cross-check", ctl.layout()) {
        for (host, bytes) in fabric.inject(sender, pkt) {
            if host == HostId(members[1]) {
                delivered += rx.receive(&bytes, ctl.layout()).len();
            }
        }
    }
    assert_eq!(delivered, 1, "scenario must actually deliver");

    // The global counters must agree with the fabric's own stats struct —
    // they are incremented at the same sites, so any drift means a missed
    // or doubled recording call.
    let snap = elmo::obs::snapshot();
    let s = &fabric.stats;
    for (name, local) in [
        ("fabric.host_to_leaf_bytes", s.host_to_leaf_bytes),
        ("fabric.leaf_to_host_bytes", s.leaf_to_host_bytes),
        ("fabric.leaf_to_spine_bytes", s.leaf_to_spine_bytes),
        ("fabric.spine_to_leaf_bytes", s.spine_to_leaf_bytes),
        ("fabric.spine_to_core_bytes", s.spine_to_core_bytes),
        ("fabric.core_to_spine_bytes", s.core_to_spine_bytes),
        ("fabric.packets_on_links", s.packets_on_links),
    ] {
        assert_eq!(snap.counter(name), Some(local), "{name}");
    }
    // A cross-pod group exercises p-rules (or s-rules) and header popping.
    let prule = snap.counter("dataplane.prule_hits").unwrap_or(0);
    let srule = snap.counter("dataplane.srule_hits").unwrap_or(0);
    assert!(prule + srule > 0, "no switch match source recorded");
    assert!(snap.counter("dataplane.header_pops").unwrap_or(0) > 0);
    assert!(snap.counter("controller.groups_created").unwrap_or(0) >= 1);

    // The batched engine counts on its workers and merges on the calling
    // thread after the join; the mirrors it then feeds must match the
    // fabric's own records exactly, with one worker and with four.
    let mut flights = Vec::new();
    for &h in &members {
        let sender = HostId(h);
        let header = ctl.header_for(gid, sender).expect("header");
        let mut hv = HypervisorSwitch::new(sender);
        hv.install_flow(
            vni,
            tenant_addr,
            SenderFlow::new(state.outer_addr, vni, &header, ctl.layout(), vec![]),
        );
        for i in 0..3 {
            let payload = format!("batched obs cross-check #{i}");
            for pkt in hv.send(vni, tenant_addr, payload.as_bytes(), ctl.layout()) {
                let flight = FlightPacket::parse(&pkt, ctl.layout()).expect("packet parses");
                flights.push((sender, flight));
            }
        }
    }
    for workers in [1usize, 4] {
        elmo::obs::reset();
        let mut fabric = build_fabric();
        let mut out = DeliveryBatch::new();
        fabric.replay_flights_sharded(&flights, workers, &mut out);
        assert!(!out.is_empty(), "batched replay must deliver");
        let snap = elmo::obs::snapshot();
        let FabricStats {
            host_to_leaf_bytes,
            leaf_to_host_bytes,
            leaf_to_spine_bytes,
            spine_to_leaf_bytes,
            spine_to_core_bytes,
            core_to_spine_bytes,
            packets_on_links,
        } = fabric.stats;
        for (name, local) in [
            ("fabric.host_to_leaf_bytes", host_to_leaf_bytes),
            ("fabric.leaf_to_host_bytes", leaf_to_host_bytes),
            ("fabric.leaf_to_spine_bytes", leaf_to_spine_bytes),
            ("fabric.spine_to_leaf_bytes", spine_to_leaf_bytes),
            ("fabric.spine_to_core_bytes", spine_to_core_bytes),
            ("fabric.core_to_spine_bytes", core_to_spine_bytes),
            ("fabric.packets_on_links", packets_on_links),
        ] {
            assert_eq!(
                snap.counter(name).unwrap_or(0),
                local,
                "{name} at {workers} workers"
            );
        }
        let mut sum = SwitchStats::default();
        let mut pops = 0;
        let switches = topo
            .leaves()
            .map(|l| fabric.leaf(l))
            .chain(topo.spines().map(|s| fabric.spine(s)))
            .chain(topo.cores().map(|c| fabric.core(c)));
        for sw in switches {
            sum.absorb(&sw.stats);
            pops += sw.header_pops();
        }
        assert!(sum.prule_hits > 0 && pops > 0);
        for (name, local) in [
            ("dataplane.prule_hits", sum.prule_hits),
            ("dataplane.srule_hits", sum.srule_hits),
            ("dataplane.default_prule_sprays", sum.default_hits),
            ("dataplane.unicast_forwarded", sum.unicast_forwarded),
            ("dataplane.dropped_no_rule", sum.dropped_no_rule),
            ("dataplane.dropped_parse", sum.dropped_parse),
            ("dataplane.dropped_header_vector", sum.dropped_header_vector),
            ("dataplane.header_pops", pops),
        ] {
            assert_eq!(
                snap.counter(name).unwrap_or(0),
                local,
                "{name} at {workers} workers"
            );
        }
    }
}

#[test]
fn written_snapshot_round_trips_and_passes_contract() {
    let _guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let path = std::env::temp_dir().join("elmo_obs_ws_snapshot.json");
    let path = path.to_str().unwrap().to_string();
    elmo::sim::obs::write_snapshot(&path).expect("snapshot written");
    let json = std::fs::read_to_string(&path).expect("readable");
    assert!(
        elmo::sim::obs::check_snapshot(&json).is_empty(),
        "written snapshot violates the declared-metric contract"
    );
    let snap = elmo::obs::Snapshot::from_json(&json).expect("parses");
    assert_eq!(
        snap.to_json(),
        json,
        "snapshot JSON must round-trip bytewise"
    );
    let _ = std::fs::remove_file(&path);
}
