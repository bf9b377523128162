//! The system under test, driven as a library: set-up, the control path
//! (one membership event until its new state is live), the data path (one
//! batch of tenant packets until every copy is decapped), and the delivery
//! oracle that checks each packet outside the timed region.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::time::Instant;

use elmo_controller::{Controller, GroupId, MemberRole};
use elmo_core::HeaderLayout;
use elmo_dataplane::{
    DeliveryBatch, Fabric, FlightPacket, HypervisorStats, HypervisorSwitch, SenderFlow,
    SwitchStats, VmSlot,
};
use elmo_net::vxlan::Vni;
use elmo_sim::churn_exp::{self, ChurnExpConfig};
use elmo_sim::temporal_exp::sync_group_rules;
use elmo_sim::verify_exp::install_state;
use elmo_topology::{Clos, HostId, LeafId, PodId};
use elmo_workloads::{initial_roles, ChurnEvent, GroupSizeDist, Role, Workload, WorkloadConfig};

use crate::trace::{Layer, Tracer};

/// The group population a workload runs on.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub groups: usize,
    /// Overrides the paper's minimum group size of 5.
    pub min_group_size: Option<usize>,
}

/// Wall time of each set-up stage, in seconds.
#[derive(Clone, Copy, Debug)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub create_s: f64,
    pub install_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.generate_s + self.create_s + self.install_s
    }
}

pub struct World {
    pub topo: Clos,
    pub layout: HeaderLayout,
    pub workload: Workload,
    pub ctl: Controller,
    pub fabric: Fabric,
    /// Every host's hypervisor switch, indexed by host id.
    pub hvs: Vec<HypervisorSwitch>,
    replay_workers: usize,
    /// `(vni, tenant group address)` per group: the sender flow key.
    flow_keys: Vec<(Vni, Ipv4Addr)>,
    /// Role each member VM holds, per group (a leave must name it).
    truth: Vec<BTreeMap<u32, Role>>,
    /// Current sender and receiver hosts per group, sorted.
    pub senders: Vec<Vec<HostId>>,
    pub receivers: Vec<Vec<HostId>>,
}

/// The 2,304-host fabric every workload runs on.
pub fn fabric_topo() -> Clos {
    Clos::scaled_fabric(6, 24, 16)
}

/// Generate the workload, create every group through the batch pipeline
/// with `workers` encoder threads, and install every header, flow,
/// subscription and s-rule. Packets will replay on `replay_workers`
/// shards.
///
/// The group population (tenants, placement, groups, initial roles) is
/// fixed per workload, from the paper-default workload seed: switch state
/// and set-up cost are properties of the population, and a population
/// drawn per run would spread them across runs. The run's seed drives
/// everything sent at it: packets, senders, and the churn stream.
pub fn build(shape: Shape, workers: usize, replay_workers: usize) -> (World, SetupTimes) {
    let topo = fabric_topo();
    let layout = HeaderLayout::for_clos(&topo);
    let mut wl = WorkloadConfig::scaled(&topo, 12, GroupSizeDist::Wve);
    wl.total_groups = shape.groups;
    if let Some(m) = shape.min_group_size {
        wl.min_group_size = m;
    }
    let cfg = ChurnExpConfig {
        r: 12,
        // The sweeps' budget rule: 30 downstream-leaf p-rules.
        header_budget: layout.max_header_bytes(2, 30, 2),
        threads: workers,
        events: 0,
        burst: 0,
        seed: wl.seed,
        delta: true,
        verify_each_burst: false,
    };

    let t0 = Instant::now();
    let workload = Workload::generate(topo, wl);
    let roles = initial_roles(&workload, wl.seed);
    let t1 = Instant::now();
    let ctl = churn_exp::build_controller(topo, &workload, &roles, &cfg);
    let t2 = Instant::now();
    let (fabric, installed) = install_state(&ctl);
    let t3 = Instant::now();
    let times = SetupTimes {
        generate_s: (t1 - t0).as_secs_f64(),
        create_s: (t2 - t1).as_secs_f64(),
        install_s: (t3 - t2).as_secs_f64(),
    };

    let mut installed = installed;
    let hvs = (0..topo.num_hosts() as u32)
        .map(|h| {
            installed
                .remove(&HostId(h))
                .unwrap_or_else(|| HypervisorSwitch::new(HostId(h)))
        })
        .collect();
    let truth = workload
        .groups
        .iter()
        .zip(&roles)
        .map(|(g, r)| g.members.iter().copied().zip(r.iter().copied()).collect())
        .collect();
    let n = workload.groups.len();
    let mut world = World {
        topo,
        layout,
        workload,
        ctl,
        fabric,
        hvs,
        replay_workers,
        flow_keys: Vec::with_capacity(n),
        truth,
        senders: vec![Vec::new(); n],
        receivers: vec![Vec::new(); n],
    };
    for gi in 0..n {
        let state = world
            .ctl
            .group(GroupId(gi as u64))
            .expect("every group created");
        assert!(!state.unicast_fallback, "group {gi} fell back to unicast");
        world.flow_keys.push((state.vni, state.tenant_addr));
        world.refresh_members(gi);
    }
    (world, times)
}

fn member_role(r: Role) -> MemberRole {
    match r {
        Role::Sender => MemberRole::Sender,
        Role::Receiver => MemberRole::Receiver,
        Role::Both => MemberRole::Both,
    }
}

/// What one membership event cost and touched.
#[derive(Clone, Copy, Default, Debug)]
pub struct EventCost {
    /// From the `join`/`leave` call until headers, flows, subscriptions
    /// and s-rules are live.
    pub ns: u64,
    /// Sender headers rebuilt and flows installed.
    pub headers: u64,
    pub header_bytes: u64,
    /// S-rules removed plus installed across switches.
    pub srule_ops: u64,
}

/// Reused buffers of the data path.
#[derive(Default)]
pub struct DpScratch {
    flights: Vec<(HostId, FlightPacket)>,
    /// Batch packet index of each flight.
    flight_pkt: Vec<u32>,
    out: DeliveryBatch,
    /// Per delivered copy: VM deliveries the hypervisor made, and the tag
    /// read from the decapped inner frame.
    recv: Vec<(u32, u32)>,
    /// Inner frames, one per batch slot; bytes 0..4 carry the packet tag.
    frames: Vec<Vec<u8>>,
}

impl DpScratch {
    pub fn new(batch: usize, frame_bytes: usize) -> Self {
        DpScratch {
            frames: vec![vec![0xa5; frame_bytes]; batch],
            ..DpScratch::default()
        }
    }
}

/// Tag of batch slot `i` in batch `b`.
fn tag(b: u32, i: usize) -> u32 {
    b.wrapping_mul(1 << 12) ^ i as u32
}

impl World {
    fn refresh_members(&mut self, gi: usize) {
        let state = self
            .ctl
            .group(GroupId(gi as u64))
            .expect("groups are never deleted");
        self.senders[gi] = state.sender_hosts().collect();
        self.receivers[gi] = state.receiver_hosts().collect();
    }

    /// Host of a churn event's VM.
    pub fn event_host(&self, e: &ChurnEvent) -> HostId {
        let g = &self.workload.groups[e.group as usize];
        self.workload.tenants[g.tenant as usize].vms[e.vm as usize]
    }

    /// The event that undoes `e`, to be taken before `e` is applied: a
    /// join undoes a leave in the role the VM held, a leave undoes a join.
    pub fn inverse(&self, e: &ChurnEvent) -> ChurnEvent {
        let role = if e.join {
            e.role
        } else {
            *self.truth[e.group as usize]
                .get(&e.vm)
                .expect("generator only emits leaves for members")
        };
        ChurnEvent {
            join: !e.join,
            role,
            ..*e
        }
    }

    /// Apply one membership event end to end: the controller call, a new
    /// header and flow on every sender hypervisor it names, the changed
    /// host's subscription, and the group's s-rules on the switches when
    /// the update names any.
    pub fn apply_event(&mut self, e: &ChurnEvent, tr: &mut Tracer, cause: u32) -> EventCost {
        let gi = e.group as usize;
        let gid = GroupId(u64::from(e.group));
        let host = self.event_host(e);
        let role = if e.join {
            e.role
        } else {
            *self.truth[gi]
                .get(&e.vm)
                .expect("generator only emits leaves for members")
        };
        // A deployment agent diffs against the rules it installed; this
        // snapshot stands in for that record, taken before the clock starts.
        let old = self.ctl.group(gid).cloned();
        let mut cost = EventCost::default();

        let t0 = Instant::now();
        let o = tr.open();
        let updates = if e.join {
            self.ctl.join(gid, host, member_role(role))
        } else {
            self.ctl.leave(gid, host, member_role(role))
        };
        tr.close(Layer::Event, cause, o);

        let World {
            ctl,
            fabric,
            hvs,
            layout,
            topo,
            ..
        } = self;
        let state = ctl.group(gid).expect("groups are never deleted");
        let extra_senders = state
            .sender_hosts()
            .filter(|h| updates.all_senders && !updates.hypervisors.contains(h));
        for h in updates.hypervisors.iter().copied().chain(extra_senders) {
            let counts = state.members.get(&h).copied().unwrap_or_default();
            let hv = &mut hvs[h.0 as usize];
            if counts.senders > 0 {
                let o = tr.open();
                let header = ctl
                    .header_for(gid, h)
                    .expect("a live group has a header for every sender");
                tr.close(Layer::HeaderFor, cause, o);
                let o = tr.open();
                let flow = SenderFlow::new(state.outer_addr, state.vni, &header, layout, vec![]);
                cost.headers += 1;
                cost.header_bytes += flow.elmo_bytes.len() as u64;
                hv.install_flow(state.vni, state.tenant_addr, flow);
                tr.close(Layer::FlowInstall, cause, o);
            } else {
                let o = tr.open();
                hv.remove_flow(state.vni, state.tenant_addr);
                tr.close(Layer::FlowInstall, cause, o);
            }
            if h == host {
                let o = tr.open();
                if counts.receivers > 0 {
                    hv.subscribe(state.outer_addr, VmSlot(0));
                } else {
                    hv.unsubscribe(state.outer_addr, VmSlot(0));
                }
                tr.close(Layer::Subscription, cause, o);
            }
        }
        if !updates.leaves.is_empty() || !updates.spine_pods.is_empty() {
            let o = tr.open();
            sync_group_rules(ctl, fabric, gid, old.as_ref());
            tr.close(Layer::SruleSync, cause, o);
            let per_pod = topo.params().spines_per_pod as u64;
            for enc in old.iter().map(|s| &s.enc).chain([&state.enc]) {
                cost.srule_ops +=
                    enc.d_leaf.s_rules.len() as u64 + per_pod * enc.d_spine.s_rules.len() as u64;
            }
        }
        cost.ns = t0.elapsed().as_nanos() as u64;

        if e.join {
            self.truth[gi].insert(e.vm, e.role);
        } else {
            self.truth[gi].remove(&e.vm);
        }
        self.refresh_members(gi);
        cost
    }

    /// Send one batch of tenant packets end to end: encap at each sender,
    /// parse, sharded fabric replay, delivery materialization, and decap
    /// at every receiving host. `pkts` holds `(group, sender)` pairs.
    /// Returns the wall time from the first send to the last decap.
    pub fn send_batch(
        &mut self,
        pkts: &[(u32, HostId)],
        batch_id: u32,
        dp: &mut DpScratch,
        tr: &mut Tracer,
    ) -> u64 {
        assert!(
            pkts.len() <= dp.frames.len(),
            "batch larger than its frames"
        );
        for (i, f) in dp.frames.iter_mut().enumerate().take(pkts.len()) {
            f[..4].copy_from_slice(&tag(batch_id, i).to_le_bytes());
        }
        dp.flights.clear();
        dp.flight_pkt.clear();
        dp.recv.clear();
        let World {
            fabric,
            hvs,
            layout,
            flow_keys,
            replay_workers,
            ..
        } = self;
        let layout = *layout;

        let t0 = Instant::now();
        for (i, &(g, sender)) in pkts.iter().enumerate() {
            let (vni, taddr) = flow_keys[g as usize];
            let o = tr.open();
            let wires = hvs[sender.0 as usize].send(vni, taddr, &dp.frames[i], &layout);
            tr.close(Layer::Encap, batch_id, o);
            for w in &wires {
                let o = tr.open();
                let parsed = FlightPacket::parse(w, &layout);
                tr.close(Layer::Parse, batch_id, o);
                if let Ok(p) = parsed {
                    dp.flights.push((sender, p));
                    dp.flight_pkt.push(i as u32);
                }
            }
        }
        let o = tr.open();
        fabric.replay_flights_sharded(&dp.flights, *replay_workers, &mut dp.out);
        tr.close(Layer::Replay, batch_id, o);
        let o = tr.open();
        let recv = &mut dp.recv;
        dp.out.for_each(|h, bytes| {
            let o = tr.open();
            let vms = hvs[h.0 as usize].receive(bytes, &layout);
            tr.close(Layer::Decap, batch_id, o);
            let t = vms
                .first()
                .and_then(|(_, inner)| inner.get(..4))
                .map_or(u32::MAX, |b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]));
            recv.push((vms.len() as u32, t));
        });
        tr.close(Layer::Materialize, batch_id, o);
        t0.elapsed().as_nanos() as u64
    }

    /// The delivery oracle, run after [`send_batch`](Self::send_batch)
    /// outside the timed region, against the groups' current receiver
    /// sets. Marks `failed[i]` for every packet `i` where a receiver other
    /// than the sender got a VM delivery count other than exactly one, a
    /// non-receiver got a VM delivery, a VM got a frame other than the one
    /// sent, or the sender was echoed its own packet.
    pub fn check_batch(
        &self,
        pkts: &[(u32, HostId)],
        batch_id: u32,
        dp: &DpScratch,
        failed: &mut Vec<bool>,
    ) {
        failed.clear();
        failed.resize(pkts.len(), false);
        // Exactly one wire packet per send (no group here falls back).
        let mut flights_of = vec![0u32; pkts.len()];
        for &i in &dp.flight_pkt {
            flights_of[i as usize] += 1;
        }
        for (i, &n) in flights_of.iter().enumerate() {
            if n != 1 {
                failed[i] = true;
            }
        }
        // Deliveries come in canonical (packet, host) order: aggregate each
        // packet's per-host VM delivery counts, then compare. A packet with
        // no delivery at all is compared against the empty set.
        let mut checked = vec![false; pkts.len()];
        let mut got: Vec<(HostId, u32)> = Vec::new();
        let mut entries = dp.out.entries().zip(&dp.recv).peekable();
        while let Some(((h, f), &(vms, t))) = entries.next() {
            let i = dp.flight_pkt[f as usize] as usize;
            let (g, sender) = pkts[i];
            checked[i] = true;
            got.clear();
            got.push((h, vms));
            let mut bad_tag = vms > 0 && t != tag(batch_id, i);
            while let Some(&((h2, f2), &(vms2, t2))) = entries.peek() {
                if f2 != f {
                    break;
                }
                entries.next();
                bad_tag |= vms2 > 0 && t2 != tag(batch_id, i);
                match got.last_mut() {
                    Some(last) if last.0 == h2 => last.1 += vms2,
                    _ => got.push((h2, vms2)),
                }
            }
            if bad_tag || !exact(&self.receivers[g as usize], sender, &got) {
                failed[i] = true;
            }
        }
        for (i, &(g, sender)) in pkts.iter().enumerate() {
            if !checked[i] && !exact(&self.receivers[g as usize], sender, &[]) {
                failed[i] = true;
            }
        }
    }

    /// Remove every s-rule of `gid` from the switches: the negative
    /// control's seeded fault.
    pub fn remove_group_srules(&mut self, gid: GroupId) {
        let state = self.ctl.group(gid).expect("groups are never deleted");
        for (leaf, _) in &state.enc.d_leaf.s_rules {
            self.fabric
                .leaf_mut(LeafId(*leaf))
                .remove_srule(&state.outer_addr);
        }
        for (pod, _) in &state.enc.d_spine.s_rules {
            for s in self.topo.spines_in_pod(PodId(*pod)) {
                self.fabric.spine_mut(s).remove_srule(&state.outer_addr);
            }
        }
    }

    /// Groups holding at least one s-rule, in id order.
    pub fn groups_with_srules(&self) -> Vec<u32> {
        (0..self.workload.groups.len() as u32)
            .filter(|&g| {
                let s = self.ctl.group(GroupId(u64::from(g))).expect("live group");
                !s.enc.d_leaf.s_rules.is_empty() || !s.enc.d_spine.s_rules.is_empty()
            })
            .collect()
    }

    /// Every switch's counters, summed.
    pub fn switch_totals(&self) -> SwitchStats {
        let f = &self.fabric;
        let all = self
            .topo
            .leaves()
            .map(|l| f.leaf(l).stats)
            .chain(self.topo.spines().map(|s| f.spine(s).stats))
            .chain(self.topo.cores().map(|c| f.core(c).stats));
        let mut t = SwitchStats::default();
        for s in all {
            t.prule_hits += s.prule_hits;
            t.srule_hits += s.srule_hits;
            t.default_hits += s.default_hits;
            t.unicast_forwarded += s.unicast_forwarded;
            t.dropped_no_rule += s.dropped_no_rule;
            t.dropped_parse += s.dropped_parse;
            t.dropped_header_vector += s.dropped_header_vector;
        }
        t
    }

    /// S-rules installed across all switches.
    pub fn srule_total(&self) -> u64 {
        let f = &self.fabric;
        let leaves: usize = self.topo.leaves().map(|l| f.leaf(l).srule_count()).sum();
        let spines: usize = self.topo.spines().map(|s| f.spine(s).srule_count()).sum();
        let cores: usize = self.topo.cores().map(|c| f.core(c).srule_count()).sum();
        (leaves + spines + cores) as u64
    }

    /// Every hypervisor's counters, summed.
    pub fn hv_totals(&self) -> HypervisorStats {
        let mut t = HypervisorStats::default();
        for hv in &self.hvs {
            t.sent_multicast += hv.stats.sent_multicast;
            t.sent_unicast += hv.stats.sent_unicast;
            t.delivered += hv.stats.delivered;
            t.discarded += hv.stats.discarded;
            t.no_flow += hv.stats.no_flow;
        }
        t
    }
}

/// Whether one packet's aggregated per-host VM deliveries `got` (sorted by
/// host) are exact for `receivers` (sorted) sent by `sender`: every
/// receiver but the sender exactly once, nobody else, never the sender.
fn exact(receivers: &[HostId], sender: HostId, got: &[(HostId, u32)]) -> bool {
    for &(h, vms) in got {
        if h == sender || (vms > 0 && receivers.binary_search(&h).is_err()) {
            return false;
        }
    }
    receivers.iter().filter(|&&r| r != sender).all(|r| {
        got.binary_search_by_key(r, |&(h, _)| h)
            .is_ok_and(|k| got[k].1 == 1)
    })
}
