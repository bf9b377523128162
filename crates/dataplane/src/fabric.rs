//! The wired fabric: every network switch instantiated and connected per the
//! Clos topology, moving real packet bytes and accounting per-tier link
//! traffic.
//!
//! All forwarding runs through one engine, the packet-parallel replay of
//! [`crate::shard`]. [`Fabric::inject`], [`Fabric::inject_batch`],
//! [`Fabric::inject_flight`] and [`Fabric::inject_traced`] are thin
//! wrappers around it: they parse wire bytes once on the ingress leaf's
//! behalf (a packet entering a failed leaf, or one that does not parse, is
//! counted on the wire and lost right there), replay the parsed batch, and
//! return deliveries in the engine's canonical `(packet, host, state)`
//! order. Byte counters per link tier feed the traffic-overhead metric
//! (paper Figures 4/5, right panels). Capture sessions and hop records are
//! views of the engine's copy-tree events; the oracle every engine output
//! is tested against is [`crate::reference`].

use elmo_core::HeaderLayout;
use elmo_topology::{Clos, CoreId, HostId, LeafId, PodId, SpineId, SwitchRef};

use crate::netswitch::{NetworkSwitch, SwitchConfig};
use crate::packet::FlightPacket;
use crate::shard::{DeliveryBatch, HopTable, Ingress};

/// Aggregate per-tier traffic counters (bytes and packets on the wire).
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct FabricStats {
    pub host_to_leaf_bytes: u64,
    pub leaf_to_host_bytes: u64,
    pub leaf_to_spine_bytes: u64,
    pub spine_to_leaf_bytes: u64,
    pub spine_to_core_bytes: u64,
    pub core_to_spine_bytes: u64,
    pub packets_on_links: u64,
}

impl FabricStats {
    /// Fold another worker's counters into this one. Addition is the
    /// only merge: every field is a sum over link events, so per-worker
    /// totals combined in any order equal a one-worker run's.
    pub fn absorb(&mut self, o: &FabricStats) {
        self.host_to_leaf_bytes += o.host_to_leaf_bytes;
        self.leaf_to_host_bytes += o.leaf_to_host_bytes;
        self.leaf_to_spine_bytes += o.leaf_to_spine_bytes;
        self.spine_to_leaf_bytes += o.spine_to_leaf_bytes;
        self.spine_to_core_bytes += o.spine_to_core_bytes;
        self.core_to_spine_bytes += o.core_to_spine_bytes;
        self.packets_on_links += o.packets_on_links;
    }

    /// Count `n` bytes on a switch-to-switch link of `tier`.
    #[inline]
    pub(crate) fn add_tier(&mut self, tier: LinkTier, n: u64) {
        match tier {
            LinkTier::LeafSpine => self.leaf_to_spine_bytes += n,
            LinkTier::SpineLeaf => self.spine_to_leaf_bytes += n,
            LinkTier::SpineCore => self.spine_to_core_bytes += n,
            LinkTier::CoreSpine => self.core_to_spine_bytes += n,
        }
    }

    /// Add these counts to the process-wide `fabric.*` mirrors.
    pub(crate) fn mirror(&self) {
        let m = metrics();
        for (counter, n) in [
            (&m.host_to_leaf_bytes, self.host_to_leaf_bytes),
            (&m.leaf_to_host_bytes, self.leaf_to_host_bytes),
            (&m.leaf_to_spine_bytes, self.leaf_to_spine_bytes),
            (&m.spine_to_leaf_bytes, self.spine_to_leaf_bytes),
            (&m.spine_to_core_bytes, self.spine_to_core_bytes),
            (&m.core_to_spine_bytes, self.core_to_spine_bytes),
            (&m.packets_on_links, self.packets_on_links),
        ] {
            if n > 0 {
                counter.add(n);
            }
        }
    }

    /// Total bytes crossing any link (the numerator of traffic overhead).
    pub fn total_link_bytes(&self) -> u64 {
        self.host_to_leaf_bytes
            + self.leaf_to_host_bytes
            + self.leaf_to_spine_bytes
            + self.spine_to_leaf_bytes
            + self.spine_to_core_bytes
            + self.core_to_spine_bytes
    }
}

/// Fabric-wide mirrors of the per-`Fabric` link counters. These measure
/// *actual* bytes moved by the packet model, so a snapshot can be
/// cross-checked against `sim::metrics`' analytic traffic accounting.
pub(crate) struct FabricMetrics {
    pub(crate) host_to_leaf_bytes: elmo_obs::Counter,
    pub(crate) leaf_to_host_bytes: elmo_obs::Counter,
    pub(crate) leaf_to_spine_bytes: elmo_obs::Counter,
    pub(crate) spine_to_leaf_bytes: elmo_obs::Counter,
    pub(crate) spine_to_core_bytes: elmo_obs::Counter,
    pub(crate) core_to_spine_bytes: elmo_obs::Counter,
    pub(crate) packets_on_links: elmo_obs::Counter,
    /// Packet copies serialized back to wire bytes (host deliveries and
    /// captured copies) — every other copy moved as structs only.
    pub(crate) replay_materialized: elmo_obs::Counter,
    /// Batches run by the replay engine (every injection is one).
    pub(crate) shard_batches: elmo_obs::Counter,
    /// Copy-tree trace events handed out by `take_tree_trace`.
    pub(crate) trace_events: elmo_obs::Counter,
}

pub(crate) fn metrics() -> &'static FabricMetrics {
    static M: std::sync::OnceLock<FabricMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| FabricMetrics {
        host_to_leaf_bytes: elmo_obs::counter("fabric.host_to_leaf_bytes"),
        leaf_to_host_bytes: elmo_obs::counter("fabric.leaf_to_host_bytes"),
        leaf_to_spine_bytes: elmo_obs::counter("fabric.leaf_to_spine_bytes"),
        spine_to_leaf_bytes: elmo_obs::counter("fabric.spine_to_leaf_bytes"),
        spine_to_core_bytes: elmo_obs::counter("fabric.spine_to_core_bytes"),
        core_to_spine_bytes: elmo_obs::counter("fabric.core_to_spine_bytes"),
        packets_on_links: elmo_obs::counter("fabric.packets_on_links"),
        replay_materialized: elmo_obs::counter("fabric.replay.materialized"),
        shard_batches: elmo_obs::counter("fabric.replay.shard.batches"),
        trace_events: elmo_obs::counter("trace.events_recorded"),
    })
}

/// Dense switch numbering shared by the batched engine's hop table and
/// the copy-tree trace: leaves first, then spines, then cores. Trace node
/// ids must be stable across worker counts, so both derive from this one
/// function of the topology alone.
pub fn dense_switch_id(topo: &Clos, sw: SwitchRef) -> u32 {
    match sw {
        SwitchRef::Leaf(l) => l.0,
        SwitchRef::Spine(s) => topo.num_leaves() as u32 + s.0,
        SwitchRef::Core(c) => (topo.num_leaves() + topo.num_spines()) as u32 + c.0,
    }
}

/// Inverse of [`dense_switch_id`].
pub fn dense_switch_ref(topo: &Clos, dense: u32) -> SwitchRef {
    let d = dense as usize;
    if d < topo.num_leaves() {
        SwitchRef::Leaf(LeafId(dense))
    } else if d < topo.num_leaves() + topo.num_spines() {
        SwitchRef::Spine(SpineId((d - topo.num_leaves()) as u32))
    } else {
        SwitchRef::Core(CoreId((d - topo.num_leaves() - topo.num_spines()) as u32))
    }
}

/// Human label for a copy-tree trace node id (a dense switch id, or
/// [`elmo_obs::HOST_NODE_BIT`] | host id): `"leaf:3"`, `"spine:7"`,
/// `"core:0"`, `"host:42"`.
pub fn trace_node_label(topo: &Clos, node: u32) -> String {
    if node & elmo_obs::HOST_NODE_BIT != 0 {
        return format!("host:{}", node & !elmo_obs::HOST_NODE_BIT);
    }
    match dense_switch_ref(topo, node) {
        SwitchRef::Leaf(l) => format!("leaf:{}", l.0),
        SwitchRef::Spine(s) => format!("spine:{}", s.0),
        SwitchRef::Core(c) => format!("core:{}", c.0),
    }
}

/// A fully instantiated Clos fabric of [`NetworkSwitch`]es.
#[derive(Clone, Debug)]
pub struct Fabric {
    pub(crate) topo: Clos,
    pub(crate) layout: HeaderLayout,
    pub(crate) leaves: Vec<NetworkSwitch>,
    pub(crate) spines: Vec<NetworkSwitch>,
    pub(crate) cores: Vec<NetworkSwitch>,
    /// Switches currently failed: packets reaching them are dropped.
    pub(crate) down: std::collections::BTreeSet<SwitchRef>,
    /// When copy-tree tracing, the edge events of every traced replay.
    /// Events are recorded per worker and stitched on merge; their
    /// canonical sort is worker-count-invariant.
    pub(crate) tree: Option<TreeTrace>,
    /// Flight-recorder ring capacity per replay worker (0 = off).
    pub(crate) recorder_cap: usize,
    /// The per-worker flight recorders of the last batched replay (empty
    /// until a batch runs with `recorder_cap > 0`).
    pub(crate) flight_recorders: Vec<elmo_obs::FlightRecorder>,
    /// When capturing, `(capture limit, captured packets)`: every copy
    /// put on a wire (injected or forwarded) is recorded until the limit
    /// is reached. Powers `elmo-eval --trace-pcap`. The copies are
    /// rebuilt from the replay's copy-tree events after the workers join.
    pub(crate) capture: Option<(usize, Vec<Vec<u8>>)>,
    /// Every switch's output ports resolved to their next stop, for the
    /// batched engine.
    pub(crate) hops: HopTable,
    /// Link counters.
    pub stats: FabricStats,
}

/// An armed copy-tree trace session: the accumulated edge events plus
/// the running packet offset. Packet indices — position in the session's
/// replay stream — and dense switch ids are the *only* inputs to trace
/// identity (never wall clocks), which is what keeps traced runs
/// bit-reproducible.
#[derive(Clone, Debug, Default)]
pub(crate) struct TreeTrace {
    pub(crate) events: Vec<elmo_obs::TraceEvent>,
    /// Session index of the next replay's first packet.
    pub(crate) next_pkt: u32,
}

/// One switch's handling of one packet copy, INT-style (paper §7's
/// monitoring direction: per-hop telemetry carried with the multicast
/// packet — here collected out of band by the fabric model).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HopRecord {
    /// The switch that processed the copy.
    pub switch: SwitchRef,
    /// The port it arrived on.
    pub ingress_port: usize,
    /// Bytes of the copy as received (headers shrink hop by hop).
    pub bytes_in: usize,
    /// The ports it was replicated to (empty = dropped).
    pub egress_ports: Vec<usize>,
}

impl Fabric {
    /// Instantiate every switch with the same resource limits.
    pub fn new(topo: Clos, config: SwitchConfig) -> Self {
        let layout = HeaderLayout::for_clos(&topo);
        Fabric {
            topo,
            layout,
            leaves: topo
                .leaves()
                .map(|l| NetworkSwitch::new_leaf(topo, l, config))
                .collect(),
            spines: topo
                .spines()
                .map(|s| NetworkSwitch::new_spine(topo, s, config))
                .collect(),
            cores: topo
                .cores()
                .map(|c| NetworkSwitch::new_core(topo, c, config))
                .collect(),
            down: std::collections::BTreeSet::new(),
            tree: None,
            recorder_cap: 0,
            flight_recorders: Vec::new(),
            capture: None,
            hops: HopTable::new(&topo),
            stats: FabricStats::default(),
        }
    }

    /// Start capturing on-the-wire packet copies, keeping at most `limit`.
    /// A fresh capture buffer is installed each time, so capture sessions
    /// can be repeated: `start_capture` / inject / [`take_capture`]
    /// (Self::take_capture), then again. Capture order is the reference
    /// loop's traversal order ([`crate::reference`]) for any worker count.
    pub fn start_capture(&mut self, limit: usize) {
        self.capture = Some((limit, Vec::new()));
    }

    /// Stop capturing and take what was recorded (empty if never started).
    /// Resets capture state entirely — a subsequent [`start_capture`]
    /// (Self::start_capture) begins a new, independent session.
    pub fn take_capture(&mut self) -> Vec<Vec<u8>> {
        self.capture
            .take()
            .map(|(_, pkts)| pkts)
            .unwrap_or_default()
    }

    /// Arm a copy-tree trace session: every subsequent replay records one
    /// [`elmo_obs::TraceEvent`] per replication edge until
    /// [`take_tree_trace`](Self::take_tree_trace). Packets are numbered
    /// with one running offset across the session: the first replay's
    /// packets are `0..n`, the next replay's start at `n`, so single
    /// injections and batches can be mixed freely.
    pub fn start_tree_trace(&mut self) {
        self.tree = Some(TreeTrace::default());
    }

    /// Whether a copy-tree trace session is armed.
    pub fn tree_tracing(&self) -> bool {
        self.tree.is_some()
    }

    /// End the trace session and take its events in canonical order
    /// (sorted by packet, parent, child, state — the worker-invariant
    /// order). Empty if tracing was never armed.
    pub fn take_tree_trace(&mut self) -> Vec<elmo_obs::TraceEvent> {
        let mut events = self.tree.take().map(|t| t.events).unwrap_or_default();
        elmo_obs::sort_events(&mut events);
        metrics().trace_events.add(events.len() as u64);
        events
    }

    /// Arm the per-worker flight recorders: each worker of subsequent
    /// batched replays keeps a ring of its last `capacity` trace events
    /// for postmortem dumps (0 disables). The rings survive until the
    /// next batched replay replaces them.
    pub fn arm_flight_recorder(&mut self, capacity: usize) {
        self.recorder_cap = capacity;
        self.flight_recorders.clear();
    }

    /// The per-worker flight recorders of the most recent batched replay.
    pub fn flight_recorders(&self) -> &[elmo_obs::FlightRecorder] {
        &self.flight_recorders
    }

    /// Dump every armed worker recorder through the structured log,
    /// tagged with `reason`; returns the total events dumped.
    pub fn dump_flight_recorders(&self, reason: &str) -> usize {
        self.flight_recorders
            .iter()
            .enumerate()
            .map(|(shard, r)| r.dump(shard, reason))
            .sum()
    }

    /// Take a spine out of service: packets reaching it are dropped, as on
    /// a real fabric between the failure and reconvergence.
    pub fn fail_spine(&mut self, s: SpineId) {
        self.down.insert(SwitchRef::Spine(s));
    }

    /// Take a core out of service.
    pub fn fail_core(&mut self, c: CoreId) {
        self.down.insert(SwitchRef::Core(c));
    }

    /// Restore a failed switch.
    pub fn restore(&mut self, sw: SwitchRef) {
        self.down.remove(&sw);
    }

    /// The topology the fabric was built from.
    pub fn topo(&self) -> &Clos {
        &self.topo
    }

    /// The header layout switches parse with.
    pub fn layout(&self) -> &HeaderLayout {
        &self.layout
    }

    /// Mutable access to a leaf switch (e.g. for s-rule installation).
    pub fn leaf_mut(&mut self, l: LeafId) -> &mut NetworkSwitch {
        &mut self.leaves[l.0 as usize]
    }

    /// Immutable access to a leaf switch.
    pub fn leaf(&self, l: LeafId) -> &NetworkSwitch {
        &self.leaves[l.0 as usize]
    }

    /// Mutable access to a spine switch.
    pub fn spine_mut(&mut self, s: SpineId) -> &mut NetworkSwitch {
        &mut self.spines[s.0 as usize]
    }

    /// Immutable access to a spine switch.
    pub fn spine(&self, s: SpineId) -> &NetworkSwitch {
        &self.spines[s.0 as usize]
    }

    /// Mutable access to a core switch.
    pub fn core_mut(&mut self, c: CoreId) -> &mut NetworkSwitch {
        &mut self.cores[c.0 as usize]
    }

    /// Immutable access to a core switch.
    pub fn core(&self, c: CoreId) -> &NetworkSwitch {
        &self.cores[c.0 as usize]
    }

    /// The switch with dense id `dense` (see [`dense_switch_id`]).
    pub(crate) fn switch_by_dense(&self, dense: u32) -> &NetworkSwitch {
        match dense_switch_ref(&self.topo, dense) {
            SwitchRef::Leaf(l) => &self.leaves[l.0 as usize],
            SwitchRef::Spine(s) => &self.spines[s.0 as usize],
            SwitchRef::Core(c) => &self.cores[c.0 as usize],
        }
    }

    pub(crate) fn switch_by_dense_mut(&mut self, dense: u32) -> &mut NetworkSwitch {
        match dense_switch_ref(&self.topo, dense) {
            SwitchRef::Leaf(l) => &mut self.leaves[l.0 as usize],
            SwitchRef::Spine(s) => &mut self.spines[s.0 as usize],
            SwitchRef::Core(c) => &mut self.cores[c.0 as usize],
        }
    }

    /// Count one packet of `bytes` entering the fabric from a host.
    pub(crate) fn count_ingress(&mut self, bytes: u64) {
        self.stats.host_to_leaf_bytes += bytes;
        self.stats.packets_on_links += 1;
        let m = metrics();
        m.host_to_leaf_bytes.add(bytes);
        m.packets_on_links.inc();
    }

    /// Install an s-rule on every spine of a pod (a logical-spine s-rule must
    /// be present wherever multipath may land the packet).
    pub fn install_pod_srule(
        &mut self,
        pod: PodId,
        group: std::net::Ipv4Addr,
        ports: elmo_core::PortBitmap,
    ) -> Result<(), crate::netswitch::GroupTableFull> {
        for s in self.topo.spines_in_pod(pod) {
            self.spines[s.0 as usize].install_srule(group, ports.clone())?;
        }
        Ok(())
    }

    /// Inject one packet from a host; returns all host deliveries as
    /// `(host, packet bytes)`, sorted by host. A one-packet
    /// [`inject_batch`](Self::inject_batch).
    pub fn inject(&mut self, from: HostId, bytes: Vec<u8>) -> Vec<(HostId, Vec<u8>)> {
        self.inject_batch([(from, bytes)], 1)
    }

    /// Inject a batch of wire packets through the replay engine on up to
    /// `workers` workers (0 = one per available core). Deliveries come
    /// back in the canonical `(packet, host, state)` order, the same for
    /// every worker count. Each packet is parsed once here, on behalf of
    /// its ingress leaf: a packet entering through a failed leaf is
    /// counted on the wire and lost before parsing, and one that fails to
    /// parse is counted as a parse drop on the leaf.
    pub fn inject_batch<I>(&mut self, packets: I, workers: usize) -> Vec<(HostId, Vec<u8>)>
    where
        I: IntoIterator<Item = (HostId, Vec<u8>)>,
    {
        let (flights, ingress) = self.parse_ingress(packets);
        let mut out = DeliveryBatch::new();
        self.replay(&flights, workers, &mut out, &ingress, false);
        out.to_vec()
    }

    /// Inject an already-parsed packet, skipping the emit + parse round
    /// trip entirely (for senders that build [`FlightPacket`]s directly,
    /// e.g. `HypervisorSwitch::send_flight`). Counters are identical to
    /// injecting the materialized bytes.
    pub fn inject_flight(&mut self, from: HostId, pkt: FlightPacket) -> Vec<(HostId, Vec<u8>)> {
        let mut out = DeliveryBatch::new();
        self.replay_flights_sharded(&[(from, pkt)], 1, &mut out);
        out.to_vec()
    }

    /// [`inject_batch`](Self::inject_batch) plus per-hop telemetry — which
    /// switch saw each packet, on which port, how large it was, and where
    /// it replicated it. This is the paper's §7 monitoring direction
    /// (INT-style per-hop records collected alongside the multicast
    /// packet) in model form: `traceroute` for a multicast tree. The
    /// records are read off the replay's copy-tree events, packet by
    /// packet in the reference loop's traversal order, so they are the
    /// same for every worker count. Packets lost before parsing leave no
    /// record.
    pub fn inject_traced<I>(
        &mut self,
        packets: I,
        workers: usize,
    ) -> (Vec<(HostId, Vec<u8>)>, Vec<HopRecord>)
    where
        I: IntoIterator<Item = (HostId, Vec<u8>)>,
    {
        let (flights, ingress) = self.parse_ingress(packets);
        let mut out = DeliveryBatch::new();
        let events = self.replay(&flights, workers, &mut out, &ingress, true);
        let hops = self.hop_records(&flights, &out, &events);
        (out.to_vec(), hops)
    }

    /// Parse wire packets on their ingress leaves' behalf. Packets that
    /// never reach the engine (failed ingress leaf, parse error) are
    /// counted on the host link here. While capturing, also returns every
    /// packet's raw bytes in input order, for the capture's ingress copies.
    fn parse_ingress<I>(&mut self, packets: I) -> (Vec<(HostId, FlightPacket)>, Vec<Ingress>)
    where
        I: IntoIterator<Item = (HostId, Vec<u8>)>,
    {
        let capturing = self.capture.is_some();
        let mut flights = Vec::new();
        let mut ingress = Vec::new();
        for (from, bytes) in packets {
            let leaf = self.topo.leaf_of_host(from);
            let parsed = if self.down.contains(&SwitchRef::Leaf(leaf)) {
                None
            } else {
                let p = FlightPacket::parse(&bytes, &self.layout).ok();
                if p.is_none() {
                    self.leaves[leaf.0 as usize].note_parse_drop();
                }
                p
            };
            let replayed = parsed.is_some();
            match parsed {
                Some(pkt) => flights.push((from, pkt)),
                None => self.count_ingress(bytes.len() as u64),
            }
            if capturing {
                ingress.push(Ingress { replayed, bytes });
            }
        }
        (flights, ingress)
    }
}

/// Resolve a switch's output port to the device on the other end. Free
/// function over [`Clos`] so [`crate::shard`]'s hop table and the
/// [`crate::reference`] oracle both work from the topology alone.
pub(crate) fn next_hop(topo: &Clos, sw: SwitchRef, port: usize) -> Hop {
    match sw {
        SwitchRef::Leaf(l) => {
            if port < topo.leaf_down_ports() {
                Hop::Host(topo.host_under_leaf(l, port))
            } else {
                let local_spine = port - topo.leaf_down_ports();
                let pod = topo.pod_of_leaf(l);
                let spine = topo.spine_in_pod(pod, local_spine);
                Hop::Switch(
                    SwitchRef::Spine(spine),
                    topo.leaf_index_in_pod(l),
                    LinkTier::LeafSpine,
                )
            }
        }
        SwitchRef::Spine(s) => {
            if port < topo.spine_down_ports() {
                let pod = topo.pod_of_spine(s);
                let leaf = topo.leaf_in_pod(pod, port);
                Hop::Switch(
                    SwitchRef::Leaf(leaf),
                    topo.leaf_up_port(topo.spine_index_in_pod(s)),
                    LinkTier::SpineLeaf,
                )
            } else {
                let local_core = port - topo.spine_down_ports();
                let core = topo
                    .cores_of_spine(s)
                    .nth(local_core)
                    .expect("core-facing port maps to an attached core");
                Hop::Switch(
                    SwitchRef::Core(core),
                    topo.pod_of_spine(s).0 as usize,
                    LinkTier::SpineCore,
                )
            }
        }
        SwitchRef::Core(c) => {
            let pod = PodId(port as u32);
            let spine = topo.spine_under_core(c, pod);
            let local_core = c.0 as usize % topo.cores_per_spine();
            Hop::Switch(
                SwitchRef::Spine(spine),
                topo.spine_up_port(local_core),
                LinkTier::CoreSpine,
            )
        }
    }
}

pub(crate) enum Hop {
    Host(HostId),
    Switch(SwitchRef, usize, LinkTier),
}

#[derive(Clone, Copy, Debug)]
pub(crate) enum LinkTier {
    LeafSpine,
    SpineLeaf,
    SpineCore,
    CoreSpine,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypervisor::{HypervisorSwitch, SenderFlow, VmSlot};
    use elmo_core::{encode_group, header_for_sender, EncoderConfig, GroupEncoding};
    use elmo_net::vxlan::Vni;
    use elmo_topology::{GroupTree, UpstreamCover};
    use std::net::Ipv4Addr;

    const OUTER: Ipv4Addr = Ipv4Addr::new(239, 1, 1, 1);
    const GROUP: Ipv4Addr = Ipv4Addr::new(225, 0, 0, 1);
    /// The paper's Figure 3a group.
    const MEMBERS: [HostId; 6] = [
        HostId(0),
        HostId(1),
        HostId(42),
        HostId(48),
        HostId(49),
        HostId(57),
    ];

    /// The tight two-rule budget that forces s-rules or default p-rules.
    fn tight() -> EncoderConfig {
        EncoderConfig {
            r: 0,
            k_max: 2,
            h_spine_max: 2,
            h_leaf_max: 2,
            budget_bytes: 325,
            mode: elmo_core::RedundancyMode::Sum,
        }
    }

    /// Encode `members` under `cfg` (with or without s-rule capacity) and
    /// build a fabric with the encoder's s-rules installed.
    fn encode(members: &[HostId], cfg: EncoderConfig, srules: bool) -> (GroupEncoding, Fabric) {
        let topo = Clos::paper_example();
        let tree = GroupTree::new(&topo, members.iter().copied());
        let enc = encode_group(&topo, &tree, &cfg, &mut |_| srules, &mut |_| srules);
        let mut fabric = Fabric::new(topo, SwitchConfig::default());
        for (pod, bm) in &enc.d_spine.s_rules {
            fabric
                .install_pod_srule(PodId(*pod), OUTER, bm.clone())
                .unwrap();
        }
        for (leaf, bm) in &enc.d_leaf.s_rules {
            fabric
                .leaf_mut(LeafId(*leaf))
                .install_srule(OUTER, bm.clone())
                .unwrap();
        }
        (enc, fabric)
    }

    /// One wire packet from `sender` under its header for `enc`.
    fn send(members: &[HostId], enc: &GroupEncoding, sender: HostId, payload: &[u8]) -> Vec<u8> {
        let topo = Clos::paper_example();
        let layout = HeaderLayout::for_clos(&topo);
        let tree = GroupTree::new(&topo, members.iter().copied());
        let multipath = UpstreamCover::multipath();
        let header = header_for_sender(&topo, &layout, &tree, enc, sender, &multipath);
        let mut hv = HypervisorSwitch::new(sender);
        let flow = SenderFlow::new(OUTER, Vni(1), &header, &layout, vec![]);
        hv.install_flow(Vni(1), GROUP, flow);
        hv.send(Vni(1), GROUP, payload, &layout).remove(0)
    }

    /// Every member but `sender`, ascending.
    fn others(sender: HostId) -> Vec<HostId> {
        MEMBERS.iter().copied().filter(|&h| h != sender).collect()
    }

    fn hosts(deliveries: Vec<(HostId, Vec<u8>)>) -> Vec<HostId> {
        let mut got: Vec<HostId> = deliveries.into_iter().map(|(h, _)| h).collect();
        got.sort_unstable();
        got
    }

    /// End-to-end: encode the Figure 3a group, send from Ha, and check every
    /// receiver (and only receivers) gets the inner frame.
    #[test]
    fn figure3_end_to_end_delivery() {
        let layout = HeaderLayout::for_clos(&Clos::paper_example());
        let (enc, mut fabric) =
            encode(&MEMBERS, EncoderConfig::with_budget(&layout, 325, 0), false);
        // At R = 0 with the two-rule spine budget and no s-rule capacity,
        // pod P3 lands on the default p-rule — whose bitmap here equals
        // P3's exact ports, so delivery is still precise.
        assert_eq!(enc.d_spine.default_switches, vec![3]);
        let sender = HostId(0);
        let deliveries = fabric.inject(sender, send(&MEMBERS, &enc, sender, b"multicast payload"));
        // Every member except the sender, exactly once.
        assert_eq!(hosts(deliveries.clone()), others(sender));

        // Each delivered packet decaps at a subscribed hypervisor.
        for (host, bytes) in &deliveries {
            let mut rx = HypervisorSwitch::new(*host);
            rx.subscribe(OUTER, VmSlot(0));
            let inner = rx.receive(bytes, &layout);
            assert_eq!(inner.len(), 1);
            assert_eq!(inner[0].1, b"multicast payload");
        }
    }

    #[test]
    fn every_sender_reaches_all_other_members() {
        let layout = HeaderLayout::for_clos(&Clos::paper_example());
        let cfg = EncoderConfig::with_budget(&layout, 325, 0);
        for &sender in &MEMBERS {
            let (enc, mut fabric) = encode(&MEMBERS, cfg, false);
            let got = hosts(fabric.inject(sender, send(&MEMBERS, &enc, sender, b"m")));
            assert_eq!(got, others(sender), "sender {sender}");
        }
    }

    #[test]
    fn srule_assignment_still_delivers() {
        // R = 0 with s-rule capacity: some switches use group-table entries
        // instead of p-rules; delivery must be identical.
        let (enc, mut fabric) = encode(&MEMBERS, tight(), true);
        assert!(!enc.d_spine.s_rules.is_empty() || !enc.d_leaf.s_rules.is_empty());
        let sender = HostId(0);
        let got = hosts(fabric.inject(sender, send(&MEMBERS, &enc, sender, b"m")));
        assert_eq!(got, others(sender));
    }

    #[test]
    fn default_prule_overdelivers_but_reaches_members() {
        // R = 0, no s-rule capacity: overflow switches use the default
        // p-rule, which may spray extra copies — but never misses a member.
        let (enc, mut fabric) = encode(&MEMBERS, tight(), false);
        assert!(enc.d_leaf.default_rule.is_some() || enc.d_spine.default_rule.is_some());
        let sender = HostId(0);
        let got = hosts(fabric.inject(sender, send(&MEMBERS, &enc, sender, b"m")));
        for m in others(sender) {
            assert!(got.contains(&m), "member {m} missed");
        }
    }

    #[test]
    fn unicast_crosses_the_fabric() {
        let topo = Clos::paper_example();
        let layout = HeaderLayout::for_clos(&topo);
        let mut fabric = Fabric::new(topo, SwitchConfig::default());
        let mut hv = HypervisorSwitch::new(HostId(0));
        let pkts = hv.send_unicast_to(&[HostId(57)], Vni(3), b"uni", &layout);
        let deliveries = fabric.inject(HostId(0), pkts.into_iter().next().unwrap());
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].0, HostId(57));
        // The unicast path touched all tiers (different pods).
        assert!(fabric.stats.spine_to_core_bytes > 0);
        assert!(fabric.stats.core_to_spine_bytes > 0);
    }

    /// A packet whose ingress leaf is down never reaches the engine, but
    /// it was put on the host link: counted there, and captured with its
    /// raw bytes exactly as the oracle's wire record has it.
    #[test]
    fn failed_ingress_leaf_is_counted_and_captured() {
        let topo = Clos::paper_example();
        let layout = HeaderLayout::for_clos(&topo);
        let mut hv = HypervisorSwitch::new(HostId(0));
        let pkts: Vec<Vec<u8>> = [HostId(1), HostId(57)]
            .iter()
            .map(|&to| hv.send_unicast_to(&[to], Vni(3), b"uni", &layout).remove(0))
            .collect();
        // Host 0 sits under the failed leaf 0; host 8 does not.
        let batch = vec![
            (HostId(0), pkts[0].clone()),
            (HostId(8), pkts[1].clone()),
            (HostId(0), pkts[1].clone()),
        ];
        let mut oracle = Fabric::new(topo, SwitchConfig::default());
        oracle.down.insert(SwitchRef::Leaf(LeafId(0)));
        let mut wire = Vec::new();
        for (from, pkt) in &batch {
            wire.extend(crate::reference::inject(&mut oracle, *from, pkt.clone()).wire);
        }
        for workers in [1, 2, 4] {
            let mut fabric = Fabric::new(topo, SwitchConfig::default());
            fabric.down.insert(SwitchRef::Leaf(LeafId(0)));
            fabric.start_capture(usize::MAX);
            let delivered = fabric.inject_batch(batch.clone(), workers);
            assert_eq!(delivered.len(), 1, "only host 8's packet gets through");
            assert_eq!(fabric.take_capture(), wire, "capture at {workers} workers");
            assert_eq!(
                fabric.stats, oracle.stats,
                "link counters at {workers} workers"
            );
        }
    }

    #[test]
    fn link_bytes_shrink_as_header_pops() {
        let layout = HeaderLayout::for_clos(&Clos::paper_example());
        let members = [HostId(0), HostId(42)]; // cross-pod pair
        let (enc, mut fabric) =
            encode(&members, EncoderConfig::with_budget(&layout, 325, 0), false);
        let pkt = send(&members, &enc, HostId(0), b"payload");
        let injected_len = pkt.len() as u64;
        fabric.inject(HostId(0), pkt);
        // One packet per tier on this linear path; bytes must be
        // non-increasing hop over hop as p-rule sections pop.
        let s = fabric.stats;
        assert_eq!(s.host_to_leaf_bytes, injected_len);
        assert!(s.leaf_to_spine_bytes <= s.host_to_leaf_bytes);
        assert!(s.spine_to_core_bytes <= s.leaf_to_spine_bytes);
        assert!(s.core_to_spine_bytes <= s.spine_to_core_bytes);
        assert!(s.spine_to_leaf_bytes <= s.core_to_spine_bytes);
        assert!(s.leaf_to_host_bytes < s.spine_to_leaf_bytes);
        assert_eq!(s.total_link_bytes(), {
            s.host_to_leaf_bytes
                + s.leaf_to_spine_bytes
                + s.spine_to_core_bytes
                + s.core_to_spine_bytes
                + s.spine_to_leaf_bytes
                + s.leaf_to_host_bytes
        });
    }
}
