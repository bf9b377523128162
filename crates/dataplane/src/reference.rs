//! The replay oracle: the encode-per-hop byte loop every engine output is
//! held to.
//!
//! [`inject`] forwards one wire packet the slow, obvious way: every switch
//! parses the bytes it receives into an [`ElmoPacketRepr`], clones the
//! header per output direction, pops sections on the clone, and re-encodes
//! header *and* payload for every copy. Output ports resolve through the
//! topology math ([`crate::fabric::next_hop`]), never through the
//! engine's compiled hop table or match plans, so the two paths share
//! nothing but the topology and the installed group tables.
//!
//! The oracle returns three records — host deliveries in the canonical
//! `(host, bytes)` order per packet, every wire copy in traversal order,
//! and one [`HopRecord`] per switch that handled a copy — and charges the
//! fabric's link and switch counters exactly as the engine does.
//! `tests/replay_identity.rs` and `elmo-bench --replay-only` compare the
//! packet-parallel engine ([`crate::shard`]) against it. Traversal order
//! is a LIFO work stack with outputs pushed in ascending egress port;
//! that order is what capture and hop tracing reproduce.

use elmo_core::{HeaderLayout, PortBitmap};
use elmo_net::ipv4;
use elmo_topology::{HostId, LeafId, SpineId, SwitchRef};

use crate::fabric::{next_hop, Fabric, FabricStats, Hop, HopRecord};
use crate::netswitch::{NetworkSwitch, SwitchCounters};
use crate::packet::{ecmp_hash, ElmoPacketRepr};

/// Everything one reference injection observed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReferenceRun {
    /// Host deliveries, sorted by `(host, bytes)`.
    pub deliveries: Vec<(HostId, Vec<u8>)>,
    /// Every copy put on a wire, injected packet first, in traversal
    /// order — what a capture session records.
    pub wire: Vec<Vec<u8>>,
    /// One record per switch visit in traversal order (failed switches
    /// leave none) — what [`Fabric::inject_traced`] returns.
    pub hops: Vec<HopRecord>,
}

/// Inject one packet from a host through the reference loop, updating the
/// fabric's link counters and every visited switch's stats.
pub fn inject(fabric: &mut Fabric, from: HostId, bytes: Vec<u8>) -> ReferenceRun {
    let leaf = fabric.topo.leaf_of_host(from);
    let ingress = fabric.topo.host_port_on_leaf(from);
    fabric.count_ingress(bytes.len() as u64);
    let mut run = ReferenceRun {
        wire: vec![bytes.clone()],
        ..ReferenceRun::default()
    };
    let mut links = FabricStats::default();
    let mut queue: Vec<(SwitchRef, usize, Vec<u8>)> = vec![(SwitchRef::Leaf(leaf), ingress, bytes)];
    while let Some((sw, port_in, pkt)) = queue.pop() {
        if fabric.down.contains(&sw) {
            continue; // failed switch: the packet is lost here
        }
        let layout = fabric.layout;
        let node = match sw {
            SwitchRef::Leaf(l) => &mut fabric.leaves[l.0 as usize],
            SwitchRef::Spine(s) => &mut fabric.spines[s.0 as usize],
            SwitchRef::Core(c) => &mut fabric.cores[c.0 as usize],
        };
        let mut c = SwitchCounters::default();
        let outputs = process(node, port_in, &pkt, &layout, &mut c);
        node.commit(&c);
        run.hops.push(HopRecord {
            switch: sw,
            ingress_port: port_in,
            bytes_in: pkt.len(),
            egress_ports: outputs.iter().map(|(p, _)| *p).collect(),
        });
        for (port_out, out_pkt) in outputs {
            links.packets_on_links += 1;
            run.wire.push(out_pkt.clone());
            let n = out_pkt.len() as u64;
            match next_hop(&fabric.topo, sw, port_out) {
                Hop::Host(h) => {
                    links.leaf_to_host_bytes += n;
                    run.deliveries.push((h, out_pkt));
                }
                Hop::Switch(next, next_port, tier) => {
                    links.add_tier(tier, n);
                    queue.push((next, next_port, out_pkt));
                }
            }
        }
    }
    fabric.stats.absorb(&links);
    links.mirror();
    run.deliveries
        .sort_unstable_by(|a, b| ((a.0).0, &a.1).cmp(&((b.0).0, &b.1)));
    run
}

/// One switch's handling of one received packet: the copies to emit as
/// `(output port, packet bytes)`, in ascending port order.
fn process(
    sw: &NetworkSwitch,
    ingress_port: usize,
    bytes: &[u8],
    layout: &HeaderLayout,
    c: &mut SwitchCounters,
) -> Vec<(usize, Vec<u8>)> {
    let (repr, inner_off) = match ElmoPacketRepr::parse(bytes, layout) {
        Ok(p) => p,
        Err(_) => {
            c.stats.drop_parse();
            return Vec::new();
        }
    };
    if repr.header_vector_len(layout) > sw.config().header_vector_limit {
        c.stats.drop_header_vector();
        return Vec::new();
    }
    let inner = &bytes[inner_off..];
    if !ipv4::is_multicast(repr.group_ip) {
        return forward_unicast(sw, repr, inner, layout, c);
    }
    match sw.id() {
        SwitchRef::Leaf(l) => process_leaf(sw, l, ingress_port, repr, inner, layout, c),
        SwitchRef::Spine(s) => process_spine(sw, s, ingress_port, repr, inner, layout, c),
        SwitchRef::Core(_) => process_core(repr, inner, layout, c),
    }
}

fn process_leaf(
    sw: &NetworkSwitch,
    leaf: LeafId,
    ingress_port: usize,
    mut repr: ElmoPacketRepr,
    inner: &[u8],
    layout: &HeaderLayout,
    c: &mut SwitchCounters,
) -> Vec<(usize, Vec<u8>)> {
    let topo = &sw.topo;
    let from_host = ingress_port < topo.leaf_down_ports();
    let mut out = Vec::new();
    let Some(header) = repr.elmo.take() else {
        c.stats.drop_parse();
        return out;
    };
    if from_host {
        // Upstream direction: the u-leaf p-rule drives everything.
        let Some(rule) = header.u_leaf.clone() else {
            c.stats.drop_no_rule();
            return out;
        };
        c.stats.hit_prule();
        // Copies to co-located receivers: Elmo header fully stripped.
        emit_host_copies(&rule.down, &repr, inner, layout, &mut out);
        // Copy upward, with the u-leaf rule popped.
        if rule.goes_up() {
            let mut up_header = header;
            up_header.pop_upstream_leaf();
            c.pops += 1;
            repr.elmo = Some(up_header);
            if rule.multipath {
                let spine =
                    (ecmp_hash(&repr, leaf.0 as u64) % topo.leaf_up_ports() as u64) as usize;
                out.push((topo.leaf_up_port(spine), encode(&repr, inner, layout)));
            } else {
                for spine in rule.up.iter_ones() {
                    out.push((topo.leaf_up_port(spine), encode(&repr, inner, layout)));
                }
            }
        }
        return out;
    }

    // Downstream direction: match own identifier among d-leaf p-rules,
    // then the group table, then the default p-rule.
    let own = header.find_d_leaf(leaf.0).map(|r| &r.bitmap);
    if let Some(ports) = downstream_ports(sw, own, &repr, header.d_leaf_default.as_ref(), c) {
        emit_host_copies(&ports, &repr, inner, layout, &mut out);
    }
    out
}

fn process_spine(
    sw: &NetworkSwitch,
    spine: SpineId,
    ingress_port: usize,
    mut repr: ElmoPacketRepr,
    inner: &[u8],
    layout: &HeaderLayout,
    c: &mut SwitchCounters,
) -> Vec<(usize, Vec<u8>)> {
    let topo = &sw.topo;
    let from_leaf = ingress_port < topo.spine_down_ports();
    let mut out = Vec::new();
    let Some(header) = repr.elmo.take() else {
        c.stats.drop_parse();
        return out;
    };
    if from_leaf {
        // Upstream: the u-spine p-rule.
        let Some(rule) = header.u_spine.clone() else {
            c.stats.drop_no_rule();
            return out;
        };
        c.stats.hit_prule();
        // Copies down to local member leaves: next hop is a leaf, so pop
        // everything except the d-leaf section.
        if !rule.down.is_empty() {
            let mut down_header = header.clone();
            down_header.pop_upstream_spine();
            down_header.pop_core();
            down_header.pop_d_spine();
            c.pops += 3;
            let mut down_repr = repr.clone();
            down_repr.elmo = Some(down_header);
            for port in rule.down.iter_ones() {
                out.push((port, encode(&down_repr, inner, layout)));
            }
        }
        // Copy upward to the core, u-spine popped.
        if rule.goes_up() {
            let mut up_header = header;
            up_header.pop_upstream_spine();
            c.pops += 1;
            repr.elmo = Some(up_header);
            if rule.multipath {
                let core = (ecmp_hash(&repr, 0x51de ^ spine.0 as u64)
                    % topo.spine_up_ports() as u64) as usize;
                out.push((topo.spine_up_port(core), encode(&repr, inner, layout)));
            } else {
                for core in rule.up.iter_ones() {
                    out.push((topo.spine_up_port(core), encode(&repr, inner, layout)));
                }
            }
        }
        return out;
    }

    // Downstream: match own pod among d-spine p-rules, then the group
    // table, then the default p-rule.
    let own = header
        .find_d_spine(topo.pod_of_spine(spine).0)
        .map(|r| &r.bitmap);
    if let Some(ports) = downstream_ports(sw, own, &repr, header.d_spine_default.as_ref(), c) {
        // Next hop is a leaf: pop the spine section.
        let mut down_header = header;
        down_header.pop_d_spine();
        c.pops += 1;
        repr.elmo = Some(down_header);
        for port in ports.iter_ones() {
            out.push((port, encode(&repr, inner, layout)));
        }
    }
    out
}

/// The downstream match order shared by leaves and spines: the switch's
/// own p-rule, then its group table, then the header's default p-rule.
fn downstream_ports(
    sw: &NetworkSwitch,
    own: Option<&PortBitmap>,
    repr: &ElmoPacketRepr,
    default: Option<&PortBitmap>,
    c: &mut SwitchCounters,
) -> Option<PortBitmap> {
    let ports = if let Some(bm) = own {
        c.stats.hit_prule();
        bm
    } else if let Some(bm) = sw.srule(&repr.group_ip) {
        c.stats.hit_srule();
        bm
    } else if let Some(bm) = default {
        c.stats.hit_default();
        bm
    } else {
        c.stats.drop_no_rule();
        return None;
    };
    Some(ports.clone())
}

fn process_core(
    mut repr: ElmoPacketRepr,
    inner: &[u8],
    layout: &HeaderLayout,
    c: &mut SwitchCounters,
) -> Vec<(usize, Vec<u8>)> {
    let mut out = Vec::new();
    let Some(header) = repr.elmo.take() else {
        c.stats.drop_parse();
        return out;
    };
    let Some(pods) = header.core.clone() else {
        c.stats.drop_no_rule();
        return out;
    };
    c.stats.hit_prule();
    let mut down_header = header;
    down_header.pop_core();
    c.pops += 1;
    repr.elmo = Some(down_header);
    for pod in pods.iter_ones() {
        out.push((pod, encode(&repr, inner, layout)));
    }
    out
}

/// Plain underlay unicast: route on the destination host address.
fn forward_unicast(
    sw: &NetworkSwitch,
    repr: ElmoPacketRepr,
    inner: &[u8],
    layout: &HeaderLayout,
    c: &mut SwitchCounters,
) -> Vec<(usize, Vec<u8>)> {
    let topo = &sw.topo;
    let Some(dst_host) = crate::hypervisor::host_of_ip(repr.group_ip) else {
        c.stats.drop_parse();
        return Vec::new();
    };
    if dst_host.0 as usize >= topo.num_hosts() {
        c.stats.drop_parse();
        return Vec::new();
    }
    let dst_leaf = topo.leaf_of_host(dst_host);
    let dst_pod = topo.pod_of_leaf(dst_leaf);
    let port = match sw.id() {
        SwitchRef::Leaf(l) => {
            if dst_leaf == l {
                topo.host_port_on_leaf(dst_host)
            } else {
                let spine = (ecmp_hash(&repr, l.0 as u64) % topo.leaf_up_ports() as u64) as usize;
                topo.leaf_up_port(spine)
            }
        }
        SwitchRef::Spine(s) => {
            if topo.pod_of_spine(s) == dst_pod {
                topo.leaf_index_in_pod(dst_leaf)
            } else {
                let core = (ecmp_hash(&repr, s.0 as u64) % topo.spine_up_ports() as u64) as usize;
                topo.spine_up_port(core)
            }
        }
        SwitchRef::Core(_) => dst_pod.0 as usize,
    };
    c.stats.hit_unicast();
    vec![(port, encode(&repr, inner, layout))]
}

fn emit_host_copies(
    ports: &PortBitmap,
    repr: &ElmoPacketRepr,
    inner: &[u8],
    layout: &HeaderLayout,
    out: &mut Vec<(usize, Vec<u8>)>,
) {
    if ports.is_empty() {
        return;
    }
    // Host-bound copies carry no Elmo header (egress invalidation).
    let mut host_repr = repr.clone();
    host_repr.elmo = None;
    for port in ports.iter_ones() {
        out.push((port, encode(&host_repr, inner, layout)));
    }
}

fn encode(repr: &ElmoPacketRepr, inner: &[u8], layout: &HeaderLayout) -> Vec<u8> {
    let mut buf = Vec::new();
    repr.emit(layout, inner, &mut buf);
    buf
}
