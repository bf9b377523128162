//! The replay engine: the one copy-traversal loop of the data plane. A
//! batch of parsed packets is split into contiguous packet-index ranges,
//! one per worker, every worker forwarding through the same shared
//! `&Fabric`. `Fabric::inject`, `inject_batch`, `inject_flight` and
//! `inject_traced` are thin wrappers over it.
//!
//! # Why packets are independent
//!
//! An Elmo header carries the packet's whole multicast tree (paper §4.1).
//! A switch decides a copy's fate from the header, its own id and its
//! group table, and forwarding writes nothing into the switch except
//! counters. So no two packets interact, and a worker can replay any
//! subset of a batch against the shared fabric as long as it keeps its
//! counts to itself. `NetworkSwitch::process_hops_hv` takes `&self`
//! plus a `SwitchCounters` record for exactly this reason.
//!
//! Each worker owns one counter record per switch, a [`FabricStats`], a
//! delivery segment, its trace events and its flight recorder. After
//! `std::thread::scope` joins, the calling thread adds them into the
//! fabric in worker order and pushes the totals into the `elmo_obs`
//! mirrors once, so worker threads never touch the metric registry. With
//! one worker the loop runs inline and no thread is spawned; with more,
//! the calling thread runs the first range itself.
//!
//! # Deliveries: zero-copy to the very end
//!
//! A delivered copy is fully determined by `(host, batch packet index,
//! pop state)` — the wire bytes are a pure function of the shared
//! `FlightPacket` and the `u8` state. So workers record exactly that
//! triple, in struct-of-arrays segments, and [`DeliveryBatch`]
//! materializes bytes only when a consumer asks ([`DeliveryBatch::
//! for_each`] through one recycled scratch buffer, [`DeliveryBatch::
//! to_vec`] into owned vectors). Replaying a 20k-packet batch therefore
//! touches a few hundred kilobytes of delivery state instead of
//! streaming ~75 MB of packet bytes through cold memory.
//!
//! # Run grouping
//!
//! Within a worker, pending copies are not a single queue: each switch
//! has its own struct-of-arrays *bucket*, and the worker drains one whole
//! bucket per iteration (swapping it out first — a switch never forwards
//! to itself, so the run cannot grow under its own feet). The switch
//! lookup, its compiled [`MatchPlan`](crate::netswitch::NetworkSwitch)'s
//! cache lines, its counter record and the failed-switch check are paid
//! once per run instead of per copy. Copy lengths come from the batch's
//! precomputed [`FlightBatch`] wire-length rows, and output ports resolve
//! through the fabric's compiled [`HopTable`] — the inner loop never
//! walks a header or the topology math.
//!
//! # One tracer
//!
//! A traced replay records one [`TraceEvent`] per replication edge. The
//! copy-tree trace keeps them as they are; capture sessions and
//! `Fabric::inject_traced`'s [`HopRecord`]s are read off the same events
//! after the join. Each packet's tree is walked with a LIFO stack, every
//! switch's children in ascending egress port (resolved back through the
//! [`HopTable`]), which is exactly the traversal order of the
//! [`crate::reference`] byte loop; a failed switch yields no record. Run
//! grouping scrambles the order copies are *forwarded* in, but not the
//! tree they form, so capture and hop tracing run on any worker count.
//!
//! # Determinism
//!
//! Which copies exist, which links they cross and which hosts they reach
//! is a fixed function of (topology, rules, batch). Counters are sums, so
//! the merge cannot change them. Every delivery carries its batch packet
//! index, and each worker sorts its own segment into the canonical
//! `(packet, host, state)` order before it returns. The ranges are
//! contiguous and the segments are read in worker order, so their
//! concatenation is the canonical order of the whole batch — the same
//! byte sequence for any worker count, including one, which is how
//! `tests/replay_identity.rs` pins it.

use elmo_core::{resolve_threads, HeaderLayout};
use elmo_topology::{Clos, HostId, SwitchRef};

use elmo_obs::{FlightRecorder, TraceEvent, HOST_NODE_BIT, TRACE_ROOT};

use crate::fabric::{
    dense_switch_id, dense_switch_ref, metrics, next_hop, Fabric, FabricStats, Hop, HopRecord,
    LinkTier,
};
use crate::netswitch::{SwitchCounters, HOST_STRIPPED};
use crate::packet::{FlightBatch, FlightPacket, HostEmitCache};

/// One worker's delivery output in struct-of-arrays form. Entry `i` is
/// `(hosts[i], pkt[i], state[i])`; bytes are derived on demand.
#[derive(Clone, Debug, Default)]
struct Segment {
    hosts: Vec<HostId>,
    pkt: Vec<u32>,
    state: Vec<u8>,
    /// Entry indices in canonical order, set by
    /// [`sort_canonical`](Self::sort_canonical).
    order: Vec<u32>,
    /// Recycled key buffer for the sort.
    sort_scratch: Vec<(u64, u32)>,
    /// Recycled per-packet count buffer for the sort.
    count_scratch: Vec<u32>,
}

impl Segment {
    fn clear(&mut self) {
        self.hosts.clear();
        self.pkt.clear();
        self.state.clear();
        self.order.clear();
    }

    #[inline]
    fn push(&mut self, host: HostId, pkt: u32, state: u8) {
        self.hosts.push(host);
        self.pkt.push(pkt);
        self.state.push(state);
    }

    /// Build `order`, the canonical `(packet, host, state)` iteration
    /// order.
    fn sort_canonical(&mut self) {
        // A packet fans out to a handful of hosts, so this is a counting
        // sort by packet index (linear) followed by a tiny `(host, state)`
        // sort inside each packet's run — O(entries + packets), never a
        // comparison sort over the whole segment. Equal keys are
        // byte-identical deliveries, so within-run instability and the
        // run-grouped production order cannot leak through.
        let lo = self.pkt.iter().copied().min().unwrap_or(0);
        let hi = self.pkt.iter().copied().max().unwrap_or(0);
        let span = (hi - lo) as usize + 1;
        let mut counts = std::mem::take(&mut self.count_scratch);
        counts.clear();
        counts.resize(span + 1, 0u32);
        for &p in &self.pkt {
            counts[(p - lo) as usize + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let mut keyed = std::mem::take(&mut self.sort_scratch);
        keyed.clear();
        keyed.resize(self.hosts.len(), (0, 0));
        for i in 0..self.hosts.len() {
            let p = (self.pkt[i] - lo) as usize;
            let slot = counts[p] as usize;
            counts[p] += 1;
            let k = ((self.hosts[i].0 as u64) << 8) | self.state[i] as u64;
            keyed[slot] = (k, i as u32);
        }
        // After the scatter `counts[p]` is the end of packet `p`'s run.
        let mut run_start = 0usize;
        for &end in counts.iter().take(span) {
            let run_end = end as usize;
            let run = &mut keyed[run_start..run_end];
            if run.len() > 1 {
                run.sort_unstable_by_key(|e| e.0);
            }
            run_start = run_end;
        }
        self.order.clear();
        self.order.extend(keyed.iter().map(|&(_, i)| i));
        self.sort_scratch = keyed;
        self.count_scratch = counts;
    }
}

/// Host deliveries of one replayed batch, kept zero-copy: each entry is
/// `(host, batch packet index, pop state)` plus a shared reference to
/// the batch's [`FlightPacket`]s, and wire bytes are materialized only
/// when read. Iteration follows the canonical `(packet, host, state)`
/// order, which is identical for every worker count.
///
/// Reuse one `DeliveryBatch` across [`Fabric::replay_flights_sharded`]
/// calls and the steady state allocates nothing: segments, their orders,
/// and the materialization scratch all keep their capacity.
#[derive(Clone, Debug, Default)]
pub struct DeliveryBatch {
    /// One segment per worker, in packet-range order; each is sorted.
    segments: Vec<Segment>,
    /// The replayed batch, for on-demand materialization. `popped` may
    /// hold worker scratch — the per-entry `state` is authoritative.
    pkts: Vec<FlightPacket>,
    /// Captured from the fabric at replay time (`None` until the first
    /// replay fills the batch).
    layout: Option<HeaderLayout>,
    /// Recycled buffer for [`for_each`](Self::for_each).
    scratch: Vec<u8>,
    /// Recycled [`FlightBatch`] wire-length rows — handed to the engine
    /// at replay time, returned here after the join.
    wire_scratch: Vec<[u32; 6]>,
}

impl DeliveryBatch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Delivered copies in the batch.
    pub fn len(&self) -> usize {
        self.segments.iter().map(|s| s.order.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop the entries but keep every buffer's capacity.
    pub fn clear(&mut self) {
        for seg in &mut self.segments {
            seg.clear();
        }
        self.pkts.clear();
    }

    /// The deliveries as `(host, batch packet index)` in canonical
    /// order, without materializing any bytes.
    pub fn entries(&self) -> impl Iterator<Item = (HostId, u32)> + '_ {
        self.segments.iter().flat_map(|seg| {
            seg.order
                .iter()
                .map(move |&i| (seg.hosts[i as usize], seg.pkt[i as usize]))
        })
    }

    /// Visit every delivery in canonical order as `(host, wire bytes)`.
    /// Bytes are materialized into one internal scratch buffer that is
    /// recycled between calls to `f` — the whole walk stays in cache and
    /// allocates nothing once warm.
    pub fn for_each(&mut self, mut f: impl FnMut(HostId, &[u8])) {
        let Some(layout) = self.layout else {
            return; // never replayed into: no entries
        };
        let mut scratch = std::mem::take(&mut self.scratch);
        // Canonical order is packet-major, so every copy of one packet in
        // one state (the common case: a packet's whole host fan-out, all
        // `HOST_STRIPPED`) is consecutive — serialize once, replay the
        // scratch buffer for the rest of the run. Across packets, the
        // emit cache reuses the outer stack when only the entropy moved.
        let mut memo: Option<(u32, u8)> = None;
        let mut host_emit = HostEmitCache::new();
        for seg in &self.segments {
            for &i in &seg.order {
                let i = i as usize;
                let (pkt_i, state) = (seg.pkt[i], seg.state[i]);
                if memo != Some((pkt_i, state)) {
                    scratch.clear();
                    let pkt = &self.pkts[pkt_i as usize];
                    if state == HOST_STRIPPED {
                        host_emit.append_host_to(pkt, &layout, &mut scratch);
                    } else {
                        let mut p = pkt.clone();
                        p.popped = state;
                        p.append_to(&layout, &mut scratch);
                    }
                    memo = Some((pkt_i, state));
                }
                f(seg.hosts[i], &scratch);
            }
        }
        self.scratch = scratch;
    }

    /// Materialize into the owned-bytes form
    /// [`Fabric::inject_batch`] returns, same canonical order as
    /// [`for_each`](Self::for_each).
    pub fn to_vec(&mut self) -> Vec<(HostId, Vec<u8>)> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each(|h, b| out.push((h, b.to_vec())));
        out
    }

    /// Make sure exactly `n` segments exist, clearing all of them.
    fn reset(&mut self, n: usize, layout: HeaderLayout) {
        self.clear();
        self.segments.resize_with(n, Segment::default);
        self.segments.truncate(n);
        self.layout = Some(layout);
    }
}

/// One entry of the compiled hop table: where a switch's output port
/// leads, with the next switch pre-resolved to its dense id.
#[derive(Clone, Copy, Debug)]
enum PlannedHop {
    Host(HostId),
    Switch {
        dense: u32,
        port: u16,
        tier: LinkTier,
    },
}

/// [`next_hop`] precomputed for every `(switch, output port)` of a
/// topology: `hops[off[dense] + port]`. Workers resolve a copy's next
/// stop by indexing, never by topology arithmetic (the spine→core branch
/// of `next_hop` walks an iterator per call). Built once per fabric.
#[derive(Clone, Debug)]
pub(crate) struct HopTable {
    hops: Vec<PlannedHop>,
    off: Vec<u32>,
}

impl HopTable {
    pub(crate) fn new(topo: &Clos) -> HopTable {
        let switches = topo.num_leaves() + topo.num_spines() + topo.num_cores();
        let mut table = HopTable {
            hops: Vec::new(),
            off: Vec::with_capacity(switches),
        };
        for dense in 0..switches as u32 {
            table.off.push(table.hops.len() as u32);
            let sw = dense_switch_ref(topo, dense);
            let ports = match sw {
                SwitchRef::Leaf(_) => topo.leaf_down_ports() + topo.leaf_up_ports(),
                SwitchRef::Spine(_) => topo.spine_down_ports() + topo.spine_up_ports(),
                SwitchRef::Core(_) => topo.num_pods(),
            };
            for port in 0..ports {
                table.hops.push(match next_hop(topo, sw, port) {
                    Hop::Host(h) => PlannedHop::Host(h),
                    Hop::Switch(next, next_port, tier) => PlannedHop::Switch {
                        dense: dense_switch_id(topo, next),
                        port: next_port as u16,
                        tier,
                    },
                });
            }
        }
        table
    }

    /// Number of switches (dense ids run `0..switches()`).
    fn switches(&self) -> usize {
        self.off.len()
    }

    #[inline]
    fn hop(&self, dense: u32, port: u16) -> PlannedHop {
        self.hops[self.off[dense as usize] as usize + port as usize]
    }

    /// The output port of switch `dense` that leads to trace node
    /// `child` (a dense switch id or `HOST_NODE_BIT | host`). Clos links
    /// are never parallel, so the port is unique.
    fn egress_port(&self, dense: u32, child: u32) -> u16 {
        let lo = self.off[dense as usize] as usize;
        let hi = self
            .off
            .get(dense as usize + 1)
            .map_or(self.hops.len(), |&o| o as usize);
        self.hops[lo..hi]
            .iter()
            .position(|h| match *h {
                PlannedHop::Host(host) => HOST_NODE_BIT | host.0 == child,
                PlannedHop::Switch { dense, .. } => dense == child,
            })
            .expect("a trace edge follows a link") as u16
    }
}

/// A packet's first copy: it enters its ingress leaf from the host.
#[derive(Clone, Copy, Debug)]
struct Seed {
    /// Dense id of the ingress leaf.
    sw: u32,
    /// Host-facing ingress port on that leaf.
    port: u16,
    /// Pop depth the packet was sent with.
    state: u8,
    /// Index of the packet in the batch.
    pkt: u32,
}

/// One switch's queued copies in struct-of-arrays form. Entry `i` is
/// `(port[i], state[i], pkt[i])` — the switch itself is the bucket's
/// identity, so one run through a bucket resolves the switch, its
/// compiled plan, and its counter record exactly once.
#[derive(Clone, Debug, Default)]
struct Bucket {
    port: Vec<u16>,
    state: Vec<u8>,
    pkt: Vec<u32>,
}

impl Bucket {
    #[inline]
    fn push(&mut self, port: u16, state: u8, pkt: u32) {
        self.port.push(port);
        self.state.push(state);
        self.pkt.push(pkt);
    }

    fn clear(&mut self) {
        self.port.clear();
        self.state.clear();
        self.pkt.clear();
    }
}

/// Everything one worker counted: a record per switch (dense order),
/// link counters, trace events, and its flight recorder. Its deliveries
/// go straight into the worker's own [`Segment`].
struct Tally {
    switches: Vec<SwitchCounters>,
    links: FabricStats,
    events: Vec<TraceEvent>,
    recorder: FlightRecorder,
}

/// What every worker reads: the fabric, the batch's wire-length rows,
/// and the trace switches.
struct Shared<'a> {
    fabric: &'a Fabric,
    wire: &'a [[u32; 6]],
    tracing: bool,
    recorder_cap: usize,
}

/// How one input packet of a byte-level injection met the fabric, kept
/// only while capturing: the capture records its raw bytes first, then
/// (if it was replayed) its copies.
pub(crate) struct Ingress {
    /// Parsed and handed to the engine as the next batch packet (false:
    /// lost before parsing — failed ingress leaf, or garbage).
    pub(crate) replayed: bool,
    /// The bytes the host sent.
    pub(crate) bytes: Vec<u8>,
}

impl Fabric {
    /// The batched replay engine's entry point: drive a batch of
    /// pre-parsed packets through up to `shards` workers (0 = one per
    /// available core), each replaying a contiguous packet-index range,
    /// and fill `out` (which is cleared first; its buffers are reused, so
    /// repeated replay into the same `DeliveryBatch` is allocation-free
    /// once warm).
    ///
    /// Counters and the canonical delivery sequence are identical for
    /// every worker count, and so are capture and trace sessions: they
    /// are derived from the replay's copy-tree events after the join.
    pub fn replay_flights_sharded(
        &mut self,
        flights: &[(HostId, FlightPacket)],
        shards: usize,
        out: &mut DeliveryBatch,
    ) {
        self.replay(flights, shards, out, &[], false);
    }

    /// [`replay_flights_sharded`](Self::replay_flights_sharded) with the
    /// capture's view of how the packets entered (`ingress`, empty when
    /// every packet entered as its flight). Returns the batch's trace
    /// events in canonical order, with batch-local packet indices, when
    /// `record` is set or a capture or copy-tree session is armed (empty
    /// otherwise).
    pub(crate) fn replay(
        &mut self,
        flights: &[(HostId, FlightPacket)],
        shards: usize,
        out: &mut DeliveryBatch,
        ingress: &[Ingress],
        record: bool,
    ) -> Vec<TraceEvent> {
        metrics().shard_batches.inc();
        // Build the SoA batch on the `DeliveryBatch`'s recycled buffers:
        // the packet slots come back for materialization anyway, and the
        // wire-length rows are returned as scratch after the join.
        let mut batch = FlightBatch::recycle(
            std::mem::take(&mut out.pkts),
            std::mem::take(&mut out.wire_scratch),
        );
        let mut seeds = Vec::with_capacity(flights.len());
        let mut batch_links = FabricStats::default();
        for (from, pkt) in flights {
            let leaf = self.topo.leaf_of_host(*from);
            let idx = batch.len();
            batch.push(pkt.clone(), &self.layout);
            batch_links.host_to_leaf_bytes += batch.wire_len(idx, pkt.popped) as u64;
            if self.down.contains(&SwitchRef::Leaf(leaf)) {
                continue; // failed ingress leaf: lost before the first hop
            }
            seeds.push(Seed {
                sw: leaf.0,
                port: self.topo.host_port_on_leaf(*from) as u16,
                state: pkt.popped,
                pkt: idx as u32,
            });
        }
        batch_links.packets_on_links += flights.len() as u64;
        let tracing = record || self.tree.is_some() || self.capture.is_some();
        let mut events: Vec<TraceEvent> = Vec::new();
        if tracing {
            events.extend(seeds.iter().map(|s| TraceEvent {
                pkt: s.pkt,
                parent: TRACE_ROOT,
                child: s.sw,
                state: s.state,
            }));
        }
        // The workers borrow the fabric immutably, so no table can change
        // under them: one stamp compare per switch covers the whole batch.
        for sw in self.leaves.iter().chain(&self.spines).chain(&self.cores) {
            sw.check_plan_stale();
        }

        let (mut pkts, wire) = batch.into_parts();
        let chunk = pkts.len().div_ceil(resolve_threads(shards).max(1)).max(1);
        let workers = pkts.len().div_ceil(chunk).max(1);
        out.reset(workers, self.layout);
        let shared = Shared {
            fabric: self,
            wire: &wire,
            tracing,
            recorder_cap: self.recorder_cap,
        };
        let tallies: Vec<Tally> = if workers == 1 {
            vec![replay_range(
                &shared,
                0,
                &mut pkts,
                &seeds,
                &mut out.segments[0],
            )]
        } else {
            std::thread::scope(|scope| {
                let shared = &shared;
                let seeds = &seeds;
                let mut ranges = pkts.chunks_mut(chunk).zip(out.segments.iter_mut());
                let (first, first_seg) = ranges.next().expect("at least two ranges");
                let handles: Vec<_> = ranges
                    .enumerate()
                    .map(|(i, (range, seg))| {
                        let base = ((i + 1) * chunk) as u32;
                        scope.spawn(move || replay_range(shared, base, range, seeds, seg))
                    })
                    .collect();
                let mut tallies = vec![replay_range(shared, 0, first, seeds, first_seg)];
                tallies.extend(
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("replay worker panicked")),
                );
                tallies
            })
        };

        // Merge in worker order, then mirror the batch's totals once.
        let mut batch_switches = SwitchCounters::default();
        let mut recorders = Vec::with_capacity(tallies.len());
        for t in tallies {
            batch_links.absorb(&t.links);
            for (dense, c) in t.switches.iter().enumerate() {
                if *c != SwitchCounters::default() {
                    self.switch_by_dense_mut(dense as u32).absorb(c);
                    batch_switches.absorb(c);
                }
            }
            events.extend(t.events);
            recorders.push(t.recorder);
        }
        self.stats.absorb(&batch_links);
        batch_links.mirror();
        batch_switches.mirror();
        metrics().replay_materialized.add(out.len() as u64);
        if self.recorder_cap > 0 {
            self.flight_recorders = recorders;
        }
        out.pkts = pkts;
        out.wire_scratch = wire;
        if tracing {
            elmo_obs::sort_events(&mut events);
            if self.capture.is_some() {
                self.capture_batch(flights, &events, ingress);
            }
            if let Some(tree) = &mut self.tree {
                // One running offset per session: this replay's packets
                // follow every packet an earlier replay numbered.
                let base = tree.next_pkt;
                tree.events.extend(events.iter().map(|e| TraceEvent {
                    pkt: base + e.pkt,
                    ..*e
                }));
                tree.next_pkt = base + flights.len() as u32;
            }
        }
        events
    }

    /// Append one replayed batch to the capture, in input order: each
    /// packet's ingress bytes, then its wire copies in traversal order,
    /// until the session's limit. An empty `ingress` means every packet
    /// entered as its flight, so its ingress bytes are re-materialized.
    fn capture_batch(
        &mut self,
        flights: &[(HostId, FlightPacket)],
        events: &[TraceEvent],
        ingress: &[Ingress],
    ) {
        let Some((limit, mut cap)) = self.capture.take() else {
            return;
        };
        let layout = self.layout;
        let own: Vec<Ingress>;
        let ingress = if ingress.is_empty() {
            own = flights
                .iter()
                .map(|(_, pkt)| Ingress {
                    replayed: true,
                    bytes: pkt.to_bytes(&layout),
                })
                .collect();
            &own
        } else {
            ingress
        };
        let mut materialized = 0u64;
        let mut next = 0;
        for entry in ingress {
            if cap.len() < limit {
                cap.push(entry.bytes.clone());
            }
            if !entry.replayed {
                continue;
            }
            let (from, pkt) = &flights[next];
            self.walk_copy_tree(next as u32, *from, pkt.popped, events, |_, _, _, outs| {
                for &(_, _, state) in outs {
                    if cap.len() < limit {
                        cap.push(pkt.copy_at(state).to_bytes(&layout));
                        materialized += 1;
                    }
                }
            });
            next += 1;
        }
        metrics().replay_materialized.add(materialized);
        self.capture = Some((limit, cap));
    }

    /// One [`HopRecord`] per switch visit of every packet in `flights`,
    /// read off the replay's `events` and the wire-length rows `out`
    /// kept from the same replay.
    pub(crate) fn hop_records(
        &self,
        flights: &[(HostId, FlightPacket)],
        out: &DeliveryBatch,
        events: &[TraceEvent],
    ) -> Vec<HopRecord> {
        let mut hops = Vec::new();
        for (i, (from, pkt)) in flights.iter().enumerate() {
            let row = &out.wire_scratch[i];
            self.walk_copy_tree(
                i as u32,
                *from,
                pkt.popped,
                events,
                |sw, port, state, outs| {
                    hops.push(HopRecord {
                        switch: dense_switch_ref(&self.topo, sw),
                        ingress_port: port as usize,
                        bytes_in: row[state as usize] as usize,
                        egress_ports: outs.iter().map(|o| o.0 as usize).collect(),
                    });
                },
            );
        }
        hops
    }

    /// Walk packet `pkt`'s copy tree (sent by `from` at pop depth
    /// `state0`) in the reference loop's traversal order: a LIFO stack,
    /// each switch's outputs in ascending egress port. `visit(switch,
    /// ingress port, state, outputs)` runs for every switch that handled
    /// a copy — failed switches are skipped — with `outputs` as
    /// `(egress port, child node, state)`. A switch the packet reaches
    /// twice (possible only with an explicit multi-port upstream cover)
    /// is one copy-tree node; its edges are split between its visits, one
    /// copy per child per visit.
    fn walk_copy_tree(
        &self,
        pkt: u32,
        from: HostId,
        state0: u8,
        events: &[TraceEvent],
        mut visit: impl FnMut(u32, u16, u8, &[(u16, u32, u8)]),
    ) {
        let evs = &events[events.partition_point(|e| e.pkt < pkt)..];
        let evs = &evs[..evs.partition_point(|e| e.pkt == pkt)];
        let mut used = vec![false; evs.len()];
        let mut outs: Vec<(u16, u32, u8)> = Vec::new();
        let leaf = self.topo.leaf_of_host(from).0;
        let mut stack = vec![(leaf, self.topo.host_port_on_leaf(from) as u16, state0)];
        while let Some((sw, port, state)) = stack.pop() {
            if self.down.contains(&dense_switch_ref(&self.topo, sw)) {
                continue; // failed switch: the copy is lost here
            }
            outs.clear();
            let lo = evs.partition_point(|e| e.parent < sw);
            let hi = evs.partition_point(|e| e.parent <= sw);
            for k in lo..hi {
                let e = evs[k];
                if used[k] || outs.last().is_some_and(|o| o.1 == e.child) {
                    continue;
                }
                used[k] = true;
                outs.push((self.hops.egress_port(sw, e.child), e.child, e.state));
            }
            outs.sort_unstable();
            visit(sw, port, state, &outs);
            for &(egress, _, out_state) in &outs {
                if let PlannedHop::Switch { dense, port, .. } = self.hops.hop(sw, egress) {
                    stack.push((dense, port, out_state));
                }
            }
        }
    }
}

/// One worker: replay the packets `base..base + pkts.len()` of the batch
/// in runs — pick a non-empty bucket, swap it out, and push every copy in
/// it through its switch — recording deliveries into `seg` (sorted
/// canonically before returning) and counts into the returned [`Tally`].
fn replay_range(
    shared: &Shared,
    base: u32,
    pkts: &mut [FlightPacket],
    seeds: &[Seed],
    seg: &mut Segment,
) -> Tally {
    let fabric = shared.fabric;
    let hops = &fabric.hops;
    let n = hops.switches();
    let mut t = Tally {
        switches: vec![SwitchCounters::default(); n],
        links: FabricStats::default(),
        events: Vec::new(),
        recorder: FlightRecorder::new(shared.recorder_cap),
    };
    let mut buckets: Vec<Bucket> = vec![Bucket::default(); n];
    // Stack of switches whose bucket is non-empty, de-duplicated by
    // `queued`.
    let mut active: Vec<u32> = Vec::new();
    let mut queued = vec![false; n];
    let mut run = Bucket::default();
    let mut hop_out: Vec<(u16, u8)> = Vec::new();

    let end = base + pkts.len() as u32;
    let lo = seeds.partition_point(|s| s.pkt < base);
    let hi = seeds.partition_point(|s| s.pkt < end);
    for s in &seeds[lo..hi] {
        buckets[s.sw as usize].push(s.port, s.state, s.pkt);
        if !queued[s.sw as usize] {
            queued[s.sw as usize] = true;
            active.push(s.sw);
        }
    }
    while let Some(sw) = active.pop() {
        let d = sw as usize;
        queued[d] = false;
        // A switch never forwards to itself, so the run is fixed the
        // moment it starts.
        std::mem::swap(&mut buckets[d], &mut run);
        if fabric.down.contains(&dense_switch_ref(&fabric.topo, sw)) {
            // Failed switch: the whole run is lost here, exactly as in
            // the reference loop.
            run.clear();
            continue;
        }
        let node = fabric.switch_by_dense(sw);
        let counters = &mut t.switches[d];
        for e in 0..run.port.len() {
            let (port, state, pkt_i) = (run.port[e], run.state[e], run.pkt[e]);
            let work = &mut pkts[(pkt_i - base) as usize];
            work.popped = state;
            let row = &shared.wire[pkt_i as usize];
            let hv = row[state as usize] as usize - work.payload.len();
            hop_out.clear();
            node.process_hops_hv(port as usize, work, hv, counters, &mut hop_out);
            for &(port_out, out_state) in &hop_out {
                t.links.packets_on_links += 1;
                let bytes = if out_state == HOST_STRIPPED {
                    row[5]
                } else {
                    row[out_state as usize]
                } as u64;
                let child = match hops.hop(sw, port_out) {
                    PlannedHop::Host(h) => {
                        t.links.leaf_to_host_bytes += bytes;
                        seg.push(h, pkt_i, out_state);
                        HOST_NODE_BIT | h.0
                    }
                    PlannedHop::Switch { dense, port, tier } => {
                        debug_assert_ne!(out_state, HOST_STRIPPED, "stripped copies go to hosts");
                        t.links.add_tier(tier, bytes);
                        buckets[dense as usize].push(port, out_state, pkt_i);
                        if !queued[dense as usize] {
                            queued[dense as usize] = true;
                            active.push(dense);
                        }
                        dense
                    }
                };
                if shared.tracing || shared.recorder_cap > 0 {
                    let ev = TraceEvent {
                        pkt: pkt_i,
                        parent: sw,
                        child,
                        state: out_state,
                    };
                    if shared.tracing {
                        t.events.push(ev);
                    }
                    if shared.recorder_cap > 0 {
                        t.recorder.record(ev);
                    }
                }
            }
        }
        run.clear();
    }
    seg.sort_canonical();
    t
}
