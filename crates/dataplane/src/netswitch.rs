//! PISA-style network switch model (paper §4.1).
//!
//! A network switch processes an Elmo packet in the same stages as the
//! paper's P4 program on RMT/Tofino:
//!
//! 1. **Parser** — walks the outer stack and the p-rule list, doing
//!    match-and-set on the switch's own identifier. The parser's header
//!    vector is bounded (512 bytes on RMT); packets whose headers exceed it
//!    are dropped and counted, modeling the hardware limit.
//! 2. **Ingress pipeline** — if the parser matched a p-rule, its bitmap goes
//!    straight to the queue manager (`bitmap_port_select`); otherwise the
//!    group table is consulted for an s-rule keyed on the outer destination
//!    IP; otherwise the default p-rule applies; otherwise the packet drops.
//! 3. **Egress pipeline** — pops every p-rule section irrelevant to the
//!    next-hop layer (D2d), and strips the Elmo header entirely on copies
//!    headed to hosts so receiving hypervisors skip the decap work.
//!
//! The same switch also forwards ordinary unicast VXLAN packets (used by the
//! unicast/overlay baselines and by Elmo's transient unicast fallback).

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::net::Ipv4Addr;

use elmo_core::sync::Stamp;
use elmo_core::{pop, HeaderLayout, PortBitmap, SigHasher};
use elmo_net::ipv4;
use elmo_topology::{Clos, CoreId, LeafId, SpineId, SwitchRef};

use crate::packet::FlightPacket;

/// The group table's hash map type. IPv4 keys are tiny and fully random in
/// the low octets, so the default SipHash is pure overhead on the lookup
/// fast path — the pass-through fingerprint hasher from `elmo_core::sig`
/// (a 5-bit-rotate multiply fold) is an order of magnitude cheaper per
/// probe and deterministic across runs.
type GroupTable = HashMap<Ipv4Addr, PortBitmap, BuildHasherDefault<SigHasher>>;

/// Which rule source resolved a packet copy at a switch — the ingress
/// pipeline's match order made explicit for the copy-tree trace's rule
/// attribution (`elmo-eval trace` annotates each tree node with this).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MatchSource {
    /// A p-rule carried in the packet header matched the switch's own id.
    PRule,
    /// The group table held an s-rule for the outer destination.
    SRule,
    /// The header's default p-rule for this layer applied.
    DefaultPRule,
    /// Nothing matched: the copy would drop here.
    NoRule,
}

impl MatchSource {
    /// Stable label used in trace JSON and rendered trees.
    pub fn label(&self) -> &'static str {
        match self {
            MatchSource::PRule => "p-rule",
            MatchSource::SRule => "s-rule",
            MatchSource::DefaultPRule => "default-p-rule",
            MatchSource::NoRule => "no-rule",
        }
    }
}

/// Per-switch resource limits.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SwitchConfig {
    /// Parser header-vector size in bytes (512 for RMT, paper §4.1).
    pub header_vector_limit: usize,
    /// Group-table capacity `Fmax` (s-rule entries).
    pub group_table_capacity: usize,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        SwitchConfig {
            header_vector_limit: 512,
            group_table_capacity: 10_000,
        }
    }
}

/// Counters exposed by each switch.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct SwitchStats {
    /// Packets forwarded using a matching p-rule.
    pub prule_hits: u64,
    /// Packets forwarded using an s-rule from the group table.
    pub srule_hits: u64,
    /// Packets forwarded using the default p-rule.
    pub default_hits: u64,
    /// Packets forwarded by plain unicast routing.
    pub unicast_forwarded: u64,
    /// Packets dropped: no matching rule of any kind.
    pub dropped_no_rule: u64,
    /// Packets dropped: malformed or unparseable.
    pub dropped_parse: u64,
    /// Packets dropped: header exceeded the parser's header vector.
    pub dropped_header_vector: u64,
}

/// Fabric-wide mirrors of the per-switch counters, plus the header-pop
/// count the per-switch stats don't track. Counters are commutative, so
/// totals stay deterministic however the forwarding work was split.
struct DpMetrics {
    prule_hits: elmo_obs::Counter,
    srule_hits: elmo_obs::Counter,
    default_sprays: elmo_obs::Counter,
    unicast_forwarded: elmo_obs::Counter,
    dropped_no_rule: elmo_obs::Counter,
    dropped_parse: elmo_obs::Counter,
    dropped_header_vector: elmo_obs::Counter,
    header_pops: elmo_obs::Counter,
    plan_rebuilds: elmo_obs::Counter,
    plan_stale_detected: elmo_obs::Counter,
}

fn metrics() -> &'static DpMetrics {
    static M: std::sync::OnceLock<DpMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| DpMetrics {
        prule_hits: elmo_obs::counter("dataplane.prule_hits"),
        srule_hits: elmo_obs::counter("dataplane.srule_hits"),
        default_sprays: elmo_obs::counter("dataplane.default_prule_sprays"),
        unicast_forwarded: elmo_obs::counter("dataplane.unicast_forwarded"),
        dropped_no_rule: elmo_obs::counter("dataplane.dropped_no_rule"),
        dropped_parse: elmo_obs::counter("dataplane.dropped_parse"),
        dropped_header_vector: elmo_obs::counter("dataplane.dropped_header_vector"),
        header_pops: elmo_obs::counter("dataplane.header_pops"),
        plan_rebuilds: elmo_obs::counter("fabric.replay.plan_rebuilds"),
        plan_stale_detected: elmo_obs::counter("fabric.replay.plan_stale_detected"),
    })
}

impl SwitchStats {
    /// Add another record's counts into this one.
    pub fn absorb(&mut self, o: &SwitchStats) {
        self.prule_hits += o.prule_hits;
        self.srule_hits += o.srule_hits;
        self.default_hits += o.default_hits;
        self.unicast_forwarded += o.unicast_forwarded;
        self.dropped_no_rule += o.dropped_no_rule;
        self.dropped_parse += o.dropped_parse;
        self.dropped_header_vector += o.dropped_header_vector;
    }

    pub(crate) fn hit_prule(&mut self) {
        self.prule_hits += 1;
    }

    pub(crate) fn hit_srule(&mut self) {
        self.srule_hits += 1;
    }

    pub(crate) fn hit_default(&mut self) {
        self.default_hits += 1;
    }

    pub(crate) fn hit_unicast(&mut self) {
        self.unicast_forwarded += 1;
    }

    pub(crate) fn drop_no_rule(&mut self) {
        self.dropped_no_rule += 1;
    }

    pub(crate) fn drop_parse(&mut self) {
        self.dropped_parse += 1;
    }

    pub(crate) fn drop_header_vector(&mut self) {
        self.dropped_header_vector += 1;
    }
}

/// What forwarding adds to one switch's counters: its [`SwitchStats`]
/// plus the header sections it popped. The forwarding path reads the
/// switch through `&self` and writes only into a record like this, so any
/// number of threads can forward through one switch at once, each into
/// its own record; the records are summed afterwards.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub(crate) struct SwitchCounters {
    pub(crate) stats: SwitchStats,
    /// Header sections popped (D2d egress).
    pub(crate) pops: u64,
}

impl SwitchCounters {
    /// Add another record's counts into this one.
    pub(crate) fn absorb(&mut self, o: &SwitchCounters) {
        self.stats.absorb(&o.stats);
        self.pops += o.pops;
    }

    /// Add these counts to the process-wide `dataplane.*` mirrors.
    pub(crate) fn mirror(&self) {
        let m = metrics();
        let (s, pops) = (&self.stats, self.pops);
        for (counter, n) in [
            (&m.prule_hits, s.prule_hits),
            (&m.srule_hits, s.srule_hits),
            (&m.default_sprays, s.default_hits),
            (&m.unicast_forwarded, s.unicast_forwarded),
            (&m.dropped_no_rule, s.dropped_no_rule),
            (&m.dropped_parse, s.dropped_parse),
            (&m.dropped_header_vector, s.dropped_header_vector),
            (&m.header_pops, pops),
        ] {
            if n > 0 {
                counter.add(n);
            }
        }
    }
}

/// Hop-state sentinel for a host-bound copy whose Elmo header is stripped
/// entirely (egress invalidation). Every other state a hop emits is a
/// plain [`elmo_core::pop`] depth, so one `u8` describes any output copy:
/// the struct-of-arrays replay queues store exactly `(port, state)` and
/// reconstruct the copy from the injection's shared packet on demand.
pub const HOST_STRIPPED: u8 = u8::MAX;

/// Push one host-bound hop per set port.
fn push_host_hops(ports: &PortBitmap, out: &mut Vec<(u16, u8)>) {
    for port in ports.iter_ones() {
        out.push((port as u16, HOST_STRIPPED));
    }
}

/// Push one hop per set bit of a flat word slice (a [`MatchPlan`] rule),
/// ascending — the same port order `PortBitmap::iter_ones` yields, so the
/// compiled and uncompiled lookups emit byte-identical copy sequences.
fn push_word_hops(words: &[u64], state: u8, out: &mut Vec<(u16, u8)>) {
    for (wi, &word) in words.iter().enumerate() {
        let mut w = word;
        while w != 0 {
            let b = w.trailing_zeros() as usize;
            w &= w - 1;
            out.push(((wi * 64 + b) as u16, state));
        }
    }
}

/// The compiled form of a switch's group table: the s-rule lookup the
/// replay hot path actually executes. Instead of probing the hash map per
/// downstream copy, the table is flattened at install/patch time into a
/// sorted dense key index (binary-searched, no hashing of any kind per
/// copy) over a flat port-bitmap word arena. The plan carries the
/// [`Stamp`] of the `table_version` it was compiled from; the hot path
/// compares the stamps (per packet in `NetworkSwitch::process`, once per
/// switch per replay in the batched engine — `check_plan_stale`) and counts a mismatch
/// as `fabric.replay.plan_stale_detected`, so any mutation path that
/// forgets to recompile is visible in release metrics and trips a debug
/// assert under `cargo test` instead of silently serving stale rules.
#[derive(Clone, Debug, Default)]
struct MatchPlan {
    /// `NetworkSwitch::table_version` at compile time.
    version: Stamp,
    /// Sorted outer group addresses (big-endian `u32` form).
    keys: Vec<u32>,
    /// Parallel to `keys`: word offset of each rule in `words`.
    offs: Vec<u32>,
    /// Parallel to `keys`: word count of each rule.
    lens: Vec<u16>,
    /// Flat port-bitmap arena (low port in bit 0 of a rule's first word).
    words: Vec<u64>,
}

impl MatchPlan {
    /// Recompile from the authoritative hash table.
    fn rebuild(&mut self, table: &GroupTable, version: Stamp) {
        self.keys.clear();
        self.offs.clear();
        self.lens.clear();
        self.words.clear();
        let mut entries: Vec<(u32, &PortBitmap)> =
            table.iter().map(|(ip, bm)| (u32::from(*ip), bm)).collect();
        entries.sort_unstable_by_key(|e| e.0);
        for (key, bm) in entries {
            self.keys.push(key);
            self.offs.push(self.words.len() as u32);
            let base = self.words.len();
            let nwords = bm.width().div_ceil(64);
            self.words.resize(base + nwords, 0);
            for p in bm.iter_ones() {
                self.words[base + p / 64] |= 1u64 << (p % 64);
            }
            self.lens.push(nwords as u16);
        }
        self.version = version;
        metrics().plan_rebuilds.inc();
    }

    /// The compiled rule for an outer group address, as a word slice.
    fn lookup(&self, group: Ipv4Addr) -> Option<&[u64]> {
        let i = self.keys.binary_search(&u32::from(group)).ok()?;
        let off = self.offs[i] as usize;
        Some(&self.words[off..off + self.lens[i] as usize])
    }
}

/// Error returned when the group table is full.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GroupTableFull;

impl std::fmt::Display for GroupTableFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "group table at capacity")
    }
}

impl std::error::Error for GroupTableFull {}

/// A leaf, spine, or core switch.
#[derive(Clone, Debug)]
pub struct NetworkSwitch {
    id: SwitchRef,
    pub(crate) topo: Clos,
    config: SwitchConfig,
    /// s-rules: outer multicast group address -> output ports (downstream
    /// ports only, like downstream p-rule bitmaps). Authoritative state;
    /// the control plane and the static verifier read this.
    group_table: GroupTable,
    /// Compiled form of `group_table`, consulted by the replay hot path.
    plan: MatchPlan,
    /// Bumped on every `group_table` mutation; `plan.version` must match.
    table_version: Stamp,
    /// Counters.
    pub stats: SwitchStats,
    /// Header sections popped by this switch (D2d egress).
    pops: u64,
}

impl NetworkSwitch {
    /// Build a leaf switch.
    pub fn new_leaf(topo: Clos, id: LeafId, config: SwitchConfig) -> Self {
        NetworkSwitch {
            id: SwitchRef::Leaf(id),
            topo,
            config,
            group_table: GroupTable::default(),
            plan: MatchPlan::default(),
            table_version: Stamp::ZERO,
            stats: SwitchStats::default(),
            pops: 0,
        }
    }

    /// Build a spine switch.
    pub fn new_spine(topo: Clos, id: SpineId, config: SwitchConfig) -> Self {
        NetworkSwitch {
            id: SwitchRef::Spine(id),
            topo,
            config,
            group_table: GroupTable::default(),
            plan: MatchPlan::default(),
            table_version: Stamp::ZERO,
            stats: SwitchStats::default(),
            pops: 0,
        }
    }

    /// Build a core switch.
    pub fn new_core(topo: Clos, id: CoreId, config: SwitchConfig) -> Self {
        NetworkSwitch {
            id: SwitchRef::Core(id),
            topo,
            config,
            group_table: GroupTable::default(),
            plan: MatchPlan::default(),
            table_version: Stamp::ZERO,
            stats: SwitchStats::default(),
            pops: 0,
        }
    }

    /// This switch's identity.
    pub fn id(&self) -> SwitchRef {
        self.id
    }

    /// Install an s-rule; fails when the group table is at capacity
    /// (`Fmax`). Overwriting an existing entry for the same group is allowed.
    pub fn install_srule(
        &mut self,
        group: Ipv4Addr,
        ports: PortBitmap,
    ) -> Result<(), GroupTableFull> {
        if !self.group_table.contains_key(&group)
            && self.group_table.len() >= self.config.group_table_capacity
        {
            return Err(GroupTableFull);
        }
        self.group_table.insert(group, ports);
        self.table_version.bump();
        self.plan.rebuild(&self.group_table, self.table_version);
        Ok(())
    }

    /// Remove an s-rule; returns whether one existed.
    pub fn remove_srule(&mut self, group: &Ipv4Addr) -> bool {
        let removed = self.group_table.remove(group).is_some();
        if removed {
            self.table_version.bump();
            self.plan.rebuild(&self.group_table, self.table_version);
        }
        removed
    }

    /// Flip the lowest port bit of the *compiled* rule for `group`, leaving
    /// the authoritative hash table (and the plan's version stamp) intact;
    /// returns whether a compiled rule existed. This models the exact
    /// failure the compiled-plan design risks — plan content silently
    /// diverging from installed state — so tests can prove `elmo-verify`'s
    /// differential replay catches it. Test-only by contract.
    #[doc(hidden)]
    pub fn corrupt_plan_for_test(&mut self, group: Ipv4Addr) -> bool {
        if let Ok(i) = self.plan.keys.binary_search(&u32::from(group)) {
            if self.plan.lens[i] > 0 {
                self.plan.words[self.plan.offs[i] as usize] ^= 1;
                return true;
            }
        }
        false
    }

    /// Number of installed s-rules.
    pub fn srule_count(&self) -> usize {
        self.group_table.len()
    }

    /// Look up the installed s-rule for an outer group address, if any.
    pub fn srule(&self, group: &Ipv4Addr) -> Option<&PortBitmap> {
        self.group_table.get(group)
    }

    /// Iterate over every installed s-rule. Table order is hash order
    /// (deterministic under [`elmo_core::sig::SigHasher`] but not sorted);
    /// collect and sort when a canonical order matters.
    pub fn srules(&self) -> impl Iterator<Item = (&Ipv4Addr, &PortBitmap)> {
        self.group_table.iter()
    }

    /// The switch's static configuration (parser and table limits).
    pub fn config(&self) -> &SwitchConfig {
        &self.config
    }

    /// Remaining group-table capacity.
    pub fn srule_capacity_left(&self) -> usize {
        self.config.group_table_capacity - self.group_table.len()
    }

    /// Process one packet arriving on `ingress_port`; returns the copies to
    /// emit as `(output port, packet bytes)` pairs.
    ///
    /// The byte-level convenience form of the forwarding path: parse once,
    /// forward through [`process_hops_hv`](Self::process_hops_hv), and
    /// materialize every output copy. The fabric never calls this — it
    /// replays parsed batches through [`crate::shard`] — but it is the
    /// direct way to drive one switch in isolation.
    pub fn process(
        &mut self,
        ingress_port: usize,
        bytes: &[u8],
        layout: &HeaderLayout,
    ) -> Vec<(usize, Vec<u8>)> {
        let pkt = match FlightPacket::parse(bytes, layout) {
            Ok(p) => p,
            Err(_) => {
                self.note_parse_drop();
                return Vec::new();
            }
        };
        self.check_plan_stale();
        let mut c = SwitchCounters::default();
        let mut hops = Vec::new();
        self.process_hops_hv(
            ingress_port,
            &pkt,
            pkt.header_vector_len(layout),
            &mut c,
            &mut hops,
        );
        self.commit(&c);
        hops.into_iter()
            .map(|(port, state)| (port as usize, pkt.copy_at(state).to_bytes(layout)))
            .collect()
    }

    // ----- zero-copy forwarding path -----------------------------------------

    /// Forward one parsed packet arriving on `ingress_port`, appending
    /// `(output port, hop state)` pairs in ascending port order, where the
    /// state is the copy's new [`elmo_core::pop`] depth or
    /// [`HOST_STRIPPED`]. Every copy of an injected packet shares the same
    /// header and payload, so the depth byte is the *only* per-copy state
    /// and the replay queues can be flat arrays with zero `Arc` traffic
    /// per hop. The caller supplies the packet's header-vector length
    /// (the batched replay engine precomputes it per pop depth once at
    /// parse time, [`crate::packet::FlightBatch`]), so the inner loop
    /// skips the per-copy header walk this check otherwise costs.
    ///
    /// The switch is only read, so replay workers forward through one
    /// shared fabric at once, each into its own counter records. Nothing
    /// reaches the switch or the process-wide metric mirrors until the
    /// caller hands `c` to [`absorb`](Self::absorb) and mirrors it; the
    /// caller also owes a [`check_plan_stale`](Self::check_plan_stale)
    /// call before a replay.
    pub(crate) fn process_hops_hv(
        &self,
        ingress_port: usize,
        pkt: &FlightPacket,
        header_vector_len: usize,
        c: &mut SwitchCounters,
        out: &mut Vec<(u16, u8)>,
    ) {
        if header_vector_len > self.config.header_vector_limit {
            c.stats.drop_header_vector();
            return;
        }
        if !ipv4::is_multicast(pkt.group_ip) {
            self.unicast_hops(pkt, c, out);
            return;
        }
        match self.id {
            SwitchRef::Leaf(l) => self.leaf_hops(l, ingress_port, pkt, c, out),
            SwitchRef::Spine(s) => self.spine_hops(s, ingress_port, pkt, c, out),
            SwitchRef::Core(_) => self.core_hops(pkt, c, out),
        }
    }

    /// Verify the compiled plan's stamp matches the group table's — a
    /// mismatch means a mutation path forgot to recompile. Fires in
    /// release builds too: the stale plan is still served (dropping the
    /// packet would turn a bookkeeping bug into packet loss) but the
    /// divergence is counted as `fabric.replay.plan_stale_detected` so
    /// operators and the verify harness see it; debug builds trip
    /// immediately. [`process`](Self::process) checks per packet; the
    /// replay engine checks every switch once per replay on the calling
    /// thread, which covers every copy of the replay since the fabric is
    /// borrowed immutably while the workers run.
    #[inline]
    pub fn check_plan_stale(&self) {
        if self.plan.version != self.table_version {
            self.note_stale_plan();
        }
    }

    /// Cold half of [`check_plan_stale`](Self::check_plan_stale), out of
    /// line so the hot path pays only the one-word stamp compare.
    #[cold]
    #[inline(never)]
    fn note_stale_plan(&self) {
        metrics().plan_stale_detected.inc();
        debug_assert_eq!(
            self.plan.version, self.table_version,
            "stale MatchPlan at {:?}: group table mutated without recompiling",
            self.id
        );
    }

    /// Which rule source a *downstream* copy of `pkt` resolves to at this
    /// switch, mirroring [`process_hops_hv`](Self::process_hops_hv)' match order
    /// exactly — own-id p-rule, then the installed group table, then the
    /// header's default p-rule — with no counters or side effects. Core
    /// switches report their core p-rule. This is the offline attribution
    /// probe behind `elmo-eval trace`: the hot path records only the tree
    /// edges, and match sources are recomputed here against the same
    /// installed state the replay used.
    pub fn classify_downstream(&self, pkt: &FlightPacket) -> MatchSource {
        match self.id {
            SwitchRef::Leaf(l) => {
                if pkt.find_d_leaf(l.0).is_some() {
                    MatchSource::PRule
                } else if self.plan.lookup(pkt.group_ip).is_some() {
                    MatchSource::SRule
                } else if pkt.d_leaf_default().is_some() {
                    MatchSource::DefaultPRule
                } else {
                    MatchSource::NoRule
                }
            }
            SwitchRef::Spine(s) => {
                let pod = self.topo.pod_of_spine(s);
                if pkt.find_d_spine(pod.0).is_some() {
                    MatchSource::PRule
                } else if self.plan.lookup(pkt.group_ip).is_some() {
                    MatchSource::SRule
                } else if pkt.d_spine_default().is_some() {
                    MatchSource::DefaultPRule
                } else {
                    MatchSource::NoRule
                }
            }
            SwitchRef::Core(_) => {
                if pkt.core_pods().is_some() {
                    MatchSource::PRule
                } else {
                    MatchSource::NoRule
                }
            }
        }
    }

    /// Count a parse drop against this switch. Used by the fabric, which
    /// parses injected wire bytes once on behalf of the ingress leaf; the
    /// drop must still land on the leaf's counters like it did when the
    /// leaf parsed every packet itself.
    pub(crate) fn note_parse_drop(&mut self) {
        let mut c = SwitchCounters::default();
        c.stats.drop_parse();
        self.commit(&c);
    }

    /// Header sections this switch has popped (D2d egress).
    pub fn header_pops(&self) -> u64 {
        self.pops
    }

    /// Add a forwarding pass's counts to this switch. The process-wide
    /// mirrors are left to the caller, which may sum many records first.
    pub(crate) fn absorb(&mut self, c: &SwitchCounters) {
        self.stats.absorb(&c.stats);
        self.pops += c.pops;
    }

    /// [`absorb`](Self::absorb) plus the process-wide mirrors: how every
    /// single-switch entry point finishes.
    pub(crate) fn commit(&mut self, c: &SwitchCounters) {
        self.absorb(c);
        c.mirror();
    }

    fn leaf_hops(
        &self,
        leaf: LeafId,
        ingress_port: usize,
        pkt: &FlightPacket,
        c: &mut SwitchCounters,
        out: &mut Vec<(u16, u8)>,
    ) {
        let from_host = ingress_port < self.topo.leaf_down_ports();
        if pkt.elmo.is_none() {
            c.stats.drop_parse();
            return;
        }
        if from_host {
            // Upstream direction: the u-leaf p-rule drives everything.
            let Some(rule) = pkt.u_leaf() else {
                c.stats.drop_no_rule();
                return;
            };
            c.stats.hit_prule();
            // Copies to co-located receivers: Elmo header fully stripped.
            push_host_hops(&rule.down, out);
            // Copy upward, with the u-leaf rule popped (a depth bump — the
            // shared header itself is untouched).
            if rule.goes_up() {
                c.pops += 1;
                if rule.multipath {
                    let spine =
                        (pkt.ecmp_hash(leaf.0 as u64) % self.topo.leaf_up_ports() as u64) as usize;
                    out.push((self.topo.leaf_up_port(spine) as u16, pop::U_LEAF));
                } else {
                    for spine in rule.up.iter_ones() {
                        out.push((self.topo.leaf_up_port(spine) as u16, pop::U_LEAF));
                    }
                }
            }
            return;
        }

        // Downstream direction: match own identifier among d-leaf p-rules,
        // then the compiled group table, then the default p-rule.
        if let Some(rule) = pkt.find_d_leaf(leaf.0) {
            c.stats.hit_prule();
            push_host_hops(&rule.bitmap, out);
        } else if let Some(words) = self.plan.lookup(pkt.group_ip) {
            c.stats.hit_srule();
            push_word_hops(words, HOST_STRIPPED, out);
        } else if let Some(bm) = pkt.d_leaf_default() {
            c.stats.hit_default();
            push_host_hops(bm, out);
        } else {
            c.stats.drop_no_rule();
        }
    }

    fn spine_hops(
        &self,
        spine: SpineId,
        ingress_port: usize,
        pkt: &FlightPacket,
        c: &mut SwitchCounters,
        out: &mut Vec<(u16, u8)>,
    ) {
        let from_leaf = ingress_port < self.topo.spine_down_ports();
        if pkt.elmo.is_none() {
            c.stats.drop_parse();
            return;
        }
        if from_leaf {
            // Upstream: the u-spine p-rule.
            let Some(rule) = pkt.u_spine() else {
                c.stats.drop_no_rule();
                return;
            };
            c.stats.hit_prule();
            // Copies down to local member leaves: next hop is a leaf, so pop
            // everything except the d-leaf section (depth jumps straight to
            // D_SPINE; sections already popped upstream are no-ops).
            if !rule.down.is_empty() {
                c.pops += 3;
                for port in rule.down.iter_ones() {
                    out.push((port as u16, pop::D_SPINE));
                }
            }
            // Copy upward to the core, u-spine popped.
            if rule.goes_up() {
                c.pops += 1;
                if rule.multipath {
                    let core = (pkt.ecmp_hash(0x51de ^ spine.0 as u64)
                        % self.topo.spine_up_ports() as u64)
                        as usize;
                    out.push((self.topo.spine_up_port(core) as u16, pop::U_SPINE));
                } else {
                    for core in rule.up.iter_ones() {
                        out.push((self.topo.spine_up_port(core) as u16, pop::U_SPINE));
                    }
                }
            }
            return;
        }

        // Downstream: match own pod among d-spine p-rules, then the
        // compiled group table, then the default p-rule. Either way the
        // next hop is a leaf, so the spine section is popped.
        let pod = self.topo.pod_of_spine(spine);
        if let Some(rule) = pkt.find_d_spine(pod.0) {
            c.stats.hit_prule();
            c.pops += 1;
            for port in rule.bitmap.iter_ones() {
                out.push((port as u16, pop::D_SPINE));
            }
        } else if let Some(words) = self.plan.lookup(pkt.group_ip) {
            c.stats.hit_srule();
            c.pops += 1;
            push_word_hops(words, pop::D_SPINE, out);
        } else if let Some(bm) = pkt.d_spine_default() {
            c.stats.hit_default();
            c.pops += 1;
            for port in bm.iter_ones() {
                out.push((port as u16, pop::D_SPINE));
            }
        } else {
            c.stats.drop_no_rule();
        }
    }

    fn core_hops(&self, pkt: &FlightPacket, c: &mut SwitchCounters, out: &mut Vec<(u16, u8)>) {
        if pkt.elmo.is_none() {
            c.stats.drop_parse();
            return;
        }
        let Some(pods) = pkt.core_pods() else {
            c.stats.drop_no_rule();
            return;
        };
        c.stats.hit_prule();
        c.pops += 1;
        for pod in pods.iter_ones() {
            out.push((pod as u16, pop::CORE));
        }
    }

    /// Plain underlay unicast: route on the destination
    /// host address; the packet itself is forwarded unmodified (its pop
    /// depth — and `None` Elmo header — carry through).
    fn unicast_hops(&self, pkt: &FlightPacket, c: &mut SwitchCounters, out: &mut Vec<(u16, u8)>) {
        let Some(dst_host) = crate::hypervisor::host_of_ip(pkt.group_ip) else {
            c.stats.drop_parse();
            return;
        };
        if dst_host.0 as usize >= self.topo.num_hosts() {
            c.stats.drop_parse();
            return;
        }
        let dst_leaf = self.topo.leaf_of_host(dst_host);
        let dst_pod = self.topo.pod_of_leaf(dst_leaf);
        let port = match self.id {
            SwitchRef::Leaf(l) => {
                if dst_leaf == l {
                    self.topo.host_port_on_leaf(dst_host)
                } else {
                    let spine =
                        (pkt.ecmp_hash(l.0 as u64) % self.topo.leaf_up_ports() as u64) as usize;
                    self.topo.leaf_up_port(spine)
                }
            }
            SwitchRef::Spine(s) => {
                if self.topo.pod_of_spine(s) == dst_pod {
                    self.topo.leaf_index_in_pod(dst_leaf)
                } else {
                    let core =
                        (pkt.ecmp_hash(s.0 as u64) % self.topo.spine_up_ports() as u64) as usize;
                    self.topo.spine_up_port(core)
                }
            }
            SwitchRef::Core(_) => dst_pod.0 as usize,
        };
        c.stats.hit_unicast();
        out.push((port as u16, pkt.popped));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::ElmoPacketRepr;
    use elmo_core::{ElmoHeader, UpstreamRule};
    use elmo_net::ethernet::MacAddr;
    use elmo_net::vxlan::Vni;
    use elmo_topology::HostId;

    fn setup() -> (Clos, HeaderLayout) {
        let topo = Clos::paper_example();
        let layout = HeaderLayout::for_clos(&topo);
        (topo, layout)
    }

    fn base_repr(header: Option<ElmoHeader>) -> ElmoPacketRepr {
        ElmoPacketRepr {
            src_mac: MacAddr::for_host(0),
            dst_mac: MacAddr::from_ipv4_multicast(Ipv4Addr::new(239, 0, 0, 1)),
            src_ip: Ipv4Addr::new(10, 0, 0, 1),
            group_ip: Ipv4Addr::new(239, 0, 0, 1),
            flow_entropy: 7,
            vni: Vni(1),
            elmo: header,
        }
    }

    fn packet(repr: &ElmoPacketRepr, layout: &HeaderLayout) -> Vec<u8> {
        let mut buf = Vec::new();
        repr.emit(layout, b"inner", &mut buf);
        buf
    }

    #[test]
    fn leaf_upstream_delivers_local_and_multipaths_up() {
        let (topo, layout) = setup();
        let mut header = ElmoHeader::empty();
        header.u_leaf = Some(UpstreamRule {
            down: PortBitmap::from_ports(layout.leaf_down_ports, [1, 3]),
            multipath: true,
            up: PortBitmap::new(layout.leaf_up_ports),
        });
        header.core = Some(PortBitmap::from_ports(layout.core_ports, [2]));
        let repr = base_repr(Some(header));
        let mut leaf = NetworkSwitch::new_leaf(topo, LeafId(0), SwitchConfig::default());
        let out = leaf.process(0, &packet(&repr, &layout), &layout);
        // Two host copies + one upstream copy.
        assert_eq!(out.len(), 3);
        let host_ports: Vec<usize> = out.iter().map(|(p, _)| *p).filter(|&p| p < 8).collect();
        assert_eq!(host_ports, vec![1, 3]);
        let up: Vec<usize> = out.iter().map(|(p, _)| *p).filter(|&p| p >= 8).collect();
        assert_eq!(up.len(), 1);
        // Host copies have no Elmo header; the upstream copy kept the core
        // rule but dropped u-leaf.
        for (p, bytes) in &out {
            let (parsed, _) = ElmoPacketRepr::parse(bytes, &layout).unwrap();
            if *p < 8 {
                assert!(parsed.elmo.is_none());
            } else {
                let h = parsed.elmo.unwrap();
                assert!(h.u_leaf.is_none());
                assert!(h.core.is_some());
            }
        }
        assert_eq!(leaf.stats.prule_hits, 1);
    }

    #[test]
    fn leaf_upstream_explicit_ports_fan_out() {
        let (topo, layout) = setup();
        let mut header = ElmoHeader::empty();
        header.u_leaf = Some(UpstreamRule {
            down: PortBitmap::new(layout.leaf_down_ports),
            multipath: false,
            up: PortBitmap::from_ports(layout.leaf_up_ports, [0, 1]),
        });
        let repr = base_repr(Some(header));
        let mut leaf = NetworkSwitch::new_leaf(topo, LeafId(0), SwitchConfig::default());
        let out = leaf.process(0, &packet(&repr, &layout), &layout);
        let ports: Vec<usize> = out.iter().map(|(p, _)| *p).collect();
        assert_eq!(ports, vec![8, 9]); // both spine uplinks
    }

    #[test]
    fn leaf_downstream_prefers_p_rule_over_srule_and_default() {
        let (topo, layout) = setup();
        let mut header = ElmoHeader::empty();
        header.d_leaf = vec![elmo_core::DownstreamRule {
            bitmap: PortBitmap::from_ports(layout.leaf_down_ports, [2]),
            switches: vec![0],
        }];
        header.d_leaf_default = Some(PortBitmap::from_ports(layout.leaf_down_ports, [5]));
        let repr = base_repr(Some(header));
        let mut leaf = NetworkSwitch::new_leaf(topo, LeafId(0), SwitchConfig::default());
        leaf.install_srule(repr.group_ip, PortBitmap::from_ports(8, [7]))
            .unwrap();
        let out = leaf.process(8, &packet(&repr, &layout), &layout); // from spine
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 2); // the p-rule port, not 7 (s-rule) or 5 (default)
        assert_eq!(leaf.stats.prule_hits, 1);
        assert_eq!(leaf.stats.srule_hits, 0);
    }

    #[test]
    fn leaf_downstream_falls_to_srule_then_default() {
        let (topo, layout) = setup();
        let mut header = ElmoHeader::empty();
        header.d_leaf = vec![elmo_core::DownstreamRule {
            bitmap: PortBitmap::from_ports(layout.leaf_down_ports, [2]),
            switches: vec![3], // some other leaf
        }];
        header.d_leaf_default = Some(PortBitmap::from_ports(layout.leaf_down_ports, [5]));
        let repr = base_repr(Some(header.clone()));
        let mut leaf = NetworkSwitch::new_leaf(topo, LeafId(0), SwitchConfig::default());
        leaf.install_srule(repr.group_ip, PortBitmap::from_ports(8, [7]))
            .unwrap();
        let out = leaf.process(8, &packet(&repr, &layout), &layout);
        assert_eq!(out[0].0, 7, "s-rule match");
        assert_eq!(leaf.stats.srule_hits, 1);
        // Without the s-rule, the default applies.
        leaf.remove_srule(&repr.group_ip);
        let out = leaf.process(8, &packet(&repr, &layout), &layout);
        assert_eq!(out[0].0, 5, "default p-rule");
        assert_eq!(leaf.stats.default_hits, 1);
    }

    #[test]
    fn leaf_downstream_no_rule_drops() {
        let (topo, layout) = setup();
        let header = ElmoHeader::empty();
        let repr = base_repr(Some(header));
        let mut leaf = NetworkSwitch::new_leaf(topo, LeafId(0), SwitchConfig::default());
        let out = leaf.process(8, &packet(&repr, &layout), &layout);
        assert!(out.is_empty());
        assert_eq!(leaf.stats.dropped_no_rule, 1);
    }

    #[test]
    fn spine_upstream_splits_down_and_up() {
        let (topo, layout) = setup();
        let mut header = ElmoHeader::empty();
        header.u_spine = Some(UpstreamRule {
            down: PortBitmap::from_ports(layout.spine_down_ports, [1]),
            multipath: true,
            up: PortBitmap::new(layout.spine_up_ports),
        });
        header.core = Some(PortBitmap::from_ports(layout.core_ports, [3]));
        header.d_spine = vec![elmo_core::DownstreamRule {
            bitmap: PortBitmap::from_ports(layout.spine_down_ports, [0]),
            switches: vec![3],
        }];
        header.d_leaf = vec![elmo_core::DownstreamRule {
            bitmap: PortBitmap::from_ports(layout.leaf_down_ports, [0]),
            switches: vec![1],
        }];
        let repr = base_repr(Some(header));
        let mut spine = NetworkSwitch::new_spine(topo, SpineId(0), SwitchConfig::default());
        let out = spine.process(0, &packet(&repr, &layout), &layout); // from leaf 0
        assert_eq!(out.len(), 2);
        // Down copy to local leaf port 1: only the d-leaf section survives.
        let (down_port, down_bytes) = out.iter().find(|(p, _)| *p < 2).expect("down copy");
        assert_eq!(*down_port, 1);
        let (parsed, _) = ElmoPacketRepr::parse(down_bytes, &layout).unwrap();
        let h = parsed.elmo.unwrap();
        assert!(h.u_spine.is_none() && h.core.is_none() && h.d_spine.is_empty());
        assert_eq!(h.d_leaf.len(), 1);
        // Up copy keeps core + downstream sections.
        let (_, up_bytes) = out.iter().find(|(p, _)| *p >= 2).expect("up copy");
        let (parsed, _) = ElmoPacketRepr::parse(up_bytes, &layout).unwrap();
        let h = parsed.elmo.unwrap();
        assert!(h.u_spine.is_none());
        assert!(h.core.is_some());
        assert_eq!(h.d_spine.len(), 1);
    }

    #[test]
    fn spine_downstream_matches_pod_and_pops_section() {
        let (topo, layout) = setup();
        let mut header = ElmoHeader::empty();
        header.d_spine = vec![elmo_core::DownstreamRule {
            bitmap: PortBitmap::from_ports(layout.spine_down_ports, [0, 1]),
            switches: vec![1], // pod 1
        }];
        header.d_leaf = vec![elmo_core::DownstreamRule {
            bitmap: PortBitmap::from_ports(layout.leaf_down_ports, [4]),
            switches: vec![2],
        }];
        let repr = base_repr(Some(header));
        // S2 is in pod 1; ingress from a core is port >= 2.
        let mut spine = NetworkSwitch::new_spine(topo, SpineId(2), SwitchConfig::default());
        let out = spine.process(2, &packet(&repr, &layout), &layout);
        assert_eq!(out.len(), 2);
        for (_, bytes) in &out {
            let (parsed, _) = ElmoPacketRepr::parse(bytes, &layout).unwrap();
            let h = parsed.elmo.unwrap();
            assert!(h.d_spine.is_empty(), "spine section popped before leaves");
            assert_eq!(h.d_leaf.len(), 1);
        }
        assert_eq!(spine.stats.prule_hits, 1);
    }

    #[test]
    fn core_fans_out_to_pods() {
        let (topo, layout) = setup();
        let mut header = ElmoHeader::empty();
        header.core = Some(PortBitmap::from_ports(layout.core_ports, [1, 3]));
        header.d_spine = vec![elmo_core::DownstreamRule {
            bitmap: PortBitmap::from_ports(layout.spine_down_ports, [0]),
            switches: vec![1],
        }];
        let repr = base_repr(Some(header));
        let mut core = NetworkSwitch::new_core(topo, CoreId(0), SwitchConfig::default());
        let out = core.process(0, &packet(&repr, &layout), &layout);
        let ports: Vec<usize> = out.iter().map(|(p, _)| *p).collect();
        assert_eq!(ports, vec![1, 3]);
        for (_, bytes) in &out {
            let (parsed, _) = ElmoPacketRepr::parse(bytes, &layout).unwrap();
            let h = parsed.elmo.unwrap();
            assert!(h.core.is_none(), "core rule popped");
            assert_eq!(h.d_spine.len(), 1);
        }
    }

    #[test]
    fn header_vector_limit_drops_oversized_headers() {
        let (topo, layout) = setup();
        let mut header = ElmoHeader::empty();
        // Many d-leaf rules to blow a tiny header-vector limit.
        header.d_leaf = (0..6)
            .map(|i| elmo_core::DownstreamRule {
                bitmap: PortBitmap::from_ports(layout.leaf_down_ports, [0]),
                switches: vec![i],
            })
            .collect();
        let repr = base_repr(Some(header));
        let config = SwitchConfig {
            header_vector_limit: 60,
            group_table_capacity: 10,
        };
        let mut leaf = NetworkSwitch::new_leaf(topo, LeafId(0), config);
        let out = leaf.process(8, &packet(&repr, &layout), &layout);
        assert!(out.is_empty());
        assert_eq!(leaf.stats.dropped_header_vector, 1);
    }

    #[test]
    fn group_table_capacity_enforced() {
        let (topo, _) = setup();
        let config = SwitchConfig {
            header_vector_limit: 512,
            group_table_capacity: 2,
        };
        let mut leaf = NetworkSwitch::new_leaf(topo, LeafId(0), config);
        let bm = PortBitmap::from_ports(8, [0]);
        leaf.install_srule(Ipv4Addr::new(239, 0, 0, 1), bm.clone())
            .unwrap();
        leaf.install_srule(Ipv4Addr::new(239, 0, 0, 2), bm.clone())
            .unwrap();
        assert_eq!(
            leaf.install_srule(Ipv4Addr::new(239, 0, 0, 3), bm.clone()),
            Err(GroupTableFull)
        );
        // Overwrite of an existing group is fine at capacity.
        assert!(leaf.install_srule(Ipv4Addr::new(239, 0, 0, 1), bm).is_ok());
        assert_eq!(leaf.srule_count(), 2);
        assert_eq!(leaf.srule_capacity_left(), 0);
    }

    #[test]
    fn unicast_routing_by_layer() {
        let (topo, layout) = setup();
        // Destination host 42 lives on leaf 5 (pod 2), host port 2.
        let dst = crate::hypervisor::host_ip(HostId(42));
        let mut repr = base_repr(None);
        repr.group_ip = dst;
        let bytes = packet(&repr, &layout);
        // Leaf 5 delivers straight to the host port.
        let mut leaf5 = NetworkSwitch::new_leaf(topo, LeafId(5), SwitchConfig::default());
        let out = leaf5.process(8, &bytes, &layout);
        assert_eq!(out[0].0, 2);
        // Leaf 0 sends it up to some spine.
        let mut leaf0 = NetworkSwitch::new_leaf(topo, LeafId(0), SwitchConfig::default());
        let out = leaf0.process(0, &bytes, &layout);
        assert!(out[0].0 >= 8);
        // A pod-2 spine sends it down to leaf index 1 (= L5).
        let mut spine4 = NetworkSwitch::new_spine(topo, SpineId(4), SwitchConfig::default());
        let out = spine4.process(2, &bytes, &layout);
        assert_eq!(out[0].0, 1);
        // A core sends it to pod port 2.
        let mut core = NetworkSwitch::new_core(topo, CoreId(0), SwitchConfig::default());
        let out = core.process(0, &bytes, &layout);
        assert_eq!(out[0].0, 2);
    }

    #[test]
    fn garbage_packet_counts_parse_drop() {
        let (topo, layout) = setup();
        let mut leaf = NetworkSwitch::new_leaf(topo, LeafId(0), SwitchConfig::default());
        let out = leaf.process(0, &[0u8; 10], &layout);
        assert!(out.is_empty());
        assert_eq!(leaf.stats.dropped_parse, 1);
    }

    #[test]
    fn stale_plan_is_detected() {
        let (topo, _) = setup();
        let mut leaf = NetworkSwitch::new_leaf(topo, LeafId(0), SwitchConfig::default());
        leaf.install_srule(Ipv4Addr::new(239, 0, 0, 1), PortBitmap::from_ports(8, [1]))
            .unwrap();
        leaf.check_plan_stale(); // stamps aligned: silent

        // Seed the bug the guard exists for: mutate the table and bump its
        // stamp without recompiling the plan.
        leaf.group_table.remove(&Ipv4Addr::new(239, 0, 0, 1));
        leaf.table_version.bump();

        if cfg!(debug_assertions) {
            // Debug builds trip immediately.
            let r =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| leaf.check_plan_stale()));
            assert!(r.is_err(), "stale plan must trip the debug assert");
        } else {
            // Release builds keep serving but must count the divergence.
            let before = elmo_obs::snapshot()
                .counter("fabric.replay.plan_stale_detected")
                .unwrap_or(0);
            leaf.check_plan_stale();
            let after = elmo_obs::snapshot()
                .counter("fabric.replay.plan_stale_detected")
                .unwrap_or(0);
            assert_eq!(after, before + 1, "stale plan must be counted in release");
        }
    }
}
