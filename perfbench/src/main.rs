//! End-to-end benchmark of Elmo's two paths.
//!
//! Data path: a tenant send (`HypervisorSwitch::send`), parse, the sharded
//! fabric replay engine, `DeliveryBatch` materialization, and
//! `HypervisorSwitch::receive` at every receiving host. Control path: a
//! `Controller::join`/`leave`, a fresh header and flow on every sender
//! hypervisor the update names, the changed host's subscription, and the
//! group's s-rules removed and re-installed on the switches (match-plan
//! compile included), so that the new state is live.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload dataplane_wve --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones from a traced run (about half of the batches and events are traced,
//! so the untraced half gives the tracing overhead). `--inject-fault` is the
//! negative control: it removes one group's s-rules before every batch,
//! which must make the delivery oracle fail packets. The last stdout line
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`.

#![forbid(unsafe_code)]

mod stats;
mod trace;
mod world;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use elmo_controller::GroupId;
use elmo_core::SplitMix64;
use elmo_obs::JsonValue;
use elmo_topology::HostId;
use elmo_workloads::{churn_bursts, ChurnEvent};

use stats::{median_f64, quantile, ratio};
use trace::{Layer, Tracer, EVENT_CAUSE};
use world::{DpScratch, SetupTimes, Shape, World};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Membership events per second of `--seconds` that `dataplane_wve`
/// applies between its rounds of packets. Each is undone after its
/// round's probe, so the run applies twice as many: at 20 s, eighty
/// samples beyond the 99th percentile.
const CTL_PASS_EVENTS_PER_SEC: usize = 200;
/// Rounds of each phase of a run; in `churn_wve` each ends with a probe
/// pass over every group, 500 batches in all.
const CHUNKS: usize = 16;
/// A run stops early, and fails, once it takes this many times `--seconds`.
const DEADLINE_FACTOR: u64 = 4;
/// Events per `mixed_large` round, and the packets of each changed group
/// at the head of the round's batch: the events' own check.
const EVENTS_PER_ROUND: usize = 3;
const CHANGED_GROUP_PKTS: usize = 2;
/// Upper bound on logged spans (aggregates cover every span).
const SPAN_LOG_CAP: usize = 100_000;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    DataplaneWve,
    ChurnWve,
    MixedLarge,
}

/// One workload: its group population and traffic shape.
struct Spec {
    name: &'static str,
    kind: Kind,
    shape: Shape,
    frame_bytes: usize,
    batch: usize,
    /// Units of the main phase per second of `--seconds`: batches for
    /// `dataplane_wve`, events for `churn_wve`, rounds (events, then a
    /// batch) for `mixed_large`. Sized so a run takes about `--seconds` on
    /// two cores; fixed work keeps every input and count a function of the
    /// seed.
    units_per_sec: usize,
}

const SPECS: [Spec; 3] = [
    Spec {
        name: "dataplane_wve",
        kind: Kind::DataplaneWve,
        shape: Shape {
            groups: 2_000,
            min_group_size: None,
        },
        frame_bytes: 64,
        batch: 1024,
        units_per_sec: 33,
    },
    Spec {
        name: "churn_wve",
        kind: Kind::ChurnWve,
        shape: Shape {
            groups: 2_000,
            min_group_size: None,
        },
        frame_bytes: 64,
        batch: 64,
        units_per_sec: 1_000,
    },
    Spec {
        name: "mixed_large",
        kind: Kind::MixedLarge,
        shape: Shape {
            groups: 200,
            min_group_size: Some(600),
        },
        frame_bytes: 1_500,
        batch: 32,
        units_per_sec: 90,
    },
];

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
    inject_fault: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("elmo-perfbench: {msg}");
    eprintln!(
        "usage: elmo-perfbench --workload <dataplane_wve|churn_wve|mixed_large> --seed <n> \
         --seconds <n> --trace <0|1> [--inject-fault]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut inject_fault = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--inject-fault" {
            inject_fault = true;
            continue;
        }
        let Some(val) = it.next() else {
            usage(&format!("{flag} needs a value"));
        };
        let num = || -> u64 {
            val.parse()
                .unwrap_or_else(|_| usage(&format!("{flag}: not a whole number: {val}")))
        };
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(num()),
            "--seconds" => seconds = Some(num()),
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let spec = SPECS
        .iter()
        .find(|s| s.name == workload)
        .unwrap_or_else(|| usage(&format!("unknown workload {workload}")));
    let seconds = seconds.unwrap_or_else(|| usage("--seconds is required"));
    if seconds == 0 {
        usage("--seconds must be at least 1");
    }
    Args {
        spec,
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds,
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        inject_fault,
    }
}

/// Timings and counts of one run. Timing samples are split by whether
/// their unit was traced; end-to-end metrics use only untraced units.
#[derive(Default)]
struct Samples {
    batch_ns: Vec<u64>,
    batch_pkts: u64,
    traced_batch_ns: Vec<u64>,
    traced_pkts: u64,
    event_ns: Vec<u64>,
    traced_event_ns: Vec<u64>,
    events: u64,
    headers: u64,
    traced_headers: u64,
    header_bytes: u64,
    srule_ops: u64,
    /// Link traffic of the timed batches, traced or not.
    link_bytes: u64,
    link_copies: u64,
    attempted_pkts: u64,
    failed_pkts: u64,
    failed_events: u64,
}

struct Bench {
    w: World,
    dp: DpScratch,
    tr: Tracer,
    s: Samples,
    trace: bool,
    batches: u32,
    fault: Option<GroupId>,
    failed: Vec<bool>,
}

impl Bench {
    /// Trace about half of the timed batches and of the events in a traced
    /// run. The choice is a mixing hash of the unit's index, so it is
    /// independent from one unit to the next and lines up with no period in
    /// the workload (such as probe passes, or an event and its follow-up on
    /// the same group).
    fn begin_unit(&mut self, index: u64, timed: bool) -> bool {
        let traced = self.trace && timed && SplitMix64::new(index).next_u64() >> 63 == 1;
        self.tr.set_on(traced);
        traced
    }

    /// Send and check one batch; `timed` batches count toward the
    /// data-path metrics. Returns the per-packet failure flags.
    fn batch(&mut self, pkts: &[(u32, HostId)], timed: bool) -> &[bool] {
        if let Some(g) = self.fault {
            self.w.remove_group_srules(g);
        }
        let id = self.batches;
        self.batches = self.batches.wrapping_add(1);
        let before = self.w.fabric.stats;
        let traced = self.begin_unit(u64::from(id), timed);
        let ns = self.w.send_batch(pkts, id, &mut self.dp, &mut self.tr);
        self.tr.set_on(false);
        let after = self.w.fabric.stats;
        let n = pkts.len() as u64;
        if timed {
            if traced {
                self.s.traced_batch_ns.push(ns);
                self.s.traced_pkts += n;
            } else {
                self.s.batch_ns.push(ns);
                self.s.batch_pkts += n;
            }
            self.s.link_bytes += after.total_link_bytes() - before.total_link_bytes();
            self.s.link_copies += after.packets_on_links - before.packets_on_links;
        }
        self.w.check_batch(pkts, id, &self.dp, &mut self.failed);
        self.s.attempted_pkts += n;
        self.s.failed_pkts += self.failed.iter().filter(|&&f| f).count() as u64;
        &self.failed
    }

    fn event(&mut self, e: &ChurnEvent) {
        let traced = self.begin_unit(self.s.events, true);
        let cause = EVENT_CAUSE | (self.s.events as u32 & !EVENT_CAUSE);
        let cost = self.w.apply_event(e, &mut self.tr, cause);
        self.tr.set_on(false);
        if traced {
            self.s.traced_event_ns.push(cost.ns);
            self.s.traced_headers += cost.headers;
        } else {
            self.s.event_ns.push(cost.ns);
        }
        self.s.events += 1;
        self.s.headers += cost.headers;
        self.s.header_bytes += cost.header_bytes;
        self.s.srule_ops += cost.srule_ops;
    }

    /// A uniformly random group that has a sender, then a uniformly random
    /// sender of it.
    fn pick(&self, rng: &mut SplitMix64) -> (u32, HostId) {
        loop {
            let g = rng.index(self.w.senders.len());
            let senders = &self.w.senders[g];
            if !senders.is_empty() {
                return (g as u32, senders[rng.index(senders.len())]);
            }
        }
    }

    /// Apply `events`, then send one packet to every group with a
    /// sender, from a seeded sender. Every event on a group whose packet
    /// fails counts as failed: the probe cannot tell which one broke it.
    /// Returns the events that undo `events`, in the order to apply them.
    fn events_then_probe(
        &mut self,
        events: &[ChurnEvent],
        rng: &mut SplitMix64,
        batch: usize,
        timed: bool,
    ) -> Vec<ChurnEvent> {
        let mut per_group: BTreeMap<u32, u64> = BTreeMap::new();
        let mut undo = Vec::with_capacity(events.len());
        for e in events {
            undo.push(self.w.inverse(e));
            self.event(e);
            *per_group.entry(e.group).or_default() += 1;
        }
        undo.reverse();
        let pkts: Vec<(u32, HostId)> = (0..self.w.senders.len())
            .filter_map(|g| {
                let s = &self.w.senders[g];
                (!s.is_empty()).then(|| (g as u32, s[rng.index(s.len())]))
            })
            .collect();
        for chunk in pkts.chunks(batch) {
            let failed = self.batch(chunk, timed);
            let bad: Vec<u32> = chunk
                .iter()
                .zip(failed)
                .filter(|(_, &f)| f)
                .map(|(&(g, _), _)| g)
                .collect();
            for g in bad {
                self.s.failed_events += per_group.remove(&g).unwrap_or(0);
            }
        }
        undo
    }
}

fn churn_stream(w: &World, n: usize, seed: u64) -> Vec<ChurnEvent> {
    churn_bursts(&w.workload, n, seed, 1_000)
        .flatten()
        .collect()
}

/// Whether the safety deadline has passed; says so once when it has.
fn overdue(start: Instant, limit: Duration) -> bool {
    let late = start.elapsed() >= limit;
    if late {
        eprintln!("error: stopped early at the safety deadline of {limit:?}; the run fails");
    }
    late
}

/// Run the workload's fixed amount of work: `spec.units_per_sec` units
/// of its main phase per second asked for. Phases that interleave two
/// kinds of work do so in `CHUNKS` rounds, so that the samples of each
/// spread over the phase and a stall of the shared machine moves few of
/// them. Returns false when the safety deadline cut the run short, which
/// fails it: its counts are no longer those of the seed.
fn run_workload(d: &mut Bench, spec: &Spec, seed: u64, seconds: u64) -> bool {
    let units = spec.units_per_sec * seconds as usize;
    let limit = Duration::from_secs(seconds * DEADLINE_FACTOR);
    let start = Instant::now();
    let mut rng = SplitMix64::new(seed ^ 0xd7a7_a9a7);
    let stream_seed = seed ^ 0xc4;
    let mut pkts: Vec<(u32, HostId)> = Vec::with_capacity(spec.batch);
    match spec.kind {
        Kind::DataplaneWve => {
            // Every batch meets the set-up population. Between rounds of
            // batches the controller applies a burst of membership events
            // drawn afresh from the set-up population, and then undoes it,
            // newest first; an untimed probe checks each half. That way the
            // control samples spread over the whole run like the packets,
            // and each burst starts from the same state, so that no seed's
            // trajectory drifts the event mix.
            let n = CTL_PASS_EVENTS_PER_SEC * seconds as usize;
            for round in 0..CHUNKS {
                for _ in 0..share(units, round) {
                    if overdue(start, limit) {
                        return false;
                    }
                    pkts.clear();
                    for _ in 0..spec.batch {
                        pkts.push(d.pick(&mut rng));
                    }
                    d.batch(&pkts, true);
                }
                let seed = SplitMix64::new(stream_seed ^ round as u64).next_u64();
                let burst = churn_stream(&d.w, share(n, round), seed);
                let undo = d.events_then_probe(&burst, &mut rng, spec.batch, false);
                d.events_then_probe(&undo, &mut rng, spec.batch, false);
            }
        }
        Kind::ChurnWve => {
            // Probe passes between the rounds of churn check the churned
            // state; they are the workload's (small) data-path sample.
            let events = churn_stream(&d.w, units, stream_seed);
            let mut at = 0;
            for round in 0..CHUNKS {
                if overdue(start, limit) {
                    return false;
                }
                let n = share(units, round);
                d.events_then_probe(&events[at..at + n], &mut rng, spec.batch, true);
                at += n;
            }
        }
        Kind::MixedLarge => {
            let events = churn_stream(&d.w, units * EVENTS_PER_ROUND, stream_seed);
            for round in events.chunks(EVENTS_PER_ROUND) {
                if overdue(start, limit) {
                    return false;
                }
                // The changed groups' next packets check the events; the
                // rest of the batch reads other groups beside them.
                pkts.clear();
                for e in round {
                    d.event(e);
                }
                for e in round {
                    let senders = &d.w.senders[e.group as usize];
                    if !senders.is_empty() {
                        for _ in 0..CHANGED_GROUP_PKTS {
                            pkts.push((e.group, senders[rng.index(senders.len())]));
                        }
                    }
                }
                let probes = pkts.len();
                while pkts.len() < spec.batch {
                    pkts.push(d.pick(&mut rng));
                }
                let failed = d.batch(&pkts, true);
                let probed = || pkts[..probes].iter().zip(failed);
                let bad = round
                    .iter()
                    .filter(|e| probed().any(|(p, &f)| f && p.0 == e.group))
                    .count();
                d.s.failed_events += bad as u64;
            }
        }
    }
    true
}

/// Round `round`'s share of `total` units.
fn share(total: usize, round: usize) -> usize {
    total * (round + 1) / CHUNKS - total * round / CHUNKS
}

/// `(name, value, unit)` rows as the JSON `metrics` object.
fn metrics_object(rows: &[(&str, f64, &str)]) -> BTreeMap<String, JsonValue> {
    rows.iter()
        .map(|&(name, value, unit)| {
            let mut o = BTreeMap::new();
            o.insert("value".to_string(), JsonValue::F64(value));
            o.insert("unit".to_string(), JsonValue::String(unit.to_string()));
            (name.to_string(), JsonValue::Object(o))
        })
        .collect()
}

fn print_metrics(title: &str, m: &BTreeMap<String, JsonValue>) {
    println!("{title}");
    for (name, v) in m {
        let o = v.as_object().expect("metric objects");
        println!(
            "  {name:<30} {:>16.4} {}",
            o["value"].as_f64().unwrap_or(f64::NAN),
            o["unit"].as_str().unwrap_or("")
        );
    }
}

/// The end-to-end metrics from untraced units.
fn end_to_end(d: &Bench, setups: &[SetupTimes]) -> BTreeMap<String, JsonValue> {
    let s = &d.s;
    let mut batch_ns = s.batch_ns.clone();
    let mut event_ns = s.event_ns.clone();
    let setup: Vec<f64> = setups.iter().map(SetupTimes::total_s).collect();
    // Closed-loop rates: the untraced units' work over their summed time.
    // On a shared host the time of a unit shifts between levels for
    // seconds at a time. A median unit jumps from one level to the other
    // when their shares cross one half; the sum moves in proportion.
    let rate = |units: u64, ns: &[u64]| ratio(units as f64 * 1e9, ns.iter().sum::<u64>() as f64);
    let pkts = (s.batch_pkts + s.traced_pkts) as f64;
    #[rustfmt::skip]
    let rows = [
        ("setup_s", median_f64(&setup), "s"),
        ("dp_pkts_per_s", rate(s.batch_pkts, &s.batch_ns), "pkts/s"),
        ("dp_batch_p95_us", quantile(&mut batch_ns, 0.95) as f64 / 1e3, "us"),
        ("ctl_updates_per_s", rate(s.event_ns.len() as u64, &s.event_ns), "events/s"),
        ("ctl_update_p50_us", quantile(&mut event_ns, 0.50) as f64 / 1e3, "us"),
        ("ctl_update_p99_us", quantile(&mut event_ns, 0.99) as f64 / 1e3, "us"),
        ("dp_link_bytes_per_pkt", ratio(s.link_bytes as f64, pkts), "B"),
        ("fabric_srules", d.w.srule_total() as f64, "entries"),
        ("peak_rss_mb", stats::peak_rss_mb(), "MB"),
    ];
    metrics_object(&rows)
}

/// Counter snapshots taken before the measured phase.
struct Before {
    sw: elmo_dataplane::SwitchStats,
    hv: elmo_dataplane::HypervisorStats,
    churn: elmo_controller::ChurnStats,
}

/// The per-layer metrics from traced units and the public stats structs.
fn per_layer(d: &Bench, setups: &[SetupTimes], before: &Before) -> BTreeMap<String, JsonValue> {
    let s = &d.s;
    let tr = &d.tr;
    let med = |f: fn(&SetupTimes) -> f64| median_f64(&setups.iter().map(f).collect::<Vec<_>>());
    let per_call = |l: Layer| {
        let a = tr.agg(l);
        ratio(a.self_ns as f64, a.calls as f64)
    };
    let per_pkt = |l: Layer| ratio(tr.agg(l).self_ns as f64, s.traced_pkts as f64);

    let churn = d.w.ctl.churn_stats();
    let hits = churn.delta_hits - before.churn.delta_hits;
    let full = churn.full_reencodes - before.churn.full_reencodes;
    let escalations = churn.structural_escalations - before.churn.structural_escalations;
    let events = s.events as f64;

    let sw = d.w.switch_totals();
    let b = &before.sw;
    let p = sw.prule_hits - b.prule_hits;
    let non_p = (sw.srule_hits - b.srule_hits) + (sw.default_hits - b.default_hits);
    let drops = |t: &elmo_dataplane::SwitchStats| {
        t.dropped_no_rule + t.dropped_parse + t.dropped_header_vector
    };
    let hv = d.w.hv_totals();
    let discarded = hv.discarded - before.hv.discarded;
    let delivered = hv.delivered - before.hv.delivered;

    let wall: u64 = s.traced_batch_ns.iter().chain(&s.traced_event_ns).sum();
    let covered = tr.self_ns(&Layer::ALL);
    // Tracing overhead: time per unit of work (packet, or installed
    // header, which sets most of an event's cost) in the traced half over
    // the untraced half, less one. Per unit, so that the halves' different
    // event mixes do not pass for overhead.
    let overhead = |traced: &[u64], traced_work: u64, plain: &[u64], plain_work: u64| {
        let per_unit = |ns: &[u64], work: u64| ratio(ns.iter().sum::<u64>() as f64, work as f64);
        let plain = per_unit(plain, plain_work);
        if plain > 0.0 {
            per_unit(traced, traced_work) / plain - 1.0
        } else {
            0.0
        }
    };
    let pkts = (s.batch_pkts + s.traced_pkts) as f64;

    #[rustfmt::skip]
    let rows = [
        ("workloads.generate_ms", med(|t| t.generate_s) * 1e3, "ms"),
        ("controller.create_batch_ms", med(|t| t.create_s) * 1e3, "ms"),
        ("controller.install_ms", med(|t| t.install_s) * 1e3, "ms"),
        ("controller.event_us", per_call(Layer::Event) / 1e3, "us"),
        ("controller.delta_hit_ratio", ratio(hits as f64, (hits + full) as f64), "ratio"),
        ("controller.full_reencodes", full as f64, "count"),
        ("controller.escalations", escalations as f64, "count"),
        ("controller.header_for_us", per_call(Layer::HeaderFor) / 1e3, "us"),
        ("controller.headers_per_event", ratio(s.headers as f64, events), "count"),
        ("hypervisor.flow_install_us", per_call(Layer::FlowInstall) / 1e3, "us"),
        ("hypervisor.header_bytes_mean", ratio(s.header_bytes as f64, s.headers as f64), "B"),
        ("hypervisor.subscription_us", per_call(Layer::Subscription) / 1e3, "us"),
        ("netswitch.srule_sync_us", per_call(Layer::SruleSync) / 1e3, "us"),
        ("netswitch.srules_per_event", ratio(s.srule_ops as f64, events), "count"),
        ("hypervisor.encap_ns", per_call(Layer::Encap), "ns"),
        ("packet.parse_ns", per_call(Layer::Parse), "ns"),
        ("fabric.replay_ns", per_pkt(Layer::Replay), "ns"),
        ("fabric.link_copies_per_pkt", ratio(s.link_copies as f64, pkts), "count"),
        ("netswitch.non_prule_share", ratio(non_p as f64, (p + non_p) as f64), "ratio"),
        ("netswitch.drops", (drops(&sw) - drops(b)) as f64, "count"),
        ("shard.materialize_ns", per_pkt(Layer::Materialize), "ns"),
        ("hypervisor.decap_ns", per_call(Layer::Decap), "ns"),
        ("hypervisor.discard_ratio", ratio(discarded as f64, (discarded + delivered) as f64), "ratio"),
        ("bench.unattributed_share", ratio(wall.saturating_sub(covered) as f64, wall as f64), "ratio"),
        ("bench.trace_overhead_dp", overhead(&s.traced_batch_ns, s.traced_pkts, &s.batch_ns, s.batch_pkts), "ratio"),
        ("bench.trace_overhead_ctl", overhead(&s.traced_event_ns, s.traced_headers, &s.event_ns, s.headers - s.traced_headers), "ratio"),
    ];
    metrics_object(&rows)
}

fn print_layer_table(d: &Bench) {
    let wall: u64 = d.s.traced_batch_ns.iter().chain(&d.s.traced_event_ns).sum();
    println!(
        "layer self time ({} spans over {:.1} ms of traced units)",
        d.tr.spans(),
        wall as f64 / 1e6
    );
    for l in Layer::ALL {
        let a = d.tr.agg(l);
        println!(
            "  {:<42} calls {:>10}  self {:>10.2} ms  share {:>6.2}%",
            l.name(),
            a.calls,
            a.self_ns as f64 / 1e6,
            100.0 * ratio(a.self_ns as f64, wall as f64)
        );
    }
}

fn main() {
    let args = parse_args();
    let spec = args.spec;
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    // `create_groups_batch` gets the core count: its workers claim work
    // and are joined, and never wait on each other.
    let workers = cpus;
    // The replay engine's shard workers spin while they wait on each
    // other, so each needs a core to itself: one core is left to the rest
    // of the machine. With a worker on every core of a two-core VM, a
    // replay call stalled about 10 ms whenever the host was slow to run
    // the second core, which cut churn_wve's packet rate sixfold between
    // two sets of runs of the same code.
    let replay_workers = cpus.saturating_sub(1).max(1);

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut world = None;
    for _ in 0..SETUP_REPS {
        drop(world.take());
        let (w, t) = world::build(spec.shape, workers, replay_workers);
        setups.push(t);
        world = Some(w);
    }
    let w = world.expect("at least one set-up");

    let fault = args.inject_fault.then(|| {
        let candidates = w.groups_with_srules();
        assert!(!candidates.is_empty(), "no group holds an s-rule to remove");
        let mut rng = SplitMix64::new(args.seed ^ 0xfa17);
        let g = candidates[rng.index(candidates.len())];
        eprintln!("negative control: removing the s-rules of group {g} before every batch");
        GroupId(u64::from(g))
    });
    let before = Before {
        sw: w.switch_totals(),
        hv: w.hv_totals(),
        churn: w.ctl.churn_stats(),
    };
    let mut d = Bench {
        dp: DpScratch::new(spec.batch, spec.frame_bytes),
        tr: Tracer::new(if args.trace { SPAN_LOG_CAP } else { 0 }),
        s: Samples::default(),
        trace: args.trace,
        batches: 0,
        fault,
        failed: Vec::new(),
        w,
    };
    let run_start = Instant::now();
    let complete = run_workload(&mut d, spec, args.seed, args.seconds);
    let run_s = run_start.elapsed().as_secs_f64();

    let s = &d.s;
    let attempted = s.attempted_pkts + s.events;
    let failed = s.failed_pkts + s.failed_events;
    let fail_ratio = ratio(failed as f64, attempted as f64);
    let e2e = end_to_end(&d, &setups);
    println!(
        "workload {} seed {} ({} s run on {} cpus: {} create workers, {} replay workers)",
        spec.name, args.seed, run_s, cpus, workers, replay_workers
    );
    println!(
        "  set-ups (generate + create + install, s): {}",
        setups
            .iter()
            .map(|t| format!("{:.3}+{:.3}+{:.3}", t.generate_s, t.create_s, t.install_s))
            .collect::<Vec<_>>()
            .join("  ")
    );
    print_metrics(
        if args.trace {
            "end-to-end (untraced half of a traced run; not comparable to --trace 0)"
        } else {
            "end-to-end"
        },
        &e2e,
    );
    println!("  {:<30} {:>16.6} ratio", "fail_ratio", fail_ratio);
    println!(
        "  samples: {} untraced batches ({} pkts), {} untraced events; \
         failed {} of {} packets, {} of {} events",
        s.batch_ns.len(),
        s.batch_pkts,
        s.event_ns.len(),
        s.failed_pkts,
        s.attempted_pkts,
        s.failed_events,
        s.events
    );

    let metrics = if args.trace {
        let layers = per_layer(&d, &setups, &before);
        print_layer_table(&d);
        print_metrics("per-layer", &layers);
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/spans-{}-seed{}.csv",
            spec.name, args.seed
        ));
        match d.tr.write_csv(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
        layers
    } else {
        e2e
    };

    let mut meta = BTreeMap::new();
    let mut put = |k: &str, v: JsonValue| {
        meta.insert(k.to_string(), v);
    };
    put("workload", JsonValue::String(spec.name.into()));
    put("seed", JsonValue::U64(args.seed));
    put("revision", JsonValue::String(stats::revision()));
    put("cpus_available", JsonValue::U64(cpus as u64));
    put("workers", JsonValue::U64(workers as u64));
    put("replay_workers", JsonValue::U64(replay_workers as u64));
    put("setup_reps", JsonValue::U64(SETUP_REPS as u64));
    put(
        "batches",
        JsonValue::U64((s.batch_ns.len() + s.traced_batch_ns.len()) as u64),
    );
    put("events", JsonValue::U64(s.events));
    put("traced", JsonValue::Bool(args.trace));
    put("fault_injected", JsonValue::Bool(args.inject_fault));
    put("fail_ratio", JsonValue::F64(fail_ratio));
    put("complete", JsonValue::Bool(complete));
    println!("meta {}", JsonValue::Object(meta).to_string_compact());

    let mut result = BTreeMap::new();
    result.insert(
        "correct".to_string(),
        JsonValue::Bool(complete && failed == 0),
    );
    result.insert("attempted".to_string(), JsonValue::U64(attempted));
    result.insert("failed".to_string(), JsonValue::U64(failed));
    result.insert("metrics".to_string(), JsonValue::Object(metrics));
    println!("{}", JsonValue::Object(result).to_string_compact());
}
