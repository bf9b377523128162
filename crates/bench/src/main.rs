//! `elmo-bench` — std-only benchmark harness (no criterion; the workspace
//! builds fully offline).
//!
//! ```text
//! cargo run --release -p elmo-bench [-- flags]
//!
//! flags:
//!   --groups N        workload size (default: scaled to the fabric, capped at 20,000)
//!   --threads LIST    comma-separated thread counts (default 1,2,8)
//!   --r LIST          redundancy limits per sweep (default 0,6,12)
//!   --out PATH        output file (default BENCH_encode.json)
//!   --replay-packets N    packets for the data-plane replay bench (default 20,000)
//!   --replay-payload N    inner-frame bytes per replay packet (default 1,500)
//!   --replay-threads LIST worker counts for the replay engine axis
//!                         (default 1,2,4,8; counts above the core count
//!                         are skipped and recorded, 0 = all cores)
//!   --replay-out PATH     replay output file (default BENCH_dataplane.json)
//!   --replay-only     skip the encode sweep; run only the replay bench
//!   --replay-allow-oversubscribed  time replay shard counts above the core
//!                         count anyway; their rows are recorded with
//!                         "oversubscribed": true instead of being skipped
//!   --expect-deliveries N exit nonzero if the replay delivered-copy count differs
//!   --expect-pkts-per-sec N exit nonzero if any worker count's warm engine
//!                         throughput falls below N packets/s (generous CI floor)
//!   --churn-events N      join/leave events per churn scenario (default 20,000)
//!   --churn-out PATH      churn output file (default BENCH_churn.json)
//!   --churn-only      run only the churn bench
//!   --expect-churn-hit-rate N exit nonzero if any scenario's delta hit rate
//!                         falls below N percent (the deterministic CI gate;
//!                         timing numbers are reported, never asserted)
//!   --metrics-out P   also write the full elmo-obs metrics snapshot to P
//!   -v / --quiet      debug / warn-only logging on stderr
//!   --log-json        JSONL structured events on stderr
//! ```
//!
//! Times the Figure 4/5 encode sweep (`elmo_sim::sweep::run`) at each thread
//! count and the MIN-K-UNION clustering kernel, then writes the results as
//! JSON. Thread counts above the machine's core count cannot speed anything
//! up, so oversubscribed counts are skipped outright (recorded under
//! `skipped_thread_counts`) and every executed run carries `cpus_available`
//! and `oversubscribed: false` — the scaling rows never mix in scheduler
//! contention. The sweep results themselves are asserted identical across
//! thread counts before timings are reported.
//!
//! The replay bench drives a fixed-seed packet workload through the
//! paper-example [`Fabric`] two ways — the per-hop re-serializing
//! [`reference`] oracle, and the packet-parallel replay engine at each
//! `--replay-threads` worker count — asserting identical delivery and
//! link counts before reporting packets/s and copies/s, cold (first 10%,
//! scratch buffers still growing) vs warm.
//!
//! The churn bench replays the same seeded join/leave stream through a
//! delta-on and a delta-off controller on the bench fabric, verifying the
//! delta controller's installed state after every burst and asserting the
//! two controllers finish bit-identical before any throughput is reported.
//! The headline figure is the per-event split: the mean cost of an event
//! the delta path absorbed vs the mean full re-encode in the baseline run
//! (the end-to-end ops/s ratio is Amdahl-capped by the hit rate and is
//! reported alongside).
#![forbid(unsafe_code)]

use std::net::Ipv4Addr;
use std::time::Instant;

use elmo_controller::{Controller, ControllerConfig, GroupId, MemberRole};
use elmo_core::{approx_min_k_union_with, MinKUnionScratch, PortBitmap, SplitMix64};
use elmo_dataplane::{
    reference, DeliveryBatch, Fabric, FlightPacket, HypervisorSwitch, SenderFlow, SwitchConfig,
};
use elmo_net::vxlan::Vni;
use elmo_sim::{sweep, SweepConfig};
use elmo_topology::{Clos, HostId, LeafId, PodId};
use elmo_workloads::{GroupSizeDist, WorkloadConfig};

struct Args {
    groups: Option<usize>,
    threads: Vec<usize>,
    r_values: Vec<usize>,
    out: String,
    replay_packets: usize,
    replay_payload: usize,
    replay_threads: Vec<usize>,
    replay_out: String,
    replay_only: bool,
    replay_allow_oversubscribed: bool,
    expect_deliveries: Option<u64>,
    expect_pkts_per_sec: Option<u64>,
    churn_events: usize,
    churn_out: String,
    churn_only: bool,
    expect_churn_hit_rate: Option<u64>,
    metrics_out: Option<String>,
}

fn parse_args() -> Args {
    let mut out = Args {
        groups: None,
        threads: vec![1, 2, 8],
        r_values: vec![0, 6, 12],
        out: "BENCH_encode.json".into(),
        replay_packets: 20_000,
        // The paper's traffic figures use 1,500-byte payloads; the replay
        // paths diverge most where payload bytes dominate the wire copy.
        replay_payload: 1_500,
        replay_threads: vec![1, 2, 4, 8],
        replay_out: "BENCH_dataplane.json".into(),
        replay_only: false,
        replay_allow_oversubscribed: false,
        expect_deliveries: None,
        expect_pkts_per_sec: None,
        churn_events: 20_000,
        churn_out: "BENCH_churn.json".into(),
        churn_only: false,
        expect_churn_hit_rate: None,
        metrics_out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut num_list = |flag: &str| -> Vec<usize> {
            args.next()
                .and_then(|v| {
                    v.split(',')
                        .map(|s| s.trim().parse().ok())
                        .collect::<Option<Vec<usize>>>()
                })
                .unwrap_or_else(|| {
                    elmo_obs::error!(
                        "usage",
                        msg = format!("{flag} needs a comma-separated number list")
                    );
                    std::process::exit(2);
                })
        };
        match a.as_str() {
            "--groups" => out.groups = num_list("--groups").first().copied(),
            "--threads" => out.threads = num_list("--threads"),
            "--r" => out.r_values = num_list("--r"),
            "--out" => {
                out.out = args.next().unwrap_or_else(|| {
                    elmo_obs::error!("usage", msg = "--out needs a path");
                    std::process::exit(2);
                })
            }
            "--replay-packets" => {
                out.replay_packets = num_list("--replay-packets").first().copied().unwrap_or(0);
                if out.replay_packets == 0 {
                    elmo_obs::error!("usage", msg = "--replay-packets needs a positive count");
                    std::process::exit(2);
                }
            }
            "--replay-payload" => {
                out.replay_payload = num_list("--replay-payload").first().copied().unwrap_or(0);
            }
            "--replay-threads" => {
                out.replay_threads = num_list("--replay-threads");
                if out.replay_threads.is_empty() {
                    elmo_obs::error!("usage", msg = "--replay-threads needs at least one count");
                    std::process::exit(2);
                }
            }
            "--replay-out" => {
                out.replay_out = args.next().unwrap_or_else(|| {
                    elmo_obs::error!("usage", msg = "--replay-out needs a path");
                    std::process::exit(2);
                })
            }
            "--replay-only" => out.replay_only = true,
            "--replay-allow-oversubscribed" => out.replay_allow_oversubscribed = true,
            "--expect-pkts-per-sec" => {
                out.expect_pkts_per_sec = Some(
                    num_list("--expect-pkts-per-sec")
                        .first()
                        .copied()
                        .unwrap_or(0) as u64,
                )
            }
            "--churn-events" => {
                out.churn_events = num_list("--churn-events").first().copied().unwrap_or(0);
                if out.churn_events == 0 {
                    elmo_obs::error!("usage", msg = "--churn-events needs a positive count");
                    std::process::exit(2);
                }
            }
            "--churn-out" => {
                out.churn_out = args.next().unwrap_or_else(|| {
                    elmo_obs::error!("usage", msg = "--churn-out needs a path");
                    std::process::exit(2);
                })
            }
            "--churn-only" => out.churn_only = true,
            "--expect-churn-hit-rate" => {
                out.expect_churn_hit_rate = Some(
                    num_list("--expect-churn-hit-rate")
                        .first()
                        .copied()
                        .unwrap_or(0) as u64,
                )
            }
            "--expect-deliveries" => {
                out.expect_deliveries = Some(
                    num_list("--expect-deliveries")
                        .first()
                        .copied()
                        .unwrap_or(0) as u64,
                )
            }
            "--metrics-out" => {
                out.metrics_out = Some(args.next().unwrap_or_else(|| {
                    elmo_obs::error!("usage", msg = "--metrics-out needs a path");
                    std::process::exit(2);
                }))
            }
            "-v" => elmo_obs::set_level(elmo_obs::Level::Debug),
            "-vv" => elmo_obs::set_level(elmo_obs::Level::Trace),
            "--quiet" | "-q" => elmo_obs::set_level(elmo_obs::Level::Warn),
            "--log-json" => elmo_obs::set_format(elmo_obs::Format::Jsonl),
            other => {
                elmo_obs::error!("usage", msg = format!("unknown argument {other}"));
                std::process::exit(2);
            }
        }
    }
    out
}

struct SweepRun {
    threads: usize,
    wall_ms: f64,
    groups_per_sec: f64,
}

fn bench_sweep(args: &Args) -> (Clos, WorkloadConfig, Vec<SweepRun>) {
    let topo = Clos::scaled_fabric(6, 24, 16); // 2,304 hosts
    let mut wl = WorkloadConfig::scaled(&topo, 12, GroupSizeDist::Wve);
    wl.total_groups = args.groups.unwrap_or(wl.total_groups.min(20_000));
    let mut cfg = SweepConfig::paper(topo, wl);
    cfg.r_values = args.r_values.clone();

    let mut runs = Vec::new();
    let mut reference = None;
    for &threads in &args.threads {
        cfg.threads = threads;
        let start = Instant::now();
        let result = sweep::run(&cfg);
        let secs = start.elapsed().as_secs_f64();
        // Encodes = groups x r-values; the Li baseline pass is shared
        // overhead and deliberately counted against every run equally.
        let encodes = (wl.total_groups * cfg.r_values.len()) as f64;
        elmo_obs::info!(
            "bench.sweep",
            threads = threads,
            wall_ms = secs * 1e3,
            groups_per_sec = encodes / secs
        );
        match &reference {
            None => reference = Some(result),
            Some(r) => assert_eq!(
                r.rows, result.rows,
                "parallel sweep diverged from reference at {threads} threads"
            ),
        }
        runs.push(SweepRun {
            threads,
            wall_ms: secs * 1e3,
            groups_per_sec: encodes / secs,
        });
    }
    (topo, wl, runs)
}

/// Time the clustering kernel on synthetic layer inputs shaped like a busy
/// spine layer: many wide bitmaps with clustered ports.
fn bench_min_k_union() -> (usize, f64, f64) {
    let mut rng = SplitMix64::new(0xB17);
    let width = 96;
    let sets: Vec<Vec<PortBitmap>> = (0..64)
        .map(|_| {
            let n = rng.range_inclusive(8, 48);
            (0..n)
                .map(|_| {
                    let ones = rng.range_inclusive(1, 12);
                    PortBitmap::from_ports(
                        width,
                        (0..ones).map(|_| rng.index(width)).collect::<Vec<_>>(),
                    )
                })
                .collect()
        })
        .collect();
    let mut scratch = MinKUnionScratch::default();
    // Warm up once so buffer growth is not on the clock.
    for set in &sets {
        let refs: Vec<&PortBitmap> = set.iter().collect();
        let _ = approx_min_k_union_with(refs.len().min(8), &refs, &mut scratch);
    }
    let iters = 200;
    let start = Instant::now();
    let mut sink = 0usize;
    for _ in 0..iters {
        for set in &sets {
            let refs: Vec<&PortBitmap> = set.iter().collect();
            let picked = approx_min_k_union_with(refs.len().min(8), &refs, &mut scratch);
            sink = sink.wrapping_add(picked.len());
        }
    }
    let secs = start.elapsed().as_secs_f64();
    let calls = (iters * sets.len()) as f64;
    std::hint::black_box(sink);
    elmo_obs::info!(
        "bench.min_k_union",
        calls = calls,
        wall_ms = secs * 1e3,
        calls_per_sec = calls / secs
    );
    (iters * sets.len(), secs * 1e3, calls / secs)
}

/// One timed replay path: cold = the first ~10% of packets on a fresh
/// fabric, warm = the remainder (fastest of the reps).
struct ReplayRow {
    cold_wall_ms: f64,
    warm_wall_ms: f64,
    cold_pkts_per_sec: f64,
    warm_pkts_per_sec: f64,
    warm_copies_per_sec: f64,
    /// Host-delivered copies over the full stream (cold + one warm pass).
    deliveries: u64,
    /// Wire copies (link hops) over the same full stream.
    copies_on_links: u64,
}

impl ReplayRow {
    fn json(&self) -> String {
        format!(
            "\"cold_wall_ms\": {}, \"warm_wall_ms\": {}, \"cold_pkts_per_sec\": {}, \"warm_pkts_per_sec\": {}, \"warm_copies_per_sec\": {}",
            json_f(self.cold_wall_ms),
            json_f(self.warm_wall_ms),
            json_f(self.cold_pkts_per_sec),
            json_f(self.warm_pkts_per_sec),
            json_f(self.warm_copies_per_sec),
        )
    }
}

/// Build the fixed replay workload: the paper-example fabric with three
/// groups installed (same-leaf, same-pod, cross-pod — the `--trace-pcap`
/// scenario plus one extra cross-pod member so a default p-rule appears),
/// and `n` pre-encapsulated wire packets round-robining over the groups.
/// Entropy advances deterministically per hypervisor, so the packet
/// sequence is identical on every invocation.
fn replay_workload(n: usize, payload: usize) -> (Fabric, Vec<(HostId, Vec<u8>)>) {
    let topo = Clos::paper_example();
    let mut ctl = Controller::new(topo, ControllerConfig::paper_default(12));
    let vni = Vni(7);
    let shapes: [&[u32]; 3] = [&[0, 1], &[0, 8, 13], &[0, 1, 42, 48, 49, 57]];
    let mut fabric = Fabric::new(topo, SwitchConfig::default());
    let mut senders: Vec<(HostId, HypervisorSwitch, Ipv4Addr)> = Vec::new();
    for (gi, members) in shapes.iter().enumerate() {
        let gid = GroupId(gi as u64 + 1);
        let tenant = Ipv4Addr::new(225, 9, 9, gi as u8 + 1);
        ctl.create_group(
            gid,
            vni,
            tenant,
            members.iter().map(|&h| (HostId(h), MemberRole::Both)),
        );
        let state = ctl.group(gid).expect("created group");
        for (leaf, bm) in &state.enc.d_leaf.s_rules {
            fabric
                .leaf_mut(LeafId(*leaf))
                .install_srule(state.outer_addr, bm.clone())
                .expect("leaf group table");
        }
        for (pod, bm) in &state.enc.d_spine.s_rules {
            fabric
                .install_pod_srule(PodId(*pod), state.outer_addr, bm.clone())
                .expect("spine group table");
        }
        let sender = HostId(members[0]);
        let header = ctl.header_for(gid, sender).expect("sender header");
        let mut hv = HypervisorSwitch::new(sender);
        hv.install_flow(
            vni,
            tenant,
            SenderFlow::new(state.outer_addr, vni, &header, ctl.layout(), vec![]),
        );
        senders.push((sender, hv, tenant));
    }
    let inner = vec![0xE1u8; payload];
    let mut pkts = Vec::with_capacity(n);
    for i in 0..n {
        let (sender, hv, tenant) = &mut senders[i % 3];
        for pkt in hv.send(vni, *tenant, &inner, ctl.layout()) {
            pkts.push((*sender, pkt));
        }
    }
    assert_eq!(pkts.len(), n, "every send produced exactly one wire packet");
    (fabric, pkts)
}

/// Time one replay path on a fresh copy of `template`: one cold pass over
/// packets `..cold_n`, then `reps` warm passes over `cold_n..n`, keeping
/// the fastest (min-of-reps is the noise-robust estimate on a shared
/// host). `pass` replays a packet range and returns its delivered-copy
/// count; each warm rep must deliver exactly what the first did.
fn time_replay(
    template: &Fabric,
    n: usize,
    cold_n: usize,
    reps: usize,
    what: &str,
    mut pass: impl FnMut(&mut Fabric, std::ops::Range<usize>) -> u64,
) -> ReplayRow {
    let mut fabric = template.clone();
    let start = Instant::now();
    let cold_delivered = pass(&mut fabric, 0..cold_n);
    let cold_secs = start.elapsed().as_secs_f64();
    let mut warm_secs = f64::INFINITY;
    let mut warm_delivered = 0;
    let mut copies_on_links = 0;
    for rep in 0..reps {
        let start = Instant::now();
        let delivered = pass(&mut fabric, cold_n..n);
        warm_secs = warm_secs.min(start.elapsed().as_secs_f64());
        if rep == 0 {
            warm_delivered = delivered;
            copies_on_links = fabric.stats.packets_on_links;
        } else {
            assert_eq!(delivered, warm_delivered, "{what}: replay not repeatable");
        }
    }
    let row = ReplayRow {
        cold_wall_ms: cold_secs * 1e3,
        warm_wall_ms: warm_secs * 1e3,
        cold_pkts_per_sec: cold_n as f64 / cold_secs,
        warm_pkts_per_sec: (n - cold_n) as f64 / warm_secs,
        warm_copies_per_sec: warm_delivered as f64 / warm_secs,
        deliveries: cold_delivered + warm_delivered,
        copies_on_links,
    };
    elmo_obs::info!(
        "bench.replay",
        mode = what,
        packets = n,
        cold_pkts_per_sec = row.cold_pkts_per_sec,
        warm_pkts_per_sec = row.warm_pkts_per_sec,
        warm_copies_per_sec = row.warm_copies_per_sec
    );
    row
}

/// The data-plane replay benchmark: the [`reference`] oracle (per-hop
/// parse and re-encode) against the packet-parallel engine at each
/// `--replay-threads` worker count, on the identical packet stream. Every
/// engine row's delivered and on-link copy counts are asserted equal to
/// the oracle's — a throughput number from a path that forwards
/// differently would be meaningless. Timed regions include full
/// materialization of every delivery, the same work the oracle is
/// charged for. Returns the oracle's row and one `(workers, row)` per
/// (non-oversubscribed) worker count.
fn bench_replay(args: &Args) -> (ReplayRow, Vec<(usize, ReplayRow)>) {
    const REFERENCE_REPS: usize = 5;
    // Engine passes are ~10× cheaper than the oracle's, so their min gets
    // more samples for the same wall budget.
    const ENGINE_REPS: usize = 15;
    let n = args.replay_packets;
    let (template, pkts) = replay_workload(n, args.replay_payload);
    // Pre-parse once: this is what a sender using `send_flight` hands the
    // fabric, so the parse is not on the engine's clock.
    let flights: Vec<(HostId, FlightPacket)> = pkts
        .iter()
        .map(|(h, p)| {
            (
                *h,
                FlightPacket::parse(p, template.layout()).expect("bench packet parses"),
            )
        })
        .collect();
    let cold_n = (n / 10).max(1).min(n);
    let reference = time_replay(&template, n, cold_n, REFERENCE_REPS, "reference", |f, r| {
        pkts[r]
            .iter()
            .map(|(h, p)| reference::inject(f, *h, p.clone()).deliveries.len() as u64)
            .sum()
    });
    let mut wire_bytes = 0u64;
    let engine = args
        .replay_threads
        .iter()
        .map(|&t| {
            let mut out = DeliveryBatch::new();
            // The batch is reused across reps: its arenas hand capacity
            // back to the workers, so the warm path is allocation-free —
            // the replay service's steady state.
            let what = format!("engine({t})");
            let row = time_replay(&template, n, cold_n, ENGINE_REPS, &what, |f, r| {
                f.replay_flights_sharded(&flights[r], t, &mut out);
                let mut delivered = 0u64;
                out.for_each(|_, b| {
                    delivered += 1;
                    wire_bytes += b.len() as u64;
                });
                delivered
            });
            assert_eq!(
                row.deliveries, reference.deliveries,
                "engine({t}) changed the delivered-copy count"
            );
            assert_eq!(
                row.copies_on_links, reference.copies_on_links,
                "engine({t}) changed the on-link copy count"
            );
            (t, row)
        })
        .collect();
    assert!(
        std::hint::black_box(wire_bytes) > 0,
        "engine rows materialized no wire bytes"
    );
    (reference, engine)
}

/// Time the static rule-state verifier end to end on a 1,000-group
/// workload of the bench fabric: controller compile, fabric install, full
/// `elmo_verify::check_state` walk (delivery, loops, budgets, replica
/// coherence), traffic cross-check, and a 50-group differential replay.
/// The report must come back clean — a wall-time number for a verifier
/// that found violations would not measure the steady-state cost.
fn bench_verify() -> (usize, f64, f64) {
    use elmo_sim::verify_exp::{self, VerifyExpConfig};
    let topo = Clos::scaled_fabric(6, 24, 16);
    let layout = elmo_core::HeaderLayout::for_clos(&topo);
    let mut wl = WorkloadConfig::scaled(&topo, 12, GroupSizeDist::Wve);
    wl.total_groups = 1_000;
    let cfg = VerifyExpConfig {
        r: 12,
        header_budget: layout.max_header_bytes(2, 30, 2),
        threads: 0,
        samples: 50,
        seed: 0xb_e4c4,
        replay_threads: 1,
    };
    let start = Instant::now();
    let run = verify_exp::run(topo, wl, &cfg);
    let secs = start.elapsed().as_secs_f64();
    assert!(
        run.report.ok(),
        "bench workload must verify clean: {:?}",
        run.report.counts_by_kind()
    );
    let rate = run.report.groups_checked as f64 / secs;
    elmo_obs::info!(
        "bench.verify",
        groups = run.report.groups_checked,
        wall_ms = secs * 1e3,
        groups_per_sec = rate
    );
    (run.report.groups_checked, secs * 1e3, rate)
}

fn json_f(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.2}")
    } else {
        "null".into()
    }
}

/// Per-phase wall-clock profile from the `span.*_ns` histograms the sweep
/// records while running. Each entry: calls, total ms, mean µs, p95 µs.
fn phase_entries(snap: &elmo_obs::Snapshot) -> Vec<String> {
    const PHASES: &[&str] = &[
        "span.sweep_row_ns",
        "span.sweep_phase1_ns",
        "span.sweep_fold_ns",
        "span.batch_optimistic_ns",
        "span.batch_admission_ns",
    ];
    let mut entries = Vec::new();
    for name in PHASES {
        let Some(h) = snap.histogram(name) else {
            continue;
        };
        if h.count == 0 {
            continue;
        }
        let phase = name.trim_start_matches("span.").trim_end_matches("_ns");
        entries.push(format!(
            "    {{\"phase\": \"{phase}\", \"calls\": {}, \"total_ms\": {}, \"mean_us\": {}, \"p95_us\": {}}}",
            h.count,
            json_f(h.sum as f64 / 1e6),
            json_f(h.mean() / 1e3),
            json_f(h.quantile(0.95) as f64 / 1e3),
        ));
    }
    entries
}

/// Run the encode sweep + MIN-K-UNION benches and write `args.out`.
fn run_encode_bench(args: &Args, cpus: usize, skipped: &[usize]) {
    let (topo, wl, runs) = bench_sweep(args);
    let (mku_calls, mku_ms, mku_rate) = bench_min_k_union();
    let (verify_groups, verify_ms, verify_rate) = bench_verify();

    let one_thread = runs.iter().find(|r| r.threads == 1).map(|r| r.wall_ms);
    let speedups: Vec<String> = runs
        .iter()
        .map(|r| {
            let s = one_thread.map_or(f64::NAN, |t1| t1 / r.wall_ms);
            format!(
                "    {{\"threads\": {}, \"cpus_available\": {cpus}, \"oversubscribed\": false, \"wall_ms\": {}, \"groups_per_sec\": {}, \"speedup_vs_1\": {}}}",
                r.threads,
                json_f(r.wall_ms),
                json_f(r.groups_per_sec),
                json_f(s)
            )
        })
        .collect();
    let r_list: Vec<String> = args.r_values.iter().map(|r| r.to_string()).collect();
    let skipped_list: Vec<String> = skipped.iter().map(|t| t.to_string()).collect();
    let snap = elmo_obs::snapshot();
    let phases = phase_entries(&snap);
    let json = format!(
        "{{\n  \"bench\": \"elmo encode sweep\",\n  \"fabric_hosts\": {},\n  \"groups\": {},\n  \"r_values\": [{}],\n  \"cpus_available\": {},\n  \"skipped_thread_counts\": [{}],\n  \"runs\": [\n{}\n  ],\n  \"phases\": [\n{}\n  ],\n  \"min_k_union\": {{\"calls\": {}, \"wall_ms\": {}, \"calls_per_sec\": {}}},\n  \"verify\": {{\"groups\": {}, \"wall_ms\": {}, \"groups_per_sec\": {}}}\n}}\n",
        topo.num_hosts(),
        wl.total_groups,
        r_list.join(", "),
        cpus,
        skipped_list.join(", "),
        speedups.join(",\n"),
        phases.join(",\n"),
        mku_calls,
        json_f(mku_ms),
        json_f(mku_rate),
        verify_groups,
        json_f(verify_ms),
        json_f(verify_rate),
    );
    std::fs::write(&args.out, &json).expect("write bench output");
    elmo_obs::info!("bench.wrote", path = args.out.as_str());
}

/// Run the data-plane replay bench, write `args.replay_out`, and enforce
/// `--expect-deliveries` (the CI smoke gate: any change to how many copies
/// the fixed workload delivers fails the run) and `--expect-pkts-per-sec`
/// (every engine row's warm throughput must clear the floor).
fn run_replay_bench(args: &Args, cpus: usize, skipped_shards: &[usize]) {
    let (reference, engine) = bench_replay(args);
    let warm_ref = reference.warm_pkts_per_sec;
    // By default only non-oversubscribed worker counts were run (main
    // filtered the rest into `skipped_shards`), so the speedups are
    // scaling evidence, not scheduler noise; with
    // `--replay-allow-oversubscribed`, rows above the core count do run
    // and are flagged per row.
    let engine_rows: Vec<String> = engine
        .iter()
        .map(|(t, r)| {
            format!(
                "      {{\"threads\": {t}, \"oversubscribed\": {}, {}, \"speedup_vs_reference\": {}}}",
                *t != 0 && *t > cpus,
                r.json(),
                json_f(r.warm_pkts_per_sec / warm_ref),
            )
        })
        .collect();
    let skipped_json = skipped_shards
        .iter()
        .map(|t| t.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        "{{\n  \"bench\": \"elmo dataplane replay\",\n  \"fabric_hosts\": {},\n  \"packets\": {},\n  \"payload_bytes\": {},\n  \"cpus_available\": {},\n  \"deliveries\": {},\n  \"copies_on_links\": {},\n  \"reference\": {{{}}},\n  \"replay_threads\": {{\n    \"skipped_shard_counts\": [{}],\n    \"rows\": [\n{}\n    ]\n  }}\n}}\n",
        Clos::paper_example().num_hosts(),
        args.replay_packets,
        args.replay_payload,
        cpus,
        reference.deliveries,
        reference.copies_on_links,
        reference.json(),
        skipped_json,
        engine_rows.join(",\n"),
    );
    std::fs::write(&args.replay_out, &json).expect("write replay bench output");
    elmo_obs::info!("bench.wrote", path = args.replay_out.as_str());
    if let Some(expected) = args.expect_deliveries {
        if reference.deliveries != expected {
            elmo_obs::error!(
                "bench.deliveries_changed",
                expected = expected,
                actual = reference.deliveries,
                msg = "--expect-deliveries: the fixed replay workload delivered \
                       a different number of copies than the pinned count"
            );
            std::process::exit(1);
        }
    }
    if let Some(floor) = args.expect_pkts_per_sec {
        for (t, row) in &engine {
            // NaN must also fail the floor, hence not `warm < floor`.
            if !matches!(
                row.warm_pkts_per_sec.partial_cmp(&(floor as f64)),
                Some(std::cmp::Ordering::Greater | std::cmp::Ordering::Equal)
            ) {
                elmo_obs::error!(
                    "bench.replay_throughput",
                    threads = *t,
                    floor_pkts_per_sec = floor,
                    actual_pkts_per_sec = row.warm_pkts_per_sec,
                    msg = "--expect-pkts-per-sec: warm engine replay fell below the pinned floor"
                );
                std::process::exit(1);
            }
        }
    }
}

/// The incremental-churn benchmark: replay the identical seeded stream
/// through a delta-on and a delta-off controller for each scenario, verify
/// the delta controller's installed state at every burst boundary, assert
/// the final states bit-identical, and report the per-event cost split.
/// Returns the lowest delta hit rate across scenarios (the deterministic
/// quantity `--expect-churn-hit-rate` gates on).
fn run_churn_bench(args: &Args) -> f64 {
    use elmo_sim::churn_exp::{self, ChurnExpConfig};
    use elmo_workloads::{initial_roles, Workload};

    let topo = Clos::scaled_fabric(6, 24, 16); // the bench fabric
    let layout = elmo_core::HeaderLayout::for_clos(&topo);
    // Same budget rule as the sweeps: 30 downstream-leaf p-rules.
    let budget = layout.max_header_bytes(2, 30, 2);
    // Scenario axis: the paper's WVE mix (many small groups, frequent
    // structural escalations) and a large-group mix (big receiver trees,
    // where a full re-encode is most expensive and the patcher's flat
    // per-event cost pays off hardest).
    let scenarios: [(&str, Option<usize>, Option<usize>); 2] =
        [("wve", Some(2_000), None), ("large", Some(200), Some(600))];
    let burst = 5_000usize;
    let mut rows = Vec::new();
    let mut min_hit_rate = f64::INFINITY;
    for (name, groups, min_group) in scenarios {
        let mut wl = WorkloadConfig::scaled(&topo, 12, GroupSizeDist::Wve);
        if let Some(g) = groups {
            wl.total_groups = g;
        }
        if let Some(m) = min_group {
            wl.min_group_size = m;
        }
        let workload = Workload::generate(topo, wl);
        let roles = initial_roles(&workload, wl.seed);
        let cfg_on = ChurnExpConfig {
            r: 12,
            header_budget: budget,
            threads: 0,
            events: args.churn_events,
            burst,
            seed: wl.seed ^ 0xc4,
            delta: true,
            verify_each_burst: true,
        };
        // Identical stream, delta disabled, no per-burst verification —
        // final-state identity below is the correctness check that makes
        // the baseline timings comparable.
        let cfg_off = ChurnExpConfig {
            delta: false,
            verify_each_burst: false,
            ..cfg_on
        };
        let mut on = churn_exp::build_controller(topo, &workload, &roles, &cfg_on);
        let run_on = churn_exp::replay(&workload, &roles, &cfg_on, &mut on);
        let mut off = churn_exp::build_controller(topo, &workload, &roles, &cfg_off);
        let run_off = churn_exp::replay(&workload, &roles, &cfg_off, &mut off);
        assert_eq!(
            run_on.verify_violations, 0,
            "{name}: churned state failed elmo-verify"
        );
        churn_exp::states_identical(&on, &off)
            .unwrap_or_else(|e| panic!("{name}: delta path diverged from the baseline: {e}"));
        assert_eq!(
            run_on.stats.tree_changes(),
            run_off.stats.tree_changes(),
            "{name}: modes saw different tree-change streams"
        );
        let hit_rate = run_on.delta_hit_rate();
        min_hit_rate = min_hit_rate.min(hit_rate);
        let per_hit_speedup = run_off.full_ns.mean_ns() / run_on.hit_ns.mean_ns();
        let e2e_speedup = run_on.events_per_sec() / run_off.events_per_sec();
        elmo_obs::info!(
            "bench.churn",
            scenario = name,
            events = run_on.events,
            hit_rate = hit_rate,
            per_hit_speedup = per_hit_speedup,
            e2e_speedup = e2e_speedup
        );
        let s = &run_on.stats;
        rows.push(format!(
            "    {{\"scenario\": \"{name}\", \"groups\": {}, \"events\": {}, \"burst_events\": {burst}, \
             \"delta_on\": {{\"ops_per_sec\": {}, \"p95_event_us\": {}, \"delta_hits\": {}, \
             \"full_reencodes\": {}, \"structural_escalations\": {}, \"hit_rate\": {}, \
             \"mean_hit_us\": {}, \"mean_full_us\": {}, \"verified_bursts\": {}, \"verify_violations\": {}}}, \
             \"delta_off\": {{\"ops_per_sec\": {}, \"p95_event_us\": {}, \"mean_full_us\": {}}}, \
             \"speedup_per_hit\": {}, \"speedup_end_to_end\": {}, \"final_state_identical\": true}}",
            run_on.groups,
            run_on.events,
            json_f(run_on.events_per_sec()),
            json_f(run_on.p95_event_ns() as f64 / 1e3),
            s.delta_hits,
            s.full_reencodes,
            s.structural_escalations,
            json_f(hit_rate),
            json_f(run_on.hit_ns.mean_ns() / 1e3),
            json_f(run_on.full_ns.mean_ns() / 1e3),
            run_on.verified_bursts,
            run_on.verify_violations,
            json_f(run_off.events_per_sec()),
            json_f(run_off.p95_event_ns() as f64 / 1e3),
            json_f(run_off.full_ns.mean_ns() / 1e3),
            json_f(per_hit_speedup),
            json_f(e2e_speedup),
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"elmo churn delta\",\n  \"fabric_hosts\": {},\n  \"events_per_scenario\": {},\n  \"scenarios\": [\n{}\n  ]\n}}\n",
        topo.num_hosts(),
        args.churn_events,
        rows.join(",\n"),
    );
    std::fs::write(&args.churn_out, &json).expect("write churn bench output");
    elmo_obs::info!("bench.wrote", path = args.churn_out.as_str());
    min_hit_rate
}

fn main() {
    let mut args = parse_args();
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // Thread counts above the core count only add scheduler contention —
    // their speedup-vs-1 figures would be noise, not scaling evidence — so
    // they are skipped and recorded rather than run. (`0` means "all
    // cores" and is always valid.)
    let skipped: Vec<usize> = args
        .threads
        .iter()
        .copied()
        .filter(|&t| t != 0 && t > cpus)
        .collect();
    if !skipped.is_empty() {
        args.threads.retain(|&t| t == 0 || t <= cpus);
        elmo_obs::warn!(
            "bench.oversubscribed",
            cpus = cpus,
            skipped = format!("{skipped:?}"),
            msg = "skipping thread counts above available cores"
        );
        if args.threads.is_empty() {
            args.threads.push(1);
        }
    }
    // Same honesty rule for the replay shard axis: a shard count above the
    // core count can only measure oversubscription, so it is recorded as
    // skipped, never timed — unless `--replay-allow-oversubscribed` asks
    // for those rows anyway, in which case they run and each carries
    // `"oversubscribed": true` so the JSON stays honest about what the
    // number measured.
    let skipped_shards: Vec<usize> = if args.replay_allow_oversubscribed {
        Vec::new()
    } else {
        args.replay_threads
            .iter()
            .copied()
            .filter(|&t| t != 0 && t > cpus)
            .collect()
    };
    if !skipped_shards.is_empty() {
        args.replay_threads.retain(|&t| t == 0 || t <= cpus);
        elmo_obs::warn!(
            "bench.oversubscribed",
            cpus = cpus,
            skipped = format!("{skipped_shards:?}"),
            msg = "skipping replay shard counts above available cores"
        );
        if args.replay_threads.is_empty() {
            args.replay_threads.push(1);
        }
    }
    if !args.churn_only {
        if !args.replay_only {
            run_encode_bench(&args, cpus, &skipped);
        }
        run_replay_bench(&args, cpus, &skipped_shards);
    }
    if !args.replay_only {
        let min_hit_rate = run_churn_bench(&args);
        if let Some(floor) = args.expect_churn_hit_rate {
            // NaN must also fail the floor, hence not `rate < floor`.
            if !matches!(
                (min_hit_rate * 100.0).partial_cmp(&(floor as f64)),
                Some(std::cmp::Ordering::Greater | std::cmp::Ordering::Equal)
            ) {
                elmo_obs::error!(
                    "bench.churn_hit_rate",
                    min_hit_rate = min_hit_rate,
                    floor_pct = floor,
                    msg = "--expect-churn-hit-rate: delta hit rate fell below the pinned floor"
                );
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = &args.metrics_out {
        if let Err(e) = elmo_sim::obs::write_snapshot(path) {
            elmo_obs::error!(
                "metrics.write_failed",
                path = path.as_str(),
                error = e.to_string()
            );
            std::process::exit(1);
        }
        elmo_obs::info!("metrics.written", path = path.as_str());
    }
}
