//! Seeded property tests over the core invariants:
//!
//! * the Elmo header wire format roundtrips for arbitrary rule structures;
//! * Algorithm 1 covers every input switch with a superset bitmap, within
//!   the redundancy budget, never exceeding Hmax/Kmax;
//! * Algorithm 1 is invariant under a global port permutation plus an
//!   order-preserving relabeling of the switch ids;
//! * per-sender headers always fit the byte budget;
//! * port bitmaps behave like sets.
//!
//! Inputs come from the in-repo SplitMix64 generator (see `common`).

mod common;

use std::collections::BTreeSet;

use common::{cases, distinct};
use elmo::controller::srules::SRuleSpace;
use elmo::core::{
    cluster_layer, encode_group, header_for_sender, ClusterConfig, DownstreamRule, ElmoHeader,
    EncoderConfig, HeaderLayout, LayerEncoding, PortBitmap, RedundancyMode, SplitMix64,
    UpstreamRule,
};
use elmo::topology::{Clos, GroupTree, HostId, LeafId, PodId, UpstreamCover};

fn example_layout() -> HeaderLayout {
    HeaderLayout::for_clos(&Clos::paper_example())
}

/// A bitmap whose ports are each set with probability `density`.
fn bitmap(rng: &mut SplitMix64, width: usize, density: f64) -> PortBitmap {
    PortBitmap::from_ports(width, (0..width).filter(|_| rng.chance(density)))
}

fn maybe<T>(rng: &mut SplitMix64, f: impl FnOnce(&mut SplitMix64) -> T) -> Option<T> {
    rng.chance(0.5).then(|| f(rng))
}

fn upstream(rng: &mut SplitMix64, down: usize, up: usize) -> UpstreamRule {
    UpstreamRule {
        down: bitmap(rng, down, 0.5),
        multipath: rng.chance(0.5),
        up: bitmap(rng, up, 0.5),
    }
}

fn rules(
    rng: &mut SplitMix64,
    width: usize,
    id_bits: u32,
    max_rules: usize,
) -> Vec<DownstreamRule> {
    (0..rng.range_inclusive(0, max_rules))
        .map(|_| DownstreamRule {
            bitmap: bitmap(rng, width, 0.5),
            switches: distinct(rng, 1 << id_bits, 1, 4).into_iter().collect(),
        })
        .collect()
}

/// A structurally valid header for the paper-example layout.
fn header(rng: &mut SplitMix64) -> ElmoHeader {
    ElmoHeader {
        u_leaf: maybe(rng, |r| upstream(r, 8, 2)),
        u_spine: maybe(rng, |r| upstream(r, 2, 2)),
        core: maybe(rng, |r| bitmap(r, 4, 0.5)),
        d_spine: rules(rng, 2, 2, 3),
        d_spine_default: maybe(rng, |r| bitmap(r, 2, 0.5)),
        d_leaf: rules(rng, 8, 3, 5),
        d_leaf_default: maybe(rng, |r| bitmap(r, 8, 0.5)),
    }
}

/// Any structurally valid header survives encode -> decode unchanged, and
/// the encoded size matches the accounting.
#[test]
fn header_roundtrip() {
    let layout = example_layout();
    cases(0x4EAD_0000, 512, |rng| {
        let header = header(rng);
        let bytes = header.encode(&layout);
        assert_eq!(bytes.len(), header.byte_len(&layout));
        let (decoded, used) = ElmoHeader::decode(&bytes, &layout).expect("decodes");
        assert_eq!(used, bytes.len());
        assert_eq!(decoded, header);
    });
}

/// Truncating an encoded header anywhere never panics: the decoder either
/// errors or (if the cut landed past all content) parses a prefix.
#[test]
fn truncated_headers_error_cleanly() {
    let layout = example_layout();
    cases(0x7A0C_0000, 512, |rng| {
        let bytes = header(rng).encode(&layout);
        for cut in 0..bytes.len() {
            let _ = ElmoHeader::decode(&bytes[..cut], &layout);
        }
    });
}

/// Bitmap algebra: union is commutative and monotone; Hamming distance is
/// symmetric and zero on the diagonal; iteration yields sorted set bits.
#[test]
fn bitmap_algebra() {
    cases(0xB175_0000, 512, |rng| {
        let a = bitmap(rng, 48, 0.5);
        let b = bitmap(rng, 48, 0.5);
        assert_eq!(a.or(&b), b.or(&a));
        assert_eq!(a.union_count(&b), a.or(&b).count_ones());
        assert!(a.is_subset_of(&a.or(&b)));
        assert!(b.is_subset_of(&a.or(&b)));
        assert_eq!(a.hamming(&b), b.hamming(&a));
        assert_eq!(a.hamming(&a), 0);
        let ones: Vec<usize> = a.iter_ones().collect();
        assert_eq!(ones.len(), a.count_ones());
        assert!(ones.windows(2).all(|w| w[0] < w[1]));
    });
}

/// An s-rule allocator granting the first `budget` requests.
fn limited_alloc(budget: usize) -> impl FnMut(u32) -> bool {
    let mut left = budget;
    move |_| {
        if left > 0 {
            left -= 1;
            true
        } else {
            false
        }
    }
}

/// Algorithm 1 invariants, for arbitrary layers and budgets.
#[test]
fn clustering_invariants() {
    cases(0xC105_0000, 512, |rng| {
        let n = rng.range_inclusive(1, 23);
        let inputs: Vec<(u32, PortBitmap)> =
            (0..n).map(|i| (i as u32, bitmap(rng, 16, 0.5))).collect();
        let r = rng.range_inclusive(0, 7);
        let h_max = rng.range_inclusive(0, 9);
        let k_max = rng.range_inclusive(1, 3);
        let srule_budget = rng.range_inclusive(0, 9);
        let cfg = ClusterConfig {
            r,
            h_max,
            bit_budget: usize::MAX,
            id_bits: 8,
            k_max,
            mode: RedundancyMode::Sum,
        };
        let enc = cluster_layer(&inputs, &cfg, &mut limited_alloc(srule_budget));

        // Every input switch is covered, and its assigned bitmap is a
        // superset of its exact ports.
        for (s, bm) in &inputs {
            let assigned = enc
                .bitmap_for(*s)
                .unwrap_or_else(|| panic!("switch {s} uncovered"));
            assert!(bm.is_subset_of(assigned));
        }
        // Budgets respected.
        assert!(enc.p_rules.len() <= h_max);
        assert!(enc.p_rules.iter().all(|rule| rule.switches.len() <= k_max));
        assert!(enc.s_rules.len() <= srule_budget);
        // Redundancy bound: for every shared p-rule, the summed Hamming
        // distance of members to the output stays within R.
        for rule in &enc.p_rules {
            let total: usize = rule
                .switches
                .iter()
                .map(|s| inputs[*s as usize].1.hamming(&rule.bitmap))
                .sum();
            assert!(total <= r || rule.switches.len() == 1, "rule over budget");
        }
        // No switch appears in two rule sources.
        let mut seen = BTreeSet::new();
        for s in enc
            .p_rules
            .iter()
            .flat_map(|rule| rule.switches.iter())
            .chain(enc.s_rules.iter().map(|(s, _)| s))
            .chain(enc.default_switches.iter())
        {
            assert!(seen.insert(*s), "switch {s} double-assigned");
        }
        assert_eq!(seen.len(), inputs.len());
    });
}

/// Apply a switch relabeling and a port permutation to an encoding.
fn relabel(
    enc: &LayerEncoding,
    id: impl Fn(u32) -> u32,
    port: impl Fn(&PortBitmap) -> PortBitmap,
) -> LayerEncoding {
    LayerEncoding {
        p_rules: enc
            .p_rules
            .iter()
            .map(|r| DownstreamRule {
                bitmap: port(&r.bitmap),
                switches: r.switches.iter().map(|&s| id(s)).collect(),
            })
            .collect(),
        s_rules: enc
            .s_rules
            .iter()
            .map(|(s, bm)| (id(*s), port(bm)))
            .collect(),
        default_rule: enc.default_rule.as_ref().map(&port),
        default_switches: enc.default_switches.iter().map(|&s| id(s)).collect(),
    }
}

/// Algorithm 1 decides only through popcounts, union sizes, Hamming
/// distances, bitmap equality and candidate-index tie-breaks, so it is
/// invariant under (a) one port permutation applied to every input bitmap
/// and (b) an order-preserving relabeling of the switch ids: clustering
/// the transformed layer gives the original output, transformed the same
/// way. Covers the identical-class fast path, the greedy MIN-K-UNION path,
/// s-rule spill and the default p-rule.
#[test]
fn clustering_is_invariant_under_port_permutation_and_switch_relabeling() {
    // Cases that produced each encoding feature, checked at the end so the
    // generator provably reaches every branch named above.
    let (mut exact, mut lossy, mut spilled, mut defaulted) = (0, 0, 0, 0);
    cases(0x5EED_0000, 512, |rng| {
        let width = [8, 16, 70][rng.index(3)];
        let density = [0.1, 0.3, 0.5][rng.index(3)];
        let n = rng.range_inclusive(1, 48);
        let mut perm: Vec<usize> = (0..width).collect();
        rng.shuffle(&mut perm);

        // Layer A (ascending ids; about half the bitmaps repeat an earlier
        // one, so identical-bitmap classes occur) and its twin B: fresh
        // ascending ids, every bitmap mapped through the same permutation.
        let (mut id_a, mut id_b) = (0u32, rng.below(100) as u32);
        let mut a: Vec<(u32, PortBitmap)> = Vec::with_capacity(n);
        let mut b: Vec<(u32, PortBitmap)> = Vec::with_capacity(n);
        for i in 0..n {
            id_a += 1 + rng.below(7) as u32;
            id_b += 1 + rng.below(7) as u32;
            let bm = if i > 0 && rng.chance(0.5) {
                a[rng.index(i)].1.clone()
            } else {
                bitmap(rng, width, density)
            };
            let mapped = PortBitmap::from_ports(width, bm.iter_ones().map(|p| perm[p]));
            a.push((id_a, bm));
            b.push((id_b, mapped));
        }
        let cfg = ClusterConfig {
            r: rng.range_inclusive(0, 12),
            h_max: rng.range_inclusive(0, 6),
            bit_budget: if rng.chance(0.5) {
                usize::MAX
            } else {
                rng.range_inclusive(0, 400)
            },
            id_bits: 8,
            k_max: rng.range_inclusive(1, 5),
            mode: if rng.chance(0.5) {
                RedundancyMode::Sum
            } else {
                RedundancyMode::PerSwitch
            },
        };
        let srule_budget = if rng.chance(0.5) {
            usize::MAX
        } else {
            rng.range_inclusive(0, n)
        };

        let enc_a = cluster_layer(&a, &cfg, &mut limited_alloc(srule_budget));
        let enc_b = cluster_layer(&b, &cfg, &mut limited_alloc(srule_budget));
        let to_b = |s: u32| {
            let i = a
                .binary_search_by_key(&s, |x| x.0)
                .expect("encoded id is an input");
            b[i].0
        };
        let permute =
            |bm: &PortBitmap| PortBitmap::from_ports(width, bm.iter_ones().map(|p| perm[p]));
        assert_eq!(relabel(&enc_a, to_b, permute), enc_b, "cfg {cfg:?}");

        let input = |s: &u32| &a[a.binary_search_by_key(s, |x| x.0).expect("input")].1;
        let is_lossy = |r: &DownstreamRule| r.switches.iter().any(|s| *input(s) != r.bitmap);
        if !enc_a.p_rules.is_empty() && enc_a.s_rules.is_empty() && enc_a.default_rule.is_none() {
            exact += !enc_a.p_rules.iter().any(is_lossy) as usize;
        }
        lossy += enc_a.p_rules.iter().any(is_lossy) as usize;
        spilled += !enc_a.s_rules.is_empty() as usize;
        defaulted += enc_a.default_rule.is_some() as usize;
    });
    for (what, n) in [
        ("exact fast-path", exact),
        ("lossy shared p-rule", lossy),
        ("s-rule spill", spilled),
        ("default p-rule", defaulted),
    ] {
        assert!(n > 0, "no case produced a {what} encoding");
    }
}

/// Whole-group encodings always produce headers within the byte budget,
/// for every sender, and those headers roundtrip.
#[test]
fn headers_fit_budget() {
    let topo = Clos::paper_example();
    let layout = HeaderLayout::for_clos(&topo);
    cases(0x8E4D_0000, 256, |rng| {
        let members: Vec<HostId> = distinct(rng, 64, 2, 16).into_iter().map(HostId).collect();
        let r = rng.range_inclusive(0, 12);
        let budget = rng.range_inclusive(40, 119);
        let tree = GroupTree::new(&topo, members.iter().copied());
        let encoder = EncoderConfig::with_budget(&layout, budget, r);
        let mut space = SRuleSpace::unlimited(&topo);
        let enc = {
            let cell = std::cell::RefCell::new(&mut space);
            let mut sa = |p: PodId| cell.borrow_mut().alloc_pod(p);
            let mut la = |l: LeafId| cell.borrow_mut().alloc_leaf(l);
            encode_group(&topo, &tree, &encoder, &mut sa, &mut la)
        };
        for &sender in &members {
            let header = header_for_sender(
                &topo,
                &layout,
                &tree,
                &enc,
                sender,
                &UpstreamCover::multipath(),
            );
            let bytes = header.encode(&layout);
            assert!(
                bytes.len() <= budget,
                "sender {sender}: {} > {budget} bytes",
                bytes.len()
            );
            let (decoded, _) = ElmoHeader::decode(&bytes, &layout).expect("decodes");
            assert_eq!(decoded, header);
        }
    });
}

/// The receiver trees are placement-faithful: every member maps to a
/// leaf/pod that reports it back.
#[test]
fn tree_projection_is_consistent() {
    let topo = Clos::paper_example();
    cases(0x78EE_0000, 256, |rng| {
        let members: Vec<HostId> = distinct(rng, 64, 1, 20).into_iter().map(HostId).collect();
        let tree = GroupTree::new(&topo, members.iter().copied());
        assert_eq!(tree.size(), members.len());
        for &h in &members {
            let leaf = topo.leaf_of_host(h);
            assert!(tree.hosts_on_leaf(leaf).contains(&h));
            assert!(tree.leaves_in_pod(topo.pod_of_leaf(leaf)).contains(&leaf));
        }
        let leaf_total: usize = tree.leaves().map(|l| tree.hosts_on_leaf(l).len()).sum();
        assert_eq!(leaf_total, members.len());
    });
}
