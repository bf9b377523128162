//! The parallel encode pipeline must be invisible in the results: a sweep
//! (Figures 4/5) run at any thread count produces bit-identical rows —
//! including float summaries, whose accumulation order is pinned by the
//! sequential phase-2 fold — and identical s-rule occupancy, even when
//! limited group-table capacity forces the admission-failure re-encode
//! path.

use std::sync::Mutex;

use elmo::sim::{sweep, SweepConfig};
use elmo::topology::Clos;
use elmo::workloads::{GroupSizeDist, WorkloadConfig};

/// The obs registry is process-global; tests in this binary that reset or
/// snapshot it must not interleave with other sweeps recording into it.
static REGISTRY: Mutex<()> = Mutex::new(());

fn base_config() -> SweepConfig {
    let topo = Clos::scaled_fabric(4, 8, 8); // 256 hosts
    let workload = WorkloadConfig {
        tenants: 25,
        total_groups: 300,
        host_vm_cap: 20,
        placement_p: 1,
        min_group_size: 5,
        dist: GroupSizeDist::Wve,
        seed: 0xD17E,
    };
    let mut cfg = SweepConfig::paper(topo, workload);
    cfg.r_values = vec![0, 6, 12];
    cfg
}

#[test]
fn sweep_is_identical_at_any_thread_count() {
    let _guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let mut cfg = base_config();
    cfg.threads = 1;
    let reference = sweep::run(&cfg);
    for threads in [2, 8] {
        cfg.threads = threads;
        let result = sweep::run(&cfg);
        assert_eq!(result.rows, reference.rows, "threads={threads}");
        assert_eq!(result.li_leaf, reference.li_leaf);
        assert_eq!(result.li_spine, reference.li_spine);
        assert_eq!(result.li_core, reference.li_core);
    }
}

#[test]
fn sweep_with_limited_srule_capacity_is_identical() {
    // Tight header budget + tiny Fmax: many groups lose the optimistic
    // admission race and take the phase-2 re-encode path, which must still
    // reproduce the serial order exactly.
    let _guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let mut cfg = base_config();
    cfg.header_budget = 24;
    cfg.leaf_fmax = 8;
    cfg.spine_fmax = 8;
    cfg.threads = 1;
    let reference = sweep::run(&cfg);
    assert!(
        reference.rows.iter().any(|r| r.defaulted > 0),
        "config must actually exhaust s-rule capacity"
    );
    for threads in [2, 8] {
        cfg.threads = threads;
        let result = sweep::run(&cfg);
        assert_eq!(result.rows, reference.rows, "threads={threads}");
    }
}

#[test]
fn metrics_neither_perturb_results_nor_depend_on_thread_count() {
    // Two guarantees at once: (1) running with the metrics registry enabled
    // produces the same sweep rows as ever, and (2) the deterministic view
    // of the metrics themselves — everything except the wall-clock `span.*`
    // timings — is bit-identical at any thread count, because counters only
    // ever accumulate commutative increments from the parallel phase.
    let _guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let mut cfg = base_config();
    elmo::obs::set_enabled(true);
    let mut reference: Option<(Vec<elmo::sim::SweepRow>, elmo::obs::Snapshot)> = None;
    for threads in [1, 2, 8] {
        elmo::obs::reset();
        cfg.threads = threads;
        let result = sweep::run(&cfg);
        let snap = elmo::obs::snapshot().deterministic();
        assert!(
            snap.counter("sim.sweep.groups_encoded").unwrap_or(0) > 0,
            "metrics were actually recorded"
        );
        assert!(
            snap.histograms.keys().all(|k| !k.starts_with("span.")),
            "deterministic view must exclude wall-clock spans"
        );
        match &reference {
            None => reference = Some((result.rows, snap)),
            Some((rows, ref_snap)) => {
                assert_eq!(&result.rows, rows, "rows diverged at threads={threads}");
                assert_eq!(
                    ref_snap.to_json(),
                    snap.to_json(),
                    "metrics diverged at threads={threads}"
                );
            }
        }
    }
}
