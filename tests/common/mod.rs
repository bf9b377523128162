//! Seeded case runner shared by the property suites: inputs come from the
//! in-repo SplitMix64 generator, one seed per case, so a failure names the
//! one seed that reproduces it.

use std::collections::BTreeSet;

use elmo::core::SplitMix64;

/// Run `n` cases of a property, case `i` drawing from seed `base + i`. On a
/// failure the panic is re-raised after naming the failing seed.
pub fn cases(base: u64, n: u64, mut prop: impl FnMut(&mut SplitMix64)) {
    for i in 0..n {
        let seed = base.wrapping_add(i);
        let mut rng = SplitMix64::new(seed);
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| prop(&mut rng)));
        if let Err(e) = run {
            eprintln!("property failed for seed {seed:#x} (case {i})");
            std::panic::resume_unwind(e);
        }
    }
}

/// `lo..hi` distinct values drawn from `0..universe`.
pub fn distinct(rng: &mut SplitMix64, universe: u32, lo: usize, hi: usize) -> BTreeSet<u32> {
    let n = rng.range_inclusive(lo, hi - 1);
    let mut all: Vec<u32> = (0..universe).collect();
    let (picked, _) = rng.partial_shuffle(&mut all, n);
    picked.iter().copied().collect()
}
