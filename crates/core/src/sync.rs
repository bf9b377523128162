//! Version stamps tying derived state to its source of truth.
//!
//! A switch compiles its group table into a `MatchPlan` for the replay
//! hot path; [`Stamp`] lets the hot path check that the plan it is about
//! to serve was compiled from the table as it stands now.

/// A monotonically increasing version stamp tying derived state (a
/// compiled `MatchPlan`) to its source of truth (the switch group table).
///
/// The protocol is single-writer: every table mutation bumps the table's
/// stamp, and every plan rebuild copies the table's stamp into the plan.
/// A reader holding both stamps may conclude `plan == compile(table)`
/// only when the stamps match; skipping the bump breaks that
/// implication. A plain `u64` suffices: tables and plans are only
/// mutated through `&mut`, so a stamp is never written concurrently.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Stamp(u64);

impl Stamp {
    /// The initial stamp; a table starts aligned with an empty plan.
    pub const ZERO: Stamp = Stamp(0);

    /// Advance the stamp past every previously issued value.
    pub fn bump(&mut self) {
        self.0 += 1;
    }

    /// The raw version number (for reports and assertions).
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_bumps_monotonically() {
        let mut s = Stamp::ZERO;
        let s0 = s;
        s.bump();
        assert!(s > s0);
        assert_eq!(s.value(), 1);
        let copy = s;
        assert_eq!(copy, s);
    }
}
