//! Output checks applied to every timed operation, and the tally that turns
//! a failed check into a failed operation.

use sparsemat::envelope::{envelope_stats, EnvelopeStats};
use sparsemat::{Permutation, SymmetricPattern};

/// Checks that `order` is a permutation of `0..g.n()` and that `claimed`
/// equals the envelope statistics recomputed here from `g` and `order`.
pub fn check_ordering(
    g: &SymmetricPattern,
    order: &[usize],
    claimed: &EnvelopeStats,
) -> Result<(), String> {
    if order.len() != g.n() {
        return Err(format!(
            "permutation has {} entries for n = {}",
            order.len(),
            g.n()
        ));
    }
    let perm = Permutation::from_new_to_old(order.to_vec())
        .map_err(|e| format!("invalid permutation: {e}"))?;
    let recomputed = envelope_stats(g, &perm);
    if recomputed != *claimed {
        return Err(format!(
            "returned stats {claimed:?} differ from recomputed {recomputed:?}"
        ));
    }
    Ok(())
}

/// Operations attempted, failed and degraded, plus the first few failure
/// messages for the report.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored, timed out or failed a check.
    pub failed: u64,
    /// Operations answered with a `degraded` marker (not failures).
    pub degraded: u64,
    /// Up to [`Tally::MAX_MESSAGES`] failure messages.
    pub messages: Vec<String>,
}

impl Tally {
    const MAX_MESSAGES: usize = 8;

    /// Counts one operation with its check outcome.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = outcome {
            self.fail(msg);
        }
    }

    /// Counts a failure of an operation already counted as attempted.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.messages.len() < Self::MAX_MESSAGES {
            self.messages.push(msg);
        }
    }

    /// Adds another tally's counts into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.degraded += other.degraded;
        for msg in other.messages {
            if self.messages.len() < Self::MAX_MESSAGES {
                self.messages.push(msg);
            }
        }
        self.failed += other.failed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> SymmetricPattern {
        meshgen::grid2d(6, 4)
    }

    fn good(g: &SymmetricPattern) -> (Vec<usize>, EnvelopeStats) {
        let order: Vec<usize> = (0..g.n()).rev().collect();
        let stats = envelope_stats(g, &Permutation::from_new_to_old(order.clone()).unwrap());
        (order, stats)
    }

    #[test]
    fn a_valid_ordering_passes() {
        let g = grid();
        let (order, stats) = good(&g);
        assert_eq!(check_ordering(&g, &order, &stats), Ok(()));
    }

    #[test]
    fn corrupted_permutations_are_counted_as_failures() {
        let g = grid();
        let (order, stats) = good(&g);
        let mut duplicate = order.clone();
        duplicate[3] = duplicate[4];
        let mut out_of_range = order.clone();
        out_of_range[0] = g.n();
        let short = order[1..].to_vec();
        let mut tally = Tally::default();
        tally.record(check_ordering(&g, &order, &stats));
        for bad in [&duplicate, &out_of_range, &short] {
            tally.record(check_ordering(&g, bad, &stats));
        }
        assert_eq!((tally.attempted, tally.failed), (4, 3));
        assert_eq!(tally.messages.len(), 3);
    }

    #[test]
    fn a_corrupted_stats_record_is_counted_as_a_failure() {
        let g = grid();
        let (order, stats) = good(&g);
        let mut tally = Tally::default();
        for tamper in [
            |s: &mut EnvelopeStats| s.envelope_size += 1,
            |s: &mut EnvelopeStats| s.bandwidth -= 1,
            |s: &mut EnvelopeStats| s.two_sum_sq ^= 1,
        ] {
            let mut bad = stats;
            tamper(&mut bad);
            tally.record(check_ordering(&g, &order, &bad));
        }
        assert_eq!((tally.attempted, tally.failed), (3, 3));
    }

    #[test]
    fn merged_tallies_add_up() {
        let mut a = Tally::default();
        a.record(Ok(()));
        let mut b = Tally::default();
        b.record(Err("x".into()));
        b.degraded = 2;
        a.merge(b);
        assert_eq!((a.attempted, a.failed, a.degraded), (2, 1, 2));
    }
}
