//! The wall-clock budget of a run, read sparingly.
//!
//! A clock read costs tens of nanoseconds, a few percent of an
//! `explore-ce` node. A [`Deadline`] therefore reads the clock on its
//! first check and then once every [`DEADLINE_STRIDE`] checks. A run
//! overshoots its budget by fewer than that many nodes, and a zero budget
//! still stops before the first node. This is the only place the
//! exploration layer reads the clock.

use std::time::{Duration, Instant};

/// A [`Deadline`] reads the clock once per this many checks.
pub(crate) const DEADLINE_STRIDE: u32 = 256;

/// The start of a run and the end of its budget.
#[derive(Clone, Debug)]
pub(crate) struct Deadline {
    started: Instant,
    /// The end of the budget; `None` without one.
    at: Option<Instant>,
    /// Checks left before the clock is read again.
    countdown: u32,
    /// Whether the budget was found spent; it stays spent.
    passed: bool,
}

impl Deadline {
    /// Starts the clock of a run with the given budget.
    pub(crate) fn start(budget: Option<Duration>) -> Self {
        let started = Instant::now();
        Deadline {
            started,
            at: budget.map(|b| started + b),
            countdown: 0,
            passed: false,
        }
    }

    /// Time since the run started.
    pub(crate) fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Whether the budget is spent. Reads the clock on the first check
    /// and then on every [`DEADLINE_STRIDE`]-th; once spent, always
    /// `true`.
    #[inline]
    pub(crate) fn passed(&mut self) -> bool {
        if self.passed {
            return true;
        }
        let Some(at) = self.at else {
            return false;
        };
        if self.countdown > 0 {
            self.countdown -= 1;
            return false;
        }
        self.countdown = DEADLINE_STRIDE - 1;
        self.passed = Instant::now() >= at;
        self.passed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_zero_budget_is_spent_at_the_first_check() {
        let mut deadline = Deadline::start(Some(Duration::ZERO));
        assert!(deadline.passed());
        assert!(deadline.passed(), "a spent budget stays spent");
    }

    #[test]
    fn the_clock_is_read_once_per_stride() {
        // A budget that is not spent at the first check: the next
        // `DEADLINE_STRIDE - 1` checks do not read the clock, so they
        // answer `false` even once the budget is gone.
        let mut deadline = Deadline::start(Some(Duration::from_secs(3600)));
        assert!(!deadline.passed());
        deadline.at = Some(deadline.started);
        for _ in 1..DEADLINE_STRIDE {
            assert!(!deadline.passed());
        }
        assert!(
            deadline.passed(),
            "the stride's clock read sees the budget spent"
        );
    }
}
