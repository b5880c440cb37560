//! Operation isolation and the measurement window.
//!
//! Every timed operation runs through [`Tally::attempt`]: a panic, a
//! failed output check, or a networked run that writes clients off counts
//! as one failed operation against the number attempted, and the
//! benchmark carries on with the next one.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    /// Run one operation. `Err` and panics are counted as failures and
    /// their reason kept; `Ok` hands the value back.
    pub fn attempt<T>(&mut self, what: &str, op: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        let reason = match catch_unwind(AssertUnwindSafe(op)) {
            Ok(Ok(value)) => return Some(value),
            Ok(Err(e)) => e,
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                format!("panicked: {}", msg)
            }
        };
        self.failed += 1;
        self.reasons.push(format!("{}: {}", what, reason));
        None
    }

    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// A measurement window of a fixed length. An operation is started only
/// while the window has room for one more of the typical duration seen
/// so far, so a run ends close to its budget instead of one operation
/// past it; `min_ops` operations always run.
pub struct Window {
    start: Instant,
    budget: Duration,
    min_ops: usize,
    durations: Vec<Duration>,
}

impl Window {
    pub fn new(budget: Duration, min_ops: usize) -> Window {
        Window {
            start: Instant::now(),
            budget,
            min_ops,
            durations: Vec::new(),
        }
    }

    pub fn has_room(&self) -> bool {
        if self.durations.len() < self.min_ops {
            return true;
        }
        let mut sorted = self.durations.clone();
        sorted.sort();
        let typical = sorted[sorted.len() / 2];
        self.start.elapsed() + typical <= self.budget
    }

    /// Time one operation and remember its duration, failed or not.
    pub fn timed<T>(&mut self, op: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = op();
        self.durations.push(t.elapsed());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_count_against_attempts_without_aborting() {
        let mut tally = Tally::default();
        assert_eq!(tally.attempt("ok", || Ok::<_, String>(7)), Some(7));
        assert_eq!(
            tally.attempt("check", || Err::<u32, _>("output differs".to_string())),
            None
        );
        let panicked: Option<u32> = tally.attempt("boom", || panic!("deliberate failure"));
        assert_eq!(panicked, None);
        let formatted: Option<u32> = tally.attempt("boom2", || panic!("code {}", 3));
        assert_eq!(formatted, None);
        assert_eq!(tally.attempt("ok again", || Ok::<_, String>(1)), Some(1));

        assert_eq!(tally.attempted, 5);
        assert_eq!(tally.failed, 3);
        assert_eq!(tally.failed_share(), 0.6);
        assert_eq!(tally.reasons[0], "check: output differs");
        assert_eq!(tally.reasons[1], "boom: panicked: deliberate failure");
        assert_eq!(tally.reasons[2], "boom2: panicked: code 3");
    }

    #[test]
    fn a_panic_inside_the_thread_pool_is_one_failure() {
        use rayon::prelude::*;
        let mut tally = Tally::default();
        let out: Option<Vec<u32>> = tally.attempt("pool", || {
            Ok((0..8u32)
                .into_par_iter()
                .map(|i| {
                    if i == 5 {
                        panic!("client {} failed", i)
                    } else {
                        i
                    }
                })
                .collect())
        });
        assert!(out.is_none());
        assert_eq!((tally.attempted, tally.failed), (1, 1));
        // The pool still works afterwards.
        let after = tally.attempt("pool again", || {
            Ok((0..8u32).into_par_iter().map(|i| i * 2).collect::<Vec<_>>())
        });
        assert_eq!(after.map(|v| v.len()), Some(8));
    }

    #[test]
    fn window_runs_min_ops_then_respects_budget() {
        let mut w = Window::new(Duration::from_millis(30), 2);
        let mut ran = 0;
        while w.has_room() {
            w.timed(|| std::thread::sleep(Duration::from_millis(10)));
            ran += 1;
        }
        assert!((2..=3).contains(&ran), "ran {}", ran);
        let mut w = Window::new(Duration::ZERO, 1);
        assert!(w.has_room());
        w.timed(|| std::thread::sleep(Duration::from_millis(1)));
        assert!(!w.has_room());
    }
}
