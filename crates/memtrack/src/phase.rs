//! Per-phase peak memory attribution (reproduces the Figure 2 breakdown).
//!
//! The multilevel partitioner runs a sequence of named phases per level (clustering,
//! contraction, uncoarsening/refinement, ...). A [`PhaseTracker`] records, for each phase
//! invocation, the global peak memory observed *during* that phase together with the
//! memory held at phase entry. The resulting [`PhaseReport`]s form the stacked bars of
//! Figure 2 in the paper.

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::counter::global;

/// A cheap, cloneable view of the phase stack a [`PhaseTracker`] is currently inside.
///
/// The handle outlives borrow scopes (it shares the stack by `Arc`), so long-lived
/// observers — e.g. an I/O layer that wants to label a fault with the pipeline phase
/// it interrupted — can capture one and query it at any time from any thread.
#[derive(Debug, Clone, Default)]
pub struct PhaseHandle {
    stack: Arc<Mutex<Vec<String>>>,
}

impl PhaseHandle {
    /// The innermost phase currently running (phases may nest), or `None` between
    /// phases. Formatted as `"name@level"`, e.g. `"cluster@2"`.
    pub fn current(&self) -> Option<String> {
        self.stack.lock().last().cloned()
    }

    /// The full phase stack, outermost first.
    pub fn stack(&self) -> Vec<String> {
        self.stack.lock().clone()
    }
}

/// Pops the phase stack even when the phase body panics or returns early.
struct PhaseStackGuard<'a> {
    stack: &'a Mutex<Vec<String>>,
}

impl Drop for PhaseStackGuard<'_> {
    fn drop(&mut self) {
        self.stack.lock().pop();
    }
}

/// Statistics captured for one phase invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseReport {
    /// Phase name, e.g. `"cluster"`, `"contract"`, `"refine"`.
    pub name: String,
    /// Hierarchy level the phase ran on (0 = input graph).
    pub level: usize,
    /// Bytes live when the phase started.
    pub bytes_at_entry: usize,
    /// Peak bytes observed while the phase ran.
    pub peak_bytes: usize,
    /// Bytes live when the phase finished.
    pub bytes_at_exit: usize,
    /// Wall-clock time spent in the phase.
    pub elapsed: Duration,
}

impl PhaseReport {
    /// Auxiliary memory attributable to the phase itself: peak minus what was already
    /// live at entry (e.g. the input graph and the hierarchy built so far).
    pub fn auxiliary_bytes(&self) -> usize {
        self.peak_bytes.saturating_sub(self.bytes_at_entry)
    }
}

/// Records per-phase peak memory and timing for a partitioner run.
#[derive(Debug, Default)]
pub struct PhaseTracker {
    reports: Mutex<Vec<PhaseReport>>,
    active: PhaseHandle,
}

impl PhaseTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// A cloneable handle to the live phase stack, for observers that need to know
    /// *which* phase the run is in right now (see [`PhaseHandle`]).
    pub fn phase_handle(&self) -> PhaseHandle {
        self.active.clone()
    }

    /// Runs `f` as a named phase, capturing entry/peak/exit memory and elapsed time.
    ///
    /// Phases may nest; each invocation produces its own report. The global peak counter
    /// is reset to the current value at phase entry so that the recorded peak belongs to
    /// this phase (the overall run peak is the maximum over all reports).
    pub fn run<T>(&self, name: &str, level: usize, f: impl FnOnce() -> T) -> T {
        self.run_reported(name, level, f).0
    }

    /// Like [`run`](Self::run), but also hands the caller the [`PhaseReport`] that was
    /// recorded, so observability layers can attach the phase's peak/elapsed figures
    /// to their own span without re-scanning [`reports`](Self::reports).
    pub fn run_reported<T>(
        &self,
        name: &str,
        level: usize,
        f: impl FnOnce() -> T,
    ) -> (T, PhaseReport) {
        let entry = global().current();
        global().reset_peak();
        self.active.stack.lock().push(format!("{}@{}", name, level));
        let guard = PhaseStackGuard {
            stack: &self.active.stack,
        };
        let start = Instant::now();
        let result = f();
        let elapsed = start.elapsed();
        drop(guard);
        let peak = global().peak();
        let exit = global().current();
        let report = PhaseReport {
            name: name.to_string(),
            level,
            bytes_at_entry: entry,
            peak_bytes: peak.max(entry),
            bytes_at_exit: exit,
            elapsed,
        };
        self.reports.lock().push(report.clone());
        (result, report)
    }

    /// Returns all reports recorded so far, in execution order.
    pub fn reports(&self) -> Vec<PhaseReport> {
        self.reports.lock().clone()
    }

    /// Returns the maximum phase peak, i.e. the overall peak memory of the tracked run.
    pub fn overall_peak(&self) -> usize {
        self.reports
            .lock()
            .iter()
            .map(|r| r.peak_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Returns the peak memory of the phase with the given name (max over levels), if any
    /// such phase was recorded.
    pub fn peak_of(&self, name: &str) -> Option<usize> {
        self.reports
            .lock()
            .iter()
            .filter(|r| r.name == name)
            .map(|r| r.peak_bytes)
            .max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::MemoryScope;

    #[test]
    fn phases_capture_peak_and_order() {
        let tracker = PhaseTracker::new();
        tracker.run("cluster", 0, || {
            let _scope = MemoryScope::charge_global(10 * 1024 * 1024);
        });
        tracker.run("contract", 0, || {
            let _scope = MemoryScope::charge_global(2 * 1024 * 1024);
        });
        let reports = tracker.reports();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].name, "cluster");
        assert_eq!(reports[1].name, "contract");
        assert!(reports[0].auxiliary_bytes() >= 10 * 1024 * 1024);
        assert!(reports[1].auxiliary_bytes() >= 2 * 1024 * 1024);
        assert!(tracker.overall_peak() >= 10 * 1024 * 1024);
    }

    #[test]
    fn peak_of_selects_by_name() {
        let tracker = PhaseTracker::new();
        tracker.run("cluster", 0, || {
            let _s = MemoryScope::charge_global(4096);
        });
        tracker.run("cluster", 1, || {
            let _s = MemoryScope::charge_global(128);
        });
        assert!(tracker.peak_of("cluster").unwrap() >= 4096);
        assert!(tracker.peak_of("refine").is_none());
    }

    #[test]
    fn run_returns_closure_value() {
        let tracker = PhaseTracker::new();
        let value = tracker.run("compute", 3, || 42);
        assert_eq!(value, 42);
        assert_eq!(tracker.reports()[0].level, 3);
    }

    #[test]
    fn phase_handle_tracks_the_live_stack() {
        let tracker = PhaseTracker::new();
        let handle = tracker.phase_handle();
        assert_eq!(handle.current(), None);
        tracker.run("outer", 0, || {
            assert_eq!(handle.current().as_deref(), Some("outer@0"));
            tracker.run("inner", 1, || {
                assert_eq!(handle.current().as_deref(), Some("inner@1"));
                assert_eq!(handle.stack(), vec!["outer@0", "inner@1"]);
            });
            assert_eq!(handle.current().as_deref(), Some("outer@0"));
        });
        assert_eq!(handle.current(), None, "stack drained after the phases");
    }

    #[test]
    fn phase_stack_is_popped_on_panic() {
        let tracker = PhaseTracker::new();
        let handle = tracker.phase_handle();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tracker.run("doomed", 0, || panic!("boom"));
        }));
        assert!(result.is_err());
        assert_eq!(handle.current(), None, "guard must pop on unwind");
    }
}
