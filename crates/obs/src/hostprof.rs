//! Host-side hierarchical span profiler for the simulator's own
//! phases (run, window loop, policy step).
//!
//! # The dual-clock rule
//!
//! This module is the **only** sanctioned wall-clock reader among the
//! deterministic crates: the `#![expect]` below waives clippy's
//! `disallowed_types` (D002 `det-wall-clock`, DESIGN.md §11) for this
//! file alone, and the root `clippy.toml` keeps it firing everywhere
//! else. The discipline
//! that makes this safe is one-directional data flow — spans *read*
//! the host clock but never write anything the simulation can observe:
//! no sim state, no metrics registry, no tracer events, no report
//! fields. Host profiles are explicitly nondeterministic (they measure
//! this machine, this run) and must never feed a deterministic
//! artifact. The `tierctl` CLI test
//! `report_with_prof_emits_summary_on_stderr_only` pins that enabling
//! the profiler leaves every criticality-report byte unchanged.
//!
//! # Use
//!
//! Profiling is off by default and costs one relaxed atomic load per
//! [`span`] call — no allocation, no time read — so instrumentation
//! can sit on warm paths. Binaries opt in from `PACT_PROF=1` via
//! [`set_enabled`]; RAII [`Span`] guards time a region and record into
//! a global, process-wide profile keyed by the `;`-joined path of
//! enclosing span names (each thread tracks its own stack; totals
//! merge across threads).
//!
//! ```
//! pact_obs::hostprof::set_enabled(true);
//! {
//!     let _w = pact_obs::hostprof::span("window");
//!     let _m = pact_obs::hostprof::span("policy_step");
//! } // both spans record on drop
//! let text = pact_obs::hostprof::summary();
//! assert!(text.contains("window;policy_step"));
//! pact_obs::hostprof::set_enabled(false);
//! pact_obs::hostprof::reset();
//! ```

#![expect(
    clippy::disallowed_types,
    reason = "the host self-profiler times the simulator itself and never feeds sim output"
)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Aggregated timing of one span path.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanStat {
    /// Times the span was entered.
    pub count: u64,
    /// Total wall time inside the span, in nanoseconds (inclusive of
    /// child spans).
    pub total_ns: u128,
}

fn profile() -> &'static Mutex<BTreeMap<String, SpanStat>> {
    static PROFILE: OnceLock<Mutex<BTreeMap<String, SpanStat>>> = OnceLock::new();
    PROFILE.get_or_init(|| Mutex::new(BTreeMap::new()))
}

thread_local! {
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Turns profiling on or off process-wide. Spans opened while disabled
/// never record, even if profiling is enabled before they drop.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether profiling is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Discards all recorded span statistics.
pub fn reset() {
    if let Ok(mut map) = profile().lock() {
        map.clear();
    }
}

/// Opens a span named `name`. Returns a guard that records the span's
/// wall time when dropped. When profiling is disabled this is a single
/// atomic load and the guard is inert.
#[must_use = "the span records on drop; binding it to _ ends it immediately"]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { start: None };
    }
    STACK.with(|s| s.borrow_mut().push(name));
    Span {
        start: Some(Instant::now()),
    }
}

/// RAII guard for one span occurrence (see [`span`]).
#[derive(Debug)]
pub struct Span {
    start: Option<Instant>,
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start.take() else {
            return;
        };
        let elapsed = start.elapsed().as_nanos();
        let path = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let path = stack.join(";");
            stack.pop();
            path
        });
        if let Ok(mut map) = profile().lock() {
            let stat = map.entry(path).or_default();
            stat.count += 1;
            stat.total_ns += elapsed;
        }
    }
}

/// A copy of the recorded profile: `(path, stat)` pairs in path order.
pub fn snapshot() -> Vec<(String, SpanStat)> {
    match profile().lock() {
        Ok(map) => map.iter().map(|(k, v)| (k.clone(), *v)).collect(),
        Err(_) => Vec::new(),
    }
}

/// Renders the profile as an aligned text table (path, call count,
/// total and mean wall time), one line per span path, paths sorted.
/// Empty string when nothing was recorded.
pub fn summary() -> String {
    let snap = snapshot();
    if snap.is_empty() {
        return String::new();
    }
    let width = snap.iter().map(|(p, _)| p.len()).max().unwrap_or(0).max(4);
    let mut out = format!(
        "{:width$}  {:>10}  {:>12}  {:>12}\n",
        "span", "calls", "total_ms", "mean_us"
    );
    for (path, stat) in &snap {
        let total_ms = stat.total_ns as f64 / 1e6;
        let mean_us = if stat.count == 0 {
            0.0
        } else {
            stat.total_ns as f64 / stat.count as f64 / 1e3
        };
        out.push_str(&format!(
            "{path:width$}  {:>10}  {total_ms:>12.3}  {mean_us:>12.3}\n",
            stat.count
        ));
    }
    out
}

/// Renders the profile in collapsed-stack ("folded") format with
/// nanosecond sample counts, suitable for flamegraph tooling. The
/// numbers are host wall times — nondeterministic by nature — so this
/// artifact must never be byte-compared or mixed into sim output.
pub fn folded() -> String {
    let mut f = crate::attribution::FoldedStacks::new();
    for (path, stat) in snapshot() {
        let frames: Vec<&str> = path.split(';').collect();
        // Invariant: paths are ';'-joined non-empty names, so the
        // split is non-empty and frames carry no delimiters.
        f.line(&frames, stat.total_ns.min(u128::from(u64::MAX)) as u64);
    }
    f.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The profiler is process-global state, so everything is exercised
    // in one test to avoid cross-test interference under the parallel
    // test runner.
    #[test]
    fn spans_record_only_when_enabled_and_nest_into_paths() {
        reset();
        set_enabled(false);
        {
            let _s = span("disabled_root");
        }
        assert!(
            !snapshot().iter().any(|(p, _)| p.contains("disabled_root")),
            "disabled spans must not record"
        );

        set_enabled(true);
        {
            let _outer = span("hp_outer");
            for _ in 0..3 {
                let _inner = span("hp_inner");
            }
        }
        set_enabled(false);

        let snap = snapshot();
        let inner = snap
            .iter()
            .find(|(p, _)| p == "hp_outer;hp_inner")
            .expect("nested path recorded");
        assert_eq!(inner.1.count, 3);
        let outer = snap
            .iter()
            .find(|(p, _)| p == "hp_outer")
            .expect("root path recorded");
        assert_eq!(outer.1.count, 1);
        assert!(
            outer.1.total_ns >= inner.1.total_ns,
            "parent time includes children"
        );

        let text = summary();
        assert!(text.contains("hp_outer;hp_inner"));
        assert!(text.contains("calls"));
        let flame = folded();
        assert!(flame.contains("hp_outer;hp_inner "));

        reset();
        assert!(!snapshot().iter().any(|(p, _)| p.starts_with("hp_")));
        assert_eq!(summary(), "");
    }
}
