//! Runtime invariant checking: machine-checked conservation laws.
//!
//! The simulator's credibility rests on a handful of physical ledgers —
//! pages never appear or vanish, every migration order is accounted for
//! exactly once, channels cannot drain faster than their capacity, a
//! thread never holds more misses than it has MSHRs.
//! [`MachineConfig::check_invariants`](crate::MachineConfig::check_invariants)
//! turns on per-window verification of every one of those ledgers; the
//! default (`false`) keeps the hot path untouched so production sweeps
//! stay byte-identical and pay nothing.
//!
//! Violations surface as [`SimError::Invariant`](crate::SimError) from
//! the `try_*` run APIs, carrying the window index, the invariant's
//! name, and a numeric account of the imbalance. The config fuzzer
//! (`tests/config_fuzz.rs`) prints the owning case index and seed next
//! to each violation.
//!
//! Invariants and their owning subsystems (see DESIGN.md §10):
//!
//! | family        | invariant                                           | owner |
//! |---------------|-----------------------------------------------------|-------|
//! | `pages`       | tier recount == incremental bookkeeping, cap bound  | `mem` |
//! | `migration`   | issued == executed + noop + shed + abandoned + live | `machine`/`fault` |
//! | `bandwidth`   | drained lines ≤ capacity; bytes == lines − stalls   | `tier`/`pmu` |
//! | `mshr`        | per-thread in-flight misses ≤ MSHRs, stores ≤ WB    | `machine` |
//! | `counters`    | PMU counters monotone; window edges strictly grow   | `pmu` |
//! | `windows`     | `WindowRecord` totals match machine-side counters   | `observe`/`obs` |

use crate::machine::WindowRecord;
use crate::mem::Memory;
use crate::pmu::PmuCounters;
use crate::tier::Channel;
use crate::types::LINE_BYTES;

/// A detected conservation-law violation: which window, which
/// invariant, and the numeric imbalance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Window index at whose boundary the check failed.
    pub window: u64,
    /// Name of the violated invariant (its family from the module
    /// docs' table, dash-qualified, e.g. `migration-ledger`).
    pub invariant: &'static str,
    /// Human-readable account of the imbalance.
    pub detail: String,
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invariant '{}' violated at window {}: {}",
            self.invariant, self.window, self.detail
        )
    }
}

/// Everything the checker inspects at one window boundary, borrowed
/// from the machine after the window's [`WindowRecord`] is pushed.
pub(crate) struct WindowCheck<'a> {
    /// Window index just closed.
    pub window: u64,
    /// Machine time at the boundary.
    pub edge: u64,
    pub mem: &'a Memory,
    pub counters: &'a PmuCounters,
    pub prev_snapshot: &'a PmuCounters,
    pub channels: &'a [Channel; 2],
    pub record: &'a WindowRecord,
    /// Non-mutating registry peek taken immediately before the record's
    /// snapshot; `None` skips the comparison.
    pub peeked_metrics: Option<Vec<(&'static str, f64)>>,
    /// Cumulative totals of the registry's channel-line counters.
    pub registry_chan_lines: [u64; 2],
    pub queue_len: usize,
    pub pending_retries: usize,
    pub promotions: u64,
    pub demotions: u64,
    pub failed_promotions: u64,
    pub dropped_orders: u64,
    /// Latest clock across all threads (bookings never exceed it).
    pub max_thread_now: u64,
    /// Largest per-thread in-flight miss count.
    pub max_inflight: usize,
    /// Largest per-thread write-buffer depth.
    pub max_write_buffer: usize,
    /// Configured MSHRs per thread.
    pub mshrs: usize,
    /// Configured write-buffer depth.
    pub write_buffer_cap: usize,
}

/// Slack factor for floating-point channel-capacity comparisons.
const CAP_EPS: f64 = 1.0 + 1e-6;

/// Live checker state: the order/page ledgers the machine feeds through
/// `note_*` hooks, plus cross-window monotonicity state.
#[derive(Debug, Clone)]
pub(crate) struct InvariantChecker {
    // Order ledger (in orders).
    issued: u64,
    executed: u64,
    noops: u64,
    shed: u64,
    abandoned: u64,
    // Page ledger (in base pages).
    pages_moved: u64,
    // Injected channel-stall lines per tier (booked without bytes).
    stall_lines: [u64; 2],
    // Monotonicity state.
    last_mapped: u64,
    next_window: u64,
    last_edge: Option<u64>,
    // Window-record sums checked against run totals at the end.
    sum_promotions: u64,
    sum_demotions: u64,
    sum_failed: u64,
    sum_dropped: u64,
    sum_accesses: u64,
}

impl InvariantChecker {
    pub fn new() -> Self {
        Self {
            issued: 0,
            executed: 0,
            noops: 0,
            shed: 0,
            abandoned: 0,
            pages_moved: 0,
            stall_lines: [0; 2],
            last_mapped: 0,
            next_window: 0,
            last_edge: None,
            sum_promotions: 0,
            sum_demotions: 0,
            sum_failed: 0,
            sum_dropped: 0,
            sum_accesses: 0,
        }
    }

    /// A policy issued a migration order (sync or async).
    #[inline]
    pub fn note_issued(&mut self) {
        self.issued += 1;
    }

    /// An order moved `pages` base pages.
    #[inline]
    pub fn note_executed(&mut self, pages: u64) {
        self.executed += 1;
        self.pages_moved += pages;
    }

    /// An order executed but moved nothing (unmapped unit, already
    /// resident, or fast tier full).
    #[inline]
    pub fn note_noop(&mut self) {
        self.noops += 1;
    }

    /// An order was shed before execution (injected drop or daemon
    /// queue overflow).
    #[inline]
    pub fn note_shed(&mut self) {
        self.shed += 1;
    }

    /// A transiently failed order exhausted its retries.
    #[inline]
    pub fn note_abandoned(&mut self) {
        self.abandoned += 1;
    }

    /// An injected stall booked `lines` on channel `tidx` without
    /// moving bytes.
    #[inline]
    pub fn note_stall(&mut self, tidx: usize, lines: u64) {
        self.stall_lines[tidx] += lines;
    }

    fn fail(
        &self,
        window: u64,
        invariant: &'static str,
        detail: String,
    ) -> Result<(), InvariantViolation> {
        Err(InvariantViolation {
            window,
            invariant,
            detail,
        })
    }

    /// Verifies every invariant at one window boundary.
    pub fn check_window(&mut self, cx: WindowCheck<'_>) -> Result<(), InvariantViolation> {
        let w = cx.window;
        let (fast, slow) = cx.mem.recount();
        if fast != cx.mem.fast_used() {
            return self.fail(
                w,
                "pages-recount",
                format!(
                    "page-table recount finds {fast} fast pages but incremental \
                     bookkeeping says {}",
                    cx.mem.fast_used()
                ),
            );
        }
        if fast > cx.mem.fast_capacity() {
            return self.fail(
                w,
                "pages-capacity",
                format!(
                    "fast tier holds {fast} pages, over its capacity of {}",
                    cx.mem.fast_capacity()
                ),
            );
        }
        let mapped = fast + slow;
        if mapped < self.last_mapped {
            return self.fail(
                w,
                "pages-mapped",
                format!(
                    "mapped page count shrank from {} to {mapped}; pages cannot unmap",
                    self.last_mapped
                ),
            );
        }
        self.last_mapped = mapped;
        let settled = self.executed + self.noops + self.shed + self.abandoned;
        let live = cx.queue_len as u64 + cx.pending_retries as u64;
        if self.issued != settled + live {
            return self.fail(
                w,
                "migration-ledger",
                format!(
                    "order ledger imbalance: issued={} != executed={} + noop={} + \
                     shed={} + abandoned={} + queued={} + retrying={}",
                    self.issued,
                    self.executed,
                    self.noops,
                    self.shed,
                    self.abandoned,
                    cx.queue_len,
                    cx.pending_retries
                ),
            );
        }
        if cx.promotions + cx.demotions != self.pages_moved {
            return self.fail(
                w,
                "migration-pages",
                format!(
                    "promoted {} + demoted {} base pages but the page ledger \
                     recorded {} moved",
                    cx.promotions, cx.demotions, self.pages_moved
                ),
            );
        }
        // Reports can only see shed/abandoned orders through these
        // two counters, so they must cover the ledger's totals.
        if cx.dropped_orders + cx.failed_promotions < self.shed + self.abandoned {
            return self.fail(
                w,
                "migration-failures",
                format!(
                    "dropped={} + failed={} under-counts shed={} + abandoned={}",
                    cx.dropped_orders, cx.failed_promotions, self.shed, self.abandoned
                ),
            );
        }
        let horizon = cx.edge.max(cx.max_thread_now);
        for tidx in 0..2 {
            let ch = &cx.channels[tidx];
            let booked = ch.lines_booked() as f64;
            let backlog = ch.backlog_lines_at(horizon);
            let drained = booked - backlog;
            // +2 epochs of slack: the current partially-filled epoch
            // plus ring-expiry rounding.
            let capacity = (Channel::epoch_index(horizon) + 2) as f64 * ch.epoch_capacity_lines();
            if drained > capacity * CAP_EPS {
                return self.fail(
                    w,
                    "bandwidth-capacity",
                    format!(
                        "channel {tidx} drained {drained:.1} lines by cycle {horizon}, \
                         over its capacity of {capacity:.1}"
                    ),
                );
            }
            let bytes_lines = cx.counters.bytes[tidx] / LINE_BYTES;
            if bytes_lines + self.stall_lines[tidx] != ch.lines_booked() {
                return self.fail(
                    w,
                    "bandwidth-bytes",
                    format!(
                        "channel {tidx} booked {} lines but PMU bytes account for {} \
                         (+{} injected stall lines)",
                        ch.lines_booked(),
                        bytes_lines,
                        self.stall_lines[tidx]
                    ),
                );
            }
        }
        if cx.max_inflight > cx.mshrs {
            return self.fail(
                w,
                "mshr-inflight",
                format!(
                    "a thread holds {} in-flight misses with only {} MSHRs",
                    cx.max_inflight, cx.mshrs
                ),
            );
        }
        if cx.max_write_buffer > cx.write_buffer_cap {
            return self.fail(
                w,
                "mshr-write-buffer",
                format!(
                    "a thread buffers {} stores with a write-buffer depth of {}",
                    cx.max_write_buffer, cx.write_buffer_cap
                ),
            );
        }
        if let Some(field) = nonmonotone_field(cx.counters, cx.prev_snapshot) {
            return self.fail(
                w,
                "counters-monotone",
                format!("PMU counter '{field}' decreased within the window"),
            );
        }
        if cx.record.index != self.next_window {
            return self.fail(
                w,
                "counters-window-index",
                format!(
                    "window record index {} where {} was expected",
                    cx.record.index, self.next_window
                ),
            );
        }
        if let Some(last) = self.last_edge {
            if cx.record.end_cycles <= last {
                return self.fail(
                    w,
                    "counters-window-edge",
                    format!(
                        "window edge {} did not advance past the previous edge {last}",
                        cx.record.end_cycles
                    ),
                );
            }
        }
        if let Some(peeked) = &cx.peeked_metrics {
            if *peeked != cx.record.metrics {
                return self.fail(
                    w,
                    "windows-metrics",
                    format!(
                        "window metrics snapshot ({} entries) disagrees with the \
                         registry peek ({} entries)",
                        cx.record.metrics.len(),
                        peeked.len()
                    ),
                );
            }
        }
        for tidx in 0..2 {
            if cx.registry_chan_lines[tidx] != cx.channels[tidx].lines_booked() {
                return self.fail(
                    w,
                    "windows-channel-lines",
                    format!(
                        "registry counted {} lines on channel {tidx} but the channel \
                         booked {}",
                        cx.registry_chan_lines[tidx],
                        cx.channels[tidx].lines_booked()
                    ),
                );
            }
        }
        self.sum_promotions += cx.record.promotions;
        self.sum_demotions += cx.record.demotions;
        self.sum_failed += cx.record.failed_promotions;
        self.sum_dropped += cx.record.dropped_orders;
        self.sum_accesses += cx.record.delta.accesses;
        self.next_window = cx.window + 1;
        self.last_edge = Some(cx.record.end_cycles);
        Ok(())
    }

    /// End-of-run reconciliation: window-record sums must equal the run
    /// totals the report carries.
    pub fn check_final(
        &self,
        promotions: u64,
        demotions: u64,
        failed_promotions: u64,
        dropped_orders: u64,
        counters: &PmuCounters,
    ) -> Result<(), InvariantViolation> {
        let checks = [
            ("promotions", self.sum_promotions, promotions),
            ("demotions", self.sum_demotions, demotions),
            ("failed_promotions", self.sum_failed, failed_promotions),
            ("dropped_orders", self.sum_dropped, dropped_orders),
            ("accesses", self.sum_accesses, counters.accesses),
        ];
        for (name, windows, total) in checks {
            if windows != total {
                return Err(InvariantViolation {
                    window: self.next_window,
                    invariant: "windows-run-totals",
                    detail: format!(
                        "window records sum {name}={windows} but the run total is {total}"
                    ),
                });
            }
        }
        Ok(())
    }
}

/// Returns the name of the first PMU counter field that decreased from
/// `prev` to `cur`, or `None` when all are monotone.
fn nonmonotone_field(cur: &PmuCounters, prev: &PmuCounters) -> Option<&'static str> {
    macro_rules! check {
        ($($field:ident),*) => {
            $(if cur.$field < prev.$field { return Some(stringify!($field)); })*
        };
    }
    macro_rules! check2 {
        ($($field:ident),*) => {
            $(for i in 0..2 {
                if cur.$field[i] < prev.$field[i] {
                    return Some(stringify!($field));
                }
            })*
        };
    }
    check!(accesses, loads, stores, llc_hits, hint_faults, pebs_samples);
    check2!(
        llc_misses,
        llc_stalls,
        tor_occupancy,
        tor_busy,
        demand_latency_sum,
        bytes,
        prefetches
    );
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::FirstTouch;
    use crate::workload::TraceWorkload;
    use crate::{Access, Machine, MachineConfig, SimError, PAGE_BYTES};

    fn checked_cfg(fast_pages: u64) -> MachineConfig {
        let mut cfg = MachineConfig::skylake_cxl(fast_pages);
        cfg.llc.size_bytes = 64 * 1024;
        cfg.window_cycles = 50_000;
        cfg.check_invariants = true;
        cfg
    }

    fn chase(pages: u64, count: u64) -> Vec<Access> {
        let mut v = Vec::with_capacity(count as usize);
        let mut x = 99u64;
        for _ in 0..count {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            v.push(Access::dependent_load((x % pages) * PAGE_BYTES));
        }
        v
    }

    #[test]
    fn clean_run_passes_all_invariants() {
        let wl = TraceWorkload::new("chase", 1 << 22, chase(800, 20_000));
        let m = Machine::new(checked_cfg(100)).unwrap();
        let r = m.try_run(&wl, &mut FirstTouch::new()).unwrap();
        assert!(r.total_cycles > 0);
    }

    #[test]
    fn checked_run_report_is_identical_to_unchecked() {
        let wl = TraceWorkload::new("chase", 1 << 22, chase(800, 20_000));
        let mut plain_cfg = checked_cfg(100);
        plain_cfg.check_invariants = false;
        let plain = Machine::new(plain_cfg)
            .unwrap()
            .try_run(&wl, &mut FirstTouch::new())
            .expect("run succeeds");
        let checked = Machine::new(checked_cfg(100))
            .unwrap()
            .try_run(&wl, &mut FirstTouch::new())
            .expect("run succeeds");
        assert_eq!(plain.to_json(), checked.to_json());
    }

    /// The acceptance-criteria scenario: a one-line accounting bug — an
    /// order that enters the ledger but is never settled, exactly what
    /// forgetting a `note_shed()` at a drop site would produce — must be
    /// caught at the next window boundary with the imbalance spelled out.
    #[test]
    fn deliberately_unbalanced_ledger_is_caught() {
        let mut c = InvariantChecker::new();
        c.note_issued();
        c.note_issued();
        c.note_executed(4);
        // Bug under test: the second order was dropped but never noted.
        let mem = Memory::new(16, 8, 1);
        let counters = PmuCounters::default();
        let record = WindowRecord {
            index: 0,
            end_cycles: 50_000,
            promotions: 4,
            demotions: 0,
            failed_promotions: 0,
            dropped_orders: 0,
            trace_dropped_events: 0,
            delta: PmuCounters::default(),
            telemetry: Vec::new(),
            metrics: Vec::new(),
        };
        let err = c
            .check_window(WindowCheck {
                window: 0,
                edge: 50_000,
                mem: &mem,
                counters: &counters,
                prev_snapshot: &counters,
                channels: &[Channel::new(2.7), Channel::new(4.4)],
                record: &record,
                peeked_metrics: None,
                registry_chan_lines: [0; 2],
                queue_len: 0,
                pending_retries: 0,
                promotions: 4,
                demotions: 0,
                failed_promotions: 0,
                dropped_orders: 0,
                max_thread_now: 50_000,
                max_inflight: 0,
                max_write_buffer: 0,
                mshrs: 10,
                write_buffer_cap: 32,
            })
            .unwrap_err();
        assert_eq!(err.invariant, "migration-ledger");
        assert!(err.to_string().contains("issued=2"), "{err}");
        // Balancing the ledger with the missing note clears the check.
        let mut c = InvariantChecker::new();
        c.note_issued();
        c.note_issued();
        c.note_executed(4);
        c.note_shed();
        assert!(c
            .check_window(WindowCheck {
                window: 0,
                edge: 50_000,
                mem: &mem,
                counters: &counters,
                prev_snapshot: &counters,
                channels: &[Channel::new(2.7), Channel::new(4.4)],
                record: &record,
                peeked_metrics: None,
                registry_chan_lines: [0; 2],
                queue_len: 0,
                pending_retries: 0,
                promotions: 4,
                demotions: 0,
                failed_promotions: 0,
                dropped_orders: 1,
                max_thread_now: 50_000,
                max_inflight: 0,
                max_write_buffer: 0,
                mshrs: 10,
                write_buffer_cap: 32,
            })
            .is_ok());
    }

    #[test]
    fn faulted_run_still_balances_its_ledgers() {
        use crate::fault::FaultPlan;
        let wl = TraceWorkload::new("chase", 1 << 22, chase(800, 20_000));
        let mut cfg = checked_cfg(64);
        cfg.fault_plan = Some(
            FaultPlan::parse("drop=0.3,fail=0.5,retries=2,stall=slow:5000:0.5,seed=11").unwrap(),
        );
        let m = Machine::new(cfg).unwrap();
        // A policy that issues orders so the fault paths are exercised:
        // hint-fault scanning promotes on touch via TPP-style sync isn't
        // available here, so drive the daemon through demotions instead.
        struct Churn;
        impl crate::TieringPolicy for Churn {
            fn name(&self) -> &str {
                "churn"
            }
            fn on_window(&mut self, _w: &crate::WindowStats, ctx: &mut crate::PolicyCtx) {
                for head in ctx.cold_fast_units(8) {
                    ctx.demote(head);
                }
                for head in ctx.scan_slow_units(8) {
                    ctx.promote(head);
                }
            }
        }
        let r = m.try_run(&wl, &mut Churn).unwrap();
        assert!(
            r.promotions + r.demotions + r.failed_promotions + r.dropped_orders > 0,
            "churn policy should generate migration traffic"
        );
    }

    #[test]
    fn violation_surfaces_as_sim_error_with_display() {
        let v = InvariantViolation {
            window: 3,
            invariant: "pages-recount",
            detail: "recount finds 7 fast pages but bookkeeping says 9".into(),
        };
        let e = SimError::Invariant(v.clone());
        let msg = e.to_string();
        assert!(msg.contains("pages-recount"), "{msg}");
        assert!(msg.contains("window 3"), "{msg}");
        assert_eq!(v.to_string(), msg);
    }
}
