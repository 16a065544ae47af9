//! The tiering-policy interface: how PACT and every baseline plug into
//! the simulated machine.
//!
//! A policy receives sampled memory events ([`SampleEvent`]) as they
//! occur and a counter snapshot at every sampling-window boundary
//! ([`WindowStats`]). In both callbacks it may queue page migrations and
//! adjust the hint-fault scan rate through [`PolicyCtx`]. The machine
//! charges all mechanism costs — hint faults on the critical path,
//! migration daemon CPU budget, channel bandwidth for page copies, TLB
//! shootdowns — so policies compete on decisions, not accounting tricks.

use pact_obs::MetricsRegistry;

use crate::chmu::Chmu;
use crate::error::SimError;
use crate::mem::Memory;
use crate::pmu::{PmuCounters, SampleEvent};
use crate::types::{PageId, Tier};

/// Static facts about the machine a policy is about to run on, passed to
/// [`TieringPolicy::prepare`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineInfo {
    /// Fast-tier capacity in base pages.
    pub fast_tier_pages: u64,
    /// Total addressable base pages across all processes.
    pub total_pages: u64,
    /// Whether allocation/migration is at huge-page granularity.
    pub thp: bool,
    /// Base pages per allocation/migration unit (1 without THP).
    pub unit_span: u64,
    /// Cycles per sampling window.
    pub window_cycles: u64,
    /// Unloaded tier latencies in cycles, indexed by [`Tier::index`].
    pub latency_cycles: [u64; 2],
    /// PEBS sampling period (1 sample per `pebs_rate` events).
    pub pebs_rate: u64,
    /// Core frequency in GHz.
    pub freq_ghz: f64,
    /// MSHRs per hardware thread (upper bound on per-thread MLP).
    pub mshrs: usize,
    /// Colocated processes in the run (1 unless colocated).
    pub processes: usize,
}

/// A queued page-migration request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationOrder {
    /// Any page of the unit to migrate.
    pub page: PageId,
    /// Destination tier.
    pub to: Tier,
    /// If true the migration runs synchronously on the thread that
    /// triggered the current callback (TPP promotes in the fault path);
    /// otherwise the background daemon performs it within its budget.
    pub sync: bool,
}

/// Cumulative run totals snapshotted into each [`PolicyCtx`]: how many
/// base pages moved so far and — for graceful degradation under fault
/// injection or queue pressure — how many orders failed or were shed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct CtxTotals {
    /// Base pages promoted so far.
    pub promotions: u64,
    /// Base pages demoted so far.
    pub demotions: u64,
    /// Promotions rejected (no fast-tier space or injected failure).
    pub failed_promotions: u64,
    /// Orders dropped (daemon-queue overflow or injected drop).
    pub dropped_orders: u64,
    /// Index of the current sampling window.
    pub window: u64,
    /// Whether a fault-injection plan is active this run. Policies key
    /// their degradation paths on this so fault-free runs stay
    /// bit-identical to builds without the fault layer.
    pub faults_active: bool,
    /// Channel backlog per tier at the last window edge, in cycles.
    pub channel_backlog: [f64; 2],
    /// Cumulative migration orders rejected by admission control; set
    /// by [`Admission`](crate::Admission) for the policy it wraps.
    pub admission_rejected: u64,
}

/// Index of the process owning `page`, given each process's first base
/// page in ascending order: processes own disjoint page ranges.
#[inline]
pub(crate) fn owner_of(process_base: &[u64], page: PageId) -> usize {
    // Process 0 starts at page 0, so one start is always <= page.
    process_base
        .partition_point(|&b| b <= page.0)
        .saturating_sub(1)
}

/// Per-window counter view handed to [`TieringPolicy::on_window`].
#[derive(Debug, Clone, Copy)]
pub struct WindowStats<'a> {
    /// Zero-based window index.
    pub index: u64,
    /// Machine time at the window boundary, in cycles.
    pub end_cycles: u64,
    /// Counter deltas for this window alone.
    pub delta: PmuCounters,
    /// Cumulative counters since the run started.
    pub cumulative: &'a PmuCounters,
}

/// Capability handle through which a policy inspects memory state and
/// requests actions. Borrowed mutably for the duration of one callback.
///
/// The order/telemetry sinks are borrowed from the machine rather than
/// owned, so the per-sample hot path reuses two long-lived buffers
/// instead of allocating fresh vectors on every delivered sample.
#[derive(Debug)]
pub struct PolicyCtx<'a> {
    mem: &'a mut Memory,
    chmu: Option<&'a mut Chmu>,
    orders: &'a mut Vec<MigrationOrder>,
    telemetry: &'a mut Vec<(&'static str, f64)>,
    hint_scan_per_window: &'a mut u64,
    metrics: &'a mut MetricsRegistry,
    /// First base page of each colocated process, ascending.
    process_base: &'a [u64],
    totals: CtxTotals,
}

impl<'a> PolicyCtx<'a> {
    #[expect(
        clippy::too_many_arguments,
        reason = "one borrow per machine table the policy may touch"
    )]
    pub(crate) fn new(
        mem: &'a mut Memory,
        chmu: Option<&'a mut Chmu>,
        orders: &'a mut Vec<MigrationOrder>,
        telemetry: &'a mut Vec<(&'static str, f64)>,
        hint_scan_per_window: &'a mut u64,
        metrics: &'a mut MetricsRegistry,
        process_base: &'a [u64],
        totals: CtxTotals,
    ) -> Self {
        Self {
            mem,
            chmu,
            orders,
            telemetry,
            hint_scan_per_window,
            metrics,
            process_base,
            totals,
        }
    }

    /// The orders pushed so far in this callback.
    pub(crate) fn orders_mut(&mut self) -> &mut Vec<MigrationOrder> {
        self.orders
    }

    /// The totals this callback reports.
    pub(crate) fn totals_mut(&mut self) -> &mut CtxTotals {
        &mut self.totals
    }

    /// Queues a background promotion of the unit containing `page`.
    pub fn promote(&mut self, page: PageId) {
        self.orders.push(MigrationOrder {
            page,
            to: Tier::Fast,
            sync: false,
        });
    }

    /// Queues a *synchronous* promotion: the triggering thread pays the
    /// migration latency (the TPP fault-path promotion model).
    pub fn promote_sync(&mut self, page: PageId) {
        self.orders.push(MigrationOrder {
            page,
            to: Tier::Fast,
            sync: true,
        });
    }

    /// Queues a background demotion of the unit containing `page`.
    pub fn demote(&mut self, page: PageId) {
        self.orders.push(MigrationOrder {
            page,
            to: Tier::Slow,
            sync: false,
        });
    }

    /// Residency of a page, `None` if never touched.
    pub fn tier_of(&self, page: PageId) -> Option<Tier> {
        self.mem.tier_of(page)
    }

    /// Fast-tier capacity in base pages.
    pub fn fast_capacity(&self) -> u64 {
        self.mem.fast_capacity()
    }

    /// Base pages currently resident in the fast tier.
    pub fn fast_used(&self) -> u64 {
        self.mem.fast_used()
    }

    /// Free base pages in the fast tier.
    pub fn fast_free(&self) -> u64 {
        self.mem.fast_free()
    }

    /// Base pages per migration unit (1, or 512 under THP).
    pub fn unit_span(&self) -> u64 {
        self.mem.unit_span()
    }

    /// Head page of the migration unit containing `page`.
    pub fn unit_head(&self, page: PageId) -> PageId {
        self.mem.unit_head(page)
    }

    /// Up to `n` cold fast-tier unit heads from the kernel CLOCK list
    /// (the standard demotion candidate source).
    pub fn cold_fast_units(&mut self, n: usize) -> Vec<PageId> {
        self.mem.pop_cold_fast_units(n)
    }

    /// Direct-reclaim variant: fills the demand past the cold supply by
    /// evicting referenced units in clock order, as the kernel does
    /// when reclaim escalates. Use sparingly — this is how eager
    /// demotion guarantees space for genuinely critical promotions.
    pub fn reclaim_fast_units(&mut self, n: usize) -> Vec<PageId> {
        self.mem.reclaim_fast_units(n)
    }

    /// Up to `n` slow-tier unit heads in round-robin scan order.
    pub fn scan_slow_units(&mut self, n: usize) -> Vec<PageId> {
        self.mem.scan_slow_units(n)
    }

    /// Last window in which the unit containing `page` was touched.
    pub fn last_touch_window(&self, page: PageId) -> u32 {
        self.mem.last_touch_window(page)
    }

    /// Sets how many slow-tier pages per window the kernel poisons for
    /// hint-fault sampling (0 disables scanning). Fault-driven systems
    /// (NBT, TPP, Colloid, Nomad) pay for their visibility this way.
    pub fn set_hint_scan_rate(&mut self, pages_per_window: u64) {
        *self.hint_scan_per_window = pages_per_window;
    }

    /// Cumulative promotions (base pages) executed so far in this run.
    pub fn promotions(&self) -> u64 {
        self.totals.promotions
    }

    /// Cumulative demotions (base pages) executed so far in this run.
    pub fn demotions(&self) -> u64 {
        self.totals.demotions
    }

    /// Cumulative promotions that failed so far — fast tier full, or a
    /// transient (possibly injected) migration failure that exhausted
    /// its retries. Policies use this to detect a struggling migration
    /// path and degrade gracefully (e.g. widen eager-demotion headroom).
    pub fn failed_promotions(&self) -> u64 {
        self.totals.failed_promotions
    }

    /// Cumulative migration orders dropped so far — daemon-queue
    /// overflow, or an injected admission-control drop.
    pub fn dropped_orders(&self) -> u64 {
        self.totals.dropped_orders
    }

    /// Index of the current sampling window.
    pub fn window_index(&self) -> u64 {
        self.totals.window
    }

    /// Whether this run has an active fault-injection plan (see
    /// [`crate::FaultPlan`]). Degradation heuristics that react to
    /// [`failed_promotions`](Self::failed_promotions) /
    /// [`dropped_orders`](Self::dropped_orders) should check this so
    /// fault-free runs are unaffected by incidental capacity failures.
    pub fn fault_injection_active(&self) -> bool {
        self.totals.faults_active
    }

    /// Index of the colocated process whose address space holds
    /// `page` (0 in a run of one process).
    pub fn owner_of(&self, page: PageId) -> usize {
        owner_of(self.process_base, page)
    }

    /// Backlog of each tier's channel at the last window edge, in
    /// cycles, indexed by [`Tier::index`] (0 before the first edge).
    pub fn channel_backlog_cycles(&self) -> [f64; 2] {
        self.totals.channel_backlog
    }

    /// Cumulative migration orders rejected by admission control
    /// (token exhaustion or channel backpressure). Always 0 unless the
    /// policy runs inside an [`Admission`](crate::Admission).
    pub fn admission_rejections(&self) -> u64 {
        self.totals.admission_rejected
    }

    /// Records a named time-series value for this window (e.g. PACT's
    /// current bin width); surfaces in the run report for Figures 8–9.
    pub fn telemetry(&mut self, key: &'static str, value: f64) {
        self.telemetry.push((key, value));
    }

    /// The machine's metrics registry: policies may register their own
    /// counters/gauges/histograms here (ideally once, in the first
    /// callback) and update them each window; the registry is
    /// snapshotted into every [`WindowRecord`](crate::WindowRecord).
    pub fn metrics(&mut self) -> &mut MetricsRegistry {
        self.metrics
    }

    /// Reads and resets the CHMU: the hot list `(page, exact-ish count)`
    /// of slow-tier accesses since the last read, hottest first,
    /// truncated to `n`. Returns `None` when the machine has no CHMU.
    pub fn read_chmu(&mut self, n: usize) -> Option<(Vec<(PageId, u64)>, u64)> {
        let chmu = self.chmu.as_deref_mut()?;
        let hot = chmu.read_hot(n);
        let total = chmu.total();
        chmu.reset();
        Some((hot, total))
    }
}

/// A tiered-memory management policy.
///
/// Implementations decide which pages live in the fast tier, using only
/// information a real kernel/daemon could obtain: PEBS samples, hint
/// faults, aggregate PMU counters (misses, TOR occupancy — not the
/// simulator's ground-truth stall split), and page-table metadata.
pub trait TieringPolicy {
    /// Short identifier used in reports (e.g. `"pact"`, `"colloid"`).
    fn name(&self) -> &str;

    /// PEBS scope this policy needs, overriding the machine default
    /// (PACT samples slow-tier misses only; Memtis samples both tiers).
    /// `None` keeps the machine configuration.
    fn pebs_scope(&self) -> Option<crate::config::PebsScope> {
        None
    }

    /// Refuses a run this policy cannot govern, before the first access.
    /// The default accepts every run.
    ///
    /// # Errors
    ///
    /// The reason the run is refused.
    fn check(&self, _info: &MachineInfo) -> Result<(), SimError> {
        Ok(())
    }

    /// Called once before the run starts with machine parameters.
    fn prepare(&mut self, _info: &MachineInfo) {}

    /// Allocation-time placement hint for a first-touched page. `None`
    /// (the default) keeps kernel first-touch allocation; `Some(tier)`
    /// requests that tier (a full fast tier still falls back to slow).
    /// Soar's profile-guided object placement uses this hook.
    fn place(&self, _page: PageId) -> Option<Tier> {
        None
    }

    /// Called for every delivered sample event (PEBS or hint fault).
    fn on_sample(&mut self, _ev: &SampleEvent, _ctx: &mut PolicyCtx) {}

    /// Called at every sampling-window boundary with counter deltas.
    fn on_window(&mut self, _win: &WindowStats, _ctx: &mut PolicyCtx) {}

    /// Unused by the machine: nothing in this workspace saves or
    /// restores policy state. The declaration stays because the
    /// separate `perfbench/` workspace's `TimedPolicy` overrides it;
    /// it goes when that benchmark next changes.
    fn save_state(&self, _out: &mut Vec<u8>) -> bool {
        false
    }

    /// Unused by the machine; kept for the same reason as
    /// [`save_state`](Self::save_state).
    ///
    /// # Errors
    ///
    /// The default always fails: there is no state to restore.
    fn restore_state(&mut self, _state: &[u8]) -> Result<(), String> {
        Err("policy does not support state restore".into())
    }
}

/// The no-op policy: first-touch placement, no migration. This is the
/// paper's **NoTier** baseline and the policy used for DRAM-only and
/// CXL-only reference runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct FirstTouch;

impl FirstTouch {
    /// Creates the policy.
    pub fn new() -> Self {
        Self
    }
}

impl TieringPolicy for FirstTouch {
    fn name(&self) -> &str {
        "notier"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_queues_orders_and_telemetry() {
        let mut mem = Memory::new(16, 4, 1);
        mem.ensure_mapped(PageId(0));
        let mut scan = 0u64;
        let mut orders = Vec::new();
        let mut telem = Vec::new();
        let mut reg = MetricsRegistry::new();
        let mut ctx = PolicyCtx::new(
            &mut mem,
            None,
            &mut orders,
            &mut telem,
            &mut scan,
            &mut reg,
            &[0, 8],
            CtxTotals {
                promotions: 3,
                demotions: 5,
                failed_promotions: 2,
                dropped_orders: 1,
                window: 7,
                faults_active: true,
                channel_backlog: [1.5, 2.5],
                admission_rejected: 4,
            },
        );
        assert_eq!(ctx.promotions(), 3);
        assert_eq!(ctx.demotions(), 5);
        assert_eq!(ctx.failed_promotions(), 2);
        assert_eq!(ctx.dropped_orders(), 1);
        assert_eq!(ctx.window_index(), 7);
        assert!(ctx.fault_injection_active());
        assert_eq!(ctx.channel_backlog_cycles(), [1.5, 2.5]);
        assert_eq!(ctx.admission_rejections(), 4);
        assert_eq!(ctx.owner_of(PageId(7)), 0);
        assert_eq!(ctx.owner_of(PageId(8)), 1);
        assert_eq!(ctx.owner_of(PageId(15)), 1);
        ctx.promote(PageId(1));
        ctx.promote_sync(PageId(2));
        ctx.demote(PageId(0));
        ctx.set_hint_scan_rate(64);
        ctx.telemetry("bin_width", 1.5);
        let c = ctx.metrics().counter("policy/decisions");
        ctx.metrics().inc(c, 2);
        assert_eq!(orders.len(), 3);
        assert_eq!(
            orders[0],
            MigrationOrder {
                page: PageId(1),
                to: Tier::Fast,
                sync: false
            }
        );
        assert!(orders[1].sync);
        assert_eq!(orders[2].to, Tier::Slow);
        assert_eq!(telem, vec![("bin_width", 1.5)]);
        assert_eq!(scan, 64);
        assert_eq!(reg.counter_total(c), 2);
    }

    #[test]
    fn ctx_exposes_memory_queries() {
        let mut mem = Memory::new(16, 4, 1);
        mem.ensure_mapped(PageId(9));
        let mut scan = 0u64;
        let mut orders = Vec::new();
        let mut telem = Vec::new();
        let mut reg = MetricsRegistry::new();
        let ctx = PolicyCtx::new(
            &mut mem,
            None,
            &mut orders,
            &mut telem,
            &mut scan,
            &mut reg,
            &[0],
            CtxTotals::default(),
        );
        assert_eq!(ctx.fast_capacity(), 4);
        assert_eq!(ctx.fast_used(), 1);
        assert_eq!(ctx.fast_free(), 3);
        assert_eq!(ctx.tier_of(PageId(9)), Some(Tier::Fast));
        assert_eq!(ctx.tier_of(PageId(0)), None);
        assert_eq!(ctx.unit_span(), 1);
    }

    #[test]
    fn first_touch_is_inert() {
        let mut p = FirstTouch::new();
        assert_eq!(p.name(), "notier");
        let mut mem = Memory::new(4, 4, 1);
        let mut scan = 0u64;
        let mut orders = Vec::new();
        let mut telem = Vec::new();
        let mut reg = MetricsRegistry::new();
        let mut ctx = PolicyCtx::new(
            &mut mem,
            None,
            &mut orders,
            &mut telem,
            &mut scan,
            &mut reg,
            &[0],
            CtxTotals::default(),
        );
        let win = WindowStats {
            index: 0,
            end_cycles: 0,
            delta: PmuCounters::default(),
            cumulative: &PmuCounters::default(),
        };
        p.on_window(&win, &mut ctx);
        assert!(orders.is_empty());
    }
}
