//! TierBPF-style migration admission control as a policy wrapper
//! (DESIGN.md §14).
//!
//! TierBPF hooks the migration path: the tiering policy decides which
//! pages should move, and a separate filter decides which of those
//! moves the machine may spend bandwidth on now. [`Admission`] has that
//! shape. It wraps any [`TieringPolicy`], lets it run unchanged, and
//! filters the orders it pushes:
//!
//! - each colocated process owns a token bucket, refilled every window
//!   with its QoS-weighted share of the budget; an order spends one
//!   token of the process that owns its page;
//! - an order is rejected when that bucket is empty, or while a memory
//!   channel's backlog at the last window edge is at or above the
//!   saturation threshold (backpressure);
//! - a rejected order is deferred with doubling backoff and re-offered
//!   after the inner policy's orders of a later window, or dropped once
//!   it has been deferred [`MAX_DEFERRALS`] times.
//!
//! The machine knows nothing of any of this: a fleet cell is a plain
//! colocated run whose policy is an `Admission`.

use std::collections::VecDeque;

use pact_obs::MetricId;
use pact_stats::codec::{ByteReader, ByteWriter, CodecError, State};

use crate::config::{ConfigError, PebsScope};
use crate::error::SimError;
use crate::pmu::SampleEvent;
use crate::policy::{MachineInfo, MigrationOrder, PolicyCtx, TieringPolicy, WindowStats};
use crate::types::{PageId, Tier};

/// Maximum deferrals of one order before it is dropped (each deferral
/// doubles the wait, like fault retries).
pub const MAX_DEFERRALS: u32 = 3;

/// Deferred orders held at most; a rejection beyond it is a drop.
const DEFERRAL_CAP: usize = 1 << 16;

/// Registry row counting rejected orders per window.
const REJECTED_METRIC: &str = "admission/rejected";

/// Admission-control parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionControl {
    /// Migration-order budget per sampling window, divided across the
    /// colocated processes by QoS weight.
    pub budget_per_window: u64,
    /// Channel backlog (cycles beyond the window edge) at which the
    /// cell is considered saturated and all migrations are deferred.
    pub saturation_backlog_cycles: f64,
    /// Windows a rejected order waits before its first retry; doubles
    /// on each further rejection.
    pub defer_windows: u64,
}

impl Default for AdmissionControl {
    fn default() -> Self {
        Self {
            budget_per_window: 512,
            saturation_backlog_cycles: 20_000.0,
            defer_windows: 1,
        }
    }
}

impl AdmissionControl {
    /// Checks the parameters.
    ///
    /// # Errors
    ///
    /// A zero budget or deferral, or a backlog threshold that is not
    /// positive.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.budget_per_window == 0 {
            return Err(ConfigError("admission.budget_per_window must be positive"));
        }
        if !(self.saturation_backlog_cycles > 0.0) {
            return Err(ConfigError(
                "admission.saturation_backlog_cycles must be positive",
            ));
        }
        if self.defer_windows == 0 {
            return Err(ConfigError("admission.defer_windows must be positive"));
        }
        Ok(())
    }
}

/// One process's admission ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionLane {
    /// Orders admitted (each spent one token).
    pub admitted: u64,
    /// Rejections; an order deferred and rejected again counts again.
    pub rejected: u64,
    /// Orders dropped after their last deferral, or because the
    /// deferral queue was full.
    pub dropped: u64,
}

/// A [`TieringPolicy`] whose migration orders pass through admission
/// control (module docs).
///
/// # Example
///
/// ```
/// use pact_tiersim::{
///     Access, Admission, AdmissionControl, FirstTouch, Machine, MachineConfig, RunSpec,
///     TraceWorkload,
/// };
///
/// let a = TraceWorkload::new("a", 1 << 20, vec![Access::load(0); 1_000]);
/// let b = TraceWorkload::new("b", 1 << 20, vec![Access::load(64); 1_000]);
/// let mut policy =
///     Admission::new(Box::new(FirstTouch::new()), AdmissionControl::default(), vec![3, 1])
///         .unwrap();
/// let machine = Machine::new(MachineConfig::skylake_cxl(64)).unwrap();
/// let report = machine.run(RunSpec::new(&[&a, &b], &mut policy)).unwrap();
/// assert_eq!(report.policy, "admission(notier)");
/// assert_eq!(policy.lanes().len(), 2);
/// ```
pub struct Admission {
    inner: Box<dyn TieringPolicy>,
    name: String,
    cfg: AdmissionControl,
    /// QoS weight per colocated process.
    weights: Vec<u32>,
    /// Tokens per process per window: `max(1, budget·w / Σw)`.
    budget: Vec<u64>,
    /// Tokens left this window.
    tokens: Vec<u64>,
    /// Rejected orders awaiting retry: `(due_window, attempt, order)`.
    deferred: VecDeque<(u64, u32, MigrationOrder)>,
    lanes: Vec<AdmissionLane>,
    /// Handle of [`REJECTED_METRIC`] in this run's registry, found on
    /// first use.
    m_rejected: Option<MetricId>,
}

impl Admission {
    /// Wraps `inner` in admission control for a run of `weights.len()`
    /// colocated processes, process `i` weighing `weights[i]`.
    ///
    /// # Errors
    ///
    /// Invalid `cfg` (see [`AdmissionControl::validate`]), no weights,
    /// or a zero weight.
    pub fn new(
        inner: Box<dyn TieringPolicy>,
        cfg: AdmissionControl,
        weights: Vec<u32>,
    ) -> Result<Self, ConfigError> {
        cfg.validate()?;
        if weights.is_empty() {
            return Err(ConfigError(
                "admission control needs one weight per process",
            ));
        }
        if weights.contains(&0) {
            return Err(ConfigError("admission qos weights must be at least 1"));
        }
        let sum: u128 = weights.iter().map(|&w| u128::from(w)).sum();
        let budget: Vec<u64> = weights
            .iter()
            .map(|&w| {
                // At most `budget_per_window`, since `w <= sum`.
                let share = u128::from(cfg.budget_per_window) * u128::from(w) / sum;
                (share as u64).max(1)
            })
            .collect();
        Ok(Self {
            name: format!("admission({})", inner.name()),
            inner,
            cfg,
            tokens: budget.clone(),
            lanes: vec![AdmissionLane::default(); weights.len()],
            weights,
            budget,
            deferred: VecDeque::new(),
            m_rejected: None,
        })
    }

    /// Admission ledger per colocated process, in process order.
    pub fn lanes(&self) -> &[AdmissionLane] {
        &self.lanes
    }

    /// Spends a token of `order`'s owner, or rejects the order and
    /// defers or drops it. `attempt` counts its earlier deferrals.
    fn admit(&mut self, ctx: &mut PolicyCtx, order: MigrationOrder, attempt: u32) -> bool {
        let owner = ctx.owner_of(order.page);
        let threshold = self.cfg.saturation_backlog_cycles;
        let backpressured = ctx.channel_backlog_cycles().iter().any(|&b| b >= threshold);
        if !backpressured && self.tokens[owner] > 0 {
            self.tokens[owner] -= 1;
            self.lanes[owner].admitted += 1;
            return true;
        }
        self.lanes[owner].rejected += 1;
        let m = *self
            .m_rejected
            .get_or_insert_with(|| ctx.metrics().counter(REJECTED_METRIC));
        ctx.metrics().inc(m, 1);
        if attempt < MAX_DEFERRALS && self.deferred.len() < DEFERRAL_CAP {
            let due = ctx.window_index() + (self.cfg.defer_windows << attempt);
            self.deferred.push_back((due, attempt + 1, order));
        } else {
            self.lanes[owner].dropped += 1;
        }
        false
    }

    /// Shows the inner policy the admission outcome so far: the
    /// rejections, and the drops among the orders it sees shed.
    fn lend_view(&self, ctx: &mut PolicyCtx) {
        let totals = ctx.totals_mut();
        totals.admission_rejected = self.lanes.iter().map(|l| l.rejected).sum();
        totals.dropped_orders += self.lanes.iter().map(|l| l.dropped).sum::<u64>();
    }

    /// The parameters a frame must have been captured under.
    fn config_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put(&self.cfg);
        w.put(&self.weights);
        w.into_bytes()
    }

    /// Filters the orders the inner policy pushed in this callback.
    fn filter(&mut self, ctx: &mut PolicyCtx) -> Vec<MigrationOrder> {
        let mut orders = std::mem::take(ctx.orders_mut());
        orders.retain(|&order| self.admit(ctx, order, 0));
        orders
    }
}

impl TieringPolicy for Admission {
    fn name(&self) -> &str {
        &self.name
    }

    fn check(&self, info: &MachineInfo) -> Result<(), SimError> {
        if info.processes != self.weights.len() {
            return Err(SimError::WeightMismatch {
                weights: self.weights.len(),
                workloads: info.processes,
            });
        }
        self.inner.check(info)
    }

    fn pebs_scope(&self) -> Option<PebsScope> {
        self.inner.pebs_scope()
    }

    fn prepare(&mut self, info: &MachineInfo) {
        self.inner.prepare(info);
        self.tokens.copy_from_slice(&self.budget);
        self.deferred.clear();
        self.lanes.fill(AdmissionLane::default());
        self.m_rejected = None;
    }

    fn place(&self, page: PageId) -> Option<Tier> {
        self.inner.place(page)
    }

    fn on_sample(&mut self, ev: &SampleEvent, ctx: &mut PolicyCtx) {
        self.lend_view(ctx);
        self.inner.on_sample(ev, ctx);
        let orders = self.filter(ctx);
        *ctx.orders_mut() = orders;
    }

    fn on_window(&mut self, win: &WindowStats, ctx: &mut PolicyCtx) {
        self.lend_view(ctx);
        self.inner.on_window(win, ctx);
        let mut orders = self.filter(ctx);
        // Due deferrals follow the inner policy's orders and compete
        // for what is left of this window's tokens.
        let window = ctx.window_index();
        for (due, attempt, order) in std::mem::take(&mut self.deferred) {
            if due > window {
                self.deferred.push_back((due, attempt, order));
            } else if self.admit(ctx, order, attempt) {
                orders.push(order);
            }
        }
        *ctx.orders_mut() = orders;
        self.tokens.copy_from_slice(&self.budget);
    }

    /// The configuration bytes, the admission state, then the inner
    /// policy's blob.
    fn save_state(&self, out: &mut Vec<u8>) -> bool {
        let mut blob = Vec::new();
        if !self.inner.save_state(&mut blob) {
            return false;
        }
        let mut w = ByteWriter::new();
        w.put(&self.config_bytes());
        self.put_state(&mut w);
        w.put(&blob);
        out.extend_from_slice(&w.into_bytes());
        true
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), String> {
        let e = |e: CodecError| format!("admission state: {e}");
        let mut r = ByteReader::new(state);
        if r.get_bytes().map_err(e)? != self.config_bytes() {
            return Err("snapshot was captured under a different admission configuration".into());
        }
        self.get_state(&mut r).map_err(e)?;
        let blob = r.get_bytes().map_err(e)?;
        r.finish().map_err(e)?;
        self.inner.restore_state(blob)
    }
}

pact_stats::codec! {
    impl Codec for AdmissionControl { budget_per_window, saturation_backlog_cycles, defer_windows }
}

pact_stats::codec! {
    impl Codec for AdmissionLane { admitted, rejected, dropped }
}

// The token buckets, the deferral queue and the per-process ledgers.
pact_stats::codec! {
    impl State for Admission {
        tokens: each, deferred, lanes: each;
        inner: _,      // its blob follows the admission state
        name: _,       // derived from the inner policy
        cfg: _,        // checked ahead of the admission state
        weights: _,    // checked ahead of the admission state
        budget: _,     // derived from the configuration
        m_rejected: _, // found again by name in the restored registry
    } then |a| {
        if a.deferred.len() > DEFERRAL_CAP {
            return Err(format!(
                "snapshot deferral queue holds {} entries, cap is {DEFERRAL_CAP}",
                a.deferred.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use crate::machine::{Machine, RunSpec};
    use crate::policy::FirstTouch;
    use crate::types::{Access, PAGE_BYTES};
    use crate::workload::{TraceWorkload, Workload};

    /// Promotes every sampled slow-tier page, demoting a cold one to
    /// make room when the fast tier is full.
    struct Promoter;

    impl TieringPolicy for Promoter {
        fn name(&self) -> &str {
            "promoter"
        }

        fn on_sample(&mut self, ev: &SampleEvent, ctx: &mut PolicyCtx) {
            if let SampleEvent::Pebs {
                page,
                tier: Tier::Slow,
                ..
            } = *ev
            {
                if ctx.fast_free() == 0 {
                    for head in ctx.cold_fast_units(1) {
                        ctx.demote(head);
                    }
                }
                ctx.promote(page);
            }
        }
    }

    fn chase(name: &str, pages: u64) -> TraceWorkload {
        let trace = (0..20_000u64)
            .map(|i| Access::dependent_load((i.wrapping_mul(2_654_435_761) % pages) * PAGE_BYTES))
            .collect();
        TraceWorkload::new(name, pages * PAGE_BYTES, trace)
    }

    fn wrap(inner: Box<dyn TieringPolicy>, budget: u64, weights: Vec<u32>) -> Admission {
        let cfg = AdmissionControl {
            budget_per_window: budget,
            ..AdmissionControl::default()
        };
        Admission::new(inner, cfg, weights).expect("valid admission config")
    }

    #[test]
    fn new_rejects_what_validation_rejects() {
        let bad = |cfg: AdmissionControl, weights: Vec<u32>| {
            Admission::new(Box::new(FirstTouch::new()), cfg, weights).is_err()
        };
        let ok = AdmissionControl::default();
        assert!(!bad(ok, vec![1, 3]));
        assert!(bad(ok, vec![]), "no weights");
        assert!(bad(ok, vec![1, 0]), "zero qos weight");
        for cfg in [
            AdmissionControl {
                budget_per_window: 0,
                ..ok
            },
            AdmissionControl {
                defer_windows: 0,
                ..ok
            },
            AdmissionControl {
                saturation_backlog_cycles: 0.0,
                ..ok
            },
            AdmissionControl {
                saturation_backlog_cycles: f64::NAN,
                ..ok
            },
        ] {
            assert!(bad(cfg, vec![1]), "{cfg:?}");
        }
    }

    #[test]
    fn weight_count_must_match_the_workloads() {
        let (a, b) = (chase("a", 64), chase("b", 64));
        let machine = Machine::new(MachineConfig::skylake_cxl(32)).unwrap();
        let mut policy = wrap(Box::new(FirstTouch::new()), 4, vec![1, 2, 3]);
        let err = machine
            .run(RunSpec::new(&[&a, &b], &mut policy))
            .unwrap_err();
        assert_eq!(
            err,
            SimError::WeightMismatch {
                weights: 3,
                workloads: 2
            }
        );
    }

    #[test]
    fn an_unbinding_budget_changes_nothing_but_the_name() {
        let (a, b) = (chase("a", 400), chase("b", 200));
        let workloads: [&dyn Workload; 2] = [&a, &b];
        let machine = Machine::new(MachineConfig::skylake_cxl(128)).unwrap();
        let bare = machine
            .run(RunSpec::new(&workloads, &mut Promoter))
            .unwrap();
        assert!(bare.promotions > 0, "the test policy must migrate");
        let mut wrapped = wrap(Box::new(Promoter), u64::MAX, vec![1, 2]);
        let report = machine.run(RunSpec::new(&workloads, &mut wrapped)).unwrap();
        assert_eq!(
            report.to_json().replace("admission(promoter)", "promoter"),
            bare.to_json()
        );
        let lanes = wrapped.lanes();
        assert!(lanes.iter().all(|l| l.rejected == 0 && l.dropped == 0));
        assert!(lanes.iter().map(|l| l.admitted).sum::<u64>() > 0);
    }

    #[test]
    fn a_tight_budget_defers_and_drops_per_owner() {
        let (a, b) = (chase("a", 400), chase("b", 200));
        let machine = Machine::new(MachineConfig::skylake_cxl(128)).unwrap();
        let mut policy = wrap(Box::new(Promoter), 1, vec![1, 1]);
        let report = machine.run(RunSpec::new(&[&a, &b], &mut policy)).unwrap();
        for (i, lane) in policy.lanes().iter().enumerate() {
            assert!(lane.rejected > 0, "process {i} never hit its bucket");
            assert!(lane.dropped > 0, "process {i} never exhausted a deferral");
            assert!(lane.dropped <= lane.rejected);
        }
        let rejected: u64 = policy.lanes().iter().map(|l| l.rejected).sum();
        let counted: f64 = report
            .windows
            .iter()
            .filter_map(|w| w.metrics.iter().find(|(k, _)| *k == REJECTED_METRIC))
            .map(|&(_, v)| v)
            .sum();
        assert_eq!(counted, rejected as f64, "registry rows sum to the ledger");
    }
}
