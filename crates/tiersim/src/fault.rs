//! Deterministic fault injection: seed-driven failure of the machine's
//! migration, sampling, and bandwidth mechanisms.
//!
//! The paper's robustness claims live exactly where substrates
//! misbehave: the slow tier saturates, migration orders fail or are
//! dropped, samples go missing. A [`FaultPlan`] describes which of
//! those faults to inject and with what probability; the machine draws
//! every injection decision from a dedicated SplitMix64 stream seeded
//! by [`FaultPlan::seed`], so a fixed `(machine seed, fault plan)` pair
//! replays byte-identically — including across `PACT_JOBS` worker
//! counts — while leaving the machine's own RNG stream untouched.
//!
//! Fault classes (all independently configurable, all off by default):
//!
//! * **Order drops** (`drop=P`): an enqueued asynchronous migration
//!   order is discarded before it reaches the daemon queue, as when
//!   admission control sheds load.
//! * **Transient migration failures** (`fail=P`): an executed order
//!   fails (a `move_pages` race); the machine retries it after a
//!   doubling window backoff, up to `retries=N` attempts.
//! * **Channel stalls** (`stall=TIER:LINES:P`): a burst of `LINES`
//!   line-transfers is booked on one tier's channel at a window edge,
//!   creating the saturation episodes of Figure 11 on demand.
//! * **PEBS sample loss** (`pebs_loss=P`): a would-be PEBS sample is
//!   silently dropped (overflowed debug store), unseen by policy and
//!   counters alike.
//! * **CHMU counter overflow** (`chmu_overflow=P`): the device's
//!   Space-Saving table resets mid-run, wiping accumulated hotness.
//!
//! Faults only fire inside the configured window range
//! (`window=A..B`). The environment hook is `PACT_FAULTS` (named by
//! [`FAULTS_ENV`], resolved by `pact-bench`'s `env` registry into
//! [`FaultPlan::parse`]); an unset variable means no plan and a
//! byte-identical, zero-cost run.

use std::collections::VecDeque;

use pact_obs::{MetricId, MetricsRegistry};
use pact_stats::SplitMix64;

use crate::error::SimError;
use crate::policy::MigrationOrder;
use crate::types::Tier;

/// Environment variable holding the fault specification for sweep
/// binaries (e.g. `PACT_FAULTS="drop=0.2,stall=slow:20000:0.5,seed=7"`).
pub const FAULTS_ENV: &str = "PACT_FAULTS";

/// A scheduled channel-stall fault: extra line transfers booked on one
/// tier's channel at window edges.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StallFault {
    /// The tier whose channel stalls.
    pub tier: Tier,
    /// Line transfers booked per injected stall.
    pub lines: u64,
    /// Probability that a given window edge injects the stall.
    pub prob: f64,
}

/// A deterministic fault-injection plan, carried by
/// [`MachineConfig::fault_plan`](crate::MachineConfig::fault_plan).
///
/// `FaultPlan::default()` injects nothing; construct via
/// [`FaultPlan::parse`] or field access.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the dedicated fault RNG stream (independent of the
    /// machine seed, so enabling faults never perturbs prefetch or
    /// scan randomness).
    pub seed: u64,
    /// First window (inclusive) in which faults are active.
    pub window_start: u64,
    /// First window (exclusive) after which faults stop.
    pub window_end: u64,
    /// Probability that an enqueued asynchronous order is dropped.
    pub drop_order: f64,
    /// Probability that an executed migration order fails transiently.
    pub fail_migration: f64,
    /// Retry attempts granted to a transiently failed order before it
    /// is abandoned.
    pub max_retries: u32,
    /// Initial retry backoff in windows; doubles per attempt.
    pub backoff_windows: u64,
    /// Channel-stall fault, if any.
    pub stall: Option<StallFault>,
    /// Probability that a delivered PEBS sample is lost.
    pub pebs_loss: f64,
    /// Probability per window that the CHMU counter table overflows
    /// and resets.
    pub chmu_overflow: f64,
}

pact_stats::codec! {
    impl Codec for StallFault { tier, lines, prob }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0xFA17,
            window_start: 0,
            window_end: u64::MAX,
            drop_order: 0.0,
            fail_migration: 0.0,
            max_retries: 3,
            backoff_windows: 1,
            stall: None,
            pebs_loss: 0.0,
            chmu_overflow: 0.0,
        }
    }
}

fn parse_prob(key: &str, v: &str) -> Result<f64, SimError> {
    let p: f64 = v.parse().map_err(|_| SimError::FaultSpec {
        spec: format!("{key}={v}"),
        reason: "expected a probability in [0, 1]".into(),
    })?;
    if !(0.0..=1.0).contains(&p) {
        return Err(SimError::FaultSpec {
            spec: format!("{key}={v}"),
            reason: "probability must be in [0, 1]".into(),
        });
    }
    Ok(p)
}

fn parse_int<T: std::str::FromStr>(key: &str, v: &str) -> Result<T, SimError> {
    v.parse().map_err(|_| SimError::FaultSpec {
        spec: format!("{key}={v}"),
        reason: "expected an unsigned integer".into(),
    })
}

impl FaultPlan {
    /// Parses a comma-separated `key=value` fault specification.
    ///
    /// Recognized keys: `drop=P`, `fail=P`, `retries=N`, `backoff=N`,
    /// `stall=fast|slow:LINES:P`, `pebs_loss=P`, `chmu_overflow=P`,
    /// `window=A..B` (either bound optional), `seed=N`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::FaultSpec`] naming the offending fragment.
    pub fn parse(spec: &str) -> Result<FaultPlan, SimError> {
        let mut plan = FaultPlan::default();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part.split_once('=').ok_or_else(|| SimError::FaultSpec {
                spec: part.to_string(),
                reason: "expected key=value".into(),
            })?;
            match key {
                "seed" => plan.seed = parse_int(key, value)?,
                "drop" => plan.drop_order = parse_prob(key, value)?,
                "fail" => plan.fail_migration = parse_prob(key, value)?,
                "retries" => plan.max_retries = parse_int(key, value)?,
                "backoff" => plan.backoff_windows = parse_int(key, value)?,
                "pebs_loss" => plan.pebs_loss = parse_prob(key, value)?,
                "chmu_overflow" => plan.chmu_overflow = parse_prob(key, value)?,
                "window" => {
                    let (a, b) = value.split_once("..").ok_or_else(|| SimError::FaultSpec {
                        spec: part.to_string(),
                        reason: "expected window=A..B".into(),
                    })?;
                    plan.window_start = if a.is_empty() { 0 } else { parse_int(key, a)? };
                    plan.window_end = if b.is_empty() {
                        u64::MAX
                    } else {
                        parse_int(key, b)?
                    };
                }
                "stall" => {
                    let mut it = value.split(':');
                    let bad = |reason: &str| SimError::FaultSpec {
                        spec: part.to_string(),
                        reason: reason.into(),
                    };
                    let tier = match it.next() {
                        Some("fast") => Tier::Fast,
                        Some("slow") => Tier::Slow,
                        _ => return Err(bad("expected stall=fast|slow:LINES:P")),
                    };
                    let lines = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| bad("expected stall=fast|slow:LINES:P"))?;
                    let prob = match it.next() {
                        Some(p) => parse_prob(key, p)?,
                        None => 1.0,
                    };
                    if it.next().is_some() {
                        return Err(bad("expected stall=fast|slow:LINES:P"));
                    }
                    plan.stall = Some(StallFault { tier, lines, prob });
                }
                _ => {
                    return Err(SimError::FaultSpec {
                        spec: part.to_string(),
                        reason: format!("unknown fault key '{key}'"),
                    })
                }
            }
        }
        plan.validate().map_err(|reason| SimError::FaultSpec {
            spec: spec.to_string(),
            reason: reason.into(),
        })?;
        Ok(plan)
    }

    /// Checks internal consistency; the message feeds both
    /// [`SimError::FaultSpec`] and machine-config validation.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.window_start >= self.window_end {
            return Err("fault window must be a non-empty range");
        }
        for p in [
            self.drop_order,
            self.fail_migration,
            self.pebs_loss,
            self.chmu_overflow,
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err("fault probabilities must be in [0, 1]");
            }
        }
        if let Some(s) = self.stall {
            if s.lines == 0 {
                return Err("stall lines must be positive");
            }
            if !(0.0..=1.0).contains(&s.prob) {
                return Err("stall probability must be in [0, 1]");
            }
        }
        if self.backoff_windows == 0 {
            return Err("backoff_windows must be positive");
        }
        Ok(())
    }

    /// Whether the plan can inject anything at all.
    pub fn is_active(&self) -> bool {
        self.drop_order > 0.0
            || self.fail_migration > 0.0
            || self.pebs_loss > 0.0
            || self.chmu_overflow > 0.0
            || self.stall.is_some_and(|s| s.prob > 0.0)
    }
}

/// A transiently failed order awaiting its retry window.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RetryEntry {
    /// The order to re-execute.
    pub order: MigrationOrder,
    /// Window index at which the retry becomes due.
    pub due_window: u64,
    /// 1-based attempt count already consumed.
    pub attempt: u32,
}

/// Live fault-injection state owned by one simulation run: the plan,
/// its dedicated RNG stream, the retry queue, and the fault metrics
/// (registered only when a plan exists, so disabled runs snapshot
/// byte-identical metric sets).
#[derive(Debug)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    rng: SplitMix64,
    retries: VecDeque<RetryEntry>,
    /// `fault/injected`: total faults injected, all classes.
    pub m_injected: MetricId,
    /// `fault/retries`: retry attempts scheduled.
    pub m_retries: MetricId,
    /// `fault/pebs_lost`: PEBS samples lost to injection.
    pub m_pebs_lost: MetricId,
}

impl FaultState {
    pub fn new(plan: FaultPlan, registry: &mut MetricsRegistry) -> Self {
        Self {
            rng: SplitMix64::seed_from_u64(plan.seed),
            retries: VecDeque::new(),
            m_injected: registry.counter("fault/injected"),
            m_retries: registry.counter("fault/retries"),
            m_pebs_lost: registry.counter("fault/pebs_lost"),
            plan,
        }
    }

    #[inline]
    fn active(&self, window: u64) -> bool {
        (self.plan.window_start..self.plan.window_end).contains(&window)
    }

    /// One Bernoulli draw from the fault stream. Zero-probability
    /// faults never consume RNG state, so a plan that only stalls (say)
    /// draws the same stall sequence whether or not drops are also
    /// configured off.
    #[inline]
    fn roll(&mut self, p: f64) -> bool {
        p > 0.0 && self.rng.random::<f64>() < p
    }

    pub fn drop_order(&mut self, window: u64) -> bool {
        self.active(window) && self.roll(self.plan.drop_order)
    }

    pub fn fail_migration(&mut self, window: u64) -> bool {
        self.active(window) && self.roll(self.plan.fail_migration)
    }

    pub fn lose_pebs(&mut self, window: u64) -> bool {
        self.active(window) && self.roll(self.plan.pebs_loss)
    }

    pub fn chmu_overflow(&mut self, window: u64) -> bool {
        self.active(window) && self.roll(self.plan.chmu_overflow)
    }

    /// Lines to book on which tier's channel at this window edge, if
    /// the stall fault fires.
    pub fn stall(&mut self, window: u64) -> Option<(usize, u64)> {
        if !self.active(window) {
            return None;
        }
        let s = self.plan.stall?;
        self.roll(s.prob).then_some((s.tier.index(), s.lines))
    }

    /// Schedules a retry for a transiently failed order; returns the
    /// entry when attempts remain, `None` once the order is abandoned.
    pub fn schedule_retry(
        &mut self,
        order: MigrationOrder,
        window: u64,
        attempt: u32,
    ) -> Option<RetryEntry> {
        if attempt >= self.plan.max_retries {
            return None;
        }
        // Doubling backoff: 1st retry after `backoff_windows`, then 2x,
        // 4x, ... windows (saturating so extreme attempts never wrap).
        let delay = self
            .plan
            .backoff_windows
            .saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX));
        let entry = RetryEntry {
            order,
            due_window: window.saturating_add(delay.max(1)),
            attempt: attempt + 1,
        };
        self.retries.push_back(entry);
        Some(entry)
    }

    /// Pops every retry due at or before `window`, preserving schedule
    /// order. Test convenience; the window loop uses
    /// [`due_retries_into`](Self::due_retries_into) with a reused buffer.
    #[cfg(test)]
    pub fn due_retries(&mut self, window: u64) -> Vec<RetryEntry> {
        let mut due = Vec::new();
        self.due_retries_into(window, &mut due);
        due
    }

    /// [`due_retries`](Self::due_retries) into a caller-owned buffer:
    /// `out` is cleared and refilled, so a window loop that drains
    /// retries every window reuses one allocation instead of building
    /// a fresh `Vec` per window.
    pub fn due_retries_into(&mut self, window: u64, out: &mut Vec<RetryEntry>) {
        out.clear();
        let mut i = 0;
        while i < self.retries.len() {
            if self.retries[i].due_window <= window {
                // Removal preserves relative order (VecDeque::remove).
                if let Some(e) = self.retries.remove(i) {
                    out.push(e);
                }
            } else {
                i += 1;
            }
        }
    }

    /// Re-queues a due-but-unexecuted retry for the following window
    /// (used when the daemon budget runs out before the retry backlog
    /// drains).
    pub fn defer(&mut self, mut e: RetryEntry, window: u64) {
        e.due_window = window.saturating_add(1);
        self.retries.push_back(e);
    }

    /// Pending (scheduled, not yet executed) retries. The invariant
    /// checker's order ledger counts these as in-flight orders.
    pub fn pending_retries(&self) -> usize {
        self.retries.len()
    }
}

pact_stats::codec! {
    impl Codec for RetryEntry { order, due_window, attempt }
}

// The fault RNG cursor and the retry/backoff queue, restored into a
// fault state built from the same plan.
pact_stats::codec! {
    impl State for FaultState {
        rng, retries;
        plan: _, // comes from the configuration on restore
        // Metric handles, re-registered at construction.
        m_injected: _, m_retries: _, m_pebs_lost: _,
    } then |f| {
        let max = f.plan.max_retries;
        if let Some(e) = f.retries.iter().find(|e| e.attempt == 0 || e.attempt > max) {
            return Err(format!(
                "fault state: retry attempt {} outside 1..={max}",
                e.attempt
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::PageId;
    use pact_stats::State;

    #[test]
    fn default_plan_is_inert_and_valid() {
        let p = FaultPlan::default();
        assert!(p.validate().is_ok());
        assert!(!p.is_active());
    }

    #[test]
    fn parse_full_spec() {
        let p = FaultPlan::parse(
            "drop=0.25,fail=0.5,retries=2,backoff=3,stall=slow:20000:0.75,\
             pebs_loss=0.1,chmu_overflow=0.05,window=5..50,seed=99",
        )
        .unwrap();
        assert_eq!(p.drop_order, 0.25);
        assert_eq!(p.fail_migration, 0.5);
        assert_eq!(p.max_retries, 2);
        assert_eq!(p.backoff_windows, 3);
        assert_eq!(
            p.stall,
            Some(StallFault {
                tier: Tier::Slow,
                lines: 20_000,
                prob: 0.75
            })
        );
        assert_eq!(p.pebs_loss, 0.1);
        assert_eq!(p.chmu_overflow, 0.05);
        assert_eq!((p.window_start, p.window_end), (5, 50));
        assert_eq!(p.seed, 99);
        assert!(p.is_active());
    }

    #[test]
    fn parse_open_window_and_default_stall_prob() {
        let p = FaultPlan::parse("stall=fast:512,window=10..").unwrap();
        assert_eq!(
            p.stall,
            Some(StallFault {
                tier: Tier::Fast,
                lines: 512,
                prob: 1.0
            })
        );
        assert_eq!((p.window_start, p.window_end), (10, u64::MAX));
        let q = FaultPlan::parse("window=..7,drop=1").unwrap();
        assert_eq!((q.window_start, q.window_end), (0, 7));
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "drop=2.0",
            "drop=x",
            "nonsense=1",
            "stall=mid:10:0.5",
            "stall=slow",
            "stall=slow:0:0.5",
            "window=9..3",
            "backoff=0",
            "drop",
        ] {
            let e = FaultPlan::parse(bad).unwrap_err();
            assert!(matches!(e, SimError::FaultSpec { .. }), "{bad} gave {e:?}");
        }
    }

    #[test]
    fn rolls_are_deterministic_and_windowed() {
        let plan = FaultPlan::parse("drop=0.5,window=2..4,seed=1").unwrap();
        let mut reg = MetricsRegistry::new();
        let mut a = FaultState::new(plan.clone(), &mut reg);
        let mut b = FaultState::new(plan, &mut reg);
        assert!(!a.drop_order(0), "window 0 is outside 2..4");
        assert!(!a.drop_order(4), "window 4 is outside 2..4");
        let seq_a: Vec<bool> = (0..32).map(|_| a.drop_order(2)).collect();
        assert!(!b.drop_order(1));
        assert!(!b.drop_order(5));
        let seq_b: Vec<bool> = (0..32).map(|_| b.drop_order(3)).collect();
        assert_eq!(seq_a, seq_b, "same seed, same draw sequence");
        assert!(seq_a.iter().any(|&x| x) && seq_a.iter().any(|&x| !x));
    }

    #[test]
    fn retry_backoff_doubles_then_abandons() {
        let plan = FaultPlan::parse("fail=1,retries=3,backoff=2").unwrap();
        let mut reg = MetricsRegistry::new();
        let mut f = FaultState::new(plan, &mut reg);
        let order = MigrationOrder {
            page: PageId(7),
            to: Tier::Fast,
            sync: false,
        };
        let r1 = f.schedule_retry(order, 10, 0).unwrap();
        assert_eq!((r1.due_window, r1.attempt), (12, 1));
        let r2 = f.schedule_retry(order, 12, r1.attempt).unwrap();
        assert_eq!((r2.due_window, r2.attempt), (16, 2));
        let r3 = f.schedule_retry(order, 16, r2.attempt).unwrap();
        assert_eq!((r3.due_window, r3.attempt), (24, 3));
        assert!(f.schedule_retry(order, 24, r3.attempt).is_none());
        assert_eq!(f.pending_retries(), 3);
        assert_eq!(f.due_retries(11).len(), 0);
        assert_eq!(f.due_retries(16).len(), 2);
        assert_eq!(f.pending_retries(), 1);
    }

    #[test]
    fn blank_parts_are_ignored() {
        // The env registry maps an unset/empty PACT_FAULTS to None
        // before ever calling parse; stray blank fragments inside a
        // spec are tolerated rather than fatal.
        let plan = FaultPlan::parse("drop=0.25, ,seed=9").unwrap();
        assert_eq!(plan.drop_order, 0.25);
        assert_eq!(plan.seed, 9);
    }

    #[test]
    fn crafted_retry_queue_length_is_an_error() {
        // The retry queue claims 2^61 entries after the RNG state.
        let mut w = pact_stats::ByteWriter::new();
        w.put(&(7u64, 1usize << 61));
        let bytes = w.into_bytes();
        let mut state = FaultState::new(FaultPlan::default(), &mut MetricsRegistry::new());
        let got = state.get_state(&mut pact_stats::ByteReader::new(&bytes));
        assert_eq!(got, Err(pact_stats::CodecError::BadLength));
    }
}
