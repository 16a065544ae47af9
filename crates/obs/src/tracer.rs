//! Structured event tracing: a preallocated ring buffer of typed,
//! sim-cycle-stamped simulator events.
//!
//! The tracer is designed around two constraints:
//!
//! 1. **Determinism.** Events carry only simulation state — cycles,
//!    page numbers, counter values. No wall-clock time, no host
//!    pointers, no iteration order over hash maps. Two runs of the same
//!    seed produce the same event sequence, byte for byte after export.
//! 2. **Zero cost when off.** [`Tracer::disabled`] allocates nothing
//!    and [`Tracer::emit`] reduces to one predictable branch, so the
//!    simulator hot path can emit unconditionally.
//!
//! When the ring fills, the oldest events are overwritten (and
//! counted), which bounds memory for arbitrarily long runs while
//! keeping the most recent — usually most interesting — history.
//!
//! Matches over [`EventKind`] name every variant: wildcard arms are a
//! denied clippy lint here, so a new variant without a name is a compile
//! error. The snapshot codec's encoder and decoder both come from one
//! tag list, whose encoder match is exhaustive too.

#![deny(clippy::wildcard_enum_match_arm)]

/// Tier index used by events (`0 = fast`, `1 = slow`); avoids a
/// dependency on `pact-tiersim`, which sits above this crate.
pub type TierIdx = u8;

/// One recorded simulator event, stamped with the machine cycle at
/// which it occurred.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Simulation cycle of the event.
    pub cycle: u64,
    /// What happened.
    pub kind: EventKind,
}

/// The typed simulator events the substrate emits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A sampling-window boundary fired, with the window's migration
    /// and queue-pressure activity.
    WindowBoundary {
        /// Zero-based window index.
        index: u64,
        /// Base pages promoted during the window.
        promotions: u64,
        /// Base pages demoted during the window.
        demotions: u64,
        /// Promotions rejected for lack of fast-tier space.
        failed_promotions: u64,
        /// Orders dropped on daemon-queue overflow.
        dropped_orders: u64,
    },
    /// A policy issued a migration order.
    OrderIssued {
        /// Global page number of the unit to migrate.
        page: u64,
        /// Destination tier index.
        to: TierIdx,
        /// Whether the triggering thread pays the migration cost.
        sync: bool,
    },
    /// A migration order was executed.
    OrderCompleted {
        /// Global page number of the migrated unit.
        page: u64,
        /// Destination tier index.
        to: TierIdx,
        /// Base pages moved.
        moved: u64,
    },
    /// A migration order was dropped because the daemon queue was full.
    OrderDropped {
        /// Global page number of the unit that was not migrated.
        page: u64,
        /// Intended destination tier index.
        to: TierIdx,
    },
    /// A promotion failed because the fast tier had no space.
    PromotionRejected {
        /// Global page number of the rejected unit.
        page: u64,
    },
    /// A memory channel's backlog crossed into saturation.
    ChannelSaturated {
        /// Saturated tier index.
        tier: TierIdx,
        /// Backlog at detection, in cycles of channel time.
        backlog_cycles: u64,
    },
    /// A previously saturated channel drained below the threshold.
    ChannelRecovered {
        /// Recovered tier index.
        tier: TierIdx,
        /// Length of the saturation episode in cycles.
        episode_cycles: u64,
    },
    /// The window's batch of delivered samples (PEBS + hint faults).
    SampleBatch {
        /// PEBS samples delivered during the window.
        pebs: u64,
        /// Hint faults taken during the window.
        hint_faults: u64,
    },
    /// A named value the policy reported for this window.
    PolicyTelemetry {
        /// Telemetry key (policy-defined, e.g. `"bin_width"`).
        key: &'static str,
        /// Reported value.
        value: f64,
    },
    /// The fault-injection layer fired a fault.
    FaultInjected {
        /// Stable fault-class name (e.g. `"order_drop"`,
        /// `"migration_fail"`, `"channel_stall"`, `"pebs_loss"`,
        /// `"chmu_overflow"`).
        kind: &'static str,
        /// Class-specific argument: the affected page for migration and
        /// sampling faults, booked lines for channel stalls.
        arg: u64,
    },
    /// A transiently failed migration order was requeued for retry.
    OrderRetried {
        /// Global page number of the retried unit.
        page: u64,
        /// Destination tier index.
        to: TierIdx,
        /// 1-based retry attempt.
        attempt: u32,
    },
}

impl EventKind {
    /// Stable lowercase name of the event type, used by the exporters.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::WindowBoundary { .. } => "window",
            EventKind::OrderIssued { .. } => "order_issued",
            EventKind::OrderCompleted { .. } => "order_completed",
            EventKind::OrderDropped { .. } => "order_dropped",
            EventKind::PromotionRejected { .. } => "promotion_rejected",
            EventKind::ChannelSaturated { .. } => "channel_saturated",
            EventKind::ChannelRecovered { .. } => "channel_recovered",
            EventKind::SampleBatch { .. } => "sample_batch",
            EventKind::PolicyTelemetry { .. } => "policy_telemetry",
            EventKind::FaultInjected { .. } => "fault_injected",
            EventKind::OrderRetried { .. } => "order_retried",
        }
    }
}

// A tag byte, then the variant's fields; labels come back interned.
pact_stats::codec! {
    impl Codec for EventKind {
        0 => WindowBoundary { index, promotions, demotions, failed_promotions, dropped_orders },
        1 => OrderIssued { page, to, sync },
        2 => OrderCompleted { page, to, moved },
        3 => OrderDropped { page, to },
        4 => PromotionRejected { page },
        5 => ChannelSaturated { tier, backlog_cycles },
        6 => ChannelRecovered { tier, episode_cycles },
        7 => SampleBatch { pebs, hint_faults },
        8 => PolicyTelemetry { key, value },
        9 => FaultInjected { kind, arg },
        10 => OrderRetried { page, to, attempt },
    }
}

pact_stats::codec! {
    impl Codec for TraceEvent { cycle, kind }
}

/// Human-readable tier name for a [`TierIdx`].
pub(crate) fn tier_name(t: TierIdx) -> &'static str {
    if t == 0 {
        "fast"
    } else {
        "slow"
    }
}

/// A bounded, preallocated event sink.
///
/// Construct with [`Tracer::ring`] to record (capacity fixed up
/// front), or [`Tracer::disabled`] for a no-op sink that never
/// allocates. The simulator emits into either unconditionally.
#[derive(Debug, Clone)]
pub struct Tracer {
    enabled: bool,
    cap: usize,
    events: Vec<TraceEvent>,
    /// Ring head: index of the oldest event once the buffer has wrapped.
    head: usize,
    overwritten: u64,
}

/// Default ring capacity: enough for every window event of a
/// paper-scale run plus a dense migration phase, at ~40 B/event.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 20;

impl Tracer {
    /// A disabled sink: no allocation, `emit` is a single branch.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            cap: 0,
            events: Vec::new(),
            head: 0,
            overwritten: 0,
        }
    }

    /// An enabled sink with a preallocated ring of `capacity` events
    /// (at least 1). When full, the oldest events are overwritten.
    pub fn ring(capacity: usize) -> Self {
        let cap = capacity.max(1);
        Self {
            enabled: true,
            cap,
            events: Vec::with_capacity(cap),
            head: 0,
            overwritten: 0,
        }
    }

    /// Records one event (no-op on a disabled sink).
    #[inline(always)]
    pub fn emit(&mut self, cycle: u64, kind: EventKind) {
        if !self.enabled {
            return;
        }
        self.push(TraceEvent { cycle, kind });
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.events.len() < self.cap {
            self.events.push(ev);
        } else {
            self.events[self.head] = ev;
            self.head = (self.head + 1) % self.cap;
            self.overwritten += 1;
        }
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are held.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events overwritten after the ring filled.
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// Ring capacity (0 for a disabled sink).
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// The held events in chronological (emission) order.
    pub fn events_in_order(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.events.len());
        out.extend_from_slice(&self.events[self.head..]);
        out.extend_from_slice(&self.events[..self.head]);
        out
    }
}

// The sink's configuration and full ring contents. A resumed run
// re-creates its tracer from the same settings, so a different
// enablement or capacity is an error rather than a silent trace
// divergence.
pact_stats::codec! {
    impl State for Tracer {
        enabled: eq, cap: eq, head, overwritten, events,
    } then |t| {
        let (len, head, cap) = (t.events.len(), t.head, t.cap);
        // The head is meaningful only once the ring has wrapped
        // (len == cap); before that it must still be 0.
        if len > cap || (head != 0 && (len < cap || head >= cap)) {
            return Err(format!(
                "tracer snapshot ring shape is invalid: len={len} head={head} cap={cap}"
            ));
        }
        // Keep the ring's one allocation, so `emit` never grows it.
        t.events.reserve_exact(cap - len);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pact_stats::{ByteReader, ByteWriter, CodecError, State};

    #[test]
    fn disabled_sink_never_allocates() {
        let mut t = Tracer::disabled();
        for i in 0..10_000 {
            t.emit(i, EventKind::PromotionRejected { page: i });
        }
        assert!(t.is_empty());
        assert_eq!(t.capacity(), 0);
        // The backing vector must not have grown: zero capacity means
        // zero heap allocation for the event buffer.
        assert_eq!(t.events.capacity(), 0);
        assert_eq!(t.overwritten(), 0);
    }

    #[test]
    fn ring_preserves_order_and_overwrites_oldest() {
        let mut t = Tracer::ring(4);
        for i in 0..6u64 {
            t.emit(i, EventKind::PromotionRejected { page: i });
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.overwritten(), 2);
        let cycles: Vec<u64> = t.events_in_order().iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![2, 3, 4, 5]);
    }

    #[test]
    fn ring_below_capacity_keeps_everything() {
        let mut t = Tracer::ring(16);
        for i in 0..5u64 {
            t.emit(
                i * 100,
                EventKind::SampleBatch {
                    pebs: i,
                    hint_faults: 0,
                },
            );
        }
        assert_eq!(t.len(), 5);
        assert_eq!(t.overwritten(), 0);
        let cycles: Vec<u64> = t.events_in_order().iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![0, 100, 200, 300, 400]);
    }

    #[test]
    fn state_round_trips_through_put_and_get() {
        let mut t = Tracer::ring(4);
        // Every variant, then a wrap that keeps the two carrying labels.
        for (cycle, kind) in (10..).zip(one_of_each()) {
            t.emit(cycle, kind);
        }
        assert_eq!(t.overwritten(), 7);
        let mut w = ByteWriter::new();
        t.put_state(&mut w);
        let bytes = w.into_bytes();
        let mut fresh = Tracer::ring(4);
        fresh.get_state(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(fresh.events_in_order(), t.events_in_order());
        assert_eq!(fresh.overwritten(), t.overwritten());
        // Continuing both in lockstep keeps them identical.
        t.emit(99, EventKind::PromotionRejected { page: 9 });
        fresh.emit(99, EventKind::PromotionRejected { page: 9 });
        assert_eq!(fresh.events_in_order(), t.events_in_order());
        // Re-encoding yields the same bytes.
        let mut w2 = ByteWriter::new();
        fresh.put_state(&mut w2);
        let mut w3 = ByteWriter::new();
        t.put_state(&mut w3);
        assert_eq!(w2.into_bytes(), w3.into_bytes());
    }

    #[test]
    fn decode_rejects_mismatched_sink_shape() {
        let t = Tracer::ring(8);
        let mut w = ByteWriter::new();
        t.put_state(&mut w);
        let bytes = w.into_bytes();
        // Wrong capacity.
        let mut other = Tracer::ring(4);
        assert!(other.get_state(&mut ByteReader::new(&bytes)).is_err());
        // Wrong enablement.
        let mut off = Tracer::disabled();
        assert!(off.get_state(&mut ByteReader::new(&bytes)).is_err());
        // Truncated payload.
        let mut same = Tracer::ring(8);
        assert!(same.get_state(&mut ByteReader::new(&bytes[..3])).is_err());
    }

    #[test]
    fn event_names_are_stable() {
        assert_eq!(
            EventKind::WindowBoundary {
                index: 0,
                promotions: 0,
                demotions: 0,
                failed_promotions: 0,
                dropped_orders: 0
            }
            .name(),
            "window"
        );
        assert_eq!(
            EventKind::ChannelSaturated {
                tier: 1,
                backlog_cycles: 5
            }
            .name(),
            "channel_saturated"
        );
        assert_eq!(tier_name(0), "fast");
        assert_eq!(tier_name(1), "slow");
    }

    /// One value of every [`EventKind`] variant, in tag order. A new
    /// variant belongs here too.
    fn one_of_each() -> Vec<EventKind> {
        vec![
            EventKind::WindowBoundary {
                index: 1,
                promotions: 2,
                demotions: 3,
                failed_promotions: 4,
                dropped_orders: 5,
            },
            EventKind::OrderIssued {
                page: 6,
                to: 1,
                sync: true,
            },
            EventKind::OrderCompleted {
                page: 7,
                to: 0,
                moved: 512,
            },
            EventKind::OrderDropped { page: 8, to: 1 },
            EventKind::PromotionRejected { page: 9 },
            EventKind::ChannelSaturated {
                tier: 1,
                backlog_cycles: 1_000,
            },
            EventKind::ChannelRecovered {
                tier: 0,
                episode_cycles: 77,
            },
            EventKind::SampleBatch {
                pebs: 10,
                hint_faults: 11,
            },
            EventKind::PolicyTelemetry {
                key: "bin_width",
                value: -0.5,
            },
            EventKind::FaultInjected {
                kind: "pebs_loss",
                arg: 12,
            },
            EventKind::OrderRetried {
                page: 13,
                to: 0,
                attempt: 3,
            },
        ]
    }

    /// The tags in the codec's variant list are written by hand, and the
    /// frame layout depends on them; this pins each variant's tag to its
    /// position, checks that it decodes back to itself, and that the
    /// first tag past the last variant is rejected as unknown.
    #[test]
    fn every_variant_round_trips_and_the_next_tag_is_rejected() {
        let all = one_of_each();
        for (tag, kind) in all.iter().enumerate() {
            let mut w = ByteWriter::new();
            w.put(kind);
            let bytes = w.into_bytes();
            assert_eq!(usize::from(bytes[0]), tag, "{kind:?} has the wrong tag");
            let mut r = ByteReader::new(&bytes);
            assert_eq!(r.get::<EventKind>().as_ref(), Ok(kind));
            r.finish().expect("decode consumes every encoded byte");
        }
        let past = u8::try_from(all.len()).expect("fewer than 256 variants");
        assert_eq!(
            ByteReader::new(&[past]).get::<EventKind>(),
            Err(CodecError::BadTag(past))
        );
    }
}
