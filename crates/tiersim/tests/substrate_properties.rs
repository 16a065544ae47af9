//! Property tests over the substrate primitives: channel, LLC, memory,
//! and the CHMU counter table.

use pact_tiersim::{Channel, Chmu, Llc, LlcConfig, Memory, PageId, SpaceSaving, Tier};
use proptest::prelude::*;

const EPOCH_CYCLES: u64 = 128;
const EPOCHS: u64 = 32;

/// Oracle for [`Channel`]: the same epoch ring, but every query refolds
/// the busy-period recurrence from the oldest tracked epoch.
#[derive(Clone)]
struct RefChannel {
    transfer: f64,
    cap: f64,
    lines: [f64; EPOCHS as usize],
    base: u64,
    carry: f64,
}

impl RefChannel {
    fn new(transfer: f64) -> Self {
        Self {
            transfer,
            cap: EPOCH_CYCLES as f64 / transfer,
            lines: [0.0; EPOCHS as usize],
            base: 0,
            carry: 0.0,
        }
    }

    fn advance_to(&mut self, epoch: u64) {
        if epoch < self.base + EPOCHS {
            return;
        }
        let shift = epoch + 1 - (self.base + EPOCHS);
        for _ in 0..shift.min(EPOCHS) {
            let idx = (self.base % EPOCHS) as usize;
            self.carry = (self.carry + self.lines[idx] - self.cap).max(0.0);
            self.lines[idx] = 0.0;
            self.base += 1;
        }
        if shift > EPOCHS {
            let gap = shift - EPOCHS;
            self.carry = (self.carry - gap as f64 * self.cap).max(0.0);
            self.base += gap;
        }
    }

    fn fold_through(&self, e: u64) -> f64 {
        let mut backlog = self.carry;
        for j in self.base..=e {
            backlog = (backlog + self.lines[(j % EPOCHS) as usize] - self.cap).max(0.0);
        }
        backlog
    }

    fn book(&mut self, t: u64, n: u64) -> f64 {
        let epoch = t / EPOCH_CYCLES;
        self.advance_to(epoch);
        let e = epoch.max(self.base);
        self.lines[(e % EPOCHS) as usize] += n as f64;
        ((self.fold_through(e) - 1.0).max(0.0)) * self.transfer
    }

    fn backlog_lines(&mut self, t: u64) -> f64 {
        let epoch = t / EPOCH_CYCLES;
        self.advance_to(epoch);
        self.fold_through(epoch.max(self.base))
    }
}

/// Moves the clock: mostly small forward steps, lagging queries a few
/// epochs back, jumps past the whole ring, and far-past arrivals that
/// clamp into the oldest slot.
fn next_time(clock: &mut u64, step: u8, amount: u64) -> u64 {
    match step {
        0..=4 => {
            *clock += amount % 400;
            *clock
        }
        5 | 6 => clock.saturating_sub(amount % (6 * EPOCH_CYCLES)),
        7 => {
            *clock += EPOCHS * EPOCH_CYCLES + amount % (3 * EPOCHS * EPOCH_CYCLES);
            *clock
        }
        _ => amount % (*clock + 1) / 8,
    }
}

proptest! {
    /// Channel delays are non-negative and zero on an idle channel.
    #[test]
    fn channel_delay_nonnegative(transfer in 0.5f64..50.0,
                                 times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut ch = Channel::new(transfer);
        for &t in &times {
            let d = ch.book(t, 1);
            prop_assert!(d >= 0.0);
        }
    }

    /// The channel conserves work: booking N lines at one instant
    /// delays the last one by at least (N - capacity_per_window) slots.
    #[test]
    fn channel_conserves_work(transfer in 1.0f64..8.0, n in 100u64..2_000) {
        let mut ch = Channel::new(transfer);
        let d = ch.book(0, n);
        // All n lines must fit into delay + one epoch of service.
        prop_assert!(d >= (n as f64 - 2.0 * 128.0 / transfer) * transfer,
            "n={n} transfer={transfer} delay={d}");
    }

    /// The cached busy-period fold is bit-identical to refolding the
    /// whole ring on every call, for any interleaving of bookings and
    /// queries, across out-of-order times, ring-length gaps and clamped
    /// old arrivals.
    #[test]
    fn channel_matches_full_refold_oracle(
        transfer in 0.5f64..12.0,
        ops in prop::collection::vec((0u8..3, 0u8..9, any::<u64>(), 1u64..120), 1..600),
    ) {
        let mut ch = Channel::new(transfer);
        let mut oracle = RefChannel::new(transfer);
        let mut clock = 0u64;
        for (i, &(kind, step, amount, n)) in ops.iter().enumerate() {
            let t = next_time(&mut clock, step, amount);
            // 0 = book, 1 = backlog_cycles, 2 = backlog_lines_at.
            let (got, want) = match kind {
                0 => (ch.book(t, n), oracle.book(t, n)),
                1 => (ch.backlog_cycles(t), oracle.backlog_lines(t) * oracle.transfer),
                _ => (ch.backlog_lines_at(t), oracle.clone().backlog_lines(t)),
            };
            prop_assert!(got.to_bits() == want.to_bits(),
                "op {i} kind {kind} t={t}: {got} vs oracle {want}");
        }
    }

    /// LLC occupancy never exceeds geometry, and re-access of the most
    /// recent line always hits.
    #[test]
    fn llc_mru_always_hits(lines in prop::collection::vec(0u64..10_000, 1..500)) {
        let mut llc = Llc::new(LlcConfig { size_bytes: 64 * 1024, ways: 8 });
        for &l in &lines {
            llc.access(l);
            prop_assert!(llc.contains(l), "just-inserted line missing");
        }
        prop_assert_eq!(llc.hits() + llc.misses(), lines.len() as u64);
    }

    /// Memory tier accounting: fast_used equals the number of
    /// fast-resident pages after arbitrary move sequences.
    #[test]
    fn memory_accounting_is_exact(ops in prop::collection::vec((0u64..64, any::<bool>()), 1..300)) {
        let mut mem = Memory::new(64, 24, 1);
        for &(page, promote) in &ops {
            mem.ensure_mapped(PageId(page));
            let _ = mem.move_unit(
                PageId(page),
                if promote { Tier::Fast } else { Tier::Slow },
            );
        }
        let counted = (0..64)
            .filter(|&p| mem.tier_of(PageId(p)) == Some(Tier::Fast))
            .count() as u64;
        prop_assert_eq!(counted, mem.fast_used());
        prop_assert!(mem.fast_used() <= mem.fast_capacity());
    }

    /// Space-Saving counts are within the documented error bound of the
    /// true counts for items it retains.
    #[test]
    fn space_saving_error_bound(stream in prop::collection::vec(0u64..50, 50..2_000)) {
        let mut ss = SpaceSaving::new(16);
        let mut truth = std::collections::BTreeMap::new();
        for &p in &stream {
            ss.observe(PageId(p));
            *truth.entry(p).or_insert(0u64) += 1;
        }
        for (page, count, err) in ss.hot_list() {
            let t = truth[&page.0];
            prop_assert!(count >= t, "undercount: {count} < true {t}");
            prop_assert!(count - err <= t, "error bound violated");
        }
        prop_assert_eq!(ss.total(), stream.len() as u64);
    }

    /// The CHMU hot list is sorted descending and bounded by n.
    #[test]
    fn chmu_hot_list_is_sorted(stream in prop::collection::vec(0u64..100, 1..1_000),
                               n in 1usize..32) {
        let mut chmu = Chmu::new(32);
        for &p in &stream {
            chmu.observe(PageId(p));
        }
        let hot = chmu.read_hot(n);
        prop_assert!(hot.len() <= n);
        prop_assert!(hot.windows(2).all(|w| w[0].1 >= w[1].1));
    }
}
