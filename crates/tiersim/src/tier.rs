//! Bandwidth-channel model: epoch-bucketed capacity accounting.
//!
//! The simulator's thread interleaving is only approximately
//! time-ordered (a pointer-chasing thread jumps hundreds of cycles per
//! access), so a scalar "next free" queue would falsely serialize
//! requests that arrive out of order. Instead each tier's channel books
//! line transfers into fixed-length *epochs*; queue delay is the
//! standard busy-period backlog over the epoch ring. Bookings commute,
//! so arrival-order noise cannot fabricate contention, while sustained
//! overload still builds a real queue (loaded-latency inflation, the
//! effect Figures 2c and 11 rely on).
//!
//! The backlog after epoch `j` is the fold
//! `b[j] = max(0, b[j-1] + lines[j] - cap)` from the carry out of the
//! expired epochs. Each channel caches `b` for the epochs `base..valid_end`,
//! so a query folds only the stale tail. A booking at epoch `e` changes
//! `lines[e]` and so invalidates `b[e..]` (`valid_end = min(valid_end, e)`);
//! advancing the ring turns `b[base]` into the new carry through the same
//! expression and keeps the rest. A whole-window gap drain resets the
//! cache to `base`. Every cached entry was computed by
//! the same f64 operations on the same operands as a full refold from
//! `base`, so results are bit-identical to one; only host time changes.
//! Clocks mostly move forward, so a booking typically folds one epoch
//! instead of 32.

/// Cycles per epoch bucket.
const EPOCH_CYCLES: u64 = 128;

/// Epochs tracked in the ring (window of `EPOCHS * EPOCH_CYCLES` cycles).
const EPOCHS: usize = 32;

/// Ring slot of absolute epoch `epoch`.
fn slot(epoch: u64) -> usize {
    (epoch % EPOCHS as u64) as usize
}

/// One memory tier's bandwidth channel.
#[derive(Debug, Clone)]
pub struct Channel {
    /// Cycles one 64-byte line occupies the channel.
    transfer: f64,
    /// Line capacity of one epoch.
    cap: f64,
    /// Lines booked per epoch, ring-indexed by `epoch % EPOCHS`.
    lines: [f64; EPOCHS],
    /// Epoch index of the oldest ring slot.
    base: u64,
    /// Unserved backlog (lines) carried out of expired epochs.
    carry: f64,
    /// Lifetime count of lines booked (for per-window traffic metrics).
    booked: u64,
    /// Busy-period backlog (lines) after each epoch, ring-indexed like
    /// `lines`; valid for epochs `base..valid_end`.
    prefix: [f64; EPOCHS],
    /// First epoch whose `prefix` entry is stale.
    valid_end: u64,
}

impl Channel {
    /// Creates a channel where each line transfer occupies
    /// `transfer_cycles` of channel time.
    ///
    /// # Panics
    ///
    /// Panics if `transfer_cycles` is not positive/finite.
    pub fn new(transfer_cycles: f64) -> Self {
        assert!(
            transfer_cycles > 0.0 && transfer_cycles.is_finite(),
            "transfer time must be positive"
        );
        Self {
            transfer: transfer_cycles,
            cap: EPOCH_CYCLES as f64 / transfer_cycles,
            lines: [0.0; EPOCHS],
            base: 0,
            carry: 0.0,
            booked: 0,
            prefix: [0.0; EPOCHS],
            valid_end: 0,
        }
    }

    /// Cycles one line occupies the channel.
    pub fn transfer_cycles(&self) -> f64 {
        self.transfer
    }

    fn advance_to(&mut self, epoch: u64) {
        if epoch < self.base + EPOCHS as u64 {
            return;
        }
        let shift = epoch + 1 - (self.base + EPOCHS as u64);
        for _ in 0..shift.min(EPOCHS as u64) {
            let idx = slot(self.base);
            // The fold's own step, so `carry` equals `prefix[idx]` bit
            // for bit and the later cached entries stay valid.
            self.carry = (self.carry + self.lines[idx] - self.cap).max(0.0);
            self.lines[idx] = 0.0;
            self.base += 1;
            self.valid_end = self.valid_end.max(self.base);
        }
        if shift > EPOCHS as u64 {
            // The whole window expired: drain the carry across the gap.
            let gap = shift - EPOCHS as u64;
            self.carry = (self.carry - gap as f64 * self.cap).max(0.0);
            self.base += gap;
            self.valid_end = self.base;
        }
    }

    /// Busy-period backlog (lines) after epoch `e`, for
    /// `base <= e < base + EPOCHS`: folds only the stale epochs from
    /// `valid_end` through `e` and caches each step.
    fn backlog_through(&mut self, e: u64) -> f64 {
        let mut backlog = if self.valid_end == self.base {
            self.carry
        } else {
            self.prefix[slot(self.valid_end - 1)]
        };
        while self.valid_end <= e {
            let idx = slot(self.valid_end);
            backlog = (backlog + self.lines[idx] - self.cap).max(0.0);
            self.prefix[idx] = backlog;
            self.valid_end += 1;
        }
        self.prefix[slot(e)]
    }

    /// Advances the ring to cycle `t` and returns the backlog in lines
    /// there (very old arrivals clamp to `base`).
    fn backlog_lines(&mut self, t: u64) -> f64 {
        let epoch = t / EPOCH_CYCLES;
        self.advance_to(epoch);
        self.backlog_through(epoch.max(self.base))
    }

    /// Books `n` line transfers at cycle `t`; returns the queue delay in
    /// cycles the *last* of them experiences.
    pub fn book(&mut self, t: u64, n: u64) -> f64 {
        self.booked += n;
        let epoch = t / EPOCH_CYCLES;
        self.advance_to(epoch);
        let e = epoch.max(self.base); // very old arrivals clamp to base
        self.lines[slot(e)] += n as f64;
        self.valid_end = self.valid_end.min(e);
        let backlog = self.backlog_through(e);
        ((backlog - 1.0).max(0.0)) * self.transfer
    }

    /// Books one line transfer at cycle `t` unless the backlog there
    /// already exceeds `limit_cycles` of channel time; returns whether it
    /// booked. Bit for bit the same as
    /// `backlog_cycles(t) > limit_cycles` followed, when it is not, by
    /// `book(t, 1)`, but folds epoch `e` once: the backlog before `e`
    /// serves both the check and the booked line's refold.
    pub(crate) fn book_line_unless_backlogged(&mut self, t: u64, limit_cycles: f64) -> bool {
        let epoch = t / EPOCH_CYCLES;
        self.advance_to(epoch);
        let e = epoch.max(self.base); // very old arrivals clamp to base
        let before = if e == self.base {
            self.carry
        } else {
            self.backlog_through(e - 1)
        };
        let idx = slot(e);
        let backlog = (before + self.lines[idx] - self.cap).max(0.0);
        if backlog * self.transfer > limit_cycles {
            return false;
        }
        self.booked += 1;
        self.lines[idx] += 1.0;
        self.prefix[idx] = (before + self.lines[idx] - self.cap).max(0.0);
        self.valid_end = e + 1;
        true
    }

    /// Lifetime count of line transfers booked on this channel.
    pub fn lines_booked(&self) -> u64 {
        self.booked
    }

    /// Unserved backlog at cycle `t`, in lines, computed on a copy so
    /// this channel's ring does not advance. The invariant checker uses
    /// this to bound the drained-line total (`lines_booked - backlog`)
    /// by channel capacity without perturbing subsequent bookings the
    /// way [`backlog_cycles`](Self::backlog_cycles) would.
    pub fn backlog_lines_at(&self, t: u64) -> f64 {
        self.clone().backlog_lines(t)
    }

    /// Line capacity of one epoch (`EPOCH_CYCLES / transfer_cycles`).
    pub fn epoch_capacity_lines(&self) -> f64 {
        self.cap
    }

    /// Number of epochs elapsed by cycle `t` (for capacity bounds).
    pub fn epoch_index(t: u64) -> u64 {
        t / EPOCH_CYCLES
    }

    /// Current backlog at cycle `t`, in cycles of channel time (used by
    /// the prefetcher to yield under load).
    pub fn backlog_cycles(&mut self, t: u64) -> f64 {
        self.backlog_lines(t) * self.transfer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_channel_has_no_delay() {
        let mut ch = Channel::new(2.7);
        assert_eq!(ch.book(1_000, 1), 0.0);
        assert_eq!(ch.book(50_000, 1), 0.0);
    }

    #[test]
    fn burst_within_epoch_queues() {
        let mut ch = Channel::new(2.7);
        // Epoch capacity is 128/2.7 ~ 47.4 lines; book 100 at once.
        let d = ch.book(0, 100);
        assert!(d > 50.0 * 2.7, "delay {d}");
    }

    #[test]
    fn out_of_order_bookings_commute() {
        let mut a = Channel::new(4.0);
        let mut b = Channel::new(4.0);
        // Same bookings, different order, within one ring window.
        let (mut da, mut db) = (0.0, 0.0);
        for &t in &[500u64, 100, 300, 900, 200] {
            da += a.book(t, 10);
        }
        for &t in &[100u64, 200, 300, 500, 900] {
            db += b.book(t, 10);
        }
        assert!((da - db).abs() < 1e-9, "{da} vs {db}");
    }

    #[test]
    fn sustained_overload_builds_backlog() {
        let mut ch = Channel::new(4.0); // cap 32 lines/epoch
        let mut last = 0.0;
        for e in 0..20u64 {
            last = ch.book(e * EPOCH_CYCLES, 64); // 2x capacity
        }
        // Backlog grows ~32 lines per epoch => delay keeps climbing.
        assert!(last > 19.0 * 32.0 * 4.0 * 0.9, "delay {last}");
    }

    #[test]
    fn backlog_drains_over_idle_epochs() {
        let mut ch = Channel::new(4.0);
        ch.book(0, 320); // 10 epochs worth
        let busy = ch.backlog_cycles(0);
        assert!(busy > 1_000.0);
        // After the whole window plus slack passes, the queue is empty.
        let later = (EPOCHS as u64 + 16) * EPOCH_CYCLES;
        assert_eq!(ch.backlog_cycles(later), 0.0);
        assert_eq!(ch.book(later, 1), 0.0);
    }

    #[test]
    fn carry_propagates_across_window_advance() {
        let mut ch = Channel::new(4.0);
        ch.book(0, 3_200); // 100 epochs of work booked at t=0
                           // One window later the backlog must still be large.
        let t = EPOCHS as u64 * EPOCH_CYCLES;
        assert!(ch.backlog_cycles(t) > 1_000.0);
    }

    #[test]
    fn old_arrivals_clamp_into_window() {
        let mut ch = Channel::new(4.0);
        ch.book(100_000, 1);
        // An arrival far in the past books into the oldest slot and
        // does not panic or corrupt state.
        let d = ch.book(10, 1);
        assert!(d >= 0.0);
    }

    #[test]
    fn lines_booked_counts_lifetime_traffic() {
        let mut ch = Channel::new(4.0);
        assert_eq!(ch.lines_booked(), 0);
        ch.book(0, 10);
        ch.book(10_000, 3);
        assert_eq!(ch.lines_booked(), 13);
    }

    #[test]
    fn backlog_lines_at_agrees_with_mutating_backlog_and_is_pure() {
        let mut ch = Channel::new(4.0);
        ch.book(0, 320);
        ch.book(5 * EPOCH_CYCLES, 64);
        for &t in &[
            0u64,
            3 * EPOCH_CYCLES,
            40 * EPOCH_CYCLES,
            100 * EPOCH_CYCLES,
        ] {
            let pure = ch.backlog_lines_at(t);
            let pure2 = ch.backlog_lines_at(t);
            assert_eq!(pure, pure2, "pure query must not mutate");
            let mut probe = ch.clone();
            let cycles = probe.backlog_cycles(t);
            assert!(
                (pure * 4.0 - cycles).abs() < 1e-9,
                "t={t}: {pure} lines vs {cycles} cycles"
            );
        }
    }

    /// The fused prefetch booking against the two calls it replaces:
    /// same verdicts, and every later demand booking sees the same
    /// delay bit for bit.
    #[test]
    fn fused_prefetch_booking_matches_backlog_then_book() {
        let window = EPOCHS as u64 * EPOCH_CYCLES;
        for seed in 0..8 {
            let mut rng = pact_stats::SplitMix64::seed_from_u64(seed);
            let mut fused = Channel::new(if seed.is_multiple_of(2) { 4.0 } else { 2.7 });
            let mut reference = fused.clone();
            let mut t = 0u64;
            for step in 0..20_000 {
                // Mostly forward, sometimes out of order, sometimes a
                // gap that expires part or all of the ring.
                t = match rng.next_u64() % 16 {
                    0 => t.saturating_sub(rng.next_u64() % window),
                    1 => t + window / 2 + rng.next_u64() % (3 * window),
                    _ => t + rng.next_u64() % 40,
                };
                if rng.next_u64().is_multiple_of(3) {
                    let n = 1 + rng.next_u64() % 8;
                    let (a, b) = (fused.book(t, n), reference.book(t, n));
                    assert_eq!(a.to_bits(), b.to_bits(), "seed {seed} step {step}");
                } else {
                    let limit = [0.0, 40.0, 150.0, 1e9][(rng.next_u64() % 4) as usize];
                    let want = reference.backlog_cycles(t) <= limit;
                    if want {
                        reference.book(t, 1);
                    }
                    let got = fused.book_line_unless_backlogged(t, limit);
                    assert_eq!(got, want, "seed {seed} step {step}");
                }
            }
            assert_eq!(fused.lines_booked(), reference.lines_booked());
            for dt in [0, EPOCH_CYCLES, window, 2 * window] {
                let (a, b) = (fused.book(t + dt, 1), reference.book(t + dt, 1));
                assert_eq!(a.to_bits(), b.to_bits(), "seed {seed} tail +{dt}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_transfer_rejected() {
        Channel::new(0.0);
    }
}
