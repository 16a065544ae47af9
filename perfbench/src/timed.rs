//! The `policy` layer timed from outside: a [`TieringPolicy`] that
//! forwards every call to the policy it wraps and records how often,
//! and for how long, the machine called into it.

use std::cell::Cell;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

use pact_tiersim::{
    MachineInfo, PageId, PebsScope, PolicyCtx, SampleEvent, Tier, TieringPolicy, WindowStats,
};

/// `place` calls timed after the run, in one batch.
const PLACE_PROBE_CALLS: u64 = 1 << 20;

/// Host-time counters gathered by [`TimedPolicy`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyTimes {
    /// `on_sample` calls.
    pub sample_calls: u64,
    /// Host ns spent inside `on_sample`.
    pub sample_ns: u64,
    /// `on_window` calls.
    pub window_calls: u64,
    /// Host ns spent inside `on_window`.
    pub window_ns: u64,
    /// `place` calls.
    pub place_calls: u64,
    /// `place` calls in the batch timed after the run.
    pub place_probe_calls: u64,
    /// Host ns the batch took.
    pub place_probe_ns: u64,
}

impl PolicyTimes {
    /// Adds `other`'s counters into `self`.
    pub fn add(&mut self, other: &PolicyTimes) {
        self.sample_calls += other.sample_calls;
        self.sample_ns += other.sample_ns;
        self.window_calls += other.window_calls;
        self.window_ns += other.window_ns;
        self.place_calls += other.place_calls;
        self.place_probe_calls += other.place_probe_calls;
        self.place_probe_ns += other.place_probe_ns;
    }

    /// Estimated host ns spent in the policy: sample and window calls
    /// as measured, `place` calls at the batch's cost per call.
    pub fn total_ns(&self) -> f64 {
        let place = if self.place_probe_calls == 0 {
            0.0
        } else {
            self.place_probe_ns as f64 / self.place_probe_calls as f64 * self.place_calls as f64
        };
        self.sample_ns as f64 + self.window_ns as f64 + place
    }
}

/// Forwards every [`TieringPolicy`] method to `inner`, timing the calls
/// the machine makes during a run. The simulated run is unchanged: the
/// wrapper never alters an argument or a return value.
///
/// `place` runs on every simulated access and often returns at once,
/// faster than the clock can be read, so the run only counts its calls;
/// [`TimedPolicy::probe_place`] times a batch of them afterwards. The
/// cost of reading the clock is measured once and subtracted from every
/// timed `on_sample` and `on_window` call.
pub struct TimedPolicy {
    inner: Box<dyn TieringPolicy>,
    clock_ns: u64,
    times: PolicyTimes,
    // `place` takes `&self`, hence the cell.
    place_calls: Cell<u64>,
}

impl TimedPolicy {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn TieringPolicy>) -> Self {
        Self {
            inner,
            clock_ns: clock_overhead_ns(),
            times: PolicyTimes::default(),
            place_calls: Cell::new(0),
        }
    }

    /// Times a batch of `place` calls on the wrapped policy, cycling
    /// over the first `pages` pages. Call it after the run.
    pub fn probe_place(&mut self, pages: u64) {
        let pages = pages.max(1);
        let start = Instant::now();
        for i in 0..PLACE_PROBE_CALLS {
            black_box(self.inner.place(black_box(PageId(i % pages))));
        }
        self.times.place_probe_ns += elapsed_ns(start);
        self.times.place_probe_calls += PLACE_PROBE_CALLS;
    }

    /// Host ns since `start`, less the cost of reading the clock.
    fn since(&self, start: Instant) -> u64 {
        elapsed_ns(start).saturating_sub(self.clock_ns)
    }

    /// The counters gathered so far.
    pub fn times(&self) -> PolicyTimes {
        PolicyTimes {
            place_calls: self.place_calls.get(),
            ..self.times
        }
    }
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Median host ns of an empty timed interval, measured once.
fn clock_overhead_ns() -> u64 {
    static OVERHEAD: OnceLock<u64> = OnceLock::new();
    *OVERHEAD.get_or_init(|| {
        let mut ns: Vec<u64> = (0..1001).map(|_| elapsed_ns(Instant::now())).collect();
        ns.sort_unstable();
        ns[ns.len() / 2]
    })
}

impl TieringPolicy for TimedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn pebs_scope(&self) -> Option<PebsScope> {
        self.inner.pebs_scope()
    }

    fn prepare(&mut self, info: &MachineInfo) {
        self.inner.prepare(info);
    }

    fn place(&self, page: PageId) -> Option<Tier> {
        self.place_calls.set(self.place_calls.get() + 1);
        self.inner.place(page)
    }

    fn on_sample(&mut self, ev: &SampleEvent, ctx: &mut PolicyCtx) {
        let start = Instant::now();
        self.inner.on_sample(ev, ctx);
        self.times.sample_ns += self.since(start);
        self.times.sample_calls += 1;
    }

    fn on_window(&mut self, win: &WindowStats, ctx: &mut PolicyCtx) {
        let start = Instant::now();
        self.inner.on_window(win, ctx);
        self.times.window_ns += self.since(start);
        self.times.window_calls += 1;
    }

    fn save_state(&self, out: &mut Vec<u8>) -> bool {
        self.inner.save_state(out)
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), String> {
        self.inner.restore_state(state)
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use pact_baselines::{soar_profile, Soar};
    use pact_bench::{experiment_machine, make_policy, TierRatio};
    use pact_tiersim::{Access, Machine, MachineConfig, TraceWorkload, Workload};
    use pact_workloads::suite::{build, Scale};

    use super::*;

    /// Records which trait methods were called on it.
    struct Recorder {
        calls: Rc<RefCell<Vec<&'static str>>>,
    }

    impl Recorder {
        fn log(&self, what: &'static str) {
            let mut calls = self.calls.borrow_mut();
            if !calls.contains(&what) {
                calls.push(what);
            }
        }
    }

    impl TieringPolicy for Recorder {
        fn name(&self) -> &str {
            self.log("name");
            "recorder"
        }
        fn pebs_scope(&self) -> Option<PebsScope> {
            self.log("pebs_scope");
            Some(PebsScope::BothTiers)
        }
        fn prepare(&mut self, _info: &MachineInfo) {
            self.log("prepare");
        }
        fn place(&self, _page: PageId) -> Option<Tier> {
            self.log("place");
            Some(Tier::Slow)
        }
        fn on_sample(&mut self, _ev: &SampleEvent, _ctx: &mut PolicyCtx) {
            self.log("on_sample");
        }
        fn on_window(&mut self, _win: &WindowStats, _ctx: &mut PolicyCtx) {
            self.log("on_window");
        }
        fn save_state(&self, out: &mut Vec<u8>) -> bool {
            self.log("save_state");
            out.push(7);
            true
        }
        fn restore_state(&mut self, state: &[u8]) -> Result<(), String> {
            self.log("restore_state");
            if state == [7] {
                Ok(())
            } else {
                Err("bad state".into())
            }
        }
    }

    #[test]
    fn wrapper_forwards_every_method() {
        let calls = Rc::new(RefCell::new(Vec::new()));
        let mut wrapped = TimedPolicy::new(Box::new(Recorder {
            calls: Rc::clone(&calls),
        }));
        // A chase over 512 pages with a 4-page fast tier: every page is
        // placed, misses are sampled, and windows close.
        let trace: Vec<Access> = (0..200_000u64)
            .map(|i| Access::dependent_load((i.wrapping_mul(2_654_435_761) % 512) * 4096))
            .collect();
        let wl = TraceWorkload::new("chase", 512 * 4096, trace);
        let machine = Machine::new(MachineConfig::skylake_cxl(4)).expect("valid config");
        let report = machine.try_run(&wl, &mut wrapped).expect("run succeeds");
        assert_eq!(report.policy, "recorder");
        let mut blob = Vec::new();
        assert!(wrapped.save_state(&mut blob));
        assert_eq!(blob, [7]);
        assert!(wrapped.restore_state(&blob).is_ok());
        assert!(wrapped.restore_state(&[1]).is_err());

        let mut seen = calls.borrow().clone();
        seen.sort_unstable();
        assert_eq!(
            seen,
            [
                "name",
                "on_sample",
                "on_window",
                "pebs_scope",
                "place",
                "prepare",
                "restore_state",
                "save_state"
            ]
        );
        let t = wrapped.times();
        assert!(t.sample_calls > 0 && t.window_calls > 0);
        assert_eq!(t.place_calls, report.counters.accesses);
        wrapped.probe_place(512);
        assert_eq!(wrapped.times().place_probe_calls, PLACE_PROBE_CALLS);
    }

    fn cell(wl: &dyn Workload, policy: &mut dyn TieringPolicy, fast_pages: u64) -> String {
        Machine::new(experiment_machine(fast_pages))
            .expect("valid config")
            .try_run(wl, policy)
            .expect("run succeeds")
            .to_json()
    }

    #[test]
    fn wrapped_memtis_cell_is_byte_identical() {
        let wl = build("silo", Scale::Smoke, 3);
        let fast = TierRatio::new(1, 1).fast_pages(wl.footprint_bytes());
        let plain = cell(
            wl.as_ref(),
            make_policy("memtis").expect("known").as_mut(),
            fast,
        );
        let mut wrapped = TimedPolicy::new(make_policy("memtis").expect("known"));
        assert_eq!(cell(wl.as_ref(), &mut wrapped, fast), plain);
        assert!(wrapped.times().sample_calls > 0);
    }

    #[test]
    fn wrapped_soar_cell_is_byte_identical() {
        let wl = build("silo", Scale::Smoke, 3);
        let fast = TierRatio::new(1, 1).fast_pages(wl.footprint_bytes());
        let profile = soar_profile(&experiment_machine(0), wl.as_ref());
        let plain = cell(wl.as_ref(), &mut Soar::from_profile(&profile, fast), fast);
        let mut wrapped = TimedPolicy::new(Box::new(Soar::from_profile(&profile, fast)));
        assert_eq!(cell(wl.as_ref(), &mut wrapped, fast), plain);
        assert!(wrapped.times().place_calls > 0);
    }
}
