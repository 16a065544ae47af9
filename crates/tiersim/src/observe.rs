//! Report serialization and trace export: the glue between the
//! simulator's run artifacts ([`RunReport`], [`WindowRecord`], the
//! event [`Tracer`]) and the dependency-free exporters in [`pact_obs`].
//!
//! Everything here is deterministic: field order is fixed, floats are
//! rendered with Rust's shortest-roundtrip formatting, and the
//! per-window series order is `built-ins, telemetry, metrics` with each
//! group in its own stable order. Two runs of the same seed therefore
//! serialize byte-identically — the property the observability CI gate
//! pins.

use pact_obs::{chrome_trace, jsonl, JsonWriter, TraceFormat, Tracer, WindowRow};

use crate::machine::{RunReport, WindowRecord};
use crate::pmu::PmuCounters;

fn u64_pair(j: &mut JsonWriter, key: &str, v: [u64; 2]) {
    j.key(key);
    j.begin_array();
    j.value_u64(v[0]);
    j.value_u64(v[1]);
    j.end_array();
}

fn counters_json(j: &mut JsonWriter, c: &PmuCounters) {
    j.begin_object();
    j.field_u64("accesses", c.accesses);
    j.field_u64("loads", c.loads);
    j.field_u64("stores", c.stores);
    j.field_u64("llc_hits", c.llc_hits);
    u64_pair(j, "llc_misses", c.llc_misses);
    u64_pair(j, "llc_stalls", c.llc_stalls);
    u64_pair(j, "tor_occupancy", c.tor_occupancy);
    u64_pair(j, "tor_busy", c.tor_busy);
    u64_pair(j, "demand_latency_sum", c.demand_latency_sum);
    u64_pair(j, "bytes", c.bytes);
    u64_pair(j, "prefetches", c.prefetches);
    j.field_u64("hint_faults", c.hint_faults);
    j.field_u64("pebs_samples", c.pebs_samples);
    j.end_object();
}

fn window_json(j: &mut JsonWriter, w: &WindowRecord) {
    j.begin_object();
    j.field_u64("index", w.index);
    j.field_u64("end_cycles", w.end_cycles);
    j.field_u64("promotions", w.promotions);
    j.field_u64("demotions", w.demotions);
    j.field_u64("failed_promotions", w.failed_promotions);
    j.field_u64("dropped_orders", w.dropped_orders);
    j.field_u64("trace_dropped_events", w.trace_dropped_events);
    j.key("delta");
    counters_json(j, &w.delta);
    j.key("telemetry");
    j.begin_object();
    for &(k, v) in &w.telemetry {
        j.field_f64(k, v);
    }
    j.end_object();
    j.key("metrics");
    j.begin_object();
    for &(k, v) in &w.metrics {
        j.field_f64(k, v);
    }
    j.end_object();
    j.end_object();
}

impl WindowRecord {
    /// Compact JSON rendering of this window (deterministic field
    /// order; validates against [`pact_obs::validate`]).
    pub fn to_json(&self) -> String {
        let mut j = JsonWriter::new();
        window_json(&mut j, self);
        j.finish()
    }

    /// The window's named series in export order: built-in migration
    /// counts, then policy telemetry, then metric snapshots.
    pub fn series(&self) -> Vec<(&'static str, f64)> {
        let mut s = Vec::with_capacity(5 + self.telemetry.len() + self.metrics.len());
        s.push(("promotions", self.promotions as f64));
        s.push(("demotions", self.demotions as f64));
        s.push(("failed_promotions", self.failed_promotions as f64));
        s.push(("dropped_orders", self.dropped_orders as f64));
        s.push(("trace_dropped_events", self.trace_dropped_events as f64));
        s.extend_from_slice(&self.telemetry);
        s.extend_from_slice(&self.metrics);
        s
    }
}

impl RunReport {
    /// Compact JSON rendering of the whole report: totals, cumulative
    /// counters, per-process summaries, and every per-window record.
    /// A colocated run's processes also carry their counter lanes; a
    /// single process's lane would repeat the totals.
    pub fn to_json(&self) -> String {
        let mut j = JsonWriter::new();
        j.begin_object();
        j.field_str("policy", &self.policy);
        j.field_u64("total_cycles", self.total_cycles);
        j.field_u64("promotions", self.promotions);
        j.field_u64("demotions", self.demotions);
        j.field_u64("failed_promotions", self.failed_promotions);
        j.field_u64("dropped_orders", self.dropped_orders);
        j.key("counters");
        counters_json(&mut j, &self.counters);
        j.key("processes");
        j.begin_array();
        let colocated = self.per_process.len() > 1;
        for p in &self.per_process {
            j.begin_object();
            j.field_str("name", &p.name);
            j.field_u64("cycles", p.cycles);
            j.field_u64("accesses", p.accesses);
            if colocated {
                j.field_u64("promotions", p.promotions);
                j.field_u64("demotions", p.demotions);
                j.field_u64("failed_promotions", p.failed_promotions);
                j.field_u64("dropped_orders", p.dropped_orders);
                u64_pair(&mut j, "stall_cycles", p.stall_cycles);
                j.key("counters");
                counters_json(&mut j, &p.counters);
            }
            j.end_object();
        }
        j.end_array();
        j.key("windows");
        j.begin_array();
        for w in &self.windows {
            window_json(&mut j, w);
        }
        j.end_array();
        j.end_object();
        j.finish()
    }
}

/// Renders the trace of one run — the tracer's events plus the
/// report's per-window series — in the requested format. `label`
/// names the run in the exported file (e.g. `"gups/pact/r0.25"`).
pub fn export_trace(
    report: &RunReport,
    tracer: &Tracer,
    label: &str,
    format: TraceFormat,
) -> String {
    let events = tracer.events_in_order();
    let series: Vec<Vec<(&'static str, f64)>> = report.windows.iter().map(|w| w.series()).collect();
    let rows: Vec<WindowRow<'_>> = report
        .windows
        .iter()
        .zip(&series)
        .map(|(w, s)| WindowRow {
            index: w.index,
            end_cycles: w.end_cycles,
            series: s,
        })
        .collect();
    match format {
        TraceFormat::Chrome => chrome_trace(label, &events, &rows),
        TraceFormat::Jsonl => jsonl(label, &events, &rows),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use crate::machine::{Machine, RunSpec};
    use crate::policy::FirstTouch;
    use crate::types::{Access, LINE_BYTES};
    use crate::workload::TraceWorkload;
    use pact_obs::validate;

    fn small_run() -> (RunReport, Tracer) {
        let trace: Vec<Access> = (0..30_000u64)
            .map(|i| Access::load((i * 17 % 2_000) * LINE_BYTES))
            .collect();
        let wl = TraceWorkload::new("unit", 1 << 20, trace);
        let mut cfg = MachineConfig::skylake_cxl(64);
        cfg.llc.size_bytes = 16 * 1024;
        cfg.window_cycles = 20_000;
        let m = Machine::new(cfg).unwrap();
        let mut tracer = Tracer::ring(1 << 16);
        let r = m
            .run(RunSpec {
                tracer: Some(&mut tracer),
                ..RunSpec::new(&[&wl], &mut FirstTouch::new())
            })
            .expect("run succeeds");
        (r, tracer)
    }

    #[test]
    fn report_json_is_valid_and_deterministic() {
        let (r, _) = small_run();
        let s = r.to_json();
        validate(&s).unwrap();
        assert!(s.contains("\"policy\":\"notier\""));
        assert!(s.contains("\"windows\":["));
        assert_eq!(s, r.to_json());
    }

    #[test]
    fn window_json_is_valid_and_carries_metrics() {
        let (r, _) = small_run();
        let w = &r.windows[0];
        let s = w.to_json();
        validate(&s).unwrap();
        assert!(s.contains("\"mem/fast_used\""));
        assert!(s.contains("\"channel/slow/lines\""));
    }

    #[test]
    fn series_order_is_builtins_then_telemetry_then_metrics() {
        let (r, _) = small_run();
        let s = r.windows[0].series();
        assert_eq!(s[0].0, "promotions");
        assert_eq!(s[3].0, "dropped_orders");
        assert_eq!(s[4].0, "trace_dropped_events");
        assert!(s.iter().any(|&(k, _)| k == "daemon/queue_len"));
        assert!(s.iter().any(|&(k, _)| k == "pebs/latency_cycles_p99"));
    }

    #[test]
    fn export_trace_validates_in_both_formats() {
        let (r, t) = small_run();
        let chrome = export_trace(&r, &t, "unit", TraceFormat::Chrome);
        validate(&chrome).unwrap();
        let lines = export_trace(&r, &t, "unit", TraceFormat::Jsonl);
        for line in lines.lines() {
            validate(line).unwrap();
        }
    }
}
