//! Trace exporters: Chrome-trace JSON for timeline visualisation and
//! JSONL for machine-readable per-window series.
//!
//! * [`chrome_trace`] emits the Trace Event Format understood by
//!   `chrome://tracing` and [Perfetto](https://ui.perfetto.dev):
//!   instant events for migration activity, begin/end pairs for
//!   channel-saturation episodes, and counter tracks for every
//!   per-window series. Timestamps are **simulation cycles** (the
//!   `ts` unit reads as microseconds in the UI; one "µs" = one cycle).
//! * [`jsonl`] emits one JSON object per line: first every trace
//!   event, then every per-window series row, distinguished by the
//!   `"t"` field (`"event"` / `"window"`).
//!
//! Both formats are produced with the deterministic [`crate::json`]
//! writer, so identical runs export byte-identical files.
//!
//! Runtime selection: the `PACT_TRACE` / `PACT_TRACE_FORMAT`
//! variables (named by [`TRACE_ENV`] / [`TRACE_FORMAT_ENV`]) are
//! resolved into a [`TraceConfig`] by `pact-bench`'s `env` registry
//! module — this crate never reads the environment itself.
//!
//! Every `match` here names each [`EventKind`] variant: the denied
//! clippy lint below rejects wildcard arms, so a new variant without an
//! exporter arm fails to compile instead of vanishing from a trace.

#![deny(clippy::wildcard_enum_match_arm)]

use crate::json::JsonWriter;
use crate::tracer::{tier_name, EventKind, TraceEvent};

/// Output format of a trace export.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceFormat {
    /// Chrome Trace Event Format JSON (Perfetto / `chrome://tracing`).
    #[default]
    Chrome,
    /// One JSON object per line: events, then per-window rows.
    Jsonl,
}

impl TraceFormat {
    /// Parses `"chrome"` or `"jsonl"` (case-insensitive).
    pub fn parse(s: &str) -> Option<TraceFormat> {
        match s.to_ascii_lowercase().as_str() {
            "chrome" => Some(TraceFormat::Chrome),
            "jsonl" => Some(TraceFormat::Jsonl),
            _ => None,
        }
    }

    /// Conventional file extension (without dot).
    pub fn extension(self) -> &'static str {
        match self {
            TraceFormat::Chrome => "json",
            TraceFormat::Jsonl => "jsonl",
        }
    }
}

impl std::fmt::Display for TraceFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceFormat::Chrome => write!(f, "chrome"),
            TraceFormat::Jsonl => write!(f, "jsonl"),
        }
    }
}

/// Environment variable naming the trace output path.
pub const TRACE_ENV: &str = "PACT_TRACE";

/// Environment variable selecting the trace format.
pub const TRACE_FORMAT_ENV: &str = "PACT_TRACE_FORMAT";

/// Where and how to write traces. Constructed by binaries (typically
/// from the `pact-bench` `env` registry); this crate only consumes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    /// Output path (file for single runs, directory for sweeps).
    pub path: std::path::PathBuf,
    /// Export format.
    pub format: TraceFormat,
}

/// One window of per-window series data, supplied by the simulator's
/// run report (this crate sits below the simulator and never sees its
/// types directly).
#[derive(Debug, Clone)]
pub struct WindowRow<'a> {
    /// Zero-based window index.
    pub index: u64,
    /// Machine cycle at the end of the window.
    pub end_cycles: u64,
    /// Named series values for this window (promotions, telemetry,
    /// metric snapshots, ...), in a deterministic order.
    pub series: &'a [(&'static str, f64)],
}

const PID: u64 = 1;
/// Chrome-trace thread lanes: machine-level events, the migration
/// daemon, and one lane per channel.
const TID_MACHINE: u64 = 1;
const TID_MIGRATION: u64 = 2;
const TID_CHANNEL_BASE: u64 = 3;

fn event_header(j: &mut JsonWriter, name: &str, ph: &str, ts: u64, tid: u64) {
    j.begin_object();
    j.field_str("name", name);
    j.field_str("ph", ph);
    j.field_u64("ts", ts);
    j.field_u64("pid", PID);
    j.field_u64("tid", tid);
}

fn meta_thread(j: &mut JsonWriter, tid: u64, name: &str) {
    j.begin_object();
    j.field_str("name", "thread_name");
    j.field_str("ph", "M");
    j.field_u64("pid", PID);
    j.field_u64("tid", tid);
    j.key("args");
    j.begin_object();
    j.field_str("name", name);
    j.end_object();
    j.end_object();
}

/// Renders `events` + `windows` as a Chrome Trace Event Format JSON
/// document. `label` names the traced run (shown as the process name).
pub fn chrome_trace(label: &str, events: &[TraceEvent], windows: &[WindowRow<'_>]) -> String {
    let mut j = JsonWriter::new();
    j.begin_object();
    j.field_str("displayTimeUnit", "ms");
    j.key("otherData");
    j.begin_object();
    j.field_str("clock", "sim-cycles");
    j.field_str("run", label);
    j.end_object();
    j.key("traceEvents");
    j.begin_array();

    // Process/thread metadata so the UI shows meaningful lane names.
    j.begin_object();
    j.field_str("name", "process_name");
    j.field_str("ph", "M");
    j.field_u64("pid", PID);
    j.key("args");
    j.begin_object();
    j.field_str("name", label);
    j.end_object();
    j.end_object();
    meta_thread(&mut j, TID_MACHINE, "machine");
    meta_thread(&mut j, TID_MIGRATION, "migration-daemon");
    meta_thread(&mut j, TID_CHANNEL_BASE, "channel-fast");
    meta_thread(&mut j, TID_CHANNEL_BASE + 1, "channel-slow");

    for ev in events {
        match ev.kind {
            EventKind::WindowBoundary {
                index,
                promotions,
                demotions,
                failed_promotions,
                dropped_orders,
            } => {
                event_header(&mut j, "window", "I", ev.cycle, TID_MACHINE);
                j.field_str("s", "g");
                j.key("args");
                j.begin_object();
                j.field_u64("index", index);
                j.end_object();
                j.end_object();
                // Counter tracks: migration flow and queue pressure.
                event_header(&mut j, "migrations", "C", ev.cycle, TID_MACHINE);
                j.key("args");
                j.begin_object();
                j.field_u64("promotions", promotions);
                j.field_u64("demotions", demotions);
                j.end_object();
                j.end_object();
                event_header(&mut j, "queue-pressure", "C", ev.cycle, TID_MACHINE);
                j.key("args");
                j.begin_object();
                j.field_u64("failed_promotions", failed_promotions);
                j.field_u64("dropped_orders", dropped_orders);
                j.end_object();
                j.end_object();
            }
            EventKind::OrderIssued { page, to, sync } => {
                event_header(&mut j, "order-issued", "I", ev.cycle, TID_MIGRATION);
                j.field_str("s", "t");
                j.key("args");
                j.begin_object();
                j.field_u64("page", page);
                j.field_str("to", tier_name(to));
                j.field_bool("sync", sync);
                j.end_object();
                j.end_object();
            }
            EventKind::OrderCompleted { page, to, moved } => {
                event_header(&mut j, "order-completed", "I", ev.cycle, TID_MIGRATION);
                j.field_str("s", "t");
                j.key("args");
                j.begin_object();
                j.field_u64("page", page);
                j.field_str("to", tier_name(to));
                j.field_u64("moved_pages", moved);
                j.end_object();
                j.end_object();
            }
            EventKind::OrderDropped { page, to } => {
                event_header(&mut j, "order-dropped", "I", ev.cycle, TID_MIGRATION);
                j.field_str("s", "t");
                j.key("args");
                j.begin_object();
                j.field_u64("page", page);
                j.field_str("to", tier_name(to));
                j.end_object();
                j.end_object();
            }
            EventKind::PromotionRejected { page } => {
                event_header(&mut j, "promotion-rejected", "I", ev.cycle, TID_MIGRATION);
                j.field_str("s", "t");
                j.key("args");
                j.begin_object();
                j.field_u64("page", page);
                j.end_object();
                j.end_object();
            }
            EventKind::ChannelSaturated {
                tier,
                backlog_cycles,
            } => {
                let tid = TID_CHANNEL_BASE + tier as u64;
                event_header(&mut j, "saturated", "B", ev.cycle, tid);
                j.key("args");
                j.begin_object();
                j.field_u64("backlog_cycles", backlog_cycles);
                j.end_object();
                j.end_object();
            }
            EventKind::ChannelRecovered { tier, .. } => {
                let tid = TID_CHANNEL_BASE + tier as u64;
                event_header(&mut j, "saturated", "E", ev.cycle, tid);
                j.end_object();
            }
            EventKind::SampleBatch { pebs, hint_faults } => {
                event_header(&mut j, "samples", "C", ev.cycle, TID_MACHINE);
                j.key("args");
                j.begin_object();
                j.field_u64("pebs", pebs);
                j.field_u64("hint_faults", hint_faults);
                j.end_object();
                j.end_object();
            }
            EventKind::PolicyTelemetry { key, value } => {
                event_header(&mut j, key, "C", ev.cycle, TID_MACHINE);
                j.key("args");
                j.begin_object();
                j.field_f64("value", value);
                j.end_object();
                j.end_object();
            }
            EventKind::FaultInjected { kind, arg } => {
                event_header(&mut j, "fault-injected", "I", ev.cycle, TID_MACHINE);
                j.field_str("s", "t");
                j.key("args");
                j.begin_object();
                j.field_str("kind", kind);
                j.field_u64("arg", arg);
                j.end_object();
                j.end_object();
            }
            EventKind::OrderRetried { page, to, attempt } => {
                event_header(&mut j, "order-retried", "I", ev.cycle, TID_MIGRATION);
                j.field_str("s", "t");
                j.key("args");
                j.begin_object();
                j.field_u64("page", page);
                j.field_str("to", tier_name(to));
                j.field_u64("attempt", attempt as u64);
                j.end_object();
                j.end_object();
            }
        }
    }

    // Per-window series as counter tracks (one per series name).
    for w in windows {
        for &(name, value) in w.series {
            event_header(&mut j, name, "C", w.end_cycles, TID_MACHINE);
            j.key("args");
            j.begin_object();
            j.field_f64("value", value);
            j.end_object();
            j.end_object();
        }
    }

    j.end_array();
    j.end_object();
    let mut s = j.finish();
    s.push('\n');
    s
}

/// Renders `events` + `windows` as JSONL: one compact JSON object per
/// line, events first (`"t":"event"`), then windows (`"t":"window"`).
pub fn jsonl(label: &str, events: &[TraceEvent], windows: &[WindowRow<'_>]) -> String {
    let mut out = String::new();
    {
        let mut j = JsonWriter::new();
        j.begin_object();
        j.field_str("t", "meta");
        j.field_str("run", label);
        j.field_u64("events", events.len() as u64);
        j.field_u64("windows", windows.len() as u64);
        j.end_object();
        out.push_str(&j.finish());
        out.push('\n');
    }
    for ev in events {
        let mut j = JsonWriter::new();
        j.begin_object();
        j.field_str("t", "event");
        j.field_str("type", ev.kind.name());
        j.field_u64("cycle", ev.cycle);
        match ev.kind {
            EventKind::WindowBoundary {
                index,
                promotions,
                demotions,
                failed_promotions,
                dropped_orders,
            } => {
                j.field_u64("index", index);
                j.field_u64("promotions", promotions);
                j.field_u64("demotions", demotions);
                j.field_u64("failed_promotions", failed_promotions);
                j.field_u64("dropped_orders", dropped_orders);
            }
            EventKind::OrderIssued { page, to, sync } => {
                j.field_u64("page", page);
                j.field_str("to", tier_name(to));
                j.field_bool("sync", sync);
            }
            EventKind::OrderCompleted { page, to, moved } => {
                j.field_u64("page", page);
                j.field_str("to", tier_name(to));
                j.field_u64("moved_pages", moved);
            }
            EventKind::OrderDropped { page, to } => {
                j.field_u64("page", page);
                j.field_str("to", tier_name(to));
            }
            EventKind::PromotionRejected { page } => {
                j.field_u64("page", page);
            }
            EventKind::ChannelSaturated {
                tier,
                backlog_cycles,
            } => {
                j.field_str("tier", tier_name(tier));
                j.field_u64("backlog_cycles", backlog_cycles);
            }
            EventKind::ChannelRecovered {
                tier,
                episode_cycles,
            } => {
                j.field_str("tier", tier_name(tier));
                j.field_u64("episode_cycles", episode_cycles);
            }
            EventKind::SampleBatch { pebs, hint_faults } => {
                j.field_u64("pebs", pebs);
                j.field_u64("hint_faults", hint_faults);
            }
            EventKind::PolicyTelemetry { key, value } => {
                j.field_str("key", key);
                j.field_f64("value", value);
            }
            EventKind::FaultInjected { kind, arg } => {
                j.field_str("kind", kind);
                j.field_u64("arg", arg);
            }
            EventKind::OrderRetried { page, to, attempt } => {
                j.field_u64("page", page);
                j.field_str("to", tier_name(to));
                j.field_u64("attempt", attempt as u64);
            }
        }
        j.end_object();
        out.push_str(&j.finish());
        out.push('\n');
    }
    for w in windows {
        let mut j = JsonWriter::new();
        j.begin_object();
        j.field_str("t", "window");
        j.field_u64("index", w.index);
        j.field_u64("end_cycles", w.end_cycles);
        for &(name, value) in w.series {
            j.field_f64(name, value);
        }
        j.end_object();
        out.push_str(&j.finish());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                cycle: 10,
                kind: EventKind::OrderIssued {
                    page: 7,
                    to: 0,
                    sync: false,
                },
            },
            TraceEvent {
                cycle: 20,
                kind: EventKind::ChannelSaturated {
                    tier: 1,
                    backlog_cycles: 900,
                },
            },
            TraceEvent {
                cycle: 45,
                kind: EventKind::ChannelRecovered {
                    tier: 1,
                    episode_cycles: 25,
                },
            },
            TraceEvent {
                cycle: 50,
                kind: EventKind::WindowBoundary {
                    index: 0,
                    promotions: 1,
                    demotions: 0,
                    failed_promotions: 2,
                    dropped_orders: 3,
                },
            },
            TraceEvent {
                cycle: 50,
                kind: EventKind::PolicyTelemetry {
                    key: "bin_width",
                    value: 1.5,
                },
            },
            TraceEvent {
                cycle: 60,
                kind: EventKind::FaultInjected {
                    kind: "channel_stall",
                    arg: 20_000,
                },
            },
            TraceEvent {
                cycle: 70,
                kind: EventKind::OrderRetried {
                    page: 7,
                    to: 0,
                    attempt: 2,
                },
            },
        ]
    }

    type SampleWindow = (u64, u64, Vec<(&'static str, f64)>);

    fn sample_windows() -> Vec<SampleWindow> {
        vec![(0, 50, vec![("promotions", 1.0), ("queue/len", 2.0)])]
    }

    fn rows<'a>(w: &'a [SampleWindow]) -> Vec<WindowRow<'a>> {
        w.iter()
            .map(|(i, e, s)| WindowRow {
                index: *i,
                end_cycles: *e,
                series: s,
            })
            .collect()
    }

    #[test]
    fn chrome_trace_is_valid_json_with_expected_events() {
        let w = sample_windows();
        let s = chrome_trace("unit", &sample_events(), &rows(&w));
        validate(&s).unwrap();
        assert!(s.contains("\"traceEvents\""));
        assert!(s.contains("order-issued"));
        assert!(s.contains("\"ph\":\"B\"") && s.contains("\"ph\":\"E\""));
        assert!(s.contains("queue-pressure"));
        assert!(s.contains("bin_width"));
        assert!(s.contains("fault-injected") && s.contains("channel_stall"));
        assert!(s.contains("order-retried"));
        assert!(s.ends_with('\n'));
    }

    #[test]
    fn jsonl_lines_each_validate() {
        let w = sample_windows();
        let s = jsonl("unit", &sample_events(), &rows(&w));
        let lines: Vec<&str> = s.lines().collect();
        // meta + 7 events + 1 window.
        assert_eq!(lines.len(), 9);
        for line in &lines {
            validate(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        assert!(lines[0].contains("\"t\":\"meta\""));
        assert!(lines[1].contains("\"type\":\"order_issued\""));
        assert!(lines[6].contains("\"type\":\"fault_injected\""));
        assert!(lines[7].contains("\"type\":\"order_retried\""));
        assert!(lines[8].contains("\"t\":\"window\""));
        assert!(lines[8].contains("\"queue/len\":2"));
    }

    #[test]
    fn exports_are_deterministic() {
        let w = sample_windows();
        let a = chrome_trace("unit", &sample_events(), &rows(&w));
        let b = chrome_trace("unit", &sample_events(), &rows(&w));
        assert_eq!(a, b);
        assert_eq!(
            jsonl("unit", &sample_events(), &rows(&w)),
            jsonl("unit", &sample_events(), &rows(&w))
        );
    }

    #[test]
    fn format_parsing() {
        assert_eq!(TraceFormat::parse("chrome"), Some(TraceFormat::Chrome));
        assert_eq!(TraceFormat::parse("JSONL"), Some(TraceFormat::Jsonl));
        assert_eq!(TraceFormat::parse("xml"), None);
        assert_eq!(TraceFormat::Chrome.extension(), "json");
        assert_eq!(TraceFormat::Jsonl.extension(), "jsonl");
        assert_eq!(TraceFormat::Jsonl.to_string(), "jsonl");
    }
}
