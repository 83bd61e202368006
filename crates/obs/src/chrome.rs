//! Chrome trace-event export — the JSON format `chrome://tracing` and
//! Perfetto (`ui.perfetto.dev`) load directly.
//!
//! Timestamps (`ts`) are virtual cycles, not microseconds; Perfetto only
//! needs them monotonically non-decreasing, which the exporter guarantees
//! by stably sorting events by cycle. Each event source renders on its
//! own named track (bus, L1, checker, driver, tasks).

use crate::event::{Event, EventKind};
use crate::json::JsonWriter;

/// The process id every event carries (single simulated system).
const PID: u64 = 0;

fn tid(track: &str) -> u64 {
    match track {
        "driver" => 0,
        "checker" => 1,
        "bus" => 2,
        "l1" => 3,
        "fault" => 5,
        "recovery" => 6,
        "conformance" => 7,
        _ => 4, // "tasks"
    }
}

fn write_common(w: &mut JsonWriter, name: &str, ph: &str, track: &str, cycle: u64) {
    w.key("name");
    w.string(name);
    w.key("ph");
    w.string(ph);
    w.key("pid");
    w.u64(PID);
    w.key("tid");
    w.u64(tid(track));
    w.key("ts");
    w.u64(cycle);
}

fn write_event(w: &mut JsonWriter, event: &Event) {
    w.begin_object();
    match event.kind {
        EventKind::BusGrant {
            lane,
            task,
            beats,
            waited,
        } => {
            // A complete ("X") event: the grant occupies the bus for
            // `beats` cycles, so it renders as a slice, not a tick.
            write_common(w, event.kind.name(), "X", event.kind.track(), event.cycle);
            w.key("dur");
            w.u64(beats);
            w.key("args");
            w.begin_object();
            w.key("lane");
            w.u64(u64::from(lane));
            w.key("task");
            w.u64(u64::from(task));
            w.key("beats");
            w.u64(beats);
            w.key("waited");
            w.u64(waited);
            w.end_object();
        }
        kind => {
            write_common(w, kind.name(), "i", kind.track(), event.cycle);
            w.key("s");
            w.string("t");
            w.key("args");
            w.begin_object();
            match kind {
                EventKind::BusGrant { .. } => unreachable!("handled above"),
                EventKind::L1Access { hit } => {
                    w.key("hit");
                    w.bool(hit);
                }
                EventKind::TaskStart { task } | EventKind::TaskEnd { task } => {
                    w.key("task");
                    w.u64(u64::from(task));
                }
                EventKind::CheckerCheck {
                    task,
                    object,
                    granted,
                } => {
                    w.key("task");
                    w.u64(u64::from(task));
                    w.key("object");
                    w.u64(u64::from(object));
                    w.key("granted");
                    w.bool(granted);
                }
                EventKind::CheckerStall { task } => {
                    w.key("task");
                    w.u64(u64::from(task));
                }
                EventKind::CheckerEvict { task, entries } => {
                    w.key("task");
                    w.u64(u64::from(task));
                    w.key("entries");
                    w.u64(entries);
                }
                EventKind::CheckerException { task, object } => {
                    w.key("task");
                    w.u64(u64::from(task));
                    w.key("object");
                    w.u64(u64::from(object));
                }
                EventKind::MmioCapInstall { task, object, ok } => {
                    w.key("task");
                    w.u64(u64::from(task));
                    w.key("object");
                    w.u64(u64::from(object));
                    w.key("ok");
                    w.bool(ok);
                }
                EventKind::DriverPhase { task, phase } => {
                    w.key("task");
                    w.u64(u64::from(task));
                    w.key("phase");
                    w.string(phase.label());
                }
                EventKind::FaultInjected { task, fault } => {
                    w.key("task");
                    w.u64(u64::from(task));
                    w.key("fault");
                    w.string(fault.label());
                }
                EventKind::WatchdogAbort { task, ops } => {
                    w.key("task");
                    w.u64(u64::from(task));
                    w.key("ops");
                    w.u64(ops);
                }
                EventKind::TaskRetry {
                    task,
                    attempt,
                    backoff,
                } => {
                    w.key("task");
                    w.u64(u64::from(task));
                    w.key("attempt");
                    w.u64(u64::from(attempt));
                    w.key("backoff");
                    w.u64(backoff);
                }
                EventKind::EngineQuarantined { fu, faults } => {
                    w.key("fu");
                    w.u64(u64::from(fu));
                    w.key("faults");
                    w.u64(u64::from(faults));
                }
                EventKind::CheckerDegraded {
                    detections,
                    regranted,
                } => {
                    w.key("detections");
                    w.u64(detections);
                    w.key("regranted");
                    w.u64(regranted);
                }
                EventKind::TagAudit { task, cleared } => {
                    w.key("task");
                    w.u64(u64::from(task));
                    w.key("cleared");
                    w.u64(cleared);
                }
                EventKind::ConformanceDivergence { op } => {
                    w.key("op");
                    w.u64(op);
                }
                EventKind::ConformanceComplete { ops, divergences } => {
                    w.key("ops");
                    w.u64(ops);
                    w.key("divergences");
                    w.u64(divergences);
                }
                EventKind::AnalysisComplete {
                    safe,
                    flagged,
                    dynamic,
                } => {
                    w.key("safe");
                    w.u64(safe);
                    w.key("flagged");
                    w.u64(flagged);
                    w.key("dynamic");
                    w.u64(dynamic);
                }
                EventKind::FlowAnalysisComplete {
                    segments,
                    reused,
                    units,
                } => {
                    w.key("segments");
                    w.u64(segments);
                    w.key("reused");
                    w.u64(reused);
                    w.key("units");
                    w.u64(units);
                }
                EventKind::StaticVerdictsInstalled { safe_pairs } => {
                    w.key("safe_pairs");
                    w.u64(safe_pairs);
                }
                EventKind::ChecksElided { task, count } => {
                    w.key("task");
                    w.u64(u64::from(task));
                    w.key("count");
                    w.u64(count);
                }
                EventKind::AdaptDecision { epoch, rule } => {
                    w.key("epoch");
                    w.u64(u64::from(epoch));
                    w.key("rule");
                    w.string(rule.label());
                }
                EventKind::ProbationStarted { epoch, window } => {
                    w.key("epoch");
                    w.u64(u64::from(epoch));
                    w.key("window");
                    w.u64(u64::from(window));
                }
                EventKind::ProbationPassed { epoch } => {
                    w.key("epoch");
                    w.u64(u64::from(epoch));
                }
                EventKind::ProbationFailed { epoch, failures } => {
                    w.key("epoch");
                    w.u64(u64::from(epoch));
                    w.key("failures");
                    w.u64(u64::from(failures));
                }
                EventKind::EngineReleased { fu } => {
                    w.key("fu");
                    w.u64(u64::from(fu));
                }
                EventKind::CheckerRepromoted { regranted } => {
                    w.key("regranted");
                    w.u64(regranted);
                }
                EventKind::CheckerModeSwitched { coarse, regranted } => {
                    w.key("coarse");
                    w.bool(coarse);
                    w.key("regranted");
                    w.u64(regranted);
                }
                EventKind::ModelCheckDepth {
                    depth,
                    states,
                    frontier,
                } => {
                    w.key("depth");
                    w.u64(u64::from(depth));
                    w.key("states");
                    w.u64(states);
                    w.key("frontier");
                    w.u64(frontier);
                }
                EventKind::ModelCheckComplete { states, violations } => {
                    w.key("states");
                    w.u64(states);
                    w.key("violations");
                    w.u64(violations);
                }
            }
            w.end_object();
        }
    }
    w.end_object();
}

fn write_thread_name(w: &mut JsonWriter, track: &str) {
    w.begin_object();
    w.key("name");
    w.string("thread_name");
    w.key("ph");
    w.string("M");
    w.key("pid");
    w.u64(PID);
    w.key("tid");
    w.u64(tid(track));
    w.key("args");
    w.begin_object();
    w.key("name");
    w.string(track);
    w.end_object();
    w.end_object();
}

/// Renders `events` as one Chrome trace-event JSON document.
///
/// Events are stably sorted by cycle, so `ts` is monotonically
/// non-decreasing and the output is byte-identical for identical inputs.
#[must_use]
pub fn chrome_trace_json(events: &[Event]) -> String {
    let mut sorted: Vec<&Event> = events.iter().collect();
    sorted.sort_by_key(|e| e.cycle);

    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("displayTimeUnit");
    w.string("ns");
    w.key("traceEvents");
    w.begin_array();
    // Process/thread naming metadata first (no timestamps).
    w.begin_object();
    w.key("name");
    w.string("process_name");
    w.key("ph");
    w.string("M");
    w.key("pid");
    w.u64(PID);
    w.key("args");
    w.begin_object();
    w.key("name");
    w.string("capcheri-sim");
    w.end_object();
    w.end_object();
    for track in [
        "driver",
        "checker",
        "bus",
        "l1",
        "tasks",
        "fault",
        "recovery",
        "conformance",
    ] {
        write_thread_name(&mut w, track);
    }
    for event in sorted {
        write_event(&mut w, event);
    }
    w.end_array();
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Phase;
    use crate::json::validate;

    fn sample_events() -> Vec<Event> {
        vec![
            Event {
                cycle: 30,
                kind: EventKind::BusGrant {
                    lane: 1,
                    task: 0,
                    beats: 2,
                    waited: 4,
                },
            },
            Event {
                cycle: 0,
                kind: EventKind::DriverPhase {
                    task: 1,
                    phase: Phase::Allocate,
                },
            },
            Event {
                cycle: 12,
                kind: EventKind::L1Access { hit: false },
            },
        ]
    }

    #[test]
    fn export_is_well_formed_and_sorted() {
        let json = chrome_trace_json(&sample_events());
        validate(&json).unwrap();
        // ts values appear in non-decreasing order.
        let ts: Vec<u64> = json
            .split("\"ts\":")
            .skip(1)
            .map(|rest| {
                rest.bytes()
                    .take_while(u8::is_ascii_digit)
                    .fold(0u64, |acc, b| acc * 10 + u64::from(b - b'0'))
            })
            .collect();
        assert_eq!(ts, vec![0, 12, 30]);
        assert!(json.contains("\"dur\":2"), "bus grant is a complete event");
    }

    #[test]
    fn export_is_byte_deterministic() {
        let events = sample_events();
        assert_eq!(chrome_trace_json(&events), chrome_trace_json(&events));
    }

    #[test]
    fn empty_trace_is_still_loadable() {
        let json = chrome_trace_json(&[]);
        validate(&json).unwrap();
        assert!(json.contains("traceEvents"));
    }
}
