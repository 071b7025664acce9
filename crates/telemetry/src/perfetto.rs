//! Chrome/Perfetto `trace_event` JSON export.
//!
//! Emits the [legacy trace-event format] that both `chrome://tracing` and
//! [ui.perfetto.dev] load directly: a `traceEvents` array of `"X"`
//! (complete) events with microsecond `ts`/`dur`, plus `"M"` metadata
//! events naming processes and threads. The mapping from simulated
//! execution to the track hierarchy:
//!
//! - **process (`pid`)** — one per [`Track::process`], i.e. per backend
//!   ("pipeline", "fpga", "gpu-fil", "cpu-sklearn", ...);
//! - **thread (`tid`)** — one per [`Track::lane`] within its process: the
//!   query lane, each FPGA engine pass, each PCIe stream, each CPU worker.
//!   Spans on different lanes render as parallel rows, which is what makes
//!   FPGA multi-pass overlap and streamed PCIe transfers visible;
//! - **flow events (`ph:"s"` / `ph:"f"`)** — one pair per causal-flow id
//!   on a span ([`SpanEvent::flows_out`] / [`SpanEvent::flows_in`]): the
//!   serving engine links each request's queue-wait span to the device
//!   pass that scored its batch, so the arrow crosses from the class lane
//!   to the device lane. Flow starts bind to the origin span's end, flow
//!   ends (`bp:"e"`, enclosing-slice binding) to the terminus span's start.
//!
//! [`Track::process`]: crate::span::Track::process
//! [`Track::lane`]: crate::span::Track::lane
//! [`SpanEvent::flows_out`]: crate::span::SpanEvent::flows_out
//! [`SpanEvent::flows_in`]: crate::span::SpanEvent::flows_in
//! [legacy trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//! [ui.perfetto.dev]: https://ui.perfetto.dev

use std::collections::BTreeMap;

use crate::json::JsonWriter;
use crate::span::Trace;

/// Serializes a trace to Perfetto-compatible `trace_event` JSON.
///
/// Event order, pid/tid assignment, and metadata are deterministic: ids are
/// dense integers in order of first appearance, and span events appear in
/// recording order. Each span is followed by its flow steps — `ph:"s"`
/// (flow start, bound to the span's end instant: the moment the request
/// leaves the queue) for each [`SpanEvent::flows_out`] id, then `ph:"f"`
/// with `bp:"e"` (flow end, enclosing-slice binding at the span's start)
/// for each [`SpanEvent::flows_in`] id — so a flow id's `"s"` precedes its
/// `"f"` whenever spans were recorded in causal order.
///
/// [`SpanEvent::flows_out`]: crate::span::SpanEvent::flows_out
/// [`SpanEvent::flows_in`]: crate::span::SpanEvent::flows_in
pub fn to_json(trace: &Trace) -> String {
    let mut pids: BTreeMap<&str, u64> = BTreeMap::new();
    let mut tids: BTreeMap<(&str, &str), u64> = BTreeMap::new();
    // Assign ids by first appearance, not BTreeMap order.
    for ev in trace.events() {
        let process = ev.track.process.as_str();
        let next_pid = pids.len() as u64 + 1;
        pids.entry(process).or_insert(next_pid);
        let next_tid = tids.len() as u64 + 1;
        tids.entry((process, ev.track.lane.as_str()))
            .or_insert(next_tid);
    }

    let mut w = JsonWriter::compact();
    w.begin_object();
    w.key("displayTimeUnit").str("ns");
    w.key("traceEvents").begin_array();

    // Metadata events: name each process and thread.
    let mut named: Vec<(&&str, &u64)> = pids.iter().collect();
    named.sort_by_key(|(_, pid)| **pid);
    for (process, &pid) in named {
        w.begin_object();
        w.key("ph").str("M").key("name").str("process_name");
        w.key("pid").uint(pid);
        w.key("args").begin_object().key("name").str(process).end();
        w.end();
    }
    let mut lanes: Vec<(&(&str, &str), &u64)> = tids.iter().collect();
    lanes.sort_by_key(|(_, tid)| **tid);
    for ((process, lane), &tid) in lanes {
        w.begin_object();
        w.key("ph").str("M").key("name").str("thread_name");
        w.key("pid").uint(pids[process]).key("tid").uint(tid);
        w.key("args").begin_object().key("name").str(lane).end();
        w.end();
    }

    for ev in trace.events() {
        let process = ev.track.process.as_str();
        let pid = pids[process];
        let tid = tids[&(process, ev.track.lane.as_str())];
        w.begin_object();
        w.key("ph").str("X").key("name").str(&ev.name);
        w.key("cat").str(&ev.scope.to_string());
        w.key("ts").float(ev.start.as_micros());
        w.key("dur").float(ev.dur.as_micros());
        w.key("pid").uint(pid).key("tid").uint(tid);
        w.key("args").begin_object();
        if let Some(stage) = ev.stage {
            w.key("stage").str(&stage.to_string());
        }
        for (k, v) in &ev.metadata {
            w.key(k).str(v);
        }
        w.end().end();
        for (ph, ids, at) in [
            ("s", &ev.flows_out, ev.end()),
            ("f", &ev.flows_in, ev.start),
        ] {
            for &id in ids {
                w.begin_object().key("ph").str(ph);
                if ph == "f" {
                    w.key("bp").str("e");
                }
                w.key("cat").str("flow").key("name").str("request");
                w.key("id").uint(id).key("ts").float(at.as_micros());
                w.key("pid").uint(pid).key("tid").uint(tid);
                w.end();
            }
        }
    }

    w.end().end();
    w.finish()
}

#[cfg(test)]
mod tests {
    use mlscore_sim::{SimDuration, SimInstant, Stage};

    use super::*;
    use crate::json::{parse, JsonValue};
    use crate::span::{Scope, SpanEvent, Track};

    fn sample_trace() -> Trace {
        Trace::from_events(vec![
            SpanEvent {
                name: "score".into(),
                stage: Some(Stage::Scoring),
                scope: Scope::Offload,
                start: SimInstant::ZERO,
                dur: SimDuration::from_micros(100.0),
                track: Track::new("fpga", "pass0"),
                metadata: vec![("pass".into(), "0".into())],
                flows_out: vec![],
                flows_in: vec![],
            },
            SpanEvent {
                name: "stream \"weird\"\nname".into(),
                stage: None,
                scope: Scope::Detail,
                start: SimInstant::from_secs(50e-6),
                dur: SimDuration::from_micros(60.0),
                track: Track::new("fpga", "pcie"),
                metadata: vec![],
                flows_out: vec![],
                flows_in: vec![],
            },
        ])
    }

    #[test]
    fn export_parses_and_has_expected_shape() {
        let json = to_json(&sample_trace());
        let doc = parse(&json).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        // 1 process_name + 2 thread_name + 2 spans.
        assert_eq!(events.len(), 5);

        let spans: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("name").unwrap().as_str(), Some("score"));
        assert_eq!(
            spans[0].get("dur").unwrap().as_f64(),
            Some(SimDuration::from_micros(100.0).as_micros()),
        );
        assert_eq!(
            spans[0].get("args").unwrap().get("stage").unwrap().as_str(),
            Some("scoring"),
        );
        // Same process, different lanes -> same pid, distinct tids.
        assert_eq!(
            spans[0].get("pid").unwrap().as_f64(),
            spans[1].get("pid").unwrap().as_f64(),
        );
        assert_ne!(
            spans[0].get("tid").unwrap().as_f64(),
            spans[1].get("tid").unwrap().as_f64(),
        );
    }

    #[test]
    fn metadata_events_name_processes_and_threads() {
        let json = to_json(&sample_trace());
        let doc = parse(&json).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let metas: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("M"))
            .collect();
        assert_eq!(metas.len(), 3);
        assert_eq!(
            metas[0].get("args").unwrap().get("name").unwrap().as_str(),
            Some("fpga"),
        );
    }

    #[test]
    fn flow_events_link_origin_end_to_terminus_start() {
        // A queue-wait span originating flow 7 on one lane, and a device
        // pass terminating it on another: the exporter must emit an "s"
        // step at the origin's end and an "f" (bp:"e") at the terminus'
        // start, both carrying the same id.
        let mut origin = sample_trace().events()[0].clone();
        origin.flows_out = vec![7];
        let mut terminus = sample_trace().events()[1].clone();
        terminus.flows_in = vec![7];
        let json = to_json(&Trace::from_events(vec![origin.clone(), terminus.clone()]));
        let doc = parse(&json).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();

        let starts: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("s"))
            .collect();
        let ends: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("f"))
            .collect();
        assert_eq!(starts.len(), 1);
        assert_eq!(ends.len(), 1);
        assert_eq!(starts[0].get("id").unwrap().as_f64(), Some(7.0));
        assert_eq!(ends[0].get("id").unwrap().as_f64(), Some(7.0));
        assert_eq!(ends[0].get("bp").unwrap().as_str(), Some("e"));
        assert_eq!(starts[0].get("cat").unwrap().as_str(), Some("flow"));
        // Binding instants: origin end, terminus start.
        assert_eq!(
            starts[0].get("ts").unwrap().as_f64(),
            Some(origin.end().as_micros()),
        );
        assert_eq!(
            ends[0].get("ts").unwrap().as_f64(),
            Some(terminus.start.as_micros()),
        );
        // The arrow crosses lanes: distinct tids, same pid as the spans.
        assert_ne!(
            starts[0].get("tid").unwrap().as_f64(),
            ends[0].get("tid").unwrap().as_f64(),
        );
    }

    #[test]
    fn empty_trace_is_valid_json() {
        let json = to_json(&Trace::new());
        let doc = parse(&json).unwrap();
        assert_eq!(doc.get("traceEvents").unwrap(), &JsonValue::Array(vec![]),);
    }
}
