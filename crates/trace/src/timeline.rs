//! Chrome `trace_event` timeline emission (`supersym.timeline/v1`).
//!
//! A [`TimelineSink`] streams one Perfetto/`chrome://tracing`-loadable JSON
//! document to any writer, merging three clocks into one file:
//!
//! * **compile** (pid 1): one complete-event per compile phase on a single
//!   lane, `ts` in cumulative wall-clock microseconds;
//! * **simulate** (pid 2): one complete-event per dynamic instruction on
//!   the lane of its functional unit, `ts`/`dur` in *machine cycles*
//!   (span `[issue, drain)` — a superscalar schedule shows as overlapping
//!   bars), plus `ipc` and `inflight` counter tracks sampled at every
//!   cycle boundary;
//! * **sweep** (pid 3): one lane per worker thread, a complete-event per
//!   executed cell (wall-clock microseconds since the sweep started) and
//!   instant markers for cache hits and quarantines.
//!
//! Every event is rendered straight into one buffer the sink owns and
//! reuses, then handed to the writer with a single `write_all`, so a run
//! costs no allocation per event. The bytes are exactly those of the same
//! event built as a [`crate::JsonObject`] and rendered compactly.
//!
//! The sink follows the [`crate::sink::JsonLinesSink`] discipline: write
//! errors are sticky (the sink goes quiet after the first) and surface at
//! [`TimelineSink::finish`]. Lane timestamps are emitted monotonically
//! nondecreasing per `(pid, tid)` — the invariant the validator in
//! [`crate::parse`] enforces.

use crate::json::{escape_into, format_u64};
use crate::sink::{BlockReplayEvent, IssueEvent, PhaseRecord, TraceSink};
use std::io::{self, Write};

/// Schema identifier of the timeline document.
pub const TIMELINE_SCHEMA: &str = "supersym.timeline/v1";

// The event templates below spell these pids out; the reference test in
// this module pins them to the constants.

/// Process lane of compile-phase spans.
pub const PID_COMPILE: u64 = 1;
/// Process lane of per-instruction pipeline spans and counter tracks.
pub const PID_SIMULATE: u64 = 2;
/// Process lane of sweep workers.
pub const PID_SWEEP: u64 = 3;

/// Streams a `supersym.timeline/v1` Chrome `trace_event` document.
///
/// Constructed bare (compile and sweep lanes work immediately) or with
/// [`TimelineSink::with_pipeline_lanes`] to name the simulate lanes after
/// a machine's functional units. Implements [`TraceSink`], so it can be
/// handed directly to `compile_with_trace` and `simulate_with_sink`.
#[derive(Debug)]
pub struct TimelineSink<W: Write> {
    out: W,
    error: Option<io::Error>,
    any_event: bool,
    /// Render buffer, reused by every event.
    buf: String,
    /// Cumulative compile-lane clock, microseconds.
    compile_us: u64,
    compile_meta: bool,
    /// Simulate-lane names; tid = lane index + 1.
    lanes: Vec<String>,
    /// Class mnemonic → lane index; unmapped classes share an extra lane.
    class_lane: Vec<(String, usize)>,
    pipeline_meta: bool,
    cur_cycle: u64,
    issued_in_cycle: u64,
    /// Drain cycles of issued-but-not-drained instructions.
    inflight: Vec<u64>,
    sweep_meta: bool,
    /// Sweep workers whose thread lane has been named.
    named_workers: Vec<bool>,
}

impl<W: Write> TimelineSink<W> {
    /// Wraps a writer (hand it a `BufWriter` for file output).
    pub fn new(out: W) -> Self {
        TimelineSink {
            out,
            error: None,
            any_event: false,
            buf: String::new(),
            compile_us: 0,
            compile_meta: false,
            lanes: Vec::new(),
            class_lane: Vec::new(),
            pipeline_meta: false,
            cur_cycle: 0,
            issued_in_cycle: 0,
            inflight: Vec::new(),
            sweep_meta: false,
            named_workers: Vec::new(),
        }
    }

    /// Names the simulate lanes and maps instruction-class mnemonics onto
    /// them (typically `FunctionalUnit::name()` and `unit_of(class)` from
    /// a machine description). Classes missing from `class_lane` share one
    /// extra `other` lane.
    #[must_use]
    pub fn with_pipeline_lanes(
        mut self,
        lanes: Vec<String>,
        class_lane: Vec<(String, usize)>,
    ) -> Self {
        self.lanes = lanes;
        self.class_lane = class_lane;
        self
    }

    /// Flushes the document close and returns the writer, or the first
    /// write error the sink swallowed while streaming.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error, including one from the closing write.
    pub fn finish(mut self) -> io::Result<W> {
        // Final counter samples for the last simulated cycle.
        if self.issued_in_cycle > 0 {
            let (cycle, issued) = (self.cur_cycle, self.issued_in_cycle);
            self.counter(cycle, "ipc", issued);
        }
        if let Some(error) = self.error {
            return Err(error);
        }
        if self.any_event {
            self.out.write_all(b"\n]}\n")?;
        } else {
            // No event ever opened the document; write a complete empty one.
            self.buf.clear();
            push_header(&mut self.buf);
            self.buf.push_str("]}\n");
            self.out.write_all(self.buf.as_bytes())?;
        }
        self.out.flush()?;
        Ok(self.out)
    }

    /// Renders one event into the reused buffer, after the document header
    /// (first event) or the `,\n` separator, and writes it with one
    /// `write_all`. `render` appends the event object.
    fn emit(&mut self, render: impl FnOnce(&mut String)) {
        if self.error.is_some() {
            return;
        }
        self.buf.clear();
        if self.any_event {
            self.buf.push_str(",\n");
        } else {
            push_header(&mut self.buf);
            self.buf.push('\n');
        }
        render(&mut self.buf);
        match self.out.write_all(self.buf.as_bytes()) {
            Ok(()) => self.any_event = true,
            Err(error) => self.error = Some(error),
        }
    }

    /// Emits a `process_name`/`thread_name` metadata event.
    fn meta(&mut self, pid: u64, tid: u64, kind: &str, name: &str) {
        self.emit(|out| {
            out.push_str(r#"{"ph":"M","pid":"#);
            push_uint(out, pid);
            out.push_str(r#","tid":"#);
            push_uint(out, tid);
            out.push_str(r#","name":"#);
            escape_into(kind, out);
            out.push_str(r#","args":{"name":"#);
            escape_into(name, out);
            out.push_str("}}");
        });
    }

    fn counter(&mut self, ts: u64, name: &str, value: u64) {
        self.emit(|out| {
            out.push_str(r#"{"ph":"C","pid":2,"tid":0,"ts":"#);
            push_uint(out, ts);
            out.push_str(r#","name":"#);
            escape_into(name, out);
            out.push_str(r#","args":{"value":"#);
            push_uint(out, value);
            out.push_str("}}");
        });
    }

    fn ensure_pipeline_meta(&mut self) {
        if self.pipeline_meta {
            return;
        }
        self.pipeline_meta = true;
        self.meta(PID_SIMULATE, 0, "process_name", "simulate");
        for index in 0..self.lanes.len() {
            let name = self.lanes[index].clone();
            self.meta(PID_SIMULATE, index as u64 + 1, "thread_name", &name);
        }
        self.meta(
            PID_SIMULATE,
            self.lanes.len() as u64 + 1,
            "thread_name",
            "other",
        );
        self.meta(
            PID_SIMULATE,
            self.lanes.len() as u64 + 2,
            "thread_name",
            "block cache",
        );
    }

    fn lane_of(&self, class: &str) -> u64 {
        self.class_lane
            .iter()
            .find(|(mnemonic, _)| mnemonic == class)
            .map_or(self.lanes.len() as u64 + 1, |&(_, lane)| lane as u64 + 1)
    }

    /// Advances the simulate clock to `cycle`, emitting the `ipc` sample
    /// for the finished cycle and the `inflight` sample at the new one.
    fn advance_cycle(&mut self, cycle: u64) {
        let (finished, issued) = (self.cur_cycle, self.issued_in_cycle);
        self.counter(finished, "ipc", issued);
        self.inflight.retain(|&drain| drain > cycle);
        let live = self.inflight.len() as u64;
        self.counter(cycle, "inflight", live);
        self.cur_cycle = cycle;
        self.issued_in_cycle = 0;
    }

    fn ensure_sweep_meta(&mut self) {
        if self.sweep_meta {
            return;
        }
        self.sweep_meta = true;
        self.meta(PID_SWEEP, 0, "process_name", "sweep");
    }

    fn ensure_worker_named(&mut self, worker: usize) {
        if worker >= self.named_workers.len() {
            self.named_workers.resize(worker + 1, false);
        }
        if !self.named_workers[worker] {
            self.named_workers[worker] = true;
            let name = format!("worker {worker}");
            self.meta(PID_SWEEP, worker as u64 + 1, "thread_name", &name);
        }
    }

    /// Records one finished sweep item on its worker's lane: a cache hit
    /// becomes an instant marker, an executed cell a complete-event over
    /// `[start_us, end_us]`, and a non-`"ok"` status additionally drops a
    /// quarantine marker at the cell's end.
    pub fn sweep_item(&mut self, item: &SweepItem<'_>) {
        self.ensure_sweep_meta();
        self.ensure_worker_named(item.worker);
        let tid = item.worker as u64 + 1;
        let push_item_args = |out: &mut String| {
            out.push_str(r#","args":{"cell":"#);
            escape_into(item.cell, out);
            out.push_str(r#","workload":"#);
            escape_into(item.workload, out);
            out.push_str(r#","status":"#);
            escape_into(item.status, out);
            out.push_str("}}");
        };
        if item.cached {
            self.emit(|out| {
                out.push_str(r#"{"ph":"i","pid":3,"tid":"#);
                push_uint(out, tid);
                out.push_str(r#","ts":"#);
                push_uint(out, item.start_us);
                out.push_str(r#","s":"t","name":"cache hit""#);
                push_item_args(out);
            });
            return;
        }
        self.emit(|out| {
            out.push_str(r#"{"ph":"X","pid":3,"tid":"#);
            push_uint(out, tid);
            out.push_str(r#","ts":"#);
            push_uint(out, item.start_us);
            out.push_str(r#","dur":"#);
            push_uint(out, item.end_us.saturating_sub(item.start_us));
            out.push_str(r#","cat":"sweep","name":"#);
            escape_into(item.workload, out);
            push_item_args(out);
        });
        if item.status != "ok" {
            self.emit(|out| {
                out.push_str(r#"{"ph":"i","pid":3,"tid":"#);
                push_uint(out, tid);
                out.push_str(r#","ts":"#);
                push_uint(out, item.end_us);
                out.push_str(r#","s":"t","name":"quarantine","args":{"cell":"#);
                escape_into(item.cell, out);
                out.push_str(r#","status":"#);
                escape_into(item.status, out);
                out.push_str("}}");
            });
        }
    }
}

fn push_uint(out: &mut String, value: u64) {
    let mut digits = [0_u8; 20];
    out.push_str(format_u64(value, &mut digits));
}

/// The document's opening bytes, up to the `[` of the event array.
fn push_header(buf: &mut String) {
    buf.push_str("{\"schema\":\"");
    buf.push_str(TIMELINE_SCHEMA);
    buf.push_str("\",\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
}

/// One finished sweep item, as rendered on a worker lane by
/// [`TimelineSink::sweep_item`].
#[derive(Debug, Clone, Copy)]
pub struct SweepItem<'a> {
    /// Zero-based worker index (lane `tid` is `worker + 1`).
    pub worker: usize,
    /// Item start, microseconds since the sweep began.
    pub start_us: u64,
    /// Item end; equal to `start_us` for cache hits.
    pub end_us: u64,
    /// Whether the result came from the cross-sweep cache.
    pub cached: bool,
    /// Canonical cell name.
    pub cell: &'a str,
    /// Workload name.
    pub workload: &'a str,
    /// Status label: `"ok"`, `"reject"`, `"panic"` or `"timeout"`.
    pub status: &'a str,
}

impl<W: Write> TraceSink for TimelineSink<W> {
    fn phase(&mut self, record: &PhaseRecord<'_>) {
        if !self.compile_meta {
            self.compile_meta = true;
            self.meta(PID_COMPILE, 0, "process_name", "compile");
            self.meta(PID_COMPILE, 1, "thread_name", "phases");
        }
        let ts = self.compile_us;
        let dur_us = u64::try_from(record.wall_ns / 1000).unwrap_or(u64::MAX);
        self.emit(|out| {
            out.push_str(r#"{"ph":"X","pid":1,"tid":1,"ts":"#);
            push_uint(out, ts);
            out.push_str(r#","dur":"#);
            push_uint(out, dur_us);
            out.push_str(r#","cat":"compile","name":"#);
            escape_into(record.name, out);
            out.push_str(r#","args":{"#);
            for (index, &(key, value)) in record.counters.iter().enumerate() {
                if index > 0 {
                    out.push(',');
                }
                escape_into(key, out);
                out.push(':');
                push_uint(out, value);
            }
            out.push_str("}}");
        });
        self.compile_us = self.compile_us.saturating_add(dur_us);
    }

    fn issue(&mut self, event: &IssueEvent) {
        self.ensure_pipeline_meta();
        if event.issue != self.cur_cycle {
            self.advance_cycle(event.issue);
        }
        self.issued_in_cycle += 1;
        self.inflight.push(event.drain);
        let tid = self.lane_of(event.class);
        // The span is `[issue, drain)`: `machine_cycles` is the maximum
        // drain, so no bar extends past the end of the run and per-lane
        // occupancy stays within the cycle account's total.
        let dur = event.drain.saturating_sub(event.issue).max(1);
        self.emit(|out| {
            out.push_str(r#"{"ph":"X","pid":2,"tid":"#);
            push_uint(out, tid);
            out.push_str(r#","ts":"#);
            push_uint(out, event.issue);
            out.push_str(r#","dur":"#);
            push_uint(out, dur);
            out.push_str(r#","cat":"pipeline","name":"#);
            escape_into(event.class, out);
            out.push_str(r#","args":{"pc":"#);
            push_uint(out, event.pc);
            out.push_str(r#","wait":"#);
            push_uint(out, event.wait);
            if let Some(cause) = event.cause {
                out.push_str(r#","cause":"#);
                escape_into(cause, out);
            }
            out.push_str("}}");
        });
    }

    fn block_replay(&mut self, event: &BlockReplayEvent) {
        self.ensure_pipeline_meta();
        // Instant marker on the dedicated "block cache" lane at the block's
        // entry cycle — entry cycles are nondecreasing, so the lane keeps
        // the validator's monotone-timestamp invariant.
        let tid = self.lanes.len() as u64 + 2;
        let name = if event.hit { "replay" } else { "fallback" };
        self.emit(|out| {
            out.push_str(r#"{"ph":"i","pid":2,"tid":"#);
            push_uint(out, tid);
            out.push_str(r#","ts":"#);
            push_uint(out, event.cycle);
            out.push_str(r#","s":"t","name":"#);
            escape_into(name, out);
            out.push_str(r#","args":{"func":"#);
            push_uint(out, u64::from(event.func));
            out.push_str(r#","pc":"#);
            push_uint(out, event.pc);
            out.push_str(r#","instructions":"#);
            push_uint(out, u64::from(event.instructions));
            out.push_str("}}");
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::validate_timeline;

    fn issue(pc: u64, class: &'static str, at: u64, drain: u64) -> IssueEvent {
        IssueEvent {
            func: 0,
            pc,
            class,
            issue: at,
            complete: drain,
            drain,
            wait: 0,
            cause: None,
        }
    }

    fn render<F: FnOnce(&mut TimelineSink<Vec<u8>>)>(f: F) -> String {
        let mut sink = TimelineSink::new(Vec::new());
        f(&mut sink);
        String::from_utf8(sink.finish().expect("no write errors")).unwrap()
    }

    #[test]
    fn empty_timeline_is_a_valid_document() {
        let text = render(|_| {});
        let report = validate_timeline(&text).expect("valid");
        assert_eq!(report.events, 0);
    }

    #[test]
    fn phases_become_contiguous_compile_spans() {
        let text = render(|sink| {
            sink.phase(&PhaseRecord {
                name: "parse",
                wall_ns: 2500,
                counters: &[("source_bytes", 64)],
            });
            sink.phase(&PhaseRecord {
                name: "schedule",
                wall_ns: 4000,
                counters: &[],
            });
        });
        assert!(text.contains(r#""name":"parse""#));
        assert!(text.contains(r#""ts":2,"dur":4,"cat":"compile","name":"schedule""#));
        assert!(text.contains(r#""source_bytes":64"#));
        validate_timeline(&text).expect("valid");
    }

    #[test]
    fn issues_land_on_their_functional_unit_lane() {
        let mut sink = TimelineSink::new(Vec::new()).with_pipeline_lanes(
            vec!["integer".to_string(), "memory".to_string()],
            vec![("intadd".to_string(), 0), ("load".to_string(), 1)],
        );
        sink.issue(&issue(0, "load", 0, 2));
        sink.issue(&issue(1, "intadd", 0, 1));
        sink.issue(&issue(2, "fpdiv", 2, 9));
        let text = String::from_utf8(sink.finish().unwrap()).unwrap();
        validate_timeline(&text).expect("valid");
        // load → memory lane (tid 2), intadd → integer lane (tid 1),
        // unmapped fpdiv → other lane (tid 3).
        assert!(text.contains(r#""tid":2,"ts":0,"dur":2,"cat":"pipeline","name":"load""#));
        assert!(text.contains(r#""tid":1,"ts":0,"dur":1,"cat":"pipeline","name":"intadd""#));
        assert!(text.contains(r#""tid":3,"ts":2,"dur":7,"cat":"pipeline","name":"fpdiv""#));
        // The cycle advance emitted ipc for cycle 0 and inflight at cycle 2.
        assert!(text.contains(r#""ts":0,"name":"ipc","args":{"value":2}"#));
        assert!(text.contains(r#""ts":2,"name":"inflight","args":{"value":0}"#));
        // The final ipc sample covers the last cycle.
        assert!(text.contains(r#""ts":2,"name":"ipc","args":{"value":1}"#));
    }

    #[test]
    fn full_document_round_trips_through_the_validator() {
        let text = render(|sink| {
            sink.phase(&PhaseRecord {
                name: "parse",
                wall_ns: 1000,
                counters: &[],
            });
            sink.issue(&issue(0, "load", 0, 2));
            sink.issue(&issue(1, "intadd", 1, 2));
            let item = |worker, start_us, end_us, cached, cell, status| SweepItem {
                worker,
                start_us,
                end_us,
                cached,
                cell,
                workload: "whet",
                status,
            };
            sink.sweep_item(&item(0, 10, 250, false, "issue=2", "ok"));
            sink.sweep_item(&item(1, 12, 12, true, "issue=4", "ok"));
            sink.sweep_item(&item(0, 260, 300, false, "issue=8", "timeout"));
        });
        let report = validate_timeline(&text).expect("valid");
        assert!(report.events >= 6);
        assert!(report.lanes >= 4);
        assert!(text.contains(r#""name":"cache hit""#));
        assert!(text.contains(r#""name":"quarantine""#));
    }

    #[test]
    fn write_errors_are_sticky_and_surface_at_finish() {
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = TimelineSink::new(Failing);
        sink.issue(&issue(0, "load", 0, 2));
        sink.issue(&issue(1, "load", 1, 3)); // quiet after the first error
        assert!(sink.finish().is_err());
    }

    /// The reference renderer: every event built as a [`JsonObject`] and
    /// rendered through [`JsonValue`]'s compact `Display`.
    mod reference {
        use super::super::*;
        use crate::json::{JsonObject, JsonValue};

        fn event(ph: &str, pid: u64, tid: u64) -> JsonObject {
            JsonObject::new()
                .field("ph", JsonValue::str(ph))
                .field("pid", JsonValue::UInt(pid))
                .field("tid", JsonValue::UInt(tid))
        }

        pub fn meta(pid: u64, tid: u64, kind: &str, name: &str) -> JsonValue {
            event("M", pid, tid)
                .field("name", JsonValue::str(kind))
                .field(
                    "args",
                    JsonObject::new()
                        .field("name", JsonValue::str(name))
                        .build(),
                )
                .build()
        }

        pub fn counter(ts: u64, name: &str, value: u64) -> JsonValue {
            event("C", PID_SIMULATE, 0)
                .field("ts", JsonValue::UInt(ts))
                .field("name", JsonValue::str(name))
                .field(
                    "args",
                    JsonObject::new()
                        .field("value", JsonValue::UInt(value))
                        .build(),
                )
                .build()
        }

        pub fn phase(ts: u64, record: &PhaseRecord<'_>) -> JsonValue {
            let mut args = JsonObject::new();
            for &(key, value) in record.counters {
                args = args.field(key, JsonValue::UInt(value));
            }
            event("X", PID_COMPILE, 1)
                .field("ts", JsonValue::UInt(ts))
                .field("dur", JsonValue::UInt((record.wall_ns / 1000) as u64))
                .field("cat", JsonValue::str("compile"))
                .field("name", JsonValue::str(record.name))
                .field("args", args.build())
                .build()
        }

        pub fn issue(tid: u64, issue: &IssueEvent) -> JsonValue {
            let mut args = JsonObject::new()
                .field("pc", JsonValue::UInt(issue.pc))
                .field("wait", JsonValue::UInt(issue.wait));
            if let Some(cause) = issue.cause {
                args = args.field("cause", JsonValue::str(cause));
            }
            event("X", PID_SIMULATE, tid)
                .field("ts", JsonValue::UInt(issue.issue))
                .field(
                    "dur",
                    JsonValue::UInt(issue.drain.saturating_sub(issue.issue).max(1)),
                )
                .field("cat", JsonValue::str("pipeline"))
                .field("name", JsonValue::str(issue.class))
                .field("args", args.build())
                .build()
        }

        pub fn block_replay(tid: u64, replay: &BlockReplayEvent) -> JsonValue {
            let name = if replay.hit { "replay" } else { "fallback" };
            event("i", PID_SIMULATE, tid)
                .field("ts", JsonValue::UInt(replay.cycle))
                .field("s", JsonValue::str("t"))
                .field("name", JsonValue::str(name))
                .field(
                    "args",
                    JsonObject::new()
                        .field("func", JsonValue::UInt(u64::from(replay.func)))
                        .field("pc", JsonValue::UInt(replay.pc))
                        .field(
                            "instructions",
                            JsonValue::UInt(u64::from(replay.instructions)),
                        )
                        .build(),
                )
                .build()
        }

        /// The span or cache-hit marker of one item, then its quarantine
        /// marker when the status is not `"ok"`.
        pub fn sweep_item(item: &SweepItem<'_>) -> Vec<JsonValue> {
            let tid = item.worker as u64 + 1;
            let item_args = JsonObject::new()
                .field("cell", JsonValue::str(item.cell))
                .field("workload", JsonValue::str(item.workload))
                .field("status", JsonValue::str(item.status))
                .build();
            if item.cached {
                return vec![event("i", PID_SWEEP, tid)
                    .field("ts", JsonValue::UInt(item.start_us))
                    .field("s", JsonValue::str("t"))
                    .field("name", JsonValue::str("cache hit"))
                    .field("args", item_args)
                    .build()];
            }
            let mut events = vec![event("X", PID_SWEEP, tid)
                .field("ts", JsonValue::UInt(item.start_us))
                .field("dur", JsonValue::UInt(item.end_us - item.start_us))
                .field("cat", JsonValue::str("sweep"))
                .field("name", JsonValue::str(item.workload))
                .field("args", item_args)
                .build()];
            if item.status != "ok" {
                events.push(
                    event("i", PID_SWEEP, tid)
                        .field("ts", JsonValue::UInt(item.end_us))
                        .field("s", JsonValue::str("t"))
                        .field("name", JsonValue::str("quarantine"))
                        .field(
                            "args",
                            JsonObject::new()
                                .field("cell", JsonValue::str(item.cell))
                                .field("status", JsonValue::str(item.status))
                                .build(),
                        )
                        .build(),
                );
            }
            events
        }

        pub fn document(events: &[JsonValue]) -> String {
            let header = format!(
                "{{\"schema\":\"{TIMELINE_SCHEMA}\",\"displayTimeUnit\":\"ms\",\"traceEvents\":["
            );
            if events.is_empty() {
                return format!("{header}]}}\n");
            }
            let body: Vec<String> = events.iter().map(JsonValue::to_string).collect();
            format!("{header}\n{}\n]}}\n", body.join(",\n"))
        }
    }

    #[test]
    fn streamed_events_match_the_json_object_reference() {
        // A quote, a backslash, a newline and a control character.
        const ODD: &str = "we\"ird\\na\nme\u{1}";
        let parse = PhaseRecord {
            name: ODD,
            wall_ns: 2500,
            counters: &[("source_bytes", 64), (ODD, 7)],
        };
        let schedule = PhaseRecord {
            name: "schedule",
            wall_ns: 4000,
            counters: &[],
        };
        let load = IssueEvent {
            wait: 2,
            cause: Some("raw_interlock"),
            ..issue(0, "load", 0, 3)
        };
        let odd = issue(1, ODD, 0, 1);
        let add = issue(2, "intadd", 2, 3);
        let hit = BlockReplayEvent {
            func: 1,
            pc: 4,
            cycle: 2,
            instructions: 3,
            hit: true,
        };
        let fallback = BlockReplayEvent {
            cycle: 5,
            instructions: 1,
            hit: false,
            ..hit
        };
        let item = |worker, start_us, end_us, cached, cell, workload, status| SweepItem {
            worker,
            start_us,
            end_us,
            cached,
            cell,
            workload,
            status,
        };
        let ok = item(0, 10, 250, false, "issue=2", "whet", "ok");
        let cached = item(1, 12, 12, true, "issue=4", "whet", "ok");
        let quarantined = item(0, 260, 300, false, ODD, ODD, "timeout");

        let mut sink = TimelineSink::new(Vec::new()).with_pipeline_lanes(
            vec!["integer".to_string(), ODD.to_string()],
            vec![("intadd".to_string(), 0), ("load".to_string(), 1)],
        );
        sink.phase(&parse);
        sink.phase(&schedule);
        sink.issue(&load);
        sink.issue(&odd);
        sink.block_replay(&hit);
        sink.issue(&add);
        sink.block_replay(&fallback);
        for item in [&ok, &cached, &quarantined] {
            sink.sweep_item(item);
        }
        let streamed = String::from_utf8(sink.finish().unwrap()).unwrap();

        let mut expected = vec![
            reference::meta(PID_COMPILE, 0, "process_name", "compile"),
            reference::meta(PID_COMPILE, 1, "thread_name", "phases"),
            reference::phase(0, &parse),
            reference::phase(2, &schedule),
            reference::meta(PID_SIMULATE, 0, "process_name", "simulate"),
            reference::meta(PID_SIMULATE, 1, "thread_name", "integer"),
            reference::meta(PID_SIMULATE, 2, "thread_name", ODD),
            reference::meta(PID_SIMULATE, 3, "thread_name", "other"),
            reference::meta(PID_SIMULATE, 4, "thread_name", "block cache"),
            reference::issue(2, &load),
            reference::issue(3, &odd),
            reference::block_replay(4, &hit),
            reference::counter(0, "ipc", 2),
            reference::counter(2, "inflight", 1),
            reference::issue(1, &add),
            reference::block_replay(4, &fallback),
            reference::meta(PID_SWEEP, 0, "process_name", "sweep"),
            reference::meta(PID_SWEEP, 1, "thread_name", "worker 0"),
        ];
        expected.extend(reference::sweep_item(&ok));
        expected.push(reference::meta(PID_SWEEP, 2, "thread_name", "worker 1"));
        expected.extend(reference::sweep_item(&cached));
        expected.extend(reference::sweep_item(&quarantined));
        expected.push(reference::counter(2, "ipc", 1));
        assert_eq!(streamed, reference::document(&expected));
        validate_timeline(&streamed).expect("valid");

        assert_eq!(render(|_| {}), reference::document(&[]));
    }
}
