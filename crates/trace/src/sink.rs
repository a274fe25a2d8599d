//! Trace sinks: where telemetry events go.
//!
//! A [`TraceSink`] is handed *by the caller* to the compiler
//! (`compile_with_trace`) and the simulator (`simulate_with_sink`) — there
//! is no global state, no registration, and a `None` sink costs the
//! producers nothing but a branch. Two event kinds cover the pipeline:
//!
//! * [`PhaseRecord`] — one per compile phase: wall time plus a small set of
//!   named counters (IR sizes, dependence-edge counts, scheduler decisions);
//! * [`IssueEvent`] — one per dynamic instruction: issue/complete/drain
//!   cycles, how long it waited, and the stall cause that bound it.

use crate::json::{JsonObject, JsonValue};
use std::io::{self, Write};

/// One compile phase, reported after the phase finishes.
///
/// Borrowed so producers can report from stack data without allocating;
/// sinks that need ownership copy what they keep.
#[derive(Debug, Clone, Copy)]
pub struct PhaseRecord<'a> {
    /// Phase name (`"parse"`, `"schedule"`, …).
    pub name: &'a str,
    /// Wall-clock time the phase took, in nanoseconds.
    pub wall_ns: u128,
    /// Named counters: IR sizes, edge counts, decision tallies.
    pub counters: &'a [(&'a str, u64)],
}

/// One dynamic instruction's trip through the pipeline timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueEvent {
    /// Function index of the static instruction.
    pub func: u32,
    /// Instruction index within the function.
    pub pc: u64,
    /// Instruction-class mnemonic (`"load"`, `"fpadd"`, …).
    pub class: &'static str,
    /// Machine cycle the instruction issued in.
    pub issue: u64,
    /// Machine cycle its (first) result became available.
    pub complete: u64,
    /// Machine cycle it fully drained (vector tail included).
    pub drain: u64,
    /// Machine cycles it waited past the in-order frontier before issuing.
    pub wait: u64,
    /// Stall-cause label that bound the wait (`None` when `wait == 0`).
    pub cause: Option<&'static str>,
}

/// The simulator's block timing cache replayed a trace.
///
/// Emitted once per replay (not per instruction), when it ends; the
/// replayed instructions still each get an [`IssueEvent`]. `hit: true`
/// when the trace's recorded summary was applied, which includes a trace
/// whose final branch went the other way (a loop exit). `hit: false` when
/// verification failed mid-trace: the verified prefix was applied, the
/// diverging instruction ran on the exact model, and the next one starts a
/// new trace. Trace visits that run exact from the start to record a new
/// entry state emit nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockReplayEvent {
    /// Function index of the trace's entry instruction.
    pub func: u32,
    /// Entry-instruction index within the function.
    pub pc: u64,
    /// Machine cycle at trace entry.
    pub cycle: u64,
    /// Instructions the replay served: the whole trace on a hit, the
    /// verified prefix on a fallback.
    pub instructions: u32,
    /// Whether the replay ran to the end of the trace.
    pub hit: bool,
}

/// A telemetry consumer. All methods default to no-ops so sinks implement
/// only what they care about.
pub trait TraceSink {
    /// A compile phase finished.
    fn phase(&mut self, record: &PhaseRecord<'_>) {
        let _ = record;
    }

    /// A dynamic instruction issued.
    fn issue(&mut self, event: &IssueEvent) {
        let _ = event;
    }

    /// The simulator's block timing cache replayed (or abandoned a replay
    /// of) a block.
    fn block_replay(&mut self, event: &BlockReplayEvent) {
        let _ = event;
    }
}

/// Discards everything (useful as an explicit "no telemetry" argument).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {}

/// An owned copy of a [`PhaseRecord`], as stored by [`MemorySink`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnedPhase {
    /// Phase name.
    pub name: String,
    /// Wall-clock nanoseconds.
    pub wall_ns: u128,
    /// Named counters.
    pub counters: Vec<(String, u64)>,
}

/// Records every event in memory — the sink behind `titalc profile` and the
/// unit tests.
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    /// Compile phases, in order.
    pub phases: Vec<OwnedPhase>,
    /// Issue events, in order. Beware: one entry per *dynamic* instruction.
    pub issues: Vec<IssueEvent>,
}

impl MemorySink {
    /// An empty sink.
    #[must_use]
    pub fn new() -> Self {
        MemorySink::default()
    }
}

impl TraceSink for MemorySink {
    fn phase(&mut self, record: &PhaseRecord<'_>) {
        self.phases.push(OwnedPhase {
            name: record.name.to_string(),
            wall_ns: record.wall_ns,
            counters: record
                .counters
                .iter()
                .map(|&(k, v)| (k.to_string(), v))
                .collect(),
        });
    }

    fn issue(&mut self, event: &IssueEvent) {
        self.issues.push(*event);
    }
}

/// Counts loop iterations and loop visits from the issue stream — the sink
/// behind the static-ILP-bound report (`titalc bound`).
///
/// Each watch names one innermost loop by `(func, header_pc, latch_pc)`.
/// Every issue of the header counts an **iteration**; a header issue whose
/// immediately preceding dynamic instruction was *not* the latch counts a
/// **visit** (loop entry from outside). Since an innermost loop's latch is
/// its only backward branch and the header is never `latch + 1`, "previous
/// event was the latch" is exactly "we arrived via the back edge".
#[derive(Debug, Clone, Default)]
pub struct LoopCountSink {
    watches: Vec<LoopWatch>,
    prev: Option<(u32, u64)>,
}

#[derive(Debug, Clone, Copy)]
struct LoopWatch {
    func: u32,
    header_pc: u64,
    latch_pc: u64,
    iterations: u64,
    visits: u64,
}

impl LoopCountSink {
    /// Builds a sink watching the given `(func, header_pc, latch_pc)`
    /// triples, in order.
    #[must_use]
    pub fn new(watches: &[(u32, u64, u64)]) -> Self {
        LoopCountSink {
            watches: watches
                .iter()
                .map(|&(func, header_pc, latch_pc)| LoopWatch {
                    func,
                    header_pc,
                    latch_pc,
                    iterations: 0,
                    visits: 0,
                })
                .collect(),
            prev: None,
        }
    }

    /// `(iterations, visits)` per watch, in construction order.
    #[must_use]
    pub fn counts(&self) -> Vec<(u64, u64)> {
        self.watches
            .iter()
            .map(|w| (w.iterations, w.visits))
            .collect()
    }
}

impl TraceSink for LoopCountSink {
    fn issue(&mut self, event: &IssueEvent) {
        for watch in &mut self.watches {
            if watch.func == event.func && watch.header_pc == event.pc {
                watch.iterations += 1;
                if self.prev != Some((watch.func, watch.latch_pc)) {
                    watch.visits += 1;
                }
            }
        }
        self.prev = Some((event.func, event.pc));
    }
}

/// Streams events as JSON lines (one object per line) to any writer — the
/// sink behind `titalc --trace <file>`. Write errors are sticky: the first
/// one is kept and the sink goes quiet, so the hot path needs no `Result`.
#[derive(Debug)]
pub struct JsonLinesSink<W: Write> {
    out: W,
    error: Option<io::Error>,
}

impl<W: Write> JsonLinesSink<W> {
    /// Wraps a writer (hand it a `BufWriter` for file output).
    pub fn new(out: W) -> Self {
        JsonLinesSink { out, error: None }
    }

    /// Flushes and returns the writer, or the first write error.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error the sink swallowed while streaming.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(error) = self.error {
            return Err(error);
        }
        self.out.flush()?;
        Ok(self.out)
    }

    fn write_value(&mut self, value: &JsonValue) {
        if self.error.is_some() {
            return;
        }
        if let Err(error) = writeln!(self.out, "{value}") {
            self.error = Some(error);
        }
    }
}

impl<W: Write> TraceSink for JsonLinesSink<W> {
    fn phase(&mut self, record: &PhaseRecord<'_>) {
        let counters = record
            .counters
            .iter()
            .map(|&(k, v)| (k.to_string(), JsonValue::UInt(v)))
            .collect();
        let value = JsonObject::new()
            .field("event", JsonValue::str("phase"))
            .field("name", JsonValue::str(record.name))
            .field("wall_ns", JsonValue::UInt(clamp_u128(record.wall_ns)))
            .field("counters", JsonValue::Object(counters))
            .build();
        self.write_value(&value);
    }

    fn issue(&mut self, event: &IssueEvent) {
        let cause = match event.cause {
            Some(label) => JsonValue::str(label),
            None => JsonValue::Null,
        };
        let value = JsonObject::new()
            .field("event", JsonValue::str("issue"))
            .field("func", JsonValue::UInt(u64::from(event.func)))
            .field("pc", JsonValue::UInt(event.pc))
            .field("class", JsonValue::str(event.class))
            .field("issue", JsonValue::UInt(event.issue))
            .field("complete", JsonValue::UInt(event.complete))
            .field("drain", JsonValue::UInt(event.drain))
            .field("wait", JsonValue::UInt(event.wait))
            .field("cause", cause)
            .build();
        self.write_value(&value);
    }
}

fn clamp_u128(n: u128) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_issue() -> IssueEvent {
        IssueEvent {
            func: 0,
            pc: 3,
            class: "load",
            issue: 7,
            complete: 9,
            drain: 9,
            wait: 2,
            cause: Some("raw_interlock"),
        }
    }

    #[test]
    fn memory_sink_records_both_event_kinds() {
        let mut sink = MemorySink::new();
        sink.phase(&PhaseRecord {
            name: "parse",
            wall_ns: 1234,
            counters: &[("functions", 3)],
        });
        sink.issue(&sample_issue());
        assert_eq!(sink.phases.len(), 1);
        assert_eq!(sink.phases[0].name, "parse");
        assert_eq!(sink.phases[0].counters, vec![("functions".to_string(), 3)]);
        assert_eq!(sink.issues, vec![sample_issue()]);
    }

    #[test]
    fn json_lines_sink_emits_one_object_per_line() {
        let mut sink = JsonLinesSink::new(Vec::new());
        sink.phase(&PhaseRecord {
            name: "schedule",
            wall_ns: 10,
            counters: &[("regions", 4)],
        });
        sink.issue(&sample_issue());
        let bytes = sink.finish().expect("no write errors");
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            r#"{"event":"phase","name":"schedule","wall_ns":10,"counters":{"regions":4}}"#
        );
        assert_eq!(
            lines[1],
            r#"{"event":"issue","func":0,"pc":3,"class":"load","issue":7,"complete":9,"drain":9,"wait":2,"cause":"raw_interlock"}"#
        );
    }

    #[test]
    fn json_lines_sink_reports_write_errors_at_finish() {
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonLinesSink::new(Failing);
        sink.issue(&sample_issue());
        sink.issue(&sample_issue()); // goes quiet after the first error
        assert!(sink.finish().is_err());
    }

    #[test]
    fn json_lines_sink_surfaces_torn_mid_line_writes() {
        // Accepts `budget` bytes, then fails: the first event line tears
        // partway through, like a disk filling mid-record. The error must
        // surface at finish() — not panic, not silently truncate.
        #[derive(Debug)]
        struct Torn {
            budget: usize,
            written: Vec<u8>,
        }
        impl Write for Torn {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.budget == 0 {
                    return Err(io::Error::other("no space left on device"));
                }
                let n = buf.len().min(self.budget);
                self.budget -= n;
                self.written.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonLinesSink::new(Torn {
            budget: 10,
            written: Vec::new(),
        });
        sink.issue(&sample_issue());
        sink.issue(&sample_issue()); // quiet: nothing appended after the tear
        let error = sink.finish().expect_err("torn write must surface");
        assert_eq!(error.to_string(), "no space left on device");
    }

    #[test]
    fn loop_count_sink_separates_iterations_from_visits() {
        // Loop: header pc 2, latch pc 4. Two visits: 3 iterations, then 1.
        let mut sink = LoopCountSink::new(&[(0, 2, 4)]);
        let at = |func: u32, pc: u64| IssueEvent {
            func,
            pc,
            class: "intadd",
            issue: 0,
            complete: 1,
            drain: 1,
            wait: 0,
            cause: None,
        };
        for pc in [0, 1, 2, 3, 4, 2, 3, 4, 2, 3, 4, 5] {
            sink.issue(&at(0, pc));
        }
        // Re-entry later (prev = pc 5, not the latch).
        for pc in [2, 3, 4, 5] {
            sink.issue(&at(0, pc));
        }
        assert_eq!(sink.counts(), vec![(4, 2)]);
        // A different function's pc 2 must not count.
        sink.issue(&at(1, 2));
        assert_eq!(sink.counts(), vec![(4, 2)]);
    }

    #[test]
    fn null_sink_accepts_everything() {
        let mut sink = NullSink;
        sink.phase(&PhaseRecord {
            name: "x",
            wall_ns: 0,
            counters: &[],
        });
        sink.issue(&sample_issue());
    }
}
