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
