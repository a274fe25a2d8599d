//! # supersym-trace
//!
//! The observability layer of the supersym system: structured telemetry
//! events, the sinks that consume them, and a dependency-free JSON writer.
//!
//! The paper's central question is *where the parallelism goes* — why
//! measured ILP saturates near 2–3 despite wider issue and deeper pipes.
//! Answering it needs more than aggregate cycle counts, so the simulator's
//! timing model attributes every waited cycle to a cause and the compiler
//! reports per-phase telemetry. This crate defines the shared vocabulary:
//!
//! * [`TraceSink`] — the consumer trait. Producers take `&mut dyn
//!   TraceSink` (or run sink-free at zero cost); there is no global state.
//! * [`PhaseRecord`] / [`IssueEvent`] — the two event kinds: compile phases
//!   with wall time and counters, and per-dynamic-instruction issue records
//!   with stall attribution.
//! * [`NullSink`] / [`MemorySink`] / [`LoopCountSink`] — discard,
//!   collect, or count loop iterations.
//! * [`TimelineSink`] — stream a Perfetto-loadable `trace_event` timeline
//!   (`supersym.timeline/v1`), checked by [`validate_timeline`].
//! * [`JsonValue`] / [`JsonObject`] — a small ordered JSON document model
//!   (the workspace builds offline; no serde), used for `titalc profile
//!   --json` and the other JSON reports.
//!
//! Dependency direction: this crate is a leaf — `supersym-sim` and
//! `supersym` (core) depend on it, never the reverse.
//!
//! ## Example
//!
//! ```
//! use supersym_trace::{IssueEvent, MemorySink, PhaseRecord, TraceSink};
//!
//! let mut sink = MemorySink::new();
//! sink.phase(&PhaseRecord { name: "parse", wall_ns: 1800, counters: &[("functions", 2)] });
//! sink.issue(&IssueEvent {
//!     func: 0, pc: 0, class: "add/sub",
//!     issue: 0, complete: 1, drain: 1, wait: 0, cause: None,
//! });
//! assert_eq!(sink.phases[0].name, "parse");
//! assert_eq!(sink.issues.len(), 1);
//! ```

mod json;
mod metrics;
mod parse;
mod sink;
mod timeline;

pub use json::{escape_into, JsonObject, JsonValue};
pub use metrics::{Histogram, Metric, MetricsRegistry, METRICS_SCHEMA};
pub use parse::{parse_json, validate_timeline, JsonParseError, TimelineError, TimelineReport};
pub use sink::{
    IssueEvent, LoopCountSink, MemorySink, NullSink, OwnedPhase, PhaseRecord, TraceSink,
};
pub use timeline::{
    SweepItem, TimelineSink, PID_COMPILE, PID_SIMULATE, PID_SWEEP, TIMELINE_SCHEMA,
};
