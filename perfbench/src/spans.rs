//! In-memory spans recorded around the library calls the benchmark makes,
//! their per-layer self times, and their `supersym.timeline/v1` rendering.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;
use supersym::trace::{JsonObject, JsonValue, TIMELINE_SCHEMA};

/// The name of a job's root span. Its self time is the part of the job no
/// layer span covers.
pub const JOB: &str = "job";

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (`crate.call`), [`JOB`], or a section name.
    pub name: &'static str,
    /// Nanoseconds since the recorder started.
    pub start_ns: u64,
    /// Nanoseconds since the recorder started.
    pub end_ns: u64,
    /// The enclosing span, by index.
    pub parent: Option<usize>,
    /// The job this span belongs to, if any.
    pub job: Option<u32>,
}

impl Span {
    /// Duration, nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug, Default)]
struct Spans {
    spans: Vec<Span>,
    open: Vec<usize>,
    jobs: Vec<String>,
}

/// Records properly nested spans from one thread; the mutex only makes it
/// shareable with the sweep engine, which requires `Sync` runners.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    inner: Mutex<Spans>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            inner: Mutex::new(Spans::default()),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("runs are shorter than 584 years")
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Spans> {
        self.inner.lock().expect("no span holder panics")
    }

    /// Registers a job by display name and returns its id.
    pub fn job(&self, name: String) -> u32 {
        let mut inner = self.lock();
        inner.jobs.push(name);
        u32::try_from(inner.jobs.len() - 1).expect("fewer than 2^32 jobs")
    }

    /// Opens a span inside the innermost open one.
    pub fn open(&self, name: &'static str, job: Option<u32>) -> usize {
        let start_ns = self.now_ns();
        let mut inner = self.lock();
        let parent = inner.open.last().copied();
        inner.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            job,
        });
        let id = inner.spans.len() - 1;
        inner.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn close(&self, id: usize) {
        let end_ns = self.now_ns();
        let mut inner = self.lock();
        assert_eq!(inner.open.pop(), Some(id), "spans close innermost first");
        inner.spans[id].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&self, name: &'static str, job: Option<u32>, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, job);
        let out = f();
        self.close(id);
        out
    }

    /// The recorded spans and job names.
    ///
    /// # Panics
    ///
    /// If a span is still open.
    #[must_use]
    pub fn finish(self) -> (Vec<Span>, Vec<String>) {
        let inner = self.inner.into_inner().expect("no span holder panics");
        assert!(inner.open.is_empty(), "every span is closed");
        (inner.spans, inner.jobs)
    }
}

/// Where a job's library calls are timed: nowhere in the timed run, into
/// a [`Recorder`] in the traced run. One job body serves both.
pub trait Layers {
    /// Runs `f`, the call into layer `name`.
    fn layer<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T;
}

/// The timed run's [`Layers`]: calls run bare.
#[derive(Debug, Clone, Copy)]
pub struct Untraced;

impl Layers for Untraced {
    #[inline(always)]
    fn layer<T>(&self, _name: &'static str, f: impl FnOnce() -> T) -> T {
        f()
    }
}

/// The traced run's [`Layers`]: each call becomes a span of `job`.
#[derive(Debug, Clone, Copy)]
pub struct Traced<'r> {
    /// Where spans go.
    pub recorder: &'r Recorder,
    /// The job the spans belong to.
    pub job: Option<u32>,
}

impl Layers for Traced<'_> {
    fn layer<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.recorder.span(name, self.job, f)
    }
}

/// Self and total time per span name, and how much of the jobs' wall time
/// the layer spans account for.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTimes {
    /// Span duration minus the durations of its child spans, summed per
    /// name, nanoseconds.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Span durations summed per name, nanoseconds.
    pub total_ns: BTreeMap<&'static str, u64>,
    /// Summed wall time of the job root spans.
    pub job_wall_ns: u64,
    /// Summed self time of the job root spans: job time inside no layer.
    pub unattributed_ns: u64,
}

impl LayerTimes {
    /// Sums a set of recorded spans.
    #[must_use]
    pub fn of(spans: &[Span]) -> Self {
        let mut children_ns = vec![0_u64; spans.len()];
        for span in spans {
            if let Some(parent) = span.parent {
                children_ns[parent] += span.duration_ns();
            }
        }
        let mut times = LayerTimes::default();
        for (span, children) in spans.iter().zip(children_ns) {
            let self_ns = span.duration_ns().saturating_sub(children);
            *times.self_ns.entry(span.name).or_default() += self_ns;
            *times.total_ns.entry(span.name).or_default() += span.duration_ns();
            if span.name == JOB {
                times.job_wall_ns += span.duration_ns();
                times.unattributed_ns += self_ns;
            }
        }
        times
    }

    /// Self time of `name`, milliseconds (0 when never recorded).
    #[must_use]
    pub fn self_ms(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6
    }

    /// Total time of `name`, milliseconds (0 when never recorded).
    #[must_use]
    pub fn total_ms(&self, name: &str) -> f64 {
        self.total_ns.get(name).copied().unwrap_or(0) as f64 / 1e6
    }

    /// Share of job wall time inside layer spans, percent.
    #[must_use]
    pub fn accounted_pct(&self) -> f64 {
        100.0 * (self.job_wall_ns - self.unattributed_ns) as f64 / self.job_wall_ns as f64
    }
}

/// Renders spans as a `supersym.timeline/v1` document: one process, one
/// thread, one complete event per span in start order. Start times round
/// down and end times up to whole microseconds, so every child stays
/// inside its parent and Perfetto nests them as recorded.
#[must_use]
pub fn timeline(spans: &[Span], jobs: &[String]) -> String {
    let meta = |name: &str, value: &str| {
        JsonObject::new()
            .field("ph", JsonValue::str("M"))
            .field("pid", JsonValue::UInt(1))
            .field("tid", JsonValue::UInt(1))
            .field("name", JsonValue::str(name))
            .field(
                "args",
                JsonObject::new()
                    .field("name", JsonValue::str(value))
                    .build(),
            )
            .build()
    };
    let mut events = vec![
        meta("process_name", "perfbench"),
        meta("thread_name", "benchmark thread"),
    ];
    for (index, span) in spans.iter().enumerate() {
        let ts = span.start_ns / 1000;
        let end = span.end_ns.div_ceil(1000);
        let mut args = JsonObject::new().field("span", JsonValue::UInt(index as u64));
        if let Some(parent) = span.parent {
            args = args.field("parent", JsonValue::UInt(parent as u64));
        }
        if let Some(job) = span.job {
            args = args.field("job", JsonValue::UInt(u64::from(job)));
            if span.name == JOB {
                args = args.field("job_name", JsonValue::str(jobs[job as usize].clone()));
            }
        }
        events.push(
            JsonObject::new()
                .field("ph", JsonValue::str("X"))
                .field("pid", JsonValue::UInt(1))
                .field("tid", JsonValue::UInt(1))
                .field("ts", JsonValue::UInt(ts))
                .field("dur", JsonValue::UInt(end - ts))
                .field("cat", JsonValue::str("perfbench"))
                .field("name", JsonValue::str(span.name))
                .field("args", args.build())
                .build(),
        );
    }
    let mut out = format!(
        "{{\"schema\":\"{TIMELINE_SCHEMA}\",\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
    );
    for (index, event) in events.iter().enumerate() {
        if index > 0 {
            out.push_str(",\n");
        }
        out.push_str(&event.to_string());
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use supersym::trace::validate_timeline;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            job: Some(0),
        }
    }

    #[test]
    fn self_time_subtracts_children_and_jobs_reconcile() {
        let spans = vec![
            span(JOB, 0, 100, None),
            span("lang.parse", 5, 25, Some(0)),
            span("opt.local", 30, 90, Some(0)),
            span("verify.certify", 40, 60, Some(2)),
        ];
        let times = LayerTimes::of(&spans);
        assert_eq!(times.self_ns["lang.parse"], 20);
        assert_eq!(times.self_ns["opt.local"], 40);
        assert_eq!(times.total_ns["opt.local"], 60);
        assert_eq!(times.self_ns["verify.certify"], 20);
        assert_eq!(times.job_wall_ns, 100);
        assert_eq!(times.unattributed_ns, 20);
        assert!((times.accounted_pct() - 80.0).abs() < 1e-12);
        assert_eq!(times.self_ms("missing"), 0.0);
    }

    #[test]
    fn recorder_nests_and_the_timeline_validates() {
        let recorder = Recorder::default();
        let job = recorder.job("whet O4 base".to_string());
        recorder.span(JOB, Some(job), || {
            recorder.span("lang.parse", Some(job), || {});
            recorder.span("opt.local", Some(job), || {
                recorder.span("verify.certify", Some(job), || {});
            });
        });
        let (spans, jobs) = recorder.finish();
        let parents: Vec<Option<usize>> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0), Some(2)]);
        assert!(spans.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
        let text = timeline(&spans, &jobs);
        let report = validate_timeline(&text).unwrap();
        assert_eq!(report.events, 4);
        assert_eq!(report.lanes, 1);
    }

    #[test]
    #[should_panic(expected = "innermost")]
    fn spans_must_close_innermost_first() {
        let recorder = Recorder::default();
        let outer = recorder.open("a", None);
        let _inner = recorder.open("b", None);
        recorder.close(outer);
    }
}
