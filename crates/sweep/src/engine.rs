//! The fan-out engine: compile once, execute once, time many, with fault
//! isolation.
//!
//! Work items are the (cell × workload) product in canonical order
//! (`index = cell_index * workloads + workload_index`, cells enumerated
//! row-major by [`supersym_machine::GridSpec::cells`]). Worker threads
//! claim items off a shared cursor; each item runs under `catch_unwind`
//! so one panicking cell quarantines itself instead of killing the sweep.
//! Every item — success or failure — becomes exactly one
//! [`CellRecord`], appended to the journal the moment it finishes, so a
//! `SIGKILL` at any instant loses at most the record being written (and
//! the torn line is recovered by the checkpoint loader's tail tolerance).

use crate::checkpoint::{CellMetrics, CellRecord, CellStatus, ResumeState, SweepHeader};
use std::collections::HashMap;
use std::io::{self, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::Instant;
use supersym_machine::{GridCell, GridSpec};
use supersym_rng::fnv1a_64;
use supersym_trace::{Histogram, MetricsRegistry};

/// A sweep's view of the compiler/simulator pipeline. Implemented in the
/// `supersym` core crate (which owns the pipeline); kept as a trait here so
/// the engine — and its fault-injection tests — need no pipeline at all.
pub trait CellRunner: Sync {
    /// Stable fingerprint of the compiled (unscheduled) program this
    /// (workload, cell) pair runs: the program half of the cache key.
    fn program_hash(&self, workload: usize, cell: &GridCell) -> u64;

    /// Schedules and simulates one item.
    ///
    /// # Errors
    ///
    /// [`CellFailure::Reject`] for typed pipeline errors,
    /// [`CellFailure::Fuel`] when the step budget runs out. Panics are the
    /// engine's job to contain, not the runner's.
    fn run_cell(&self, workload: usize, cell: &GridCell) -> Result<CellMetrics, CellFailure>;
}

/// A runner's typed failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellFailure {
    /// The pipeline rejected the item with a typed error.
    Reject {
        /// Pipeline stage that rejected.
        stage: String,
        /// The error's display text.
        message: String,
    },
    /// Simulation exhausted its fuel (deterministic timeout).
    Fuel {
        /// The step limit that was exceeded.
        limit: u64,
    },
}

/// What to sweep: the grid, the workloads, and the identity under which
/// checkpoints are validated.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    /// The machine grid.
    pub grid: GridSpec,
    /// Workload names, index-aligned with the runner's workloads.
    pub workload_names: Vec<String>,
    /// Simulator step budget per cell.
    pub fuel: u64,
    /// Everything that defines this sweep (canonical grid text, workload
    /// names and program fingerprints, options); hashed into the header.
    pub identity: String,
}

impl SweepPlan {
    /// Total work items.
    #[must_use]
    pub fn record_count(&self) -> usize {
        self.grid.cell_count() * self.workload_names.len()
    }

    /// The checkpoint header this plan writes and validates against.
    #[must_use]
    pub fn header(&self) -> SweepHeader {
        SweepHeader {
            grid: self.grid.canonical(),
            workloads: self.workload_names.clone(),
            records: self.record_count(),
            fuel: self.fuel,
            identity_hash: fnv1a_64(self.identity.as_bytes()),
        }
    }
}

/// Deterministic fault injection for self-tests: panic or time out every
/// N-th item (1-based, by canonical index).
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultInjection {
    /// Panic on items where `(index + 1) % panic_every == 0`.
    pub panic_every: Option<u64>,
    /// Time out on items where `(index + 1) % timeout_every == 0`.
    pub timeout_every: Option<u64>,
}

impl FaultInjection {
    fn wants_panic(&self, index: usize) -> bool {
        self.panic_every
            .is_some_and(|n| n > 0 && (index as u64 + 1).is_multiple_of(n))
    }

    fn wants_timeout(&self, index: usize) -> bool {
        self.timeout_every
            .is_some_and(|n| n > 0 && (index as u64 + 1).is_multiple_of(n))
    }
}

/// Engine knobs.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Worker threads (minimum 1; `titalc sweep --jobs` takes 1..=
    /// [`MAX_JOBS`]). No more workers start than there are items to run.
    pub jobs: usize,
    /// Opt-in wall deadline per item, milliseconds. Items that finish over
    /// the deadline are reclassified as timeouts; leave `None` (the
    /// default) for byte-deterministic output, where the only timeout is
    /// the fuel watchdog.
    pub deadline_ms: Option<u64>,
    /// Fault injection (self-test / CI).
    pub inject: FaultInjection,
    /// Silence the default panic hook while the sweep runs. Contained
    /// panics are classified into records; their backtraces are noise.
    pub quiet: bool,
}

/// The most worker threads `titalc sweep --jobs` accepts: far above any
/// host's core count, and far below what would exhaust its threads.
pub const MAX_JOBS: usize = 256;

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            jobs: 1,
            deadline_ms: None,
            inject: FaultInjection::default(),
            quiet: false,
        }
    }
}

/// A finished sweep: the complete record set plus bookkeeping.
#[derive(Debug)]
pub struct SweepOutcome {
    /// One record per item, in canonical index order. Always complete:
    /// every item is here, completed or quarantined.
    pub records: Vec<CellRecord>,
    /// Items executed by this run.
    pub executed: usize,
    /// Items satisfied from the result cache.
    pub cached: usize,
    /// Items recovered from the resume checkpoint.
    pub resumed: usize,
    /// Items quarantined (panic, timeout or reject), across the whole
    /// record set.
    pub quarantined: usize,
    /// Distributions and counters collected while this run's items ran
    /// (resumed items are not re-measured).
    pub metrics: SweepMetrics,
}

/// Watches items finish, one call per item handled by this run (cached or
/// executed; resumed items were handled by an earlier run). Calls arrive
/// from worker threads serialized through a mutex; per worker, `start_us`
/// is nondecreasing — the property that keeps timeline lanes monotone.
pub trait SweepObserver: Send {
    /// One finished item: `worker` handled it over `[start_us, end_us]`
    /// (microseconds since the sweep started; equal when `cached`).
    fn item(
        &mut self,
        worker: usize,
        start_us: u64,
        end_us: u64,
        cached: bool,
        record: &CellRecord,
    );
}

/// Distributions and counters from one sweep run.
#[derive(Debug, Clone, Default)]
pub struct SweepMetrics {
    /// Wall latency of each executed (non-cached) item, microseconds.
    pub cell_latency_us: Histogram,
    /// Items still unclaimed at each claim — how fast the queue drained.
    pub queue_depth: Histogram,
    /// Items satisfied from the result cache.
    pub cache_hits: u64,
    /// Items executed by this run.
    pub executed: u64,
    /// Executed items quarantined as panics.
    pub quarantined_panics: u64,
    /// Executed items quarantined as timeouts.
    pub quarantined_timeouts: u64,
    /// Items classified as typed rejects (executed or cached).
    pub quarantined_rejects: u64,
}

impl SweepMetrics {
    /// Folds the sweep metrics into `registry` under `sweep.*` names.
    pub fn register(&self, registry: &mut MetricsRegistry) {
        registry.histogram("sweep.cell_latency_us", &self.cell_latency_us);
        registry.histogram("sweep.queue_depth", &self.queue_depth);
        registry.counter("sweep.cache_hits", self.cache_hits);
        registry.counter("sweep.executed", self.executed);
        registry.counter("sweep.quarantined_panics", self.quarantined_panics);
        registry.counter("sweep.quarantined_timeouts", self.quarantined_timeouts);
        registry.counter("sweep.quarantined_rejects", self.quarantined_rejects);
        let handled = self.cache_hits + self.executed;
        if handled > 0 {
            registry.gauge(
                "sweep.cache_hit_rate",
                self.cache_hits as f64 / handled as f64,
            );
        }
    }
}

/// Result cache: (program hash, machine hash) → deterministic outcome.
/// Successes and typed rejects are cacheable; panics and timeouts are not
/// (they are exactly the outcomes worth retrying).
pub type ResultCache = HashMap<(u64, u64), CellStatus>;

/// Builds a cache from previously written records (e.g. a prior sweep's
/// journal, whatever its grid).
#[must_use]
pub fn cache_from_records<'a>(records: impl Iterator<Item = &'a CellRecord>) -> ResultCache {
    let mut cache = ResultCache::new();
    for record in records {
        match record.status {
            CellStatus::Ok(_) | CellStatus::Reject { .. } => {
                cache.insert(
                    (record.program_hash, record.machine_hash),
                    record.status.clone(),
                );
            }
            _ => {}
        }
    }
    cache
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs (or resumes) a sweep.
///
/// `journal`, when given, receives one rendered record line per finished
/// item, flushed immediately — the append-only checkpoint. The caller owns
/// the header line (writes it for a fresh journal, keeps it for a resumed
/// one). `resume` marks items already covered; `cache` satisfies items
/// whose (program, machine) pair already has a deterministic outcome.
///
/// # Errors
///
/// Only journal I/O errors propagate; cell failures never do — they are
/// classified and quarantined into the record set.
///
/// # Panics
///
/// Panics if `resume` was loaded for a different plan (slot count
/// mismatch) — the checkpoint loader's identity check prevents this.
pub fn run_sweep(
    plan: &SweepPlan,
    runner: &dyn CellRunner,
    config: &SweepConfig,
    resume: Option<ResumeState>,
    cache: &ResultCache,
    journal: Option<&mut (dyn Write + Send)>,
) -> io::Result<SweepOutcome> {
    run_sweep_observed(plan, runner, config, resume, cache, journal, None)
}

/// [`run_sweep`] with an observer: every item this run handles (cached or
/// executed) is reported with its worker index and wall-clock window, the
/// feed behind `titalc sweep --timeline`. Timing uses a monotonic clock
/// anchored at sweep start, so per-worker windows are nondecreasing.
///
/// # Errors
///
/// As [`run_sweep`]: only journal I/O errors propagate.
///
/// # Panics
///
/// As [`run_sweep`]: panics on a resume state from a different plan.
pub fn run_sweep_observed(
    plan: &SweepPlan,
    runner: &dyn CellRunner,
    config: &SweepConfig,
    resume: Option<ResumeState>,
    cache: &ResultCache,
    journal: Option<&mut (dyn Write + Send)>,
    observer: Option<&Mutex<dyn SweepObserver>>,
) -> io::Result<SweepOutcome> {
    let cells = plan.grid.cells();
    let workloads = plan.workload_names.len();
    let total = cells.len() * workloads;
    let mut slots: Vec<Option<CellRecord>> = match resume {
        Some(state) => {
            assert_eq!(state.done.len(), total, "resume state is for another plan");
            state.done
        }
        None => vec![None; total],
    };
    let resumed = slots.iter().filter(|slot| slot.is_some()).count();
    let pending: Vec<usize> = (0..total).filter(|&i| slots[i].is_none()).collect();

    let run_started = Instant::now();
    let cursor = AtomicUsize::new(0);
    let cached = AtomicUsize::new(0);
    let journal = Mutex::new(journal);
    let journal_error: Mutex<Option<io::Error>> = Mutex::new(None);
    let fresh: Mutex<Vec<CellRecord>> = Mutex::new(Vec::with_capacity(pending.len()));
    let metrics: Mutex<SweepMetrics> = Mutex::new(SweepMetrics::default());

    let quiet_guard = config.quiet.then(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        previous
    });
    thread::scope(|scope| {
        let cursor = &cursor;
        let cached = &cached;
        let journal = &journal;
        let journal_error = &journal_error;
        let fresh = &fresh;
        let metrics = &metrics;
        let cells = &cells;
        let pending = &pending;
        let run_started = &run_started;
        for worker in 0..config.jobs.max(1).min(pending.len()) {
            scope.spawn(move || loop {
                if journal_error.lock().unwrap().is_some() {
                    break;
                }
                let claim = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&index) = pending.get(claim) else {
                    break;
                };
                let start_us = elapsed_us(run_started);
                let cell = &cells[index / workloads];
                let workload = index % workloads;
                let machine_hash = cell.config().fingerprint();
                let program_hash = runner.program_hash(workload, cell);
                let hit = cache.get(&(program_hash, machine_hash));
                let was_cached = hit.is_some();
                let status = match hit {
                    Some(hit) => {
                        cached.fetch_add(1, Ordering::Relaxed);
                        hit.clone()
                    }
                    None => execute_item(plan, runner, config, index, workload, cell),
                };
                let end_us = if was_cached {
                    start_us
                } else {
                    elapsed_us(run_started)
                };
                let record = CellRecord {
                    index,
                    cell: cell.name(),
                    workload: plan.workload_names[workload].clone(),
                    machine_hash,
                    program_hash,
                    status,
                };
                {
                    let mut metrics = metrics.lock().unwrap();
                    metrics
                        .queue_depth
                        .record((pending.len() - claim - 1) as u64);
                    if was_cached {
                        metrics.cache_hits += 1;
                    } else {
                        metrics.executed += 1;
                        metrics.cell_latency_us.record(end_us - start_us);
                    }
                    match &record.status {
                        CellStatus::Panic { .. } => metrics.quarantined_panics += 1,
                        CellStatus::Timeout { .. } => metrics.quarantined_timeouts += 1,
                        CellStatus::Reject { .. } => metrics.quarantined_rejects += 1,
                        CellStatus::Ok(_) => {}
                    }
                }
                let line = record.render();
                {
                    let mut journal = journal.lock().unwrap();
                    if let Some(journal) = journal.as_deref_mut() {
                        if let Err(e) = writeln!(journal, "{line}").and_then(|()| journal.flush()) {
                            *journal_error.lock().unwrap() = Some(e);
                            break;
                        }
                    }
                }
                if let Some(observer) = observer {
                    observer
                        .lock()
                        .unwrap()
                        .item(worker, start_us, end_us, was_cached, &record);
                }
                fresh.lock().unwrap().push(record);
            });
        }
    });
    if let Some(previous) = quiet_guard {
        std::panic::set_hook(previous);
    }

    if let Some(error) = journal_error.into_inner().unwrap() {
        return Err(error);
    }
    let fresh = fresh.into_inner().unwrap();
    let executed = fresh.len() - cached.load(Ordering::Relaxed);
    for record in fresh {
        let index = record.index;
        slots[index] = Some(record);
    }
    let records: Vec<CellRecord> = slots
        .into_iter()
        .map(|slot| slot.expect("every item completed or quarantined"))
        .collect();
    let quarantined = records.iter().filter(|r| r.status.is_quarantined()).count();
    Ok(SweepOutcome {
        records,
        executed,
        cached: cached.load(Ordering::Relaxed),
        resumed,
        quarantined,
        metrics: metrics.into_inner().unwrap(),
    })
}

/// Microseconds since `started`, clamped into `u64`.
fn elapsed_us(started: &Instant) -> u64 {
    u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX)
}

fn execute_item(
    plan: &SweepPlan,
    runner: &dyn CellRunner,
    config: &SweepConfig,
    index: usize,
    workload: usize,
    cell: &GridCell,
) -> CellStatus {
    let inject = config.inject;
    let started = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if inject.wants_panic(index) {
            panic!("injected fault: sweep self-test panic");
        }
        if inject.wants_timeout(index) {
            return Err(CellFailure::Fuel { limit: plan.fuel });
        }
        runner.run_cell(workload, cell)
    }));
    let status = match outcome {
        Ok(Ok(metrics)) => CellStatus::Ok(metrics),
        Ok(Err(CellFailure::Reject { stage, message })) => CellStatus::Reject { stage, message },
        Ok(Err(CellFailure::Fuel { limit })) => CellStatus::Timeout { limit },
        Err(payload) => CellStatus::Panic {
            message: panic_message(payload),
        },
    };
    // The opt-in wall deadline: a cell that finished but blew its budget
    // is still quarantined, keeping pathological cells out of reports.
    if let Some(deadline_ms) = config.deadline_ms {
        if status.is_ok() && started.elapsed().as_millis() as u64 > deadline_ms {
            return CellStatus::Timeout { limit: deadline_ms };
        }
    }
    status
}

#[cfg(test)]
mod tests {
    use super::*;
    use supersym_machine::GridSpec;

    /// A runner that needs no compiler: metrics derived from the cell
    /// shape, with scripted failures.
    struct MockRunner {
        reject_issue: u32,
    }

    impl CellRunner for MockRunner {
        fn program_hash(&self, workload: usize, _cell: &GridCell) -> u64 {
            workload as u64 + 1
        }

        fn run_cell(&self, _workload: usize, cell: &GridCell) -> Result<CellMetrics, CellFailure> {
            if cell.issue_width == self.reject_issue {
                return Err(CellFailure::Reject {
                    stage: "machine".to_string(),
                    message: "scripted reject".to_string(),
                });
            }
            Ok(CellMetrics {
                instructions: 1000,
                machine_cycles: 1000 / u64::from(cell.issue_width),
                base_cycles: 1000.0 / f64::from(cell.issue_width),
            })
        }
    }

    fn plan(grid: &str, workloads: &[&str]) -> SweepPlan {
        SweepPlan {
            grid: GridSpec::parse(grid).unwrap(),
            workload_names: workloads.iter().map(|w| (*w).to_string()).collect(),
            fuel: 10_000,
            identity: format!("test:{grid}"),
        }
    }

    #[test]
    fn every_item_lands_exactly_once() {
        let plan = plan("issue=1,2,4,8 pipe=1,2", &["a", "b"]);
        let runner = MockRunner { reject_issue: 0 };
        let outcome = run_sweep(
            &plan,
            &runner,
            &SweepConfig {
                jobs: 4,
                ..SweepConfig::default()
            },
            None,
            &ResultCache::new(),
            None,
        )
        .unwrap();
        assert_eq!(outcome.records.len(), 16);
        for (i, record) in outcome.records.iter().enumerate() {
            assert_eq!(record.index, i);
        }
        assert_eq!(outcome.quarantined, 0);
        assert_eq!(outcome.executed, 16);
    }

    #[test]
    fn injected_faults_are_quarantined_not_lost() {
        // 500+ items with scripted panics and timeouts: the acceptance
        // bar is that every item is present, completed or quarantined.
        let plan = plan(
            "issue=1,2,3,4,5,6,7,8,9,10,11,12,13,14 pipe=1,2,3 lat=unit,titan,cray",
            &["w1", "w2", "w3", "w4"],
        );
        assert!(
            plan.record_count() >= 500,
            "want 500+ items, got {}",
            plan.record_count()
        );
        let runner = MockRunner { reject_issue: 13 };
        let config = SweepConfig {
            jobs: 8,
            inject: FaultInjection {
                panic_every: Some(17),
                timeout_every: Some(23),
            },
            quiet: true,
            ..SweepConfig::default()
        };
        let outcome = run_sweep(&plan, &runner, &config, None, &ResultCache::new(), None).unwrap();
        let total = plan.record_count();
        assert_eq!(outcome.records.len(), total);
        for (i, record) in outcome.records.iter().enumerate() {
            assert_eq!(record.index, i, "no item lost or duplicated");
        }
        let panics = outcome
            .records
            .iter()
            .filter(|r| matches!(r.status, CellStatus::Panic { .. }))
            .count();
        let timeouts = outcome
            .records
            .iter()
            .filter(|r| matches!(r.status, CellStatus::Timeout { .. }))
            .count();
        let rejects = outcome
            .records
            .iter()
            .filter(|r| matches!(r.status, CellStatus::Reject { .. }))
            .count();
        assert_eq!(panics, total / 17);
        // Panic injection (every 17th) wins over timeout injection on
        // common multiples of 17 and 23 (none below 500×... within range),
        // and both skip nothing else.
        assert_eq!(timeouts, total / 23 - total / (17 * 23));
        assert!(rejects > 0, "scripted rejects must classify as Reject");
        assert_eq!(outcome.quarantined, panics + timeouts + rejects);
    }

    #[test]
    fn resume_runs_only_missing_items() {
        let plan = plan("issue=1,2,4 pipe=1,2", &["a"]);
        let runner = MockRunner { reject_issue: 0 };
        let full = run_sweep(
            &plan,
            &runner,
            &SweepConfig::default(),
            None,
            &ResultCache::new(),
            None,
        )
        .unwrap();
        // Pretend the journal survived with items 0, 2, 5.
        let mut done: Vec<Option<CellRecord>> = vec![None; plan.record_count()];
        for &i in &[0usize, 2, 5] {
            done[i] = Some(full.records[i].clone());
        }
        let resumed = run_sweep(
            &plan,
            &runner,
            &SweepConfig::default(),
            Some(ResumeState {
                done,
                dropped_lines: 0,
            }),
            &ResultCache::new(),
            None,
        )
        .unwrap();
        assert_eq!(resumed.resumed, 3);
        assert_eq!(resumed.executed, plan.record_count() - 3);
        assert_eq!(resumed.records, full.records, "resume is invisible");
    }

    #[test]
    fn cache_short_circuits_runs() {
        let plan = plan("issue=1,2 pipe=1", &["a", "b"]);
        let runner = MockRunner { reject_issue: 0 };
        let first = run_sweep(
            &plan,
            &runner,
            &SweepConfig::default(),
            None,
            &ResultCache::new(),
            None,
        )
        .unwrap();
        let cache = cache_from_records(first.records.iter());
        let second =
            run_sweep(&plan, &runner, &SweepConfig::default(), None, &cache, None).unwrap();
        assert_eq!(second.cached, plan.record_count());
        assert_eq!(second.executed, 0);
        assert_eq!(second.records, first.records);
    }

    #[test]
    fn journal_lines_reload_to_the_same_records() {
        let plan = plan("issue=1,2,4 pipe=1", &["a"]);
        let runner = MockRunner { reject_issue: 2 };
        let mut journal: Vec<u8> = Vec::new();
        let outcome = run_sweep(
            &plan,
            &runner,
            &SweepConfig {
                jobs: 3,
                ..SweepConfig::default()
            },
            None,
            &ResultCache::new(),
            Some(&mut journal),
        )
        .unwrap();
        let text = format!(
            "{}\n{}",
            plan.header().render(),
            String::from_utf8(journal).unwrap()
        );
        let state = load_checkpoint(&text, &plan.header()).unwrap();
        assert_eq!(state.completed(), plan.record_count());
        assert_eq!(state.dropped_lines, 0);
        for record in &outcome.records {
            assert_eq!(state.done[record.index].as_ref().unwrap(), record);
        }
    }

    #[test]
    fn observer_sees_every_item_with_monotone_worker_windows() {
        let plan = plan("issue=1,2,4,8 pipe=1,2", &["a", "b"]);
        let runner = MockRunner { reject_issue: 8 };
        struct Collect {
            items: Vec<(usize, u64, u64, bool, usize)>,
        }
        impl SweepObserver for Collect {
            fn item(
                &mut self,
                worker: usize,
                start_us: u64,
                end_us: u64,
                cached: bool,
                record: &CellRecord,
            ) {
                self.items
                    .push((worker, start_us, end_us, cached, record.index));
            }
        }
        let observer = Mutex::new(Collect { items: Vec::new() });
        let outcome = run_sweep_observed(
            &plan,
            &runner,
            &SweepConfig {
                jobs: 3,
                ..SweepConfig::default()
            },
            None,
            &ResultCache::new(),
            None,
            Some(&observer),
        )
        .unwrap();
        assert_eq!(outcome.records.len(), 16);
        let items = observer.into_inner().unwrap().items;
        assert_eq!(items.len(), 16, "one observation per handled item");
        let mut indices: Vec<usize> = items.iter().map(|&(.., index)| index).collect();
        indices.sort_unstable();
        assert_eq!(indices, (0..16).collect::<Vec<_>>());
        // Per worker, windows are well-formed and nondecreasing — the
        // invariant that keeps timeline lanes monotone.
        for worker in 0..3 {
            let mut last_end = 0;
            for &(w, start_us, end_us, cached, _) in &items {
                if w != worker {
                    continue;
                }
                assert!(start_us <= end_us);
                assert!(!cached, "no cache was supplied");
                assert!(start_us >= last_end, "worker lane went backwards");
                last_end = end_us;
            }
        }
        // Metrics agree with the outcome's bookkeeping.
        assert_eq!(outcome.metrics.executed, 16);
        assert_eq!(outcome.metrics.cache_hits, 0);
        assert_eq!(outcome.metrics.cell_latency_us.count(), 16);
        assert_eq!(outcome.metrics.queue_depth.count(), 16);
        assert_eq!(outcome.metrics.queue_depth.max(), 15);
        // issue=8 rejects across both workloads × pipe settings.
        assert_eq!(outcome.metrics.quarantined_rejects, 4);
        assert_eq!(outcome.quarantined, 4);
    }

    #[test]
    fn cached_items_count_as_hits_in_metrics() {
        let plan = plan("issue=1,2 pipe=1", &["a", "b"]);
        let runner = MockRunner { reject_issue: 0 };
        let first = run_sweep(
            &plan,
            &runner,
            &SweepConfig::default(),
            None,
            &ResultCache::new(),
            None,
        )
        .unwrap();
        let cache = cache_from_records(first.records.iter());
        let second =
            run_sweep(&plan, &runner, &SweepConfig::default(), None, &cache, None).unwrap();
        assert_eq!(second.metrics.cache_hits, 4);
        assert_eq!(second.metrics.executed, 0);
        assert!(second.metrics.cell_latency_us.is_empty());
        let mut registry = MetricsRegistry::new();
        second.metrics.register(&mut registry);
        assert!(matches!(
            registry.get("sweep.cache_hit_rate"),
            Some(supersym_trace::Metric::Gauge(rate)) if (rate - 1.0).abs() < 1e-9
        ));
    }

    use crate::checkpoint::load_checkpoint;
}
