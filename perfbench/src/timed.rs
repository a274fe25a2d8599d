//! The untraced run: set up several times, time every job of a fixed list
//! at its fastest repetition, then check every output outside the timed
//! regions.

use crate::jobs::{self, LadderJob, ProfileJob, ProfileOutput};
use crate::spans::Untraced;
use crate::stats::{BestOfK, JobSummary};
use crate::suite::{self, SWEEP_GRID};
use crate::sweep_runner::BenchCellRunner;
use std::collections::BTreeSet;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use supersym::analyze::OracleKind;
use supersym::isa::Program;
use supersym::machine::{GridCell, GridSpec};
use supersym::rng::SplitMix64;
use supersym::sweep::{
    run_sweep, CellFailure, CellMetrics, CellRecord, CellRunner, CellStatus, PipelineCellRunner,
    ResultCache, SweepConfig, SweepPlan, DEFAULT_CELL_FUEL,
};
use supersym::trace::validate_timeline;
use supersym::workloads::Workload;
use supersym::OptLevel;

/// Set-ups per run; `setup_s` is their median. Each is cheap next to the
/// timed repetitions, so taking many costs little and steadies the median.
pub const SETUPS: usize = 7;

/// Repetitions every job gets at least, however short `--seconds` is.
pub const MIN_REPETITIONS: u32 = 3;

/// What an untraced run measured and checked.
#[derive(Debug)]
pub struct Outcome {
    /// Wall time of each set-up, seconds.
    pub setup_s: Vec<f64>,
    /// The per-job bests.
    pub summary: JobSummary,
    /// Timed repetitions of the whole job list.
    pub repetitions: u32,
    /// Peak resident set at the end of the timed repetitions, MiB.
    pub peak_rss_mib: f64,
    /// Jobs that failed a check, with the reason.
    pub failures: Vec<String>,
    /// Deterministic counts that must repeat exactly run after run.
    pub counts: Vec<(&'static str, u64)>,
}

/// What a workload's checks found: the failures, and the deterministic
/// counts that must repeat exactly run after run.
pub type Checked = (Vec<String>, Vec<(&'static str, u64)>);

/// One workload, as the untraced run drives it.
pub trait Timed: Sized {
    /// Everything a run does once before timing: generate the sources,
    /// build the job list, compile what the workload treats as given.
    ///
    /// # Errors
    ///
    /// When an input fails to build.
    fn setup(seed: u64) -> Result<Self, String>;

    /// Distinct jobs.
    fn jobs(&self) -> usize;

    /// Runs every job once, in an order drawn from `rng`, recording each
    /// job's wall time into `best`.
    ///
    /// # Errors
    ///
    /// Only for failures that stop the whole repetition; a failed job is
    /// recorded and checked later.
    fn repetition(&mut self, rng: &mut SplitMix64, best: &mut BestOfK) -> Result<(), String>;

    /// Checks every output, after timing. Returns the failures and the
    /// workload's deterministic counts.
    ///
    /// # Errors
    ///
    /// When the reference itself cannot be computed.
    fn check(self) -> Result<Checked, String>;
}

/// Runs workload `W` untraced for about `seconds`.
///
/// # Errors
///
/// When set-up fails, a repetition cannot run, or a job was never timed.
pub fn run<W: Timed>(seed: u64, seconds: u64) -> Result<Outcome, String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut workload = None;
    for _ in 0..SETUPS {
        drop(workload.take());
        let started = Instant::now();
        let fresh = W::setup(seed)?;
        setup_s.push(started.elapsed().as_secs_f64());
        workload = Some(fresh);
    }
    let mut workload = workload.expect("at least one set-up");
    // One untimed pass lets caches fill and lazy state (the rule table)
    // load before timing. It stays out of `setup_s`: a single pass reads
    // whatever phase the host is in, and made the median bimodal.
    let mut warm = BestOfK::new(workload.jobs());
    workload.repetition(&mut SplitMix64::new(seed ^ 0x5EED_5E70), &mut warm)?;
    let mut best = BestOfK::new(workload.jobs());
    let mut rng = SplitMix64::new(seed);
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut repetitions = 0;
    while repetitions < MIN_REPETITIONS || Instant::now() < deadline {
        workload.repetition(&mut rng, &mut best)?;
        repetitions += 1;
    }
    let peak_rss_mib = suite::peak_rss_mib()?;
    let summary = best.summary()?;
    let (failures, counts) = workload.check()?;
    Ok(Outcome {
        setup_s,
        summary,
        repetitions,
        peak_rss_mib,
        failures,
        counts,
    })
}

/// Records a job's output on its first repetition and compares later
/// repetitions against it.
fn same_as_first<T: PartialEq>(first: &mut Option<T>, output: T) -> bool {
    match first {
        Some(previous) => *previous == output,
        None => {
            *first = Some(output);
            true
        }
    }
}

// ---------------------------------------------------------------------------
// compile_ladder
// ---------------------------------------------------------------------------

/// Every Small program through O0-O4 on four presets with verify on, plus
/// one certified O4 compile per program.
pub struct CompileLadder {
    programs: Vec<Workload>,
    jobs: Vec<LadderJob>,
    first: Vec<Option<Program>>,
    failed: BTreeSet<(usize, String)>,
}

impl Timed for CompileLadder {
    fn setup(_seed: u64) -> Result<Self, String> {
        let programs = suite::programs();
        let jobs = jobs::ladder_jobs(&programs);
        Ok(CompileLadder {
            first: vec![None; jobs.len()],
            programs,
            jobs,
            failed: BTreeSet::new(),
        })
    }

    fn jobs(&self) -> usize {
        self.jobs.len()
    }

    fn repetition(&mut self, rng: &mut SplitMix64, best: &mut BestOfK) -> Result<(), String> {
        for index in suite::permutation(self.jobs.len(), rng) {
            let job = &self.jobs[index];
            let source = &self.programs[job.program].source;
            let started = Instant::now();
            let result = std::hint::black_box(jobs::run_ladder_job(job, source));
            best.record(index, started.elapsed().as_secs_f64());
            match result {
                Ok(program) => {
                    if !same_as_first(&mut self.first[index], program) {
                        self.failed
                            .insert((index, "output changed between repetitions".into()));
                    }
                }
                Err(error) => {
                    self.failed.insert((index, error));
                }
            }
        }
        Ok(())
    }

    fn check(self) -> Result<Checked, String> {
        let reference = suite::reference_checksums(&self.programs)?;
        let mut failed = self.failed;
        let outputs: Vec<(usize, usize, &Program)> = self
            .first
            .iter()
            .enumerate()
            .filter_map(|(index, program)| {
                program
                    .as_ref()
                    .map(|p| (index, self.jobs[index].program, p))
            })
            .collect();
        let checked: Vec<(usize, &Program)> = outputs.iter().map(|&(_, w, p)| (w, p)).collect();
        for position in suite::check_checksums(&checked, &reference) {
            failed.insert((outputs[position].0, "wrong checksum".into()));
        }
        let static_insts = outputs.iter().map(|(_, _, p)| p.static_size() as u64).sum();
        let failures = failed
            .into_iter()
            .map(|(index, why)| {
                format!(
                    "{}: {why}",
                    jobs::ladder_name(&self.jobs[index], &self.programs)
                )
            })
            .collect();
        Ok((failures, vec![("codegen.static_insts", static_insts)]))
    }
}

// ---------------------------------------------------------------------------
// sweep_study
// ---------------------------------------------------------------------------

/// Times each item from the engine's request for its program hash, made
/// right before the item runs, to the end of its cell, in nanoseconds —
/// the engine's own item window only has microseconds.
struct ItemTimer<'a> {
    inner: &'a dyn CellRunner,
    workloads: usize,
    started: Mutex<Option<Instant>>,
    items: Mutex<Vec<(usize, f64)>>,
}

impl CellRunner for ItemTimer<'_> {
    fn program_hash(&self, workload: usize, cell: &GridCell) -> u64 {
        *self.started.lock().expect("no holder panics") = Some(Instant::now());
        self.inner.program_hash(workload, cell)
    }

    fn run_cell(&self, workload: usize, cell: &GridCell) -> Result<CellMetrics, CellFailure> {
        let result = self.inner.run_cell(workload, cell);
        if let Some(started) = self.started.lock().expect("no holder panics").take() {
            let index = cell.index * self.workloads + workload;
            let seconds = started.elapsed().as_secs_f64();
            self.items
                .lock()
                .expect("no holder panics")
                .push((index, seconds));
        }
        result
    }
}

/// The sweep study's 48-cell grid over the Small suite, one worker, an
/// empty result cache and an in-memory journal per repetition.
pub struct SweepStudy {
    programs: Vec<Workload>,
    runner: PipelineCellRunner,
    plan: SweepPlan,
    first_journal: Option<Vec<u8>>,
    first_records: Option<Vec<CellRecord>>,
    failed: BTreeSet<(usize, String)>,
}

/// The sweep study's plan for `runner`'s workloads.
///
/// # Errors
///
/// When the grid does not parse.
pub fn sweep_plan(runner: &PipelineCellRunner) -> Result<SweepPlan, String> {
    let grid = GridSpec::parse(SWEEP_GRID).map_err(|e| e.to_string())?;
    Ok(SweepPlan {
        workload_names: runner.names().to_vec(),
        fuel: DEFAULT_CELL_FUEL,
        identity: runner.identity(&grid.canonical(), OptLevel::O4, OracleKind::Symbolic),
        grid,
    })
}

/// The Small suite in the workload order the seed picks for the plan.
#[must_use]
pub fn sweep_programs(seed: u64) -> Vec<Workload> {
    let programs = suite::programs();
    let order = suite::permutation(programs.len(), &mut SplitMix64::new(seed));
    order.into_iter().map(|i| programs[i].clone()).collect()
}

/// Runs one sweep with one worker, an empty cache and an in-memory
/// journal; returns the records, the quarantine count and the journal
/// bytes, header included.
///
/// # Errors
///
/// A journal write error (cannot happen on a `Vec`).
pub fn sweep_once(
    plan: &SweepPlan,
    runner: &dyn CellRunner,
) -> Result<(Vec<CellRecord>, usize, Vec<u8>), String> {
    let mut journal = format!("{}\n", plan.header().render()).into_bytes();
    let config = SweepConfig {
        jobs: 1,
        quiet: true,
        ..SweepConfig::default()
    };
    let outcome = run_sweep(
        plan,
        runner,
        &config,
        None,
        &ResultCache::new(),
        Some(&mut journal),
    )
    .map_err(|e| format!("sweep journal: {e}"))?;
    Ok((outcome.records, outcome.quarantined, journal))
}

/// Indices of the records whose journal lines differ between two
/// journals (every index when the line counts differ).
#[must_use]
pub fn journal_differences(a: &[u8], b: &[u8], records: usize) -> Vec<usize> {
    let lines_a: Vec<&[u8]> = a.split(|&b| b == b'\n').collect();
    let lines_b: Vec<&[u8]> = b.split(|&b| b == b'\n').collect();
    if lines_a.len() != lines_b.len() {
        return (0..records).collect();
    }
    // Line 0 is the header; with one worker, line i + 1 is record i.
    if lines_a[0] != lines_b[0] {
        return (0..records).collect();
    }
    (0..records)
        .filter(|&i| lines_a.get(i + 1) != lines_b.get(i + 1))
        .collect()
}

impl Timed for SweepStudy {
    fn setup(seed: u64) -> Result<Self, String> {
        let programs = sweep_programs(seed);
        let runner = PipelineCellRunner::new(
            &programs,
            OptLevel::O4,
            OracleKind::Symbolic,
            DEFAULT_CELL_FUEL,
            false,
        );
        let plan = sweep_plan(&runner)?;
        Ok(SweepStudy {
            programs,
            runner,
            plan,
            first_journal: None,
            first_records: None,
            failed: BTreeSet::new(),
        })
    }

    fn jobs(&self) -> usize {
        self.plan.record_count()
    }

    fn repetition(&mut self, _rng: &mut SplitMix64, best: &mut BestOfK) -> Result<(), String> {
        // The seed fixed the workload order in set-up; the engine then
        // walks cells in canonical order, so every repetition does the
        // same work in the same order and writes the same journal.
        let timer = ItemTimer {
            inner: &self.runner,
            workloads: self.programs.len(),
            started: Mutex::new(None),
            items: Mutex::new(Vec::with_capacity(self.plan.record_count())),
        };
        let (records, _, journal) = sweep_once(&self.plan, &timer)?;
        for (index, seconds) in timer.items.into_inner().expect("no holder panics") {
            best.record(index, seconds);
        }
        for record in &records {
            if !record.status.is_ok() {
                self.failed
                    .insert((record.index, format!("quarantined: {:?}", record.status)));
            }
        }
        if let Some(first) = &self.first_journal {
            for index in journal_differences(first, &journal, records.len()) {
                self.failed
                    .insert((index, "journal line changed between repetitions".into()));
            }
        } else {
            self.first_journal = Some(journal);
            self.first_records = Some(records);
        }
        Ok(())
    }

    fn check(self) -> Result<Checked, String> {
        let reference = suite::reference_checksums(&self.programs)?;
        let mut failed = self.failed;
        let records = self.first_records.expect("at least one repetition");
        let journal = self.first_journal.expect("at least one repetition");
        // The benchmark-side runner re-runs every item: it must write the
        // same journal, and it keeps the programs and cycle accounts.
        let bench = BenchCellRunner::new(&self.programs, &self.plan.grid, None);
        let (_, _, bench_journal) = sweep_once(&self.plan, &bench)?;
        for index in journal_differences(&journal, &bench_journal, records.len()) {
            failed.insert((
                index,
                "benchmark-side runner wrote a different journal line".into(),
            ));
        }
        let outcomes = bench.into_outcomes();
        let workloads = self.programs.len();
        let mut programs = Vec::new();
        for (index, outcome) in outcomes.iter().enumerate() {
            match outcome {
                Some(item) if !item.conserved => {
                    failed.insert((index, "cycle account does not conserve".into()));
                }
                Some(item) => programs.push((index, item)),
                None => {
                    failed.insert((index, "item did not run".into()));
                }
            }
        }
        let checked: Vec<(usize, &Program)> = programs
            .iter()
            .map(|&(index, item)| (index % workloads, &item.program))
            .collect();
        for position in suite::check_checksums(&checked, &reference) {
            failed.insert((programs[position].0, "wrong checksum".into()));
        }
        let (mut instructions, mut cycles) = (0, 0);
        for record in &records {
            if let CellStatus::Ok(metrics) = &record.status {
                instructions += metrics.instructions;
                cycles += metrics.machine_cycles;
            }
        }
        let failures = failed
            .into_iter()
            .map(|(index, why)| {
                format!("{} {}: {why}", records[index].workload, records[index].cell)
            })
            .collect();
        Ok((
            failures,
            vec![
                ("sim.instructions", instructions),
                ("sim.machine_cycles", cycles),
                ("sweep.journal_bytes", journal.len() as u64),
            ],
        ))
    }
}

// ---------------------------------------------------------------------------
// profile
// ---------------------------------------------------------------------------

/// What a profile job must reproduce on every repetition.
#[derive(Debug, PartialEq)]
struct ProfileResult {
    program: Program,
    instructions: u64,
    machine_cycles: u64,
    timeline_bytes: u64,
    stats_bytes: usize,
}

/// `titalc stats` on the 11 stall-breakdown presets and `titalc profile
/// --timeline` on MultiTitan and CRAY-1.
pub struct Profile {
    programs: Vec<Workload>,
    jobs: Vec<ProfileJob>,
    first: Vec<Option<ProfileResult>>,
    failed: BTreeSet<(usize, String)>,
}

impl Timed for Profile {
    fn setup(_seed: u64) -> Result<Self, String> {
        let programs = suite::programs();
        let jobs = jobs::profile_jobs(&programs);
        Ok(Profile {
            first: (0..jobs.len()).map(|_| None).collect(),
            programs,
            jobs,
            failed: BTreeSet::new(),
        })
    }

    fn jobs(&self) -> usize {
        self.jobs.len()
    }

    fn repetition(&mut self, rng: &mut SplitMix64, best: &mut BestOfK) -> Result<(), String> {
        for index in suite::permutation(self.jobs.len(), rng) {
            let job = &self.jobs[index];
            let source = &self.programs[job.program].source;
            let started = Instant::now();
            let result = std::hint::black_box(jobs::run_profile_job(job, source, &Untraced));
            best.record(index, started.elapsed().as_secs_f64());
            match result {
                Ok(ProfileOutput {
                    program,
                    report,
                    timeline_bytes,
                    stats_bytes,
                }) => {
                    if !report.cycle_account().conserved() {
                        self.failed
                            .insert((index, "cycle account does not conserve".into()));
                    }
                    let result = ProfileResult {
                        program,
                        instructions: report.instructions(),
                        machine_cycles: report.machine_cycles(),
                        timeline_bytes,
                        stats_bytes,
                    };
                    if !same_as_first(&mut self.first[index], result) {
                        self.failed
                            .insert((index, "output changed between repetitions".into()));
                    }
                }
                Err(error) => {
                    self.failed.insert((index, error));
                }
            }
        }
        Ok(())
    }

    fn check(self) -> Result<Checked, String> {
        let reference = suite::reference_checksums(&self.programs)?;
        let mut failed = self.failed;
        let outputs: Vec<(usize, &ProfileResult)> = self
            .first
            .iter()
            .enumerate()
            .filter_map(|(index, result)| result.as_ref().map(|r| (index, r)))
            .collect();
        let checked: Vec<(usize, &Program)> = outputs
            .iter()
            .map(|&(index, result)| (self.jobs[index].program, &result.program))
            .collect();
        for position in suite::check_checksums(&checked, &reference) {
            failed.insert((outputs[position].0, "wrong checksum".into()));
        }
        let timeline_bytes = outputs.iter().map(|(_, r)| r.timeline_bytes).sum();
        let mut failures: Vec<String> = failed
            .into_iter()
            .map(|(index, why)| {
                format!(
                    "{}: {why}",
                    jobs::profile_name(&self.jobs[index], &self.programs)
                )
            })
            .collect();
        if let Err(why) = validate_small_timeline() {
            failures.push(why);
        }
        Ok((failures, vec![("trace.timeline_bytes", timeline_bytes)]))
    }
}

/// Renders one small program's whole timeline, compile phases included,
/// in memory and runs the validator `titalc lint` runs on it. The program
/// is a 4x4 linpack (about 1,100 dynamic instructions): the validator's
/// cost grows with the square of the document, and the smallest
/// Small-suite timeline (2.9 MB) takes it minutes.
fn validate_small_timeline() -> Result<(), String> {
    let workload = supersym::workloads::linpack(4);
    let machine = supersym::machine::presets::multititan();
    let options = supersym::CompileOptions::new(OptLevel::O4, &machine).with_verify(false);
    let fail = |why: String| format!("{} timeline on {}: {why}", workload.name, machine.name());
    let mut sink = suite::timeline_sink(Vec::new(), &machine);
    let program = supersym::compile_with_trace(&workload.source, &options, &mut sink)
        .map_err(|e| fail(e.to_string()))?;
    supersym::sim::simulate_with_sink(&program, &machine, Default::default(), &mut sink)
        .map_err(|e| fail(e.to_string()))?;
    let bytes = sink.finish().map_err(|e| fail(e.to_string()))?;
    let text = String::from_utf8(bytes).map_err(|e| fail(e.to_string()))?;
    validate_timeline(&text)
        .map(|_| ())
        .map_err(|e| fail(format!("fails validation: {e}")))
}
