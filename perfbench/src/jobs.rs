//! The fixed job lists of the `compile_ladder` and `profile` workloads,
//! and the library calls one job makes.

use crate::spans::Layers;
use crate::suite::{self, ByteCounter};
use supersym::isa::Program;
use supersym::sim::{simulate_with_sink, MetricsSink, SimOptions, SimReport};
use supersym::trace::{IssueEvent, MemorySink, PhaseRecord, TraceSink};
use supersym::verify::{CertMethod, PassCertificate};
use supersym::workloads::Workload;
use supersym::{compile, compile_certified, compile_with_trace, CompileOptions, OptLevel};

/// One compile of the ladder: a program at one level for one preset.
#[derive(Debug, Clone)]
pub struct LadderJob {
    /// Index into the suite.
    pub program: usize,
    /// The compile options, verify on.
    pub options: CompileOptions,
    /// Run translation validation on every optimizer pass.
    pub certified: bool,
}

/// The ladder: every program at O0-O4 on every ladder preset (160 jobs),
/// then one certified O4 compile per program on MultiTitan (8 jobs).
#[must_use]
pub fn ladder_jobs(programs: &[Workload]) -> Vec<LadderJob> {
    let machines = suite::ladder_machines();
    let mut jobs = Vec::new();
    for program in 0..programs.len() {
        for machine in &machines {
            for level in OptLevel::ALL {
                jobs.push(LadderJob {
                    program,
                    options: CompileOptions::new(level, machine).with_verify(true),
                    certified: false,
                });
            }
        }
    }
    let multititan = supersym::machine::presets::multititan();
    for program in 0..programs.len() {
        jobs.push(LadderJob {
            program,
            options: CompileOptions::new(OptLevel::O4, &multititan).with_verify(true),
            certified: true,
        });
    }
    jobs
}

/// A ladder job's display name.
#[must_use]
pub fn ladder_name(job: &LadderJob, programs: &[Workload]) -> String {
    format!(
        "{} {:?}{} {}",
        programs[job.program].name,
        job.options.opt,
        if job.certified { " certified" } else { "" },
        job.options.machine.name()
    )
}

/// Runs one ladder job through the library, as `titalc` (or `titalc
/// certify`) compiles.
///
/// # Errors
///
/// The pipeline error, or a pass the certifier could not prove.
pub fn run_ladder_job(job: &LadderJob, source: &str) -> Result<Program, String> {
    if job.certified {
        let (program, certificates) =
            compile_certified(source, &job.options).map_err(|e| e.to_string())?;
        all_certified(&certificates)?;
        Ok(program)
    } else {
        compile(source, &job.options).map_err(|e| e.to_string())
    }
}

/// Fails unless every pass certificate proved its pass.
///
/// # Errors
///
/// Names the first unproven pass.
pub fn all_certified(certificates: &[PassCertificate]) -> Result<(), String> {
    match certificates.iter().find(|c| !c.is_certified()) {
        Some(cert) => Err(format!("pass {} was not certified", cert.pass)),
        None => Ok(()),
    }
}

/// Certificates proven by the structural tier.
#[must_use]
pub fn structural(certificates: &[PassCertificate]) -> usize {
    certificates
        .iter()
        .filter(|c| c.method == Some(CertMethod::Structural))
        .count()
}

/// Which `titalc` surface a profile job stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Half {
    /// `titalc stats`: phases in memory, issue events into a metrics sink.
    Stats,
    /// `titalc profile --timeline`: every event into a timeline document.
    Timeline,
}

/// One profile job: a program compiled at O4 for one preset and run with
/// a sink attached.
#[derive(Debug, Clone)]
pub struct ProfileJob {
    /// Index into the suite.
    pub program: usize,
    /// The compile options (O4, verify off, as the release CLI runs).
    pub options: CompileOptions,
    /// Which sink.
    pub half: Half,
}

/// The stats half on the 11 stall-breakdown presets (88 jobs), then the
/// timeline half for every program but stan on MultiTitan and CRAY-1 (14
/// jobs). stan is left out of the timeline half: its timeline alone runs
/// to 177 MB and two seconds.
#[must_use]
pub fn profile_jobs(programs: &[Workload]) -> Vec<ProfileJob> {
    let mut jobs = Vec::new();
    for (half, machines) in [
        (Half::Stats, suite::stall_breakdown_machines()),
        (Half::Timeline, suite::timeline_machines()),
    ] {
        for (program, workload) in programs.iter().enumerate() {
            if half == Half::Timeline && workload.name == "stan" {
                continue;
            }
            for machine in &machines {
                jobs.push(ProfileJob {
                    program,
                    options: CompileOptions::new(OptLevel::O4, machine).with_verify(false),
                    half,
                });
            }
        }
    }
    jobs
}

/// A profile job's display name.
#[must_use]
pub fn profile_name(job: &ProfileJob, programs: &[Workload]) -> String {
    let half = match job.half {
        Half::Stats => "stats",
        Half::Timeline => "timeline",
    };
    format!(
        "{} {half} {}",
        programs[job.program].name,
        job.options.machine.name()
    )
}

/// What a profile job produced.
#[derive(Debug)]
pub struct ProfileOutput {
    /// The compiled program.
    pub program: Program,
    /// The simulation report.
    pub report: SimReport,
    /// Timeline bytes written while simulating and finishing (0 for the
    /// stats half). Compile phases carry wall times, so the bytes written
    /// while compiling vary from run to run; these do not.
    pub timeline_bytes: u64,
    /// Bytes of the rendered `titalc stats` metrics document (0 for the
    /// timeline half).
    pub stats_bytes: usize,
}

/// Captures what `titalc stats` keeps from one compile and run: phases in
/// memory, issue events folded into the histograms.
#[derive(Debug, Default)]
pub struct StatsSink {
    /// Compile phases.
    pub memory: MemorySink,
    /// Stall-run and block-ILP histograms.
    pub metrics: MetricsSink,
}

impl TraceSink for StatsSink {
    fn phase(&mut self, record: &PhaseRecord<'_>) {
        self.memory.phase(record);
    }

    fn issue(&mut self, event: &IssueEvent) {
        self.metrics.issue(event);
    }
}

/// Renders the `titalc stats` metrics registry for one run.
#[must_use]
pub fn stats_document(sink: &mut StatsSink, program: &Program, report: &SimReport) -> String {
    let account = report.cycle_account();
    let mut registry = supersym::phase_metrics(&sink.memory.phases);
    registry.counter("sim.static_size", program.static_size() as u64);
    registry.counter("sim.instructions", report.instructions());
    registry.counter("sim.machine_cycles", report.machine_cycles());
    registry.counter("sim.issue_cycles", account.issue_cycles());
    registry.counter("sim.stall_cycles", account.total_stall_cycles());
    registry.counter("sim.drain_cycles", account.drain_cycles());
    registry.gauge("sim.ilp", report.available_parallelism());
    report.block_cache_stats().register(&mut registry);
    sink.metrics.register(&mut registry);
    registry.to_json().to_string()
}

/// Runs one profile job through the library, as `titalc stats` or
/// `titalc profile --timeline` does, each call in its layer.
///
/// # Errors
///
/// A pipeline or simulator error, or a timeline write error.
pub fn run_profile_job<L: Layers>(
    job: &ProfileJob,
    source: &str,
    layers: &L,
) -> Result<ProfileOutput, String> {
    let machine = &job.options.machine;
    let compile = |sink: &mut dyn TraceSink| {
        layers
            .layer("core.compile_with_trace", || {
                compile_with_trace(source, &job.options, sink)
            })
            .map_err(|e| e.to_string())
    };
    match job.half {
        Half::Stats => {
            let mut sink = StatsSink::default();
            let program = compile(&mut sink)?;
            let report = layers
                .layer("sim.simulate_with_sink.metrics", || {
                    simulate_with_sink(&program, machine, SimOptions::default(), &mut sink)
                })
                .map_err(|e| e.to_string())?;
            let stats_bytes = layers.layer("trace.metrics_registry", || {
                stats_document(&mut sink, &program, &report).len()
            });
            Ok(ProfileOutput {
                program,
                report,
                timeline_bytes: 0,
                stats_bytes,
            })
        }
        Half::Timeline => {
            let counter = ByteCounter::default();
            let mut sink = suite::timeline_sink(counter.clone(), machine);
            let program = compile(&mut sink)?;
            let compiled = counter.bytes();
            let report = layers
                .layer("sim.simulate_with_sink.timeline", || {
                    simulate_with_sink(&program, machine, SimOptions::default(), &mut sink)
                })
                .map_err(|e| e.to_string())?;
            layers
                .layer("trace.timeline_finish", || sink.finish())
                .map_err(|e| e.to_string())?;
            Ok(ProfileOutput {
                program,
                report,
                timeline_bytes: counter.bytes() - compiled,
                stats_bytes: 0,
            })
        }
    }
}
