//! The traced run: the three workloads' job lists again, each library call
//! wrapped in a span from the benchmark's own code, reported as per-layer
//! self times. End-to-end metrics never come from here.
//!
//! Every traced invocation covers all three workloads, whatever
//! `--workload` names, because every per-layer metric comes from each
//! traced run. One pass runs, per workload, one untraced repetition (the
//! reference outputs and the control wall time) and one traced
//! repetition, plus control runs that price what a single span cannot
//! separate: the executor alone, the exact simulator, a plain compile and
//! a no-op sink. Passes repeat for `--seconds`; the pass with the least
//! traced wall time is reported and its spans are written as a timeline.

use crate::jobs::{self, Half, LadderJob, ProfileJob};
use crate::spans::{timeline, LayerTimes, Layers, Recorder, Span, Traced, Untraced, JOB};
use crate::stats::Metric;
use crate::suite;
use crate::sweep_runner::{BenchCellRunner, ItemOutcome, Tracing};
use crate::timed;
use std::time::{Duration, Instant};
use supersym::analyze::OracleKind;
use supersym::codegen::MIN_TEMP_REGS;
use supersym::ir::Module;
use supersym::isa::{Diagnostic, Program};
use supersym::opt::{Pass, PassObserver};
use supersym::rng::SplitMix64;
use supersym::rules::{RuleTable, DEFAULT_TABLE_TEXT};
use supersym::sim::{simulate, simulate_with_sink, ExecOptions, Executor, SimOptions};
use supersym::sweep::{CellStatus, PipelineCellRunner, SweepPlan, DEFAULT_CELL_FUEL};
use supersym::trace::{validate_timeline, NullSink};
use supersym::verify::PassCertificate;
use supersym::workloads::Workload;
use supersym::{compile, CompileOptions, OptLevel};

/// The traced run's per-layer metrics and their units, in the order they
/// are printed and listed in `BENCHMARK.json`.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("lang.parse_ms", "ms"),
    ("lang.check_ms", "ms"),
    ("ir.lower_ms", "ms"),
    ("opt.local_ms", "ms"),
    ("opt.global_ms", "ms"),
    ("rules.table_load_ms", "ms"),
    ("analyze.sharpen_ms", "ms"),
    ("regalloc.allocate_ms", "ms"),
    ("codegen.lower_ms", "ms"),
    ("core.front_ms", "ms"),
    ("lang.source_kib", "KiB"),
    ("ir.insts", "count"),
    ("opt.insts_after", "count"),
    ("codegen.schedule_ms", "ms"),
    ("codegen.static_insts", "count"),
    ("verify.lint_ms", "ms"),
    ("verify.check_schedule_ms", "ms"),
    ("verify.certify_ms", "ms"),
    ("verify.certify_structural_frac", "frac"),
    ("sim.simulate_ms", "ms"),
    ("sim.minstr_per_s", "Minstr/s"),
    ("sim.exec_ms", "ms"),
    ("sim.exact_ms", "ms"),
    ("sim.block_cache.hit_rate", "frac"),
    ("sim.block_cache.replayed_frac", "frac"),
    ("sim.block_cache.fallbacks", "count"),
    ("sim.instructions", "count"),
    ("sim.machine_cycles", "count"),
    ("sim.sink_ms", "ms"),
    ("trace.timeline_ms", "ms"),
    ("trace.metrics_ms", "ms"),
    ("trace.compile_trace_ms", "ms"),
    ("trace.timeline_bytes", "count"),
    ("sweep.cell_ms", "ms"),
    ("sweep.engine_overhead_ms", "ms"),
    ("sweep.journal_bytes", "count"),
    ("sweep.completed", "count"),
    ("bench.accounted_pct", "%"),
    ("bench.unattributed_ms", "ms"),
    ("bench.trace_overhead_ratio", "ratio"),
];

/// Layer spans must cover at least this share of the jobs' wall time.
const MIN_ACCOUNTED_PCT: f64 = 95.0;

/// Deterministic counts of one pass; they must repeat exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Counts {
    source_bytes: u64,
    ir_insts: u64,
    opt_insts: u64,
    static_insts: u64,
    certified_passes: u64,
    structural_passes: u64,
    instructions: u64,
    machine_cycles: u64,
    cache_hits: u64,
    cache_misses: u64,
    fallbacks: u64,
    replayed: u64,
    journal_bytes: u64,
    completed: u64,
    timeline_bytes: u64,
}

/// What one pass recorded.
struct PassResult {
    spans: Vec<Span>,
    jobs: Vec<String>,
    /// Wall time of the untraced repetitions.
    untraced_ns: u64,
    /// Wall time of the traced repetitions.
    traced_ns: u64,
    jobs_traced: u64,
    failures: Vec<String>,
    counts: Counts,
}

/// The job lists and the sweep's fixed inputs.
struct Inputs {
    programs: Vec<Workload>,
    ladder: Vec<LadderJob>,
    profile: Vec<ProfileJob>,
    sweep_programs: Vec<Workload>,
    pipeline: PipelineCellRunner,
    plan: SweepPlan,
}

/// Runs traced passes for about `seconds` and reports the fastest.
///
/// # Errors
///
/// When an input fails to build or the span file cannot be written.
pub fn run(workload: &str, seed: u64, seconds: u64) -> crate::RunResult {
    let started = Instant::now();
    let programs = suite::programs();
    let sweep_programs = timed::sweep_programs(seed);
    let pipeline = PipelineCellRunner::new(
        &sweep_programs,
        OptLevel::O4,
        OracleKind::Symbolic,
        DEFAULT_CELL_FUEL,
        false,
    );
    let plan = timed::sweep_plan(&pipeline)?;
    let inputs = Inputs {
        ladder: jobs::ladder_jobs(&programs),
        profile: jobs::profile_jobs(&programs),
        programs,
        sweep_programs,
        pipeline,
        plan,
    };
    let mut rng = SplitMix64::new(seed);
    let mut passes = Vec::new();
    let deadline = started + Duration::from_secs(seconds);
    // Another pass starts only if one as long as the last still ends
    // before the deadline, so a traced run does not overshoot by a pass.
    let mut last = Duration::ZERO;
    while passes.is_empty() || Instant::now() + last < deadline {
        let pass_started = Instant::now();
        passes.push(pass(&inputs, &mut rng)?);
        last = pass_started.elapsed();
    }
    let mut failures: Vec<String> = Vec::new();
    for later in &passes[1..] {
        if later.counts != passes[0].counts {
            failures.push(format!(
                "counts changed between passes: {:?} vs {:?}",
                passes[0].counts, later.counts
            ));
        }
    }
    let count = passes.len();
    let best = passes
        .into_iter()
        .min_by_key(|p| p.traced_ns)
        .expect("at least one pass");
    failures.extend(best.failures.iter().cloned());
    let times = LayerTimes::of(&best.spans);
    if times.accounted_pct() < MIN_ACCOUNTED_PCT {
        failures.push(format!(
            "layer spans account for {:.2}% of job wall time, under {MIN_ACCOUNTED_PCT}%",
            times.accounted_pct()
        ));
    }
    let document = timeline(&best.spans, &best.jobs);
    if let Err(why) = validate_timeline(&document) {
        failures.push(format!("span timeline fails validation: {why}"));
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}-seed{seed}.json"));
    std::fs::create_dir_all(path.parent().expect("has a parent"))
        .and_then(|()| std::fs::write(&path, &document))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let metrics = layer_metrics(&times, &best);
    let mut report = format!(
        "traced run (seed {seed}): {count} passes, fastest reported; {} jobs traced, {} failed\n",
        best.jobs_traced,
        failures.len()
    );
    for metric in &metrics {
        report.push_str(&format!(
            "  {:<32} {:>18.6} {}\n",
            metric.name, metric.value, metric.unit
        ));
    }
    report.push_str(&format!(
        "  spans: {} ({} spans)\n",
        path.display(),
        best.spans.len()
    ));
    for failure in &failures {
        report.push_str(&format!("  FAILED {failure}\n"));
    }
    let failed = failures.len() as u64;
    Ok((report, failed == 0, best.jobs_traced, failed, metrics))
}

/// Reads every per-layer metric off the fastest pass.
fn layer_metrics(times: &LayerTimes, pass: &PassResult) -> Vec<Metric> {
    let c = &pass.counts;
    let ratio = |a: u64, b: u64| a as f64 / b as f64;
    let sinks = times.self_ms("sim.sink.metrics") + times.self_ms("sim.sink.timeline");
    let value = |name: &str| -> f64 {
        match name {
            "lang.source_kib" => c.source_bytes as f64 / 1024.0,
            "ir.insts" => c.ir_insts as f64,
            "opt.insts_after" => c.opt_insts as f64,
            "codegen.static_insts" => c.static_insts as f64,
            "verify.certify_structural_frac" => ratio(c.structural_passes, c.certified_passes),
            "sim.minstr_per_s" => c.instructions as f64 / times.self_ms("sim.simulate") / 1e3,
            "sim.block_cache.hit_rate" => ratio(c.cache_hits, c.cache_hits + c.cache_misses),
            "sim.block_cache.replayed_frac" => ratio(c.replayed, c.instructions),
            "sim.block_cache.fallbacks" => c.fallbacks as f64,
            "sim.instructions" => c.instructions as f64,
            "sim.machine_cycles" => c.machine_cycles as f64,
            "sim.sink_ms" => sinks,
            "trace.timeline_ms" => {
                times.self_ms("sim.simulate_with_sink.timeline")
                    + times.self_ms("trace.timeline_finish")
                    - times.self_ms("sim.sink.timeline")
            }
            "trace.metrics_ms" => {
                times.self_ms("sim.simulate_with_sink.metrics")
                    + times.self_ms("trace.metrics_registry")
                    - times.self_ms("sim.sink.metrics")
            }
            "trace.compile_trace_ms" => {
                times.self_ms("core.compile_with_trace") - times.self_ms("core.compile")
            }
            "trace.timeline_bytes" => c.timeline_bytes as f64,
            "sweep.cell_ms" => times.total_ms("sweep.cell"),
            "sweep.engine_overhead_ms" => {
                times.total_ms("sweep.run") - times.total_ms("sweep.cell")
            }
            "sweep.journal_bytes" => c.journal_bytes as f64,
            "sweep.completed" => c.completed as f64,
            "bench.accounted_pct" => times.accounted_pct(),
            "bench.unattributed_ms" => times.unattributed_ns as f64 / 1e6,
            "bench.trace_overhead_ratio" => ratio(pass.traced_ns, pass.untraced_ns),
            // Every other metric is a layer's summed self time: the span
            // name is the metric name without `_ms`.
            timed => times.self_ms(timed.strip_suffix("_ms").expect("a time")),
        }
    };
    LAYER_METRICS
        .iter()
        .map(|&(name, unit)| Metric::new(name, value(name), unit))
        .collect()
}

fn elapsed_ns(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).expect("passes are short")
}

/// One pass over all three workloads.
fn pass(inputs: &Inputs, rng: &mut SplitMix64) -> Result<PassResult, String> {
    let recorder = Recorder::default();
    let mut pass = PassResult {
        spans: Vec::new(),
        jobs: Vec::new(),
        untraced_ns: 0,
        traced_ns: 0,
        jobs_traced: 0,
        failures: Vec::new(),
        counts: Counts::default(),
    };
    let table = recorder.span("setup", None, || {
        recorder.span("rules.table_load", None, || {
            RuleTable::parse(DEFAULT_TABLE_TEXT)
        })
    })?;
    if table.rules() != supersym::rules::default_table().rules() {
        pass.failures
            .push("the rule table parsed differently from the pipeline's".into());
    }
    pass.counts.source_bytes = inputs.programs.iter().map(|w| w.source.len() as u64).sum();
    compile_ladder(inputs, &recorder, rng, &mut pass);
    sweep_study(inputs, &recorder, &mut pass)?;
    profile(inputs, &recorder, rng, &mut pass);
    let (spans, jobs) = recorder.finish();
    pass.spans = spans;
    pass.jobs = jobs;
    Ok(pass)
}

// ---------------------------------------------------------------------------
// compile_ladder: compilation rebuilt from the crates' public calls
// ---------------------------------------------------------------------------

fn compile_ladder(
    inputs: &Inputs,
    recorder: &Recorder,
    rng: &mut SplitMix64,
    pass: &mut PassResult,
) {
    let order = suite::permutation(inputs.ladder.len(), rng);
    let started = Instant::now();
    let reference: Vec<Result<Program, String>> = order
        .iter()
        .map(|&i| jobs::run_ladder_job(&inputs.ladder[i], source(inputs, &inputs.ladder[i])))
        .collect();
    pass.untraced_ns += elapsed_ns(started);
    let ids: Vec<u32> = order
        .iter()
        .map(|&i| recorder.job(jobs::ladder_name(&inputs.ladder[i], &inputs.programs)))
        .collect();
    let started = Instant::now();
    let rebuilt: Vec<Result<Rebuilt, String>> = recorder.span("compile_ladder", None, || {
        order
            .iter()
            .zip(&ids)
            .map(|(&i, &id)| {
                let layers = Traced {
                    recorder,
                    job: Some(id),
                };
                let job = &inputs.ladder[i];
                recorder.span(JOB, Some(id), || {
                    rebuilt_compile(&layers, source(inputs, job), &job.options, job.certified)
                })
            })
            .collect()
    });
    pass.traced_ns += elapsed_ns(started);
    pass.jobs_traced += order.len() as u64;
    for ((&i, expected), got) in order.iter().zip(&reference).zip(rebuilt) {
        let name = || jobs::ladder_name(&inputs.ladder[i], &inputs.programs);
        match (expected, got) {
            (Ok(expected), Ok(got)) => {
                if *expected != got.program {
                    pass.failures.push(format!(
                        "{}: rebuilt compile differs from compile()",
                        name()
                    ));
                }
                if let Err(why) = jobs::all_certified(&got.certificates) {
                    pass.failures
                        .push(format!("{}: rebuilt compile: {why}", name()));
                }
                let c = &mut pass.counts;
                c.ir_insts += got.ir_insts;
                c.opt_insts += got.opt_insts;
                c.static_insts += got.program.static_size() as u64;
                c.certified_passes += got.certificates.len() as u64;
                c.structural_passes += jobs::structural(&got.certificates) as u64;
            }
            (expected, got) => pass.failures.push(format!(
                "{}: compile() gave {:?}, the rebuild {:?}",
                name(),
                expected.as_ref().err(),
                got.err()
            )),
        }
    }
}

fn source<'a>(inputs: &'a Inputs, job: &LadderJob) -> &'a str {
    &inputs.programs[job.program].source
}

/// A rebuilt compilation and the IR sizes along the way.
struct Rebuilt {
    program: Program,
    certificates: Vec<PassCertificate>,
    ir_insts: u64,
    opt_insts: u64,
}

fn ir_insts(module: &Module) -> u64 {
    module.funcs.iter().map(|f| f.inst_count() as u64).sum()
}

/// Re-proves each optimizer pass, as the pipeline's certifier does, in a
/// `verify.certify` span nested inside the pass's span.
struct SpanCertifier<'a, 'r> {
    layers: &'a Traced<'r>,
    table: &'static RuleTable,
    prev: Module,
    certificates: Vec<PassCertificate>,
}

impl PassObserver for SpanCertifier<'_, '_> {
    fn after_pass(&mut self, pass: Pass, module: &Module) {
        let layers = self.layers;
        layers.layer("verify.certify", || {
            self.certificates.push(supersym::verify::certify_pass(
                &self.prev,
                module,
                pass.name(),
                self.table,
            ));
            self.prev = module.clone();
        });
    }
}

fn errors(diagnostics: Vec<Diagnostic>) -> Result<(), String> {
    match diagnostics.iter().find(|d| d.is_error()) {
        Some(error) => Err(error.to_string()),
        None => Ok(()),
    }
}

/// `supersym::compile` (or `compile_certified`) rebuilt from the crates'
/// public calls in the order `compile.rs` makes them, for options without
/// unrolling or reassociation, each call in its layer's span.
fn rebuilt_compile(
    layers: &Traced<'_>,
    source: &str,
    options: &CompileOptions,
    certify: bool,
) -> Result<Rebuilt, String> {
    let text = |e: &dyn std::fmt::Display| e.to_string();
    let ast = layers
        .layer("lang.parse", || supersym::lang::parse(source))
        .map_err(|e| text(&e))?;
    layers
        .layer("lang.check", || supersym::lang::check(&ast))
        .map_err(|e| text(&e))?;
    let mut ir = layers.layer("ir.lower", || -> Result<Module, String> {
        let ir = supersym::ir::lower(&ast).map_err(|e| text(&e))?;
        ir.validate().map_err(|e| text(&e))?;
        Ok(ir)
    })?;
    let lowered = ir_insts(&ir);
    let table = supersym::rules::default_table();
    let mut certifier = certify.then(|| {
        layers.layer("verify.certify", || SpanCertifier {
            layers,
            table,
            prev: ir.clone(),
            certificates: Vec::new(),
        })
    });
    if options.opt.local() {
        layers.layer("opt.local", || {
            let observer = certifier.as_mut().map(|c| c as &mut dyn PassObserver);
            supersym::opt::run_local_observed(&mut ir, table, observer);
        });
    }
    if options.opt.global() {
        layers.layer("opt.global", || {
            let observer = certifier.as_mut().map(|c| c as &mut dyn PassObserver);
            supersym::opt::run_global_observed(&mut ir, table, observer);
        });
    }
    let certificates = certifier.map_or_else(Vec::new, |c| c.certificates);
    if let Some(error) = certificates
        .iter()
        .flat_map(|c| c.diagnostics.iter())
        .find(|d| d.is_error())
    {
        return Err(error.to_string());
    }
    let optimized = ir_insts(&ir);
    if options.oracle == OracleKind::Symbolic {
        layers.layer("analyze.sharpen", || {
            supersym::analyze::sharpen_origins(&mut ir)
        });
    }
    layers
        .layer("codegen.lower", || {
            supersym::codegen::split_live_across_calls(&mut ir);
            ir.validate()
        })
        .map_err(|e| text(&e))?;
    let homes = layers.layer("regalloc.allocate", || {
        supersym::regalloc::allocate(&ir, options.split, options.opt.global_regs())
    });
    if homes.int_temps().len() < MIN_TEMP_REGS || homes.fp_temps().len() < MIN_TEMP_REGS {
        return Err("register split leaves too few temporaries".into());
    }
    let mut program = layers.layer("codegen.lower", || {
        supersym::codegen::lower_program(&ir, &homes)
    });
    let machine = &options.machine;
    if options.verify {
        layers.layer("verify.lint", || {
            errors(supersym::verify::lint_machine(machine))
        })?;
    }
    if options.opt.scheduling() {
        let oracle = options.oracle.as_loop_oracle();
        let before = options
            .verify
            .then(|| layers.layer("verify.check_schedule", || program.clone()));
        layers.layer("codegen.schedule", || {
            supersym::codegen::schedule_program_with(&mut program, machine, oracle);
        });
        if let Some(before) = before {
            layers.layer("verify.check_schedule", || {
                errors(
                    supersym::verify::check_schedule_with(&before, &program, oracle)
                        .iter()
                        .map(|v| v.to_diagnostic())
                        .collect(),
                )
            })?;
        }
    }
    if options.verify {
        let lint_machine = (options.split == machine.register_split()).then_some(machine);
        layers.layer("verify.lint", || {
            errors(supersym::verify::lint_program(&program, lint_machine))
        })?;
    }
    layers
        .layer("verify.lint", || program.validate())
        .map_err(|e| text(&e))?;
    Ok(Rebuilt {
        program,
        certificates,
        ir_insts: lowered,
        opt_insts: optimized,
    })
}

// ---------------------------------------------------------------------------
// sweep_study: a benchmark-side runner against PipelineCellRunner
// ---------------------------------------------------------------------------

fn sweep_study(inputs: &Inputs, recorder: &Recorder, pass: &mut PassResult) -> Result<(), String> {
    let plan = &inputs.plan;
    let started = Instant::now();
    let (records, quarantined, journal) = timed::sweep_once(plan, &inputs.pipeline)?;
    pass.untraced_ns += elapsed_ns(started);
    let cells = plan.grid.cells();
    let workloads = inputs.sweep_programs.len();
    let ids: Vec<u32> = (0..plan.record_count())
        .map(|index| {
            recorder.job(format!(
                "{} {}",
                plan.workload_names[index % workloads],
                cells[index / workloads].name()
            ))
        })
        .collect();
    let tracing = Tracing {
        recorder,
        first_job: ids[0],
    };
    let (bench_journal, outcomes, traced_ns) = recorder.span("sweep_study", None, || {
        let bench = BenchCellRunner::new(&inputs.sweep_programs, &plan.grid, Some(tracing));
        let started = Instant::now();
        let swept = recorder.span("sweep.run", None, || timed::sweep_once(plan, &bench));
        let traced_ns = elapsed_ns(started);
        swept.map(|(_, _, journal)| (journal, bench.into_outcomes(), traced_ns))
    })?;
    pass.traced_ns += traced_ns;
    pass.jobs_traced += plan.record_count() as u64;
    if quarantined > 0 {
        pass.failures
            .push(format!("{quarantined} sweep items quarantined"));
    }
    if bench_journal != journal {
        let lines = timed::journal_differences(&journal, &bench_journal, records.len()).len();
        pass.failures.push(format!(
            "benchmark-side runner's journal differs from PipelineCellRunner's on {lines} lines"
        ));
    }
    let c = &mut pass.counts;
    c.journal_bytes = journal.len() as u64;
    c.completed = records
        .iter()
        .filter(|r| matches!(r.status, CellStatus::Ok(_)))
        .count() as u64;
    for item in outcomes.iter().flatten() {
        c.instructions += item.instructions;
        c.machine_cycles += item.machine_cycles;
        c.cache_hits += item.block_cache.hits;
        c.cache_misses += item.block_cache.misses;
        c.fallbacks += item.block_cache.fallbacks;
        c.replayed += item.block_cache.replayed_instructions;
    }
    let unconserved = outcomes
        .iter()
        .flatten()
        .filter(|item| !item.conserved)
        .count();
    if unconserved > 0 {
        pass.failures.push(format!(
            "{unconserved} sweep items' cycle accounts do not conserve"
        ));
    }
    recorder.span("sim_controls", None, || {
        sim_controls(&cells, workloads, &outcomes, recorder, &mut pass.failures);
    });
    Ok(())
}

/// Prices the simulator's parts on every sweep item: the functional
/// executor alone, and the exact model with the block cache off, which
/// must also agree with the cached run bit for bit.
fn sim_controls(
    cells: &[supersym::machine::GridCell],
    workloads: usize,
    outcomes: &[Option<ItemOutcome>],
    recorder: &Recorder,
    failures: &mut Vec<String>,
) {
    let exec = ExecOptions {
        max_steps: DEFAULT_CELL_FUEL,
        ..ExecOptions::default()
    };
    for (index, item) in outcomes.iter().enumerate() {
        let Some(item) = item else {
            failures.push(format!("sweep item {index} never ran"));
            continue;
        };
        let machine = cells[index / workloads].config();
        let ran = recorder.span("sim.exec", None, || {
            Executor::new(&item.program, exec).and_then(|mut e| e.run().map(|()| e.steps()))
        });
        let exact = recorder.span("sim.exact", None, || {
            simulate(
                &item.program,
                &machine,
                SimOptions {
                    exec,
                    block_cache: false,
                },
            )
        });
        let agrees = match (ran, exact) {
            (Ok(steps), Ok(report)) => {
                steps == item.instructions
                    && report.instructions() == item.instructions
                    && report.machine_cycles() == item.machine_cycles
            }
            _ => false,
        };
        if !agrees {
            failures.push(format!(
                "sweep item {index}: executor or exact model disagrees with the cached run"
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// profile: the sinks against a no-op sink
// ---------------------------------------------------------------------------

/// What a profile job must reproduce when traced.
#[derive(Debug, PartialEq)]
struct ProfileFacts {
    program: Program,
    instructions: u64,
    machine_cycles: u64,
    timeline_bytes: u64,
    stats_bytes: usize,
}

/// Runs profile job `i` and keeps what must match between runs.
fn profile_facts<L: Layers>(inputs: &Inputs, i: usize, layers: &L) -> Result<ProfileFacts, String> {
    let job = &inputs.profile[i];
    let output = jobs::run_profile_job(job, &inputs.programs[job.program].source, layers)?;
    Ok(ProfileFacts {
        instructions: output.report.instructions(),
        machine_cycles: output.report.machine_cycles(),
        program: output.program,
        timeline_bytes: output.timeline_bytes,
        stats_bytes: output.stats_bytes,
    })
}

fn profile(inputs: &Inputs, recorder: &Recorder, rng: &mut SplitMix64, pass: &mut PassResult) {
    let order = suite::permutation(inputs.profile.len(), rng);
    let started = Instant::now();
    let reference: Vec<Result<ProfileFacts, String>> = order
        .iter()
        .map(|&i| profile_facts(inputs, i, &Untraced))
        .collect();
    pass.untraced_ns += elapsed_ns(started);
    let ids: Vec<u32> = order
        .iter()
        .map(|&i| recorder.job(jobs::profile_name(&inputs.profile[i], &inputs.programs)))
        .collect();
    let started = Instant::now();
    let traced: Vec<Result<ProfileFacts, String>> = recorder.span("profile", None, || {
        order
            .iter()
            .zip(&ids)
            .map(|(&i, &id)| {
                let layers = Traced {
                    recorder,
                    job: Some(id),
                };
                recorder.span(JOB, Some(id), || profile_facts(inputs, i, &layers))
            })
            .collect()
    });
    pass.traced_ns += elapsed_ns(started);
    pass.jobs_traced += order.len() as u64;
    for ((&i, expected), got) in order.iter().zip(&reference).zip(&traced) {
        match (expected, got) {
            (Ok(expected), Ok(got)) if expected == got => {
                pass.counts.timeline_bytes += got.timeline_bytes;
            }
            _ => pass.failures.push(format!(
                "{}: traced job differs from the untraced one",
                jobs::profile_name(&inputs.profile[i], &inputs.programs)
            )),
        }
    }
    recorder.span("profile_controls", None, || {
        for (&i, got) in order.iter().zip(&traced) {
            let job = &inputs.profile[i];
            let source = &inputs.programs[job.program].source;
            let plain = recorder.span("core.compile", None, || compile(source, &job.options));
            let sink = match job.half {
                Half::Stats => "sim.sink.metrics",
                Half::Timeline => "sim.sink.timeline",
            };
            let Ok(got) = got else { continue };
            let control = recorder.span(sink, None, || {
                simulate_with_sink(
                    &got.program,
                    &job.options.machine,
                    SimOptions::default(),
                    &mut NullSink,
                )
            });
            let agrees = matches!(&plain, Ok(program) if *program == got.program)
                && control.is_ok_and(|r| r.machine_cycles() == got.machine_cycles);
            if !agrees {
                pass.failures.push(format!(
                    "{}: plain compile or no-op sink run disagrees",
                    jobs::profile_name(job, &inputs.programs)
                ));
            }
        }
    });
}
