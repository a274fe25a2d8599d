//! The compile-and-run commands: `run` (the default), `certify`,
//! `profile` and `stats`.

use crate::{compile_input, compiled, flag, simulated, Args, EXIT_SIM};
use std::io::{BufWriter, Write};
use std::process::ExitCode;
use supersym::analyze::OracleKind;
use supersym::isa::{ClassCensus, InstrClass, Program};
use supersym::machine::MachineConfig;
use supersym::sim::{
    simulate, simulate_with_cache, simulate_with_sink, CacheConfig, CycleAccount, MetricsSink,
    SimOptions, SimReport, StallCause,
};
use supersym::trace::{
    IssueEvent, JsonObject, JsonValue, MemorySink, PhaseRecord, TimelineSink, TraceSink,
    METRICS_SCHEMA,
};
use supersym::verify::CertMethod;
use supersym::{
    compile, compile_certified, compile_with_trace, phase_metrics, CompileOptions, OptLevel,
};

/// `titalc [run]`: compile FILE and simulate it, or print the scheduled
/// assembly with `--dump`; `--machines` lists the presets instead.
pub(crate) fn run(args: &Args) -> Result<(), ExitCode> {
    if args.switch(flag::MACHINES) {
        outln!("machine presets:");
        outln!("  base                  one instruction/cycle, unit latencies");
        outln!("  multititan            MultiTitan latency model (avg superpipelining 1.7)");
        outln!("  cray1                 CRAY-1 latency model (avg superpipelining 4.4)");
        outln!("  underpipelined        issues every other cycle");
        outln!("  superscalar:<n>       ideal degree-n superscalar");
        outln!("  superpipelined:<m>    degree-m superpipelined");
        outln!("  ssp:<n>:<m>           superpipelined superscalar");
        outln!("  conflicts:<n>         degree-n superscalar with shared functional units");
        outln!("  vliw:<n>              n-wide VLIW (taken branches break the issue group)");
        outln!("  slowcycle             underpipelined: doubled latencies, slower clock");
        return Ok(());
    }
    let (_, source, options) = compile_input(args)?;
    let program = compiled(compile(&source, &options), None)?;
    if args.switch(flag::DUMP) {
        out!("{program}");
        return Ok(());
    }
    // With `--cache` one run feeds the I/D caches and reports what
    // `simulate` would have.
    let (report, caches) = if args.switch(flag::CACHE) {
        let (report, caches) = simulated(simulate_with_cache(
            &program,
            &options.machine,
            SimOptions::default(),
            CacheConfig::small_direct(),
            CacheConfig::small_direct(),
        ))?;
        (report, Some(caches))
    } else {
        let report = simulated(simulate(&program, &options.machine, SimOptions::default()))?;
        (report, None)
    };
    print_headline(&options, &program, &report)?;
    print_cycle_account(report.cycle_account())?;
    print_class_table(report.census(), report.cycle_account())?;
    if let Some(caches) = caches {
        outln!(
            "caches (8KiB):  I-miss {:.2}%  D-miss {:.2}%  ({:.4} misses/instr)",
            caches.icache.miss_rate() * 100.0,
            caches.dcache.miss_rate() * 100.0,
            caches.misses_per_instruction
        );
    }
    Ok(())
}

/// `titalc certify`: compile with per-pass translation validation and
/// print one line per optimizer pass stating how its before/after IR
/// snapshots were proven equivalent. Certification failures exit with
/// `EXIT_VERIFY` via the pipeline taxonomy.
pub(crate) fn certify(args: &Args) -> Result<(), ExitCode> {
    let (path, source, options) = compile_input(args)?;
    let (program, certificates) = compiled(compile_certified(&source, &options), Some(path))?;
    let mut structural = 0_usize;
    let mut differential = 0_usize;
    outln!(
        "translation validation: ({} optimizer pass runs)",
        certificates.len()
    );
    for cert in &certificates {
        let method = match cert.method {
            Some(CertMethod::Structural) => {
                structural += 1;
                "structural"
            }
            Some(CertMethod::Differential) => {
                differential += 1;
                "differential"
            }
            None => "inconclusive",
        };
        outln!("  {:<18} {method}", cert.pass);
        for diagnostic in &cert.diagnostics {
            outln!("    {diagnostic}");
        }
    }
    outln!(
        "certified: {structural} structural, {differential} differential; \
         {} scheduled instruction(s)",
        program.static_size()
    );
    Ok(())
}

/// Compiles and runs with `sink` attached to both stages, then checks the
/// cycle account: one that does not balance is an internal error (exit
/// 4), never a report.
fn traced_run(
    source: &str,
    options: &CompileOptions,
    sink: &mut dyn TraceSink,
) -> Result<(Program, SimReport), ExitCode> {
    let program = compiled(compile_with_trace(source, options, sink), None)?;
    let report = simulated(simulate_with_sink(
        &program,
        &options.machine,
        SimOptions::default(),
        sink,
    ))?;
    if !report.cycle_account().conserved() {
        eprintln!(
            "titalc: internal error: cycle account does not balance on `{}`",
            options.machine.name()
        );
        return Err(ExitCode::from(EXIT_SIM));
    }
    Ok((program, report))
}

/// Records compile phases in memory for the profile report while
/// forwarding every phase *and* issue event to the `--timeline`
/// document, if any. Issue events are never buffered in memory — a long
/// run emits one per dynamic instruction.
struct ProfileSink {
    memory: MemorySink,
    timeline: Option<TimelineSink<BufWriter<std::fs::File>>>,
}

impl TraceSink for ProfileSink {
    fn phase(&mut self, record: &PhaseRecord<'_>) {
        self.memory.phase(record);
        if let Some(timeline) = &mut self.timeline {
            timeline.phase(record);
        }
    }

    fn issue(&mut self, event: &IssueEvent) {
        if let Some(timeline) = &mut self.timeline {
            timeline.issue(event);
        }
    }
}

/// Opens `--timeline <FILE>` with its simulate lanes named after
/// `machine`'s functional units. Failures exit `EXIT_SIM`, like every
/// other requested-output writer.
fn open_timeline(
    path: &str,
    machine: &MachineConfig,
) -> Result<TimelineSink<BufWriter<std::fs::File>>, ExitCode> {
    match std::fs::File::create(path) {
        Ok(file) => {
            let lanes = machine
                .functional_units()
                .iter()
                .map(|unit| unit.name().to_string())
                .collect();
            let class_lane = InstrClass::ALL
                .iter()
                .map(|&class| (class.mnemonic().to_string(), machine.unit_of(class)))
                .collect();
            Ok(TimelineSink::new(BufWriter::new(file)).with_pipeline_lanes(lanes, class_lane))
        }
        Err(error) => {
            eprintln!("titalc: cannot write timeline to `{path}`: {error}");
            Err(ExitCode::from(EXIT_SIM))
        }
    }
}

/// Closes a timeline document, surfacing any swallowed write error.
fn close_timeline(
    sink: TimelineSink<BufWriter<std::fs::File>>,
    path: &str,
) -> Result<(), ExitCode> {
    let flushed = sink.finish().and_then(|mut writer| writer.flush());
    match flushed {
        Ok(_) => Ok(()),
        Err(error) => {
            eprintln!("titalc: error writing timeline `{path}`: {error}");
            Err(ExitCode::from(EXIT_SIM))
        }
    }
}

/// Prints the cycle account: every machine cycle charged to issue, one
/// stall cause, or pipeline drain (the rows sum exactly to the total).
fn print_cycle_account(account: &CycleAccount) -> Result<(), ExitCode> {
    let total = account.machine_cycles().max(1);
    let pct = |cycles: u64| 100.0 * cycles as f64 / total as f64;
    outln!(
        "cycle account:  ({} machine cycles; rows sum exactly)",
        account.machine_cycles()
    );
    outln!(
        "  {:<22} {:>12} {:>7.1}%",
        "issue",
        account.issue_cycles(),
        pct(account.issue_cycles())
    );
    for (index, name) in StallCause::NAMES.iter().enumerate() {
        let cycles = account.stall_cycles(index);
        if cycles > 0 {
            outln!("  {name:<22} {cycles:>12} {:>7.1}%", pct(cycles));
        }
    }
    if account.drain_cycles() > 0 {
        outln!(
            "  {:<22} {:>12} {:>7.1}%",
            "drain",
            account.drain_cycles(),
            pct(account.drain_cycles())
        );
    }
    Ok(())
}

/// Prints the dynamic class census folded together with the per-class wait
/// rollup: one aligned table instead of two disjoint ones.
fn print_class_table(census: &ClassCensus, account: &CycleAccount) -> Result<(), ExitCode> {
    let total = census.total().max(1);
    outln!("class mix:      (dynamic count · share · cycles spent waiting to issue)");
    outln!(
        "  {:<10} {:>12} {:>7} {:>12}",
        "class",
        "count",
        "share",
        "wait cycles"
    );
    for class in InstrClass::ALL {
        let count = census.count(class);
        let wait = account.class_wait_cycles(class);
        if count == 0 && wait == 0 {
            continue;
        }
        outln!(
            "  {:<10} {count:>12} {:>6.1}% {wait:>12}",
            class.mnemonic(),
            100.0 * count as f64 / total as f64
        );
    }
    outln!(
        "  {:<10} {:>12} {:>6.1}% {:>12}",
        "total",
        census.total(),
        100.0,
        account.total_wait_cycles()
    );
    Ok(())
}

/// Prints per-functional-unit wait pressure (FU-busy waits only).
fn print_fu_waits(account: &CycleAccount) -> Result<(), ExitCode> {
    let rows: Vec<(&str, u64)> = account.fu_wait_cycles().filter(|&(_, w)| w > 0).collect();
    if rows.is_empty() {
        return Ok(());
    }
    outln!("functional-unit pressure: (cycles instructions waited on a busy unit)");
    for (name, wait) in rows {
        outln!("  {name:<22} {wait:>12}");
    }
    Ok(())
}

/// Prints the most-waited-on producer instructions.
fn print_producers(report: &SimReport) -> Result<(), ExitCode> {
    let producers = report.critical_producers();
    if producers.is_empty() {
        return Ok(());
    }
    outln!("critical producers: (result latency most waited on)");
    for p in producers {
        outln!(
            "  {:>8} cycles  {}:{:<4} {}",
            p.wait_cycles,
            p.function,
            p.pc,
            p.instr
        );
    }
    Ok(())
}

/// The summary `run` and `profile` both open with.
fn print_headline(
    options: &CompileOptions,
    program: &Program,
    report: &SimReport,
) -> Result<(), ExitCode> {
    outln!("machine:        {}", options.machine.name());
    outln!("optimization:   {}", options.opt);
    outln!("static size:    {} instructions", program.static_size());
    outln!("dynamic count:  {} instructions", report.instructions());
    outln!("time:           {:.1} base cycles", report.base_cycles());
    outln!(
        "rate:           {:.3} instructions/cycle",
        report.available_parallelism()
    );
    Ok(())
}

/// Rounds to four decimals so the JSON report is stable to read and diff.
pub(crate) fn round4(value: f64) -> f64 {
    (value * 10_000.0).round() / 10_000.0
}

/// Builds the `supersym.profile/v1` JSON document.
fn profile_json(
    path: &str,
    opt: OptLevel,
    oracle: OracleKind,
    report: &SimReport,
    static_size: usize,
    phases: &[supersym::trace::OwnedPhase],
) -> JsonValue {
    let account = report.cycle_account();
    let phase_array = phases
        .iter()
        .map(|phase| {
            let mut counters = JsonObject::new();
            for (key, value) in &phase.counters {
                counters = counters.field(key.clone(), JsonValue::UInt(*value));
            }
            JsonObject::new()
                .field("name", JsonValue::str(phase.name.clone()))
                .field(
                    "wall_ns",
                    JsonValue::UInt(u64::try_from(phase.wall_ns).unwrap_or(u64::MAX)),
                )
                .field("counters", counters.build())
                .build()
        })
        .collect();
    let mut stalls = JsonObject::new();
    let mut waits = JsonObject::new();
    for (index, label) in StallCause::LABELS.iter().enumerate() {
        stalls = stalls.field(*label, JsonValue::UInt(account.stall_cycles(index)));
        waits = waits.field(*label, JsonValue::UInt(account.wait_cycles(index)));
    }
    let classes = InstrClass::ALL
        .iter()
        .filter(|class| {
            report.census().count(**class) > 0 || account.class_wait_cycles(**class) > 0
        })
        .map(|class| {
            JsonObject::new()
                .field("class", JsonValue::str(class.mnemonic()))
                .field("count", JsonValue::UInt(report.census().count(*class)))
                .field(
                    "wait_cycles",
                    JsonValue::UInt(account.class_wait_cycles(*class)),
                )
                .build()
        })
        .collect();
    let units = account
        .fu_wait_cycles()
        .map(|(name, wait)| {
            JsonObject::new()
                .field("name", JsonValue::str(name))
                .field("wait_cycles", JsonValue::UInt(wait))
                .build()
        })
        .collect();
    let producers = report
        .critical_producers()
        .iter()
        .map(|p| {
            JsonObject::new()
                .field("function", JsonValue::str(p.function.clone()))
                .field("pc", JsonValue::UInt(p.pc as u64))
                .field("instr", JsonValue::str(p.instr.clone()))
                .field("wait_cycles", JsonValue::UInt(p.wait_cycles))
                .build()
        })
        .collect();
    let cycles = JsonObject::new()
        .field("total", JsonValue::UInt(account.machine_cycles()))
        .field("issue", JsonValue::UInt(account.issue_cycles()))
        .field("stalls", stalls.build())
        .field("drain", JsonValue::UInt(account.drain_cycles()))
        .field("conserved", JsonValue::Bool(account.conserved()))
        .build();
    let run = JsonObject::new()
        .field("instructions", JsonValue::UInt(report.instructions()))
        .field("machine_cycles", JsonValue::UInt(report.machine_cycles()))
        .field(
            "base_cycles",
            JsonValue::Float(round4(report.base_cycles())),
        )
        .field(
            "rate",
            JsonValue::Float(round4(report.available_parallelism())),
        )
        .field("cycles", cycles)
        .field("waits", waits.build())
        .field("classes", JsonValue::Array(classes))
        .field("functional_units", JsonValue::Array(units))
        .field("critical_producers", JsonValue::Array(producers))
        .build();
    JsonObject::new()
        .field("schema", JsonValue::str("supersym.profile/v1"))
        .field("source", JsonValue::str(path))
        .field("machine", JsonValue::str(report.machine()))
        .field("optimization", JsonValue::str(opt.label()))
        .field(
            "oracle",
            JsonValue::str(match oracle {
                OracleKind::Symbolic => "symbolic",
                OracleKind::Conservative => "conservative",
            }),
        )
        .field("static_size", JsonValue::UInt(static_size as u64))
        .field(
            "compile",
            JsonObject::new()
                .field("phases", JsonValue::Array(phase_array))
                .build(),
        )
        .field("run", run)
        .build()
}

/// `titalc profile`: compile with phase telemetry, run with the cycle
/// account, and report both — as tables, or as one JSON document with
/// `--json`. `--timeline <FILE>` also streams the run as a timeline.
pub(crate) fn profile(args: &Args) -> Result<(), ExitCode> {
    let (path, source, options) = compile_input(args)?;
    let timeline_path = args.value(flag::TIMELINE);
    let timeline = timeline_path
        .map(|timeline_path| open_timeline(timeline_path, &options.machine))
        .transpose()?;
    let mut sink = ProfileSink {
        memory: MemorySink::new(),
        timeline,
    };
    let (program, report) = traced_run(&source, &options, &mut sink)?;
    if let (Some(timeline), Some(timeline_path)) = (sink.timeline.take(), timeline_path) {
        close_timeline(timeline, timeline_path)?;
    }
    if args.switch(flag::JSON) {
        out!(
            "{}",
            profile_json(
                path,
                options.opt,
                options.oracle,
                &report,
                program.static_size(),
                &sink.memory.phases
            )
            .pretty()
        );
        return Ok(());
    }
    print_headline(&options, &program, &report)?;
    outln!("compile phases:");
    for phase in &sink.memory.phases {
        let mut counters = String::new();
        for (key, value) in &phase.counters {
            counters.push_str(&format!("  {key}={value}"));
        }
        outln!(
            "  {:<16} {:>9.3}ms{counters}",
            phase.name,
            phase.wall_ns as f64 / 1e6
        );
    }
    let account = report.cycle_account();
    print_cycle_account(account)?;
    print_class_table(report.census(), account)?;
    print_fu_waits(account)?;
    print_producers(&report)?;
    Ok(())
}

/// Captures what `titalc stats` needs from one compile+run: phases in
/// memory for the wall-time block, issue events folded straight into the
/// distribution histograms (never buffered).
struct StatsSink {
    memory: MemorySink,
    metrics: MetricsSink,
}

impl TraceSink for StatsSink {
    fn phase(&mut self, record: &PhaseRecord<'_>) {
        self.memory.phase(record);
    }

    fn issue(&mut self, event: &IssueEvent) {
        self.metrics.issue(event);
    }
}

/// `titalc stats`: compile and run like `titalc profile`, then emit one
/// `supersym.metrics/v1` document — the metrics registry (compile phase
/// counters, run counters/gauges, stall-run-length and per-block ILP
/// histograms) plus the per-phase wall times. Everything in `metrics` is
/// deterministic; wall time lives only in `compile.phases`.
pub(crate) fn stats(args: &Args) -> Result<(), ExitCode> {
    let (path, source, options) = compile_input(args)?;
    let mut sink = StatsSink {
        memory: MemorySink::new(),
        metrics: MetricsSink::new(),
    };
    let (program, report) = traced_run(&source, &options, &mut sink)?;
    let account = report.cycle_account();
    let mut registry = phase_metrics(&sink.memory.phases);
    registry.counter("sim.static_size", program.static_size() as u64);
    registry.counter("sim.instructions", report.instructions());
    registry.counter("sim.machine_cycles", report.machine_cycles());
    registry.counter("sim.issue_cycles", account.issue_cycles());
    registry.counter("sim.stall_cycles", account.total_stall_cycles());
    registry.counter("sim.drain_cycles", account.drain_cycles());
    registry.gauge("sim.ilp", round4(report.available_parallelism()));
    sink.metrics.register(&mut registry);
    let phase_array = sink
        .memory
        .phases
        .iter()
        .map(|phase| {
            JsonObject::new()
                .field("name", JsonValue::str(phase.name.clone()))
                .field(
                    "wall_ns",
                    JsonValue::UInt(u64::try_from(phase.wall_ns).unwrap_or(u64::MAX)),
                )
                .build()
        })
        .collect();
    let doc = JsonObject::new()
        .field("schema", JsonValue::str(METRICS_SCHEMA))
        .field("source", JsonValue::str(path))
        .field("machine", JsonValue::str(options.machine.name()))
        .field("optimization", JsonValue::str(options.opt.label()))
        .field(
            "compile",
            JsonObject::new()
                .field("phases", JsonValue::Array(phase_array))
                .build(),
        )
        .field("metrics", registry.to_json())
        .build();
    out!("{}", doc.pretty());
    Ok(())
}
