//! `titalc sweep`: the machine-design-space sweep.

use crate::{flag, opt_level, oracle, positive, Args, EXIT_SIM, EXIT_USAGE, EXIT_VERIFY};
use std::collections::HashSet;
use std::io::{BufWriter, Write};
use std::process::ExitCode;
use std::sync::Mutex;
use supersym::machine::GridSpec;
use supersym::sweep::{PipelineCellRunner, DEFAULT_CELL_FUEL, MAX_JOBS};
use supersym::trace::{JsonObject, JsonValue, MetricsRegistry, SweepItem, TimelineSink};
use supersym::workloads::{suite, Size};
use supersym_sweep::{
    aggregate_cells, cache_from_records, frontier_json, load_checkpoint, pareto_frontier,
    run_sweep_observed, CellRecord, CellStatus, FaultInjection, SweepConfig, SweepObserver,
    SweepPlan, SCHEMA,
};

/// Parses `--inject panic:K,timeout:J`.
fn parse_inject(spec: &str) -> Result<FaultInjection, String> {
    let mut inject = FaultInjection::default();
    for part in spec.split(',') {
        let (kind, every) = part
            .split_once(':')
            .ok_or_else(|| format!("inject spec `{part}` must be kind:N"))?;
        let every: u64 = every
            .parse()
            .map_err(|_| format!("bad inject period `{every}`"))?;
        match kind {
            "panic" => inject.panic_every = Some(every),
            "timeout" => inject.timeout_every = Some(every),
            other => return Err(format!("unknown inject kind `{other}`")),
        }
    }
    Ok(inject)
}

/// Whether a record may seed the cross-sweep result cache: only
/// deterministic outcomes (completions and typed rejects) qualify —
/// panics and timeouts are exactly the outcomes worth retrying.
fn cacheable(record: &CellRecord) -> bool {
    matches!(record.status, CellStatus::Ok(_) | CellStatus::Reject { .. })
}

/// Bridges engine observer callbacks onto a worker-lane timeline: one
/// sweep-process thread per worker, each item rendered by
/// [`TimelineSink::sweep_item`].
struct SweepTimeline {
    sink: TimelineSink<BufWriter<std::fs::File>>,
}

impl SweepObserver for SweepTimeline {
    fn item(
        &mut self,
        worker: usize,
        start_us: u64,
        end_us: u64,
        cached: bool,
        record: &CellRecord,
    ) {
        self.sink.sweep_item(&SweepItem {
            worker,
            start_us,
            end_us,
            cached,
            cell: &record.cell,
            workload: &record.workload,
            status: record.status.label(),
        });
    }
}

/// `titalc sweep`: enumerate a machine grid, compile each workload's
/// front half once, fan scheduling + simulation out across workers with
/// fault quarantine, and print a `supersym.sweep/v1` summary ending in
/// the speedup-vs-cost Pareto frontier. Exits `EXIT_VERIFY` when any
/// item was quarantined, `EXIT_SIM` on output I/O errors.
#[allow(clippy::too_many_lines)]
pub(crate) fn sweep(args: &Args) -> Result<(), ExitCode> {
    let opt = opt_level(args)?;
    let oracle = oracle(args)?;
    let verify = args.switch(flag::VERIFY);
    let jobs = args
        .parsed(flag::JOBS, |value| match value.parse() {
            Ok(jobs) if (1..=MAX_JOBS).contains(&jobs) => Ok(jobs),
            _ => Err(format!("expected a number from 1 to {MAX_JOBS}")),
        })?
        .unwrap_or(1);
    let fuel = args
        .parsed(flag::FUEL, positive)?
        .unwrap_or(DEFAULT_CELL_FUEL);
    let deadline_ms = args.parsed(flag::DEADLINE_MS, positive)?;
    let inject = args.parsed(flag::INJECT, parse_inject)?.unwrap_or_default();
    let (checkpoint, resuming) = match args.value(flag::RESUME) {
        Some(path) => (Some(path), true),
        None => (args.value(flag::CHECKPOINT), false),
    };
    let out = args.value(flag::OUT);
    let cache_path = args.value(flag::RESULT_CACHE);
    let timeline = args.value(flag::TIMELINE);
    let grid = args.parsed(flag::GRID, |spec| {
        GridSpec::parse(spec).map_err(|error| error.to_string())
    })?;
    let Some(grid) = grid else {
        return Err(args.usage("--grid is required"));
    };
    let mut workloads = suite(Size::Small);
    if let Some(filter) = args.value(flag::WORKLOADS).filter(|csv| *csv != "all") {
        let filter: Vec<&str> = filter.split(',').collect();
        if let Some(name) = filter
            .iter()
            .find(|name| !workloads.iter().any(|w| w.name == **name))
        {
            return Err(args.usage(format_args!("unknown workload `{name}`")));
        }
        workloads.retain(|w| filter.contains(&w.name));
    }
    let runner = PipelineCellRunner::new(&workloads, opt, oracle, fuel, verify);
    let plan = SweepPlan {
        workload_names: runner.names().to_vec(),
        fuel,
        identity: runner.identity(&grid.canonical(), opt, oracle),
        grid,
    };
    let header = plan.header();

    // Checkpoint: on resume, recover every intact record and rewrite the
    // journal (header + intact records) so a torn tail line from a kill
    // cannot corrupt the first appended record.
    let mut resume_state = None;
    let mut journal_file = None;
    if let Some(path) = checkpoint {
        if resuming {
            if let Ok(text) = std::fs::read_to_string(path) {
                match load_checkpoint(&text, &header) {
                    Ok(state) => resume_state = Some(state),
                    Err(error) => {
                        eprintln!("titalc sweep: cannot resume `{path}`: {error}");
                        return Err(ExitCode::from(EXIT_USAGE));
                    }
                }
            }
        }
        let rewrite = || -> std::io::Result<std::fs::File> {
            let mut file = std::fs::File::create(path)?;
            writeln!(file, "{}", header.render())?;
            if let Some(state) = &resume_state {
                for record in state.done.iter().flatten() {
                    writeln!(file, "{}", record.render())?;
                }
            }
            Ok(file)
        };
        match rewrite() {
            Ok(file) => journal_file = Some(file),
            Err(error) => {
                eprintln!("titalc sweep: cannot write checkpoint `{path}`: {error}");
                return Err(ExitCode::from(EXIT_SIM));
            }
        }
    }

    // Result cache: prior records, keyed by (program hash, machine hash).
    let mut cache_records: Vec<CellRecord> = Vec::new();
    if let Some(path) = cache_path {
        if let Ok(text) = std::fs::read_to_string(path) {
            cache_records.extend(text.lines().filter_map(CellRecord::parse));
        }
    }
    let cache = cache_from_records(cache_records.iter());

    let config = SweepConfig {
        jobs,
        deadline_ms,
        inject,
        quiet: true,
    };
    let timeline_observer = match timeline {
        Some(path) => match std::fs::File::create(path) {
            Ok(file) => Some(Mutex::new(SweepTimeline {
                sink: TimelineSink::new(BufWriter::new(file)),
            })),
            Err(error) => {
                eprintln!("titalc sweep: cannot write timeline `{path}`: {error}");
                return Err(ExitCode::from(EXIT_SIM));
            }
        },
        None => None,
    };
    let outcome = match run_sweep_observed(
        &plan,
        &runner,
        &config,
        resume_state,
        &cache,
        journal_file.as_mut().map(|f| f as &mut (dyn Write + Send)),
        timeline_observer
            .as_ref()
            .map(|m| m as &Mutex<dyn SweepObserver>),
    ) {
        Ok(outcome) => outcome,
        Err(error) => {
            eprintln!("titalc sweep: error writing checkpoint: {error}");
            return Err(ExitCode::from(EXIT_SIM));
        }
    };

    if let Some(observer) = timeline_observer {
        let finish = observer
            .into_inner()
            .unwrap()
            .sink
            .finish()
            .and_then(|mut out| out.flush());
        if let Err(error) = finish {
            let path = timeline.unwrap_or_default();
            eprintln!("titalc sweep: error writing timeline `{path}`: {error}");
            return Err(ExitCode::from(EXIT_SIM));
        }
    }

    if let Some(path) = cache_path {
        let mut seen: HashSet<(u64, u64)> = cache.keys().copied().collect();
        for record in &outcome.records {
            if cacheable(record) && seen.insert((record.program_hash, record.machine_hash)) {
                cache_records.push(record.clone());
            }
        }
        let mut text = String::new();
        for record in &cache_records {
            text.push_str(&record.render());
            text.push('\n');
        }
        if let Err(error) = std::fs::write(path, text) {
            eprintln!("titalc sweep: cannot write cache `{path}`: {error}");
            return Err(ExitCode::from(EXIT_SIM));
        }
    }

    if let Some(path) = out {
        let mut text = header.render();
        text.push('\n');
        for record in &outcome.records {
            text.push_str(&record.render());
            text.push('\n');
        }
        if let Err(error) = std::fs::write(path, text) {
            eprintln!("titalc sweep: cannot write output `{path}`: {error}");
            return Err(ExitCode::from(EXIT_SIM));
        }
    }

    let cells = plan.grid.cells();
    let summaries = aggregate_cells(&outcome.records, &cells);
    let frontier = pareto_frontier(&summaries);
    let summary = JsonObject::new()
        .field("schema", JsonValue::str(SCHEMA))
        .field("grid", JsonValue::str(plan.grid.canonical()))
        .field("cells", JsonValue::UInt(cells.len() as u64))
        .field(
            "workloads",
            JsonValue::UInt(plan.workload_names.len() as u64),
        )
        .field("records", JsonValue::UInt(outcome.records.len() as u64))
        .field("executed", JsonValue::UInt(outcome.executed as u64))
        .field("cached", JsonValue::UInt(outcome.cached as u64))
        .field("resumed", JsonValue::UInt(outcome.resumed as u64))
        .field("quarantined", JsonValue::UInt(outcome.quarantined as u64))
        .field("resumable", JsonValue::Bool(checkpoint.is_some()))
        .field("metrics", {
            let mut registry = MetricsRegistry::new();
            outcome.metrics.register(&mut registry);
            registry.to_json()
        })
        .field("pareto", frontier_json(&frontier))
        .build();
    outln!("{}", summary.pretty());
    if outcome.quarantined > 0 {
        Err(ExitCode::from(EXIT_VERIFY))
    } else {
        Ok(())
    }
}
