//! `titalc bound`: sound static ILP ceilings next to measured
//! parallelism, for one program or over the whole suite.

use crate::run::round4;
use crate::{
    compile_input, compile_options, compiled, flag, machine, opt_level, simulated, Args,
    EXIT_VERIFY,
};
use std::process::ExitCode;
use supersym::analyze::{program_loop_statics, static_bound, LoopCount};
use supersym::compile;
use supersym::experiments::{measure_bound, BoundCell};
use supersym::machine::presets;
use supersym::sim::{simulate_with_sink, SimOptions};
use supersym::trace::{JsonObject, JsonValue, LoopCountSink};
use supersym::workloads::{suite, Size};

/// `titalc bound [FILE]`: one program with a FILE, the suite without.
pub(crate) fn bound(args: &Args) -> Result<(), ExitCode> {
    if args.files.is_empty() {
        bound_suite(args)
    } else {
        bound_file(args)
    }
}

/// One workload × machine cell of the bound report as JSON
/// (a row of `supersym.bound/v1`).
fn bound_cell_json(cell: &BoundCell) -> JsonValue {
    JsonObject::new()
        .field("benchmark", JsonValue::str(cell.benchmark.clone()))
        .field("loops", JsonValue::UInt(cell.loops as u64))
        .field(
            "lower_bound_cycles",
            JsonValue::UInt(cell.lower_bound_cycles),
        )
        .field("machine_cycles", JsonValue::UInt(cell.machine_cycles))
        .field("bound_ilp", JsonValue::Float(round4(cell.bound_ilp)))
        .field("measured_ilp", JsonValue::Float(round4(cell.measured_ilp)))
        .field("rec_min_ii", JsonValue::Float(round4(cell.rec_min_ii)))
        .field("res_min_ii", JsonValue::Float(round4(cell.res_min_ii)))
        .field("sound", JsonValue::Bool(cell.sound))
        .build()
}

/// `titalc bound` without a FILE: sweep the benchmark suite over every
/// machine preset (or just the `-m` one) and report the static ILP
/// ceiling next to measured parallelism per cell. Any unsound cell —
/// measured ILP above the static ceiling — exits `EXIT_VERIFY`.
fn bound_suite(args: &Args) -> Result<(), ExitCode> {
    let machines = match machine(args)? {
        Some(machine) => vec![machine],
        None => presets::study(),
    };
    let opt = opt_level(args)?;
    let workloads = suite(Size::Small);
    let mut all_sound = true;
    let mut rows: Vec<(String, Vec<BoundCell>)> = Vec::new();
    for machine in &machines {
        let options = compile_options(args, machine)?;
        let mut cells = Vec::new();
        for workload in &workloads {
            let program = compiled(compile(&workload.source, &options), Some(workload.name))?;
            let cell = measure_bound(workload.name, &program, machine);
            all_sound &= cell.sound;
            cells.push(cell);
        }
        rows.push((machine.name().to_string(), cells));
    }
    if args.switch(flag::JSON) {
        let machines_json = rows
            .iter()
            .map(|(name, cells)| {
                JsonObject::new()
                    .field("machine", JsonValue::str(name.clone()))
                    .field(
                        "cells",
                        JsonValue::Array(cells.iter().map(bound_cell_json).collect()),
                    )
                    .build()
            })
            .collect();
        let doc = JsonObject::new()
            .field("schema", JsonValue::str("supersym.bound/v1"))
            .field("optimization", JsonValue::str(opt.label()))
            .field("suite", JsonValue::str("small"))
            .field("machines", JsonValue::Array(machines_json))
            .field("sound", JsonValue::Bool(all_sound))
            .build();
        out!("{}", doc.pretty());
    } else {
        outln!(
            "bound study: static ILP ceiling vs measured parallelism (suite, {})",
            opt
        );
        for (name, cells) in &rows {
            outln!("  {name}");
            outln!(
                "    {:10} {:>5} {:>12} {:>12} {:>8} {:>8} {:>8} {:>8} {:>6}",
                "benchmark",
                "loops",
                "lb-cycles",
                "cycles",
                "bound",
                "ilp",
                "rec-ii",
                "res-ii",
                "sound"
            );
            for c in cells {
                outln!(
                    "    {:10} {:>5} {:>12} {:>12} {:>8.3} {:>8.3} {:>8.2} {:>8.2} {:>6}",
                    c.benchmark,
                    c.loops,
                    c.lower_bound_cycles,
                    c.machine_cycles,
                    c.bound_ilp,
                    c.measured_ilp,
                    c.rec_min_ii,
                    c.res_min_ii,
                    c.sound
                );
            }
        }
    }
    if all_sound {
        Ok(())
    } else {
        eprintln!("titalc: bound soundness violated: measured ILP exceeds a static ceiling");
        Err(ExitCode::from(EXIT_VERIFY))
    }
}

/// `titalc bound FILE`: compile one program for the chosen preset, report
/// its innermost machine loops with their static facts, and check the
/// soundness invariant against a counted run.
fn bound_file(args: &Args) -> Result<(), ExitCode> {
    let (path, source, options) = compile_input(args)?;
    let machine = &options.machine;
    let program = compiled(compile(&source, &options), None)?;
    let statics = program_loop_statics(&program, machine, options.oracle.as_loop_oracle());
    let watches: Vec<(u32, u64, u64)> = statics
        .iter()
        .map(|s| (s.func as u32, s.header as u64, s.latch as u64))
        .collect();
    let mut sink = LoopCountSink::new(&watches);
    let report = simulated(simulate_with_sink(
        &program,
        machine,
        SimOptions::default(),
        &mut sink,
    ))?;
    let counts: Vec<LoopCount> = sink
        .counts()
        .into_iter()
        .map(|(iterations, visits)| LoopCount { iterations, visits })
        .collect();
    let bound = static_bound(
        machine,
        &statics,
        &counts,
        report.instructions(),
        report.census(),
    );
    let measured = report.available_parallelism();
    let sound = measured <= bound.bound_ilp * (1.0 + 1e-9);
    let func_name = |index: usize| {
        program
            .functions()
            .get(index)
            .map_or("?", |f| f.name())
            .to_string()
    };
    if args.switch(flag::JSON) {
        let loops = statics
            .iter()
            .zip(&counts)
            .map(|(s, c)| {
                JsonObject::new()
                    .field("func", JsonValue::str(func_name(s.func)))
                    .field("header", JsonValue::UInt(s.header as u64))
                    .field("latch", JsonValue::UInt(s.latch as u64))
                    .field("body_len", JsonValue::UInt(s.body_len as u64))
                    .field("critical_path", JsonValue::UInt(s.critical_path))
                    .field("delta", JsonValue::UInt(s.delta))
                    .field("rec_min_ii", JsonValue::Float(round4(s.rec_min_ii)))
                    .field("res_min_ii", JsonValue::Float(round4(s.res_min_ii)))
                    .field("iterations", JsonValue::UInt(c.iterations))
                    .field("visits", JsonValue::UInt(c.visits))
                    .build()
            })
            .collect();
        let doc = JsonObject::new()
            .field("schema", JsonValue::str("supersym.bound/v1"))
            .field("source", JsonValue::str(path))
            .field("machine", JsonValue::str(machine.name()))
            .field("optimization", JsonValue::str(options.opt.label()))
            .field("loops", JsonValue::Array(loops))
            .field(
                "bound",
                JsonObject::new()
                    .field(
                        "lower_bound_cycles",
                        JsonValue::UInt(bound.lower_bound_cycles),
                    )
                    .field("bound_ilp", JsonValue::Float(round4(bound.bound_ilp)))
                    .field("rec_min_ii", JsonValue::Float(round4(bound.rec_min_ii)))
                    .field("res_min_ii", JsonValue::Float(round4(bound.res_min_ii)))
                    .build(),
            )
            .field(
                "run",
                JsonObject::new()
                    .field("instructions", JsonValue::UInt(report.instructions()))
                    .field("machine_cycles", JsonValue::UInt(report.machine_cycles()))
                    .field("measured_ilp", JsonValue::Float(round4(measured)))
                    .build(),
            )
            .field("sound", JsonValue::Bool(sound))
            .build();
        out!("{}", doc.pretty());
    } else {
        outln!("machine:        {}", machine.name());
        outln!("optimization:   {}", options.opt);
        outln!(
            "loops:          {} innermost machine loop(s)",
            statics.len()
        );
        if !statics.is_empty() {
            outln!(
                "  {:<14} {:>6} {:>6} {:>5} {:>5} {:>6} {:>7} {:>7} {:>9} {:>7}",
                "func",
                "header",
                "latch",
                "body",
                "path",
                "delta",
                "rec-ii",
                "res-ii",
                "iters",
                "visits"
            );
            for (s, c) in statics.iter().zip(&counts) {
                outln!(
                    "  {:<14} {:>6} {:>6} {:>5} {:>5} {:>6} {:>7.2} {:>7.2} {:>9} {:>7}",
                    func_name(s.func),
                    s.header,
                    s.latch,
                    s.body_len,
                    s.critical_path,
                    s.delta,
                    s.rec_min_ii,
                    s.res_min_ii,
                    c.iterations,
                    c.visits
                );
            }
        }
        outln!(
            "bound:          {} machine cycle(s) lower bound -> ILP ceiling {:.3}",
            bound.lower_bound_cycles,
            bound.bound_ilp
        );
        outln!(
            "measured:       {} machine cycle(s), ILP {:.3}",
            report.machine_cycles(),
            measured
        );
        outln!("sound:          {sound}");
    }
    if sound {
        Ok(())
    } else {
        eprintln!("titalc: bound soundness violated: measured ILP exceeds the static ceiling");
        Err(ExitCode::from(EXIT_VERIFY))
    }
}
