//! The static commands: `lint` and `analyze`.

use crate::{flag, machine, read_source, Args, EXIT_PARSE, EXIT_VERIFY};
use std::fmt::Display;
use std::process::ExitCode;
use supersym::analyze::{dump_module, function_scev, lint_module, Distance, Subscript};
use supersym::machine::parse_machine_spec;
use supersym::trace::{validate_timeline, JsonObject, JsonValue, TimelineError};
use supersym::verify::{error_count, lint_program};

/// Reports why FILE was rejected; exits with `code`.
fn rejected(path: &str, code: u8, error: impl Display) -> ExitCode {
    eprintln!("titalc: {path}: {error}");
    ExitCode::from(code)
}

/// Runs the front end and lowers to IR, reporting errors titalc-style.
/// Front-end rejections exit with `EXIT_PARSE`.
fn lower_tital(path: &str, source: &str) -> Result<supersym::ir::Module, ExitCode> {
    let ast = supersym::lang::parse(source).map_err(|error| rejected(path, EXIT_PARSE, error))?;
    supersym::lang::check(&ast).map_err(|error| rejected(path, EXIT_PARSE, error))?;
    supersym::ir::lower(&ast).map_err(|error| rejected(path, EXIT_PARSE, error))
}

/// Prints diagnostics; any error among them exits `EXIT_VERIFY`.
fn report(path: &str, diagnostics: &[supersym::verify::Diagnostic]) -> Result<(), ExitCode> {
    for diagnostic in diagnostics {
        outln!("{diagnostic}");
    }
    match error_count(diagnostics) {
        0 => Ok(()),
        errors => Err(rejected(
            path,
            EXIT_VERIFY,
            format_args!("{errors} error(s)"),
        )),
    }
}

/// `titalc analyze`: lower a Tital file to IR, dump every block's dataflow
/// facts, then run the dataflow lints. Exits nonzero on lint errors. With
/// `--loops`, print the natural-loop forest and scalar-evolution facts
/// instead of the dataflow dump (`--json` for `supersym.loops/v1`).
pub(crate) fn analyze(args: &Args) -> Result<(), ExitCode> {
    let path = args.file()?;
    let module = lower_tital(path, &read_source(path)?)?;
    if args.switch(flag::LOOPS) {
        if args.switch(flag::JSON) {
            out!("{}", loops_json(path, &module).pretty());
        } else {
            print_loops(&module)?;
        }
        return Ok(());
    }
    out!("{}", dump_module(&module));
    report(path, &lint_module(&module))
}

/// Resolves a [`supersym::ir::VarRef`] to its source-level name.
fn var_name(module: &supersym::ir::Module, func: &supersym::ir::Function, var: &str) -> String {
    // `VarRef` displays as `@g<n>` / `@l<n>`; map back to source names.
    if let Some(n) = var.strip_prefix("@g").and_then(|n| n.parse::<usize>().ok()) {
        if let Some(global) = module.globals.get(n) {
            return global.name.clone();
        }
    }
    if let Some(n) = var.strip_prefix("@l").and_then(|n| n.parse::<usize>().ok()) {
        if let Some(local) = func.vars.get(n) {
            return local.name.clone();
        }
    }
    var.to_string()
}

/// Renders a classified subscript with source-level variable names.
fn subscript_text(
    module: &supersym::ir::Module,
    func: &supersym::ir::Function,
    subscript: Subscript,
) -> String {
    match subscript {
        Subscript::Linear {
            var,
            stride,
            offset,
        } => format!(
            "[{}{offset:+} ; +{stride}/iter]",
            var_name(module, func, &var.to_string())
        ),
        other => other.to_string(),
    }
}

/// `titalc analyze --loops` (text): the loop forest and per-loop
/// scalar-evolution facts of every function that has loops.
fn print_loops(module: &supersym::ir::Module) -> Result<(), ExitCode> {
    let mut total = 0usize;
    for func in &module.funcs {
        let scev = function_scev(func);
        total += scev.forest.loops.len();
    }
    outln!(
        "loop forest: {total} loop(s) across {} function(s)",
        module.funcs.len()
    );
    for func in &module.funcs {
        let scev = function_scev(func);
        if scev.forest.loops.is_empty() {
            continue;
        }
        outln!("fn {}:", func.name);
        for (index, info) in scev.forest.loops.iter().enumerate() {
            let body: Vec<String> = info.body.iter().map(|b| b.to_string()).collect();
            let latches: Vec<String> = info.latches.iter().map(|b| b.to_string()).collect();
            outln!(
                "  loop {index}: header {} depth {} body [{}] latches [{}]{}",
                info.header,
                info.depth,
                body.join(" "),
                latches.join(" "),
                if info.is_innermost() {
                    " innermost"
                } else {
                    ""
                }
            );
            let facts = &scev.loops[index];
            for iv in &facts.inductions {
                outln!(
                    "    iv {} step {:+}",
                    var_name(module, func, &iv.var.to_string()),
                    iv.step
                );
            }
            for (a, access) in facts.accesses.iter().enumerate() {
                outln!(
                    "    access {a}: {} {}{} @ {}:{}",
                    if access.is_write { "write" } else { "read" },
                    module
                        .globals
                        .get(access.arr.0 as usize)
                        .map_or("?", |g| g.name.as_str()),
                    subscript_text(module, func, access.subscript),
                    access.block,
                    access.inst
                );
            }
            for dep in &facts.deps {
                outln!(
                    "    dep {} -> {}: {} {}",
                    dep.src,
                    dep.dst,
                    dep.kind,
                    dep.distance
                );
            }
        }
    }
    Ok(())
}

/// Builds the `supersym.loops/v1` JSON document for `analyze --loops`.
fn loops_json(path: &str, module: &supersym::ir::Module) -> JsonValue {
    let functions = module
        .funcs
        .iter()
        .map(|func| {
            let scev = function_scev(func);
            let loops = scev
                .forest
                .loops
                .iter()
                .enumerate()
                .map(|(index, info)| {
                    let facts = &scev.loops[index];
                    let inductions = facts
                        .inductions
                        .iter()
                        .map(|iv| {
                            JsonObject::new()
                                .field(
                                    "var",
                                    JsonValue::str(var_name(module, func, &iv.var.to_string())),
                                )
                                .field("step", JsonValue::Int(iv.step))
                                .build()
                        })
                        .collect();
                    let accesses = facts
                        .accesses
                        .iter()
                        .map(|access| {
                            JsonObject::new()
                                .field("block", JsonValue::UInt(access.block.index() as u64))
                                .field("inst", JsonValue::UInt(access.inst as u64))
                                .field(
                                    "array",
                                    JsonValue::str(
                                        module
                                            .globals
                                            .get(access.arr.0 as usize)
                                            .map_or("?", |g| g.name.as_str()),
                                    ),
                                )
                                .field(
                                    "kind",
                                    JsonValue::str(if access.is_write { "write" } else { "read" }),
                                )
                                .field(
                                    "subscript",
                                    JsonValue::str(subscript_text(module, func, access.subscript)),
                                )
                                .build()
                        })
                        .collect();
                    let deps = facts
                        .deps
                        .iter()
                        .map(|dep| {
                            JsonObject::new()
                                .field("src", JsonValue::UInt(dep.src as u64))
                                .field("dst", JsonValue::UInt(dep.dst as u64))
                                .field("kind", JsonValue::str(dep.kind.to_string()))
                                .field(
                                    "distance",
                                    match dep.distance {
                                        Distance::Exact(d) => JsonValue::UInt(d),
                                        Distance::Any => JsonValue::Null,
                                    },
                                )
                                .build()
                        })
                        .collect();
                    JsonObject::new()
                        .field("index", JsonValue::UInt(index as u64))
                        .field("header", JsonValue::UInt(info.header.index() as u64))
                        .field("depth", JsonValue::UInt(info.depth as u64))
                        .field("innermost", JsonValue::Bool(info.is_innermost()))
                        .field(
                            "body",
                            JsonValue::Array(
                                info.body
                                    .iter()
                                    .map(|b| JsonValue::UInt(b.index() as u64))
                                    .collect(),
                            ),
                        )
                        .field(
                            "latches",
                            JsonValue::Array(
                                info.latches
                                    .iter()
                                    .map(|b| JsonValue::UInt(b.index() as u64))
                                    .collect(),
                            ),
                        )
                        .field("inductions", JsonValue::Array(inductions))
                        .field("accesses", JsonValue::Array(accesses))
                        .field("deps", JsonValue::Array(deps))
                        .build()
                })
                .collect();
            JsonObject::new()
                .field("name", JsonValue::str(func.name.clone()))
                .field("loops", JsonValue::Array(loops))
                .build()
        })
        .collect();
    JsonObject::new()
        .field("schema", JsonValue::str("supersym.loops/v1"))
        .field("source", JsonValue::str(path))
        .field("functions", JsonValue::Array(functions))
        .build()
}

/// `titalc lint`: statically check a machine description (`.machine`), a
/// Tital source file (`.tital`, via the dataflow lints), an emitted
/// timeline document (`.json`, via the trace_event validator) or an
/// assembly program (anything else), printing every diagnostic. Parse
/// failures exit with `EXIT_PARSE`; diagnostic errors with `EXIT_VERIFY`.
pub(crate) fn lint(args: &Args) -> Result<(), ExitCode> {
    let path = args.file()?;
    let source = read_source(path)?;
    let diagnostics = if path.ends_with(".machine") {
        parse_machine_spec(&source)
            .map_err(|error| rejected(path, EXIT_PARSE, error))?
            .diagnose()
    } else if path.ends_with(".tital") {
        lint_module(&lower_tital(path, &source)?)
    } else if path.ends_with(".json") {
        let report = validate_timeline(&source).map_err(|error| match error {
            TimelineError::Parse(error) => rejected(path, EXIT_PARSE, error),
            error => rejected(path, EXIT_VERIFY, error),
        })?;
        outln!(
            "{path}: valid timeline ({} event(s), {} lane(s))",
            report.events,
            report.lanes
        );
        return Ok(());
    } else {
        let program = supersym::isa::parse_program(&source)
            .map_err(|error| rejected(path, EXIT_PARSE, error))?;
        lint_program(&program, machine(args)?.as_ref())
    };
    report(path, &diagnostics)
}
