//! The toolchain's self-checks (`torture`, `synth`, `bench-diff`) and the
//! paper reproduction (`reproduce`).

use crate::{flag, positive, Args, EXIT_PARSE, EXIT_USAGE, EXIT_VERIFY};
use std::process::ExitCode;
use supersym::experiments::REGISTRY;
use supersym::rules::{synthesize, SynthConfig, DEFAULT_TABLE_TEXT};
use supersym::torture::{replay_torture_corpus, run_torture};
use supersym::trace::{parse_json, JsonValue};
use supersym::workloads::Size;
use supersym_torture::{write_corpus, Layer};

/// `titalc torture`: run a mutation campaign (or a corpus replay). Exits 0
/// when the robustness contract held, `EXIT_VERIFY` when any mutant
/// produced a finding.
pub(crate) fn torture(args: &Args) -> Result<(), ExitCode> {
    let unsigned = |value: &str| {
        value
            .parse::<u64>()
            .map_err(|_| "expected an unsigned integer".to_string())
    };
    let seed = args.parsed(flag::SEED, unsigned)?.unwrap_or(0);
    let iters = args.parsed(flag::ITERS, unsigned)?.unwrap_or(500);
    let mut layers = args.parsed_all(flag::LAYER, |name| {
        Layer::parse(name).ok_or_else(|| "expected source|ast|asm|machine|grid".to_string())
    })?;
    if let Some(dir) = args.value(flag::REPLAY) {
        let report = match replay_torture_corpus(std::path::Path::new(dir)) {
            Ok(report) => report,
            Err(error) => {
                eprintln!("titalc torture: cannot replay `{dir}`: {error}");
                return Err(ExitCode::from(EXIT_USAGE));
            }
        };
        let replayed = report.layers.iter().map(|l| l.mutants).sum::<u64>();
        print!("{report}");
        println!("corpus replay: {replayed} file(s)");
        return no_findings(report.finding_count());
    }
    if layers.is_empty() {
        layers = Layer::ALL.to_vec();
    }
    let report = run_torture(seed, iters, layers);
    print!("{report}");
    if let Some(dir) = args.value(flag::CORPUS) {
        if report.finding_count() > 0 {
            match write_corpus(std::path::Path::new(dir), &report) {
                Ok(paths) => {
                    for path in paths {
                        println!("wrote {}", path.display());
                    }
                }
                Err(error) => {
                    eprintln!("titalc torture: cannot write corpus to `{dir}`: {error}");
                    return Err(ExitCode::from(EXIT_USAGE));
                }
            }
        }
    }
    no_findings(report.finding_count())
}

/// A campaign's verdict: findings exit `EXIT_VERIFY`.
fn no_findings(findings: usize) -> Result<(), ExitCode> {
    if findings == 0 {
        Ok(())
    } else {
        Err(ExitCode::from(EXIT_VERIFY))
    }
}

/// `titalc synth`: re-run rewrite-rule synthesis and print the verified
/// table (the exact checked-in format), or with `--check` compare the
/// regeneration byte-for-byte against the shipped table — the CI
/// determinism gate. A mismatch exits `EXIT_VERIFY`.
pub(crate) fn synth(args: &Args) -> Result<(), ExitCode> {
    let report = synthesize(&SynthConfig::default());
    let text = report.table.to_text();
    eprintln!(
        "synth: {} term(s) enumerated, {} candidate identity(ies), \
         {} unproven candidate(s) dropped, {} rule(s) verified",
        report.terms_enumerated,
        report.candidates,
        report.rejected,
        report.table.rules().len()
    );
    if !args.switch(flag::CHECK) {
        print!("{text}");
        return Ok(());
    }
    if text == DEFAULT_TABLE_TEXT {
        println!(
            "synth check: regenerated table is byte-identical to the shipped one \
             ({} rule(s))",
            report.table.rules().len()
        );
        return Ok(());
    }
    let diverging = text
        .lines()
        .zip(DEFAULT_TABLE_TEXT.lines())
        .position(|(fresh, shipped)| fresh != shipped);
    match diverging {
        Some(index) => eprintln!(
            "titalc synth: line {} differs from the shipped table:\n  regenerated: {}\n  shipped:     {}",
            index + 1,
            text.lines().nth(index).unwrap_or(""),
            DEFAULT_TABLE_TEXT.lines().nth(index).unwrap_or("")
        ),
        None => eprintln!(
            "titalc synth: regenerated table has {} line(s), the shipped one {}",
            text.lines().count(),
            DEFAULT_TABLE_TEXT.lines().count()
        ),
    }
    Err(ExitCode::from(EXIT_VERIFY))
}

/// Loads a `supersym.bench/v1` snapshot as `(name, ns)` rows in file
/// order, preferring the noise-resistant `min_ns` statistic and falling
/// back to `mean_ns` for snapshots taken before minimums were recorded.
/// `Err` carries the exit code: `EXIT_USAGE` for unreadable files,
/// `EXIT_PARSE` for malformed or wrong-schema documents.
fn load_bench_rows(path: &str) -> Result<Vec<(String, u64)>, ExitCode> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(error) => {
            eprintln!("titalc bench-diff: cannot read `{path}`: {error}");
            return Err(ExitCode::from(EXIT_USAGE));
        }
    };
    let malformed = |message: &str| {
        eprintln!("titalc bench-diff: {path}: {message}");
        Err(ExitCode::from(EXIT_PARSE))
    };
    let doc = match parse_json(&text) {
        Ok(doc) => doc,
        Err(error) => return malformed(&error.to_string()),
    };
    if doc.get("schema").and_then(JsonValue::as_str) != Some("supersym.bench/v1") {
        return malformed("not a supersym.bench/v1 snapshot");
    }
    let Some(rows) = doc.get("rows").and_then(JsonValue::as_array) else {
        return malformed("missing rows array");
    };
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        let name = row.get("name").and_then(JsonValue::as_str);
        let mean_ns = row.get("mean_ns").and_then(JsonValue::as_u64);
        let min_ns = row.get("min_ns").and_then(JsonValue::as_u64);
        match (name, min_ns.or(mean_ns)) {
            (Some(name), Some(ns)) => out.push((name.to_string(), ns)),
            _ => return malformed("row without name/mean_ns"),
        }
    }
    Ok(out)
}

/// `titalc bench-diff OLD.json NEW.json`: per-row percent deltas between
/// two bench snapshots. Rows present in only one snapshot are reported but
/// never counted as regressions. Exits `EXIT_VERIFY` when any common row
/// got slower by more than the threshold (default 10%). With `--only`,
/// rows outside the prefix are still printed but never fail the diff —
/// the shape of a gate that blocks on one subsystem while the rest of the
/// snapshot stays informational.
pub(crate) fn bench_diff(args: &Args) -> Result<(), ExitCode> {
    let threshold: f64 = args.parsed(flag::THRESHOLD, positive)?.unwrap_or(10.0);
    let only = args.value(flag::ONLY);
    let [old_path, new_path] = args.files.as_slice() else {
        return Err(args.usage("expected exactly two snapshot files"));
    };
    let old_rows = load_bench_rows(old_path)?;
    let new_rows = load_bench_rows(new_path)?;
    println!("bench diff: {old_path} -> {new_path} (threshold {threshold}%)");
    println!(
        "  {:<44} {:>12} {:>12} {:>9}",
        "row", "old ns", "new ns", "delta"
    );
    let mut regressions = 0_usize;
    for (name, new_ns) in &new_rows {
        let Some(&(_, old_ns)) = old_rows.iter().find(|(n, _)| n == name) else {
            println!("  {name:<44} {:>12} {:>12} {:>9}", "-", new_ns, "new");
            continue;
        };
        let delta = if old_ns == 0 {
            0.0
        } else {
            100.0 * (*new_ns as f64 - old_ns as f64) / old_ns as f64
        };
        let gated = only.is_none_or(|prefix| name.starts_with(prefix));
        let flag = if delta > threshold && gated {
            regressions += 1;
            "  REGRESSION"
        } else {
            ""
        };
        println!("  {name:<44} {old_ns:>12} {new_ns:>12} {delta:>+8.1}%{flag}");
    }
    for (name, old_ns) in &old_rows {
        if !new_rows.iter().any(|(n, _)| n == name) {
            println!("  {name:<44} {old_ns:>12} {:>12} {:>9}", "-", "removed");
        }
    }
    if regressions > 0 {
        eprintln!("titalc bench-diff: {regressions} row(s) regressed beyond {threshold}%");
        Err(ExitCode::from(EXIT_VERIFY))
    } else {
        Ok(())
    }
}

/// `titalc reproduce`: print every experiment of the registry, or only the
/// `--only` ones, at the standard size or with `--small` the small one.
pub(crate) fn reproduce(args: &Args) -> Result<(), ExitCode> {
    let names = || REGISTRY.iter().map(|experiment| experiment.name);
    let only = args.parsed_all(flag::ONLY, |name| {
        names().find(|&known| known == name).ok_or_else(|| {
            let names: Vec<&str> = names().collect();
            format!("unknown experiment; expected one of {}", names.join(", "))
        })
    })?;
    let size = if args.switch(flag::SMALL) {
        Size::Small
    } else {
        Size::Standard
    };
    if only.is_empty() {
        println!("==========================================================");
        println!(" supersym: reproduction of Jouppi & Wall, ASPLOS 1989");
        println!(" workload size: {size:?}");
        println!("==========================================================\n");
    }
    for experiment in REGISTRY {
        if only.is_empty() || only.contains(&experiment.name) {
            println!("{}", (experiment.run)(size));
        }
    }
    Ok(())
}
