//! The toolchain's self-checks (`torture`, `synth`) and the paper
//! reproduction (`reproduce`).

use crate::{flag, Args, EXIT_USAGE, EXIT_VERIFY};
use std::process::ExitCode;
use supersym::experiments::REGISTRY;
use supersym::rules::{synthesize, SynthConfig, DEFAULT_TABLE_TEXT};
use supersym::torture::{replay_torture_corpus, run_torture};
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
        out!("{report}");
        outln!("corpus replay: {replayed} file(s)");
        return no_findings(report.finding_count());
    }
    if layers.is_empty() {
        layers = Layer::ALL.to_vec();
    }
    let report = run_torture(seed, iters, layers);
    out!("{report}");
    if let Some(dir) = args.value(flag::CORPUS) {
        if report.finding_count() > 0 {
            match write_corpus(std::path::Path::new(dir), &report) {
                Ok(paths) => {
                    for path in paths {
                        outln!("wrote {}", path.display());
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
        out!("{text}");
        return Ok(());
    }
    if text == DEFAULT_TABLE_TEXT {
        outln!(
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
        outln!("==========================================================");
        outln!(" supersym: reproduction of Jouppi & Wall, ASPLOS 1989");
        outln!(" workload size: {size:?}");
        outln!("==========================================================\n");
    }
    for experiment in REGISTRY {
        if only.is_empty() || only.contains(&experiment.name) {
            outln!("{}", (experiment.run)(size));
        }
    }
    Ok(())
}
