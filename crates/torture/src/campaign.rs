//! The campaign driver: generate mutants, run them through the subject
//! twice, classify the outcomes, minimize and record anything that breaks
//! the contract.
//!
//! The contract under test: *every input either produces a typed error or
//! a correct run — never a panic, never a hang, never a scheduler/checker
//! disagreement, never divergent results across runs.* Hangs are excluded
//! by construction (the subject embeds finite fuel budgets; a wall-clock
//! watchdog would destroy replay determinism), so the driver looks for
//! the other three: panics (via a `catch_unwind` backstop), rejections at
//! stages that must accept (e.g. the verifier rejecting the compiler's
//! own output), and verdicts that differ between two identical runs.

use crate::mutate::{mutate, Layer};
use crate::subject::{Input, Stage, Subject, Verdict};
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use supersym_rng::SplitMix64;

/// Campaign parameters. Everything influencing mutant generation is
/// deterministic; replaying with the same config reproduces the same
/// mutants bit-for-bit.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed; each mutant gets a substream keyed by `(seed, layer,
    /// index)`.
    pub seed: u64,
    /// Mutants per layer.
    pub iters: u64,
    /// Layers to run.
    pub layers: Vec<Layer>,
    /// Additional Tital seed programs (beyond the built-ins).
    pub extra_source_seeds: Vec<String>,
    /// Additional assembly seeds — typically freshly scheduled compiler
    /// output, so the instruction-stream layer mutates *real* schedules.
    pub extra_asm_seeds: Vec<String>,
    /// Swallow panic backtraces while the campaign runs. This swaps the
    /// process-global panic hook for the duration, so leave it off in
    /// multi-threaded test runs.
    pub quiet: bool,
    /// Cap on subject invocations the minimizer may spend per finding.
    pub minimize_budget: u32,
}

impl CampaignConfig {
    /// A default campaign: every layer at `iters` mutants each.
    #[must_use]
    pub fn new(seed: u64, iters: u64) -> Self {
        CampaignConfig {
            seed,
            iters,
            layers: Layer::ALL.to_vec(),
            extra_source_seeds: Vec::new(),
            extra_asm_seeds: Vec::new(),
            quiet: false,
            minimize_budget: 256,
        }
    }
}

/// How a mutant broke the contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FindingKind {
    /// The pipeline panicked (caught by the unwind backstop).
    Panic,
    /// A stage that must accept this layer's survivors rejected one — for
    /// source/AST layers, the verifier rejecting the compiler's own
    /// output is a scheduler/checker disagreement.
    UnexpectedReject(Stage),
    /// Two identical runs produced different verdicts.
    Nondeterminism,
}

impl fmt::Display for FindingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FindingKind::Panic => f.write_str("panic"),
            FindingKind::UnexpectedReject(stage) => {
                write!(f, "unexpected-reject-{}", stage.name())
            }
            FindingKind::Nondeterminism => f.write_str("nondeterminism"),
        }
    }
}

/// One contract violation, with a minimized textual reproducer.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The mutation layer that produced the input.
    pub layer: Layer,
    /// Mutant index within the layer (with the campaign seed, enough to
    /// regenerate the unminimized input).
    pub index: u64,
    /// What went wrong.
    pub kind: FindingKind,
    /// The reproducer text (minimized when the minimizer kept the
    /// failure alive; otherwise the original mutant).
    pub input: String,
    /// Corpus file extension for the reproducer.
    pub extension: &'static str,
    /// Human-readable detail (panic payload or mismatching verdicts).
    pub detail: String,
}

/// Per-layer tallies.
#[derive(Debug, Clone)]
pub struct LayerReport {
    /// The layer.
    pub layer: Layer,
    /// Mutants generated.
    pub mutants: u64,
    /// Mutants the pipeline accepted (full run, fingerprint produced).
    pub accepted: u64,
    /// Mutants rejected with a typed error at an acceptable stage.
    pub rejected: u64,
    /// Contract violations.
    pub findings: Vec<Finding>,
}

/// The whole campaign's outcome.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The seed the campaign ran under.
    pub seed: u64,
    /// One report per layer, in config order.
    pub layers: Vec<LayerReport>,
}

impl CampaignReport {
    /// Total contract violations across layers.
    #[must_use]
    pub fn finding_count(&self) -> usize {
        self.layers.iter().map(|l| l.findings.len()).sum()
    }

    /// All findings, flattened.
    pub fn findings(&self) -> impl Iterator<Item = &Finding> {
        self.layers.iter().flat_map(|l| l.findings.iter())
    }
}

impl fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "torture campaign: seed {} — {} finding(s)",
            self.seed,
            self.finding_count()
        )?;
        writeln!(
            f,
            "{:<10} {:>8} {:>10} {:>10} {:>9}",
            "layer", "mutants", "accepted", "rejected", "findings"
        )?;
        for layer in &self.layers {
            writeln!(
                f,
                "{:<10} {:>8} {:>10} {:>10} {:>9}",
                layer.layer.name(),
                layer.mutants,
                layer.accepted,
                layer.rejected,
                layer.findings.len()
            )?;
        }
        for finding in self.findings() {
            writeln!(
                f,
                "  [{}] mutant #{} — {}: {}",
                finding.layer.name(),
                finding.index,
                finding.kind,
                finding.detail.lines().next().unwrap_or("")
            )?;
        }
        Ok(())
    }
}

/// Stages whose rejections are routine for a layer's mutants. Anything
/// else rejecting is a [`FindingKind::UnexpectedReject`].
fn accepted_stages(layer: Layer) -> &'static [Stage] {
    match layer {
        // Fuzzed text and fuzzed trees legitimately die in the front end,
        // and a well-typed mutant may still trap at runtime (out-of-bounds
        // index, runaway recursion) — those are typed errors, exactly what
        // the contract asks for. The IR validator, the register allocator
        // and the verifier, though, must never reject something the
        // checker passed: that is a compiler disagreeing with itself.
        Layer::Source | Layer::Ast => &[Stage::Parse, Stage::Check, Stage::Lower, Stage::Sim],
        // Corrupted instruction streams die in the assembly parser, the
        // validator/lint (Verify) or the simulator.
        Layer::Asm => &[Stage::Parse, Stage::Verify, Stage::Sim],
        // Mutated descriptions die in the spec parser, the machine lint,
        // or starve the back end's temp pools (Split). A machine that
        // lints clean must compile and run the fixed workload — timing
        // changes, results do not — so `Sim` here is a finding.
        Layer::Machine => &[Stage::Machine, Stage::Verify, Stage::Split],
        // Mutated grid specs die in the grid parser (Machine: a grid is a
        // family of machine descriptions, including its cell-count cap) or
        // the per-cell machine lint. A grid that parses enumerates presets
        // by construction, so cells failing later is a finding.
        Layer::Grid => &[Stage::Machine, Stage::Verify, Stage::Split],
    }
}

/// One observation: a verdict, or the panic the backstop caught.
enum Observation {
    Verdict(Verdict),
    Panicked(String),
}

fn observe(subject: &dyn Subject, input: &Input) -> Observation {
    match panic::catch_unwind(AssertUnwindSafe(|| subject.run(input))) {
        Ok(verdict) => Observation::Verdict(verdict),
        Err(payload) => {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Observation::Panicked(message)
        }
    }
}

/// Classifies a double observation of one input. `None` means the
/// contract held.
fn classify(
    layer: Layer,
    first: &Observation,
    second: &Observation,
) -> Option<(FindingKind, String)> {
    match (first, second) {
        (Observation::Panicked(message), _) | (_, Observation::Panicked(message)) => {
            Some((FindingKind::Panic, message.clone()))
        }
        (Observation::Verdict(a), Observation::Verdict(b)) => {
            if a != b {
                return Some((
                    FindingKind::Nondeterminism,
                    format!("first run: {a:?}; second run: {b:?}"),
                ));
            }
            match a {
                Verdict::Ok { .. } => None,
                Verdict::Rejected { stage, message } => {
                    if accepted_stages(layer).contains(stage) {
                        None
                    } else {
                        Some((
                            FindingKind::UnexpectedReject(*stage),
                            format!("{}: {message}", stage.name()),
                        ))
                    }
                }
            }
        }
    }
}

/// Re-wraps reproducer text as the right [`Input`] for its layer. AST
/// findings are replayed through the source path (the printed tree).
fn reconstitute(layer: Layer, text: String) -> Input {
    match layer {
        Layer::Source | Layer::Ast => Input::Source(text),
        Layer::Asm => Input::Asm(text),
        Layer::Machine => Input::Machine(text),
        Layer::Grid => Input::Grid(text),
    }
}

/// Greedy line-wise ddmin: repeatedly drop chunks of lines while the
/// finding (same kind) survives, within `budget` subject invocations.
fn minimize(
    subject: &dyn Subject,
    layer: Layer,
    kind: &FindingKind,
    text: &str,
    budget: u32,
) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let mut spent = 0_u32;
    let still_fails = |candidate: &str, spent: &mut u32| -> bool {
        *spent += 2;
        let input = reconstitute(layer, candidate.to_string());
        let first = observe(subject, &input);
        let second = observe(subject, &input);
        matches!(classify(layer, &first, &second), Some((k, _)) if k == *kind)
    };
    let mut chunk = (lines.len() / 2).max(1);
    while chunk >= 1 && spent < budget {
        let mut start = 0;
        while start < lines.len() && spent < budget {
            let end = (start + chunk).min(lines.len());
            let mut candidate: Vec<String> = lines[..start].to_vec();
            candidate.extend_from_slice(&lines[end..]);
            let candidate_text = candidate.join("\n");
            if !candidate.is_empty() && still_fails(&candidate_text, &mut spent) {
                lines = candidate; // keep the smaller reproducer
            } else {
                start = end;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk /= 2;
    }
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

/// Runs a full campaign. Deterministic: equal `(subject, config)` pairs
/// produce equal reports.
pub fn run_campaign(subject: &dyn Subject, config: &CampaignConfig) -> CampaignReport {
    let quiet_guard = config.quiet.then(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(|_| {}));
        previous
    });
    let mut layers = Vec::with_capacity(config.layers.len());
    for &layer in &config.layers {
        let mut report = LayerReport {
            layer,
            mutants: 0,
            accepted: 0,
            rejected: 0,
            findings: Vec::new(),
        };
        for index in 0..config.iters {
            // Key the substream by (seed, layer, index) so any single
            // mutant can be regenerated without replaying the campaign.
            let key = config
                .seed
                .wrapping_mul(0x0100_0000_01B3)
                .wrapping_add((layer as u64) << 32)
                .wrapping_add(index);
            let mut rng = SplitMix64::new(key).fork();
            let input = mutate(
                layer,
                &mut rng,
                &config.extra_source_seeds,
                &config.extra_asm_seeds,
            );
            report.mutants += 1;
            let first = observe(subject, &input);
            let second = observe(subject, &input);
            match classify(layer, &first, &second) {
                None => match first {
                    Observation::Verdict(Verdict::Ok { .. }) => report.accepted += 1,
                    _ => report.rejected += 1,
                },
                Some((kind, detail)) => {
                    let text = input.to_text();
                    let minimized = minimize(subject, layer, &kind, &text, config.minimize_budget);
                    report.findings.push(Finding {
                        layer,
                        index,
                        kind,
                        input: minimized,
                        extension: input.extension(),
                        detail,
                    });
                }
            }
        }
        layers.push(report);
    }
    if let Some(previous) = quiet_guard {
        panic::set_hook(previous);
    }
    CampaignReport {
        seed: config.seed,
        layers,
    }
}

/// Writes each finding's reproducer into `dir` (created if missing).
/// Returns the paths written.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_corpus(dir: &Path, report: &CampaignReport) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut paths = Vec::new();
    for finding in report.findings() {
        let name = format!(
            "{}-{}-seed{}-{}.{}",
            finding.layer.name(),
            finding.kind,
            report.seed,
            finding.index,
            finding.extension
        );
        let path = dir.join(name);
        std::fs::write(&path, &finding.input)?;
        paths.push(path);
    }
    Ok(paths)
}

/// Replays every corpus file under `dir` through the subject, twice,
/// checking the panic-free and determinism halves of the contract.
/// Typed rejections are fine — corpus entries exist precisely because
/// they once broke something, and *typed* is the fixed state. Files are
/// visited in sorted order so reports are stable.
///
/// # Errors
///
/// Propagates filesystem errors; an absent directory is an empty corpus.
pub fn replay_corpus(subject: &dyn Subject, dir: &Path) -> std::io::Result<CampaignReport> {
    let mut findings = Vec::new();
    let mut files = 0_u64;
    let mut entries: Vec<PathBuf> = match std::fs::read_dir(dir) {
        Ok(iter) => iter
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_file())
            .collect(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    entries.sort();
    for path in entries {
        let Some(layer) = (match path.extension().and_then(|e| e.to_str()) {
            Some("tital") => Some(Layer::Source),
            Some("s") => Some(Layer::Asm),
            Some("machine") => Some(Layer::Machine),
            Some("grid") => Some(Layer::Grid),
            _ => None,
        }) else {
            continue; // READMEs and the like
        };
        let text = std::fs::read_to_string(&path)?;
        files += 1;
        let input = reconstitute(layer, text.clone());
        let first = observe(subject, &input);
        let second = observe(subject, &input);
        let violation = match classify(layer, &first, &second) {
            // Replay enforces only the panic/determinism halves: a typed
            // rejection at *any* stage is a regression fixed, not a bug.
            Some((kind @ (FindingKind::Panic | FindingKind::Nondeterminism), detail)) => {
                Some((kind, detail))
            }
            _ => None,
        };
        if let Some((kind, detail)) = violation {
            findings.push(Finding {
                layer,
                index: files - 1,
                kind,
                input: text,
                extension: input.extension(),
                detail: format!("{}: {detail}", path.display()),
            });
        }
    }
    Ok(CampaignReport {
        seed: 0,
        layers: vec![LayerReport {
            layer: Layer::Source,
            mutants: files,
            accepted: 0,
            rejected: files - findings.len() as u64,
            findings,
        }],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A subject with injectable misbehaviour, for driver tests.
    struct FlakySubject {
        panic_on: Option<&'static str>,
        reject_stage: Stage,
    }

    impl Subject for FlakySubject {
        fn run(&self, input: &Input) -> Verdict {
            let text = input.to_text();
            if let Some(needle) = self.panic_on {
                assert!(!text.contains(needle), "injected panic");
            }
            if text.contains("reject-me") {
                Verdict::Rejected {
                    stage: self.reject_stage,
                    message: "injected rejection".to_string(),
                }
            } else {
                Verdict::Ok {
                    fingerprint: format!("len={}", text.len()),
                }
            }
        }
    }

    fn benign() -> FlakySubject {
        FlakySubject {
            panic_on: None,
            reject_stage: Stage::Parse,
        }
    }

    #[test]
    fn clean_subject_yields_no_findings() {
        let report = run_campaign(&benign(), &CampaignConfig::new(7, 10));
        assert_eq!(report.finding_count(), 0);
        for layer in &report.layers {
            assert_eq!(layer.mutants, 10);
            assert_eq!(layer.accepted + layer.rejected, 10);
        }
    }

    #[test]
    fn campaigns_replay_identically() {
        let a = run_campaign(&benign(), &CampaignConfig::new(3, 25));
        let b = run_campaign(&benign(), &CampaignConfig::new(3, 25));
        assert_eq!(a.finding_count(), b.finding_count());
        for (la, lb) in a.layers.iter().zip(&b.layers) {
            assert_eq!(la.accepted, lb.accepted);
            assert_eq!(la.rejected, lb.rejected);
        }
    }

    #[test]
    fn panics_are_caught_and_reported() {
        // Every Tital seed contains `fn`; panic whenever a source mutant
        // keeps one, which some surviving mutants will.
        let subject = FlakySubject {
            panic_on: Some("fn"),
            reject_stage: Stage::Parse,
        };
        let mut config = CampaignConfig::new(11, 20);
        config.layers = vec![Layer::Source];
        config.quiet = true;
        config.minimize_budget = 16;
        let report = run_campaign(&subject, &config);
        assert!(report.finding_count() > 0, "no panic observed");
        assert!(report
            .findings()
            .all(|f| matches!(f.kind, FindingKind::Panic)));
    }

    #[test]
    fn unexpected_rejections_are_findings() {
        struct AlwaysVerifyReject;
        impl Subject for AlwaysVerifyReject {
            fn run(&self, _: &Input) -> Verdict {
                Verdict::Rejected {
                    stage: Stage::Ir,
                    message: "ir exploded".to_string(),
                }
            }
        }
        let mut config = CampaignConfig::new(2, 3);
        config.layers = vec![Layer::Source];
        config.minimize_budget = 8;
        let report = run_campaign(&AlwaysVerifyReject, &config);
        assert_eq!(report.finding_count(), 3);
        assert!(report
            .findings()
            .all(|f| f.kind == FindingKind::UnexpectedReject(Stage::Ir)));
    }

    #[test]
    fn acceptable_rejections_are_not_findings() {
        struct AlwaysParseReject;
        impl Subject for AlwaysParseReject {
            fn run(&self, _: &Input) -> Verdict {
                Verdict::Rejected {
                    stage: Stage::Parse,
                    message: "no".to_string(),
                }
            }
        }
        let mut config = CampaignConfig::new(2, 5);
        config.layers = vec![Layer::Source, Layer::Asm];
        let report = run_campaign(&AlwaysParseReject, &config);
        assert_eq!(report.finding_count(), 0);
        assert!(report.layers.iter().all(|l| l.rejected == 5));
    }

    #[test]
    fn minimizer_shrinks_reproducers() {
        // Panic iff the text contains the needle; the minimized
        // reproducer should be far smaller than a whole seed program.
        struct NeedleSubject;
        impl Subject for NeedleSubject {
            fn run(&self, input: &Input) -> Verdict {
                assert!(
                    !input.to_text().contains("while"),
                    "injected panic on needle"
                );
                Verdict::Ok {
                    fingerprint: "ok".to_string(),
                }
            }
        }
        let text = "fn main() -> int {\n    var s = 0;\n    while (s < 3) { s = s + 1; }\n    return s;\n}\n";
        let minimized = minimize(&NeedleSubject, Layer::Source, &FindingKind::Panic, text, 64);
        assert!(minimized.contains("while"));
        assert!(
            minimized.lines().count() < text.lines().count(),
            "minimizer failed to shrink: {minimized:?}"
        );
    }

    #[test]
    fn corpus_round_trips() {
        let dir =
            std::env::temp_dir().join(format!("supersym-torture-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let report = CampaignReport {
            seed: 42,
            layers: vec![LayerReport {
                layer: Layer::Source,
                mutants: 1,
                accepted: 0,
                rejected: 0,
                findings: vec![Finding {
                    layer: Layer::Source,
                    index: 0,
                    kind: FindingKind::Panic,
                    input: "fn main() { }\n".to_string(),
                    extension: "tital",
                    detail: "injected".to_string(),
                }],
            }],
        };
        let paths = write_corpus(&dir, &report).unwrap();
        assert_eq!(paths.len(), 1);
        let replay = replay_corpus(&benign(), &dir).unwrap();
        assert_eq!(replay.finding_count(), 0);
        assert_eq!(replay.layers[0].mutants, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_of_missing_dir_is_empty() {
        let report = replay_corpus(&benign(), Path::new("/nonexistent/corpus")).unwrap();
        assert_eq!(report.finding_count(), 0);
        assert_eq!(report.layers[0].mutants, 0);
    }
}
