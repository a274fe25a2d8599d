//! `titalc` — the supersym command-line driver.
//!
//! Compiles a Tital source file under a chosen machine description and
//! optimization level, then (by default) simulates it and reports cycle
//! counts, or disassembles the scheduled machine code.
//!
//! ```text
//! titalc program.tital                      # compile + run on the base machine
//! titalc -m superscalar:4 -O2 program.tital # degree-4 ideal superscalar, local opt
//! titalc -m cray1 --dump program.tital      # show scheduled assembly
//! titalc -m multititan --unroll careful:4 program.tital
//! titalc --verify program.tital             # verify the compiler's own output
//! titalc --oracle conservative program.tital# schedule without symbolic aliasing
//! titalc lint machine.machine               # lint a machine description
//! titalc lint program.s                     # lint an assembly program
//! titalc lint program.tital                 # dataflow lints on Tital source
//! titalc analyze program.tital              # dump per-block dataflow facts
//! titalc analyze --loops program.tital      # loop forest + scalar evolution
//! titalc bound program.tital                # static ILP ceiling vs measured
//! titalc bound -m superscalar:2             # suite sweep on one preset
//! titalc profile program.tital              # per-phase + per-cycle accounting
//! titalc profile --json program.tital       # the same, machine-readable
//! titalc torture --seed 7 --iters 1000      # mutation-robustness campaign
//! titalc torture --replay tests/corpus      # replay the crash corpus
//! titalc certify -m cray1 program.tital     # re-prove every optimizer pass
//! titalc synth                              # regenerate the rewrite-rule table
//! titalc synth --check                      # CI: table must match checked-in
//! titalc reproduce                          # every table and figure of the paper
//! titalc reproduce --only fig4_1            # one of them
//! titalc --machines                         # list machine presets
//! ```
//!
//! Exit codes distinguish *where* an input was rejected (see `EXIT CODES`
//! in `--help`): scripts can tell a syntax error from a verifier
//! diagnostic from a runtime trap without parsing stderr.
//!
//! Every command is one row of [`COMMANDS`]: its name, the flags it takes
//! and how many FILEs. [`parse`] turns argv into [`Args`] against that
//! row, and `main` dispatches on the command name. Each command family
//! lives in its own module.

/// Prints to stdout through [`write_stdout`], returning from the enclosing
/// function with [`EXIT_SIM`] when the write fails.
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!($($arg)*))?
    };
}

/// [`out!`] with a trailing newline.
macro_rules! outln {
    () => {
        $crate::write_stdout(format_args!("\n"))?
    };
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!("{}\n", format_args!($($arg)*)))?
    };
}

mod analyze;
mod bound;
mod run;
mod sweep;
mod tools;

use flag::*;
use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;
use supersym::analyze::OracleKind;
use supersym::machine::{presets, MachineConfig, MAX_ISSUE, MAX_PIPE};
use supersym::opt::{UnrollOptions, MAX_UNROLL};
use supersym::{CompileError, CompileOptions, OptLevel};

/// Exit code for usage and I/O errors.
const EXIT_USAGE: u8 = 1;
/// Exit code for front-end rejections: the input file failed to lex,
/// parse, type-check or lower.
const EXIT_PARSE: u8 = 2;
/// Exit code for static-check failures: lint/verify diagnostics, IR
/// validation, machine-description or register-split problems — and for
/// torture-campaign findings.
const EXIT_VERIFY: u8 = 3;
/// Exit code for simulation (runtime) errors.
const EXIT_SIM: u8 = 4;

const USAGE: &str = "\
titalc — compile and simulate Tital programs (supersym)

USAGE:
    titalc [OPTIONS] <FILE>
    titalc lint [OPTIONS] <FILE>
    titalc analyze [--loops] [--json] <FILE>
    titalc certify [OPTIONS] <FILE>
    titalc profile [OPTIONS] <FILE>
    titalc stats [OPTIONS] <FILE>
    titalc bound [OPTIONS] [FILE]
    titalc torture [TORTURE OPTIONS]
    titalc synth [--check]
    titalc sweep --grid <SPEC> [SWEEP OPTIONS]
    titalc reproduce [--small] [--only <NAME>]...

OPTIONS:
    -m, --machine <NAME>     machine preset (default: base); see --machines
    -O<N>                    optimization level 0..4 (default: 4)
        --unroll <KIND:N>    loop unrolling: naive:N or careful:N, N from
                             1 to 16
        --dump               print the scheduled assembly instead of running
        --cache              also simulate 8KiB split I/D caches
        --verify             run the static verifier on the compiled output
        --oracle <KIND>      memory disambiguation for scheduling:
                             symbolic (default) or conservative
        --machines           list machine presets and exit
    -h, --help               show this help

PROFILE:
    `titalc profile` compiles and runs like plain `titalc`, but reports
    where the time went instead of just how much there was: per-phase
    compile telemetry (wall time, IR sizes, dependence-edge counts under
    both oracles, scheduler movement) and the run's cycle account (every
    cycle charged to issue, one stall cause, or pipeline drain — the sum
    is exactly the machine cycles), with per-class and per-functional-unit
    wait rollups and the most-waited-on producer instructions.
        --json               emit one JSON document (schema
                             supersym.profile/v1) instead of tables
        --timeline <FILE>    write a Chrome trace_event timeline (schema
                             supersym.timeline/v1, loadable in Perfetto):
                             compile-phase spans, one span per dynamic
                             instruction on its functional unit's lane,
                             and ipc/inflight counter tracks
    Uses the same compile/run exit codes as plain `titalc`.

STATS:
    `titalc stats` compiles and runs like `titalc profile`, but emits one
    deterministic JSON document (schema supersym.metrics/v1): a metrics
    registry of counters, gauges and log2-bucket histograms — compile
    phase counters, the stall-run-length and per-block ILP distributions,
    and the run's headline numbers — plus the per-phase wall times.
    Accepts the same options as plain `titalc`.

LINT:
    `titalc lint` statically checks a file and exits nonzero on errors.
    Files ending in `.machine` are parsed as machine descriptions; files
    ending in `.tital` are lowered to IR and checked with the dataflow
    lints (dead stores, provable out-of-bounds accesses, constant branch
    conditions); files ending in `.json` are validated as timeline
    documents (trace_event invariants: monotone timestamps per lane,
    matched begin/end pairs, stable lane naming); anything else is parsed
    as assembly and checked with the program lint (pass -m to also check
    register-split conformance).

ANALYZE:
    `titalc analyze` lowers a Tital source file to IR, prints every
    block's dataflow facts (reachability, constants, value ranges,
    reaching definitions, branch verdicts), then runs the dataflow lints.
    Exits nonzero on lint errors.
        --loops              instead of the dataflow dump, print the
                             natural-loop forest and scalar-evolution
                             facts per loop: induction variables with
                             steps, classified array subscripts, and
                             ZIV/SIV dependence distance vectors
        --json               with --loops, emit one JSON document
                             (schema supersym.loops/v1) instead of text

BOUND:
    `titalc bound` reports sound static ILP ceilings next to measured
    parallelism. With a FILE, it compiles the program for the chosen -m
    preset, analyzes its innermost machine loops (critical path, minimum
    iteration spacing, recurrence- and resource-bound MinII), runs it,
    and checks the soundness invariant: measured ILP never exceeds the
    static bound. Without a FILE, it sweeps the whole benchmark suite on
    every machine preset (or just the -m one). A violated invariant is
    an internal-consistency failure and exits with code 3.
        --json               emit one JSON document (schema
                             supersym.bound/v1) instead of tables

CERTIFY:
    `titalc certify` compiles with per-pass translation validation: the
    IR is snapshotted before and after every optimizer pass and each pair
    is re-proven equivalent, structurally (symbolic per-block summaries)
    or differentially (a fuel-bounded IR executor compares return value,
    final global state and call count). Prints one line per pass run and
    exits with code 3 if any pass cannot be certified. Accepts the same
    -m/-O/--unroll/--oracle options as plain `titalc`.

SYNTH:
    `titalc synth` re-runs verified rewrite-rule synthesis (enumerate,
    fingerprint on characteristic vectors, prove with sound certifiers)
    and prints the resulting rule table to stdout — the exact format of
    the checked-in `crates/rules/src/rules.tital-rules`.
        --check              do not print; exit 3 unless the regenerated
                             table is byte-identical to the shipped one

SWEEP:
    `titalc sweep` explores the whole machine-design space the paper's
    presets sample: a grid spec like
    `issue=1,2,4,8 pipe=1,2,4 lat=unit,titan fu=ideal,shared` is
    enumerated into cells, each workload's machine-independent front half
    is compiled once and executed once, and worker threads schedule and
    time every (workload × cell) item from that one run. Cells run under
    a panic trap and a fuel watchdog: failures are classified (panic /
    timeout / reject) and quarantined as records, never lost. The summary (one JSON document,
    schema supersym.sweep/v1) ends with the speedup-vs-hardware-cost
    Pareto frontier. Exits 3 when any cell was quarantined.
        --grid <SPEC>        axes: issue= pipe= lat= fu= split= (required)
        --workloads <CSV>    workload names, or `all` (default)
        --jobs <N>           worker threads, 1 to 256 (default: 1)
        --fuel <N>           simulator steps per cell before the watchdog
                             quarantines it as a timeout
        --checkpoint <FILE>  append one record per finished item to FILE
        --resume <FILE>      resume from FILE (same as --checkpoint, but
                             completed items are not re-run; the final
                             output is byte-identical to an uninterrupted
                             sweep). The header must match this sweep's
                             grid, workloads and programs.
        --out <FILE>         write the complete record set, in canonical
                             cell order, to FILE
        --cache <FILE>       reuse deterministic results across sweeps,
                             keyed by (program hash, machine hash)
        --deadline-ms <N>    also quarantine cells slower than N ms of
                             wall clock (off by default: wall deadlines
                             trade byte-determinism for protection)
        --inject <SPEC>      self-test fault injection: `panic:K` and/or
                             `timeout:J` (comma-separated) fail every
                             K-th/J-th item
        --timeline <FILE>    write a Chrome trace_event timeline with one
                             lane per worker: a span per executed cell,
                             instant markers for cache hits and
                             quarantines (schema supersym.timeline/v1)
    Also accepts -O<N>, --oracle and --verify with their usual meanings.

REPRODUCE:
    `titalc reproduce` regenerates every table and figure of the paper,
    then the extension studies, from the one experiment registry
    (`supersym::experiments::REGISTRY`) and prints them in its order. At
    the standard size the output is docs/reproduction_standard.txt, which
    CI diffs against a fresh run.
        --small              use the small workload size (a quick pass)
        --only <NAME>        print only the block of the experiment NAME, a
                             driver name such as fig4_1 or limit_study,
                             with the same bytes as the full run; repeat
                             it for more blocks (printed in registry order)

TORTURE OPTIONS:
    `titalc torture` runs a deterministic fault-injection campaign
    against the whole pipeline: seeded mutants at five layers (source,
    ast, asm, machine, grid) must each produce a typed error or a correct,
    reproducible run — never a panic, hang or verifier disagreement.
        --seed <N>           campaign seed (default: 0; same seed, same mutants)
        --iters <K>          mutants per layer (default: 500)
        --layer <L>          restrict to a layer (repeatable):
                             source | ast | asm | machine | grid (default: all)
        --corpus <DIR>       write minimized reproducers for findings to DIR
        --replay <DIR>       instead of mutating, replay every corpus file
                             in DIR and check the panic/determinism contract

EXIT CODES:
    0    success
    1    usage or I/O error
    2    the input failed to parse, type-check or lower (front end)
    3    static checks failed: lint/verify diagnostics, IR validation,
         machine-description or register-split errors, torture findings
    4    simulation (runtime) error, or an I/O error writing a requested
         output file (--timeline, --out, --checkpoint, --cache) or
         stdout (its reader has gone)
";

/// How a flag takes its argument.
#[derive(Debug, Clone, Copy)]
enum Arity {
    /// None: `--dump`.
    Switch,
    /// The next argument: `--grid SPEC`.
    Value,
    /// The rest of the same argument: `-O2`.
    Attached,
}

/// A flag, as the command tables list it and the commands read it.
#[derive(Debug, Clone, Copy)]
struct Flag {
    /// The spelling USAGE documents: `--machine`, or `-O` for `-O<N>`.
    name: &'static str,
    /// A short spelling: `-m`.
    short: Option<&'static str>,
    arity: Arity,
}

impl Flag {
    const fn new(name: &'static str, arity: Arity) -> Flag {
        Flag {
            name,
            short: None,
            arity,
        }
    }

    fn matches(&self, arg: &str) -> bool {
        match self.arity {
            Arity::Attached => arg.starts_with(self.name),
            Arity::Switch | Arity::Value => arg == self.name || Some(arg) == self.short,
        }
    }
}

/// Every flag of every command.
mod flag {
    use super::Arity::{Attached, Switch, Value};
    use super::Flag;

    pub const HELP: Flag = Flag {
        name: "--help",
        short: Some("-h"),
        arity: Switch,
    };
    pub const MACHINE: Flag = Flag {
        name: "--machine",
        short: Some("-m"),
        arity: Value,
    };
    pub const OPT: Flag = Flag::new("-O", Attached);
    pub const UNROLL: Flag = Flag::new("--unroll", Value);
    pub const ORACLE: Flag = Flag::new("--oracle", Value);
    pub const VERIFY: Flag = Flag::new("--verify", Switch);
    pub const DUMP: Flag = Flag::new("--dump", Switch);
    /// `run --cache`, a switch; `sweep --cache FILE` is [`RESULT_CACHE`].
    pub const CACHE: Flag = Flag::new("--cache", Switch);
    pub const MACHINES: Flag = Flag::new("--machines", Switch);
    pub const LOOPS: Flag = Flag::new("--loops", Switch);
    pub const JSON: Flag = Flag::new("--json", Switch);
    pub const TIMELINE: Flag = Flag::new("--timeline", Value);
    pub const CHECK: Flag = Flag::new("--check", Switch);
    pub const SEED: Flag = Flag::new("--seed", Value);
    pub const ITERS: Flag = Flag::new("--iters", Value);
    /// Repeatable: every occurrence counts.
    pub const LAYER: Flag = Flag::new("--layer", Value);
    pub const CORPUS: Flag = Flag::new("--corpus", Value);
    pub const REPLAY: Flag = Flag::new("--replay", Value);
    pub const GRID: Flag = Flag::new("--grid", Value);
    pub const WORKLOADS: Flag = Flag::new("--workloads", Value);
    pub const JOBS: Flag = Flag::new("--jobs", Value);
    pub const FUEL: Flag = Flag::new("--fuel", Value);
    pub const CHECKPOINT: Flag = Flag::new("--checkpoint", Value);
    pub const RESUME: Flag = Flag::new("--resume", Value);
    pub const OUT: Flag = Flag::new("--out", Value);
    pub const RESULT_CACHE: Flag = Flag::new("--cache", Value);
    pub const DEADLINE_MS: Flag = Flag::new("--deadline-ms", Value);
    pub const INJECT: Flag = Flag::new("--inject", Value);
    /// Repeatable: every occurrence counts.
    pub const ONLY: Flag = Flag::new("--only", Value);
    pub const SMALL: Flag = Flag::new("--small", Switch);
}

/// A command: its name, how many FILEs it takes at most, and the flags it
/// takes besides `--help`, which every command takes.
struct Command {
    name: &'static str,
    files: usize,
    flags: &'static [&'static [Flag]],
}

impl Command {
    const fn new(name: &'static str, files: usize, flags: &'static [&'static [Flag]]) -> Self {
        Command { name, files, flags }
    }
}

/// The compile flags every compiling command takes.
const COMPILE: &[Flag] = &[MACHINE, OPT, UNROLL, ORACLE, VERIFY];

/// Every command. The first one runs when argv does not start with a
/// command name.
const COMMANDS: [Command; 11] = [
    Command::new("run", 1, &[COMPILE, &[DUMP, CACHE, MACHINES]]),
    Command::new("lint", 1, &[&[MACHINE]]),
    Command::new("analyze", 1, &[&[LOOPS, JSON]]),
    Command::new("certify", 1, &[COMPILE]),
    Command::new("profile", 1, &[COMPILE, &[JSON, TIMELINE]]),
    Command::new("stats", 1, &[COMPILE]),
    Command::new("bound", 1, &[COMPILE, &[JSON]]),
    Command::new(
        "sweep",
        0,
        &[&[
            OPT,
            ORACLE,
            VERIFY,
            GRID,
            WORKLOADS,
            JOBS,
            FUEL,
            CHECKPOINT,
            RESUME,
            OUT,
            RESULT_CACHE,
            DEADLINE_MS,
            INJECT,
            TIMELINE,
        ]],
    ),
    Command::new("torture", 0, &[&[SEED, ITERS, LAYER, CORPUS, REPLAY]]),
    Command::new("synth", 0, &[&[CHECK]]),
    Command::new("reproduce", 0, &[&[SMALL, ONLY]]),
];

/// A command line, parsed against its command's row of [`COMMANDS`].
struct Args {
    command: &'static str,
    /// Every flag given, in order, with its argument (empty for a switch).
    flags: Vec<(&'static str, String)>,
    files: Vec<String>,
}

/// Parses argv (without the program name). `Err` is the exit code to stop
/// with: 0 after printing `--help`, [`EXIT_USAGE`] after reporting a
/// usage error.
fn parse(argv: &[String]) -> Result<Args, ExitCode> {
    let named = COMMANDS
        .iter()
        .find(|command| argv.first().is_some_and(|first| first == command.name));
    let (command, rest) = match named {
        Some(command) => (command, &argv[1..]),
        None => (&COMMANDS[0], argv),
    };
    let mut args = Args {
        command: command.name,
        flags: Vec::new(),
        files: Vec::new(),
    };
    let mut rest = rest.iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with('-') {
            if args.files.len() == command.files {
                return Err(args.usage(format_args!("unexpected argument `{arg}`")));
            }
            args.files.push(arg.clone());
            continue;
        }
        let known = command.flags.iter().flat_map(|group| group.iter());
        let Some(flag) = known.chain([&HELP]).find(|flag| flag.matches(arg)) else {
            return Err(args.usage(format_args!("unknown option `{arg}`")));
        };
        let value = match flag.arity {
            Arity::Switch => String::new(),
            Arity::Attached => arg[flag.name.len()..].to_string(),
            Arity::Value => match rest.next() {
                Some(value) => value.clone(),
                None => return Err(args.usage(format_args!("`{arg}` needs a value"))),
            },
        };
        if flag.name == HELP.name {
            outln!("{USAGE}");
            return Err(ExitCode::SUCCESS);
        }
        args.flags.push((flag.name, value));
    }
    Ok(args)
}

impl Args {
    /// Whether the switch was given.
    fn switch(&self, flag: Flag) -> bool {
        self.values(flag).next().is_some()
    }

    /// Every argument given to `flag`, in order.
    fn values(&self, flag: Flag) -> impl Iterator<Item = &str> {
        self.flags
            .iter()
            .filter(move |(name, _)| *name == flag.name)
            .map(|(_, value)| value.as_str())
    }

    /// The argument of a single-value flag: when repeated, the last wins.
    fn value(&self, flag: Flag) -> Option<&str> {
        self.values(flag).last()
    }

    /// Every argument given to `flag`, converted; one that `convert`
    /// rejects is a usage error naming the flag.
    fn parsed_all<T>(
        &self,
        flag: Flag,
        convert: impl Fn(&str) -> Result<T, String>,
    ) -> Result<Vec<T>, ExitCode> {
        self.values(flag)
            .map(|value| {
                convert(value).map_err(|problem| {
                    self.usage(format_args!("{} `{value}`: {problem}", flag.name))
                })
            })
            .collect()
    }

    /// The last argument given to `flag`, converted (every one is checked).
    fn parsed<T>(
        &self,
        flag: Flag,
        convert: impl Fn(&str) -> Result<T, String>,
    ) -> Result<Option<T>, ExitCode> {
        Ok(self.parsed_all(flag, convert)?.pop())
    }

    /// The FILE argument.
    fn file(&self) -> Result<&str, ExitCode> {
        let file = self.files.first().map(String::as_str);
        file.ok_or_else(|| self.usage("missing <FILE>"))
    }

    /// Reports a usage error, naming the command; exits [`EXIT_USAGE`].
    fn usage(&self, problem: impl Display) -> ExitCode {
        eprintln!("titalc {}: {problem}\n\n{USAGE}", self.command);
        ExitCode::from(EXIT_USAGE)
    }
}

/// Converts the argument of a flag that takes a positive number.
fn positive<T: FromStr + PartialOrd + Default>(value: &str) -> Result<T, String> {
    match value.parse() {
        Ok(n) if n > T::default() => Ok(n),
        _ => Err("expected a positive number".to_string()),
    }
}

/// A preset name, or a preset family with its degrees. The degrees take
/// the ranges `sweep --grid` takes: issue width n in 1..=[`MAX_ISSUE`],
/// superpipelining degree m in 1..=[`MAX_PIPE`].
fn parse_machine(name: &str) -> Result<MachineConfig, String> {
    let degree = |text: &str, what: &str, max: u32| match text.parse() {
        Ok(degree) if (1..=max).contains(&degree) => Ok(degree),
        _ => Err(format!("expected {what} from 1 to {max}")),
    };
    let issue = |n: &str| degree(n, "an issue width", MAX_ISSUE);
    let pipe = |m: &str| degree(m, "a pipe degree", MAX_PIPE);
    if let Some(n) = name.strip_prefix("superscalar:") {
        return issue(n).map(presets::ideal_superscalar);
    }
    if let Some(m) = name.strip_prefix("superpipelined:") {
        return pipe(m).map(presets::superpipelined);
    }
    if let Some(n) = name.strip_prefix("conflicts:") {
        return issue(n).map(presets::superscalar_with_class_conflicts);
    }
    if let Some(rest) = name.strip_prefix("ssp:") {
        let (n, m) = rest.split_once(':').ok_or("expected ssp:<n>:<m>")?;
        return Ok(presets::superpipelined_superscalar(issue(n)?, pipe(m)?));
    }
    if let Some(n) = name.strip_prefix("vliw:") {
        return issue(n).map(presets::vliw);
    }
    match name {
        "base" => Ok(presets::base()),
        "multititan" => Ok(presets::multititan()),
        "cray1" => Ok(presets::cray1()),
        "underpipelined" => Ok(presets::underpipelined_half_issue()),
        "slowcycle" => Ok(presets::underpipelined_slow_cycle()),
        _ => Err("unknown machine (try --machines)".to_string()),
    }
}

/// `-m NAME`: the named preset, `None` when the flag is absent.
fn machine(args: &Args) -> Result<Option<MachineConfig>, ExitCode> {
    args.parsed(MACHINE, parse_machine)
}

/// `-O<N>`: levels 0 to 4; a bare `-O`, like no flag, means `-O4`.
fn opt_level(args: &Args) -> Result<OptLevel, ExitCode> {
    let level = args.parsed(OPT, |level| match level {
        "0" => Ok(OptLevel::O0),
        "1" => Ok(OptLevel::O1),
        "2" => Ok(OptLevel::O2),
        "3" => Ok(OptLevel::O3),
        "4" | "" => Ok(OptLevel::O4),
        _ => Err("expected a level from 0 to 4".to_string()),
    })?;
    Ok(level.unwrap_or(OptLevel::O4))
}

/// `--oracle KIND`: symbolic (the default) or conservative.
fn oracle(args: &Args) -> Result<OracleKind, ExitCode> {
    let kind = args.parsed(ORACLE, |kind| match kind {
        "symbolic" => Ok(OracleKind::Symbolic),
        "conservative" => Ok(OracleKind::Conservative),
        _ => Err("expected symbolic or conservative".to_string()),
    })?;
    Ok(kind.unwrap_or_default())
}

/// The compile options for `machine` under `-O`, `--oracle`, `--verify`
/// and `--unroll`, whose factor takes 1..=[`MAX_UNROLL`].
fn compile_options(args: &Args, machine: &MachineConfig) -> Result<CompileOptions, ExitCode> {
    let mut options = CompileOptions::new(opt_level(args)?, machine).with_oracle(oracle(args)?);
    if args.switch(VERIFY) {
        options = options.with_verify(true);
    }
    let unroll = args.parsed(UNROLL, |spec| {
        let (kind, factor) = spec.split_once(':').unwrap_or((spec, ""));
        let factor = factor.parse().ok().filter(|n| (1..=MAX_UNROLL).contains(n));
        match (kind, factor) {
            ("naive", Some(factor)) => Ok(UnrollOptions::naive(factor)),
            ("careful", Some(factor)) => Ok(UnrollOptions::careful(factor)),
            _ => Err(format!(
                "expected naive:N or careful:N, N from 1 to {MAX_UNROLL}"
            )),
        }
    })?;
    if let Some(unroll) = unroll {
        options = options.with_unroll(unroll);
    }
    Ok(options)
}

/// Reads FILE.
fn read_source(path: &str) -> Result<String, ExitCode> {
    std::fs::read_to_string(path).map_err(|error| {
        eprintln!("titalc: cannot read `{path}`: {error}");
        ExitCode::from(EXIT_USAGE)
    })
}

/// What a compiling command starts from: FILE, its text, and the compile
/// options for the `-m` machine (default base).
fn compile_input(args: &Args) -> Result<(&str, String, CompileOptions), ExitCode> {
    let path = args.file()?;
    let source = read_source(path)?;
    let machine = machine(args)?.unwrap_or_else(presets::base);
    let options = compile_options(args, &machine)?;
    Ok((path, source, options))
}

/// The compile stage's error path: report the error (after `input`, when
/// given) and exit with the error's own code.
fn compiled<T>(result: Result<T, CompileError>, input: Option<&str>) -> Result<T, ExitCode> {
    result.map_err(|error| {
        match input {
            Some(input) => eprintln!("titalc: {input}: {error}"),
            None => eprintln!("titalc: {error}"),
        }
        ExitCode::from(error.exit_code())
    })
}

/// The one writer behind every stdout print. A failed write — the reader
/// closed the pipe early, say — ends titalc with [`EXIT_SIM`], the code
/// failed `--out` and `--timeline` writes use, and a one-line message.
fn write_stdout(text: std::fmt::Arguments<'_>) -> Result<(), ExitCode> {
    use std::io::Write;
    std::io::stdout().lock().write_fmt(text).map_err(|error| {
        eprintln!("titalc: cannot write to stdout: {error}");
        ExitCode::from(EXIT_SIM)
    })
}

/// The simulate stage's error path: report the error and exit
/// [`EXIT_SIM`].
fn simulated<T, E: Display>(result: Result<T, E>) -> Result<T, ExitCode> {
    result.map_err(|error| {
        eprintln!("titalc: runtime error: {error}");
        ExitCode::from(EXIT_SIM)
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse(&argv).and_then(|args| match args.command {
        "run" => run::run(&args),
        "lint" => analyze::lint(&args),
        "analyze" => analyze::analyze(&args),
        "certify" => run::certify(&args),
        "profile" => run::profile(&args),
        "stats" => run::stats(&args),
        "bound" => bound::bound(&args),
        "sweep" => sweep::sweep(&args),
        "torture" => tools::torture(&args),
        "synth" => tools::synth(&args),
        "reproduce" => tools::reproduce(&args),
        other => unreachable!("`{other}` is in COMMANDS but not dispatched"),
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(code) => code,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Help and parser cannot drift apart: every flag a command takes is
    /// documented, and every documented `--flag` is taken by some command.
    #[test]
    fn usage_documents_exactly_the_accepted_flags() {
        let accepted: Vec<Flag> = COMMANDS
            .iter()
            .flat_map(|command| command.flags.iter().flat_map(|group| group.iter()))
            .chain([&HELP])
            .copied()
            .collect();
        for flag in &accepted {
            for spelling in [Some(flag.name), flag.short].into_iter().flatten() {
                assert!(
                    USAGE.contains(spelling),
                    "USAGE never mentions `{spelling}`"
                );
            }
        }
        let documented = USAGE
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter(|token| token.starts_with("--"));
        for token in documented {
            assert!(
                accepted.iter().any(|flag| flag.name == token),
                "USAGE documents `{token}`, which no command takes"
            );
        }
    }
}
