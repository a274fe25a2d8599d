//! The end-to-end compilation pipeline.

use crate::error::PipelineError;
use std::fmt;
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use supersym_analyze::OracleKind;
use supersym_ir::Module;
use supersym_isa::{Diagnostic, Program};
use supersym_machine::{MachineConfig, RegisterSplit};
use supersym_opt::{Pass, PassObserver, UnrollOptions};
use supersym_rules::RuleTable;
use supersym_trace::{MetricsRegistry, OwnedPhase, PhaseRecord, TraceSink};
use supersym_verify::{CertMethod, PassCertificate};

/// The paper's Figure 4-8 optimization ladder. Each level includes all the
/// previous ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OptLevel {
    /// "the parallelism with no optimization at all".
    O0,
    /// + pipeline scheduling.
    O1,
    /// + intra-block optimizations.
    O2,
    /// + global optimizations.
    O3,
    /// + global register allocation.
    O4,
}

impl OptLevel {
    /// All levels in Figure 4-8 order.
    pub const ALL: [OptLevel; 5] = [
        OptLevel::O0,
        OptLevel::O1,
        OptLevel::O2,
        OptLevel::O3,
        OptLevel::O4,
    ];

    /// Whether pipeline scheduling runs.
    #[must_use]
    pub fn scheduling(self) -> bool {
        self >= OptLevel::O1
    }

    /// Whether intra-block optimizations run.
    #[must_use]
    pub fn local(self) -> bool {
        self >= OptLevel::O2
    }

    /// Whether global optimizations run.
    #[must_use]
    pub fn global(self) -> bool {
        self >= OptLevel::O3
    }

    /// Whether variables are promoted to home registers.
    #[must_use]
    pub fn global_regs(self) -> bool {
        self >= OptLevel::O4
    }

    /// The Figure 4-8 x-axis label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            OptLevel::O0 => "none",
            OptLevel::O1 => "+scheduling",
            OptLevel::O2 => "+local opt",
            OptLevel::O3 => "+global opt",
            OptLevel::O4 => "+global reg alloc",
        }
    }
}

impl fmt::Display for OptLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Options for [`compile`].
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Optimization level (Figure 4-8 ladder).
    pub opt: OptLevel,
    /// Source-level loop unrolling, if any (Figure 4-6).
    pub unroll: Option<UnrollOptions>,
    /// Rebalance associative chains (implied by careful unrolling; the
    /// paper's reassociation requires "knowledge of operator associativity"
    /// and changes FP rounding, so it is opt-in).
    pub reassociate: bool,
    /// Register-file split between temporaries and home registers.
    pub split: RegisterSplit,
    /// The machine the pipeline scheduler targets.
    pub machine: MachineConfig,
    /// Run the `supersym-verify` static checks on the output: machine-
    /// description lint before compiling, schedule-legality check after
    /// scheduling, and program lint on the final code. Defaults to on in
    /// debug builds (where compile time is cheap and bugs are young) and
    /// off in release builds.
    pub verify: bool,
    /// The memory-disambiguation oracle the scheduler and the legality
    /// checker share (§4.4: scheduling quality hinges on how well memory
    /// references are disambiguated). Defaults to the symbolic oracle;
    /// [`OracleKind::Conservative`] reproduces the seed behaviour.
    pub oracle: OracleKind,
    /// Drive the optimizer's algebraic simplification and reassociation
    /// from the machine-verified rewrite-rule table (default). Off, the
    /// optimizer runs with an empty table — the ablation baseline for
    /// measuring what the synthesized rules buy.
    pub rules: bool,
    /// Translation validation: snapshot the IR before and after every
    /// optimizer pass and re-prove equivalence with
    /// [`supersym_verify::certify_pass`]. A pass that fails certification
    /// aborts compilation with [`PipelineError::Certify`] (exit code 3).
    /// Off by default — it is the paranoid mode behind `titalc certify`.
    pub certify: bool,
}

impl CompileOptions {
    /// Standard options: the given level, the paper's register split, no
    /// unrolling, scheduling for `machine`.
    #[must_use]
    pub fn new(opt: OptLevel, machine: &MachineConfig) -> Self {
        CompileOptions {
            opt,
            unroll: None,
            reassociate: false,
            split: machine.register_split(),
            machine: machine.clone(),
            verify: cfg!(debug_assertions),
            oracle: OracleKind::default(),
            rules: true,
            certify: false,
        }
    }

    /// Adds loop unrolling (careful unrolling also enables reassociation).
    #[must_use]
    pub fn with_unroll(mut self, unroll: UnrollOptions) -> Self {
        self.reassociate |= unroll.careful;
        self.unroll = Some(unroll);
        self
    }

    /// Overrides the register split.
    #[must_use]
    pub fn with_split(mut self, split: RegisterSplit) -> Self {
        self.split = split;
        self
    }

    /// Forces the static verification passes on or off (by default they
    /// follow `cfg!(debug_assertions)`).
    #[must_use]
    pub fn with_verify(mut self, verify: bool) -> Self {
        self.verify = verify;
        self
    }

    /// Picks the dependence oracle for scheduling and its legality check.
    #[must_use]
    pub fn with_oracle(mut self, oracle: OracleKind) -> Self {
        self.oracle = oracle;
        self
    }

    /// Enables or disables the verified rewrite-rule table (on by default;
    /// off is the rules-ablation baseline).
    #[must_use]
    pub fn with_rules(mut self, rules: bool) -> Self {
        self.rules = rules;
        self
    }

    /// Enables per-pass translation validation (see
    /// [`CompileOptions::certify`]).
    #[must_use]
    pub fn with_certify(mut self, certify: bool) -> Self {
        self.certify = certify;
        self
    }
}

/// Errors from [`compile`]: an alias for the unified pipeline taxonomy.
/// Compilation never produces the `Machine` or `Sim` variants.
pub type CompileError = PipelineError;

/// Compiles Tital source text to a machine program under `options`.
///
/// # Errors
///
/// Returns a [`CompileError`] for malformed source.
pub fn compile(source: &str, options: &CompileOptions) -> Result<Program, CompileError> {
    compile_traced(source, options, None, None)
}

/// Compiles with translation validation forced on and returns the
/// per-pass certificates alongside the program (the machinery behind
/// `titalc certify`).
///
/// # Errors
///
/// Returns a [`CompileError`] for malformed source, and
/// [`PipelineError::Certify`] when an optimizer pass cannot be proven
/// equivalence-preserving.
pub fn compile_certified(
    source: &str,
    options: &CompileOptions,
) -> Result<(Program, Vec<PassCertificate>), CompileError> {
    let options = options.clone().with_certify(true);
    let mut certificates = Vec::new();
    let program = compile_traced(source, &options, None, Some(&mut certificates))?;
    Ok((program, certificates))
}

/// Compiles like [`compile`] while recording one
/// [`PhaseRecord`] per pipeline phase to `sink`: wall time plus phase
/// counters (IR sizes after lowering, dependence-edge counts under both
/// oracles, scheduler movement, static code size).
///
/// The sink-free [`compile`] path takes the same code path; the per-phase
/// counters that are expensive to compute (dependence-edge census, the
/// unscheduled-program snapshot) are only computed when a sink is
/// attached.
///
/// # Errors
///
/// Returns a [`CompileError`] for malformed source.
pub fn compile_with_trace(
    source: &str,
    options: &CompileOptions,
    sink: &mut dyn TraceSink,
) -> Result<Program, CompileError> {
    compile_traced(source, options, Some(sink), None)
}

fn compile_traced(
    source: &str,
    options: &CompileOptions,
    mut sink: Option<&mut dyn TraceSink>,
    certificates: Option<&mut Vec<PassCertificate>>,
) -> Result<Program, CompileError> {
    let mut clock = PhaseClock::start();
    let ast = supersym_lang::parse(source).map_err(PipelineError::Parse)?;
    clock.emit(&mut sink, "parse", &[("source_bytes", source.len() as u64)]);
    supersym_lang::check(&ast).map_err(PipelineError::Check)?;
    clock.emit(&mut sink, "check", &[]);
    compile_ast_traced(ast, options, sink, certificates)
}

/// Compiles an already-checked AST (used when the caller transforms the
/// tree first).
///
/// # Errors
///
/// Returns a [`CompileError`] if lowering fails (undefined names — cannot
/// happen for checked modules).
pub fn compile_ast(
    ast: supersym_lang::ast::Module,
    options: &CompileOptions,
) -> Result<Program, CompileError> {
    compile_ast_traced(ast, options, None, None)
}

/// Tracks per-phase wall time. Reading the clock is a few nanoseconds, so
/// the sink-free path keeps it; only record emission is conditional.
struct PhaseClock {
    last: Instant,
    /// Time taken out of earlier phases for a later record to report.
    aside: Duration,
}

impl PhaseClock {
    fn start() -> Self {
        PhaseClock {
            last: Instant::now(),
            aside: Duration::ZERO,
        }
    }

    /// Takes `spent` out of the running phase: work done inside it that a
    /// later record reports as a phase of its own.
    fn set_aside(&mut self, spent: Duration) {
        self.last += spent;
        self.aside += spent;
    }

    /// Emits a record covering the time since the previous emit plus all
    /// the time set aside so far, so the records still sum to the total.
    fn emit_with_aside(
        &mut self,
        sink: &mut Option<&mut dyn TraceSink>,
        name: &str,
        counters: &[(&str, u64)],
    ) {
        self.last -= std::mem::take(&mut self.aside);
        self.emit(sink, name, counters);
    }

    /// Emits a phase record covering the time since the previous emit and
    /// restarts the clock.
    fn emit(
        &mut self,
        sink: &mut Option<&mut dyn TraceSink>,
        name: &str,
        counters: &[(&str, u64)],
    ) {
        let now = Instant::now();
        if let Some(sink) = sink.as_deref_mut() {
            sink.phase(&PhaseRecord {
                name,
                wall_ns: now.duration_since(self.last).as_nanos(),
                counters,
            });
        }
        self.last = now;
    }
}

/// Folds captured compile phases into a [`MetricsRegistry`]: the phase
/// count as `compile.phases` and every phase counter as
/// `compile.<phase>.<counter>` (dep-edge censuses, IR sizes, scheduler
/// movement). Wall times are deliberately left out — they are
/// nondeterministic, and the registry feeds the goldened `titalc stats`
/// document; per-phase wall time stays on the phase records themselves.
#[must_use]
pub fn phase_metrics(phases: &[OwnedPhase]) -> MetricsRegistry {
    let mut registry = MetricsRegistry::new();
    registry.counter("compile.phases", phases.len() as u64);
    for phase in phases {
        for (counter, value) in &phase.counters {
            registry.counter(format!("compile.{}.{}", phase.name, counter), *value);
        }
    }
    registry
}

/// Counts scheduling regions and dependence edges (under both oracles)
/// across a program — the scheduler's input size. Only run when tracing.
fn dependence_census(program: &Program) -> (u64, u64, u64) {
    let mut regions = 0_u64;
    let mut conservative = 0_u64;
    let mut symbolic = 0_u64;
    for function in program.functions() {
        for (start, end) in supersym_analyze::scheduling_regions(function) {
            regions += 1;
            let window = &function.instrs()[start..end];
            conservative +=
                supersym_analyze::dependence_edges(window, OracleKind::Conservative.as_oracle())
                    .len() as u64;
            symbolic += supersym_analyze::dependence_edges(window, OracleKind::Symbolic.as_oracle())
                .len() as u64;
        }
    }
    (regions, conservative, symbolic)
}

/// How many instructions the scheduler moved: positions whose instruction
/// differs between the unscheduled and scheduled program.
fn moved_instructions(before: &Program, after: &Program) -> u64 {
    let mut moved = 0_u64;
    for (a, b) in before.functions().iter().zip(after.functions()) {
        for (x, y) in a.instrs().iter().zip(b.instrs()) {
            if x != y {
                moved += 1;
            }
        }
    }
    moved
}

/// Snapshots the IR after every optimizer pass that reports a change and
/// re-proves each transition equivalent via the translation validator.
struct Certifier<'t> {
    table: &'t RuleTable,
    prev: Module,
    certificates: Vec<PassCertificate>,
    /// Wall time spent certifying since [`set_aside_certifier`] last took
    /// it out of the running phase.
    spent: Duration,
}

impl<'t> Certifier<'t> {
    fn new(table: &'t RuleTable, ir: &Module) -> Self {
        let start = Instant::now();
        let prev = ir.clone();
        Certifier {
            table,
            prev,
            certificates: Vec::new(),
            spent: start.elapsed(),
        }
    }

    /// How many certificates `method` proved.
    fn count(&self, method: CertMethod) -> u64 {
        self.certificates
            .iter()
            .filter(|c| c.method == Some(method))
            .count() as u64
    }
}

impl PassObserver for Certifier<'_> {
    fn after_pass(&mut self, pass: Pass, module: &Module) {
        let start = Instant::now();
        self.certificates.push(supersym_verify::certify_pass(
            &self.prev,
            module,
            pass.name(),
            self.table,
        ));
        self.prev = module.clone();
        self.spent += start.elapsed();
    }
}

fn as_observer<'a>(certifier: &'a mut Option<Certifier<'_>>) -> Option<&'a mut dyn PassObserver> {
    certifier.as_mut().map(|c| c as &mut dyn PassObserver)
}

/// Moves the certifier's time out of the optimizer phase it ran in; the
/// `certify` record reports it instead.
fn set_aside_certifier(clock: &mut PhaseClock, certifier: &mut Option<Certifier<'_>>) {
    if let Some(certifier) = certifier {
        clock.set_aside(std::mem::take(&mut certifier.spent));
    }
}

/// The machine-independent half of a compilation: the program as it stands
/// right before pipeline scheduling, plus the knobs the back half needs.
///
/// Everything up to and including `lower_program` depends only on the
/// source, the optimization level, the oracle and the register split —
/// never on issue width, pipelining degree, latencies or functional units.
/// A sweep therefore compiles each workload **once** per register split and
/// calls [`FrontArtifact::schedule_for`] once per machine: compile once,
/// execute once, time many. The identity `compile(s, o)` ==
/// `compile_front(s, o)?.schedule_for(&o.machine, o.verify)` is pinned by a
/// unit test below; `compile` itself is implemented as exactly that
/// composition.
#[derive(Debug, Clone)]
pub struct FrontArtifact {
    program: Program,
    opt: OptLevel,
    oracle: OracleKind,
    split: RegisterSplit,
    /// [`Self::fingerprint`], computed on first use.
    fingerprint: OnceLock<u64>,
}

impl FrontArtifact {
    /// The unscheduled program (immutable; scheduling clones it).
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The optimization level the front half ran at.
    #[must_use]
    pub fn opt(&self) -> OptLevel {
        self.opt
    }

    /// The dependence oracle scheduling will use.
    #[must_use]
    pub fn oracle(&self) -> OracleKind {
        self.oracle
    }

    /// The register split the allocator used.
    #[must_use]
    pub fn split(&self) -> RegisterSplit {
        self.split
    }

    /// A stable content hash of the unscheduled program (FNV-1a over its
    /// assembly rendering) — the program half of the sweep cache key.
    /// Rendered once per artifact; later calls return the kept value.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        *self
            .fingerprint
            .get_or_init(|| supersym_rng::fnv1a_64(self.program.to_string().as_bytes()))
    }

    /// Runs the machine-dependent back half: machine lint (under `verify`),
    /// pipeline scheduling, schedule legality check and program lint.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] if the machine fails its lint, the
    /// schedule checker finds a violation, or the scheduled program fails
    /// final validation.
    pub fn schedule_for(
        &self,
        machine: &MachineConfig,
        verify: bool,
    ) -> Result<Program, CompileError> {
        schedule_traced(
            self.program.clone(),
            self.opt,
            self.oracle,
            self.split,
            machine,
            verify,
            &mut None,
        )
    }
}

/// Compiles the machine-independent front half of the pipeline: source
/// through `lower_program`, stopping right before scheduling.
///
/// `options.machine` is ignored except through `options.split` (which
/// [`CompileOptions::new`] seeds from the machine); pass any placeholder
/// machine when sweeping.
///
/// # Errors
///
/// Returns a [`CompileError`] for malformed source or a starved register
/// split.
pub fn compile_front(
    source: &str,
    options: &CompileOptions,
) -> Result<FrontArtifact, CompileError> {
    let ast = supersym_lang::parse(source).map_err(PipelineError::Parse)?;
    supersym_lang::check(&ast).map_err(PipelineError::Check)?;
    front_ast_traced(ast, options, &mut None, None)
}

fn compile_ast_traced(
    ast: supersym_lang::ast::Module,
    options: &CompileOptions,
    mut sink: Option<&mut dyn TraceSink>,
    certificates: Option<&mut Vec<PassCertificate>>,
) -> Result<Program, CompileError> {
    let FrontArtifact {
        program,
        opt,
        oracle,
        split,
        ..
    } = front_ast_traced(ast, options, &mut sink, certificates)?;
    schedule_traced(
        program,
        opt,
        oracle,
        split,
        &options.machine,
        options.verify,
        &mut sink,
    )
}

fn front_ast_traced(
    mut ast: supersym_lang::ast::Module,
    options: &CompileOptions,
    sink: &mut Option<&mut dyn TraceSink>,
    certificates: Option<&mut Vec<PassCertificate>>,
) -> Result<FrontArtifact, CompileError> {
    let mut clock = PhaseClock::start();
    if let Some(unroll) = options.unroll {
        supersym_opt::unroll_loops(&mut ast, unroll);
        clock.emit(sink, "unroll", &[("factor", unroll.factor as u64)]);
    }
    let mut ir = supersym_ir::lower(&ast).map_err(PipelineError::Lower)?;
    ir.validate()?;
    clock.emit(
        sink,
        "lower",
        &[
            ("ir_funcs", ir.funcs.len() as u64),
            (
                "ir_insts",
                ir.funcs.iter().map(|f| f.inst_count() as u64).sum(),
            ),
        ],
    );
    let empty_table = RuleTable::empty();
    let table: &RuleTable = if options.rules {
        supersym_rules::default_table()
    } else {
        &empty_table
    };
    let mut certifier = options.certify.then(|| Certifier::new(table, &ir));
    if options.opt.local() {
        supersym_opt::run_local_observed(&mut ir, table, as_observer(&mut certifier));
        set_aside_certifier(&mut clock, &mut certifier);
        clock.emit(
            sink,
            "opt_local",
            &[(
                "ir_insts",
                ir.funcs.iter().map(|f| f.inst_count() as u64).sum(),
            )],
        );
    }
    if options.opt.global() {
        supersym_opt::run_global_observed(&mut ir, table, as_observer(&mut certifier));
        set_aside_certifier(&mut clock, &mut certifier);
        clock.emit(
            sink,
            "opt_global",
            &[(
                "ir_insts",
                ir.funcs.iter().map(|f| f.inst_count() as u64).sum(),
            )],
        );
    }
    if options.reassociate {
        supersym_opt::reassociate_observed(&mut ir, table, as_observer(&mut certifier));
        if options.opt.local() {
            supersym_opt::run_local_observed(&mut ir, table, as_observer(&mut certifier));
        }
        set_aside_certifier(&mut clock, &mut certifier);
        clock.emit(sink, "reassociate", &[]);
    }
    if let Some(certifier) = certifier {
        let errors: Vec<Diagnostic> = certifier
            .certificates
            .iter()
            .flat_map(|c| c.diagnostics.iter())
            .filter(|d| d.is_error())
            .cloned()
            .collect();
        clock.emit_with_aside(
            sink,
            "certify",
            &[
                ("passes", certifier.certificates.len() as u64),
                ("structural", certifier.count(CertMethod::Structural)),
                ("differential", certifier.count(CertMethod::Differential)),
            ],
        );
        if let Some(out) = certificates {
            out.extend(certifier.certificates);
        }
        if !errors.is_empty() {
            return Err(PipelineError::Certify(errors));
        }
    }
    // Sharpen element-access origins with the dataflow analyses (constant
    // index upgrades, linear index recovery): purely better annotations,
    // consumed by the back end's alias tagging and the dependence oracle.
    // Gated with the symbolic oracle so `OracleKind::Conservative` stays a
    // faithful ablation baseline: annotations exactly as the front end
    // wrote them, dependence edges exactly as the seed scheduler saw them.
    if options.oracle == OracleKind::Symbolic {
        supersym_analyze::sharpen_origins(&mut ir);
        clock.emit(sink, "sharpen_origins", &[]);
    }
    supersym_codegen::split_live_across_calls(&mut ir);
    ir.validate()?;
    clock.emit(sink, "split_live", &[]);
    let homes = supersym_regalloc::allocate(&ir, options.split, options.opt.global_regs());
    clock.emit(
        sink,
        "regalloc",
        &[
            ("int_temps", homes.int_temps().len() as u64),
            ("fp_temps", homes.fp_temps().len() as u64),
        ],
    );
    // An overridden split can starve the back end of expression
    // temporaries; surface that as a typed error instead of tripping
    // `lower_program`'s assert.
    let min = supersym_codegen::MIN_TEMP_REGS;
    if homes.int_temps().len() < min || homes.fp_temps().len() < min {
        return Err(PipelineError::RegisterSplit {
            int_temps: homes.int_temps().len(),
            fp_temps: homes.fp_temps().len(),
        });
    }
    let program = supersym_codegen::lower_program(&ir, &homes);
    clock.emit(
        sink,
        "lower_program",
        &[("static_size", program.static_size() as u64)],
    );
    Ok(FrontArtifact {
        program,
        opt: options.opt,
        oracle: options.oracle,
        split: options.split,
        fingerprint: OnceLock::new(),
    })
}

/// The machine-dependent back half: machine lint, pipeline scheduling with
/// its legality check, program lint, and final validation. Everything here
/// may run many times against one [`FrontArtifact`] — once per grid cell in
/// a sweep.
fn schedule_traced(
    mut program: Program,
    opt: OptLevel,
    oracle_kind: OracleKind,
    split: RegisterSplit,
    machine: &MachineConfig,
    verify: bool,
    sink: &mut Option<&mut dyn TraceSink>,
) -> Result<Program, CompileError> {
    let mut clock = PhaseClock::start();
    if verify {
        fail_on_errors(supersym_verify::lint_machine(machine))?;
        clock.emit(sink, "lint_machine", &[]);
    }
    if opt.scheduling() {
        let oracle = oracle_kind.as_loop_oracle();
        // The dependence census is the scheduler's input size under both
        // oracles; it is only worth computing when someone is listening.
        let census = if sink.is_some() {
            dependence_census(&program)
        } else {
            Default::default()
        };
        let unscheduled = (verify || sink.is_some()).then(|| program.clone());
        supersym_codegen::schedule_program_with(&mut program, machine, oracle);
        let moved = unscheduled
            .as_ref()
            .filter(|_| sink.is_some())
            .map_or(0, |before| moved_instructions(before, &program));
        clock.emit(
            sink,
            "schedule",
            &[
                ("regions", census.0),
                ("dep_edges_conservative", census.1),
                ("dep_edges_symbolic", census.2),
                ("moved_instructions", moved),
            ],
        );
        if verify {
            if let Some(before) = unscheduled {
                let violations = supersym_verify::check_schedule_with(&before, &program, oracle);
                fail_on_errors(violations.iter().map(|v| v.to_diagnostic()).collect())?;
                clock.emit(sink, "check_schedule", &[]);
            }
        }
    }
    if verify {
        // The split check needs the split the allocator actually used; it
        // is skipped when an override makes the machine's own split stale.
        let machine_for_lint = (split == machine.register_split()).then_some(machine);
        fail_on_errors(supersym_verify::lint_program(&program, machine_for_lint))?;
        clock.emit(sink, "lint_program", &[]);
    }
    // A scheduler bug that breaks a structural invariant (dangling label,
    // bad call target) must surface as a typed error, not a debug-only
    // assert: sweeps run release builds against arbitrary grid cells.
    program.validate().map_err(|e| {
        PipelineError::Verify(vec![Diagnostic::error(
            "post-validate",
            format!("scheduled program failed validation: {e}"),
        )])
    })?;
    Ok(program)
}

/// Promotes error-severity diagnostics to a [`PipelineError::Verify`];
/// warnings are dropped (compiled code is allowed to look suspicious, just
/// not to be wrong).
fn fail_on_errors(diagnostics: Vec<Diagnostic>) -> Result<(), CompileError> {
    let errors: Vec<Diagnostic> = diagnostics
        .into_iter()
        .filter(Diagnostic::is_error)
        .collect();
    if errors.is_empty() {
        Ok(())
    } else {
        Err(PipelineError::Verify(errors))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supersym_machine::presets;
    use supersym_sim::{simulate, SimOptions};

    const PROGRAM: &str = "
        global arr a[32];
        global var checksum;
        fn fill(int n) {
            for (i = 0; i < n; i = i + 1) { a[i] = i * 3 + 1; }
        }
        fn sum(int n) -> int {
            var s = 0;
            for (i = 0; i < n; i = i + 1) { s = s + a[i]; }
            return s;
        }
        fn main() -> int {
            fill(32);
            checksum = sum(32);
            return checksum;
        }";

    fn run(options: &CompileOptions) -> i64 {
        let program = compile(PROGRAM, options).unwrap();
        program.validate().unwrap();
        let mut exec =
            supersym_sim::Executor::new(&program, supersym_sim::ExecOptions::default()).unwrap();
        exec.run().unwrap();
        exec.int_reg(supersym_isa::IntReg::new(1).unwrap())
    }

    /// 32 terms of 3i+1: 3*(31*32/2) + 32 = 1520.
    const EXPECTED: i64 = 1520;

    #[test]
    fn all_opt_levels_agree() {
        let machine = presets::ideal_superscalar(4);
        for level in OptLevel::ALL {
            let result = run(&CompileOptions::new(level, &machine));
            assert_eq!(result, EXPECTED, "wrong checksum at {level}");
        }
    }

    #[test]
    fn unrolling_preserves_semantics() {
        let machine = presets::multititan();
        for factor in [2, 3, 4, 10] {
            for careful in [false, true] {
                let options = CompileOptions::new(OptLevel::O4, &machine)
                    .with_unroll(UnrollOptions { factor, careful });
                assert_eq!(run(&options), EXPECTED, "factor {factor} careful {careful}");
            }
        }
    }

    #[test]
    fn machines_do_not_change_results() {
        for machine in [
            presets::base(),
            presets::superpipelined(4),
            presets::cray1(),
            presets::superscalar_with_class_conflicts(4),
        ] {
            let result = run(&CompileOptions::new(OptLevel::O4, &machine));
            assert_eq!(result, EXPECTED, "machine {}", machine.name());
        }
    }

    #[test]
    fn optimization_reduces_work() {
        let machine = presets::base();
        let baseline = compile(PROGRAM, &CompileOptions::new(OptLevel::O0, &machine)).unwrap();
        let optimized = compile(PROGRAM, &CompileOptions::new(OptLevel::O4, &machine)).unwrap();
        let base_report = simulate(&baseline, &machine, SimOptions::default()).unwrap();
        let opt_report = simulate(&optimized, &machine, SimOptions::default()).unwrap();
        assert!(
            opt_report.instructions() < base_report.instructions(),
            "O4 {} vs O0 {}",
            opt_report.instructions(),
            base_report.instructions()
        );
    }

    #[test]
    fn scheduling_helps_on_latency_machine() {
        let machine = presets::multititan();
        let unscheduled = compile(PROGRAM, &CompileOptions::new(OptLevel::O0, &machine)).unwrap();
        let scheduled = compile(PROGRAM, &CompileOptions::new(OptLevel::O1, &machine)).unwrap();
        let a = simulate(&unscheduled, &machine, SimOptions::default()).unwrap();
        let b = simulate(&scheduled, &machine, SimOptions::default()).unwrap();
        // Same instruction stream, better order.
        assert_eq!(a.instructions(), b.instructions());
        assert!(b.base_cycles() <= a.base_cycles());
    }

    #[test]
    fn oracles_agree_on_results() {
        // The symbolic oracle may reorder more, never compute differently.
        let machine = presets::multititan();
        for kind in [OracleKind::Conservative, OracleKind::Symbolic] {
            let options = CompileOptions::new(OptLevel::O4, &machine).with_oracle(kind);
            assert_eq!(run(&options), EXPECTED, "oracle {kind:?}");
        }
    }

    #[test]
    fn errors_are_reported() {
        let machine = presets::base();
        let err = compile(
            "fn main() { x = 1; }",
            &CompileOptions::new(OptLevel::O0, &machine),
        )
        .unwrap_err();
        assert!(matches!(err, PipelineError::Check(_)));
        assert!(err.to_string().contains("check error"));
        assert_eq!(err.exit_code(), 2);

        let err = compile("fn main( {", &CompileOptions::new(OptLevel::O0, &machine)).unwrap_err();
        assert!(matches!(err, PipelineError::Parse(_)));
    }

    #[test]
    fn undersized_split_is_typed_error() {
        let machine = presets::base();
        let split = supersym_machine::RegisterSplit {
            int_temps: 2,
            int_globals: 0,
            fp_temps: 2,
            fp_globals: 0,
        };
        let err = compile(
            "fn main() -> int { return 1 + 2 * 3; }",
            &CompileOptions::new(OptLevel::O4, &machine).with_split(split),
        )
        .unwrap_err();
        assert!(
            matches!(err, PipelineError::RegisterSplit { .. }),
            "got {err}"
        );
        assert_eq!(err.exit_code(), 3);
    }

    #[test]
    fn certification_covers_the_whole_pipeline() {
        let machine = presets::multititan();
        let options = CompileOptions::new(OptLevel::O4, &machine).with_unroll(UnrollOptions {
            factor: 2,
            careful: true,
        });
        let (program, certificates) = compile_certified(PROGRAM, &options).unwrap();
        assert!(program.static_size() > 0);
        assert!(!certificates.is_empty(), "passes must have run");
        for cert in &certificates {
            assert!(cert.is_certified(), "{cert:?}");
        }
        // Certification must not change the output program.
        let plain = compile(PROGRAM, &options).unwrap();
        assert_eq!(plain, program);
    }

    #[test]
    fn rules_ablation_preserves_results() {
        let machine = presets::base();
        for rules in [true, false] {
            let options = CompileOptions::new(OptLevel::O4, &machine).with_rules(rules);
            assert_eq!(run(&options), EXPECTED, "rules {rules}");
        }
    }

    #[test]
    fn trace_records_the_pipeline_phases() {
        let machine = presets::multititan();
        let options = CompileOptions::new(OptLevel::O4, &machine)
            .with_unroll(UnrollOptions {
                factor: 2,
                careful: true,
            })
            .with_verify(true);
        let mut sink = supersym_trace::MemorySink::default();
        let program = compile_with_trace(PROGRAM, &options, &mut sink).unwrap();
        assert!(program.static_size() > 0);
        let names: Vec<&str> = sink.phases.iter().map(|p| p.name.as_str()).collect();
        for expected in [
            "parse",
            "check",
            "unroll",
            "lower",
            "opt_local",
            "opt_global",
            "reassociate",
            "sharpen_origins",
            "regalloc",
            "lower_program",
            "schedule",
            "lint_program",
        ] {
            assert!(
                names.contains(&expected),
                "missing phase {expected}: {names:?}"
            );
        }
        // Phases arrive in pipeline order.
        let parse = names.iter().position(|n| *n == "parse").unwrap();
        let schedule = names.iter().position(|n| *n == "schedule").unwrap();
        assert!(parse < schedule);
        // The schedule phase carries the scheduler's input size.
        let schedule_phase = &sink.phases[schedule];
        let counter = |key: &str| {
            schedule_phase
                .counters
                .iter()
                .find(|(k, _)| k.as_str() == key)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert!(counter("regions") > 0);
        assert!(counter("dep_edges_conservative") >= counter("dep_edges_symbolic"));
        assert!(counter("moved_instructions") > 0);
    }

    #[test]
    fn certify_record_owns_the_certifiers_time() {
        let machine = presets::multititan();
        let options = CompileOptions::new(OptLevel::O4, &machine)
            .with_unroll(UnrollOptions {
                factor: 2,
                careful: true,
            })
            .with_certify(true);
        let mut sink = supersym_trace::MemorySink::default();
        let start = Instant::now();
        compile_with_trace(PROGRAM, &options, &mut sink).unwrap();
        let total = start.elapsed().as_nanos();
        let certify = sink.phases.iter().find(|p| p.name == "certify").unwrap();
        let counter = |key: &str| {
            certify
                .counters
                .iter()
                .find(|(k, _)| k.as_str() == key)
                .map(|(_, v)| *v)
                .unwrap()
        };
        let (_, certificates) = compile_certified(PROGRAM, &options).unwrap();
        let count = |method| {
            certificates
                .iter()
                .filter(|c| c.method == Some(method))
                .count() as u64
        };
        assert_eq!(counter("passes"), certificates.len() as u64);
        assert_eq!(counter("structural"), count(CertMethod::Structural));
        assert_eq!(counter("differential"), count(CertMethod::Differential));
        assert!(counter("passes") > 0);
        assert!(certify.wall_ns > 0);
        // The certifier's time moved out of the optimizer phases rather
        // than being counted twice, so the phases still fit the compile.
        let phases: u128 = sink.phases.iter().map(|p| p.wall_ns).sum();
        assert!(phases <= total, "phases {phases} ns > compile {total} ns");
    }

    #[test]
    fn trace_free_compilation_is_identical() {
        let machine = presets::multititan();
        let options = CompileOptions::new(OptLevel::O4, &machine);
        let mut sink = supersym_trace::MemorySink::default();
        let plain = compile(PROGRAM, &options).unwrap();
        let traced = compile_with_trace(PROGRAM, &options, &mut sink).unwrap();
        assert_eq!(plain, traced, "tracing must not change the output program");
    }

    #[test]
    fn front_plus_schedule_equals_compile() {
        // The sweep engine's compile-once/schedule-many contract: splitting
        // the pipeline at the scheduling boundary is invisible.
        for machine in [
            presets::base(),
            presets::multititan(),
            presets::superscalar_with_class_conflicts(4),
        ] {
            for level in [OptLevel::O0, OptLevel::O1, OptLevel::O4] {
                let options = CompileOptions::new(level, &machine).with_verify(true);
                let whole = compile(PROGRAM, &options).unwrap();
                let artifact = compile_front(PROGRAM, &options).unwrap();
                let split = artifact.schedule_for(&machine, true).unwrap();
                assert_eq!(whole, split, "machine {} level {level}", machine.name());
            }
        }
    }

    #[test]
    fn front_artifact_fingerprint_is_machine_independent() {
        let options_a = CompileOptions::new(OptLevel::O4, &presets::base());
        let options_b = CompileOptions::new(OptLevel::O4, &presets::multititan());
        let a = compile_front(PROGRAM, &options_a).unwrap();
        let b = compile_front(PROGRAM, &options_b).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let other = compile_front("fn main() -> int { return 7; }", &options_a).unwrap();
        assert_ne!(a.fingerprint(), other.fingerprint());
    }

    #[test]
    fn opt_level_ladder() {
        assert!(!OptLevel::O0.scheduling());
        assert!(OptLevel::O1.scheduling());
        assert!(!OptLevel::O1.local());
        assert!(OptLevel::O2.local());
        assert!(!OptLevel::O2.global());
        assert!(OptLevel::O3.global());
        assert!(!OptLevel::O3.global_regs());
        assert!(OptLevel::O4.global_regs());
    }
}
