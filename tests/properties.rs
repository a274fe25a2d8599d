//! Property-based tests: randomly generated Tital programs must behave
//! identically at every optimization level, under unrolling, and on every
//! machine; the timing model must satisfy its structural invariants on
//! arbitrary instruction streams; and the pipeline scheduler's output must
//! pass the independent `supersym-verify` legality checker.
//!
//! The generators are driven by the workspace's shared SplitMix64
//! ([`supersym::rng`] — the container builds offline, so no proptest):
//! each test loops over a fixed set of seeds, and every failure message
//! includes the seed for replay.

use supersym::lang::ast::{BinOp, Block, Expr, FnDecl, GlobalDecl, GlobalKind, Module, Stmt, Ty};
use supersym::machine::presets;
use supersym::opt::UnrollOptions;
use supersym::rng::SplitMix64;
use supersym::sim::{ExecOptions, Executor, SimOptions};
use supersym::verify::CertMethod;
use supersym::{compile_ast, CompileOptions, OptLevel};

// ---------------------------------------------------------------------------
// Deterministic RNG (the shared splitmix64, with test-local conveniences)
// ---------------------------------------------------------------------------

/// Test-local conveniences over the shared [`SplitMix64`] stream.
struct Rng(SplitMix64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(SplitMix64::new(seed))
    }

    fn next(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Uniform in `0..n` (modulo bias is irrelevant at test scale).
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `lo..hi`.
    fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo) as u64) as i64
    }

    fn coin(&mut self) -> bool {
        self.next() & 1 == 0
    }
}

// ---------------------------------------------------------------------------
// Random-program generator
// ---------------------------------------------------------------------------

/// Generates a random — but always well-defined — Tital program. Array
/// indices are masked into range, integer division/remainder and shifts
/// are total by language definition, and only integer arithmetic feeds the
/// checksum, so every generated program has one deterministic result at
/// every optimization level.
struct Gen {
    rng: Rng,
    depth_budget: u32,
}

impl Gen {
    fn new(seed: u64) -> Self {
        Gen {
            rng: Rng::new(seed),
            depth_budget: 300,
        }
    }

    fn var(&mut self) -> String {
        format!("g{}", self.rng.below(4))
    }

    fn arr(&mut self) -> String {
        if self.rng.coin() {
            "a".to_string()
        } else {
            "b".to_string()
        }
    }

    fn expr(&mut self, depth: u32) -> Expr {
        self.depth_budget = self.depth_budget.saturating_sub(1);
        if depth == 0 || self.depth_budget == 0 {
            return match self.rng.below(3) {
                0 => Expr::IntLit(self.rng.range_i64(-30, 30)),
                1 => Expr::Var(self.var()),
                _ => Expr::Elem {
                    arr: self.arr(),
                    index: Box::new(self.masked_index(0)),
                },
            };
        }
        match self.rng.below(8) {
            0 => Expr::IntLit(self.rng.range_i64(-100, 100)),
            1 => Expr::Var(self.var()),
            2 => Expr::Elem {
                arr: self.arr(),
                index: Box::new(self.masked_index(depth - 1)),
            },
            _ => {
                let op = [
                    BinOp::Add,
                    BinOp::Sub,
                    BinOp::Mul,
                    BinOp::Div,
                    BinOp::Rem,
                    BinOp::And,
                    BinOp::Or,
                    BinOp::Xor,
                    BinOp::Lt,
                    BinOp::Eq,
                ][self.rng.below(10) as usize];
                Expr::binary(op, self.expr(depth - 1), self.expr(depth - 1))
            }
        }
    }

    /// An index expression guaranteed to land in `0..16`.
    fn masked_index(&mut self, depth: u32) -> Expr {
        Expr::binary(BinOp::And, self.expr(depth), Expr::IntLit(15))
    }

    fn stmt(&mut self, depth: u32) -> Stmt {
        self.depth_budget = self.depth_budget.saturating_sub(1);
        let choice = if depth == 0 || self.depth_budget == 0 {
            self.rng.below(2)
        } else {
            self.rng.below(5)
        };
        match choice {
            0 => Stmt::Assign {
                name: self.var(),
                value: self.expr(2),
            },
            1 => Stmt::AssignElem {
                arr: self.arr(),
                index: self.masked_index(1),
                value: self.expr(2),
            },
            2 => Stmt::If {
                cond: self.expr(2),
                then_blk: self.block(depth - 1),
                else_blk: if self.rng.coin() {
                    Some(self.block(depth - 1))
                } else {
                    None
                },
            },
            3 => {
                // A counted loop in canonical form so the unroller sees it.
                let trips = self.rng.range_i64(1, 9);
                let var = format!("i{}", self.rng.below(100));
                Stmt::For {
                    cond: Expr::binary(BinOp::Lt, Expr::Var(var.clone()), Expr::IntLit(trips)),
                    var,
                    init: Expr::IntLit(0),
                    step: 1,
                    body: self.block(depth - 1),
                }
            }
            _ => Stmt::Assign {
                name: self.var(),
                value: self.expr(3),
            },
        }
    }

    fn block(&mut self, depth: u32) -> Block {
        let n = 1 + self.rng.below(3);
        Block {
            stmts: (0..n).map(|_| self.stmt(depth)).collect(),
        }
    }

    fn module(&mut self) -> Module {
        let mut body = self.block(3);
        // Checksum over everything observable.
        let mut sum = Expr::Var("g0".into());
        for name in ["g1", "g2", "g3"] {
            sum = Expr::binary(BinOp::Add, sum, Expr::Var(name.into()));
        }
        for arr in ["a", "b"] {
            for k in 0..16 {
                sum = Expr::binary(
                    BinOp::Add,
                    sum,
                    Expr::binary(
                        BinOp::Mul,
                        Expr::Elem {
                            arr: arr.into(),
                            index: Box::new(Expr::IntLit(k)),
                        },
                        Expr::IntLit(k + 1),
                    ),
                );
            }
        }
        body.stmts.push(Stmt::Return(Some(sum)));
        Module {
            globals: vec![
                GlobalDecl {
                    name: "a".into(),
                    ty: Ty::Int,
                    kind: GlobalKind::Array { len: 16 },
                },
                GlobalDecl {
                    name: "b".into(),
                    ty: Ty::Int,
                    kind: GlobalKind::Array { len: 16 },
                },
                GlobalDecl {
                    name: "g0".into(),
                    ty: Ty::Int,
                    kind: GlobalKind::Scalar { init: Some(3.0) },
                },
                GlobalDecl {
                    name: "g1".into(),
                    ty: Ty::Int,
                    kind: GlobalKind::Scalar { init: Some(-7.0) },
                },
                GlobalDecl {
                    name: "g2".into(),
                    ty: Ty::Int,
                    kind: GlobalKind::Scalar { init: None },
                },
                GlobalDecl {
                    name: "g3".into(),
                    ty: Ty::Int,
                    kind: GlobalKind::Scalar { init: Some(1.0) },
                },
            ],
            funcs: vec![FnDecl {
                name: "main".into(),
                params: vec![],
                ret: Some(Ty::Int),
                body,
            }],
        }
    }
}

fn run(ast: Module, options: &CompileOptions) -> i64 {
    let program = compile_ast(ast, options).expect("generated programs compile");
    program.validate().expect("generated programs are valid");
    let mut exec = Executor::new(
        &program,
        ExecOptions {
            max_steps: 5_000_000,
            ..ExecOptions::default()
        },
    )
    .expect("program loads");
    exec.run().expect("generated programs terminate");
    exec.int_reg(supersym::isa::IntReg::new(1).unwrap())
}

const AST_SEEDS: std::ops::Range<u64> = 0..24;

/// Optimization levels never change results.
#[test]
fn opt_levels_preserve_semantics() {
    for seed in AST_SEEDS {
        let ast = Gen::new(seed).module();
        supersym::lang::check(&ast).expect("generated programs type check");
        let machine = presets::multititan();
        let reference = run(ast.clone(), &CompileOptions::new(OptLevel::O0, &machine));
        for level in OptLevel::ALL {
            let result = run(ast.clone(), &CompileOptions::new(level, &machine));
            assert_eq!(result, reference, "seed {seed}: level {level} diverged");
        }
    }
}

/// Scheduling for any machine never changes results.
#[test]
fn machines_preserve_semantics() {
    for seed in AST_SEEDS {
        let ast = Gen::new(seed).module();
        supersym::lang::check(&ast).expect("generated programs type check");
        let reference = run(
            ast.clone(),
            &CompileOptions::new(OptLevel::O4, &presets::base()),
        );
        for machine in [
            presets::cray1(),
            presets::ideal_superscalar(8),
            presets::superpipelined(4),
            presets::superscalar_with_class_conflicts(2),
        ] {
            let result = run(ast.clone(), &CompileOptions::new(OptLevel::O4, &machine));
            assert_eq!(
                result,
                reference,
                "seed {seed}: machine {} diverged",
                machine.name()
            );
        }
    }
}

/// Loop unrolling (both flavors, several factors) never changes the
/// results of integer programs.
#[test]
fn unrolling_preserves_semantics() {
    for seed in AST_SEEDS {
        let ast = Gen::new(seed).module();
        supersym::lang::check(&ast).expect("generated programs type check");
        let machine = presets::multititan();
        let reference = run(ast.clone(), &CompileOptions::new(OptLevel::O4, &machine));
        for unroll in [
            UnrollOptions::naive(2),
            UnrollOptions::naive(5),
            UnrollOptions::careful(2),
            UnrollOptions::careful(5),
        ] {
            let options = CompileOptions::new(OptLevel::O4, &machine).with_unroll(unroll);
            let result = run(ast.clone(), &options);
            assert_eq!(result, reference, "seed {seed}: {unroll:?} diverged");
        }
    }
}

/// Timing-model invariants on arbitrary instruction streams: issue
/// times never decrease, completions respect latencies, and no cycle
/// issues more than the machine width.
#[test]
fn timing_model_invariants() {
    use supersym::isa::{FpReg, InstrClass, IntReg, Reg};
    use supersym::sim::{ControlEvent, StepInfo, TimingModel};
    for seed in 0..24_u64 {
        let width = 1 + (seed % 5) as u32;
        let degree = 1 + (seed / 5 % 4) as u32;
        let machine = presets::superpipelined_superscalar(width, degree);
        let mut timing = TimingModel::new(&machine, 64);
        let mut rng = Rng::new(seed);
        let mut last_issue = 0_u64;
        let mut issued_at: std::collections::HashMap<u64, u32> = Default::default();
        for pc in 0..200_usize {
            let class = InstrClass::ALL[rng.below(supersym::isa::NUM_CLASSES as u64) as usize];
            let def = if class.is_memory() || class.is_control() {
                None
            } else if class.index() >= InstrClass::FpAdd.index() {
                Some(Reg::Fp(FpReg::new_unchecked(1 + rng.below(15) as u8)))
            } else {
                Some(Reg::Int(IntReg::new_unchecked(1 + rng.below(15) as u8)))
            };
            let mem = class
                .is_memory()
                .then(|| (rng.below(64) as usize, class == InstrClass::Store));
            let control = if class == InstrClass::Branch {
                ControlEvent::Branch { taken: rng.coin() }
            } else {
                ControlEvent::None
            };
            let info = StepInfo {
                func: supersym::isa::FuncId::new(0),
                pc,
                class,
                uses: Default::default(),
                def,
                mem,
                vlen: 0,
                control,
            };
            let record = timing.issue(&info);
            assert!(
                record.issue >= last_issue,
                "seed {seed}: issue went backwards"
            );
            assert!(
                record.complete >= record.issue + u64::from(machine.latency(class)),
                "seed {seed}: completion violates latency"
            );
            let count = issued_at.entry(record.issue).or_insert(0);
            *count += 1;
            assert!(
                *count <= width,
                "seed {seed}: cycle {} over width",
                record.issue
            );
            last_issue = record.issue;
        }
        assert_eq!(timing.instructions(), 200);
    }
}

/// The cache never reports more misses than accesses, and a repeated
/// access pattern has a lower miss rate than its first pass.
#[test]
fn cache_invariants() {
    use supersym::sim::{Cache, CacheConfig};
    for seed in 0..24_u64 {
        let ways = 1 + (seed % 3) as usize;
        let mut rng = Rng::new(seed);
        let mut cache = Cache::new(CacheConfig {
            lines: 16 * ways,
            words_per_line: 4,
            associativity: ways,
        });
        let pattern: Vec<u64> = (0..256).map(|_| rng.below(4096)).collect();
        for &addr in &pattern {
            cache.access(addr);
        }
        let first = cache.stats();
        assert!(first.misses <= first.accesses, "seed {seed}");
        for &addr in &pattern {
            cache.access(addr);
        }
        let second = cache.stats();
        let second_pass_misses = second.misses - first.misses;
        assert!(second_pass_misses <= first.misses, "seed {seed}");
    }
}

/// Printing an AST and re-parsing it yields a semantically identical
/// program (the printer is a fixed point of print-parse-print), even
/// after the loop unroller has rewritten the tree.
#[test]
fn print_parse_roundtrip() {
    for seed in AST_SEEDS {
        let ast = Gen::new(seed).module();
        let printed = supersym::lang::print_module(&ast);
        let reparsed = supersym::lang::parse(&printed).unwrap_or_else(|e| {
            panic!("seed {seed}: printed program failed to parse: {e}\n{printed}")
        });
        let reprinted = supersym::lang::print_module(&reparsed);
        assert_eq!(&printed, &reprinted, "seed {seed}");
        // And the reparsed tree runs to the same checksum.
        supersym::lang::check(&reparsed).expect("printed programs type check");
        let machine = presets::base();
        let a = run(ast, &CompileOptions::new(OptLevel::O2, &machine));
        let b = run(reparsed, &CompileOptions::new(OptLevel::O2, &machine));
        assert_eq!(a, b, "seed {seed}");
        // Unrolled trees print and reparse too.
        let mut unrolled = Gen::new(seed).module();
        supersym::opt::unroll_loops(&mut unrolled, UnrollOptions::careful(3));
        let printed = supersym::lang::print_module(&unrolled);
        supersym::lang::parse(&printed).unwrap_or_else(|e| {
            panic!("seed {seed}: unrolled program failed to parse: {e}\n{printed}")
        });
    }
}

/// Simulating the same program twice is deterministic.
#[test]
fn simulation_is_deterministic() {
    for seed in AST_SEEDS {
        let ast = Gen::new(seed).module();
        supersym::lang::check(&ast).expect("generated programs type check");
        let machine = presets::cray1();
        let program = compile_ast(ast, &CompileOptions::new(OptLevel::O4, &machine)).unwrap();
        let a = supersym::sim::simulate(&program, &machine, SimOptions::default()).unwrap();
        let b = supersym::sim::simulate(&program, &machine, SimOptions::default()).unwrap();
        assert_eq!(a.machine_cycles(), b.machine_cycles(), "seed {seed}");
        assert_eq!(a.instructions(), b.instructions(), "seed {seed}");
    }
}

/// The whole pipeline is deterministic end to end: compiling and
/// simulating the same workload twice — two fully independent pipeline
/// runs, not two simulations of one compiled program — yields
/// byte-identical scheduled code and byte-identical reports, on every
/// paper preset. This is the torture harness's run-to-run contract,
/// pinned as a property test over real machines rather than mutants.
#[test]
fn pipeline_is_deterministic_end_to_end() {
    let workload = supersym::workloads::suite(supersym::workloads::Size::Small)
        .into_iter()
        .next()
        .expect("suite is non-empty");
    for machine in presets::study() {
        let fingerprint = || {
            let options = CompileOptions::new(OptLevel::O4, &machine).with_verify(true);
            let program = supersym::compile(&workload.source, &options)
                .unwrap_or_else(|e| panic!("{}: {e}", machine.name()));
            let report =
                supersym::sim::simulate(&program, &machine, SimOptions::default()).unwrap();
            format!(
                "{program}\n{} {} {} {:?} {:?}",
                report.machine(),
                report.instructions(),
                report.machine_cycles(),
                report.base_cycles(),
                report.census()
            )
        };
        assert_eq!(fingerprint(), fingerprint(), "{}", machine.name());
    }
}

// ---------------------------------------------------------------------------
// IR-level and assembly-level properties
// ---------------------------------------------------------------------------

/// Builds a random single-block IR function over scalars, an array and
/// straight-line arithmetic (every operation total, indices masked), plus
/// the module around it.
fn random_ir_module(seed: u64) -> supersym::ir::Module {
    use supersym::ir::{
        Block, Function, GlobalId, GlobalInfo, GlobalKind, Inst, IntBinOp, Module, Terminator,
        VReg, VarRef,
    };
    use supersym::lang::ast::Ty;
    let mut rng = Rng::new(seed);
    let mut func = Function {
        name: "main".into(),
        vars: Vec::new(),
        ret: Some(Ty::Int),
        blocks: Vec::new(),
        vreg_tys: Vec::new(),
    };
    for k in 0..4 {
        func.new_local(format!("l{k}"), Ty::Int);
    }
    let mut insts: Vec<Inst> = Vec::new();
    let mut defined: Vec<VReg> = Vec::new();
    // Seed a few constants.
    for _ in 0..4 {
        let dst = func.new_vreg(Ty::Int);
        insts.push(Inst::ConstInt {
            dst,
            value: rng.range_i64(-50, 50),
        });
        defined.push(dst);
    }
    let n = rng.range_i64(10, 60);
    for _ in 0..n {
        match rng.below(10) {
            0 => {
                let dst = func.new_vreg(Ty::Int);
                insts.push(Inst::ConstInt {
                    dst,
                    value: rng.range_i64(-100, 100),
                });
                defined.push(dst);
            }
            1 | 2 => {
                let dst = func.new_vreg(Ty::Int);
                let var = if rng.coin() {
                    VarRef::Local(supersym::ir::LocalId(rng.below(4) as u32))
                } else {
                    VarRef::Global(GlobalId(rng.below(2) as u32))
                };
                insts.push(Inst::ReadVar { dst, var });
                defined.push(dst);
            }
            3 => {
                let var = if rng.coin() {
                    VarRef::Local(supersym::ir::LocalId(rng.below(4) as u32))
                } else {
                    VarRef::Global(GlobalId(rng.below(2) as u32))
                };
                let src = defined[rng.below(defined.len() as u64) as usize];
                insts.push(Inst::WriteVar { var, src });
            }
            4 => {
                // Masked array read: index = some_vreg & 15.
                let raw = defined[rng.below(defined.len() as u64) as usize];
                let mask = func.new_vreg(Ty::Int);
                insts.push(Inst::ConstInt {
                    dst: mask,
                    value: 15,
                });
                let index = func.new_vreg(Ty::Int);
                insts.push(Inst::IntBin {
                    op: IntBinOp::And,
                    dst: index,
                    lhs: raw,
                    rhs: mask,
                });
                let dst = func.new_vreg(Ty::Int);
                insts.push(Inst::ReadElem {
                    dst,
                    arr: GlobalId(2),
                    index,
                    origin: None,
                });
                defined.push(dst);
            }
            5 => {
                let raw = defined[rng.below(defined.len() as u64) as usize];
                let mask = func.new_vreg(Ty::Int);
                insts.push(Inst::ConstInt {
                    dst: mask,
                    value: 15,
                });
                let index = func.new_vreg(Ty::Int);
                insts.push(Inst::IntBin {
                    op: IntBinOp::And,
                    dst: index,
                    lhs: raw,
                    rhs: mask,
                });
                let src = defined[rng.below(defined.len() as u64) as usize];
                insts.push(Inst::WriteElem {
                    arr: GlobalId(2),
                    index,
                    src,
                    origin: None,
                });
            }
            _ => {
                let ops = [
                    IntBinOp::Add,
                    IntBinOp::Sub,
                    IntBinOp::Mul,
                    IntBinOp::Div,
                    IntBinOp::Rem,
                    IntBinOp::And,
                    IntBinOp::Or,
                    IntBinOp::Xor,
                    IntBinOp::Shl,
                    IntBinOp::Shr,
                    IntBinOp::Cmp(supersym::ir::CmpOp::Lt),
                ];
                let op = ops[rng.below(ops.len() as u64) as usize];
                let lhs = defined[rng.below(defined.len() as u64) as usize];
                let rhs = defined[rng.below(defined.len() as u64) as usize];
                let dst = func.new_vreg(Ty::Int);
                insts.push(Inst::IntBin { op, dst, lhs, rhs });
                defined.push(dst);
            }
        }
    }
    let ret = defined[defined.len() - 1];
    func.blocks.push(Block {
        insts,
        term: Terminator::Return(Some(ret)),
    });
    Module {
        globals: vec![
            GlobalInfo {
                name: "g0".into(),
                ty: Ty::Int,
                kind: GlobalKind::Scalar { init: 11.0 },
            },
            GlobalInfo {
                name: "g1".into(),
                ty: Ty::Int,
                kind: GlobalKind::Scalar { init: -4.0 },
            },
            GlobalInfo {
                name: "arr".into(),
                ty: Ty::Int,
                kind: GlobalKind::Array { len: 16 },
            },
        ],
        funcs: vec![func],
        entry: 0,
    }
}

/// Runs an IR module through regalloc/codegen/exec; returns the result
/// register and the final global-region memory image.
fn run_ir(
    module: &supersym::ir::Module,
    schedule_for: Option<&supersym::machine::MachineConfig>,
) -> (i64, Vec<i64>) {
    use supersym::machine::RegisterSplit;
    let mut module = module.clone();
    supersym::codegen::split_live_across_calls(&mut module);
    module.validate().expect("random IR is valid");
    let homes = supersym::regalloc::allocate(&module, RegisterSplit::paper_default(), false);
    let mut program = supersym::codegen::lower_program(&module, &homes);
    if let Some(machine) = schedule_for {
        supersym::codegen::schedule_program(&mut program, machine);
    }
    program.validate().expect("lowered program is valid");
    let mut exec = Executor::new(&program, ExecOptions::default()).expect("loads");
    exec.run().expect("random IR programs terminate");
    let result = exec.int_reg(supersym::isa::IntReg::new(1).unwrap());
    let globals: Vec<i64> = (0..program.globals_words())
        .map(|a| exec.memory_word(a))
        .collect();
    (result, globals)
}

const IR_SEEDS: std::ops::Range<u64> = 0..32;

/// Local value numbering + DCE + dead-store elimination preserve the
/// observable behaviour of arbitrary straight-line IR.
#[test]
fn lvn_preserves_ir_semantics() {
    for seed in IR_SEEDS {
        let original = random_ir_module(seed);
        let mut optimized = original.clone();
        supersym::opt::run_local(&mut optimized);
        supersym::opt::dead_store_elimination(&mut optimized);
        optimized.validate().expect("optimized IR is valid");
        let a = run_ir(&original, None);
        let b = run_ir(&optimized, None);
        assert_eq!(a, b, "seed {seed}");
    }
}

/// The list scheduler never changes observable behaviour, for any
/// machine it schedules toward.
#[test]
fn scheduling_preserves_ir_semantics() {
    for seed in IR_SEEDS {
        let module = random_ir_module(seed);
        let reference = run_ir(&module, None);
        for machine in [
            presets::base(),
            presets::multititan(),
            presets::cray1(),
            presets::ideal_superscalar(8),
        ] {
            let scheduled = run_ir(&module, Some(&machine));
            assert_eq!(
                &scheduled,
                &reference,
                "seed {seed}: diverged for {}",
                machine.name()
            );
        }
    }
}

/// LICM + the full global pipeline preserve semantics too (the random
/// block has no loops, so this checks the passes are no-ops or safe).
#[test]
fn global_passes_safe_on_straightline_ir() {
    for seed in IR_SEEDS {
        let original = random_ir_module(seed);
        let mut optimized = original.clone();
        supersym::opt::run_local(&mut optimized);
        supersym::opt::run_global(&mut optimized);
        let a = run_ir(&original, None);
        let b = run_ir(&optimized, None);
        assert_eq!(a, b, "seed {seed}");
    }
}

// ---------------------------------------------------------------------------
// Verification-layer properties (supersym-verify)
// ---------------------------------------------------------------------------

/// Builds a random straight-line (no control flow) machine-code region.
/// Registers stay inside the temporary range, memory references mix known
/// and unknown aliases so both dependence rules get exercised.
fn random_region(rng: &mut Rng, len: usize) -> Vec<supersym::isa::Instr> {
    use supersym::isa::{FpOp, FpReg, Instr, IntOp, IntReg, MemAlias, Operand};
    let int = |r: u64| IntReg::new_unchecked(1 + (r % 20) as u8);
    let fp = |r: u64| FpReg::new_unchecked(1 + (r % 10) as u8);
    let alias = |rng: &mut Rng| match rng.below(3) {
        0 => MemAlias::unknown(),
        1 => MemAlias::global(rng.below(3) as u32).with_offset(rng.range_i64(0, 8)),
        _ => MemAlias::global(rng.below(3) as u32),
    };
    let int_ops = [
        IntOp::Add,
        IntOp::Sub,
        IntOp::Mul,
        IntOp::Div,
        IntOp::And,
        IntOp::Sll,
        IntOp::CmpLt,
    ];
    (0..len)
        .map(|_| match rng.below(8) {
            0 => Instr::MovI {
                dst: int(rng.next()),
                imm: rng.range_i64(-100, 100),
            },
            1 => Instr::Load {
                dst: int(rng.next()),
                base: IntReg::GP,
                offset: rng.range_i64(0, 16),
                alias: alias(rng),
            },
            2 => Instr::Store {
                src: int(rng.next()),
                base: IntReg::GP,
                offset: rng.range_i64(0, 16),
                alias: alias(rng),
            },
            3 => Instr::FpOp {
                op: [FpOp::FAdd, FpOp::FMul, FpOp::FDiv][rng.below(3) as usize],
                dst: fp(rng.next()),
                lhs: fp(rng.next()),
                rhs: fp(rng.next()),
            },
            4 => Instr::IToF {
                dst: fp(rng.next()),
                src: int(rng.next()),
            },
            _ => Instr::IntOp {
                op: int_ops[rng.below(int_ops.len() as u64) as usize],
                dst: int(rng.next()),
                lhs: int(rng.next()),
                rhs: if rng.coin() {
                    Operand::Reg(int(rng.next()))
                } else {
                    Operand::Imm(rng.range_i64(-50, 50))
                },
            },
        })
        .collect()
}

/// The pipeline scheduler's output always passes the independent legality
/// checker: a permutation of the input with every RAW/WAR/WAW and memory
/// dependence order-preserved — for random regions on every preset machine.
#[test]
fn scheduler_output_always_passes_legality_checker() {
    use supersym::isa::{Function, Instr, Program};
    let machines = presets::study();
    for seed in 0..48_u64 {
        let mut rng = Rng::new(seed);
        let len = 2 + rng.below(24) as usize;
        let mut instrs = random_region(&mut rng, len);
        instrs.push(Instr::Halt);
        let mut before = Program::new();
        let id = before.add_function(Function::new("region", instrs, vec![0]));
        before.set_entry(id);
        for machine in &machines {
            let mut after = before.clone();
            supersym::codegen::schedule_program(&mut after, machine);
            let violations = supersym::verify::check_schedule(&before, &after);
            assert!(
                violations.is_empty(),
                "seed {seed} on {}: {:?}",
                machine.name(),
                violations
            );
        }
    }
}

/// The cycle-account conservation invariant: on every preset machine, for
/// random scheduled regions, every machine cycle is charged to exactly one
/// of issue, a stall cause, or pipeline drain — the account balances
/// *exactly*, and two runs of the same program produce identical accounts
/// and critical-producer tables.
#[test]
fn cycle_account_conserves_and_is_deterministic() {
    use supersym::isa::{Function, Instr, Program};
    use supersym::sim::simulate;
    let machines = presets::study();
    for seed in 100..124_u64 {
        let mut rng = Rng::new(seed);
        let len = 2 + rng.below(24) as usize;
        let mut instrs = random_region(&mut rng, len);
        instrs.push(Instr::Halt);
        let mut program = Program::new();
        let id = program.add_function(Function::new("region", instrs, vec![0]));
        program.set_entry(id);
        for machine in &machines {
            let mut scheduled = program.clone();
            supersym::codegen::schedule_program(&mut scheduled, machine);
            let first = simulate(&scheduled, machine, SimOptions::default());
            let second = simulate(&scheduled, machine, SimOptions::default());
            let (first, second) = match (first, second) {
                (Ok(a), Ok(b)) => (a, b),
                (Err(a), Err(b)) => {
                    // Random regions may trap (e.g. divide by zero); the
                    // trap itself must still be deterministic.
                    assert_eq!(a.to_string(), b.to_string(), "seed {seed}");
                    continue;
                }
                (a, b) => panic!(
                    "seed {seed} on {}: nondeterministic outcome {a:?} vs {b:?}",
                    machine.name()
                ),
            };
            let account = first.cycle_account();
            assert!(
                account.conserved(),
                "seed {seed} on {}: {account:?}",
                machine.name()
            );
            assert_eq!(
                account.issue_cycles() + account.total_stall_cycles() + account.drain_cycles(),
                account.machine_cycles(),
                "seed {seed} on {}: cycles leaked",
                machine.name()
            );
            assert_eq!(
                account,
                second.cycle_account(),
                "seed {seed} on {}: account not deterministic",
                machine.name()
            );
            assert_eq!(
                first.critical_producers(),
                second.critical_producers(),
                "seed {seed} on {}: producer table not deterministic",
                machine.name()
            );
        }
    }
}

/// Folds every field of every issue event into one hash, so two runs'
/// event streams compare without keeping them.
#[derive(Default)]
struct IssueStreamHash {
    hasher: std::hash::DefaultHasher,
    events: u64,
}

impl supersym::trace::TraceSink for IssueStreamHash {
    fn issue(&mut self, e: &supersym::trace::IssueEvent) {
        use std::hash::Hash;
        (
            e.func, e.pc, e.class, e.issue, e.complete, e.drain, e.wait, e.cause,
        )
            .hash(&mut self.hasher);
        self.events += 1;
    }
}

impl IssueStreamHash {
    fn digest(&self) -> (u64, u64) {
        use std::hash::Hasher;
        (self.events, self.hasher.finish())
    }
}

/// The block timing cache is bit-exact, not approximate: with the cache
/// on and off, every preset machine produces byte-identical reports —
/// cycle account, machine cycles, instruction count, census, and
/// critical-producer table — on real loop workloads (dense replay
/// traffic), random scheduled regions, and torture-mutated source
/// programs (which hit the fallback and overflow paths). Errors must
/// also agree: a trapped or fuel-exhausted run traps identically.
///
/// The sink-attached path is held to the same law: its issue-event
/// stream is identical with the cache on and off, and a cached sink run
/// reports exactly what the sink-less cached run does, block-cache
/// counters included.
#[test]
fn block_cache_is_bit_exact_on_all_presets() {
    use supersym::isa::{Function, Instr, Program};
    use supersym::sim::{simulate, simulate_with_sink, SimError, SimReport};
    use supersym_torture::mutate::mutate_source;

    let machines = presets::study();
    let exec = ExecOptions {
        memory_words: 1 << 16,
        max_steps: 200_000,
        ..ExecOptions::default()
    };
    let cached = SimOptions {
        exec,
        block_cache: true,
    };
    let exact = SimOptions {
        exec,
        block_cache: false,
    };

    fn same_report(what: &str, a: &SimReport, b: &SimReport) {
        assert_eq!(
            a.cycle_account(),
            b.cycle_account(),
            "{what}: cycle accounts diverge"
        );
        assert_eq!(
            a.machine_cycles(),
            b.machine_cycles(),
            "{what}: machine cycles diverge"
        );
        assert_eq!(
            a.instructions(),
            b.instructions(),
            "{what}: instruction counts diverge"
        );
        assert_eq!(a.census(), b.census(), "{what}: censuses diverge");
        assert_eq!(
            a.critical_producers(),
            b.critical_producers(),
            "{what}: producer tables diverge"
        );
    }

    /// Whether both runs completed; panics unless they agree.
    fn same_outcome(
        what: &str,
        a: &Result<SimReport, SimError>,
        b: &Result<SimReport, SimError>,
    ) -> bool {
        match (a, b) {
            (Ok(a), Ok(b)) => {
                same_report(what, a, b);
                true
            }
            (Err(a), Err(b)) => {
                assert_eq!(a.to_string(), b.to_string(), "{what}: errors diverge");
                false
            }
            (a, b) => panic!("{what}: outcomes diverge: {a:?} vs {b:?}"),
        }
    }

    let differ = |label: &str, machine: &supersym::machine::MachineConfig, program: &Program| {
        let name = machine.name();
        let a = simulate(program, machine, cached);
        let b = simulate(program, machine, exact);
        let mut cached_stream = IssueStreamHash::default();
        let mut exact_stream = IssueStreamHash::default();
        let a_sink = simulate_with_sink(program, machine, cached, &mut cached_stream);
        let b_sink = simulate_with_sink(program, machine, exact, &mut exact_stream);
        let completed = same_outcome(&format!("{label} on {name}"), &a, &b);
        assert_eq!(
            cached_stream.digest(),
            exact_stream.digest(),
            "{label} on {name}: issue-event streams diverge"
        );
        same_outcome(&format!("{label} on {name}, exact sink"), &b_sink, &b);
        same_outcome(&format!("{label} on {name}, cached sink"), &a_sink, &a);
        if let (Ok(a), Ok(a_sink)) = (&a, &a_sink) {
            assert_eq!(
                a_sink.block_cache_stats(),
                a.block_cache_stats(),
                "{label} on {name}: the sink run's block-cache counters diverge"
            );
        }
        completed
    };

    // Real loop workloads: nested loops, calls, vector code.
    let workloads = [
        ("linpack8", supersym::workloads::linpack(8).source),
        ("livermore32", supersym::workloads::livermore(32, 1).source),
        ("whet1", supersym::workloads::whet(1).source),
    ];
    let mut compared = 0_u32;
    for machine in &machines {
        for (label, source) in &workloads {
            let program = supersym::compile(source, &CompileOptions::new(OptLevel::O4, machine))
                .expect("paper workloads compile");
            if differ(label, machine, &program) {
                compared += 1;
            }
        }
    }
    assert_eq!(compared, 33, "every workload ran on every preset");

    // Random scheduled regions (straight-line, single trace).
    for seed in 300..316_u64 {
        let mut rng = Rng::new(seed);
        let len = 2 + rng.below(24) as usize;
        let mut instrs = random_region(&mut rng, len);
        instrs.push(Instr::Halt);
        let mut program = Program::new();
        let id = program.add_function(Function::new("region", instrs, vec![0]));
        program.set_entry(id);
        for machine in &machines {
            let mut scheduled = program.clone();
            supersym::codegen::schedule_program(&mut scheduled, machine);
            differ(&format!("region{seed}"), machine, &scheduled);
        }
    }

    // Torture-mutated sources: irregular control flow, traps, and
    // fuel exhaustion. Only mutants that still compile are compared.
    let mut rng = SplitMix64::new(0x0010_CACE);
    let mut mutants_run = 0_u32;
    for index in 0..48_u32 {
        let source = mutate_source(&mut rng, &[]).to_text();
        for machine in &machines {
            let Ok(program) =
                supersym::compile(&source, &CompileOptions::new(OptLevel::O4, machine))
            else {
                continue;
            };
            differ(&format!("mutant{index}"), machine, &program);
            mutants_run += 1;
        }
    }
    assert!(
        mutants_run >= 11,
        "mutant corpus barely compiled anywhere: {mutants_run} runs"
    );
}

/// All paper presets pass the machine-description lint with no errors.
/// Execute once, time many: one recorded run of a front program times
/// every scheduled variant of it exactly as the cache-off exact model
/// simulates that variant — cycle account, machine cycles, instruction
/// count, census and critical producers — and a run that exhausts its
/// fuel or traps does so in every variant. Checked on the real workloads
/// over the study presets and a seeded sample of grid cells, a vector loop
/// (recorded vector lengths), random scheduled regions, and
/// torture-mutated sources, whose traps and fuel exhaustion take the
/// fallbacks.
#[test]
fn recorded_replay_is_bit_exact() {
    use supersym::analyze::region_origins;
    use supersym::compile_front;
    use supersym::isa::{FpOp, Function, Instr, IntReg, Program, VecReg};
    use supersym::machine::{GridCell, GridSpec, MachineConfig, SplitModel};
    use supersym::sim::{simulate, Recording, SimError};
    use supersym_torture::mutate::{mutate_asm, mutate_source};

    let exec = ExecOptions {
        memory_words: 1 << 16,
        max_steps: 200_000,
        ..ExecOptions::default()
    };
    let exact = SimOptions {
        exec,
        block_cache: false,
    };

    /// How the variants checked were timed.
    #[derive(Debug, Default)]
    struct Tally {
        replayed: u32,
        fuel: u32,
        trapped: u32,
    }

    // Records `front` once and holds every variant's simulation to it;
    // returns the recording's bytes per recorded instruction.
    let check =
        |label: &str, front: &Program, variants: &[(MachineConfig, Program)], tally: &mut Tally| {
            let recording = Recording::record(front, exec);
            for (machine, scheduled) in variants {
                let what = format!("{label} on {}", machine.name());
                let reference = simulate(scheduled, machine, exact);
                match &recording {
                    Ok(Some(recording)) => {
                        let origins = region_origins(front, scheduled)
                            .unwrap_or_else(|| panic!("{what}: not a region permutation"));
                        let replayed = recording
                            .replay(scheduled, &origins, machine)
                            .unwrap_or_else(|e| panic!("{what}: replay failed: {e}"));
                        let reference = reference
                            .unwrap_or_else(|e| panic!("{what}: the recorded run completed, {e}"));
                        assert_eq!(
                            replayed.cycle_account(),
                            reference.cycle_account(),
                            "{what}: cycle accounts diverge"
                        );
                        assert_eq!(
                            replayed.machine_cycles(),
                            reference.machine_cycles(),
                            "{what}: machine cycles diverge"
                        );
                        assert_eq!(
                            replayed.instructions(),
                            reference.instructions(),
                            "{what}: instruction counts diverge"
                        );
                        assert_eq!(
                            replayed.census(),
                            reference.census(),
                            "{what}: censuses diverge"
                        );
                        assert_eq!(
                            replayed.critical_producers(),
                            reference.critical_producers(),
                            "{what}: producer tables diverge"
                        );
                        // The cycles-only replay skips attribution, which
                        // never moves an issue: its counts equal both.
                        let cycles = recording
                            .replay_cycles(scheduled, &origins, machine)
                            .unwrap_or_else(|e| panic!("{what}: cycles-only replay failed: {e}"));
                        for report in [&replayed, &reference] {
                            assert_eq!(
                                (
                                    cycles.instructions,
                                    cycles.machine_cycles,
                                    cycles.base_cycles
                                ),
                                (
                                    report.instructions(),
                                    report.machine_cycles(),
                                    report.base_cycles()
                                ),
                                "{what}: cycles-only replay diverges"
                            );
                        }
                        tally.replayed += 1;
                    }
                    Err(SimError::StepLimitExceeded { limit }) => {
                        assert_eq!(
                            reference.err(),
                            Some(SimError::StepLimitExceeded { limit: *limit }),
                            "{what}: fuel outcomes diverge"
                        );
                        tally.fuel += 1;
                    }
                    Err(_) => {
                        assert!(
                            reference.is_err(),
                            "{what}: the recorded run trapped, the variant completed"
                        );
                        tally.trapped += 1;
                    }
                    Ok(None) => panic!("{label}: recording over the cap"),
                }
            }
            match &recording {
                Ok(Some(recording)) => recording.bytes() as f64 / recording.instructions() as f64,
                _ => 0.0,
            }
        };
    let machines = presets::study();
    let scheduled_on = |front: &Program, machines: &[MachineConfig]| {
        machines
            .iter()
            .map(|machine| {
                let mut program = front.clone();
                supersym::codegen::schedule_program(&mut program, machine);
                (machine.clone(), program)
            })
            .collect::<Vec<_>>()
    };

    // Real workloads, split by split: the study presets on the default
    // split, and a seeded sample of grid cells on both.
    let grid = GridSpec::parse(
        "issue=1,2,3,4,6,8 pipe=1,2,3,4 lat=unit,titan,cray fu=ideal,shared split=default,wide",
    )
    .expect("grid parses");
    let cells = grid.cells();
    let mut rng = Rng::new(0x0E7E_C07E);
    let sample: Vec<GridCell> = (0..8)
        .map(|_| cells[rng.below(cells.len() as u64) as usize])
        .collect();
    let workloads = [
        ("linpack8", supersym::workloads::linpack(8).source),
        ("livermore32", supersym::workloads::livermore(32, 1).source),
        ("whet1", supersym::workloads::whet(1).source),
    ];
    let mut tally = Tally::default();
    for (label, source) in &workloads {
        for split in [SplitModel::Default, SplitModel::Wide] {
            let options = CompileOptions::new(OptLevel::O4, &presets::base())
                .with_split(split.split())
                .with_verify(false);
            let front = compile_front(source, &options).expect("paper workloads compile");
            let mut targets: Vec<MachineConfig> = if split == SplitModel::Default {
                machines.clone()
            } else {
                Vec::new()
            };
            targets.extend(
                sample
                    .iter()
                    .filter(|cell| cell.split == split)
                    .map(GridCell::config),
            );
            let variants: Vec<_> = targets
                .into_iter()
                .map(|machine| {
                    let program = front.schedule_for(&machine, false).expect("schedules");
                    (machine, program)
                })
                .collect();
            let density = check(
                &format!("{label}/{}", split.name()),
                front.program(),
                &variants,
                &mut tally,
            );
            // Compact: under a byte per executed instruction.
            assert!(density < 1.0, "{label}: {density} bytes per instruction");
        }
    }
    assert_eq!(tally.replayed, 3 * (11 + 8), "{tally:?}");

    // A strip-mined vector loop whose vector length shrinks every strip,
    // with chained vector loads, operations and stores.
    let vector_loop = {
        let r = |i: u8| IntReg::new(i).unwrap();
        let (v1, v2) = (VecReg::new(1).unwrap(), VecReg::new(2).unwrap());
        let mut asm = supersym::isa::AsmBuilder::new("main");
        let top = asm.new_label();
        asm.movi(r(9), 0);
        asm.movi(r(11), 64);
        asm.bind(top);
        asm.setvl(r(11));
        asm.vload(v2, r(9), 0);
        asm.vop(FpOp::FAdd, v1, v1, v2);
        asm.vop(FpOp::FMul, v2, v1, v2);
        asm.vstore(v2, r(9), 1024);
        asm.add(r(9), r(9), 64.into());
        asm.sub(r(11), r(11), 7.into());
        asm.cmp_gt(r(10), r(11), 0.into());
        asm.br_true(r(10), top);
        asm.halt();
        let mut program = asm.finish_program();
        program.alloc_globals(2048);
        for addr in 0..1024 {
            program.add_data(addr, (addr as f64 * 0.5).to_bits() as i64);
        }
        program
    };
    check(
        "vector loop",
        &vector_loop,
        &scheduled_on(&vector_loop, &machines),
        &mut tally,
    );

    // Random scheduled regions (straight-line).
    for seed in 400..416_u64 {
        let mut rng = Rng::new(seed);
        let len = 2 + rng.below(24) as usize;
        let mut instrs = random_region(&mut rng, len);
        instrs.push(Instr::Halt);
        let mut program = Program::new();
        let id = program.add_function(Function::new("region", instrs, vec![0]));
        program.set_entry(id);
        check(
            &format!("region{seed}"),
            &program,
            &scheduled_on(&program, &machines),
            &mut tally,
        );
    }
    let regular = tally.replayed;
    assert_eq!(regular, 3 * (11 + 8) + 11 * 17, "{tally:?}");

    // Torture-mutated sources: irregular control flow, traps and fuel
    // exhaustion. Only mutants that still compile are compared.
    let mut rng = SplitMix64::new(0x0010_CACE);
    for index in 0..48_u32 {
        let source = mutate_source(&mut rng, &[]).to_text();
        let options = CompileOptions::new(OptLevel::O4, &presets::base()).with_verify(false);
        let Ok(front) = compile_front(&source, &options) else {
            continue;
        };
        let variants: Vec<_> = machines
            .iter()
            .filter_map(|machine| {
                let program = front.schedule_for(machine, false).ok()?;
                Some((machine.clone(), program))
            })
            .collect();
        check(
            &format!("mutant{index}"),
            front.program(),
            &variants,
            &mut tally,
        );
    }
    // Assembly mutants: swapped, dropped and duplicated instructions and
    // corrupted operands make loops that never end and stores that fault.
    for _ in 0..96_u32 {
        let text = mutate_asm(&mut rng, &[]).to_text();
        let Ok(program) = supersym::isa::parse_program(&text) else {
            continue;
        };
        if program.validate().is_err() {
            continue;
        }
        check(
            "asm mutant",
            &program,
            &scheduled_on(&program, &machines),
            &mut tally,
        );
    }
    // A loop whose store walks below address 0 traps in its fourth visit.
    let trapping = {
        let r = |i: u8| IntReg::new(i).unwrap();
        let mut asm = supersym::isa::AsmBuilder::new("main");
        let top = asm.new_label();
        asm.movi(r(14), 10);
        asm.movi(r(9), 0);
        asm.bind(top);
        asm.store(r(9), r(14), 0);
        asm.add(r(9), r(9), 1.into());
        asm.sub(r(14), r(14), 4.into());
        asm.mul(r(15), r(9), r(9).into());
        asm.cmp_gt(r(13), r(14), (-100).into());
        asm.br_true(r(13), top);
        asm.halt();
        asm.finish_program()
    };
    check(
        "trapping loop",
        &trapping,
        &scheduled_on(&trapping, &machines),
        &mut tally,
    );
    assert!(
        tally.replayed > regular && tally.fuel > 0 && tally.trapped > 0,
        "every path must be taken: {tally:?}"
    );
}

#[test]
fn paper_presets_pass_machine_lint() {
    use supersym::verify::Severity;
    for machine in presets::study() {
        let diagnostics = machine.validate();
        let errors: Vec<_> = diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Error)
            .collect();
        assert!(errors.is_empty(), "{}: {errors:?}", machine.name());
    }
}

// ---------------------------------------------------------------------------
// Dependence-oracle properties (supersym-analyze)
// ---------------------------------------------------------------------------

/// Sharpening the dependence oracle is invisible to the program: on every
/// paper preset machine, compiling with the symbolic oracle yields a
/// schedule that passes the in-pipeline legality check
/// (`check_schedule_with` runs when `verify` is on) and executes to
/// exactly the architectural result of the conservative-oracle compile.
/// Also asserts the corpus exercises real scheduling work: at least 48
/// multi-instruction scheduling regions per preset.
#[test]
fn oracle_sharpening_preserves_semantics() {
    use supersym::analyze::{scheduling_regions, OracleKind};
    let machines = presets::study();
    for machine in &machines {
        let mut sharpened_regions = 0_usize;
        for seed in AST_SEEDS {
            let ast = Gen::new(seed).module();
            supersym::lang::check(&ast).expect("generated programs type check");
            let conservative = run(
                ast.clone(),
                &CompileOptions::new(OptLevel::O4, machine)
                    .with_verify(true)
                    .with_oracle(OracleKind::Conservative),
            );
            // Compile the symbolic side by hand so the scheduled program is
            // on hand for region counting; `verify` makes the pipeline check
            // the sharpened schedule against the symbolic oracle before it
            // ever executes.
            let options = CompileOptions::new(OptLevel::O4, machine)
                .with_verify(true)
                .with_oracle(OracleKind::Symbolic);
            let program = compile_ast(ast, &options).expect("generated programs compile");
            program.validate().expect("generated programs are valid");
            for func in program.functions() {
                sharpened_regions += scheduling_regions(func)
                    .iter()
                    .filter(|(lo, hi)| hi - lo >= 2)
                    .count();
            }
            let mut exec = Executor::new(
                &program,
                ExecOptions {
                    max_steps: 5_000_000,
                    ..ExecOptions::default()
                },
            )
            .expect("program loads");
            exec.run().expect("generated programs terminate");
            let symbolic = exec.int_reg(supersym::isa::IntReg::new(1).unwrap());
            assert_eq!(
                symbolic,
                conservative,
                "seed {seed} on {}: oracle sharpening changed the result",
                machine.name()
            );
        }
        assert!(
            sharpened_regions >= 48,
            "{}: expected at least 48 multi-instruction scheduling regions, saw {sharpened_regions}",
            machine.name()
        );
    }
}

/// Both oracles' schedules pass a legality checker pinned to the same
/// oracle, and — because symbolic memory edges are a strict subset of
/// conservative ones — every conservative schedule is also accepted by
/// the sharper symbolic checker.
#[test]
fn oracle_schedules_pass_matching_checkers() {
    use supersym::analyze::OracleKind;
    use supersym::codegen::schedule_program_with;
    use supersym::isa::{Function, Instr, Program};
    use supersym::verify::check_schedule_with;
    let machines = presets::study();
    for seed in 0..48_u64 {
        let mut rng = Rng::new(seed.wrapping_mul(0x5DEE_CE66)); // decorrelate from other tests
        let len = 2 + rng.below(24) as usize;
        let mut instrs = random_region(&mut rng, len);
        instrs.push(Instr::Halt);
        let mut before = Program::new();
        let id = before.add_function(Function::new("region", instrs, vec![0]));
        before.set_entry(id);
        for machine in &machines {
            for (scheduler, checkers) in [
                (
                    OracleKind::Conservative.as_loop_oracle(),
                    // Conservative schedules satisfy both checkers.
                    vec![
                        OracleKind::Conservative.as_loop_oracle(),
                        OracleKind::Symbolic.as_loop_oracle(),
                    ],
                ),
                (
                    OracleKind::Symbolic.as_loop_oracle(),
                    vec![OracleKind::Symbolic.as_loop_oracle()],
                ),
            ] {
                let mut after = before.clone();
                schedule_program_with(&mut after, machine, scheduler);
                for checker in checkers {
                    let violations = check_schedule_with(&before, &after, checker);
                    assert!(
                        violations.is_empty(),
                        "seed {seed} on {}: {violations:?}",
                        machine.name()
                    );
                }
            }
        }
    }
}

/// The verified rewrite-rule table is a pure optimization: on every paper
/// preset, every suite workload compiled with the table disabled and
/// enabled produces the identical executor result. This is the
/// rules-on/rules-off differential over real programs — the synthesized
/// rules are proven algebraically by the certifiers, and this checks the
/// whole consumption path (matcher, LVN integration, reassociation
/// gating) end to end on top of that.
#[test]
fn rule_table_preserves_semantics_on_every_preset() {
    use supersym::workloads::{suite, Size};
    let machines = presets::study();
    for workload in &suite(Size::Small) {
        for machine in &machines {
            let mut results = [0_i64; 2];
            for (slot, rules) in [(0, false), (1, true)] {
                let options = CompileOptions::new(OptLevel::O4, machine).with_rules(rules);
                let program = supersym::compile(&workload.source, &options)
                    .unwrap_or_else(|e| panic!("{} on {}: {e}", workload.name, machine.name()));
                let mut exec = Executor::new(
                    &program,
                    ExecOptions {
                        max_steps: 20_000_000,
                        ..ExecOptions::default()
                    },
                )
                .expect("workload loads");
                exec.run()
                    .unwrap_or_else(|e| panic!("{} on {}: {e}", workload.name, machine.name()));
                results[slot] = exec.int_reg(supersym::isa::IntReg::new(1).unwrap());
            }
            assert_eq!(
                results[0],
                results[1],
                "{} on {}: rules changed the result",
                workload.name,
                machine.name()
            );
        }
    }
}

/// The translation validator has zero false rejections on the real
/// optimizer: compiling every suite workload for every paper preset with
/// certification on succeeds, every pass run earns a certificate
/// (structural or differential — never inconclusive), the certified
/// program is identical to the plain compile, and across the sweep all
/// six optimizer passes actually get exercised and certified.
#[test]
fn certifier_accepts_every_pass_on_the_whole_suite() {
    use std::collections::BTreeSet;
    use supersym::workloads::{suite, Size};
    let machines = presets::study();
    let mut certified_passes: BTreeSet<String> = BTreeSet::new();
    for workload in &suite(Size::Small) {
        for machine in &machines {
            let options =
                CompileOptions::new(OptLevel::O4, machine).with_unroll(UnrollOptions::careful(2));
            let (program, certificates) = supersym::compile_certified(&workload.source, &options)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", workload.name, machine.name()));
            assert!(
                !certificates.is_empty(),
                "{} on {}: no passes observed",
                workload.name,
                machine.name()
            );
            for cert in &certificates {
                assert!(
                    cert.is_certified(),
                    "{} on {}: pass {} uncertified: {:?}",
                    workload.name,
                    machine.name(),
                    cert.pass,
                    cert.diagnostics
                );
                certified_passes.insert(cert.pass.clone());
                // DCE only deletes dead instructions and unreachable
                // blocks, both of which the structural tier proves.
                if cert.pass == "dead_code_elimination" {
                    assert_eq!(
                        cert.method,
                        Some(CertMethod::Structural),
                        "{} on {}: DCE certified {:?}",
                        workload.name,
                        machine.name(),
                        cert.method
                    );
                }
            }
            let plain = supersym::compile(&workload.source, &options).expect("plain compile");
            assert_eq!(
                program.to_string(),
                plain.to_string(),
                "{} on {}: certification changed the output",
                workload.name,
                machine.name()
            );
        }
    }
    for pass in [
        "local_value_numbering",
        "strength_reduce",
        "dead_code_elimination",
        "loop_invariant_code_motion",
        "dead_store_elimination",
        "reassociate",
    ] {
        assert!(
            certified_passes.contains(pass),
            "pass {pass} never fired across the suite sweep (saw {certified_passes:?})"
        );
    }
}

/// The benchmark's certified compiles (each Small program at O4 on
/// MultiTitan, verify on) earn a fixed mix of certificates: 20 structural
/// and 10 differential. Every DCE pass is among the structural ones; the
/// differential ten are the seven DSE and three LICM passes, which move or
/// delete code across blocks.
#[test]
fn certified_ladder_compiles_split_twenty_structural_ten_differential() {
    use supersym::workloads::{suite, Size};
    let machine = presets::multititan();
    let options = CompileOptions::new(OptLevel::O4, &machine).with_verify(true);
    let (mut structural, mut differential) = (0, 0);
    for workload in &suite(Size::Small) {
        let (_, certificates) = supersym::compile_certified(&workload.source, &options)
            .unwrap_or_else(|e| panic!("{}: {e}", workload.name));
        for cert in &certificates {
            match cert.method {
                Some(CertMethod::Structural) => structural += 1,
                Some(CertMethod::Differential) => differential += 1,
                None => panic!("{}: pass {} uncertified", workload.name, cert.pass),
            }
        }
    }
    assert_eq!((structural, differential), (20, 10));
}

// ---------------------------------------------------------------------------
// Loop-carried oracle properties (supersym-analyze loopdep)
// ---------------------------------------------------------------------------

/// The loop-carried oracles bracket exactly like the region-level ones:
/// on random loop bodies, every carried edge the symbolic oracle reports
/// is covered by a conservative edge between the same instructions of the
/// same kind at a distance no larger (smaller distance = stronger
/// constraint), so scheduling or bounding with symbolic facts can only
/// *remove* constraints relative to the conservative baseline — never
/// invent permission the conservative analysis would deny.
#[test]
fn loop_carried_edges_bracket_symbolic_under_conservative() {
    use supersym::analyze::OracleKind;
    for seed in 300..348_u64 {
        let mut rng = Rng::new(seed.wrapping_mul(0x9E37_79B9)); // decorrelate
        let len = 2 + rng.below(20) as usize;
        let body = random_region(&mut rng, len);
        let conservative = OracleKind::Conservative
            .as_loop_oracle()
            .loop_carried(&body);
        let symbolic = OracleKind::Symbolic.as_loop_oracle().loop_carried(&body);
        for edge in &symbolic {
            assert!(
                conservative.iter().any(|c| c.pred == edge.pred
                    && c.succ == edge.succ
                    && c.kind == edge.kind
                    && c.distance <= edge.distance),
                "seed {seed}: symbolic edge {edge} not covered conservatively\n\
                 conservative: {conservative:?}"
            );
        }
        // Register-carried edges are oracle-independent facts; both sides
        // must agree on them exactly.
        let registers = |edges: &[supersym::analyze::CarriedEdge]| {
            let mut regs: Vec<_> = edges
                .iter()
                .filter(|e| !matches!(e.kind, supersym::analyze::DepKind::Memory))
                .copied()
                .collect();
            regs.sort_by_key(|e| (e.pred, e.succ));
            regs
        };
        assert_eq!(
            registers(&conservative),
            registers(&symbolic),
            "seed {seed}: register recurrences must not depend on the oracle"
        );
    }
}

/// Schedules produced under the loop-carried oracles stay within the
/// legality envelope of the matching checker on all eleven paper presets
/// — and, because carried edges all have distance >= 1 and the in-order
/// scheduler only reorders within an iteration, a schedule under the
/// conservative loop oracle also passes the conservative checker that
/// consumes the very same carried facts.
#[test]
fn loop_oracle_schedules_pass_conservative_checker() {
    use supersym::analyze::OracleKind;
    use supersym::codegen::schedule_program_with;
    use supersym::isa::{Function, Instr, Program};
    use supersym::verify::check_schedule_with;
    let machines = presets::study();
    for seed in 400..448_u64 {
        let mut rng = Rng::new(seed.wrapping_mul(0xC2B2_AE35)); // decorrelate
        let len = 2 + rng.below(24) as usize;
        let mut instrs = random_region(&mut rng, len);
        instrs.push(Instr::Halt);
        let mut before = Program::new();
        let id = before.add_function(Function::new("region", instrs, vec![0]));
        before.set_entry(id);
        for machine in &machines {
            for (scheduler, checkers) in [
                (
                    OracleKind::Conservative,
                    vec![OracleKind::Conservative, OracleKind::Symbolic],
                ),
                (OracleKind::Symbolic, vec![OracleKind::Symbolic]),
            ] {
                let mut after = before.clone();
                schedule_program_with(&mut after, machine, scheduler.as_loop_oracle());
                for checker in checkers {
                    let violations = check_schedule_with(&before, &after, checker.as_loop_oracle());
                    assert!(
                        violations.is_empty(),
                        "seed {seed} on {} ({scheduler:?} -> {checker:?}): {violations:?}",
                        machine.name()
                    );
                }
            }
        }
    }
}

/// Conservation law for emitted timelines: on every functional-unit lane
/// of the simulate process, per-instruction pipeline spans never extend
/// past the end of the run, and each lane's occupied time (the union of
/// its spans) is at most the run's machine cycles.
#[test]
fn timeline_lane_occupancy_is_conserved() {
    use supersym::isa::InstrClass;
    use supersym::sim::simulate_with_sink;
    use supersym::trace::{parse_json, JsonValue, TimelineSink, PID_SIMULATE};
    for seed in AST_SEEDS {
        let ast = Gen::new(seed).module();
        for machine in [presets::ideal_superscalar(8), presets::cray1()] {
            let options = CompileOptions::new(OptLevel::O4, &machine);
            let program = compile_ast(ast.clone(), &options).expect("generated programs compile");
            let lanes: Vec<String> = machine
                .functional_units()
                .iter()
                .map(|unit| unit.name().to_string())
                .collect();
            let class_lane: Vec<(String, usize)> = InstrClass::ALL
                .iter()
                .map(|&class| (class.mnemonic().to_string(), machine.unit_of(class)))
                .collect();
            let mut sink = TimelineSink::new(Vec::new()).with_pipeline_lanes(lanes, class_lane);
            let report = simulate_with_sink(&program, &machine, SimOptions::default(), &mut sink)
                .expect("generated programs terminate");
            let text = String::from_utf8(sink.finish().expect("in-memory timeline"))
                .expect("timelines are utf-8");
            let doc = parse_json(&text).expect("emitted timeline parses");
            supersym::trace::validate_timeline(&text).expect("emitted timeline validates");

            let mut per_lane: std::collections::HashMap<u64, Vec<(u64, u64)>> = Default::default();
            for event in doc
                .get("traceEvents")
                .and_then(JsonValue::as_array)
                .expect("traceEvents array")
            {
                if event.get("ph").and_then(JsonValue::as_str) != Some("X")
                    || event.get("pid").and_then(JsonValue::as_u64) != Some(PID_SIMULATE)
                {
                    continue;
                }
                let tid = event.get("tid").and_then(JsonValue::as_u64).expect("tid");
                if tid == 0 {
                    continue; // counter lane, not a functional unit
                }
                let ts = event.get("ts").and_then(JsonValue::as_u64).expect("ts");
                let dur = event.get("dur").and_then(JsonValue::as_u64).expect("dur");
                per_lane.entry(tid).or_default().push((ts, ts + dur));
            }
            assert!(
                !per_lane.is_empty(),
                "seed {seed} on {}: no pipeline spans",
                machine.name()
            );
            let cycles = report.machine_cycles();
            for (tid, mut spans) in per_lane {
                spans.sort_unstable();
                let mut occupied = 0_u64;
                let mut cursor = 0_u64;
                for (start, end) in spans {
                    assert!(
                        end <= cycles,
                        "seed {seed} on {}: lane {tid} span [{start}, {end}) past run end {cycles}",
                        machine.name()
                    );
                    let lo = start.max(cursor);
                    if end > lo {
                        occupied += end - lo;
                        cursor = end;
                    }
                }
                assert!(
                    occupied <= cycles,
                    "seed {seed} on {}: lane {tid} occupied {occupied} > {cycles}",
                    machine.name()
                );
            }
        }
    }
}

/// Real timelines pass the validator, not just toy ones: the Small-suite
/// ccom, the smallest Small timeline (~2.9 MB), compiled and simulated
/// into one document on MultiTitan and on CRAY-1.
#[test]
fn full_size_timelines_pass_the_validator() {
    use supersym::isa::InstrClass;
    use supersym::sim::simulate_with_sink;
    use supersym::trace::{validate_timeline, TimelineSink};
    use supersym::workloads::{suite, Size};
    let ccom = suite(Size::Small)
        .into_iter()
        .find(|workload| workload.name == "ccom")
        .expect("ccom is in the Small suite");
    for machine in [presets::multititan(), presets::cray1()] {
        let lanes: Vec<String> = machine
            .functional_units()
            .iter()
            .map(|unit| unit.name().to_string())
            .collect();
        let class_lane: Vec<(String, usize)> = InstrClass::ALL
            .iter()
            .map(|&class| (class.mnemonic().to_string(), machine.unit_of(class)))
            .collect();
        let mut sink = TimelineSink::new(Vec::new()).with_pipeline_lanes(lanes, class_lane);
        let options = CompileOptions::new(OptLevel::O4, &machine);
        let program =
            supersym::compile_with_trace(&ccom.source, &options, &mut sink).expect("ccom compiles");
        let run = simulate_with_sink(&program, &machine, SimOptions::default(), &mut sink)
            .expect("ccom terminates");
        let text = String::from_utf8(sink.finish().expect("in-memory timeline"))
            .expect("timelines are utf-8");
        assert!(
            text.len() > 2_000_000,
            "ccom on {}: only {} timeline bytes",
            machine.name(),
            text.len()
        );
        let report = validate_timeline(&text)
            .unwrap_or_else(|error| panic!("ccom on {}: {error}", machine.name()));
        // One span per dynamic instruction, plus counters and phases.
        assert!(report.events as u64 > run.instructions());
    }
}
