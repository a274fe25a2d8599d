//! Experiment drivers: one per table and figure of the paper.
//!
//! Each function regenerates the data behind a figure or table of
//! *Available Instruction-Level Parallelism for Superscalar and
//! Superpipelined Machines* and returns a typed result whose `Display`
//! prints the same rows/series the paper reports. Absolute values depend on
//! our substituted benchmarks; the *shapes* — who wins, by what factor,
//! where the ceilings sit — are the reproduction targets (see
//! EXPERIMENTS.md).
//!
//! [`REGISTRY`] is the one list of these drivers. `titalc reproduce` prints
//! it, and `docs/reproduction_standard.txt` is that output at the standard
//! size.

use crate::{compile, CompileOptions, OptLevel};
use std::fmt;
use supersym_analyze::{program_loop_statics, static_bound, LoopCount, OracleKind};
use supersym_isa::{AsmBuilder, ClassCensus, IntReg, Program};
use supersym_machine::{presets, MachineConfig, RegisterSplit};
use supersym_opt::UnrollOptions;
use supersym_sim::{
    diagram, issue_speedup_with_miss_burden, simulate, simulate_with_cache, simulate_with_sink,
    CacheConfig, CycleAccount, MissCostRow, SimOptions, SimReport, StallCause, NUM_STALL_KINDS,
};
use supersym_trace::LoopCountSink;
use supersym_workloads::{numeric_suite, suite, Size, Workload};

/// One experiment of the reproduction: a driver and its printed table.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The driver's function name: `fig4_1`, `limit_study`, ….
    pub name: &'static str,
    /// Runs the driver at a workload size and renders its table. Drivers
    /// without a size ignore it.
    pub run: fn(Size) -> String,
}

impl Experiment {
    const fn new(name: &'static str, run: fn(Size) -> String) -> Self {
        Experiment { name, run }
    }
}

/// Every experiment, in the order `titalc reproduce` prints them: the
/// paper's tables and figures, then the extension studies.
pub const REGISTRY: &[Experiment] = &[
    Experiment::new("fig1_1", |_| fig1_1().to_string()),
    Experiment::new("fig2_diagrams", |_| fig2_diagrams()),
    Experiment::new("table2_1", |size| table2_1(size).to_string()),
    Experiment::new("fig4_1", |size| fig4_1(size).to_string()),
    Experiment::new("fig4_2", |_| fig4_2().to_string()),
    Experiment::new("fig4_3", |_| fig4_3().to_string()),
    Experiment::new("fig4_4", |size| fig4_4(size).to_string()),
    Experiment::new("fig4_5", |size| fig4_5(size).to_string()),
    Experiment::new("fig4_6", |size| fig4_6(size).to_string()),
    Experiment::new("fig4_7", |_| fig4_7().to_string()),
    Experiment::new("fig4_8", |size| fig4_8(size).to_string()),
    Experiment::new("table5_1", |size| table5_1(size).to_string()),
    Experiment::new("sec5_1", |_| sec5_1().to_string()),
    Experiment::new("headline", |size| headline(size).to_string()),
    Experiment::new("ablation_class_conflicts", |size| {
        ablation_class_conflicts(size).to_string()
    }),
    Experiment::new("ablation_branch_prediction", |size| {
        ablation_branch_prediction(size).to_string()
    }),
    Experiment::new("grid_measurement", |size| {
        grid_measurement(size).to_string()
    }),
    Experiment::new("unrolling_icache", |size| {
        unrolling_icache(size).to_string()
    }),
    Experiment::new("vector_equivalence", |_| vector_equivalence().to_string()),
    Experiment::new("complexity_tax", |size| complexity_tax(size).to_string()),
    Experiment::new("limit_study", |size| limit_study(size).to_string()),
    Experiment::new("alias_oracle_study", |size| {
        alias_oracle_study(size).to_string()
    }),
    Experiment::new("stall_breakdown", |size| stall_breakdown(size).to_string()),
    Experiment::new("rules_study", |size| rules_study(size).to_string()),
    Experiment::new("bound_study", |size| bound_study(size).to_string()),
    Experiment::new("sweep_study", |size| sweep_study(size).to_string()),
];

/// Harmonic mean (the paper's aggregate for speedups).
#[must_use]
pub fn harmonic_mean(values: &[f64]) -> f64 {
    let n = values.len() as f64;
    n / values.iter().map(|v| 1.0 / v).sum::<f64>()
}

/// Compiles a workload for `machine` at `level` and simulates it there.
///
/// # Panics
///
/// Panics if the workload fails to compile or run — the suite is tested.
#[must_use]
pub fn run_workload(
    workload: &Workload,
    level: OptLevel,
    machine: &MachineConfig,
    unroll: Option<UnrollOptions>,
    split: Option<RegisterSplit>,
) -> SimReport {
    let mut options = CompileOptions::new(level, machine);
    if let Some(unroll) = unroll {
        options = options.with_unroll(unroll);
    }
    if let Some(split) = split {
        options = options.with_split(split);
    }
    let program = compile_workload(workload, &options);
    simulate(&program, machine, SimOptions::default())
        .unwrap_or_else(|e| panic!("{} failed to run: {e}", workload.name))
}

/// Compiles a suite workload, which is tested to compile.
fn compile_workload(workload: &Workload, options: &CompileOptions) -> Program {
    compile(&workload.source, options)
        .unwrap_or_else(|e| panic!("{} failed to compile: {e}", workload.name))
}

/// The harmonic-mean speedup of each of `machines` over `base`, with every
/// workload compiled at `O4` for each machine.
fn suite_speedup(
    workloads: &[Workload],
    base: &MachineConfig,
    machines: impl IntoIterator<Item = MachineConfig>,
) -> Vec<f64> {
    let base_reports: Vec<SimReport> = workloads
        .iter()
        .map(|w| run_workload(w, OptLevel::O4, base, None, None))
        .collect();
    machines
        .into_iter()
        .map(|machine| {
            let speedups: Vec<f64> = workloads
                .iter()
                .zip(&base_reports)
                .map(|(w, base)| {
                    run_workload(w, OptLevel::O4, &machine, None, None).speedup_over(base)
                })
                .collect();
            harmonic_mean(&speedups)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 1-1
// ---------------------------------------------------------------------------

/// Figure 1-1: instruction-level parallelism of the two introductory code
/// fragments. Fragment (a) is three independent instructions
/// (parallelism 3); fragment (b) is a serial chain (parallelism 1).
#[derive(Debug, Clone)]
pub struct Fig1_1 {
    /// Measured parallelism of fragment (a).
    pub independent: f64,
    /// Measured parallelism of fragment (b).
    pub dependent: f64,
}

/// Runs the Figure 1-1 measurement on a wide ideal machine.
#[must_use]
pub fn fig1_1() -> Fig1_1 {
    fn measure(program: &Program) -> f64 {
        let report = simulate(
            program,
            &presets::ideal_superscalar(8),
            SimOptions::default(),
        )
        .expect("fragments run");
        // The halt issues alongside the last operation and does not extend
        // the critical path on a wide machine.
        (report.instructions() - 1) as f64 / report.base_cycles()
    }
    let r = |i: u8| IntReg::new(i).unwrap();
    // (a) Load C1<-23(R2); Add R3<-R3+1; FPAdd C4<-C4+C3 — independent.
    let mut a = AsmBuilder::new("fragment_a");
    let f3 = supersym_isa::FpReg::new(3).unwrap();
    let f4 = supersym_isa::FpReg::new(4).unwrap();
    a.load(r(1), r(2), 23);
    a.add(r(3), r(3), 1.into());
    a.fadd(f4, f4, f3);
    a.halt();
    // (b) Add R3<-R3+1; Add R4<-R3+R2; Store 0[R4]<-R0 — serial.
    let mut b = AsmBuilder::new("fragment_b");
    b.add(r(3), r(3), 1.into());
    b.add(r(4), r(3), r(2).into());
    b.store(IntReg::ZERO, r(4), 0);
    b.halt();
    Fig1_1 {
        independent: measure(&a.finish_program()),
        dependent: measure(&b.finish_program()),
    }
}

impl fmt::Display for Fig1_1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 1-1: instruction-level parallelism")?;
        writeln!(
            f,
            "  (a) independent fragment: parallelism = {:.2}",
            self.independent
        )?;
        writeln!(
            f,
            "  (b) dependent fragment:   parallelism = {:.2}",
            self.dependent
        )
    }
}

// ---------------------------------------------------------------------------
// Figures 2-1 .. 2-8
// ---------------------------------------------------------------------------

/// Renders the taxonomy pipeline diagrams (Figures 2-1 through 2-8) from
/// the timing model.
#[must_use]
pub fn fig2_diagrams() -> String {
    let mut out = String::new();
    let n = 8;
    out.push_str("Figure 2-1: base machine\n");
    out.push_str(&diagram::pipeline_diagram(&presets::base(), n));
    out.push_str("\nFigure 2-2: underpipelined (cycle > operation latency)\n");
    out.push_str(&diagram::pipeline_diagram(
        &presets::underpipelined_slow_cycle(),
        n,
    ));
    out.push_str("\nFigure 2-3: underpipelined (issues < 1 instruction per cycle)\n");
    out.push_str(&diagram::pipeline_diagram(
        &presets::underpipelined_half_issue(),
        n,
    ));
    out.push_str("\nFigure 2-4: superscalar (n=3)\n");
    out.push_str(&diagram::pipeline_diagram(
        &presets::ideal_superscalar(3),
        n,
    ));
    out.push_str("\nFigure 2-5: VLIW (equivalent timing to superscalar)\n");
    out.push_str(&diagram::pipeline_diagram(&presets::vliw(3), n));
    out.push_str("\nFigure 2-6: superpipelined (m=3)\n");
    out.push_str(&diagram::pipeline_diagram(&presets::superpipelined(3), n));
    out.push_str("\nFigure 2-7: superpipelined superscalar (n=3, m=3)\n");
    out.push_str(&diagram::pipeline_diagram(
        &presets::superpipelined_superscalar(3, 3),
        n,
    ));
    out.push_str("\nFigure 2-8: vector machine (length-6 vectors)\n");
    out.push_str(&diagram::vector_diagram(6, 4));
    out
}

// ---------------------------------------------------------------------------
// Table 2-1
// ---------------------------------------------------------------------------

/// Table 2-1: the average degree of superpipelining.
#[derive(Debug, Clone)]
pub struct Table2_1 {
    /// MultiTitan under the paper's frequency mix (paper: 1.7).
    pub multititan_paper: f64,
    /// CRAY-1 under the paper's frequency mix (paper: 4.4).
    pub cray1_paper: f64,
    /// MultiTitan under the measured benchmark mix.
    pub multititan_measured: f64,
    /// CRAY-1 under the measured benchmark mix.
    pub cray1_measured: f64,
}

/// Computes Table 2-1: the paper's frequency table exactly, plus the same
/// metric under the dynamic instruction mix of our benchmark suite.
#[must_use]
pub fn table2_1(size: Size) -> Table2_1 {
    let paper = supersym_machine::paper_frequencies();
    let mut census = ClassCensus::new();
    let machine = presets::base();
    for workload in suite(size) {
        let report = run_workload(&workload, OptLevel::O4, &machine, None, None);
        census.merge(report.census());
    }
    let measured = census.frequencies();
    Table2_1 {
        multititan_paper: supersym_machine::average_degree_of_superpipelining(
            presets::multititan().latencies(),
            &paper,
        ),
        cray1_paper: supersym_machine::average_degree_of_superpipelining(
            presets::cray1().latencies(),
            &paper,
        ),
        multititan_measured: supersym_machine::average_degree_of_superpipelining(
            presets::multititan().latencies(),
            &measured,
        ),
        cray1_measured: supersym_machine::average_degree_of_superpipelining(
            presets::cray1().latencies(),
            &measured,
        ),
    }
}

impl fmt::Display for Table2_1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table 2-1: average degree of superpipelining")?;
        writeln!(f, "  {:28} {:>10} {:>10}", "", "MultiTitan", "CRAY-1")?;
        writeln!(
            f,
            "  {:28} {:>10.1} {:>10.1}   (paper: 1.7, 4.4)",
            "paper frequency mix", self.multititan_paper, self.cray1_paper
        )?;
        writeln!(
            f,
            "  {:28} {:>10.1} {:>10.1}",
            "measured benchmark mix", self.multititan_measured, self.cray1_measured
        )
    }
}

// ---------------------------------------------------------------------------
// Figure 4-1
// ---------------------------------------------------------------------------

/// Figure 4-1 ("Supersymmetry"): harmonic-mean speedup over the base
/// machine for ideal superscalar and superpipelined machines of degree
/// 1 through 8.
#[derive(Debug, Clone)]
pub struct Fig4_1 {
    /// Degrees (x axis).
    pub degrees: Vec<u32>,
    /// Superscalar speedups.
    pub superscalar: Vec<f64>,
    /// Superpipelined speedups.
    pub superpipelined: Vec<f64>,
}

/// Runs the Figure 4-1 sweep.
#[must_use]
pub fn fig4_1(size: Size) -> Fig4_1 {
    let degrees: Vec<u32> = (1..=8).collect();
    let machines = degrees
        .iter()
        .map(|&degree| presets::ideal_superscalar(degree))
        .chain(
            degrees
                .iter()
                .map(|&degree| presets::superpipelined(degree)),
        );
    let mut superscalar = suite_speedup(&suite(size), &presets::base(), machines);
    let superpipelined = superscalar.split_off(degrees.len());
    Fig4_1 {
        degrees,
        superscalar,
        superpipelined,
    }
}

impl fmt::Display for Fig4_1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 4-1: supersymmetry (harmonic-mean speedup over base)"
        )?;
        writeln!(
            f,
            "  {:>6} {:>12} {:>14}",
            "degree", "superscalar", "superpipelined"
        )?;
        for (i, degree) in self.degrees.iter().enumerate() {
            writeln!(
                f,
                "  {:>6} {:>12.2} {:>14.2}",
                degree, self.superscalar[i], self.superpipelined[i]
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Figure 4-2
// ---------------------------------------------------------------------------

/// Figure 4-2: the startup transient. Completion times (in base cycles) of
/// a basic block of six independent instructions on degree-3 superscalar vs
/// superpipelined machines.
#[derive(Debug, Clone)]
pub struct Fig4_2 {
    /// Base cycle at which the superscalar machine completed the block.
    pub superscalar_done: f64,
    /// Base cycle at which the superpipelined machine completed the block.
    pub superpipelined_done: f64,
    /// Rendered timing diagrams.
    pub diagrams: String,
}

/// Runs the Figure 4-2 comparison.
#[must_use]
pub fn fig4_2() -> Fig4_2 {
    fn block_completion(machine: &MachineConfig) -> f64 {
        use supersym_sim::{ControlEvent, StepInfo, TimingModel};
        let mut timing = TimingModel::new(machine, 16);
        let mut last = 0_u64;
        for i in 0..6 {
            let info = StepInfo {
                func: supersym_isa::FuncId::new(0),
                pc: i,
                class: supersym_isa::InstrClass::IntAdd,
                uses: Default::default(),
                def: Some(supersym_isa::Reg::Int(IntReg::new_unchecked(i as u8 + 1))),
                mem: None,
                vlen: 0,
                control: ControlEvent::None,
            };
            last = timing.issue(&info).complete;
        }
        last as f64 / f64::from(machine.pipe_degree())
    }
    let ss = presets::ideal_superscalar(3);
    let sp = presets::superpipelined(3);
    let mut diagrams = String::new();
    diagrams.push_str(&diagram::pipeline_diagram(&ss, 6));
    diagrams.push('\n');
    diagrams.push_str(&diagram::pipeline_diagram(&sp, 6));
    Fig4_2 {
        superscalar_done: block_completion(&ss),
        superpipelined_done: block_completion(&sp),
        diagrams,
    }
}

impl fmt::Display for Fig4_2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 4-2: start-up in superscalar vs superpipelined (6-instruction block)"
        )?;
        writeln!(
            f,
            "  superscalar(3) completes at base cycle   {:.2}",
            self.superscalar_done
        )?;
        writeln!(
            f,
            "  superpipelined(3) completes at base cycle {:.2}",
            self.superpipelined_done
        )?;
        f.write_str(&self.diagrams)
    }
}

// ---------------------------------------------------------------------------
// Figure 4-3
// ---------------------------------------------------------------------------

/// Figure 4-3: the n×m utilization grid, with the MultiTitan and CRAY-1
/// placed on the superpipelining axis.
#[derive(Debug, Clone)]
pub struct Fig4_3 {
    /// The grid cells.
    pub grid: Vec<supersym_machine::UtilizationCell>,
    /// MultiTitan's position on the superpipelining axis (paper: 1.7).
    pub multititan_axis: f64,
    /// CRAY-1's position (paper: 4.4).
    pub cray1_axis: f64,
}

/// Builds the Figure 4-3 grid.
#[must_use]
pub fn fig4_3() -> Fig4_3 {
    let freqs = supersym_machine::paper_frequencies();
    Fig4_3 {
        grid: supersym_machine::utilization_grid(5, 5),
        multititan_axis: supersym_machine::superpipelining_axis_position(
            &presets::multititan(),
            &freqs,
        ),
        cray1_axis: supersym_machine::superpipelining_axis_position(&presets::cray1(), &freqs),
    }
}

impl fmt::Display for Fig4_3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 4-3: parallelism required for full utilization (n x m)"
        )?;
        writeln!(f, "  cycles/op (m)")?;
        for m in (1..=5).rev() {
            write!(f, "  {m} |")?;
            for cell in self.grid.iter().filter(|c| c.pipe_degree == m) {
                write!(f, " {:>3}", cell.required_parallelism)?;
            }
            writeln!(f)?;
        }
        writeln!(f, "     +{}", "----".repeat(5))?;
        writeln!(
            f,
            "      {}",
            (1..=5).map(|n| format!(" {n:>3}")).collect::<String>()
        )?;
        writeln!(f, "      instructions issued per cycle (n)")?;
        writeln!(f, "  MultiTitan axis position: {:.1}", self.multititan_axis)?;
        writeln!(f, "  CRAY-1 axis position:     {:.1}", self.cray1_axis)
    }
}

// ---------------------------------------------------------------------------
// Figure 4-4
// ---------------------------------------------------------------------------

/// Figure 4-4: speedup (%) from multi-issue on the CRAY-1 under unit
/// latencies vs actual latencies.
#[derive(Debug, Clone)]
pub struct Fig4_4 {
    /// Issue widths (x axis).
    pub widths: Vec<u32>,
    /// Percent improvement with all latencies = 1.
    pub unit_latencies: Vec<f64>,
    /// Percent improvement with actual CRAY-1 latencies.
    pub actual_latencies: Vec<f64>,
}

/// Runs the Figure 4-4 sweep.
#[must_use]
pub fn fig4_4(size: Size) -> Fig4_4 {
    let workloads = suite(size);
    let cray = presets::cray1();
    let widths: Vec<u32> = (1..=8).collect();
    let percent = |base: &MachineConfig| -> Vec<f64> {
        let machines = widths.iter().map(|&width| base.with_issue_width(width));
        suite_speedup(&workloads, &base.with_issue_width(1), machines)
            .into_iter()
            .map(|speedup| (speedup - 1.0) * 100.0)
            .collect()
    };
    Fig4_4 {
        unit_latencies: percent(&cray.with_unit_latencies()),
        actual_latencies: percent(&cray),
        widths,
    }
}

impl fmt::Display for Fig4_4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 4-4: CRAY-1 parallel issue, unit vs real latencies (% speedup)"
        )?;
        writeln!(
            f,
            "  {:>6} {:>16} {:>18}",
            "width", "all latencies=1", "actual latencies"
        )?;
        for (i, width) in self.widths.iter().enumerate() {
            writeln!(
                f,
                "  {:>6} {:>15.0}% {:>17.0}%",
                width, self.unit_latencies[i], self.actual_latencies[i]
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Figure 4-5
// ---------------------------------------------------------------------------

/// Figure 4-5: per-benchmark parallelism vs instruction issue multiplicity.
#[derive(Debug, Clone)]
pub struct Fig4_5 {
    /// Issue widths (x axis).
    pub widths: Vec<u32>,
    /// Per-benchmark speedup curves (name, speedups over width 1).
    pub curves: Vec<(String, Vec<f64>)>,
}

/// Runs the Figure 4-5 sweep. `linpack` is compiled with the official 4x
/// careful unrolling, as in the paper ("unrolled 4x unless noted
/// otherwise").
#[must_use]
pub fn fig4_5(size: Size) -> Fig4_5 {
    let workloads = suite(size);
    let mut curves = Vec::new();
    for workload in &workloads {
        let unroll = if workload.name == "linpack" {
            Some(UnrollOptions::careful(4))
        } else {
            None
        };
        let base = run_workload(workload, OptLevel::O4, &presets::base(), unroll, None);
        let mut speedups = Vec::new();
        for width in 1..=8 {
            let machine = presets::ideal_superscalar(width);
            let report = run_workload(workload, OptLevel::O4, &machine, unroll, None);
            speedups.push(report.speedup_over(&base));
        }
        curves.push((workload.name.to_string(), speedups));
    }
    Fig4_5 {
        widths: (1..=8).collect(),
        curves,
    }
}

impl fmt::Display for Fig4_5 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 4-5: instruction-level parallelism by benchmark")?;
        write!(f, "  {:10}", "width")?;
        for width in &self.widths {
            write!(f, " {width:>6}")?;
        }
        writeln!(f)?;
        for (name, speedups) in &self.curves {
            write!(f, "  {name:10}")?;
            for s in speedups {
                write!(f, " {s:>6.2}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Figure 4-6
// ---------------------------------------------------------------------------

/// Figure 4-6: parallelism vs loop unrolling, naive and careful.
#[derive(Debug, Clone)]
pub struct Fig4_6 {
    /// Unroll factors (x axis; 1 = not unrolled).
    pub factors: Vec<usize>,
    /// (benchmark, naive parallelism per factor, careful parallelism per factor).
    pub curves: Vec<(String, Vec<f64>, Vec<f64>)>,
}

/// Runs the Figure 4-6 sweep on the numeric benchmarks with the
/// forty-temporary register split.
#[must_use]
pub fn fig4_6(size: Size) -> Fig4_6 {
    let machine = presets::ideal_superscalar(8);
    let split = RegisterSplit::unrolling_study();
    let factors = vec![1, 2, 4, 10];
    let mut curves = Vec::new();
    for workload in numeric_suite(size) {
        let mut naive = Vec::new();
        let mut careful = Vec::new();
        for &factor in &factors {
            for (vec, is_careful) in [(&mut naive, false), (&mut careful, true)] {
                let unroll = (factor > 1).then_some(UnrollOptions {
                    factor,
                    careful: is_careful,
                });
                let report = run_workload(&workload, OptLevel::O4, &machine, unroll, Some(split));
                vec.push(report.available_parallelism());
            }
        }
        curves.push((workload.name.to_string(), naive, careful));
    }
    Fig4_6 { factors, curves }
}

impl fmt::Display for Fig4_6 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 4-6: parallelism vs loop unrolling")?;
        writeln!(
            f,
            "  {:24} {}",
            "benchmark",
            self.factors
                .iter()
                .map(|x| format!("{x:>6}"))
                .collect::<String>()
        )?;
        for (name, naive, careful) in &self.curves {
            write!(f, "  {:24}", format!("{name} (naive)"))?;
            for v in naive {
                write!(f, "{v:>6.2}")?;
            }
            writeln!(f)?;
            write!(f, "  {:24}", format!("{name} (careful)"))?;
            for v in careful {
                write!(f, "{v:>6.2}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Figure 4-7
// ---------------------------------------------------------------------------

/// Figure 4-7: how optimizing different parts of an expression graph moves
/// its parallelism (ops / critical-path length).
#[derive(Debug, Clone)]
pub struct Fig4_7 {
    /// The original graph (paper: 1.67).
    pub original: f64,
    /// After optimizing a parallel branch away (paper: 1.33).
    pub branch_optimized: f64,
    /// After optimizing the bottleneck (paper: 1.50).
    pub bottleneck_optimized: f64,
}

/// Measures the three Figure 4-7 expression graphs on a wide ideal machine.
#[must_use]
pub fn fig4_7() -> Fig4_7 {
    let r = |i: u8| IntReg::new(i).unwrap();
    fn measure(asm: AsmBuilder, ops: u64) -> f64 {
        let program = asm.finish_program();
        let report = simulate(
            &program,
            &presets::ideal_superscalar(8),
            SimOptions::default(),
        )
        .expect("fragment runs");
        // parallelism = ops / depth (the halt overlaps the last level).
        ops as f64 / report.base_cycles()
    }
    // Original: the paper's 5-node depth-3 graph:
    // t1=a+b; t2=c+d; t3=t1+t2; t4=e+f; t5=t3+t4.
    let mut original = AsmBuilder::new("original");
    original.add(r(10), r(1), r(2).into());
    original.add(r(11), r(3), r(4).into());
    original.add(r(12), r(10), r(11).into());
    original.add(r(13), r(5), r(6).into());
    original.add(r(14), r(12), r(13).into());
    original.halt();
    // One parallel branch optimized away: t4 gone, t5 = t3 + e.
    let mut branch = AsmBuilder::new("branch_optimized");
    branch.add(r(10), r(1), r(2).into());
    branch.add(r(11), r(3), r(4).into());
    branch.add(r(12), r(10), r(11).into());
    branch.add(r(14), r(12), r(5).into());
    branch.halt();
    // Bottleneck optimized: 3 nodes, depth 2.
    let mut bottleneck = AsmBuilder::new("bottleneck_optimized");
    bottleneck.add(r(10), r(1), r(2).into());
    bottleneck.add(r(11), r(3), r(4).into());
    bottleneck.add(r(12), r(10), r(11).into());
    bottleneck.halt();
    Fig4_7 {
        original: measure(original, 5),
        branch_optimized: measure(branch, 4),
        bottleneck_optimized: measure(bottleneck, 3),
    }
}

impl fmt::Display for Fig4_7 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 4-7: parallelism vs compiler optimizations (expression graphs)"
        )?;
        writeln!(
            f,
            "  original graph:        {:.2}  (paper: 1.67)",
            self.original
        )?;
        writeln!(
            f,
            "  branch optimized:      {:.2}  (paper: 1.33)",
            self.branch_optimized
        )?;
        writeln!(
            f,
            "  bottleneck optimized:  {:.2}  (paper: 1.50)",
            self.bottleneck_optimized
        )
    }
}

// ---------------------------------------------------------------------------
// Figure 4-8
// ---------------------------------------------------------------------------

/// Figure 4-8: available parallelism at each optimization level.
#[derive(Debug, Clone)]
pub struct Fig4_8 {
    /// Level labels (x axis).
    pub levels: Vec<&'static str>,
    /// Per-benchmark parallelism at each level.
    pub curves: Vec<(String, Vec<f64>)>,
}

/// Runs the Figure 4-8 sweep on an ideal degree-8 superscalar with the
/// paper's 16-temporary / 26-global register split.
#[must_use]
pub fn fig4_8(size: Size) -> Fig4_8 {
    let machine = presets::ideal_superscalar(8);
    let mut curves = Vec::new();
    for workload in suite(size) {
        let mut values = Vec::new();
        for level in OptLevel::ALL {
            let report = run_workload(&workload, level, &machine, None, None);
            values.push(report.available_parallelism());
        }
        curves.push((workload.name.to_string(), values));
    }
    Fig4_8 {
        levels: OptLevel::ALL.iter().map(|l| l.label()).collect(),
        curves,
    }
}

impl fmt::Display for Fig4_8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 4-8: effect of optimization on parallelism")?;
        write!(f, "  {:10}", "benchmark")?;
        for level in &self.levels {
            write!(f, " {level:>18}")?;
        }
        writeln!(f)?;
        for (name, values) in &self.curves {
            write!(f, "  {name:10}")?;
            for v in values {
                write!(f, " {v:>18.2}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Table 5-1 and §5.1
// ---------------------------------------------------------------------------

/// Table 5-1 plus measured cache behaviour.
#[derive(Debug, Clone)]
pub struct Table5_1 {
    /// The paper's analytic rows.
    pub rows: Vec<MissCostRow>,
    /// Measured I-cache miss rate over the suite (small split caches).
    pub icache_miss_rate: f64,
    /// Measured D-cache miss rate.
    pub dcache_miss_rate: f64,
    /// Effective CPI on a base machine charging the Titan-row miss cost.
    pub effective_cpi: f64,
}

/// Computes Table 5-1 and runs the suite through the cache simulator.
#[must_use]
pub fn table5_1(size: Size) -> Table5_1 {
    let machine = presets::base();
    let mut i_acc = 0_u64;
    let mut i_miss = 0_u64;
    let mut d_acc = 0_u64;
    let mut d_miss = 0_u64;
    let mut instructions = 0_u64;
    let mut cycles = 0_f64;
    let mut misses_weighted = 0_f64;
    for workload in suite(size) {
        let program = compile_workload(&workload, &CompileOptions::new(OptLevel::O4, &machine));
        let (report, caches) = simulate_with_cache(
            &program,
            &machine,
            SimOptions::default(),
            CacheConfig::small_direct(),
            CacheConfig::small_direct(),
        )
        .expect("suite runs");
        i_acc += caches.icache.accesses;
        i_miss += caches.icache.misses;
        d_acc += caches.dcache.accesses;
        d_miss += caches.dcache.misses;
        instructions += report.instructions();
        cycles += report.base_cycles();
        misses_weighted += caches.misses_per_instruction * report.instructions() as f64;
    }
    let titan = &MissCostRow::table_5_1()[1];
    let base_cpi = cycles / instructions as f64;
    let misses_per_instr = misses_weighted / instructions as f64;
    Table5_1 {
        rows: MissCostRow::table_5_1(),
        icache_miss_rate: i_miss as f64 / i_acc as f64,
        dcache_miss_rate: d_miss as f64 / d_acc as f64,
        effective_cpi: base_cpi + misses_per_instr * titan.miss_cost_cycles(),
    }
}

impl fmt::Display for Table5_1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table 5-1: the cost of cache misses")?;
        writeln!(
            f,
            "  {:26} {:>9} {:>9} {:>9} {:>11} {:>11}",
            "machine", "cpi", "cycle ns", "mem ns", "miss cyc", "miss instr"
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "  {:26} {:>9.1} {:>9.0} {:>9.0} {:>11.0} {:>11.1}",
                row.machine(),
                row.cycles_per_instr(),
                row.cycle_ns(),
                row.mem_ns(),
                row.miss_cost_cycles(),
                row.miss_cost_instructions()
            )?;
        }
        writeln!(
            f,
            "  measured (8KiB split direct-mapped caches over the suite):"
        )?;
        writeln!(
            f,
            "    I-cache miss rate {:.2}%, D-cache miss rate {:.2}%",
            self.icache_miss_rate * 100.0,
            self.dcache_miss_rate * 100.0
        )?;
        writeln!(
            f,
            "    effective CPI at Titan miss cost: {:.2}",
            self.effective_cpi
        )
    }
}

/// §5.1: the cache-miss dilution argument.
#[derive(Debug, Clone)]
pub struct Sec5_1 {
    /// Speedup from 1.0 to 0.5 issue CPI without misses (paper: 2.0).
    pub speedup_without_misses: f64,
    /// The same with 1.0 CPI of miss burden (paper: 1.33).
    pub speedup_with_misses: f64,
}

/// Computes the §5.1 example.
#[must_use]
pub fn sec5_1() -> Sec5_1 {
    let (without, with) = issue_speedup_with_miss_burden(1.0, 0.5, 1.0);
    Sec5_1 {
        speedup_without_misses: without,
        speedup_with_misses: with,
    }
}

impl fmt::Display for Sec5_1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Section 5.1: miss burden dilutes multi-issue gains")?;
        writeln!(
            f,
            "  without misses: {:.0}% improvement (paper: 100%)",
            (self.speedup_without_misses - 1.0) * 100.0
        )?;
        writeln!(
            f,
            "  with 1.0 cpi of misses: {:.0}% improvement (paper: 33%)",
            (self.speedup_with_misses - 1.0) * 100.0
        )
    }
}

// ---------------------------------------------------------------------------
// Headline numbers
// ---------------------------------------------------------------------------

/// §4/§6 headline: available parallelism per benchmark after normal
/// optimization (paper: 1.6 for yacc up to 3.2 for unrolled linpack).
#[derive(Debug, Clone)]
pub struct Headline {
    /// (benchmark, available parallelism).
    pub parallelism: Vec<(String, f64)>,
}

/// Measures available parallelism per benchmark on an ideal degree-8
/// machine at full optimization (linpack with official 4x unrolling).
#[must_use]
pub fn headline(size: Size) -> Headline {
    let machine = presets::ideal_superscalar(8);
    let mut parallelism = Vec::new();
    for workload in suite(size) {
        let unroll = (workload.name == "linpack").then_some(UnrollOptions::careful(4));
        let report = run_workload(&workload, OptLevel::O4, &machine, unroll, None);
        parallelism.push((workload.name.to_string(), report.available_parallelism()));
    }
    Headline { parallelism }
}

impl fmt::Display for Headline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Available instruction-level parallelism (degree-8 ideal machine):"
        )?;
        for (name, value) in &self.parallelism {
            writeln!(f, "  {name:10} {value:>6.2}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_1_shapes() {
        let result = fig1_1();
        assert!(
            result.independent > 2.0,
            "independent {}",
            result.independent
        );
        assert!(result.dependent <= 1.2, "dependent {}", result.dependent);
    }

    #[test]
    fn fig4_2_transient() {
        let result = fig4_2();
        assert!(result.superpipelined_done > result.superscalar_done);
    }

    #[test]
    fn fig4_3_grid() {
        let result = fig4_3();
        assert_eq!(result.grid.len(), 25);
        assert!((result.multititan_axis - 1.7).abs() < 1e-9);
        assert!((result.cray1_axis - 4.4).abs() < 1e-9);
    }

    #[test]
    fn fig4_7_expression_graphs() {
        let result = fig4_7();
        assert!((result.original - 5.0 / 3.0).abs() < 0.01, "{result:?}");
        assert!(
            (result.branch_optimized - 4.0 / 3.0).abs() < 0.01,
            "{result:?}"
        );
        assert!(
            (result.bottleneck_optimized - 1.5).abs() < 0.01,
            "{result:?}"
        );
    }

    #[test]
    fn sec5_1_dilution() {
        let result = sec5_1();
        assert!((result.speedup_without_misses - 2.0).abs() < 1e-12);
        assert!((result.speedup_with_misses - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn diagrams_render() {
        let text = fig2_diagrams();
        assert!(text.contains("Figure 2-1"));
        assert!(text.contains("Figure 2-8"));
        assert!(text.contains('E'));
    }

    #[test]
    fn registry_names_are_unique() {
        for (i, experiment) in REGISTRY.iter().enumerate() {
            assert!(
                REGISTRY[..i].iter().all(|e| e.name != experiment.name),
                "`{}` is registered twice",
                experiment.name
            );
        }
    }

    #[test]
    fn harmonic_mean_basics() {
        assert!((harmonic_mean(&[2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!(harmonic_mean(&[1.0, 4.0]) < 2.5); // below arithmetic mean
    }
}

// ---------------------------------------------------------------------------
// Extensions: the ablations §2.3.2 and §6 leave to future work
// ---------------------------------------------------------------------------

/// Class-conflict ablation (§2.3.2 / §6: "class conflicts and the extra
/// complexity of parallel over pipelined instruction decode could easily
/// negate this advantage. These tradeoffs merit investigation in future
/// work"): ideal superscalar vs a superscalar that duplicates only decode
/// and register ports, across degrees.
#[derive(Debug, Clone)]
pub struct ClassConflictAblation {
    /// Degrees (x axis).
    pub degrees: Vec<u32>,
    /// Harmonic-mean speedup over base, all units duplicated.
    pub ideal: Vec<f64>,
    /// Harmonic-mean speedup over base, shared functional units.
    pub conflicted: Vec<f64>,
}

/// Runs the class-conflict ablation.
#[must_use]
pub fn ablation_class_conflicts(size: Size) -> ClassConflictAblation {
    let degrees = vec![2, 3, 4, 6, 8];
    let machines = degrees
        .iter()
        .map(|&degree| presets::ideal_superscalar(degree))
        .chain(
            degrees
                .iter()
                .map(|&degree| presets::superscalar_with_class_conflicts(degree)),
        );
    let mut ideal = suite_speedup(&suite(size), &presets::base(), machines);
    let conflicted = ideal.split_off(degrees.len());
    ClassConflictAblation {
        degrees,
        ideal,
        conflicted,
    }
}

impl fmt::Display for ClassConflictAblation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Ablation (paper future work): class conflicts (§2.3.2)")?;
        writeln!(
            f,
            "  {:>6} {:>12} {:>16}",
            "degree", "ideal", "shared units"
        )?;
        for (i, degree) in self.degrees.iter().enumerate() {
            writeln!(
                f,
                "  {:>6} {:>12.2} {:>16.2}",
                degree, self.ideal[i], self.conflicted[i]
            )?;
        }
        Ok(())
    }
}

/// Branch-prediction ablation: the paper assumes perfect prediction /
/// branch-slot filling (§2.1); this measures what that assumption is worth
/// on machines with real control latencies.
#[derive(Debug, Clone)]
pub struct BranchPredictionAblation {
    /// (machine name, harmonic-mean slowdown of no-prediction vs perfect).
    pub slowdowns: Vec<(String, f64)>,
}

/// Runs the branch-prediction ablation.
#[must_use]
pub fn ablation_branch_prediction(size: Size) -> BranchPredictionAblation {
    let workloads = suite(size);
    let mut slowdowns = Vec::new();
    for machine in [presets::multititan(), presets::cray1()] {
        // Rebuild with prediction off (same latencies, default units).
        let mut builder = MachineConfig::builder(format!("{} (no prediction)", machine.name()));
        builder
            .latencies(*machine.latencies())
            .issue_width(machine.issue_width())
            .pipe_degree(machine.pipe_degree())
            .perfect_branch_prediction(false);
        let imperfect = builder.build().expect("ablated machine is valid");
        let ratios: Vec<f64> = workloads
            .iter()
            .map(|w| {
                let perfect = run_workload(w, OptLevel::O4, &machine, None, None);
                let stalled = run_workload(w, OptLevel::O4, &imperfect, None, None);
                stalled.base_cycles() / perfect.base_cycles()
            })
            .collect();
        slowdowns.push((machine.name().to_string(), harmonic_mean(&ratios)));
    }
    BranchPredictionAblation { slowdowns }
}

impl fmt::Display for BranchPredictionAblation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Ablation: cost of removing the perfect-branch-prediction assumption (§2.1)"
        )?;
        for (name, slowdown) in &self.slowdowns {
            writeln!(f, "  {name:12} {slowdown:>6.2}x slower without prediction")?;
        }
        Ok(())
    }
}

/// Empirical companion to Figure 4-3: measured speedup of superpipelined
/// superscalar machines over the (n, m) grid — showing that `n*m` quickly
/// exceeds the available parallelism.
#[derive(Debug, Clone)]
pub struct GridMeasurement {
    /// (issue width n, pipe degree m, harmonic-mean speedup over base).
    pub cells: Vec<(u32, u32, f64)>,
}

/// Measures the (n, m) grid up to 4×4.
#[must_use]
pub fn grid_measurement(size: Size) -> GridMeasurement {
    let points: Vec<(u32, u32)> = (1..=4).flat_map(|m| (1..=4).map(move |n| (n, m))).collect();
    let machines = points
        .iter()
        .map(|&(n, m)| presets::superpipelined_superscalar(n, m));
    let speedups = suite_speedup(&suite(size), &presets::base(), machines);
    GridMeasurement {
        cells: points
            .into_iter()
            .zip(speedups)
            .map(|((n, m), speedup)| (n, m, speedup))
            .collect(),
    }
}

impl fmt::Display for GridMeasurement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Measured speedup over the (n, m) grid (companion to Figure 4-3)"
        )?;
        writeln!(f, "  m\\n {:>6} {:>6} {:>6} {:>6}", 1, 2, 3, 4)?;
        for m in 1..=4 {
            write!(f, "  {m}  ")?;
            for n in 1..=4 {
                let cell = self
                    .cells
                    .iter()
                    .find(|&&(cn, cm, _)| cn == n && cm == m)
                    .expect("grid is complete");
                write!(f, " {:>6.2}", cell.2)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// §4.4's instruction-cache caveat: "In all cases, cache effects were
/// ignored. If limited instruction caches were present, the actual
/// performance would decline for large degrees of unrolling." Measures
/// code growth, I-cache miss rate, and miss-adjusted performance across
/// unroll factors on a small instruction cache.
#[derive(Debug, Clone)]
pub struct UnrollingICache {
    /// Unroll factors.
    pub factors: Vec<usize>,
    /// Static code size (instructions) per factor.
    pub static_size: Vec<usize>,
    /// I-cache miss rate per factor (tiny 1 KiW cache).
    pub imiss_rate: Vec<f64>,
    /// Ideal IPC (no cache) per factor.
    pub ideal_ipc: Vec<f64>,
    /// Miss-adjusted IPC, charging the Titan-row 12-cycle miss cost.
    pub adjusted_ipc: Vec<f64>,
}

/// Runs the unrolling-vs-I-cache study on livermore.
#[must_use]
pub fn unrolling_icache(size: Size) -> UnrollingICache {
    let machine = presets::ideal_superscalar(8);
    let split = RegisterSplit::unrolling_study();
    let workload = match size {
        Size::Small => supersym_workloads::livermore(40, 2),
        Size::Standard => supersym_workloads::livermore(100, 10),
    };
    // A deliberately small I-cache (1 KiW = 256 four-word lines) so the
    // unrolled footprint spills out of it, as §4.4 anticipates.
    let icache = CacheConfig {
        lines: 256,
        words_per_line: 4,
        associativity: 1,
    };
    let mut result = UnrollingICache {
        factors: vec![1, 2, 4, 10],
        static_size: Vec::new(),
        imiss_rate: Vec::new(),
        ideal_ipc: Vec::new(),
        adjusted_ipc: Vec::new(),
    };
    for &factor in &result.factors.clone() {
        let mut options = CompileOptions::new(OptLevel::O4, &machine).with_split(split);
        if factor > 1 {
            options = options.with_unroll(UnrollOptions::careful(factor));
        }
        let program = compile_workload(&workload, &options);
        let (report, caches) = simulate_with_cache(
            &program,
            &machine,
            SimOptions::default(),
            icache,
            CacheConfig::large_two_way(),
        )
        .expect("workload runs");
        let ideal_cpi = report.base_cycles() / report.instructions() as f64;
        let miss_cpi = caches.icache.miss_rate() * 12.0; // Titan miss cost
        result.static_size.push(program.static_size());
        result.imiss_rate.push(caches.icache.miss_rate());
        result.ideal_ipc.push(report.available_parallelism());
        result.adjusted_ipc.push(1.0 / (ideal_cpi + miss_cpi));
    }
    result
}

impl fmt::Display for UnrollingICache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Unrolling vs a small instruction cache (§4.4's caveat, measured)"
        )?;
        writeln!(
            f,
            "  {:>7} {:>12} {:>10} {:>10} {:>14}",
            "unroll", "static size", "I-miss", "ideal IPC", "adjusted IPC"
        )?;
        for (i, factor) in self.factors.iter().enumerate() {
            writeln!(
                f,
                "  {:>7} {:>12} {:>9.2}% {:>10.2} {:>14.2}",
                factor,
                self.static_size[i],
                self.imiss_rate[i] * 100.0,
                self.ideal_ipc[i],
                self.adjusted_ipc[i]
            )?;
        }
        Ok(())
    }
}

/// §2.3's vector-equivalence claim, measured: "A superscalar machine that
/// can issue a fixed-point, floating-point, load, and a branch all in one
/// cycle achieves the same effective parallelism" as a vector machine
/// executing a chained load/add at one element per cycle.
#[derive(Debug, Clone)]
pub struct VectorEquivalence {
    /// Elements processed.
    pub elements: u64,
    /// Cycles per element, scalar loop on the base machine.
    pub scalar_base: f64,
    /// Cycles per element, scalar loop on a superscalar able to issue the
    /// whole loop body each cycle.
    pub scalar_superscalar: f64,
    /// Cycles per element, chained vector code on the base machine.
    pub vector: f64,
}

/// Builds and measures the three §2.3 variants of `acc += x[i]` over
/// `strips * 64` elements.
#[must_use]
pub fn vector_equivalence() -> VectorEquivalence {
    use supersym_isa::{FpOp, FpReg, VecReg, MAX_VLEN};
    let strips: i64 = 64;
    let n = strips * MAX_VLEN as i64;
    let r = |i: u8| IntReg::new(i).unwrap();
    let data = |program: &mut Program| {
        program.alloc_globals(n as usize);
        for addr in 0..n as usize {
            program.add_data(addr, (addr as f64 * 0.001).to_bits() as i64);
        }
    };

    // Scalar loop: ldf; cmp (on the pre-increment index); add i; fadd; br —
    // five instructions per element, software-pipelined so every iteration
    // issues in one cycle on a wide machine (the paper counts
    // compare-and-branch as one operation, so its "degree four" machine is
    // our width five).
    let scalar_program = {
        let mut asm = AsmBuilder::new("main");
        let top = asm.new_label();
        let f1 = FpReg::new(1).unwrap();
        let f2 = FpReg::new(2).unwrap();
        asm.movi(r(9), 0);
        asm.bind(top);
        asm.loadf(f2, r(9), 0);
        asm.cmp_lt(r(10), r(9), (n - 1).into());
        asm.add(r(9), r(9), 1.into());
        asm.fadd(f1, f1, f2);
        asm.br_true(r(10), top);
        asm.halt();
        let mut program = asm.finish_program();
        data(&mut program);
        program
    };

    // Vector loop: setvl; vload; vadd (chained); add i; cmp; br per strip.
    let vector_program = {
        let mut asm = AsmBuilder::new("main");
        let top = asm.new_label();
        let v1 = VecReg::new(1).unwrap();
        let v2 = VecReg::new(2).unwrap();
        asm.movi(r(9), 0);
        asm.movi(r(11), MAX_VLEN as i64);
        asm.setvl(r(11));
        asm.bind(top);
        asm.vload(v2, r(9), 0);
        asm.vop(FpOp::FAdd, v1, v1, v2);
        asm.add(r(9), r(9), (MAX_VLEN as i64).into());
        asm.cmp_lt(r(10), r(9), n.into());
        asm.br_true(r(10), top);
        asm.halt();
        let mut program = asm.finish_program();
        data(&mut program);
        program
    };

    let cycles = |program: &Program, machine: &MachineConfig| -> f64 {
        simulate(program, machine, SimOptions::default())
            .expect("kernel runs")
            .base_cycles()
            / n as f64
    };
    VectorEquivalence {
        elements: n as u64,
        scalar_base: cycles(&scalar_program, &presets::base()),
        scalar_superscalar: cycles(&scalar_program, &presets::ideal_superscalar(5)),
        vector: cycles(&vector_program, &presets::base()),
    }
}

impl fmt::Display for VectorEquivalence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Vector equivalence (§2.3), {} elements of chained load+add:",
            self.elements
        )?;
        writeln!(
            f,
            "  scalar loop, base machine:        {:.2} cycles/element",
            self.scalar_base
        )?;
        writeln!(
            f,
            "  scalar loop, wide superscalar:    {:.2} cycles/element",
            self.scalar_superscalar
        )?;
        writeln!(
            f,
            "  chained vector, base machine:     {:.2} cycles/element",
            self.vector
        )
    }
}

#[cfg(test)]
mod vector_tests {
    use super::*;

    #[test]
    fn vector_equivalence_shape() {
        let result = vector_equivalence();
        // The superscalar and vector variants both approach one element
        // per cycle and sit within 20% of each other; the base scalar loop
        // is several times slower.
        assert!(
            (result.scalar_superscalar - result.vector).abs()
                < 0.2 * result.scalar_superscalar.max(result.vector),
            "{result:?}"
        );
        assert!(result.scalar_base > 3.0 * result.vector, "{result:?}");
        assert!(result.vector < 1.3, "{result:?}");
    }
}

/// §5.2 quantified: "care must be taken not to slow down the machine cycle
/// time (as a result of adding the complexity) more than the speedup
/// derived from the increased parallelism." Applies a per-degree cycle-time
/// tax to the ideal superscalar speedups and reports where each tax level
/// makes wider issue a net loss.
#[derive(Debug, Clone)]
pub struct ComplexityTax {
    /// Cycle-time tax per additional issue slot (fractional).
    pub taxes: Vec<f64>,
    /// For each tax: speedups at degrees 1..=8 after the tax.
    pub taxed_speedups: Vec<Vec<f64>>,
    /// For each tax: the degree with the best net speedup.
    pub best_degree: Vec<u32>,
}

/// Runs the §5.2 complexity-tax study.
#[must_use]
pub fn complexity_tax(size: Size) -> ComplexityTax {
    let raw = fig4_1(size);
    let taxes = vec![0.0, 0.02, 0.05, 0.10];
    let mut taxed_speedups = Vec::new();
    let mut best_degree = Vec::new();
    for &tax in &taxes {
        let taxed: Vec<f64> = raw
            .degrees
            .iter()
            .zip(&raw.superscalar)
            .map(|(&degree, &speedup)| speedup / (1.0 + tax * f64::from(degree - 1)))
            .collect();
        let best = raw.degrees[taxed
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("non-empty")
            .0];
        taxed_speedups.push(taxed);
        best_degree.push(best);
    }
    ComplexityTax {
        taxes,
        taxed_speedups,
        best_degree,
    }
}

impl fmt::Display for ComplexityTax {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Design-complexity tax (§5.2): net speedup when each extra issue slot"
        )?;
        writeln!(f, "stretches the cycle time")?;
        write!(f, "  {:>10}", "tax/slot")?;
        for degree in 1..=8 {
            write!(f, " {degree:>6}")?;
        }
        writeln!(f, " {:>6}", "best")?;
        for (i, &tax) in self.taxes.iter().enumerate() {
            write!(f, "  {:>9.0}%", tax * 100.0)?;
            for s in &self.taxed_speedups[i] {
                write!(f, " {s:>6.2}")?;
            }
            writeln!(f, " {:>6}", self.best_degree[i])?;
        }
        Ok(())
    }
}

/// The limit studies behind §4.2's opening sentence ("Studies dating from
/// the late 1960's and early 1970's [14, 15] ... have observed average
/// instruction-level parallelism of around 2"): each benchmark measured on
/// (a) our in-order degree-8 machine, (b) an oracle with unlimited
/// resources and renaming but conditional branches as barriers (Riseman &
/// Foster's regime), and (c) the same oracle with perfect branch
/// speculation (their "unlimited jump resolution" regime, which exposed
/// order-of-magnitude-larger parallelism).
#[derive(Debug, Clone)]
pub struct LimitStudy {
    /// (benchmark, in-order ILP, branch-barrier limit, speculative limit).
    pub rows: Vec<(String, f64, f64, f64)>,
}

/// Runs the limit study.
#[must_use]
pub fn limit_study(size: Size) -> LimitStudy {
    use supersym_sim::{measure_limit, ExecOptions, LimitOptions};
    let machine = presets::ideal_superscalar(8);
    let mut rows = Vec::new();
    for workload in suite(size) {
        let program = compile_workload(&workload, &CompileOptions::new(OptLevel::O4, &machine));
        let in_order = simulate(&program, &machine, SimOptions::default())
            .expect("suite runs")
            .available_parallelism();
        let barriers = measure_limit(
            &program,
            LimitOptions::with_branch_barriers(),
            ExecOptions::default(),
        )
        .expect("suite runs")
        .parallelism();
        let speculative = measure_limit(
            &program,
            LimitOptions::speculative(),
            ExecOptions::default(),
        )
        .expect("suite runs")
        .parallelism();
        rows.push((workload.name.to_string(), in_order, barriers, speculative));
    }
    LimitStudy { rows }
}

impl fmt::Display for LimitStudy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "ILP limit study (the [14, 15] regimes behind §4.2)")?;
        writeln!(
            f,
            "  {:10} {:>14} {:>16} {:>18}",
            "benchmark", "in-order x8", "branch barriers", "perfect speculation"
        )?;
        for (name, in_order, barriers, speculative) in &self.rows {
            writeln!(
                f,
                "  {name:10} {in_order:>14.2} {barriers:>16.2} {speculative:>18.1}"
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Alias-oracle ablation (the dependence oracle behind the scheduler)
// ---------------------------------------------------------------------------

/// The alias-oracle ablation: schedulable parallelism under the
/// conservative (annotation-only) dependence oracle versus the symbolic
/// base+offset oracle that `supersym-analyze` adds, per paper preset.
#[derive(Debug, Clone)]
pub struct AliasOracleStudy {
    /// `(machine, benchmark, conservative, symbolic)` rows.
    pub rows: Vec<(String, String, f64, f64)>,
}

/// Runs the oracle ablation in the regime where alias precision is the
/// binding constraint: the numeric suite, *naively* unrolled 4x with the
/// forty-temporary split. Careful unrolling renames indices so the front
/// end's own annotations already separate the copies; naive unrolling
/// reuses one induction variable with an increment between copies —
/// exactly the "false conflicts between the different copies" §4.4
/// blames for naive unrolling's flat curve, and exactly the pattern the
/// symbolic oracle's value-numbering chain sees through. Each benchmark
/// is compiled once per [`OracleKind`] and
/// simulated on each paper preset.
///
/// The symbolic oracle only ever *removes* dependence edges, so every
/// schedule it produces is legal under the conservative edge set too; the
/// measured parallelism can still dip a hair on conflict-limited machines
/// because the list scheduler is greedy and extra freedom occasionally
/// steers it into a structural-hazard pattern.
#[must_use]
pub fn alias_oracle_study(size: Size) -> AliasOracleStudy {
    use supersym_analyze::OracleKind;
    let machines = [
        presets::base(),
        presets::multititan(),
        presets::cray1(),
        presets::ideal_superscalar(2),
        presets::ideal_superscalar(8),
        presets::superpipelined(4),
        presets::superpipelined_superscalar(2, 2),
        presets::superscalar_with_class_conflicts(4),
        presets::underpipelined_half_issue(),
    ];
    let workloads = numeric_suite(size);
    let mut rows = Vec::new();
    for machine in &machines {
        for workload in &workloads {
            let mut measured = [0.0, 0.0];
            for (slot, oracle) in [(0, OracleKind::Conservative), (1, OracleKind::Symbolic)] {
                let options = CompileOptions::new(OptLevel::O4, machine)
                    .with_unroll(UnrollOptions::naive(4))
                    .with_split(RegisterSplit::unrolling_study())
                    .with_oracle(oracle);
                let program = compile_workload(workload, &options);
                let report = simulate(&program, machine, SimOptions::default())
                    .unwrap_or_else(|e| panic!("{} failed to run: {e}", workload.name));
                measured[slot] = report.available_parallelism();
            }
            rows.push((
                machine.name().to_string(),
                workload.name.to_string(),
                measured[0],
                measured[1],
            ));
        }
    }
    AliasOracleStudy { rows }
}

impl fmt::Display for AliasOracleStudy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Alias-oracle study: parallelism by dependence oracle (naive 4x unrolling)"
        )?;
        writeln!(
            f,
            "  {:38} {:10} {:>12} {:>10} {:>8}",
            "machine", "benchmark", "conservative", "symbolic", "delta"
        )?;
        for (machine, benchmark, conservative, symbolic) in &self.rows {
            writeln!(
                f,
                "  {machine:38} {benchmark:10} {conservative:>12.3} {symbolic:>10.3} {:>+7.2}%",
                (symbolic / conservative - 1.0) * 100.0
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Stall breakdown (where each preset's cycles actually go)
// ---------------------------------------------------------------------------

/// The stall-breakdown study: the whole suite's cycle account aggregated
/// per machine preset. Where Figure 4-x reports *how fast* each machine
/// is, this reports *why it is no faster*: every machine cycle charged to
/// issue, one stall cause, or pipeline drain (the rows sum exactly), plus
/// the dominant cause from the per-instruction wait view — which, unlike
/// the cycle view, also sees deferrals that hide inside busy cycles
/// (issue-width pressure on wide machines).
#[derive(Debug, Clone)]
pub struct StallBreakdownStudy {
    /// `(machine, aggregate account, dominant wait cause)` rows.
    pub rows: Vec<(String, CycleAccount, &'static str)>,
}

/// Runs the stall-breakdown study: the full suite at `OptLevel::O4` on
/// every paper preset.
///
/// # Panics
///
/// Panics if any workload fails to compile or run, or if any account
/// fails its conservation invariant — both indicate a simulator bug.
#[must_use]
pub fn stall_breakdown(size: Size) -> StallBreakdownStudy {
    let machines = presets::study();
    let workloads = suite(size);
    let mut rows = Vec::new();
    for machine in &machines {
        let mut aggregate: Option<CycleAccount> = None;
        for workload in &workloads {
            let report = run_workload(workload, OptLevel::O4, machine, None, None);
            let account = report.cycle_account();
            assert!(
                account.conserved(),
                "{} on {}: cycle account does not balance",
                workload.name,
                machine.name()
            );
            match &mut aggregate {
                Some(total) => total.merge(account),
                None => aggregate = Some(account.clone()),
            }
        }
        let aggregate = aggregate.expect("non-empty suite");
        let dominant = (0..NUM_STALL_KINDS)
            .max_by_key(|&index| aggregate.wait_cycles(index))
            .expect("non-empty cause set");
        rows.push((
            machine.name().to_string(),
            aggregate,
            StallCause::LABELS[dominant],
        ));
    }
    StallBreakdownStudy { rows }
}

// ---------------------------------------------------------------------------
// Rules study (the verified rewrite-rule table: on vs off)
// ---------------------------------------------------------------------------

/// One workload measured with the synthesized rewrite-rule table disabled
/// and enabled (everything else — opt level, machine, unrolling — held
/// fixed).
#[derive(Debug, Clone)]
pub struct RulesRow {
    /// Workload name.
    pub benchmark: String,
    /// Static instructions without / with the rule table.
    pub static_insts: [usize; 2],
    /// Dynamic instructions without / with the rule table.
    pub dynamic_insts: [u64; 2],
    /// Available parallelism without / with the rule table.
    pub parallelism: [f64; 2],
}

/// The rules study: what the machine-verified rewrite-rule table buys on
/// each workload, measured on the degree-4 ideal superscalar at `O4`.
///
/// The table only ever *collapses* expressions (each rule's right-hand
/// side is a variable or a constant), and it competes with passes that
/// already exist: constant folding, CSE and strength reduction catch most
/// of the suite's redundancy on their own, so the honest result is rows
/// of zeros with isolated wins where an identity pattern (`x & x`,
/// `x + 0` fed by a variable, not a constant) survives to LVN. The wins
/// shorten the instruction stream without hurting the issue rate.
#[derive(Debug, Clone)]
pub struct RulesStudy {
    /// One row per workload.
    pub rows: Vec<RulesRow>,
}

/// Runs the rules study over the whole suite.
///
/// # Panics
///
/// Panics if any workload fails to compile or run in either
/// configuration — the suite is tested in both.
#[must_use]
pub fn rules_study(size: Size) -> RulesStudy {
    let machine = presets::ideal_superscalar(4);
    let mut rows = Vec::new();
    for workload in &suite(size) {
        let mut row = RulesRow {
            benchmark: workload.name.to_string(),
            static_insts: [0; 2],
            dynamic_insts: [0; 2],
            parallelism: [0.0; 2],
        };
        for (slot, rules) in [(0, false), (1, true)] {
            let options = CompileOptions::new(OptLevel::O4, &machine).with_rules(rules);
            let program = compile_workload(workload, &options);
            let report = simulate(&program, &machine, SimOptions::default())
                .unwrap_or_else(|e| panic!("{} failed to run: {e}", workload.name));
            row.static_insts[slot] = program.static_size();
            row.dynamic_insts[slot] = report.instructions();
            row.parallelism[slot] = report.available_parallelism();
        }
        rows.push(row);
    }
    RulesStudy { rows }
}

impl fmt::Display for RulesStudy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Rules study: verified rewrite-rule table off vs on (ideal superscalar:4, O4)"
        )?;
        writeln!(
            f,
            "  {:10} {:>8} {:>8} {:>7} {:>10} {:>10} {:>7} {:>8} {:>8}",
            "benchmark",
            "stat-off",
            "stat-on",
            "delta",
            "dyn-off",
            "dyn-on",
            "delta",
            "ilp-off",
            "ilp-on"
        )?;
        for row in &self.rows {
            let pct = |off: f64, on: f64| (on / off - 1.0) * 100.0;
            writeln!(
                f,
                "  {:10} {:>8} {:>8} {:>+6.1}% {:>10} {:>10} {:>+6.1}% {:>8.3} {:>8.3}",
                row.benchmark,
                row.static_insts[0],
                row.static_insts[1],
                pct(row.static_insts[0] as f64, row.static_insts[1] as f64),
                row.dynamic_insts[0],
                row.dynamic_insts[1],
                pct(row.dynamic_insts[0] as f64, row.dynamic_insts[1] as f64),
                row.parallelism[0],
                row.parallelism[1],
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Bound study (static ILP ceilings vs measured parallelism)
// ---------------------------------------------------------------------------

/// One workload × machine cell of the bound study: the static ILP ceiling
/// next to the parallelism the simulator actually measured.
#[derive(Debug, Clone)]
pub struct BoundCell {
    /// Workload name.
    pub benchmark: String,
    /// Innermost machine loops the static analysis recognized.
    pub loops: usize,
    /// Sound static lower bound on machine cycles.
    pub lower_bound_cycles: u64,
    /// Machine cycles the simulator measured.
    pub machine_cycles: u64,
    /// Static ILP ceiling (`instructions · pipe_degree / lower bound`).
    pub bound_ilp: f64,
    /// Measured available parallelism.
    pub measured_ilp: f64,
    /// Recurrence-bound MinII (largest over the program's loops).
    pub rec_min_ii: f64,
    /// Resource-bound MinII (largest over the program's loops).
    pub res_min_ii: f64,
    /// The soundness invariant: measured ILP never exceeds the bound.
    pub sound: bool,
}

/// Computes one [`BoundCell`]: static loop analysis, a counted simulation,
/// and the combined ceiling for `program` on `machine`.
///
/// # Panics
///
/// Panics if the program fails to run — callers hand in compiled,
/// validated programs.
#[must_use]
pub fn measure_bound(benchmark: &str, program: &Program, machine: &MachineConfig) -> BoundCell {
    let oracle = OracleKind::default().as_loop_oracle();
    let statics = program_loop_statics(program, machine, oracle);
    let watches: Vec<(u32, u64, u64)> = statics
        .iter()
        .map(|s| (s.func as u32, s.header as u64, s.latch as u64))
        .collect();
    let mut sink = LoopCountSink::new(&watches);
    let report = simulate_with_sink(program, machine, SimOptions::default(), &mut sink)
        .unwrap_or_else(|e| panic!("{benchmark} failed to run: {e}"));
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
    BoundCell {
        benchmark: benchmark.to_string(),
        loops: statics.len(),
        lower_bound_cycles: bound.lower_bound_cycles,
        machine_cycles: report.machine_cycles(),
        bound_ilp: bound.bound_ilp,
        measured_ilp: measured,
        rec_min_ii: bound.rec_min_ii,
        res_min_ii: bound.res_min_ii,
        sound: measured <= bound.bound_ilp * (1.0 + 1e-9),
    }
}

/// The bound study: static ILP ceilings against measured parallelism for
/// the full suite on every paper preset.
#[derive(Debug, Clone)]
pub struct BoundStudy {
    /// `(machine, cells)` — one cell per workload, suite order.
    pub rows: Vec<(String, Vec<BoundCell>)>,
}

/// Runs the bound study at `OptLevel::O4` over all presets × workloads.
///
/// # Panics
///
/// Panics if any workload fails to compile or run, or if any cell violates
/// the soundness invariant — the latter would mean the static bound or the
/// timing model is wrong.
#[must_use]
pub fn bound_study(size: Size) -> BoundStudy {
    let machines = presets::study();
    let workloads = suite(size);
    let mut rows = Vec::new();
    for machine in &machines {
        let mut cells = Vec::new();
        for workload in &workloads {
            let program = compile_workload(workload, &CompileOptions::new(OptLevel::O4, machine));
            let cell = measure_bound(workload.name, &program, machine);
            assert!(
                cell.sound,
                "{} on {}: measured ILP {:.4} exceeds static bound {:.4}",
                workload.name,
                machine.name(),
                cell.measured_ilp,
                cell.bound_ilp
            );
            cells.push(cell);
        }
        rows.push((machine.name().to_string(), cells));
    }
    BoundStudy { rows }
}

impl fmt::Display for BoundStudy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Bound study: static ILP ceiling vs measured parallelism (suite, O4)"
        )?;
        for (machine, cells) in &self.rows {
            writeln!(f, "  {machine}")?;
            writeln!(
                f,
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
            )?;
            for c in cells {
                writeln!(
                    f,
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
                )?;
            }
        }
        Ok(())
    }
}

impl fmt::Display for StallBreakdownStudy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Stall breakdown: % of machine cycles by cause (suite aggregate, O4)"
        )?;
        write!(f, "  {:38} {:>10}", "machine", "cycles")?;
        for short in ["issue", "raw", "waw", "fu", "mem", "ctl"] {
            write!(f, " {short:>6}")?;
        }
        writeln!(f, " {:>6} dominant wait", "drain")?;
        for (machine, account, dominant) in &self.rows {
            let total = account.machine_cycles().max(1) as f64;
            let pct = |cycles: u64| 100.0 * cycles as f64 / total;
            write!(
                f,
                "  {machine:38} {:>10} {:>5.1}%",
                account.machine_cycles(),
                pct(account.issue_cycles())
            )?;
            // The issue-width column is provably all zeros in the cycle
            // view (a width deferral issues next cycle), so it is omitted.
            for index in 0..NUM_STALL_KINDS - 1 {
                write!(f, " {:>5.1}%", pct(account.stall_cycles(index)))?;
            }
            writeln!(f, " {:>5.1}% {dominant}", pct(account.drain_cycles()))?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Sweep study (companion to Figure 4-3: the measured map, not the model)
// ---------------------------------------------------------------------------

/// The sweep study: speedup-vs-cost Pareto frontier over a machine grid.
///
/// Figure 4-3 models how much parallelism each `(n, m)` point *requires*;
/// this study measures what the suite actually *delivers* on every cell of
/// a grid containing those presets, then keeps the hardware-efficient
/// frontier: the cells no cheaper cell matches.
#[derive(Debug, Clone)]
pub struct SweepStudy {
    /// The grid's canonical spec text.
    pub grid: String,
    /// Cells enumerated.
    pub cells: usize,
    /// Work items quarantined (must be 0 on a healthy pipeline).
    pub quarantined: usize,
    /// Per-cell aggregates (harmonic-mean speedup, hardware cost).
    pub summaries: Vec<crate::sweep::CellSummary>,
    /// The Pareto frontier, by rising cost.
    pub frontier: Vec<crate::sweep::ParetoPoint>,
}

/// Runs the sweep study: a 48-cell grid spanning the paper's superscalar
/// and superpipelined presets under unit and MultiTitan latencies.
#[must_use]
pub fn sweep_study(size: Size) -> SweepStudy {
    use crate::sweep::{
        aggregate_cells, pareto_frontier, run_sweep, PipelineCellRunner, ResultCache, SweepConfig,
        SweepPlan, DEFAULT_CELL_FUEL,
    };
    let workloads = suite(size);
    let runner = PipelineCellRunner::new(
        &workloads,
        OptLevel::O4,
        OracleKind::Symbolic,
        DEFAULT_CELL_FUEL,
        false,
    );
    let grid = supersym_machine::GridSpec::parse(
        "issue=1,2,4,8 pipe=1,2,4 lat=unit,titan fu=ideal,shared",
    )
    .unwrap_or_else(|_| unreachable!("static grid spec parses"));
    let plan = SweepPlan {
        workload_names: runner.names().to_vec(),
        fuel: DEFAULT_CELL_FUEL,
        identity: runner.identity(&grid.canonical(), OptLevel::O4, OracleKind::Symbolic),
        grid,
    };
    let config = SweepConfig {
        jobs: 4,
        quiet: true,
        ..SweepConfig::default()
    };
    let outcome = run_sweep(&plan, &runner, &config, None, &ResultCache::new(), None)
        .unwrap_or_else(|_| unreachable!("no journal, no I/O"));
    let cells = plan.grid.cells();
    let summaries = aggregate_cells(&outcome.records, &cells);
    let frontier = pareto_frontier(&summaries);
    SweepStudy {
        grid: plan.grid.canonical(),
        cells: cells.len(),
        quarantined: outcome.quarantined,
        summaries,
        frontier,
    }
}

impl fmt::Display for SweepStudy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Sweep study: measured Pareto frontier over `{}`",
            self.grid
        )?;
        writeln!(
            f,
            "  {} cells, {} quarantined; frontier ({} points, by rising cost):",
            self.cells,
            self.quarantined,
            self.frontier.len()
        )?;
        writeln!(f, "  {:30} {:>6} {:>9}", "cell", "cost", "speedup")?;
        for point in &self.frontier {
            writeln!(
                f,
                "  {:30} {:>6} {:>9.2}",
                point.cell, point.cost, point.speedup
            )?;
        }
        Ok(())
    }
}
