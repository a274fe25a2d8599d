//! Inputs shared by the workloads: the Small suite, the machine lists,
//! the reference checksums, and small measuring helpers.

use std::cell::Cell;
use std::io::{self, Write};
use std::rc::Rc;
use supersym::isa::{InstrClass, IntReg, Program};
use supersym::machine::{presets, MachineConfig};
use supersym::sim::{ExecOptions, Executor};
use supersym::trace::TimelineSink;
use supersym::verify::Value;
use supersym::workloads::{suite, Size, Workload};

/// The sweep study's grid, as `experiments::sweep_study` and the
/// ROADMAP's end-to-end row define it.
pub const SWEEP_GRID: &str = "issue=1,2,4,8 pipe=1,2,4 lat=unit,titan fu=ideal,shared";

/// Instruction budget for the reference interpreter: every Small program
/// finishes with room to spare.
const REFERENCE_FUEL: u64 = 200_000_000;

/// The 8-program Small suite, in its canonical order.
#[must_use]
pub fn programs() -> Vec<Workload> {
    suite(Size::Small)
}

/// The presets of the compile ladder: the base machine, an ideal
/// superscalar, and the paper's two latency-bound machines.
#[must_use]
pub fn ladder_machines() -> Vec<MachineConfig> {
    vec![
        presets::base(),
        presets::ideal_superscalar(4),
        presets::multititan(),
        presets::cray1(),
    ]
}

/// The eleven presets of `experiments::stall_breakdown`, in its order.
#[must_use]
pub fn stall_breakdown_machines() -> Vec<MachineConfig> {
    vec![
        presets::base(),
        presets::multititan(),
        presets::cray1(),
        presets::vliw(4),
        presets::ideal_superscalar(2),
        presets::ideal_superscalar(8),
        presets::superpipelined(4),
        presets::superpipelined_superscalar(2, 2),
        presets::superscalar_with_class_conflicts(4),
        presets::underpipelined_slow_cycle(),
        presets::underpipelined_half_issue(),
    ]
}

/// The machines of the profile workload's timeline half.
#[must_use]
pub fn timeline_machines() -> Vec<MachineConfig> {
    vec![presets::multititan(), presets::cray1()]
}

/// Each program's checksum from the IR interpreter of `supersym-verify`,
/// run on the unoptimized IR: a reference no compiler pass produced.
///
/// # Errors
///
/// When a program fails to parse, lower or run, or returns no integer.
pub fn reference_checksums(programs: &[Workload]) -> Result<Vec<i64>, String> {
    programs
        .iter()
        .map(|workload| {
            let fail = |why: String| format!("reference for {}: {why}", workload.name);
            let ast = supersym::lang::parse(&workload.source).map_err(|e| fail(e.to_string()))?;
            supersym::lang::check(&ast).map_err(|e| fail(e.to_string()))?;
            let module = supersym::ir::lower(&ast).map_err(|e| fail(e.to_string()))?;
            let summary = supersym::verify::execute(&module, REFERENCE_FUEL)
                .map_err(|e| fail(e.to_string()))?;
            match summary.ret {
                Some(Value::Int(checksum)) => Ok(checksum),
                other => Err(fail(format!("main returned {other:?}"))),
            }
        })
        .collect()
}

/// The checksum a compiled program leaves in `r1` when run to completion
/// on the functional executor.
///
/// # Errors
///
/// When the program is invalid or traps.
pub fn executed_checksum(program: &Program) -> Result<i64, String> {
    let mut exec = Executor::new(program, ExecOptions::default()).map_err(|e| e.to_string())?;
    exec.run().map_err(|e| e.to_string())?;
    Ok(exec.int_reg(IntReg::new(1).expect("r1 exists")))
}

/// Checks every distinct program in `outputs` (one `(program index,
/// compiled program)` per job) against the reference checksums, executing
/// each distinct program once. Returns the indices of the jobs whose
/// program computed the wrong checksum or failed to run.
#[must_use]
pub fn check_checksums(outputs: &[(usize, &Program)], reference: &[i64]) -> Vec<usize> {
    let mut verdicts: Vec<(usize, &Program, bool)> = Vec::new();
    let mut failed = Vec::new();
    for (job, &(workload, program)) in outputs.iter().enumerate() {
        let known = verdicts
            .iter()
            .find(|(w, p, _)| *w == workload && *p == program)
            .map(|&(_, _, ok)| ok);
        let ok = known.unwrap_or_else(|| {
            let ok = executed_checksum(program) == Ok(reference[workload]);
            verdicts.push((workload, program, ok));
            ok
        });
        if !ok {
            failed.push(job);
        }
    }
    failed
}

/// A timeline sink whose simulate lanes are named after `machine`'s
/// functional units, as `titalc profile --timeline` opens it.
pub fn timeline_sink<W: Write>(out: W, machine: &MachineConfig) -> TimelineSink<W> {
    let lanes = machine
        .functional_units()
        .iter()
        .map(|unit| unit.name().to_string())
        .collect();
    let class_lane = InstrClass::ALL
        .iter()
        .map(|&class| (class.mnemonic().to_string(), machine.unit_of(class)))
        .collect();
    TimelineSink::new(out).with_pipeline_lanes(lanes, class_lane)
}

/// A writer that keeps only a byte count, readable while the sink that
/// owns the writer is still open.
#[derive(Debug, Clone, Default)]
pub struct ByteCounter {
    bytes: Rc<Cell<u64>>,
}

impl ByteCounter {
    /// Bytes written so far.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes.get()
    }
}

impl Write for ByteCounter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes.set(self.bytes.get() + buf.len() as u64);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The process's peak resident set so far, MiB (`VmHWM`).
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// A permutation of `0..n` drawn from `rng` (Fisher-Yates).
#[must_use]
pub fn permutation(n: usize, rng: &mut supersym::rng::SplitMix64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}
