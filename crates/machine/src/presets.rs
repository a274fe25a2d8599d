//! Machine presets from the paper's taxonomy (§2) and evaluation (§4).

use crate::config::{FunctionalUnit, MachineConfig};
use supersym_isa::{ClassTable, InstrClass};

/// The base machine (§2.1): one instruction per cycle, every operation
/// latency one cycle, parallelism required to fully utilize = 1.
#[must_use]
pub fn base() -> MachineConfig {
    MachineConfig::builder("base")
        .build()
        .expect("base preset is valid")
}

/// An ideal superscalar machine of degree `n` (§2.3): `n` instructions per
/// cycle, unit latencies, no class conflicts.
///
/// # Panics
///
/// Panics if `n` is zero.
#[must_use]
pub fn ideal_superscalar(n: u32) -> MachineConfig {
    MachineConfig::builder(format!("superscalar({n})"))
        .issue_width(n)
        .build()
        .expect("superscalar preset is valid")
}

/// A VLIW machine of degree `n` (§2.3.1). "In terms of run time exploitation
/// of instruction-level parallelism, the superscalar and VLIW will have
/// similar characteristics" — the timing description is the superscalar one.
#[must_use]
pub fn vliw(n: u32) -> MachineConfig {
    let mut builder = MachineConfig::builder(format!("vliw({n})"));
    builder.issue_width(n);
    builder.build().expect("vliw preset is valid")
}

/// A superpipelined machine of degree `m` (§2.4): one instruction per
/// (machine) cycle, the machine cycle is `1/m` base cycles, and simple
/// operations take `m` machine cycles.
///
/// # Panics
///
/// Panics if `m` is zero.
#[must_use]
pub fn superpipelined(m: u32) -> MachineConfig {
    MachineConfig::builder(format!("superpipelined({m})"))
        .pipe_degree(m)
        .scale_latencies(m)
        .build()
        .expect("superpipelined preset is valid")
}

/// A superpipelined superscalar machine of degree `(n, m)` (§2.5).
#[must_use]
pub fn superpipelined_superscalar(n: u32, m: u32) -> MachineConfig {
    MachineConfig::builder(format!("superpipelined-superscalar({n},{m})"))
        .issue_width(n)
        .pipe_degree(m)
        .scale_latencies(m)
        .build()
        .expect("superpipelined-superscalar preset is valid")
}

/// An underpipelined machine whose cycle time is twice the base machine's
/// (Figure 2-2): the whole machine runs at half rate. Modeled as a base
/// machine whose every cycle costs two base cycles (pipe degree handled by
/// reporting: latencies doubled, issue every other slot via issue latency 2).
#[must_use]
pub fn underpipelined_slow_cycle() -> MachineConfig {
    let mut builder = MachineConfig::builder("underpipelined (cycle = 2x)");
    builder.pipe_degree(1).scale_latencies(2);
    for class in InstrClass::ALL {
        builder.functional_unit(FunctionalUnit::new(class.mnemonic(), vec![class], 1, 2));
    }
    builder.build().expect("underpipelined preset is valid")
}

/// An underpipelined machine that issues an instruction only every other
/// cycle (Figure 2-3), like loads on the Berkeley RISC II. Modeled as a
/// single universal functional unit with issue latency 2, so *every*
/// instruction occupies the issue stage for two cycles.
#[must_use]
pub fn underpipelined_half_issue() -> MachineConfig {
    let mut builder = MachineConfig::builder("underpipelined (issue < 1 per cycle)");
    builder.functional_unit(FunctionalUnit::new(
        "universal",
        InstrClass::ALL.to_vec(),
        1,
        2,
    ));
    builder.build().expect("underpipelined preset is valid")
}

/// Operation latencies of the DECWRL MultiTitan, per Table 2-1: ALU 1,
/// loads/stores/branches 2, floating point 3 ("The MultiTitan is therefore a
/// slightly superpipelined machine", §2.7).
#[must_use]
pub fn multititan_latencies() -> ClassTable<u32> {
    ClassTable::from_fn(|class| match class {
        InstrClass::Logical | InstrClass::Shift | InstrClass::IntAdd | InstrClass::Compare => 1,
        InstrClass::IntMul => 3,
        InstrClass::IntDiv => 12,
        InstrClass::Load | InstrClass::Store | InstrClass::Branch | InstrClass::Jump => 2,
        InstrClass::FpAdd | InstrClass::FpMul | InstrClass::FpCvt => 3,
        InstrClass::FpDiv => 12,
    })
}

/// The MultiTitan: single issue, the latencies of [`multititan_latencies`].
#[must_use]
pub fn multititan() -> MachineConfig {
    MachineConfig::builder("MultiTitan")
        .latencies(multititan_latencies())
        .build()
        .expect("MultiTitan preset is valid")
}

/// Operation latencies of the CRAY-1, per Table 2-1: logical 1, shift 2,
/// add/sub 3, load 11, store 1, branch 3, FP 7.
///
/// Classes the table does not list (integer multiply/divide, FP divide,
/// converts, jumps) are given CRAY-1-plausible values; they are rare and do
/// not affect the Table 2-1 metric, which uses the paper's seven-row
/// frequency breakdown.
#[must_use]
pub fn cray1_latencies() -> ClassTable<u32> {
    ClassTable::from_fn(|class| match class {
        InstrClass::Logical => 1,
        InstrClass::Shift => 2,
        InstrClass::IntAdd | InstrClass::Compare => 3,
        InstrClass::IntMul => 7,
        InstrClass::IntDiv => 20,
        InstrClass::Load => 11,
        InstrClass::Store => 1,
        InstrClass::Branch | InstrClass::Jump => 3,
        InstrClass::FpAdd | InstrClass::FpMul => 7,
        InstrClass::FpDiv => 25,
        InstrClass::FpCvt => 2,
    })
}

/// The CRAY-1 latency model: single issue, latencies of [`cray1_latencies`].
///
/// Used for Figure 4-4: "We simulated the performance of the CRAY-1 assuming
/// single cycle functional unit latency and actual functional unit
/// latencies."
#[must_use]
pub fn cray1() -> MachineConfig {
    MachineConfig::builder("CRAY-1")
        .latencies(cray1_latencies())
        .build()
        .expect("CRAY-1 preset is valid")
}

/// A degree-`n` superscalar with **class conflicts** (§2.3.2): only the
/// register ports, busses and decode are duplicated; the functional units
/// are not. Loads/stores share one memory port, all FP shares one unit, and
/// one each of the integer units exists.
#[must_use]
pub fn superscalar_with_class_conflicts(n: u32) -> MachineConfig {
    let mut builder = MachineConfig::builder(format!("superscalar({n}) with class conflicts"));
    builder
        .issue_width(n)
        .functional_unit(FunctionalUnit::new(
            "alu",
            vec![
                InstrClass::Logical,
                InstrClass::Shift,
                InstrClass::IntAdd,
                InstrClass::Compare,
            ],
            1,
            1,
        ))
        .functional_unit(FunctionalUnit::new(
            "imuldiv",
            vec![InstrClass::IntMul, InstrClass::IntDiv],
            1,
            1,
        ))
        .functional_unit(FunctionalUnit::new(
            "mem",
            vec![InstrClass::Load, InstrClass::Store],
            1,
            1,
        ))
        .functional_unit(FunctionalUnit::new(
            "ctrl",
            vec![InstrClass::Branch, InstrClass::Jump],
            1,
            1,
        ))
        .functional_unit(FunctionalUnit::new(
            "fp",
            vec![
                InstrClass::FpAdd,
                InstrClass::FpMul,
                InstrClass::FpDiv,
                InstrClass::FpCvt,
            ],
            1,
            1,
        ));
    builder.build().expect("class-conflict preset is valid")
}

/// The eleven machines of the paper's studies, in study order: base,
/// MultiTitan, CRAY-1, VLIW(4), superscalar(2) and (8),
/// superpipelined(4), superpipelined superscalar(2,2), superscalar(4) with
/// class conflicts, and the two underpipelined machines.
#[must_use]
pub fn study() -> Vec<MachineConfig> {
    vec![
        base(),
        multititan(),
        cray1(),
        vliw(4),
        ideal_superscalar(2),
        ideal_superscalar(8),
        superpipelined(4),
        superpipelined_superscalar(2, 2),
        superscalar_with_class_conflicts(4),
        underpipelined_slow_cycle(),
        underpipelined_half_issue(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_machine_definition() {
        let config = base();
        assert_eq!(config.issue_width(), 1);
        assert_eq!(config.pipe_degree(), 1);
        assert_eq!(config.required_parallelism(), 1);
        for class in InstrClass::ALL {
            assert_eq!(config.latency(class), 1);
        }
    }

    #[test]
    fn superscalar_needs_n() {
        assert_eq!(ideal_superscalar(3).required_parallelism(), 3);
        assert_eq!(ideal_superscalar(8).issue_width(), 8);
    }

    #[test]
    fn superpipelined_needs_m() {
        let sp3 = superpipelined(3);
        assert_eq!(sp3.required_parallelism(), 3);
        assert_eq!(sp3.latency(InstrClass::IntAdd), 3);
        assert_eq!(sp3.base_cycles(9), 3.0);
    }

    #[test]
    fn ssp_needs_nm() {
        let ssp = superpipelined_superscalar(2, 2);
        assert_eq!(ssp.required_parallelism(), 4);
    }

    #[test]
    fn vliw_matches_superscalar_timing() {
        let v = vliw(4);
        let s = ideal_superscalar(4);
        assert_eq!(v.issue_width(), s.issue_width());
        assert_eq!(v.pipe_degree(), s.pipe_degree());
    }

    #[test]
    fn multititan_table_2_1_latencies() {
        let lat = multititan_latencies();
        assert_eq!(lat[InstrClass::Logical], 1);
        assert_eq!(lat[InstrClass::Shift], 1);
        assert_eq!(lat[InstrClass::IntAdd], 1);
        assert_eq!(lat[InstrClass::Load], 2);
        assert_eq!(lat[InstrClass::Store], 2);
        assert_eq!(lat[InstrClass::Branch], 2);
        assert_eq!(lat[InstrClass::FpAdd], 3);
    }

    #[test]
    fn cray1_table_2_1_latencies() {
        let lat = cray1_latencies();
        assert_eq!(lat[InstrClass::Logical], 1);
        assert_eq!(lat[InstrClass::Shift], 2);
        assert_eq!(lat[InstrClass::IntAdd], 3);
        assert_eq!(lat[InstrClass::Load], 11);
        assert_eq!(lat[InstrClass::Store], 1);
        assert_eq!(lat[InstrClass::Branch], 3);
        assert_eq!(lat[InstrClass::FpAdd], 7);
    }

    #[test]
    fn class_conflict_machine_shares_units() {
        let config = superscalar_with_class_conflicts(4);
        assert_eq!(config.issue_width(), 4);
        assert_eq!(
            config.unit_of(InstrClass::Load),
            config.unit_of(InstrClass::Store)
        );
        assert_eq!(
            config.unit_of(InstrClass::FpAdd),
            config.unit_of(InstrClass::FpMul)
        );
        assert_ne!(
            config.unit_of(InstrClass::Load),
            config.unit_of(InstrClass::FpAdd)
        );
    }

    #[test]
    fn underpipelined_machines() {
        let slow = underpipelined_slow_cycle();
        assert_eq!(slow.latency(InstrClass::IntAdd), 2);
        let half = underpipelined_half_issue();
        assert_eq!(half.functional_units().len(), 1);
        assert_eq!(half.functional_units()[0].issue_latency(), 2);
    }

    #[test]
    fn supersymmetry_required_parallelism() {
        // §2.7: superscalar and superpipelined machines of equal degree need
        // the same available parallelism.
        for degree in 1..=8 {
            assert_eq!(
                ideal_superscalar(degree).required_parallelism(),
                superpipelined(degree).required_parallelism()
            );
        }
    }
}
