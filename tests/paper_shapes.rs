//! Shape tests: the qualitative claims of the paper, asserted against our
//! measurements (small workload sizes; the full-size numbers live in
//! EXPERIMENTS.md and regenerate via `titalc reproduce`).

use supersym::experiments::run_workload;
use supersym::machine::presets;
use supersym::opt::UnrollOptions;
use supersym::workloads::{ccom, linpack, livermore, suite, yacc, Size};
use supersym::OptLevel;

/// §2.7 + Figure 4-1: a superscalar and superpipelined machine of equal
/// degree have basically the same performance, with the superscalar ahead
/// by a startup transient.
#[test]
fn supersymmetry_on_one_benchmark() {
    let workload = ccom(6);
    let base = run_workload(&workload, OptLevel::O4, &presets::base(), None, None);
    let mut last_ss = 0.0;
    for degree in [2, 4, 8] {
        let ss = run_workload(
            &workload,
            OptLevel::O4,
            &presets::ideal_superscalar(degree),
            None,
            None,
        )
        .speedup_over(&base);
        let sp = run_workload(
            &workload,
            OptLevel::O4,
            &presets::superpipelined(degree),
            None,
            None,
        )
        .speedup_over(&base);
        assert!(
            ss >= sp,
            "superpipelined beat superscalar at degree {degree}"
        );
        assert!(
            sp >= ss * 0.80,
            "superpipelined too far behind at degree {degree}: {sp} vs {ss}"
        );
        assert!(ss >= last_ss, "speedup not monotone in degree");
        last_ss = ss;
    }
}

/// §4.2 + Figure 4-4: with actual latencies the CRAY-1 benefits very
/// little from parallel issue; with unit latencies the (misleading)
/// benefit is large.
#[test]
fn cray1_benefits_little_from_multi_issue() {
    let workload = yacc(20);
    let cray = presets::cray1();
    let unit = cray.with_unit_latencies();
    let real_1 = run_workload(
        &workload,
        OptLevel::O4,
        &cray.with_issue_width(1),
        None,
        None,
    );
    let real_4 = run_workload(
        &workload,
        OptLevel::O4,
        &cray.with_issue_width(4),
        None,
        None,
    );
    let unit_1 = run_workload(
        &workload,
        OptLevel::O4,
        &unit.with_issue_width(1),
        None,
        None,
    );
    let unit_4 = run_workload(
        &workload,
        OptLevel::O4,
        &unit.with_issue_width(4),
        None,
        None,
    );
    let real_gain = real_4.speedup_over(&real_1) - 1.0;
    let unit_gain = unit_4.speedup_over(&unit_1) - 1.0;
    assert!(
        unit_gain > 3.0 * real_gain,
        "unit-latency gain {unit_gain:.2} should dwarf real gain {real_gain:.2}"
    );
    assert!(
        real_gain < 0.30,
        "real CRAY-1 gain too large: {real_gain:.2}"
    );
}

/// §4.3 + Figure 4-5: the available parallelism of every benchmark sits in
/// a narrow band around two ("the ceiling is still quite low").
#[test]
fn ilp_ceiling_is_low() {
    let machine = presets::ideal_superscalar(8);
    for workload in suite(Size::Small) {
        let report = run_workload(&workload, OptLevel::O4, &machine, None, None);
        let ilp = report.available_parallelism();
        assert!(
            (1.3..4.0).contains(&ilp),
            "{} parallelism {ilp:.2} outside the expected band",
            workload.name
        );
    }
}

/// §4.4 + Figure 4-6: careful unrolling beats naive unrolling on numeric
/// code, and the gap grows with the unroll factor.
#[test]
fn careful_unrolling_beats_naive() {
    let machine = presets::ideal_superscalar(8);
    for workload in [linpack(16), livermore(40, 1)] {
        let naive = run_workload(
            &workload,
            OptLevel::O4,
            &machine,
            Some(UnrollOptions::naive(4)),
            None,
        )
        .available_parallelism();
        let careful = run_workload(
            &workload,
            OptLevel::O4,
            &machine,
            Some(UnrollOptions::careful(4)),
            None,
        )
        .available_parallelism();
        assert!(
            careful > naive * 0.98,
            "{}: careful {careful:.2} vs naive {naive:.2}",
            workload.name
        );
    }
}

/// §4.4 + Figure 4-8: pipeline scheduling reliably increases available
/// parallelism; classical optimization changes it much less.
#[test]
fn scheduling_is_the_reliable_lever() {
    let machine = presets::ideal_superscalar(8);
    for workload in [ccom(6), yacc(20), livermore(40, 1)] {
        let none =
            run_workload(&workload, OptLevel::O0, &machine, None, None).available_parallelism();
        let sched =
            run_workload(&workload, OptLevel::O1, &machine, None, None).available_parallelism();
        assert!(
            sched >= none * 1.05,
            "{}: scheduling gained only {none:.2} -> {sched:.2}",
            workload.name
        );
    }
}

/// §6: "many machines already exploit most of the parallelism available in
/// non-numeric code" — on the MultiTitan (average degree of
/// superpipelining 1.7), adding issue width gains little on ccom.
#[test]
fn multititan_near_parallelism_limit_on_nonnumeric_code() {
    let workload = ccom(6);
    let single = presets::multititan();
    let dual = single.with_issue_width(2);
    let single_report = run_workload(&workload, OptLevel::O4, &single, None, None);
    let dual_report = run_workload(&workload, OptLevel::O4, &dual, None, None);
    let gain = dual_report.speedup_over(&single_report) - 1.0;
    assert!(
        gain < 0.45,
        "dual-issue MultiTitan gained {gain:.2}, more than the latency argument allows"
    );
}

/// §4.2's opening claim, via the oracle limit analyzer: with conditional
/// branches as barriers (the [14, 15] regime) non-numeric code shows about
/// two instructions of parallelism, and perfect speculation exposes an
/// order of magnitude more.
#[test]
fn limit_study_matches_cited_literature() {
    use supersym::experiments::limit_study;
    use supersym::workloads::Size;
    let study = limit_study(Size::Small);
    for (name, _, barriers, speculative) in &study.rows {
        assert!(
            (1.2..6.0).contains(barriers),
            "{name}: branch-barrier limit {barriers:.2} outside the literature's band"
        );
        // whet's serial polynomial chains keep even the speculative limit
        // low; everywhere else the gap is large.
        assert!(
            *speculative > 1.8 * barriers,
            "{name}: speculation ({speculative:.1}) should dwarf barriers ({barriers:.2})"
        );
    }
    // Non-numeric codes sit around two.
    let nonnumeric: Vec<f64> = study
        .rows
        .iter()
        .filter(|(name, ..)| ["ccom", "yacc", "stan", "grr", "met"].contains(&name.as_str()))
        .map(|&(_, _, barriers, _)| barriers)
        .collect();
    let mean = nonnumeric.iter().sum::<f64>() / nonnumeric.len() as f64;
    assert!((1.4..2.8).contains(&mean), "non-numeric mean {mean:.2}");
}

/// The alias-oracle ablation behind EXPERIMENTS.md: under naive unrolling
/// (one induction variable shared by all copies — §4.4's "false
/// conflicts" regime), the symbolic base+offset oracle recovers
/// measurably more parallelism than the conservative annotation-only
/// oracle on a wide machine, and never changes program results.
#[test]
fn symbolic_oracle_recovers_naive_unrolling_losses() {
    use supersym::analyze::OracleKind;
    use supersym::machine::RegisterSplit;
    use supersym::sim::{simulate, SimOptions};
    use supersym::{compile, CompileOptions};
    let machine = presets::ideal_superscalar(8);
    let workload = livermore(40, 1);
    let mut measured = [0.0_f64, 0.0];
    for (slot, oracle) in [(0, OracleKind::Conservative), (1, OracleKind::Symbolic)] {
        let options = CompileOptions::new(OptLevel::O4, &machine)
            .with_unroll(UnrollOptions::naive(4))
            .with_split(RegisterSplit::unrolling_study())
            .with_oracle(oracle)
            .with_verify(true);
        let program = compile(&workload.source, &options).expect("livermore compiles");
        let report = simulate(&program, &machine, SimOptions::default()).expect("livermore runs");
        measured[slot] = report.available_parallelism();
    }
    // Result equivalence across oracles is the differential property
    // test's job (tests/properties.rs); this asserts the parallelism win.
    assert!(
        measured[1] > measured[0] * 1.015,
        "symbolic {:.3} should beat conservative {:.3} by over 1.5%",
        measured[1],
        measured[0]
    );
}

/// The stall-breakdown study explains each machine's ILP saturation with
/// the right cause: a wide ideal superscalar is bound by true data
/// dependences (RAW waits dominate — exactly the paper's "parallelism of
/// around 2" ceiling), while the underpipelined machine that issues every
/// other cycle is bound by its functional-unit reservation, not by the
/// program. Every row's account must balance exactly.
#[test]
fn stall_breakdown_explains_ilp_saturation() {
    use supersym::experiments::stall_breakdown;
    let study = stall_breakdown(Size::Small);
    assert_eq!(study.rows.len(), 11, "one row per paper preset");
    for (machine, account, _) in &study.rows {
        assert!(account.conserved(), "{machine}: account does not balance");
        assert_eq!(
            account.issue_cycles() + account.total_stall_cycles() + account.drain_cycles(),
            account.machine_cycles(),
            "{machine}: cycles leaked"
        );
    }
    let dominant = |name: &str| -> &str {
        study
            .rows
            .iter()
            .find(|(machine, ..)| machine == name)
            .map(|(_, _, cause)| *cause)
            .unwrap_or_else(|| panic!("no row for {name}"))
    };
    assert_eq!(
        dominant("superscalar(8)"),
        "raw_interlock",
        "a wide ideal machine saturates on true dependences"
    );
    assert_eq!(
        dominant("underpipelined (issue < 1 per cycle)"),
        "fu_busy",
        "the half-issue machine saturates on its own issue reservation"
    );
    // Latency machines stall on operand readiness in the cycle view too.
    let cray = study
        .rows
        .iter()
        .find(|(machine, ..)| machine == "CRAY-1")
        .map(|(_, account, _)| account)
        .expect("CRAY-1 row");
    assert!(
        cray.stall_cycles(0) > cray.machine_cycles() / 4,
        "CRAY-1 latencies make RAW stalls a large share"
    );
}

/// The rules-study shape reported in EXPERIMENTS.md: the verified
/// rewrite-rule table is conservative — it never grows any workload's
/// static or dynamic instruction stream — and it is not a no-op: at
/// least one workload gets strictly shorter with the issue rate no
/// worse. (Most rows are zeros by design: constant folding and CSE
/// already catch the suite's redundancy; the table wins only where an
/// identity pattern over *variables* survives to LVN.)
#[test]
fn rules_study_shrinks_at_least_one_workload_and_regresses_none() {
    use supersym::experiments::rules_study;
    let study = rules_study(Size::Small);
    assert_eq!(study.rows.len(), 8, "one row per suite workload");
    let mut improved = 0_usize;
    for row in &study.rows {
        let [static_off, static_on] = row.static_insts;
        let [dynamic_off, dynamic_on] = row.dynamic_insts;
        assert!(
            static_on <= static_off,
            "{}: rules grew the static stream {static_off} -> {static_on}",
            row.benchmark
        );
        assert!(
            dynamic_on <= dynamic_off,
            "{}: rules grew the dynamic stream {dynamic_off} -> {dynamic_on}",
            row.benchmark
        );
        if static_on < static_off || dynamic_on < dynamic_off {
            improved += 1;
            let [ilp_off, ilp_on] = row.parallelism;
            assert!(
                ilp_on >= ilp_off - 1e-9,
                "{}: the shortened stream issues worse ({ilp_off:.3} -> {ilp_on:.3})",
                row.benchmark
            );
        }
    }
    assert!(improved >= 1, "the rule table fired on no workload at all");
}

/// Loop-nest bound soundness (the `titalc bound` invariant): for every
/// workload on every paper preset, the parallelism the simulator measures
/// never exceeds the static ILP ceiling computed from loop dependence
/// analysis alone — and on a dependence-bound preset (the stall breakdown
/// shows the degree-2 ideal superscalar is raw-interlock dominated) the
/// ceiling is tight: within 10% of the measurement on at least one
/// workload, so the bound explains the saturation rather than merely
/// capping it.
#[test]
fn static_ilp_bound_is_sound_everywhere_and_tight_when_dependence_bound() {
    use supersym::experiments::bound_study;
    let study = bound_study(Size::Small);
    assert_eq!(study.rows.len(), 11, "all paper presets covered");
    let mut loops_seen = 0usize;
    for (machine, cells) in &study.rows {
        assert_eq!(cells.len(), 8, "{machine}: all workloads covered");
        for cell in cells {
            assert!(
                cell.sound && cell.measured_ilp <= cell.bound_ilp * (1.0 + 1e-9),
                "{} on {machine}: measured {:.4} exceeds static bound {:.4}",
                cell.benchmark,
                cell.measured_ilp,
                cell.bound_ilp
            );
            loops_seen += cell.loops;
        }
    }
    assert!(
        loops_seen > 0,
        "the analysis must recognize loops in the suite"
    );
    let (_, cells) = study
        .rows
        .iter()
        .find(|(machine, _)| machine == "superscalar(2)")
        .expect("degree-2 superscalar row present");
    let tightest = cells
        .iter()
        .map(|c| c.measured_ilp / c.bound_ilp)
        .fold(0.0_f64, f64::max);
    assert!(
        tightest >= 0.90,
        "bound not tight on the dependence-bound preset: best ratio {tightest:.3}"
    );
}
