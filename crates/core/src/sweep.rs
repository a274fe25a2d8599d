//! Glue between the compilation pipeline and the sweep engine.
//!
//! The sweep engine (`supersym-sweep`) is deliberately pipeline-blind: it
//! fans work items out, contains faults and keeps the checkpoint journal,
//! but runs cells through the [`supersym_sweep::CellRunner`] trait. This
//! module is the pipeline side of that trait: it compiles each workload's
//! machine-independent front half **once per register-split model** (the
//! only grid axis the front half can see), executes each front program
//! once, on the first cell that needs it, and then per cell runs only the
//! machine-dependent back half — scheduling, plus timing the scheduled
//! program from the front's [`Recording`].
//!
//! Scheduling only permutes instructions inside scheduling regions, so
//! every cell of one front follows the recorded run's path, branch
//! outcomes, addresses and vector lengths. Where that cannot be used the
//! cell simulates its own program, exactly as a cell always could:
//!
//! * the front trapped while recording, or its recording outgrew
//!   [`MAX_RECORDING_BYTES`](supersym_sim::MAX_RECORDING_BYTES);
//! * the scheduled program is not a region permutation of its front.
//!
//! A front that runs out of fuel fails every cell with the same fuel
//! limit, since every cell executes the same number of instructions.

use crate::compile::{compile_front, CompileOptions, FrontArtifact, OptLevel};
use std::sync::OnceLock;
use supersym_analyze::{region_origins, OracleKind};
use supersym_isa::Program;
use supersym_machine::{presets, GridCell, MachineConfig, SplitModel};
use supersym_sim::{simulate, ExecOptions, Recording, SimError, SimOptions, SimReport};
use supersym_workloads::Workload;

/// Re-export: the pipeline-blind engine (`supersym-sweep`), so drivers can
/// reach the whole sweep surface through `supersym::sweep`.
pub use supersym_sweep::{
    aggregate_cells, cache_from_records, frontier_json, load_checkpoint, pareto_frontier,
    run_sweep, run_sweep_observed, CellFailure, CellMetrics, CellRecord, CellRunner, CellStatus,
    CellSummary, CheckpointError, FaultInjection, ParetoPoint, ResultCache, ResumeState,
    SweepConfig, SweepHeader, SweepMetrics, SweepObserver, SweepOutcome, SweepPlan, MAX_JOBS,
    SCHEMA,
};

/// Fuel given to each cell when the caller does not override it: enough
/// for every small-size workload on every preset with an order of
/// magnitude to spare, small enough that a runaway cell quarantines fast.
pub const DEFAULT_CELL_FUEL: u64 = 20_000_000;

fn split_index(split: SplitModel) -> usize {
    match split {
        SplitModel::Default => 0,
        SplitModel::Wide => 1,
    }
}

const SPLIT_MODELS: [SplitModel; 2] = [SplitModel::Default, SplitModel::Wide];

/// What executing one front program once left for its cells.
enum Recorded {
    /// Time every cell from this run.
    Run(Box<Recording>),
    /// The run exhausted this fuel limit, and so does every cell.
    Fuel(u64),
    /// The run trapped or outgrew the recording cap: every cell simulates
    /// its own program.
    Simulate,
}

/// A compiled workload set, ready to schedule and time on any cell.
pub struct PipelineCellRunner {
    /// `fronts[workload][split_index]`: the front half, or the pipeline
    /// error that rejected it (rare — a workload the wide split cannot
    /// register-allocate, say). Errors are replayed as per-cell rejects.
    fronts: Vec<[Result<FrontArtifact, String>; 2]>,
    /// `recordings[workload][split_index]`: the front program's one run,
    /// made by the first cell that needs it and shared read-only by every
    /// worker for as long as the runner lives.
    recordings: Vec<[OnceLock<Recorded>; 2]>,
    names: Vec<String>,
    fuel: u64,
    verify: bool,
}

impl PipelineCellRunner {
    /// Compiles the front half of every workload under both split models.
    #[must_use]
    pub fn new(
        workloads: &[Workload],
        opt: OptLevel,
        oracle: OracleKind,
        fuel: u64,
        verify: bool,
    ) -> Self {
        let fronts = workloads
            .iter()
            .map(|workload| {
                SPLIT_MODELS.map(|split| {
                    let options = CompileOptions::new(opt, &presets::base())
                        .with_split(split.split())
                        .with_oracle(oracle)
                        .with_verify(verify);
                    compile_front(&workload.source, &options).map_err(|e| e.to_string())
                })
            })
            .collect();
        PipelineCellRunner {
            recordings: workloads.iter().map(|_| Default::default()).collect(),
            fronts,
            names: workloads.iter().map(|w| w.name.to_string()).collect(),
            fuel,
            verify,
        }
    }

    /// Workload names, index-aligned with the runner.
    #[must_use]
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The identity string the checkpoint header hashes: options plus
    /// every program fingerprint, so a resumed sweep refuses a journal
    /// written for different code.
    #[must_use]
    pub fn identity(&self, grid_canonical: &str, opt: OptLevel, oracle: OracleKind) -> String {
        let mut identity = format!(
            "grid={grid_canonical};opt={opt};oracle={oracle:?};fuel={};verify={};",
            self.fuel, self.verify
        );
        for (name, fronts) in self.names.iter().zip(&self.fronts) {
            for (split, front) in SPLIT_MODELS.iter().zip(fronts) {
                let hash = match front {
                    Ok(artifact) => artifact.fingerprint(),
                    Err(message) => supersym_rng::fnv1a_64(message.as_bytes()),
                };
                identity.push_str(&format!("{name}.{}={hash:016x};", split.name()));
            }
        }
        identity
    }

    fn exec_options(&self) -> ExecOptions {
        ExecOptions {
            max_steps: self.fuel,
            ..ExecOptions::default()
        }
    }

    /// Times `program`, a schedule of `front`, from the front's one
    /// recorded run (made now if `recorded` is still empty), or by
    /// simulating it where that run cannot serve.
    fn time(
        &self,
        recorded: &OnceLock<Recorded>,
        front: &FrontArtifact,
        program: &Program,
        machine: &MachineConfig,
    ) -> Result<SimReport, SimError> {
        let recorded = recorded.get_or_init(|| {
            match Recording::record(front.program(), self.exec_options()) {
                Ok(Some(recording)) => Recorded::Run(Box::new(recording)),
                Err(SimError::StepLimitExceeded { limit }) => Recorded::Fuel(limit),
                Ok(None) | Err(_) => Recorded::Simulate,
            }
        });
        match recorded {
            Recorded::Run(recording) => {
                let replayed = region_origins(front.program(), program)
                    .and_then(|origins| recording.replay(program, &origins, machine).ok());
                if let Some(report) = replayed {
                    return Ok(report);
                }
            }
            Recorded::Fuel(limit) => return Err(SimError::StepLimitExceeded { limit: *limit }),
            Recorded::Simulate => {}
        }
        let options = SimOptions {
            exec: self.exec_options(),
            ..SimOptions::default()
        };
        simulate(program, machine, options)
    }
}

impl CellRunner for PipelineCellRunner {
    fn program_hash(&self, workload: usize, cell: &GridCell) -> u64 {
        match &self.fronts[workload][split_index(cell.split)] {
            Ok(artifact) => artifact.fingerprint(),
            Err(message) => supersym_rng::fnv1a_64(message.as_bytes()),
        }
    }

    fn run_cell(&self, workload: usize, cell: &GridCell) -> Result<CellMetrics, CellFailure> {
        let split = split_index(cell.split);
        let front =
            self.fronts[workload][split]
                .as_ref()
                .map_err(|message| CellFailure::Reject {
                    stage: "front".to_string(),
                    message: message.clone(),
                })?;
        let machine = cell.config();
        let program =
            front
                .schedule_for(&machine, self.verify)
                .map_err(|e| CellFailure::Reject {
                    stage: e.stage().to_string(),
                    message: e.to_string(),
                })?;
        match self.time(&self.recordings[workload][split], front, &program, &machine) {
            Ok(report) => Ok(CellMetrics {
                instructions: report.instructions(),
                machine_cycles: report.machine_cycles(),
                base_cycles: report.base_cycles(),
            }),
            Err(SimError::StepLimitExceeded { limit }) => Err(CellFailure::Fuel { limit }),
            Err(e) => Err(CellFailure::Reject {
                stage: "sim".to_string(),
                message: e.to_string(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supersym_machine::GridSpec;
    use supersym_sweep::{run_sweep, ResultCache, SweepConfig, SweepPlan};
    use supersym_workloads::Size;

    fn runner() -> PipelineCellRunner {
        let workloads = vec![supersym_workloads::whet(1)];
        PipelineCellRunner::new(
            &workloads,
            OptLevel::O4,
            OracleKind::Symbolic,
            DEFAULT_CELL_FUEL,
            false,
        )
    }

    #[test]
    fn pipeline_cells_complete_and_speed_up() {
        let runner = runner();
        let grid = GridSpec::parse("issue=1,4 pipe=1 lat=unit").unwrap();
        let plan = SweepPlan {
            workload_names: runner.names().to_vec(),
            fuel: DEFAULT_CELL_FUEL,
            identity: runner.identity(&grid.canonical(), OptLevel::O4, OracleKind::Symbolic),
            grid,
        };
        let outcome = run_sweep(
            &plan,
            &runner,
            &SweepConfig::default(),
            None,
            &ResultCache::new(),
            None,
        )
        .unwrap();
        assert_eq!(outcome.quarantined, 0, "{:?}", outcome.records);
        let speedup = |i: usize| match &outcome.records[i].status {
            supersym_sweep::CellStatus::Ok(m) => m.speedup(),
            other => panic!("cell {i} not ok: {other:?}"),
        };
        // issue=1 unit-latency is the base machine: speedup 1. issue=4
        // must beat it.
        assert!((speedup(0) - 1.0).abs() < 1e-9, "base cell {}", speedup(0));
        assert!(speedup(1) > 1.0, "wider cell {}", speedup(1));
    }

    #[test]
    fn replayed_cells_match_per_cell_simulation_at_any_job_count() {
        let workloads = vec![supersym_workloads::whet(1), supersym_workloads::linpack(8)];
        let runner = PipelineCellRunner::new(
            &workloads,
            OptLevel::O4,
            OracleKind::Symbolic,
            DEFAULT_CELL_FUEL,
            false,
        );
        let grid =
            GridSpec::parse("issue=1,4 pipe=1,2 lat=unit,titan fu=ideal,shared split=default,wide")
                .unwrap();
        let plan = SweepPlan {
            workload_names: runner.names().to_vec(),
            fuel: DEFAULT_CELL_FUEL,
            identity: runner.identity(&grid.canonical(), OptLevel::O4, OracleKind::Symbolic),
            grid,
        };
        let sweep = |jobs: usize| {
            let config = SweepConfig {
                jobs,
                ..SweepConfig::default()
            };
            run_sweep(&plan, &runner, &config, None, &ResultCache::new(), None)
                .unwrap()
                .records
        };
        let serial = sweep(1);
        assert_eq!(sweep(4), serial, "four workers changed the records");

        let cells = plan.grid.cells();
        for record in &serial {
            let cell = &cells[record.index / workloads.len()];
            let machine = cell.config();
            let front = runner.fronts[record.index % workloads.len()][split_index(cell.split)]
                .as_ref()
                .unwrap();
            let program = front.schedule_for(&machine, false).unwrap();
            let report = simulate(&program, &machine, SimOptions::default()).unwrap();
            let expected = CellMetrics {
                instructions: report.instructions(),
                machine_cycles: report.machine_cycles(),
                base_cycles: report.base_cycles(),
            };
            assert_eq!(
                record.status,
                supersym_sweep::CellStatus::Ok(expected),
                "{} on {}",
                record.workload,
                record.cell
            );
        }
    }

    #[test]
    fn tiny_fuel_quarantines_as_timeout() {
        let workloads = vec![supersym_workloads::whet(1)];
        let runner =
            PipelineCellRunner::new(&workloads, OptLevel::O4, OracleKind::Symbolic, 50, false);
        let grid = GridSpec::parse("issue=1 pipe=1").unwrap();
        let plan = SweepPlan {
            workload_names: runner.names().to_vec(),
            fuel: 50,
            identity: runner.identity(&grid.canonical(), OptLevel::O4, OracleKind::Symbolic),
            grid,
        };
        let outcome = run_sweep(
            &plan,
            &runner,
            &SweepConfig::default(),
            None,
            &ResultCache::new(),
            None,
        )
        .unwrap();
        assert_eq!(outcome.quarantined, 1);
        assert!(matches!(
            outcome.records[0].status,
            supersym_sweep::CellStatus::Timeout { limit: 50 }
        ));
    }

    #[test]
    fn suite_small_compiles_under_both_splits() {
        let workloads = supersym_workloads::suite(Size::Small);
        let runner = PipelineCellRunner::new(
            &workloads,
            OptLevel::O4,
            OracleKind::Symbolic,
            DEFAULT_CELL_FUEL,
            false,
        );
        for (name, fronts) in runner.names.iter().zip(&runner.fronts) {
            for front in fronts {
                assert!(front.is_ok(), "{name}: {front:?}");
            }
        }
    }
}
