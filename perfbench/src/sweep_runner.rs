//! A benchmark-side sweep runner built from the pipeline's public calls
//! (`compile_front`, `FrontArtifact::schedule_for`, `simulate`), so the
//! benchmark can see each item's program and cycle account and, when
//! traced, time each layer of a cell. It must write the same journal as
//! `PipelineCellRunner`; both workloads check that byte for byte.

use crate::spans::{Recorder, JOB};
use std::sync::Mutex;
use supersym::analyze::OracleKind;
use supersym::isa::Program;
use supersym::machine::{GridCell, GridSpec, SplitModel};
use supersym::sim::{simulate, BlockCacheStats, ExecOptions, SimError, SimOptions};
use supersym::sweep::{CellFailure, CellMetrics, CellRunner, DEFAULT_CELL_FUEL};
use supersym::workloads::Workload;
use supersym::{compile_front, CompileOptions, FrontArtifact, OptLevel};

/// What one executed item left behind, for the checks.
#[derive(Debug)]
pub struct ItemOutcome {
    /// The scheduled program.
    pub program: Program,
    /// Whether `issue + stalls + drain == machine_cycles` held.
    pub conserved: bool,
    /// Dynamic instructions.
    pub instructions: u64,
    /// Machine cycles.
    pub machine_cycles: u64,
    /// Block timing cache counters.
    pub block_cache: BlockCacheStats,
}

/// Spans for a traced sweep: the recorder, and the job id of item 0 (item
/// `i` is job `first_job + i`).
#[derive(Debug, Clone, Copy)]
pub struct Tracing<'r> {
    /// Where spans go.
    pub recorder: &'r Recorder,
    /// Job id of item 0.
    pub first_job: u32,
}

/// Fronts compiled once per register split the grid uses; one cell runs
/// the back half and the simulator, as `PipelineCellRunner` does.
#[derive(Debug)]
pub struct BenchCellRunner<'r> {
    fronts: Vec<(SplitModel, Vec<Result<FrontArtifact, String>>)>,
    workloads: usize,
    outcomes: Mutex<Vec<Option<ItemOutcome>>>,
    tracing: Option<Tracing<'r>>,
    open_item: Mutex<Option<usize>>,
}

impl<'r> BenchCellRunner<'r> {
    /// Compiles the front halves (O4, symbolic oracle, verify off — the
    /// sweep study's settings), each in a `core.front` span when traced.
    #[must_use]
    pub fn new(programs: &[Workload], grid: &GridSpec, tracing: Option<Tracing<'r>>) -> Self {
        let mut splits: Vec<SplitModel> = Vec::new();
        for cell in grid.cells() {
            if !splits.contains(&cell.split) {
                splits.push(cell.split);
            }
        }
        let fronts = splits
            .into_iter()
            .map(|split| {
                let compiled = programs
                    .iter()
                    .map(|workload| {
                        let options =
                            CompileOptions::new(OptLevel::O4, &supersym::machine::presets::base())
                                .with_split(split.split())
                                .with_oracle(OracleKind::Symbolic)
                                .with_verify(false);
                        let front =
                            || compile_front(&workload.source, &options).map_err(|e| e.to_string());
                        match tracing {
                            Some(t) => t.recorder.span("core.front", None, front),
                            None => front(),
                        }
                    })
                    .collect();
                (split, compiled)
            })
            .collect();
        BenchCellRunner {
            fronts,
            workloads: programs.len(),
            outcomes: Mutex::new(
                (0..grid.cell_count() * programs.len())
                    .map(|_| None)
                    .collect(),
            ),
            tracing,
            open_item: Mutex::new(None),
        }
    }

    fn front(&self, workload: usize, cell: &GridCell) -> Result<&FrontArtifact, String> {
        let (_, fronts) = self
            .fronts
            .iter()
            .find(|(split, _)| *split == cell.split)
            .ok_or_else(|| format!("no front compiled for split {}", cell.split.name()))?;
        fronts[workload].as_ref().map_err(Clone::clone)
    }

    fn span<T>(&self, name: &'static str, job: u32, f: impl FnOnce() -> T) -> T {
        match self.tracing {
            Some(t) => t.recorder.span(name, Some(job), f),
            None => f(),
        }
    }

    /// Closes the root span of an item whose cell never ran.
    fn close_open_item(&self, tracing: Tracing<'_>) {
        if let Some(id) = self.open_item.lock().expect("no holder panics").take() {
            tracing.recorder.close(id);
        }
    }

    /// Each item's outcome by canonical index (`None` if it never ran).
    #[must_use]
    pub fn into_outcomes(self) -> Vec<Option<ItemOutcome>> {
        if let Some(tracing) = self.tracing {
            self.close_open_item(tracing);
        }
        self.outcomes.into_inner().expect("no holder panics")
    }

    fn execute(&self, index: usize, job: u32, cell: &GridCell) -> Result<CellMetrics, CellFailure> {
        let reject = |stage: &str, message: String| CellFailure::Reject {
            stage: stage.to_string(),
            message,
        };
        let front = self
            .front(index % self.workloads, cell)
            .map_err(|message| reject("front", message))?;
        let machine = cell.config();
        let program = self
            .span("codegen.schedule", job, || {
                front.schedule_for(&machine, false)
            })
            .map_err(|e| reject(e.stage(), e.to_string()))?;
        let options = SimOptions {
            exec: ExecOptions {
                max_steps: DEFAULT_CELL_FUEL,
                ..ExecOptions::default()
            },
            ..SimOptions::default()
        };
        let report = match self.span("sim.simulate", job, || {
            simulate(&program, &machine, options)
        }) {
            Ok(report) => report,
            Err(SimError::StepLimitExceeded { limit }) => return Err(CellFailure::Fuel { limit }),
            Err(e) => return Err(reject("sim", e.to_string())),
        };
        let metrics = CellMetrics {
            instructions: report.instructions(),
            machine_cycles: report.machine_cycles(),
            base_cycles: report.base_cycles(),
        };
        self.outcomes.lock().expect("no holder panics")[index] = Some(ItemOutcome {
            program,
            conserved: report.cycle_account().conserved(),
            instructions: report.instructions(),
            machine_cycles: report.machine_cycles(),
            block_cache: report.block_cache_stats(),
        });
        Ok(metrics)
    }
}

impl CellRunner for BenchCellRunner<'_> {
    fn program_hash(&self, workload: usize, cell: &GridCell) -> u64 {
        let index = cell.index * self.workloads + workload;
        let job = self.tracing.map_or(0, |t| t.first_job + index as u32);
        if let Some(tracing) = self.tracing {
            // The engine asks for the hash right before it runs the item,
            // so the item's root span opens here and closes in `run_cell`.
            self.close_open_item(tracing);
            let root = tracing.recorder.open(JOB, Some(job));
            *self.open_item.lock().expect("no holder panics") = Some(root);
        }
        self.span("sweep.program_hash", job, || {
            match self.front(workload, cell) {
                Ok(artifact) => artifact.fingerprint(),
                Err(message) => supersym::rng::fnv1a_64(message.as_bytes()),
            }
        })
    }

    fn run_cell(&self, workload: usize, cell: &GridCell) -> Result<CellMetrics, CellFailure> {
        let index = cell.index * self.workloads + workload;
        let job = self.tracing.map_or(0, |t| t.first_job + index as u32);
        let result = self.span("sweep.cell", job, || self.execute(index, job, cell));
        if let Some(tracing) = self.tracing {
            self.close_open_item(tracing);
        }
        result
    }
}
