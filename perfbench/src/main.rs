//! The supersym benchmark: three closed-loop workloads over the
//! compile-and-simulate loop, each run on one thread and timed job by job
//! at each job's fastest repetition, plus a traced run that splits the
//! same work by layer. See `README.md` beside this package.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep_study --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod jobs;
mod spans;
mod stats;
mod suite;
mod sweep_runner;
mod timed;
mod traced;

use stats::{result_line, Metric};
use std::process::ExitCode;

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    SweepStudy,
    CompileLadder,
    Profile,
}

impl Workload {
    const ALL: [(&'static str, Workload); 3] = [
        ("sweep_study", Workload::SweepStudy),
        ("compile_ladder", Workload::CompileLadder),
        ("profile", Workload::Profile),
    ];

    fn name(self) -> &'static str {
        Workload::ALL
            .iter()
            .find(|(_, w)| *w == self)
            .map(|(name, _)| *name)
            .expect("every workload is listed")
    }
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    let found = Workload::ALL.iter().find(|(name, _)| *name == value);
                    workload = Some(
                        found
                            .ok_or_else(|| format!("unknown workload `{value}`"))?
                            .1,
                    );
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
                "--seconds" => {
                    let parsed: u64 = value
                        .parse()
                        .map_err(|_| format!("bad seconds `{value}`"))?;
                    if !(1..=600).contains(&parsed) {
                        return Err(format!("--seconds {parsed} is outside 1..=600"));
                    }
                    seconds = Some(parsed);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                    });
                }
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(30),
            trace: trace.unwrap_or(false),
        })
    }
}

const USAGE: &str = "usage: perfbench --workload sweep_study|compile_ladder|profile \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        traced::run(args.workload.name(), args.seed, args.seconds)
    } else {
        untraced(&args)
    };
    match result.and_then(|(report, correct, attempted, failed, metrics)| {
        result_line(correct, attempted, failed, &metrics).map(|line| (report, line))
    }) {
        Ok((report, line)) => {
            print!("{report}");
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("perfbench: {why}");
            ExitCode::FAILURE
        }
    }
}

/// A run's human-readable report, verdict, attempted and failed jobs, and
/// metrics.
type RunResult = Result<(String, bool, u64, u64, Vec<Metric>), String>;

fn untraced(args: &Args) -> RunResult {
    let outcome = match args.workload {
        Workload::SweepStudy => timed::run::<timed::SweepStudy>(args.seed, args.seconds),
        Workload::CompileLadder => timed::run::<timed::CompileLadder>(args.seed, args.seconds),
        Workload::Profile => timed::run::<timed::Profile>(args.seed, args.seconds),
    }?;
    let summary = outcome.summary;
    let metrics = vec![
        Metric::new("setup_s", stats::median(&outcome.setup_s), "s"),
        Metric::new("jobs_per_s", summary.jobs_per_s(), "1/s"),
        Metric::new("job_p50_ms", summary.p50_s * 1e3, "ms"),
        Metric::new("job_p90_ms", summary.p90_s * 1e3, "ms"),
        Metric::new("peak_rss_mb", outcome.peak_rss_mib, "MiB"),
    ];
    let jobs = summary.jobs;
    let mut report = format!(
        "{} (seed {}): {jobs} jobs x {} repetitions, one thread, {} failed\n",
        args.workload.name(),
        args.seed,
        outcome.repetitions,
        outcome.failures.len()
    );
    for metric in &metrics {
        let note = match metric.name.as_str() {
            "setup_s" => {
                let each: Vec<String> = outcome
                    .setup_s
                    .iter()
                    .map(|s| format!("{:.4}", s * 1e3))
                    .collect();
                format!("median of set-ups taking {} ms", each.join(", "))
            }
            "peak_rss_mb" => "peak resident set after timing".to_string(),
            _ => format!("over {jobs} jobs, each at its fastest repetition"),
        };
        report.push_str(&format!(
            "  {:<12} {:>14.6} {:<4} ({note})\n",
            metric.name, metric.value, metric.unit
        ));
    }
    let counts: Vec<String> = outcome
        .counts
        .iter()
        .map(|(name, value)| format!("{name}={value}"))
        .collect();
    report.push_str(&format!("  counts: {}\n", counts.join(" ")));
    for failure in &outcome.failures {
        report.push_str(&format!("  FAILED {failure}\n"));
    }
    let failed = outcome.failures.len() as u64;
    Ok((report, failed == 0, jobs as u64, failed, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use timed::Timed;

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let args = parse("--workload profile --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            args,
            Args {
                workload: Workload::Profile,
                seed: 7,
                seconds: 10,
                trace: true
            }
        );
        assert!(parse("--seed 7").unwrap_err().contains("required"));
        assert!(parse("--workload nope")
            .unwrap_err()
            .contains("unknown workload"));
        assert!(parse("--workload profile --trace 2").is_err());
        assert!(parse("--workload profile --seconds 0").is_err());
        assert!(parse("--workload profile --seed").is_err());
        assert!(parse("--workload profile --bogus 1").is_err());
    }

    /// One repetition of each workload's whole job list, every output
    /// checked.
    #[test]
    fn every_workload_runs_once_and_checks_clean() {
        fn once<W: Timed>() -> (usize, Vec<String>) {
            let mut workload = W::setup(3).unwrap();
            let mut best = stats::BestOfK::new(workload.jobs());
            workload
                .repetition(&mut supersym::rng::SplitMix64::new(3), &mut best)
                .unwrap();
            let summary = best.summary().expect("every job timed once");
            assert!(summary.jobs_per_s() > 0.0);
            let (failures, counts) = workload.check().unwrap();
            assert!(counts.iter().all(|&(_, count)| count > 0), "{counts:?}");
            (summary.jobs, failures)
        }
        assert_eq!(once::<timed::CompileLadder>(), (168, Vec::new()));
        assert_eq!(once::<timed::SweepStudy>(), (384, Vec::new()));
        assert_eq!(once::<timed::Profile>(), (102, Vec::new()));
    }
}
