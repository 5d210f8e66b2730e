//! Command line shared by the two binaries.
//!
//! ```text
//! dice-benchmark        --workload <name|all> [--seed N] [--seconds S | --sweeps N]
//!                       [--smoke] [--trace 0] [--out DIR]
//! dice-benchmark-trace  --workload <name|all> [--seed N] [--seconds S | --sweeps N]
//!                       [--smoke] [--trace 1] [--out DIR]
//! dice-benchmark        compare <set-a> <set-b>
//! ```
//!
//! A run prints one `workload metric value unit` line per metric, writes
//! its record under `--out` (default `benchmark/out/`), and ends standard
//! output with the one JSON line the driver reads. It exits non-zero when
//! a correctness check failed. `--workload all` runs every workload, each
//! in a process of its own so that peak memory is per workload.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use crate::e2e::RunLength;
use crate::metrics::{RunKind, RunRecord};
use crate::workloads::Workload;
use crate::{compare, e2e, spans, traced};

/// Share of a workload's sweeps a `--smoke` run keeps.
const SMOKE_DIVISOR: usize = 20;
/// Share of a workload's sweeps the traced run replays by default.
const TRACE_DIVISOR: usize = 10;

/// A parsed `run` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// `None` = every workload.
    pub workload: Option<Workload>,
    /// The `--seed`.
    pub seed: u64,
    /// `--seconds` / `--sweeps`, if given.
    pub length: Option<RunLength>,
    /// `--smoke`.
    pub smoke: bool,
    /// Output directory.
    pub out: PathBuf,
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Invocation {
    /// Measure.
    Run(RunArgs),
    /// Compare two sets of records.
    Compare(PathBuf, PathBuf),
}

fn default_out() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Parse the arguments after the program name, for the binary of `kind`.
pub fn parse(kind: RunKind, args: &[String]) -> Result<Invocation, String> {
    if args.first().map(String::as_str) == Some("compare") {
        return match (kind, args) {
            (RunKind::EndToEnd, [_, a, b]) => Ok(Invocation::Compare(a.into(), b.into())),
            (RunKind::EndToEnd, _) => Err("usage: compare <set-a> <set-b>".into()),
            (RunKind::Trace, _) => Err("compare lives in dice-benchmark".into()),
        };
    }
    let mut run = RunArgs {
        workload: None,
        seed: 1,
        length: None,
        smoke: false,
        out: default_out(),
    };
    let mut workload_given = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            run.smoke = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value (or is not a flag of this program)"))?;
        let number = |what: &str| format!("{flag} {value}: not {what}");
        match flag.as_str() {
            "--workload" => {
                workload_given = true;
                run.workload = match value.as_str() {
                    "all" => None,
                    name => Some(Workload::from_name(name).ok_or_else(|| {
                        let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                        format!("unknown workload {name}; known: all, {}", known.join(", "))
                    })?),
                };
            }
            "--seed" => run.seed = value.parse().map_err(|_| number("a whole number"))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| number("a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(number("a positive number"));
                }
                run.length = Some(RunLength::Seconds(s));
            }
            "--sweeps" => {
                let n: usize = value.parse().map_err(|_| number("a whole number"))?;
                if n == 0 {
                    return Err(number("at least 1"));
                }
                run.length = Some(RunLength::Sweeps(n));
            }
            "--trace" => {
                let wanted = match value.as_str() {
                    "0" => RunKind::EndToEnd,
                    "1" => RunKind::Trace,
                    _ => return Err(number("0 or 1")),
                };
                if wanted != kind {
                    return Err(format!(
                        "--trace {value} is the other binary's job (dice-benchmark measures end to end, dice-benchmark-trace layer by layer; bench.sh picks for you)"
                    ));
                }
            }
            "--out" => run.out = value.into(),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !workload_given {
        return Err("--workload <name|all> is required".into());
    }
    if run.smoke && run.length.is_some() {
        return Err("--smoke fixes the run length; drop --seconds/--sweeps".into());
    }
    Ok(Invocation::Run(run))
}

/// The run length of `workload` when the command line leaves it open:
/// fixed work, so every count repeats exactly for one seed.
pub fn default_length(kind: RunKind, workload: Workload, smoke: bool) -> RunLength {
    let mut sweeps = workload.default_sweeps();
    if kind == RunKind::Trace {
        sweeps /= TRACE_DIVISOR;
    }
    if smoke {
        sweeps /= SMOKE_DIVISOR;
    }
    RunLength::Sweeps(sweeps.max(1))
}

fn write_record(out: &Path, file: &str, record: &RunRecord) -> Result<(), String> {
    let path = out.join(file);
    let body = serde_json::to_string_pretty(&record.to_json()).expect("records serialise");
    std::fs::write(&path, body + "\n").map_err(|e| format!("writing {}: {e}", path.display()))
}

fn run_one(kind: RunKind, workload: Workload, args: &RunArgs) -> Result<bool, String> {
    let length = args
        .length
        .unwrap_or_else(|| default_length(kind, workload, args.smoke));
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("creating {}: {e}", args.out.display()))?;
    let record = match kind {
        RunKind::EndToEnd => {
            let record = e2e::run(workload, args.seed, length)?;
            write_record(&args.out, &format!("{}.json", workload.name()), &record)?;
            record
        }
        RunKind::Trace => {
            let run = traced::run(workload, args.seed, length)?;
            write_record(
                &args.out,
                &format!("layers-{}.json", workload.name()),
                &run.record,
            )?;
            let path = args.out.join(format!("trace-{}.json", workload.name()));
            let file = std::fs::File::create(&path)
                .map_err(|e| format!("creating {}: {e}", path.display()))?;
            let mut file = std::io::BufWriter::new(file);
            spans::write_json(&run.spans, &mut file)
                .and_then(|()| std::io::Write::flush(&mut file))
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            run.record
        }
    };
    println!(
        "# {} seed {} {} sha256 {}",
        workload.name(),
        args.seed,
        serde_json::to_string(&record.header).expect("headers serialise"),
        record.normalized_sha256
    );
    print!("{}", record.lines());
    for failure in &record.failures {
        eprintln!("FAILED {}: {failure}", workload.name());
    }
    println!("{}", record.driver_line());
    Ok(record.correct())
}

/// Re-invoke this binary once per workload; each child prints its own
/// metrics. Returns whether every child succeeded.
fn run_all(args: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut all_ok = true;
    for workload in Workload::ALL {
        let mut child_args: Vec<String> = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            child_args.push(a.clone());
            if a == "--workload" {
                it.next();
                child_args.push(workload.name().into());
            }
        }
        let status = Command::new(&exe)
            .args(&child_args)
            .status()
            .map_err(|e| format!("starting {}: {e}", exe.display()))?;
        if !status.success() {
            eprintln!("FAILED {}: exited with {status}", workload.name());
            all_ok = false;
        }
    }
    Ok(all_ok)
}

/// Entry point of both binaries.
pub fn main(kind: RunKind) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse(kind, &args).and_then(|invocation| match invocation {
        Invocation::Compare(a, b) => compare::run(&a, &b),
        Invocation::Run(run) => match run.workload {
            Some(workload) => run_one(kind, workload, &run),
            None => run_all(&args),
        },
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_invocation_parses() {
        let got = parse(
            RunKind::EndToEnd,
            &args("--workload gossip16_sweep --seed 7 --seconds 10 --trace 0"),
        )
        .expect("the driver's own command line");
        let Invocation::Run(run) = got else {
            panic!("expected a run")
        };
        assert_eq!(run.workload, Some(Workload::Gossip16Sweep));
        assert_eq!(run.seed, 7);
        assert_eq!(run.length, Some(RunLength::Seconds(10.0)));
        assert!(!run.smoke);
    }

    #[test]
    fn each_binary_refuses_the_other_trace_mode() {
        let line = args("--workload all --trace 1");
        assert!(parse(RunKind::EndToEnd, &line)
            .unwrap_err()
            .contains("other binary"));
        assert!(parse(RunKind::Trace, &line).is_ok());
        assert!(parse(RunKind::Trace, &args("compare a b")).is_err());
        assert_eq!(
            parse(RunKind::EndToEnd, &args("compare a b")),
            Ok(Invocation::Compare("a".into(), "b".into()))
        );
    }

    #[test]
    fn bad_command_lines_are_errors_not_panics() {
        for bad in [
            "",
            "--seed 1",
            "--workload nope",
            "--workload all --seed x",
            "--workload all --seconds 0",
            "--workload all --seconds -3",
            "--workload all --sweeps 0",
            "--workload all --trace 2",
            "--workload all --bogus 1",
            "--workload all --seed",
            "--workload all --smoke --sweeps 5",
            "compare onlyone",
        ] {
            assert!(parse(RunKind::EndToEnd, &args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn default_lengths_are_fixed_work() {
        use Workload::*;
        let len = |kind, w, smoke| default_length(kind, w, smoke);
        assert_eq!(
            len(RunKind::EndToEnd, Demo27Sweep, false),
            RunLength::Sweeps(250)
        );
        assert_eq!(
            len(RunKind::EndToEnd, Internet1kSweep, true),
            RunLength::Sweeps(5)
        );
        assert_eq!(
            len(RunKind::Trace, NemesisDetect, false),
            RunLength::Sweeps(150)
        );
        assert_eq!(
            len(RunKind::Trace, Internet1kSweep, true),
            RunLength::Sweeps(1)
        );
    }
}
