//! The benchmark's one command.
//!
//! ```text
//! eve-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run of one workload, as the contract in BENCHMARK.json drives it;
//!     the last line of standard output is the result object
//! eve-benchmark [--seed <n>] [--seconds <s>] [--smoke] [--repeat <n>]
//!     the whole suite: all four workloads, untraced then traced, every
//!     metric by name with its unit and sample counts; with --repeat the
//!     untraced suite runs n times and each end-to-end metric's readings
//!     must agree within its bound (the A/A self-check)
//! eve-benchmark --print-benchmark-json
//!     the contents BENCHMARK.json must have
//! ```
//!
//! Exit status: 0 when every correctness gate held (and, with `--repeat`,
//! every pair of readings agreed), 1 otherwise, 2 on a usage error.

use std::process::ExitCode;

use eve_benchmark::metrics::{self, json_number, Spec, Values, END_TO_END, PER_LAYER};
use eve_benchmark::run::{run_untraced, Budget, RunReport};
use eve_benchmark::stats;
use eve_benchmark::trace::{run_traced, TraceReport};
use eve_benchmark::workloads::{Kind, Size};

#[derive(Debug)]
struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat: usize,
    print_benchmark_json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        repeat: 1,
        print_benchmark_json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload = Some(Kind::parse(&name).ok_or_else(|| {
                    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown workload `{name}` (one of {})", names.join(", "))
                })?);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--repeat" => {
                args.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
            }
            "--smoke" => args.smoke = true,
            "--print-benchmark-json" => args.print_benchmark_json = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

impl Args {
    fn size(&self) -> Size {
        if self.smoke {
            Size::Smoke
        } else {
            Size::Full
        }
    }

    fn budget(&self) -> Budget {
        if self.smoke {
            Budget::rounds(2)
        } else {
            Budget::seconds(self.seconds)
        }
    }
}

fn print_table(title: &str, values: &Values, specs: &[Spec]) {
    println!("{title}");
    for spec in specs {
        let bound = spec
            .bound
            .map_or(String::new(), |b| format!("  (bound {:.0}%)", b * 100.0));
        println!(
            "  {:<40} {:>18} {}{bound}",
            spec.name,
            json_number(values.get(spec.name).unwrap_or(0.0)),
            spec.unit
        );
    }
}

fn print_violations(workload: Kind, violations: &[String]) {
    for v in violations {
        eprintln!("CORRECTNESS GATE BROKEN [{}]: {v}", workload.name());
    }
}

fn describe_untraced(report: &RunReport) {
    println!(
        "== {} (untraced): {} rounds, {} requests, {} failed; samples read {} / write {} / \
         change {}; failed_share {}",
        report.kind.name(),
        report.rounds,
        report.attempted,
        report.failed,
        report.samples[0],
        report.samples[1],
        report.samples[2],
        json_number(stats::ratio(report.failed as f64, report.attempted as f64)),
    );
    print_table("end-to-end:", &report.values, END_TO_END);
}

fn describe_traced(report: &TraceReport) {
    println!(
        "== {} (traced): ladder over {} ops, chrome trace at {}",
        report.kind.name(),
        report.ladder_ops,
        report.trace_path.display()
    );
    print_table("per-layer:", &report.values, PER_LAYER);
    let shares: Vec<String> = report
        .shares()
        .iter()
        .map(|(layer, share)| format!("{layer} {:.1}%", share * 100.0))
        .collect();
    println!("layer shares of client time: {}", shares.join(", "));
}

/// One run of one workload, as the driver invokes it.
fn contract_run(args: &Args, kind: Kind) -> Result<bool, String> {
    let (correct, attempted, failed, values, specs) = if args.trace {
        let report = run_traced(kind, args.seed, args.size())?;
        describe_traced(&report);
        print_violations(kind, &report.violations);
        let (attempted, failed) = (report.attempted, report.failed);
        (
            report.correct(),
            attempted,
            failed,
            report.values,
            PER_LAYER,
        )
    } else {
        let report = run_untraced(kind, args.seed, args.size(), args.budget())?;
        describe_untraced(&report);
        print_violations(kind, &report.violations);
        let (attempted, failed) = (report.attempted, report.failed);
        (
            report.correct(),
            attempted,
            failed,
            report.values,
            END_TO_END,
        )
    };
    // The contract's result object, last on standard output.
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        values.json(specs)
    );
    Ok(correct)
}

/// Runs one workload in a process of its own — so one workload's peak
/// memory does not leak into the next one's `peak_rss_mib` — passing its
/// output through, and returns whether it was correct plus the metric
/// values of its result line.
fn child_run(args: &Args, kind: Kind, trace: bool) -> Result<(bool, Values), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut command = std::process::Command::new(exe);
    command
        .args(["--workload", kind.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        command.arg("--smoke");
    }
    let output = command
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", kind.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (tables, result) = stdout
        .trim_end()
        .rsplit_once('\n')
        .ok_or_else(|| format!("{} printed no result line", kind.name()))?;
    println!("{tables}");
    let specs = if trace { PER_LAYER } else { END_TO_END };
    Ok((output.status.success(), Values::from_json(result, specs)))
}

/// The whole suite, `--repeat` times untraced and once traced.
fn suite(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    let mut passes: Vec<Vec<Values>> = Vec::new();
    for pass in 0..args.repeat.max(1) {
        if args.repeat > 1 {
            println!("#### untraced pass {} of {}", pass + 1, args.repeat);
        }
        let mut readings = Vec::new();
        for kind in Kind::ALL {
            let (correct, values) = child_run(args, kind, false)?;
            ok &= correct;
            readings.push(values);
        }
        passes.push(readings);
    }
    if args.repeat > 1 {
        ok &= compare_passes(&passes);
    }
    for kind in Kind::ALL {
        ok &= child_run(args, kind, true)?.0;
    }
    Ok(ok)
}

/// The A/A self-check: every end-to-end metric's readings across the
/// passes, their relative spread, and whether it is within the bound.
fn compare_passes(passes: &[Vec<Values>]) -> bool {
    println!(
        "#### A/A self-check: same build, same seed, {} passes",
        passes.len()
    );
    let mut ok = true;
    for (w, kind) in Kind::ALL.iter().enumerate() {
        for spec in END_TO_END {
            let readings: Vec<f64> = passes
                .iter()
                .map(|p| p[w].get(spec.name).unwrap_or(0.0))
                .collect();
            let lo = readings.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = readings.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let spread = stats::relative_spread(lo, hi);
            let bound = spec.bound.unwrap_or(0.0);
            let within = spread <= bound;
            ok &= within;
            let shown: Vec<String> = readings.iter().map(|r| json_number(*r)).collect();
            println!(
                "  {:<14} {:<20} {}  spread {:.2}% of bound {:.0}%  {}",
                kind.name(),
                spec.name,
                shown.join(" vs "),
                spread * 100.0,
                bound * 100.0,
                if within { "ok" } else { "DISAGREE" }
            );
        }
    }
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("usage error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.print_benchmark_json {
        print!("{}", metrics::benchmark_json());
        return ExitCode::SUCCESS;
    }
    println!(
        "client threads: {} (min(nproc, 2)); seed {}; size {:?}",
        eve_benchmark::round::client_threads(),
        args.seed,
        args.size()
    );
    let outcome = match args.workload {
        Some(kind) => contract_run(&args, kind),
        None => suite(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}
