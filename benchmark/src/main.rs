//! The DRS benchmark: one end-to-end and per-layer measurement of the
//! workspace, from outside, through public items only. See `README.md`.
//!
//! ```text
//! drs-benchmark --workload W --seed N --seconds S --trace 0|1   one run (the BENCHMARK.json contract)
//! drs-benchmark [--seed N] [--seconds S] [--trace 0|1]          the suite: every workload, untraced then traced
//! drs-benchmark --check-repeat                                   the untraced suite twice, compared within bounds
//! ```

mod alloc;
mod catalog;
mod decorators;
mod json;
mod probes;
mod report;
mod schedule;
mod stats;
mod trace;
mod workloads;

use catalog::{END_TO_END, WORKLOADS};
use json::Json;
use report::{Ctx, RunResult};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    /// `None`: untraced then traced (suite), untraced (one run).
    trace: Option<bool>,
    check_repeat: bool,
    print_benchmark_json: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: catalog::DEFAULT_SEED,
        seconds: catalog::RUN_SECONDS as f64,
        trace: None,
        check_repeat: false,
        print_benchmark_json: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let secs: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(secs.is_finite() && secs > 0.0 && secs <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {secs}"));
                }
                args.seconds = secs;
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            "--traced" => args.trace = Some(true),
            "--out" => args.out_dir = PathBuf::from(value()?),
            "--check-repeat" => args.check_repeat = true,
            "--print-benchmark-json" => args.print_benchmark_json = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn run_file(out_dir: &Path, workload: &str, traced: bool) -> PathBuf {
    let mode = if traced { "traced" } else { "untraced" };
    out_dir.join(format!("run-{workload}-{mode}.json"))
}

/// One run of one workload in this process: the contract's unit.
fn run_one(workload: &str, ctx: &Ctx) -> Result<RunResult, String> {
    std::fs::create_dir_all(&ctx.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", ctx.out_dir.display()))?;
    let unknown = || {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {workload}; one of {names:?}")
    };
    let mut result = workloads::run(workload, ctx).ok_or_else(unknown)?;
    if let Some(why) = &result.invalid {
        // The generator missed its schedule (a stall of this machine, not
        // of the program): such a run is repeated once, not reported.
        println!("run invalid ({why}); repeating once");
        trace::take_all();
        result = workloads::run(workload, ctx).ok_or_else(unknown)?;
    }
    result.set("peak_rss_mb", report::peak_rss_mb());
    if ctx.traced {
        let spans = trace::take_all();
        result.set("bench.spans", spans.len() as f64);
        let path = ctx.out_dir.join(format!("trace-{workload}.jsonl"));
        trace::write_jsonl(&path, &spans)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!(
            "self time by span name ({} spans, {}):",
            spans.len(),
            path.display()
        );
        for (name, ns) in trace::self_time_by_name(&spans) {
            println!("  {name:<28} {:>12.3} ms", ns as f64 / 1e6);
        }
    }
    let path = run_file(&ctx.out_dir, workload, ctx.traced);
    std::fs::write(&path, result.to_json().render())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(result)
}

/// Runs every workload, each in a child process of its own so that
/// `peak_rss_mb` is per workload. Returns the runs, untraced first.
fn run_suite(args: &Args, modes: &[bool]) -> Result<Vec<RunResult>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut runs = Vec::new();
    for &traced in modes {
        for w in &WORKLOADS {
            let status = Command::new(&exe)
                .args(["--workload", w.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&args.out_dir)
                .status()
                .map_err(|e| format!("cannot start {}: {e}", w.name))?;
            if !status.success() {
                return Err(format!("{} exited with {status}", w.name));
            }
            let path = run_file(&args.out_dir, w.name, traced);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            runs.push(RunResult::from_json(&Json::parse(&text)?)?);
        }
    }
    Ok(runs)
}

fn write_json(path: &Path, value: &Json) -> Result<(), String> {
    std::fs::write(path, value.render() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Prints and counts the failed checks of a suite pass. Runs still invalid
/// after their repeat are listed too, but do not count: they say the
/// machine stalled, not that the program erred.
fn failed_checks(runs: &[RunResult]) -> usize {
    let mut failed = 0;
    for run in runs {
        if let Some(why) = &run.invalid {
            println!("INVALID {}: {why}", run.workload);
        }
        for c in run.checks.iter().filter(|c| !c.ok) {
            failed += 1;
            println!("FAILED {} / {}: {}", run.workload, c.name, c.detail);
        }
    }
    failed
}

/// `--check-repeat`: two untraced passes over the suite on the same code;
/// every end-to-end metric must agree within its bound. Writes both sets
/// and the spreads to `repeat.json`.
fn check_repeat(args: &Args) -> Result<bool, String> {
    let first = run_suite(args, &[false])?;
    let second = run_suite(args, &[false])?;
    let mut rows = Vec::new();
    let mut ok = failed_checks(&first) + failed_checks(&second) == 0;
    println!("== repeatability (|a - b| / min(a, b) against the bound)");
    for (a, b) in first.iter().zip(&second) {
        for m in &END_TO_END {
            let (x, y) = (a.metrics[m.name], b.metrics[m.name]);
            let spread = (x - y).abs() / x.abs().min(y.abs()).max(f64::MIN_POSITIVE);
            let within = spread <= m.bound;
            ok &= within;
            println!(
                "  {:<13} {:<12} {x:>16.6} {y:>16.6} {:>7.2}% of {:>3.0}% {}",
                a.workload,
                m.name,
                spread * 100.0,
                m.bound * 100.0,
                if within { "ok" } else { "OUTSIDE" }
            );
            rows.push(Json::obj([
                ("workload", Json::Str(a.workload.clone())),
                ("metric", Json::Str(m.name.to_owned())),
                ("first", Json::Num(x)),
                ("second", Json::Num(y)),
                ("spread", Json::Num(spread)),
                ("bound", Json::Num(m.bound)),
                ("within", Json::Bool(within)),
            ]));
        }
    }
    write_json(
        &args.out_dir.join("repeat.json"),
        &Json::obj([
            ("first", report::results_json(&first)),
            ("second", report::results_json(&second)),
            ("metrics", Json::Arr(rows)),
        ]),
    )?;
    Ok(ok)
}

fn real_main() -> Result<ExitCode, String> {
    let args = parse_args()?;
    if args.print_benchmark_json {
        println!("{}", catalog::benchmark_json().render());
        return Ok(ExitCode::SUCCESS);
    }
    if let Some(workload) = &args.workload {
        let ctx = Ctx {
            seed: args.seed,
            seconds: args.seconds,
            traced: args.trace.unwrap_or(false),
            out_dir: args.out_dir.clone(),
        };
        let result = run_one(workload, &ctx)?;
        result.print();
        // The verdict travels in the line; the exit code says a line was
        // produced.
        println!("{}", result.contract_line());
        return Ok(ExitCode::SUCCESS);
    }
    let ok = if args.check_repeat {
        check_repeat(&args)?
    } else {
        let modes: &[bool] = match args.trace {
            None => &[false, true],
            Some(false) => &[false],
            Some(true) => &[true],
        };
        let runs = run_suite(&args, modes)?;
        write_json(
            &args.out_dir.join("results.json"),
            &report::results_json(&runs),
        )?;
        println!(
            "== {} runs written to {}",
            runs.len(),
            args.out_dir.join("results.json").display()
        );
        failed_checks(&runs) == 0
    };
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("drs-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
