//! Regenerates the DRS paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! repro [fig6|fig7|fig8|fig9|fig10|table2|ablation|surge|all] [--quick] [--seed N]
//! repro drive [--backend sim|runtime|both] [--quick]
//! repro fleet [--smoke] [--seed N] [--faults smoke|lossy|laggy|partition|churn|crash-storm]
//! repro fleet --scale 1k|10k|100k|1m [--smoke] [--seed N]
//! repro fleet --scale 1k|10k|100k --place [--smoke] [--seed N]
//! repro place [--smoke] [--seed N]
//! ```
//!
//! `--quick` shortens simulated durations (useful in CI); default runs use
//! the paper's horizons (10-minute measurements, 27-minute timelines).

use drs_bench::sweep::{run_sweep, App};
use drs_bench::{
    ablation, drive, faults, fig10, fig8, fig9, fleet, fleet_scale, place, place_scale, surge,
    table2,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::env;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};

/// System-allocator wrapper counting every allocation and reallocation and
/// the bytes live on the heap, so the scale benches can report
/// steady-state allocations per window and what a fleet holds (the
/// `drs-bench` library is `forbid(unsafe_code)`, so the allocator lives
/// here and is handed to the library as probes).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Requested bytes allocated minus bytes freed, process-wide.
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // Wrapping arithmetic: a shrink adds the two's complement.
        let delta = (new_size as u64).wrapping_sub(layout.size() as u64);
        LIVE_BYTES.fetch_add(delta, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

fn live_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

#[derive(Debug, Clone)]
struct Options {
    quick: bool,
    smoke: bool,
    seed: u64,
    backend: String,
    faults: Option<String>,
    scale: Option<String>,
    place: bool,
}

fn main() -> ExitCode {
    drs_bench::set_heap_probes(drs_bench::HeapProbes {
        allocs: alloc_count,
        live_bytes,
    });
    let mut target: Option<String> = None;
    let mut options = Options {
        quick: false,
        smoke: false,
        seed: 2015, // the paper's year, for determinism
        backend: String::from("both"),
        faults: None,
        scale: None,
        place: false,
    };
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => options.quick = true,
            "--smoke" => options.smoke = true,
            "--seed" => {
                let Some(v) = args.next().and_then(|s| s.parse().ok()) else {
                    eprintln!("--seed requires an integer");
                    return ExitCode::FAILURE;
                };
                options.seed = v;
            }
            "--backend" => {
                let Some(v) = args.next() else {
                    eprintln!("--backend requires sim|runtime|both");
                    return ExitCode::FAILURE;
                };
                options.backend = v;
            }
            "--faults" => {
                let Some(v) = args.next() else {
                    eprintln!(
                        "--faults requires a scenario: smoke|lossy|laggy|partition|churn|crash-storm"
                    );
                    return ExitCode::FAILURE;
                };
                options.faults = Some(v);
            }
            "--place" => options.place = true,
            "--scale" => {
                let Some(v) = args.next() else {
                    eprintln!("--scale requires a fleet size: 1k|10k|100k|1m");
                    return ExitCode::FAILURE;
                };
                options.scale = Some(v);
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [fig6|fig7|fig8|fig9|fig10|table2|ablation|surge|all] [--quick] [--seed N]"
                );
                println!("       repro drive [--backend sim|runtime|both] [--quick]");
                println!(
                    "       repro fleet [--smoke] [--seed N] [--faults smoke|lossy|laggy|partition|churn|crash-storm]"
                );
                println!("       repro fleet --scale 1k|10k|100k|1m [--smoke] [--seed N]");
                println!("       repro fleet --scale 1k|10k|100k --place [--smoke] [--seed N]");
                println!("       repro place [--smoke] [--seed N]");
                return ExitCode::SUCCESS;
            }
            other if !other.starts_with('-') => {
                if target.is_some() {
                    eprintln!("unexpected argument {other}; try --help");
                    return ExitCode::FAILURE;
                }
                target = Some(other.to_owned());
            }
            other => {
                eprintln!("unknown flag {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    match target.as_deref().unwrap_or("all") {
        "fig6" => fig6_and_7(&options, true, false),
        "fig7" => fig6_and_7(&options, false, true),
        "fig8" => run_fig8(&options),
        "fig9" => run_fig9(&options),
        "fig10" => run_fig10(&options),
        "table2" => run_table2(&options),
        "ablation" => run_ablation(&options),
        "surge" => run_surge(&options),
        "drive" => return run_drive(&options),
        "fleet" => return run_fleet(&options),
        "place" => run_place(&options),
        "all" => {
            fig6_and_7(&options, true, true);
            run_fig8(&options);
            run_fig9(&options);
            run_fig10(&options);
            run_table2(&options);
            run_ablation(&options);
            run_surge(&options);
            run_place(&options);
        }
        other => {
            eprintln!("unknown target {other}; try --help");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn run_drive(options: &Options) -> ExitCode {
    let backend = match options.backend.as_str() {
        "sim" => drive::DriveBackend::Sim,
        "runtime" => drive::DriveBackend::Runtime,
        "both" => drive::DriveBackend::Both,
        other => {
            eprintln!("unknown backend {other}; use sim|runtime|both");
            return ExitCode::FAILURE;
        }
    };
    let mut config = drive::DriveConfig {
        seed: options.seed,
        ..Default::default()
    };
    if options.quick {
        config.windows = 6;
        config.window_secs = 0.5;
    }
    let runs = drive::run_drive(backend, config);
    print!("{}", drive::render_drive(&config, &runs));
    ExitCode::SUCCESS
}

fn run_fleet(options: &Options) -> ExitCode {
    if options.place && options.scale.is_none() {
        eprintln!("--place requires --scale 1k|10k|100k");
        return ExitCode::FAILURE;
    }
    if let Some(scale) = options.scale.as_deref() {
        if options.faults.is_some() {
            eprintln!("--scale and --faults are mutually exclusive");
            return ExitCode::FAILURE;
        }
        let smoke = options.smoke || options.quick;
        if options.place {
            let Some(config) = place_scale::PlaceScaleConfig::named(scale, smoke, options.seed)
            else {
                eprintln!("unknown placement scale {scale}; use 1k|10k|100k");
                return ExitCode::FAILURE;
            };
            let run = place_scale::run_place_scale(&config);
            print!("{}", place_scale::render_place_scale(&config, &run));
            return ExitCode::SUCCESS;
        }
        let Some(config) = fleet_scale::FleetScaleConfig::named(scale, smoke, options.seed) else {
            eprintln!("unknown scale {scale}; use 1k|10k|100k|1m");
            return ExitCode::FAILURE;
        };
        let run = fleet_scale::run_fleet_scale(&config);
        print!("{}", fleet_scale::render_fleet_scale(&config, &run));
        return ExitCode::SUCCESS;
    }
    let scenario = match options.faults.as_deref() {
        None => None,
        Some(name) => match faults::FaultScenario::parse(name) {
            Some(s) => Some(s),
            None => {
                eprintln!(
                    "unknown fault scenario {name}; use smoke|lossy|laggy|partition|churn|crash-storm"
                );
                return ExitCode::FAILURE;
            }
        },
    };
    // The smoke scenario *is* the CI variant: it always runs the short
    // smoke shape regardless of flags.
    let smoke = options.smoke || options.quick || scenario == Some(faults::FaultScenario::Smoke);
    let config = if smoke {
        fleet::FleetBenchConfig::smoke(options.seed)
    } else {
        fleet::FleetBenchConfig {
            seed: options.seed,
            ..Default::default()
        }
    };
    match scenario {
        Some(scenario) => {
            let run = faults::run_faulty_fleet(&config, scenario);
            print!("{}", faults::render_faulty_fleet(&config, &run));
        }
        None => {
            let run = fleet::run_fleet(&config);
            print!("{}", fleet::render_fleet(&config, &run));
        }
    }
    ExitCode::SUCCESS
}

fn fig6_and_7(options: &Options, fig6: bool, fig7: bool) {
    let secs = if options.quick { 120 } else { 600 };
    for app in [App::Vld, App::Fpd] {
        let sweep = run_sweep(app, secs, options.seed);
        if fig6 {
            print!("{}", sweep.render_fig6());
        }
        if fig7 {
            print!("{}", sweep.render_fig7());
        }
    }
}

fn run_fig8(options: &Options) {
    let secs = if options.quick { 120 } else { 600 };
    let rows = fig8::run_fig8(secs, options.seed);
    print!("{}", fig8::render_fig8(&rows));
}

fn run_fig9(options: &Options) {
    let window = if options.quick { 20 } else { 60 };
    for app in [App::Vld, App::Fpd] {
        let runs = fig9::run_fig9(app, options.seed, window);
        print!("{}", fig9::render_fig9(app, &runs));
    }
}

fn run_fig10(options: &Options) {
    let window = if options.quick { 20 } else { 60 };
    for experiment in [fig10::Experiment::ExpA, fig10::Experiment::ExpB] {
        let run = fig10::run_fig10(experiment, options.seed, window);
        print!("{}", run.render());
    }
}

fn run_table2(options: &Options) {
    let iterations = if options.quick { 5_000 } else { 100_000 };
    let columns = table2::run_table2(iterations);
    print!("{}", table2::render_table2(&columns));
}

fn run_ablation(options: &Options) {
    let rows = ablation::run_greedy_vs_exhaustive();
    print!("{}", ablation::render_greedy_vs_exhaustive(&rows));
    let secs = if options.quick { 120 } else { 600 };
    let rows = ablation::run_distribution_robustness(secs, options.seed);
    print!("{}", ablation::render_distribution_robustness(&rows));
    let (windows, window_secs) = if options.quick { (8, 30) } else { (15, 60) };
    let rows = ablation::run_gate_value(windows, window_secs, options.seed);
    print!("{}", ablation::render_gate_value(&rows));
}

fn run_place(options: &Options) {
    let config = if options.smoke || options.quick {
        place::PlaceBenchConfig::smoke(options.seed)
    } else {
        place::PlaceBenchConfig {
            seed: options.seed,
            ..Default::default()
        }
    };
    let run = place::run_place(&config);
    print!("{}", place::render_place(&config, &run));
}

fn run_surge(options: &Options) {
    let mut config = surge::SurgeConfig::default();
    if options.quick {
        config.windows = 26;
        config.surge_at = 7;
        config.relax_at = 15;
        config.window_secs = 30;
    }
    let points = surge::run_surge(config, options.seed);
    print!("{}", surge::render_surge(&config, &points));
}
