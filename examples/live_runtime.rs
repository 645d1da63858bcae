//! DRS closing the loop on a *live* threaded topology (no simulation): the
//! VLD pipeline with real frame synthesis, feature extraction and matching
//! running on executor threads, autoscaled by the same `DrsDriver` that
//! drives the simulator — the `RuntimeEngine` is just another `CspBackend`.
//!
//! ```text
//! cargo run --release --example live_runtime
//! ```

use drs::apps::vld::live::{AggregateBolt, ExtractBolt, FrameSpout, MatchBolt};
use drs::core::config::DrsConfig;
use drs::core::controller::DrsController;
use drs::core::driver::DrsDriver;
use drs::core::negotiator::{MachineBudget, MachineBudgetConfig};
use drs::runtime::RuntimeBuilder;
use drs::topology::{EdgeOptions, TopologyBuilder};
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Build the VLD topology.
    let mut b = TopologyBuilder::new();
    let frames = b.spout("frames");
    let extract = b.bolt("extract");
    let matcher = b.bolt("match");
    let aggregate = b.bolt("aggregate");
    b.edge(frames, extract)?;
    b.edge_with(
        extract,
        matcher,
        EdgeOptions {
            gain: 8.0,
            ..Default::default()
        },
    )?;
    b.edge_with(
        matcher,
        aggregate,
        EdgeOptions {
            gain: 0.3,
            ..Default::default()
        },
    )?;
    let topo = b.build()?;

    // Launch: 600 frames/s of synthetic video against a 4096-logo library
    // on real threads, deliberately over-provisioned (3:3:2) so DRS has
    // something to reclaim.
    let engine = RuntimeBuilder::new(topo)
        .spout(frames, Box::new(FrameSpout::new(600.0, 42, None)))
        .bolt(extract, ExtractBolt::new)
        .bolt(matcher, || MatchBolt::new(4096, 1.2, 7))
        .bolt(aggregate, || AggregateBolt::new(3))
        .allocation(vec![1, 3, 3, 2])
        .start()?;
    println!("live VLD runtime started (1 spout + 8 executors)…");

    // Close the loop: the same driver that reproduces the paper's figures
    // on the simulator, now actuating a live engine, under the paper's
    // resource-minimisation goal (Program 6). The synthetic kernels leave
    // the measured sojourn far below the 250 ms target, so DRS scales the
    // live topology in and frees a machine. Short windows keep the demo
    // quick; real deployments would use the paper's 60 s.
    let mut config = DrsConfig::min_resources(0.25);
    config.warmup_windows = 1;
    config.cooldown_windows = 0;
    let pool = MachineBudget::new(MachineBudgetConfig::default(), 2)?;
    let drs = DrsController::new(config, vec![3, 3, 2], pool)?;
    let mut driver = DrsDriver::new(engine, drs, 1.5)?;

    println!("window | frames done | sojourn (ms) | (extract:match:aggregate) | note");
    for _ in 0..4 {
        let p = driver.step();
        println!(
            "{:>6} | {:>11} | {:>12} | ({}) | {}",
            p.window + 1,
            p.completed,
            p.mean_sojourn_ms
                .map_or("-".to_owned(), |v| format!("{v:.2}")),
            p.allocation
                .iter()
                .map(u32::to_string)
                .collect::<Vec<_>>()
                .join(":"),
            match (p.rebalanced, p.pause_secs) {
                (true, Some(pause)) => format!("<- rebalanced in {:.1} ms", pause * 1e3),
                _ => String::new(),
            }
        );
    }
    if let Some(rec) = driver.controller().last_recommendation() {
        println!("DRS recommendation: {rec}");
    }
    println!(
        "machines in use: {} of 2",
        driver.controller().pool().active_machines()
    );

    let (engine, _drs) = driver.into_parts();
    engine.shutdown(Duration::from_secs(2));
    println!("done.");
    Ok(())
}
