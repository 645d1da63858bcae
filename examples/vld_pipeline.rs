//! Video logo detection under DRS supervision (paper §V, Figs. 6 & 9).
//!
//! Simulates the VLD pipeline starting from a deliberately bad allocation,
//! lets DRS monitor passively for five minutes, then enables re-balancing
//! and watches the sojourn time drop to the optimum. The closed loop is the
//! backend-agnostic `DrsDriver` over the discrete-event simulator.
//!
//! ```text
//! cargo run --release --example vld_pipeline
//! ```

use drs::apps::VldProfile;
use drs::core::config::DrsConfig;
use drs::core::controller::DrsController;
use drs::core::driver::DrsDriver;
use drs::core::negotiator::{MachineBudget, MachineBudgetConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let profile = VldProfile::paper();
    let initial = [8u32, 12, 2]; // bad: starves the SIFT extractor
    println!("VLD pipeline, initial allocation (8:12:2), Kmax = 22\n");

    let sim = profile.build_simulation(initial, 2015);
    let pool = MachineBudget::new(MachineBudgetConfig::default(), 5)?;
    let mut drs = DrsController::new(DrsConfig::min_latency(22), initial.to_vec(), pool)?;
    drs.set_active(false); // monitor only, like the paper's first phase

    let mut driver = DrsDriver::new(sim, drs, 60.0)?;

    println!("minute | sojourn (ms) | allocation | note");
    driver.run_windows(5);
    driver.controller_mut().set_active(true);
    driver.run_windows(10);

    for p in driver.timeline() {
        println!(
            "{:>6} | {:>12} | ({}) | {}",
            p.window + 1,
            p.mean_sojourn_ms
                .map_or("-".to_owned(), |v| format!("{v:.0}")),
            p.allocation
                .iter()
                .map(u32::to_string)
                .collect::<Vec<_>>()
                .join(":"),
            if p.rebalanced { "<- rebalanced" } else { "" }
        );
    }
    if let Some(rec) = driver.controller().last_recommendation() {
        println!("\nDRS recommendation: {rec}");
    }
    Ok(())
}
