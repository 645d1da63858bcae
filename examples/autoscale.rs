//! Tmax-driven auto-scaling (Program 6 end to end, paper Fig. 10).
//!
//! Runs the paper's ExpA shape: a tight latency target with an
//! under-provisioned start; once re-balancing is enabled DRS adds a machine
//! and grows the allocation until the target is met — then the reverse
//! (ExpB): a loose target sheds the machine again. The closed loop is the
//! backend-agnostic `DrsDriver` running over the discrete-event simulator.
//!
//! ```text
//! cargo run --release --example autoscale
//! ```

use drs::apps::VldProfile;
use drs::core::config::DrsConfig;
use drs::core::controller::DrsController;
use drs::core::driver::DrsDriver;
use drs::core::negotiator::{MachineBudget, MachineBudgetConfig};

fn run(
    name: &str,
    t_max: f64,
    initial: [u32; 3],
    machines: u32,
) -> Result<(), Box<dyn std::error::Error>> {
    let profile = VldProfile::paper();
    let sim = profile.build_simulation(initial, 99);
    let pool = MachineBudget::new(MachineBudgetConfig::default(), machines)?;
    let mut drs = DrsController::new(DrsConfig::min_resources(t_max), initial.to_vec(), pool)?;
    drs.set_active(false);
    let mut driver = DrsDriver::new(sim, drs, 60.0)?;

    println!(
        "\n{name}: Tmax = {:.0} ms, initial ({}) on {machines} machines",
        t_max * 1e3,
        initial.map(|k| k.to_string()).join(":")
    );
    println!("minute | sojourn (ms) | executors | machines | note");
    driver.run_windows(4);
    driver.controller_mut().set_active(true);
    driver.run_windows(8);
    // The pool only changes at rebalances, so the final pool state labels
    // every post-rebalance window correctly for this short demo.
    let machines_now = driver.controller().pool().active_machines();
    for p in driver.timeline() {
        println!(
            "{:>6} | {:>12} | {:>9} | {:>8} | {}",
            p.window + 1,
            p.mean_sojourn_ms
                .map_or("-".to_owned(), |v| format!("{v:.0}")),
            p.allocation.iter().sum::<u32>(),
            if p.rebalanced || p.window as usize + 1 == driver.timeline().len() {
                machines_now.to_string()
            } else {
                String::from("·")
            },
            if p.rebalanced { "<- rebalanced" } else { "" }
        );
    }
    println!(
        "final: {} executors on {} machines",
        driver
            .timeline()
            .last()
            .map(|p| p.allocation.iter().sum::<u32>())
            .unwrap_or(0),
        driver.controller().pool().active_machines()
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ExpA: tight target, under-provisioned start -> scale up.
    run("ExpA (scale up)", 1.4, [8, 8, 1], 4)?;
    // ExpB: loose target, over-provisioned start -> scale down.
    run("ExpB (scale down)", 15.0, [10, 11, 1], 5)?;
    Ok(())
}
