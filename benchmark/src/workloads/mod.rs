//! The five workloads. Each takes the run's arguments and returns what it
//! measured; `README.md` says why each exists and which layers it bypasses.

pub mod fleet_window;
pub mod generator;
pub mod live;
pub mod live_step;
pub mod sim_paper;

use crate::report::{Ctx, RunResult};
use std::time::Instant;

/// Sets up `reps` times — tearing each rig but the last down again — and
/// returns the last rig with the seconds each set-up took. `set_up` is told
/// whether it is building the rig that will run.
fn set_up_repeatedly<T>(
    reps: usize,
    mut set_up: impl FnMut(bool) -> T,
    mut tear_down: impl FnMut(T),
) -> (T, Vec<f64>) {
    let mut secs = Vec::with_capacity(reps);
    let mut rig = None;
    for rep in 0..reps {
        if let Some(previous) = rig.take() {
            tear_down(previous);
        }
        let begun = Instant::now();
        rig = Some(set_up(rep + 1 == reps));
        secs.push(begun.elapsed().as_secs_f64());
    }
    (rig.expect("at least one repetition"), secs)
}

/// Runs the workload called `name`, or `None` for an unknown name.
pub fn run(name: &str, ctx: &Ctx) -> Option<RunResult> {
    Some(match name {
        "live_flood" => live::run(live::Kind::Flood, ctx),
        "live_paced" => live::run(live::Kind::Paced, ctx),
        "live_step" => live_step::run(ctx),
        "fleet_window" => fleet_window::run(ctx),
        "sim_paper" => sim_paper::run(ctx),
        _ => return None,
    })
}
