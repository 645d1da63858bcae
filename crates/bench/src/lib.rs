//! Experiment harness regenerating every table and figure of the DRS paper
//! (Fu et al., ICDCS 2015, §V).
//!
//! Each module owns one artifact:
//!
//! * [`sweep`] — Figs. 6 & 7 (allocation sweeps, model-vs-measurement);
//! * [`fig8`] — Fig. 8 (underestimation ratio vs compute intensity);
//! * [`fig9`] — Fig. 9 (re-balancing timelines, three initial allocations);
//! * [`fig10`] — Fig. 10 (Tmax-driven scale-up/scale-down, ExpA/ExpB);
//! * [`table2`] — Table II (DRS layer computation overheads);
//! * [`ablation`] — design-choice studies beyond the paper: greedy vs
//!   exhaustive allocation, model robustness under service-law violations,
//!   and the value of the rebalance cost/benefit gate;
//! * [`drive`] — the same `DrsDriver` config run against the simulator and
//!   the live runtime, timelines side by side;
//! * [`fleet`] — a four-topology VLD+FPD fleet sharing one contended
//!   processor budget through the sharded fleet simulator;
//! * [`faults`] — the same fleet under a degraded control plane: named
//!   scenarios (`lossy`, `laggy`, `partition`, `churn`, `crash-storm`)
//!   behind `repro fleet --faults`, rendering injected faults next to
//!   the control-plane reactions;
//! * [`place`] — machine-granular placement on the same fleet sharing an
//!   8-machine pool: the resource-aware solver vs a round-robin deal,
//!   compared on cross-machine tuple fraction and end-to-end sojourn;
//! * [`surge`] — elasticity under a mid-run arrival-rate surge (the §I
//!   motivation, beyond the paper's fixed-rate evaluation);
//! * [`report`] — table rendering and rank-correlation helpers.
//!
//! The `repro` binary drives them:
//!
//! ```text
//! cargo run -p drs-bench --release --bin repro -- all
//! cargo run -p drs-bench --release --bin repro -- fig6 --quick
//! ```
//!
//! Performance numbers are not this crate's job: the repo's one measuring
//! contract is `BENCHMARK.json`, run with `bash benchmark/run.sh
//! [--workload W]` from the standalone `benchmark/` package. The live
//! runtime's latency under churn, for one, is `live_flood`'s
//! `runtime.ack_p50_ms` / `ack_p95_ms` / `ack_p99_ms`.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

pub mod ablation;
pub mod drive;
pub mod faults;
pub mod fig10;
pub mod fig8;
pub mod fig9;
pub mod fleet;
pub mod place;
pub mod report;
pub mod surge;
pub mod sweep;
pub mod table2;
mod timing;
