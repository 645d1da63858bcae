//! The simulator's exactness net: every word a `DrsDriver` run over the
//! simulator records — each `TimelinePoint` and each controller `LogEntry`,
//! field by field, `f64`s by their bits — is folded into one running 64-bit
//! hash, and the hash is pinned.
//!
//! The runs are the Fig. 9 timelines (27 windows, re-balancing enabled at
//! window 13) for both applications from all three paper starts, on seeds
//! 7 and 2015. One more run is placed: VLD with a crossing placement
//! installed and a non-zero cross-machine delay, so crossed tuples and the
//! pause-charged rebalance's `Resume` are pinned too.
//!
//! A change that is meant to preserve behaviour leaves every golden below
//! untouched. A change that alters simulator or controller behaviour on
//! purpose updates them and says why.

use drs_apps::{FpdProfile, VldProfile};
use drs_core::config::DrsConfig;
use drs_core::controller::{ControlAction, DrsController};
use drs_core::driver::{CspBackend, DrsDriver};
use drs_core::negotiator::{MachinePool, MachinePoolConfig};
use drs_core::placement::Placement;
use drs_sim::{SimDuration, Simulator};

/// The Fig. 9 run shape.
const WINDOWS: u64 = 27;
const ENABLE_AT: u64 = 13;
/// Simulated seconds per window: the quick Fig. 9 variant, so the debug
/// build stays quick (`repro fig9`'s 60 s minutes are pinned by
/// `crates/bench/expected/fig9.txt`).
const WINDOW_SECS: f64 = 20.0;

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn flag(&mut self, b: bool) {
        self.word(u64::from(b));
    }

    fn bits(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn float(&mut self, x: Option<f64>) {
        match x {
            Some(x) => {
                self.word(1);
                self.bits(x);
            }
            None => self.word(0),
        }
    }

    fn text(&mut self, s: Option<&str>) {
        match s {
            Some(s) => {
                self.word(1 + s.len() as u64);
                for &byte in s.as_bytes() {
                    self.word(u64::from(byte));
                }
            }
            None => self.word(0),
        }
    }

    fn counts(&mut self, counts: &[u32]) {
        self.word(counts.len() as u64);
        for &k in counts {
            self.word(u64::from(k));
        }
    }

    /// Every timeline point and every controller log entry of `driver`.
    fn driver(&mut self, driver: &DrsDriver<Simulator>) {
        let timeline = driver.timeline();
        self.word(timeline.len() as u64);
        for p in timeline {
            self.word(p.window);
            self.float(p.mean_sojourn_ms);
            self.float(p.std_sojourn_ms);
            self.word(p.completed);
            self.counts(&p.allocation);
            self.flag(p.rebalanced);
            self.float(p.pause_secs);
            self.text(p.backend_error.as_deref());
        }
        let log = driver.controller().log();
        self.word(log.len() as u64);
        for e in log {
            self.word(e.window);
            match &e.estimates {
                Some(est) => {
                    self.word(1);
                    self.bits(est.external_rate);
                    self.word(est.operators.len() as u64);
                    for op in &est.operators {
                        self.bits(op.arrival_rate);
                        self.bits(op.service_rate);
                    }
                    self.float(est.mean_sojourn);
                }
                None => self.word(0),
            }
            self.float(e.current_estimate);
            match &e.recommendation {
                Some(a) => {
                    self.word(1);
                    self.counts(a.per_operator());
                    self.bits(a.expected_sojourn());
                }
                None => self.word(0),
            }
            // The verdict is a pair of field-less enums: its debug text is
            // every word it carries.
            self.text(e.decision.as_ref().map(|d| format!("{d:?}")).as_deref());
            match &e.action {
                ControlAction::None => self.word(0),
                ControlAction::Rebalance {
                    allocation,
                    pause_secs,
                    plan,
                } => {
                    self.word(1);
                    self.counts(allocation);
                    self.bits(*pause_secs);
                    self.text(plan.as_ref().map(|p| format!("{p:?}")).as_deref());
                }
            }
            self.text(e.error.as_deref());
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum App {
    Vld,
    Fpd,
}

impl App {
    /// The paper's initial allocations; the last one is the optimum.
    fn starts(self) -> [[u32; 3]; 3] {
        match self {
            App::Vld => [[8, 12, 2], [11, 9, 2], [10, 11, 1]],
            App::Fpd => [[8, 12, 2], [7, 13, 2], [6, 13, 3]],
        }
    }

    fn simulation(self, start: [u32; 3], seed: u64) -> Simulator {
        match self {
            App::Vld => VldProfile::paper().build_simulation(start, seed),
            App::Fpd => FpdProfile::paper().build_simulation(start, seed),
        }
    }
}

/// Runs one Fig. 9 timeline on `sim` and returns the driver.
fn fig9_run(sim: Simulator, start: [u32; 3]) -> DrsDriver<Simulator> {
    let pool = MachinePool::new(MachinePoolConfig::default(), 5).expect("valid pool");
    let mut drs = DrsController::new(DrsConfig::min_latency(22), start.to_vec(), pool)
        .expect("valid controller");
    drs.set_active(false);
    let mut driver = DrsDriver::new(sim, drs, WINDOW_SECS).expect("wiring matches");
    driver.run_windows(ENABLE_AT);
    driver.controller_mut().set_active(true);
    driver.run_windows(WINDOWS - ENABLE_AT);
    driver
}

/// The digest of one application's three Fig. 9 runs on `seed`.
fn fig9_digest(app: App, seed: u64) -> u64 {
    let mut d = Digest::new();
    for start in app.starts() {
        d.driver(&fig9_run(app.simulation(start, seed), start));
    }
    d.0
}

#[test]
fn vld_fig9_digests_are_pinned() {
    assert_eq!(
        [fig9_digest(App::Vld, 7), fig9_digest(App::Vld, 2015)],
        [15255063365157665803, 5927590997815389897]
    );
}

#[test]
fn fpd_fig9_digests_are_pinned() {
    assert_eq!(
        [fig9_digest(App::Fpd, 7), fig9_digest(App::Fpd, 2015)],
        [8101805248149567694, 17347308488967102862]
    );
}

#[test]
fn placed_run_digest_is_pinned() {
    // VLD from the worst start, its executors split over two machines: a
    // quarter of the extractor and matcher executors off machine 0, so
    // every edge crosses some of the time and pays 4 ms per crossing. The
    // default pool charges a 0.5 s pause per rebalance.
    let start = [8, 12, 2];
    let mut sim = App::Vld.simulation(start, 7);
    sim.set_cross_machine_delay(SimDuration::from_millis(4));
    sim.apply_placement(&Placement::from_counts(vec![
        vec![6, 2],
        vec![9, 3],
        vec![1, 1],
    ]))
    .expect("placement fits the topology");
    let driver = fig9_run(sim, start);
    let crossed = driver.backend().cross_machine_tuples();
    assert!(crossed > 0, "no tuple crossed machines");
    let rebalances = driver.timeline().iter().filter(|p| p.rebalanced).count();
    assert!(rebalances > 0, "the worst start never rebalanced");
    assert!(driver
        .timeline()
        .iter()
        .filter_map(|p| p.pause_secs)
        .all(|pause| pause > 0.0));
    let mut d = Digest::new();
    d.driver(&driver);
    d.word(crossed);
    d.word(driver.backend().edge_tuples());
    assert_eq!(d.0, 15343929029132870875);
}
