//! What one workload run reports, and how it is printed and stored.

use crate::catalog::{self, Better, END_TO_END, PER_LAYER};
use crate::json::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Arguments of one workload run.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub traced: bool,
    /// Where traces and result files go (`benchmark/out`).
    pub out_dir: PathBuf,
}

/// One correctness check on the program's outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything one run of one workload measured.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Operations attempted (frames, shard-windows, simulated windows) and
    /// how many of them failed.
    pub attempted: u64,
    pub failed: u64,
    /// Why the run's numbers should not be trusted, if so: the open-loop
    /// generator ran too late against its schedule (a stall of the machine,
    /// not an error of the program, so `correct` is unaffected). Such a run
    /// is repeated once; a second invalid run is reported with this set.
    pub invalid: Option<String>,
    pub checks: Vec<Check>,
    /// Metric values by catalogue name.
    pub metrics: BTreeMap<String, f64>,
}

impl RunResult {
    pub fn new(workload: &str, ctx: &Ctx) -> Self {
        RunResult {
            workload: workload.to_owned(),
            seed: ctx.seed,
            seconds: ctx.seconds,
            traced: ctx.traced,
            attempted: 0,
            failed: 0,
            invalid: None,
            checks: Vec::new(),
            metrics: BTreeMap::new(),
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        debug_assert!(
            END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not in the catalogue"
        );
        self.metrics.insert(name.to_owned(), value);
    }

    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push(Check {
            name: name.to_owned(),
            ok,
            detail,
        });
    }

    /// Whether every correctness check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    fn value(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    /// The one-line result the benchmark contract asks for: every
    /// end-to-end metric of an untraced run, every per-layer metric of a
    /// traced one.
    pub fn contract_line(&self) -> String {
        let metric = |name: &str, unit: &str| {
            (
                name.to_owned(),
                Json::obj([
                    ("value", Json::Num(self.value(name))),
                    ("unit", Json::Str(unit.to_owned())),
                ]),
            )
        };
        let metrics: BTreeMap<String, Json> = if self.traced {
            PER_LAYER.iter().map(|m| metric(m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| metric(m.name, m.unit)).collect()
        };
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    }

    /// Prints every metric by name with unit, direction and bound, then the
    /// checks.
    pub fn print(&self) {
        let mode = if self.traced { "traced" } else { "untraced" };
        println!(
            "== {} ({mode}, seed {}, {} s) attempted {} failed {}",
            self.workload, self.seed, self.seconds, self.attempted, self.failed
        );
        let row = |name: &str, unit: &str, better: Better, bound: Option<f64>| {
            let bound = bound.map_or_else(|| "-".to_owned(), |b| format!("{:.0}%", b * 100.0));
            println!(
                "  {name:<34} {:>16.6} {unit:<6} better={:<6} bound={bound}",
                self.value(name),
                better.as_str()
            );
        };
        if self.traced {
            for m in PER_LAYER {
                row(m.name, m.unit, m.better, None);
            }
        } else {
            for m in &END_TO_END {
                row(m.name, m.unit, m.better, Some(m.bound));
            }
        }
        for c in &self.checks {
            let verdict = if c.ok { "ok  " } else { "FAIL" };
            println!("  check {verdict} {}: {}", c.name, c.detail);
        }
        if let Some(why) = &self.invalid {
            println!("  INVALID {why}");
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::Str(self.workload.clone())),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("traced", Json::Bool(self.traced)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "invalid",
                self.invalid.clone().map_or(Json::Null, Json::Str),
            ),
            ("correct", Json::Bool(self.correct())),
            (
                "checks",
                Json::Arr(
                    self.checks
                        .iter()
                        .map(|c| {
                            Json::obj([
                                ("name", Json::Str(c.name.clone())),
                                ("ok", Json::Bool(c.ok)),
                                ("detail", Json::Str(c.detail.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(j: &Json) -> Result<Self, String> {
        let field = |k: &str| j.get(k).ok_or_else(|| format!("missing field {k}"));
        let num = |k: &str| {
            field(k)?
                .as_f64()
                .ok_or_else(|| format!("{k} is not a number"))
        };
        let flag = |k: &str| {
            field(k)?
                .as_bool()
                .ok_or_else(|| format!("{k} is not a bool"))
        };
        let checks = field("checks")?
            .as_arr()
            .ok_or("checks is not an array")?
            .iter()
            .map(|c| {
                Some(Check {
                    name: c.get("name")?.as_str()?.to_owned(),
                    ok: c.get("ok")?.as_bool()?,
                    detail: c.get("detail")?.as_str()?.to_owned(),
                })
            })
            .collect::<Option<Vec<_>>>()
            .ok_or("malformed check")?;
        let metrics = field("metrics")?
            .as_obj()
            .ok_or("metrics is not an object")?
            .iter()
            .map(|(k, v)| Some((k.clone(), v.as_f64()?)))
            .collect::<Option<BTreeMap<_, _>>>()
            .ok_or("malformed metric")?;
        Ok(RunResult {
            workload: field("workload")?
                .as_str()
                .ok_or("workload is not a string")?
                .to_owned(),
            seed: num("seed")? as u64,
            seconds: num("seconds")?,
            traced: flag("traced")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            invalid: field("invalid")?.as_str().map(str::to_owned),
            checks,
            metrics,
        })
    }
}

/// The contents of `results.json`: every run of one suite pass.
pub fn results_json(runs: &[RunResult]) -> Json {
    Json::obj([
        ("claim", Json::Null),
        ("run_seconds", Json::Num(catalog::RUN_SECONDS as f64)),
        (
            "runs",
            Json::Arr(runs.iter().map(RunResult::to_json).collect()),
        ),
    ])
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_result(traced: bool) -> RunResult {
        let ctx = Ctx {
            seed: 7,
            seconds: 1.5,
            traced,
            out_dir: PathBuf::from("out"),
        };
        let mut r = RunResult::new("fleet_window", &ctx);
        r.attempted = 1000;
        r.failed = 3;
        for (i, m) in END_TO_END.iter().enumerate() {
            r.set(m.name, 1.0 + i as f64 / 7.0);
        }
        for (i, m) in PER_LAYER.iter().enumerate() {
            r.set(m.name, 0.5 + i as f64 / 3.0);
        }
        r.check("grants within budget", true, "Σ 10 ≤ 12".to_owned());
        r.check("floors", false, "shard \"s1\" below floor".to_owned());
        r
    }

    #[test]
    fn results_json_round_trips_and_carries_every_name() {
        let runs = vec![full_result(false), full_result(true)];
        let text = results_json(&runs).render();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed.get("claim"), Some(&Json::Null));
        let back: Vec<RunResult> = parsed
            .get("runs")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|j| RunResult::from_json(j).unwrap())
            .collect();
        assert_eq!(back, runs);
        for m in &END_TO_END {
            assert!(back[0].metrics.contains_key(m.name), "{}", m.name);
        }
        for m in PER_LAYER {
            assert!(back[1].metrics.contains_key(m.name), "{}", m.name);
        }
    }

    #[test]
    fn contract_line_has_exactly_the_contract_keys() {
        for traced in [false, true] {
            let r = full_result(traced);
            let line = Json::parse(&r.contract_line()).unwrap();
            let keys: Vec<&str> = line.as_obj().unwrap().keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
            assert!(r.contract_line().contains("\"attempted\": 1000,"));
            let metrics = line.get("metrics").and_then(Json::as_obj).unwrap();
            let expected: Vec<&str> = if traced {
                PER_LAYER.iter().map(|m| m.name).collect()
            } else {
                END_TO_END.iter().map(|m| m.name).collect()
            };
            assert_eq!(metrics.len(), expected.len());
            for name in expected {
                let m = &metrics[name];
                assert!(m.get("value").and_then(Json::as_f64).is_some());
                assert!(m.get("unit").and_then(Json::as_str).is_some());
            }
        }
    }
}
