//! What a run reports: the metric definitions of `BENCHMARK.json` (the one
//! place names, units, directions and bounds are written down), the result
//! of a run, results files, and the `compare` of two of them.

use crate::host::Reading;
use crate::json::Json;
use crate::workload::median;

/// `BENCHMARK.json`, compiled in so the binary and the contract cannot drift.
const DEFINITION: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Definition {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Definition {
    pub fn load() -> Definition {
        let json = Json::parse(DEFINITION).expect("BENCHMARK.json parses");
        let text = |item: &Json, key: &str| -> String {
            item.get(key)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("BENCHMARK.json: missing {key}"))
                .to_string()
        };
        let metrics = |key: &str| -> Vec<MetricDef> {
            json.get(key)
                .map(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .map(|m| MetricDef {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    higher_is_better: text(m, "better") == "higher",
                    bound: m.get("bound").and_then(Json::as_f64),
                })
                .collect()
        };
        Definition {
            run_seconds: json
                .get("run_seconds")
                .and_then(Json::as_f64)
                .expect("run_seconds") as u64,
            workloads: json
                .get("workloads")
                .map(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .map(|w| text(w, "name"))
                .collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }
}

/// What a results file keeps of the host around one round: the reading, the
/// factor the round's end-to-end times were divided by, and the throughput
/// as measured, before scaling.
pub fn host_json(reading: Reading, measured_ops_s: f64, factor: f64) -> Json {
    Json::obj([
        ("core_ns", Json::Num(reading.core_ns)),
        ("memory_ns", Json::Num(reading.memory_ns)),
        ("factor", Json::Num(factor)),
        ("measured_ops_s", Json::Num(measured_ops_s)),
    ])
}

/// One metric of one run: the run's value and, where the value is a median
/// over rounds, the rounds it was taken from.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    pub rounds: Vec<f64>,
}

/// The result of one run of one workload.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The workload's name, or `<workload>@<backend>` under `--backend`.
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    /// Per round, for auditing the scaling: see [`host_json`].
    pub host: Vec<Json>,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// Give every `(name, value, rounds)` the unit `defs` names for it.
    /// Errors when the two sets of names differ: a run reports exactly the
    /// metrics `BENCHMARK.json` lists for its mode.
    pub fn label(
        values: Vec<(String, f64, Vec<f64>)>,
        defs: &[MetricDef],
    ) -> Result<Vec<Metric>, String> {
        for (name, _, _) in &values {
            if !defs.iter().any(|d| d.name == *name) {
                return Err(format!("metric {name} is not in BENCHMARK.json"));
            }
        }
        defs.iter()
            .map(|def| {
                let mut found = values.iter().filter(|(name, _, _)| *name == def.name);
                match (found.next(), found.next()) {
                    (Some((_, value, rounds)), None) => Ok(Metric {
                        name: def.name.clone(),
                        unit: def.unit.clone(),
                        value: *value,
                        rounds: rounds.clone(),
                    }),
                    (None, _) => Err(format!("metric {} was not measured", def.name)),
                    (Some(_), Some(_)) => Err(format!("metric {} was measured twice", def.name)),
                }
            })
            .collect()
    }

    pub fn correct(&self) -> bool {
        self.ops_failed == 0
    }

    /// The one-line result the driver reads.
    pub fn contract_line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.ops_attempted as f64)),
            ("failed", Json::Num(self.ops_failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.name.clone(),
                        Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(&m.unit))]),
                    )
                })),
            ),
        ])
    }

    /// The same with per-round values, as kept in results files.
    pub fn detail(&self) -> Json {
        Json::obj([
            ("workload", Json::str(&self.workload)),
            ("seed", Json::Num(self.seed as f64)),
            ("trace", Json::Num(self.traced as u8 as f64)),
            ("correct", Json::Bool(self.correct())),
            ("ops_attempted", Json::Num(self.ops_attempted as f64)),
            ("ops_failed", Json::Num(self.ops_failed as f64)),
            ("host", Json::Arr(self.host.clone())),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.name.clone(),
                        Json::obj([
                            ("value", Json::Num(m.value)),
                            ("unit", Json::str(&m.unit)),
                            (
                                "rounds",
                                Json::Arr(m.rounds.iter().map(|&v| Json::Num(v)).collect()),
                            ),
                        ]),
                    )
                })),
            ),
        ])
    }

    /// Every metric by name with its unit, for people.
    pub fn print_table(&self) {
        println!(
            "{} seed={} trace={}: ops_attempted={} ops_failed={}",
            self.workload, self.seed, self.traced as u8, self.ops_attempted, self.ops_failed
        );
        for m in &self.metrics {
            let rounds: Vec<String> = m.rounds.iter().map(|v| format!("{v:.4e}")).collect();
            println!(
                "  {:<40} {:>16.4} {:<6} {}",
                m.name,
                m.value,
                m.unit,
                rounds.join(" ")
            );
        }
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)` gives
/// them (the exclusive method), which is what the driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = data.len();
    assert!(m >= 2, "quartiles need two values");
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// The values of `metric` on `workload` over the untraced runs of a results
/// file.
fn values_of(file: &Json, workload: &str, metric: &str) -> Vec<f64> {
    file.get("runs")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter(|run| {
            run.get("workload").and_then(Json::as_str) == Some(workload)
                && run.get("trace").and_then(Json::as_f64) == Some(0.0)
        })
        .filter_map(|run| run.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// Judge `b` against `a` for one metric: how much worse `b`'s median is as a
/// share of `a`'s (negative = better), the wider of the two spreads, and the
/// verdict under the metric's bound.
pub fn judge(a: &[f64], b: &[f64], def: &MetricDef) -> (f64, f64, Verdict) {
    let (median_a, median_b) = (median(a), median(b));
    let sign = if def.higher_is_better { -1.0 } else { 1.0 };
    let worse_by = sign * (median_b - median_a) / median_a;
    let bound = def.bound.expect("end-to-end metrics carry a bound");
    let widest = if a.len() >= 2 && b.len() >= 2 {
        spread(a).max(spread(b))
    } else {
        0.0
    };
    // Every run of b better than every run of a settles it whatever the spread.
    let all_better = a.iter().all(|&x| b.iter().all(|&y| sign * (y - x) < 0.0));
    let verdict = if widest > bound && !all_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (worse_by, widest, verdict)
}

/// `compare A.json B.json`: one row per workload and end-to-end metric.
/// Returns how many rows read `worse`.
pub fn compare(a: &Json, b: &Json, definition: &Definition) -> Result<usize, String> {
    let mut worse = 0;
    println!(
        "{:<18} {:<18} {:>14} {:>14} {:>9} {:>9} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "B worse", "spread", "bound"
    );
    for workload in &definition.workloads {
        for def in &definition.end_to_end {
            let (va, vb) = (
                values_of(a, workload, &def.name),
                values_of(b, workload, &def.name),
            );
            if va.is_empty() || vb.is_empty() {
                return Err(format!(
                    "{workload}/{}: missing from one of the files",
                    def.name
                ));
            }
            let (worse_by, widest, verdict) = judge(&va, &vb, def);
            println!(
                "{:<18} {:<18} {:>14.4} {:>14.4} {:>+8.2}% {:>8.2}% {:>6.1}%  {}",
                workload,
                def.name,
                median(&va),
                median(&vb),
                worse_by * 100.0,
                widest * 100.0,
                def.bound.unwrap_or(0.0) * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
            worse += (verdict == Verdict::Worse) as usize;
        }
    }
    Ok(worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(higher: bool, bound: f64) -> MetricDef {
        MetricDef {
            name: "m".into(),
            unit: "ns".into(),
            higher_is_better: higher,
            bound: Some(bound),
        }
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
        assert_eq!(quartiles(&[160.0, 10.0, 40.0, 20.0, 80.0]), (15.0, 120.0));
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn judge_separates_ok_worse_and_unresolved() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let lower = def(false, 0.05);
        assert_eq!(
            judge(&steady, &[103.0, 104.0, 102.0, 103.5, 102.5], &lower).2,
            Verdict::Ok
        );
        assert_eq!(
            judge(&steady, &[108.0, 109.0, 107.0, 108.5, 107.5], &lower).2,
            Verdict::Worse
        );
        let noisy = [100.0, 130.0, 80.0, 120.0, 90.0];
        assert_eq!(judge(&steady, &noisy, &lower).2, Verdict::Unresolved);
        // Wide, but every run better than every run of A: settled.
        assert_eq!(
            judge(&steady, &[50.0, 70.0, 40.0, 60.0, 45.0], &lower).2,
            Verdict::Ok
        );
        // Direction: a drop in a higher-is-better metric is what is worse.
        let higher = def(true, 0.05);
        let (by, _, verdict) = judge(&steady, &[90.0, 91.0, 89.0, 90.5, 89.5], &higher);
        assert!(by > 0.09 && verdict == Verdict::Worse);
        assert_eq!(
            judge(&steady, &[110.0, 111.0, 109.0, 110.5, 109.5], &higher).2,
            Verdict::Ok
        );
    }

    #[test]
    fn labelling_demands_exactly_the_defined_metrics() {
        let defs = [def(false, 0.05)];
        let one = vec![("m".to_string(), 1.5, vec![1.0, 2.0])];
        let labelled = RunResult::label(one.clone(), &defs).unwrap();
        assert_eq!((labelled[0].unit.as_str(), labelled[0].value), ("ns", 1.5));
        assert!(RunResult::label(vec![], &defs).is_err());
        assert!(RunResult::label(vec![("x".to_string(), 1.0, vec![])], &defs).is_err());
        assert!(RunResult::label([one.clone(), one].concat(), &defs).is_err());
    }
}
