//! The binary end to end on a tiny run: its result line carries every metric
//! `BENCHMARK.json` names for the mode, with its unit, and passes its own
//! checks; the results file keeps the rounds and the host readings.

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;

use json::Json;
use std::process::Command;

const DEFINITION: &str = include_str!("../../BENCHMARK.json");

#[test]
fn results_carry_every_defined_metric_with_its_unit() {
    let definition = Json::parse(DEFINITION).unwrap();
    let detail = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(format!("out/test-{}.json", std::process::id()));
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let output = Command::new(env!("CARGO_BIN_EXE_sf-benchmark"))
            .args([
                "--workload",
                "durable-write",
                "--seed",
                "5",
                "--seconds",
                "1",
            ])
            .args(["--quick", "--trace", trace, "--detail"])
            .arg(&detail)
            .output()
            .unwrap();
        assert!(output.status.success(), "{output:?}");
        let stdout = String::from_utf8(output.stdout).unwrap();
        let line = Json::parse(stdout.lines().last().unwrap()).unwrap();
        let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));

        let defs = definition.get(key).unwrap().as_arr();
        let metrics = line.get("metrics").unwrap();
        assert_eq!(metrics.fields().len(), defs.len());
        for def in defs {
            let name = def.get("name").and_then(Json::as_str).unwrap();
            let metric = metrics
                .get(name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(
                metric.get("unit").and_then(Json::as_str),
                def.get("unit").and_then(Json::as_str)
            );
            assert!(metric
                .get("value")
                .and_then(Json::as_f64)
                .is_some_and(f64::is_finite));
        }

        let file = Json::parse(&std::fs::read_to_string(&detail).unwrap()).unwrap();
        assert!(file
            .get("metrics")
            .unwrap()
            .fields()
            .iter()
            .all(|(_, m)| m.get("rounds").is_some()));
        let host = file.get("host").unwrap().as_arr();
        assert!(!host.is_empty());
        assert!(host.iter().all(|h| h
            .get("factor")
            .and_then(Json::as_f64)
            .is_some_and(|f| f > 0.0)));
    }
    let _ = std::fs::remove_file(&detail);
}
