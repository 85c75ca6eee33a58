//! The result line: one JSON object with exactly the keys `correct`,
//! `attempted`, `failed` and `metrics`, each metric as
//! `{"value": <number>, "unit": <string>}`. Numbers are written with
//! every digit Rust's shortest round-trip formatting gives, so a parse
//! recovers the measured `f64` bit for bit.

use sim_metrics::json::{parse, Json};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as declared in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as declared in `BENCHMARK.json`.
    pub unit: String,
}

/// What one benchmark run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Every output check passed.
    pub correct: bool,
    /// Matrix cells attempted (simulated or served from the cache).
    pub attempted: u64,
    /// Failed cells plus failed output checks.
    pub failed: u64,
    /// The metrics, in declaration order.
    pub metrics: Vec<Metric>,
}

impl BenchResult {
    /// Renders the result as one line of JSON.
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let value = Json::Obj(vec![
                    ("value".into(), Json::from_f64(m.value)),
                    ("unit".into(), Json::Str(m.unit.clone())),
                ]);
                (m.name.clone(), value)
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::from_u64(self.attempted)),
            ("failed".into(), Json::from_u64(self.failed)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .render()
    }

    /// Parses a line written by [`BenchResult::to_json`].
    ///
    /// # Errors
    ///
    /// Reports malformed JSON, a missing or mistyped key, or a key
    /// outside the four the result line may carry.
    pub fn from_json(text: &str) -> Result<BenchResult, String> {
        let v = parse(text)?;
        let Json::Obj(fields) = &v else { return Err("result is not an object".into()) };
        if let Some((k, _)) = fields
            .iter()
            .find(|(k, _)| !["correct", "attempted", "failed", "metrics"].contains(&k.as_str()))
        {
            return Err(format!("unexpected key '{k}'"));
        }
        let correct = match v.get("correct") {
            Some(Json::Bool(b)) => *b,
            _ => return Err("missing boolean 'correct'".into()),
        };
        let count =
            |key: &str| v.get(key).and_then(Json::as_u64).ok_or(format!("missing count '{key}'"));
        let Some(Json::Obj(entries)) = v.get("metrics") else {
            return Err("missing object 'metrics'".into());
        };
        let metrics = entries
            .iter()
            .map(|(name, m)| {
                Ok(Metric {
                    name: name.clone(),
                    value: m
                        .get("value")
                        .and_then(Json::as_f64)
                        .ok_or(format!("metric '{name}' has no numeric value"))?,
                    unit: m
                        .get("unit")
                        .and_then(Json::as_str)
                        .ok_or(format!("metric '{name}' has no unit"))?
                        .to_string(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(BenchResult {
            correct,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchResult {
        BenchResult {
            correct: true,
            attempted: 384,
            failed: 0,
            metrics: vec![
                Metric { name: "wall_s".into(), value: 4.123_456_789_012_345, unit: "s".into() },
                Metric { name: "cell_ms_p90".into(), value: 1e-7, unit: "ms".into() },
                Metric { name: "sim_cycles".into(), value: 5_951_554.0, unit: "cycles".into() },
                Metric { name: "gpu_sim.stage.smx".into(), value: 0.1 + 0.2, unit: "share".into() },
            ],
        }
    }

    #[test]
    fn result_line_round_trips_bit_for_bit() {
        let r = sample();
        let line = r.to_json();
        assert!(!line.contains('\n'), "{line}");
        let back = BenchResult::from_json(&line).expect("parses");
        assert_eq!(back, r);
        for (a, b) in back.metrics.iter().zip(&r.metrics) {
            assert_eq!(a.value.to_bits(), b.value.to_bits(), "{}", a.name);
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = sample().to_json();
        assert!(
            line.starts_with("{\"correct\":true,\"attempted\":384,\"failed\":0,\"metrics\":{"),
            "{line}"
        );
        assert!(line.contains("\"wall_s\":{\"value\":4.123456789012345,\"unit\":\"s\"}"), "{line}");
        let extra = line.replacen('{', "{\"extra\":1,", 1);
        assert!(BenchResult::from_json(&extra).expect_err("extra key").contains("extra"));
        assert!(BenchResult::from_json("{\"correct\":true}").is_err());
    }
}
