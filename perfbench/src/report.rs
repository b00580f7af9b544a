//! The result line: one JSON object with exactly `correct`, `attempted`,
//! `failed` and `metrics`, where `metrics` holds every metric the mode
//! declares, by name, with its unit.

use std::fmt::Write as _;

/// A declared metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDecl {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
}

/// Metric values of one run, checked against the declared set.
#[derive(Debug, Clone)]
pub struct Report {
    decls: Vec<MetricDecl>,
    values: Vec<Option<f64>>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused or timed out.
    pub failed: u64,
}

impl Report {
    /// A report over `decls`; every value starts as `default` (`None`:
    /// must be set before rendering).
    #[must_use]
    pub fn new(decls: &[MetricDecl], default: Option<f64>) -> Self {
        Report {
            decls: decls.to_vec(),
            values: vec![default; decls.len()],
            attempted: 0,
            failed: 0,
        }
    }

    /// Sets metric `name`.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not declared: a misspelt metric is a bug in
    /// the benchmark, and silently dropping it would hide it.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .decls
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not declared in BENCHMARK.json"));
        self.values[i] = Some(value);
    }

    /// Renders the result line.
    ///
    /// # Errors
    ///
    /// Fails when a declared metric is unset or not finite, or when no
    /// operation was attempted.
    pub fn render(&self) -> Result<String, String> {
        if self.attempted == 0 {
            return Err("no operation was attempted".into());
        }
        let mut out = format!(
            r#"{{"correct": true, "attempted": {}, "failed": {}, "metrics": {{"#,
            self.attempted, self.failed
        );
        for (i, (decl, value)) in self.decls.iter().zip(&self.values).enumerate() {
            let value = value.ok_or_else(|| format!("metric `{}` was not measured", decl.name))?;
            if !value.is_finite() {
                return Err(format!("metric `{}` is not finite: {value}", decl.name));
            }
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                r#""{}": {{"value": {}, "unit": "{}"}}"#,
                decl.name,
                number(value),
                decl.unit
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// A finite number in JSON form, with all its digits.
fn number(value: f64) -> String {
    let s = format!("{value}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rispp_telemetry::JsonValue;

    fn decls() -> Vec<MetricDecl> {
        vec![
            MetricDecl {
                name: "wall_s".into(),
                unit: "s".into(),
            },
            MetricDecl {
                name: "peak_rss_mb".into(),
                unit: "MB".into(),
            },
        ]
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::new(&decls(), None);
        r.set("wall_s", 1.203_456_789);
        r.set("peak_rss_mb", 42.0);
        r.attempted = 101;
        let line = r.render().unwrap();
        let v = JsonValue::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(JsonValue::as_u64), Some(101));
        assert_eq!(v.get("failed").and_then(JsonValue::as_u64), Some(0));
        let metrics = v.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), 2);
        let wall = v.get("metrics").unwrap().get("wall_s").unwrap();
        assert_eq!(
            wall.get("value").and_then(JsonValue::as_f64),
            Some(1.203_456_789)
        );
        assert_eq!(wall.get("unit").and_then(JsonValue::as_str), Some("s"));
        assert!(line.contains(r#""value": 42.0"#));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn unset_or_non_finite_metrics_are_refused() {
        let mut r = Report::new(&decls(), None);
        r.attempted = 1;
        r.set("wall_s", 1.0);
        assert!(r.render().is_err());
        r.set("peak_rss_mb", f64::NAN);
        assert!(r.render().is_err());
        r.set("peak_rss_mb", 3.5);
        assert!(r.render().is_ok());
        let mut zeroed = Report::new(&decls(), Some(0.0));
        assert!(zeroed.render().is_err(), "attempted must be at least 1");
        zeroed.attempted = 1;
        assert!(zeroed.render().is_ok());
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metric_panics() {
        Report::new(&decls(), None).set("walls", 1.0);
    }
}
