//! Result lines. Every run ends with one JSON object on the last line of
//! standard output — `correct`, `attempted`, `failed` and `metrics`, each
//! metric with its value as measured and its unit — which is also what a
//! parent run parses from its children.

use aomp_simcore::Json;
use std::collections::BTreeMap;

/// A metric's unit, from the suffix its name carries.
pub fn unit_of(name: &str) -> &'static str {
    const BY_SUFFIX: [(&str, &str); 13] = [
        ("_per_s", "1/s"),
        ("_ns", "ns"),
        ("_us", "us"),
        ("_ms", "ms"),
        ("_s", "s"),
        ("_mb", "MB"),
        ("gbps_computed", "GB/s"),
        ("ops_per_combine", "count"),
        ("_ratio", "ratio"),
        ("_share", "ratio"),
        ("_geomean", "ratio"),
        ("speedup_vs_seq", "ratio"),
        ("overhead_vs_mt", "ratio"),
    ];
    BY_SUFFIX
        .iter()
        .find(|(suffix, _)| name.ends_with(suffix))
        .map_or("raw", |&(_, unit)| unit)
}

/// One run's result: named values plus the operation tally.
#[derive(Debug, Default, Clone)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Names starting with `_` are raw values a parent run consumes and
    /// does not pass on.
    pub values: BTreeMap<String, f64>,
}

impl Report {
    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        *self
            .values
            .get(name)
            .unwrap_or_else(|| panic!("metric `{name}` was not measured"))
    }

    /// Correct means: every operation validated and every value is a
    /// finite number (a NaN would mean a metric without samples).
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.values.values().all(|v| v.is_finite())
    }

    /// The single-line JSON form.
    pub fn to_line(&self) -> String {
        let metrics: Vec<String> = self
            .values
            .iter()
            .map(|(name, v)| {
                let v = if v.is_finite() { *v } else { -1.0 };
                format!(
                    "\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    unit_of(name)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Parse a line written by [`Report::to_line`].
    pub fn from_line(line: &str) -> Result<Report, String> {
        let json = Json::parse(line)?;
        let mut report = Report {
            attempted: json.usize_field("attempted")? as u64,
            failed: json.usize_field("failed")? as u64,
            values: BTreeMap::new(),
        };
        match json.get("metrics") {
            Some(Json::Obj(fields)) => {
                for (name, metric) in fields {
                    report.put(name.clone(), metric.f64_field("value")?);
                }
                Ok(report)
            }
            _ => Err("result line has no `metrics` object".to_owned()),
        }
    }

    /// Print the named values (raw ones excluded) as an aligned table.
    pub fn print_table(&self, title: &str) {
        println!("-- {title} --");
        for (name, v) in self.values.iter().filter(|(n, _)| !n.starts_with('_')) {
            println!("{name:<44} {v:>16.6} {}", unit_of(name));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_come_from_the_name() {
        for (name, unit) in [
            ("solve_s", "s"),
            ("setup_s", "s"),
            ("peak_rss_mb", "MB"),
            ("check.explore_schedules_per_s", "1/s"),
            ("jgf.sor.gbps_computed", "GB/s"),
            ("attr.fine_grain.body_share", "ratio"),
            ("trace.serve_mix.overhead_ratio", "ratio"),
            ("weaver.deploy_undeploy_us", "us"),
            ("serve.class.degree.p50_ms", "ms"),
            ("nr.ops_per_combine", "count"),
            ("simcore.residual_geomean", "ratio"),
        ] {
            assert_eq!(unit_of(name), unit, "{name}");
        }
    }

    #[test]
    fn a_report_survives_its_own_line() {
        let mut r = Report {
            attempted: 12,
            failed: 0,
            ..Report::default()
        };
        r.put("solve_s", 1.234_567_890_123);
        r.put("_cnt.barrier_rounds", 4000.0);
        let back = Report::from_line(&r.to_line()).expect("parses");
        assert_eq!((back.attempted, back.failed), (12, 0));
        assert_eq!(back.values, r.values);
        assert!(r.to_line().starts_with("{\"correct\": true"));
    }

    #[test]
    fn a_failed_operation_or_a_nan_is_not_correct() {
        let mut r = Report {
            attempted: 3,
            failed: 1,
            ..Report::default()
        };
        r.put("solve_s", 1.0);
        assert!(!r.correct());
        r.failed = 0;
        assert!(r.correct());
        r.put("speedup_vs_seq", f64::NAN);
        assert!(!r.correct());
    }
}
