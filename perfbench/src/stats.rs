//! Small statistics and output helpers shared by the workloads.

use std::time::Instant;

use psml_trace::json::JsonValue;

/// Nearest-rank percentile of an unsorted sample; 0 for an empty one.
pub fn percentile(sample: &[f64], p: f64) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    let mut sorted = sample.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median; the mean of the two middle values for an even count.
pub fn median(sample: &[f64]) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    let mut sorted = sample.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(sample: &[f64]) -> f64 {
    if sample.is_empty() {
        0.0
    } else {
        sample.iter().sum::<f64>() / sample.len() as f64
    }
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Named metrics in insertion order, each with a unit; rendered as the
/// `{"name": {"value": v, "unit": u}}` object of the result line.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Adds one metric. Non-finite values are stored as 0 so the result
    /// line stays valid JSON.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.entries.push((name.to_string(), value, unit));
    }

    /// The metrics rearranged into `schema` order, with 0 for every
    /// metric of the schema that was not measured.
    ///
    /// # Panics
    /// If a metric outside the schema was recorded, or with another unit
    /// than the schema's: both are bugs in a workload.
    pub fn ordered(mut self, schema: &[(&str, &'static str)]) -> Metrics {
        for (name, _, unit) in &self.entries {
            assert!(
                schema.iter().any(|(n, u)| n == name && u == unit),
                "metric {name} [{unit}] is not in the schema"
            );
        }
        let mut out = Metrics::default();
        for &(name, unit) in schema {
            let pos = self.entries.iter().position(|(n, _, _)| n == name);
            let value = pos.map_or(0.0, |i| self.entries.swap_remove(i).1);
            out.put(name, value, unit);
        }
        out
    }

    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(
            self.entries
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        JsonValue::Object(vec![
                            ("value".into(), JsonValue::Float(*value)),
                            ("unit".into(), JsonValue::Str((*unit).into())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// Free-form run facts (digests, sample counts, environment) printed
/// beside the metrics.
#[derive(Default)]
pub struct Info {
    entries: Vec<(String, JsonValue)>,
    /// Workload-specific end-to-end statistics, printed by name with
    /// their unit, direction and sample count.
    stats: Vec<JsonValue>,
}

impl Info {
    pub fn stat(&mut self, name: &str, value: f64, unit: &str, better: &str, samples: u64) {
        self.stats.push(JsonValue::Object(vec![
            ("name".into(), JsonValue::Str(name.into())),
            (
                "value".into(),
                JsonValue::Float(if value.is_finite() { value } else { 0.0 }),
            ),
            ("unit".into(), JsonValue::Str(unit.into())),
            ("better".into(), JsonValue::Str(better.into())),
            ("samples".into(), JsonValue::UInt(samples)),
        ]));
    }

    pub fn put(&mut self, key: &str, value: JsonValue) {
        self.entries.push((key.to_string(), value));
    }

    pub fn num(&mut self, key: &str, value: f64) {
        self.put(
            key,
            JsonValue::Float(if value.is_finite() { value } else { 0.0 }),
        );
    }

    pub fn count(&mut self, key: &str, value: u64) {
        self.put(key, JsonValue::UInt(value));
    }

    pub fn text(&mut self, key: &str, value: impl Into<String>) {
        self.put(key, JsonValue::Str(value.into()));
    }

    pub fn into_json(mut self) -> JsonValue {
        self.entries
            .push(("stats".into(), JsonValue::Array(self.stats)));
        JsonValue::Object(self.entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 90.0), 90.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
