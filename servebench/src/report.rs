//! Metric names, units, and the result line.

use std::collections::HashMap;

use crate::trace::{MSGS, PHASES};

/// End-to-end metrics: printed on untraced runs.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("p50_us", "us"),
    ("max_rps", "1/s"),
    ("cpu_us_per_op", "us"),
    ("rss_mb", "MB"),
];

/// Fixed per-layer metrics: printed on traced runs, with the
/// per-message server and verifier rows of [`per_layer`].
const PER_LAYER_FIXED: [(&str, &str); 48] = [
    ("gen.offered_rps", "1/s"),
    ("gen.achieved_rps", "1/s"),
    ("gen.lateness_p50_us", "us"),
    ("gen.lateness_p99_us", "us"),
    ("gen.backlog_end", "count"),
    ("gen.connections", "count"),
    ("gen.threads", "count"),
    ("gen.loops", "count"),
    ("gen.nproc", "count"),
    ("gen.steal_frac", "frac"),
    ("client.p90_us", "us"),
    ("client.p99_us", "us"),
    ("client.p999_us", "us"),
    ("client.max_us", "us"),
    ("client.samples", "count"),
    ("client.fail_frac", "frac"),
    ("proto.encode_ns", "ns"),
    ("proto.decode_ns", "ns"),
    ("server.loop_busy_frac", "frac"),
    ("server.ready_batch_mean", "count"),
    ("server.loop_cpu_us_per_op", "us"),
    ("server.aux_cpu_us_per_op", "us"),
    ("server.shed", "count"),
    ("server.evicted", "count"),
    ("net.gap_us", "us"),
    ("verifier.auth_query_ns", "ns"),
    ("verifier.batch_item_ns", "ns"),
    ("detector.observe_ns", "ns"),
    ("registry.bytes_per_device", "B"),
    ("hash.hmac_verify_ns", "ns"),
    ("hash.helper_digest_ns", "ns"),
    ("store.log_enroll_ns", "ns"),
    ("verifier.enroll_durable_ns", "ns"),
    ("store.wal_bytes_per_enroll", "B"),
    ("telemetry.scrape_us", "us"),
    ("telemetry.scrape_bytes", "B"),
    ("setup.provision_ms", "ms"),
    ("setup.enroll_batch_s", "s"),
    ("setup.attack_capture_s", "s"),
    ("setup.server_spawn_ms", "ms"),
    ("attack.queries_per_trajectory", "count"),
    ("attack.flag_index", "count"),
    ("layer.gen_lateness_us", "us"),
    ("layer.client_mean_us", "us"),
    ("layer.sum_us", "us"),
    ("trace.reconcile_err_frac", "frac"),
    ("trace.overhead_p50_us", "us"),
    ("trace.overhead_cpu_us_per_op", "us"),
];

/// Unit of each server phase metric, in `PHASES` order.
const PHASE_METRICS: [(&str, &str, f64); 5] = [
    ("server.ready_wait_us", "us", 1e3),
    ("server.decode_ns", "ns", 1.0),
    ("server.handle_us", "us", 1e3),
    ("server.flush_ns", "ns", 1.0),
    ("server.flush_wait_us", "us", 1e3),
];

/// Name of the server-phase metric for `PHASES[phase]` and `msg`, and
/// the divisor from ns to its unit.
pub fn phase_metric(phase: usize, msg: &str) -> (String, f64) {
    let (name, _, div) = PHASE_METRICS[phase];
    (format!("{name}.{msg}"), div)
}

/// Every per-layer metric, in print order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> = PER_LAYER_FIXED
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    debug_assert_eq!(PHASES.len(), PHASE_METRICS.len());
    for msg in MSGS {
        for (name, unit, _) in PHASE_METRICS {
            all.push((format!("{name}.{msg}"), unit));
        }
        all.push((format!("verifier.handle_us.{msg}"), "us"));
    }
    all
}

/// Metric values gathered during a run, keyed by name.
#[derive(Debug, Default)]
pub struct Values(HashMap<String, f64>);

impl Values {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    /// The result line: every metric of `names`, in order. A metric the
    /// run could not measure reads 0.
    pub fn json(
        &self,
        names: &[(String, &'static str)],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> String {
        let metrics: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let v = self.0.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect()
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Host steal above which a block measures the neighbours rather than
/// the program.
pub const STEAL_LIMIT: f64 = 0.05;

/// The slower quartile of `(host steal, value)` blocks: the 75th
/// percentile of a lower-is-better value, the 25th of a
/// higher-is-better one.
///
/// Blocks with more than [`STEAL_LIMIT`] host steal are set aside
/// first; if that would leave fewer than half, the least-stolen half
/// is kept. The selection looks only at steal, never at the value.
///
/// Why the slower quartile and not the median: on the shared host the
/// same code runs up to a third faster for seconds to minutes at a
/// time, with no steal to show for it. How much of a run falls in such
/// a spell moves its median; the slower quartile is set by the host's
/// usual pace, which every run sees. Over 13 `auth-single` runs the
/// spread between runs of p50 was 2.6% this way against 7.1% for the
/// median of blocks, and of CPU per op 2.2% against 6.9%.
pub fn slow_quartile(blocks: &[(f64, f64)], higher_is_better: bool) -> f64 {
    let mut by_steal = blocks.to_vec();
    by_steal.sort_by(|a, b| a.0.total_cmp(&b.0));
    let quiet = by_steal.iter().filter(|b| b.0 <= STEAL_LIMIT).count();
    let kept: Vec<f64> = by_steal[..quiet.max(blocks.len().div_ceil(2))]
        .iter()
        .map(|&(_, v)| v)
        .collect();
    quantile(&kept, if higher_is_better { 0.25 } else { 0.75 })
}

/// Linearly interpolated quantile `q` in `[0, 1]` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let at = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}

pub fn mean(values: impl IntoIterator<Item = u64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0u128, 0u64), |(s, n), v| (s + u128::from(v), n + 1));
    if n == 0 {
        0.0
    } else {
        sum as f64 / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
    }

    /// The `{"name": ..., "unit": ...}` entries of one section of
    /// BENCHMARK.json, which keeps one metric per line.
    fn section(text: &str, key: &str) -> Vec<(String, String)> {
        let start = text.find(&format!("\"{key}\"")).expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.lines()
            .filter_map(|line| {
                let field = |f: &str| {
                    let at = line.find(&format!("\"{f}\": \""))? + f.len() + 5;
                    Some(line[at..at + line[at..].find('"')?].to_string())
                };
                Some((field("name")?, field("unit")?))
            })
            .collect()
    }

    #[test]
    fn every_printed_metric_is_declared_and_well_named() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        for (key, printed) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
            let declared = section(&text, key);
            let printed: Vec<(String, String)> = printed
                .into_iter()
                .map(|(n, u)| (n, u.to_string()))
                .collect();
            for (name, _) in &printed {
                assert!(valid(name), "{name} is not [A-Za-z0-9_.-]+");
            }
            assert_eq!(
                printed, declared,
                "{key} in BENCHMARK.json must match the printed metrics"
            );
        }
    }

    #[test]
    fn result_line_is_one_json_object_with_every_metric() {
        let mut values = Values::default();
        values.set("p50_us", 87.25);
        let line = values.json(&end_to_end(), true, 10, 0);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"));
        assert!(line.contains("\"p50_us\": {\"value\": 87.25, \"unit\": \"us\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0, \"unit\": \"s\"}"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn slow_quartile_sets_stolen_blocks_aside() {
        // The two blocks over the steal limit are the slow ones; the
        // kept values are 10, 11, 12, 13, 14.
        let blocks = [
            (0.01, 12.0),
            (0.20, 90.0),
            (0.00, 10.0),
            (0.15, 80.0),
            (0.02, 11.0),
            (0.00, 14.0),
            (0.03, 13.0),
        ];
        assert_eq!(slow_quartile(&blocks, false), 13.0);
        assert_eq!(slow_quartile(&blocks, true), 11.0);
        assert_eq!(slow_quartile(&[], false), 0.0);
    }

    #[test]
    fn slow_quartile_keeps_the_least_stolen_half_at_worst() {
        // Every block is over the limit: the three least stolen stay.
        let blocks = [
            (0.30, 50.0),
            (0.10, 20.0),
            (0.40, 90.0),
            (0.08, 10.0),
            (0.12, 30.0),
        ];
        assert_eq!(slow_quartile(&blocks, false), 25.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.75), 4.0);
        assert_eq!(quantile(&[4.0, 1.0], 0.25), 1.75);
    }
}
