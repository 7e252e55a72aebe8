//! The metric catalogue and the result line.
//!
//! `BENCHMARK.json` declares the same names and units; a unit test keeps
//! the two in step. Every workload reports every end-to-end metric (the
//! same six, each defined per workload in `perfbench/NOTES.md`); a
//! per-layer metric of a layer the workload never calls reads 0.

use std::collections::BTreeMap;

use codec::json::Json;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("events_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
];

/// Set-ups (per scenario, on the sims) whose median is `setup_s`.
pub const SETUP_SAMPLES: usize = 15;

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("engine.drain_s", "s"),
    ("engine.gather_s", "s"),
    ("engine.execute_s", "s"),
    ("engine.commit_s", "s"),
    ("engine.par_events", "count"),
    ("engine.serial_events", "count"),
    ("engine.par_batches", "count"),
    ("engine.serial_batches", "count"),
    ("engine.par_share", "ratio"),
    ("engine.events_per_batch", "count"),
    ("radio.inquiries", "count"),
    ("radio.inquiry_responses", "count"),
    ("radio.service_queries", "count"),
    ("world.query_us", "us"),
    ("daemon.self_s", "s"),
    ("trace.recorded", "count"),
    ("trace.dropped", "count"),
    ("trace.mem_bytes", "B"),
    ("app.data_s", "s"),
    ("app.data_calls", "count"),
    ("app.neighbor_s", "s"),
    ("app.neighbor_calls", "count"),
    ("app.link_s", "s"),
    ("app.link_calls", "count"),
    ("app.timer_s", "s"),
    ("app.timer_calls", "count"),
    ("codec.frames", "count"),
    ("codec.bytes_per_frame", "B"),
    ("codec.decode_ns_per_frame", "ns"),
    ("gossip.eager", "count"),
    ("gossip.lazy", "count"),
    ("gossip.graft", "count"),
    ("gossip.prune", "count"),
    ("gossip.duplicate", "count"),
    ("gossip.lazy_per_delivery", "ratio"),
    ("gossip.dup_per_delivery", "ratio"),
    ("groups.convergence_ratio", "ratio"),
    ("link.connects_attempted", "count"),
    ("link.connects_ok", "count"),
    ("link.connects_failed", "count"),
    ("link.frames_sent", "count"),
    ("link.frames_delivered", "count"),
    ("link.frames_dropped", "count"),
    ("link.bytes_sent", "B"),
    ("link.bytes_per_delivery", "B"),
    ("recovery.retries", "count"),
    ("recovery.timeouts", "count"),
    ("recovery.gave_up", "count"),
    ("recovery.resumed", "count"),
    ("live.heavy_p50_ms", "ms"),
    ("live.heavy_p99_ms", "ms"),
    ("live.light.in_p50_us", "us"),
    ("live.light.in_p99_us", "us"),
    ("live.light.queue_p50_us", "us"),
    ("live.light.queue_p99_us", "us"),
    ("live.light.persist_p50_us", "us"),
    ("live.light.persist_p99_us", "us"),
    ("live.light.dispatch_p50_us", "us"),
    ("live.light.dispatch_p99_us", "us"),
    ("live.light.out_p50_us", "us"),
    ("live.light.out_p99_us", "us"),
    ("live.heavy.in_p50_us", "us"),
    ("live.heavy.in_p99_us", "us"),
    ("live.heavy.queue_p50_us", "us"),
    ("live.heavy.queue_p99_us", "us"),
    ("live.heavy.persist_p50_us", "us"),
    ("live.heavy.persist_p99_us", "us"),
    ("live.heavy.dispatch_p50_us", "us"),
    ("live.heavy.dispatch_p99_us", "us"),
    ("live.heavy.out_p50_us", "us"),
    ("live.heavy.out_p99_us", "us"),
    ("live.frames_in", "count"),
    ("live.frames_out", "count"),
    ("live.bytes_out_per_resp", "B"),
    ("live.shed", "count"),
    ("live.gen_late_ms", "ms"),
    ("journal.appends", "count"),
    ("journal.append_us", "us"),
    ("journal.checkpoint_ms", "ms"),
    ("tracing.overhead", "ratio"),
];

/// What one benchmark run found: counts, failed output checks, metric
/// values and context facts.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (requests, audience members, nodes).
    pub attempted: u64,
    /// Of those, operations that failed.
    pub failed: u64,
    /// Output checks that failed; empty means the run is correct.
    pub problems: Vec<String>,
    /// Metric values by catalogue name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Context recorded beside the metrics (digests, sample counts, …).
    pub facts: Vec<(String, Json)>,
}

impl Outcome {
    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    /// Sets a metric; the name must be in the catalogue.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "{name} is not in the metric catalogue"
        );
        self.metrics.insert(name, value);
    }

    /// Records a context fact.
    pub fn fact(&mut self, name: &str, value: impl Into<Json>) {
        self.facts.push((name.to_owned(), value.into()));
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The result line: end-to-end metrics untraced, per-layer traced. A
    /// missing end-to-end value is a benchmark bug and fails the run; a
    /// missing per-layer value is a layer this workload never calls.
    pub fn result_line(&mut self, traced: bool) -> String {
        if self.attempted == 0 {
            self.problems.push("the run attempted no operation".into());
        }
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let mut metrics = Json::obj();
        for &(name, unit) in catalogue {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => {
                    self.problems
                        .push(format!("metric {name} is not finite ({v})"));
                    0.0
                }
                None if traced => 0.0,
                None => {
                    self.problems
                        .push(format!("metric {name} was not measured"));
                    0.0
                }
            };
            metrics = metrics.field(name, Json::obj().field("value", value).field("unit", unit));
        }
        Json::obj()
            .field("correct", self.correct())
            .field("attempted", self.attempted.max(1))
            .field("failed", self.failed)
            .field("metrics", metrics)
            .to_string_compact()
    }
}

/// The process's high-water resident set (`VmHWM`), MB; `None` where
/// procfs is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    harness::crowd::peak_rss_bytes().map(|b| b as f64 / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogue and `BENCHMARK.json` must name the same metrics with
    /// the same units, each once.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let squeezed: String = json.split_whitespace().collect();
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(name), "{name} listed twice");
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(squeezed.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            squeezed.matches("\"unit\":").count(),
            seen.len(),
            "BENCHMARK.json declares metrics the catalogue does not"
        );
    }

    #[test]
    fn result_line_reports_the_catalogue_and_flags_gaps() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for &(name, _) in END_TO_END {
            o.set(name, 1.5);
        }
        let line = o.result_line(false);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":3,\"failed\":0,"));
        assert!(line.contains("\"p99_ms\":{\"value\":1.5,\"unit\":\"ms\"}"));

        let mut missing = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        missing.set("setup_s", 0.2);
        let line = missing.result_line(false);
        assert!(line.contains("\"correct\":false"));
        let mut traced = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        let traced = traced.result_line(true);
        assert!(traced.contains("\"correct\":true"));
        let idle = Outcome::default().result_line(true);
        assert!(idle.contains("\"correct\":false,\"attempted\":1"));
        assert!(traced.contains("\"gossip.eager\":{\"value\":0,\"unit\":\"count\"}"));
    }
}
