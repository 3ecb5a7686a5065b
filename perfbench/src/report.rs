//! The metric catalogue, the per-run record, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats;

/// End-to-end metrics: name and unit. Printed by untraced runs.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("ok_share", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: name and unit. Printed by traced runs; a layer the
/// workload does not exercise reads 0. The service's latencies and rates
/// come first: they are end-to-end numbers whose run-to-run spread on a
/// shared two-core host was wider than any allowed bound, so they are
/// reported here, unbounded, from the traced run's untraced server.
pub const PER_LAYER: [(&str, &str); 73] = [
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("max_rate_rps", "req/s"),
    ("saturated_rps", "req/s"),
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.sent", "count"),
    ("loadgen.succeeded", "count"),
    ("loadgen.failed", "count"),
    ("protocol.decode_json_us", "us"),
    ("protocol.decode_bin1_us", "us"),
    ("protocol.encode_us", "us"),
    ("protocol.req_bytes", "bytes"),
    ("poller.syscalls_per_req", "count"),
    ("poller.wakeups_per_req", "count"),
    ("cache.hit_share", "ratio"),
    ("cache.get_us", "us"),
    ("cache.insert_us", "us"),
    ("cache.evictions", "count"),
    ("persist.appends", "count"),
    ("persist.bytes", "bytes"),
    ("persist.compactions", "count"),
    ("persist.put_us", "us"),
    ("flight.shared_share", "ratio"),
    ("hints.hit_share", "ratio"),
    ("hints.lookup_us", "us"),
    ("stage.decode_p50_us", "us"),
    ("stage.decode_p99_us", "us"),
    ("stage.admission_p50_us", "us"),
    ("stage.admission_p99_us", "us"),
    ("stage.cache_p50_us", "us"),
    ("stage.cache_p99_us", "us"),
    ("stage.solve_p50_us", "us"),
    ("stage.solve_p99_us", "us"),
    ("stage.flush_p50_us", "us"),
    ("stage.flush_p99_us", "us"),
    ("stage.total_p50_us", "us"),
    ("stage.total_p99_us", "us"),
    ("engine.solve_ms_p50", "ms"),
    ("engine.solve_ms_p99", "ms"),
    ("ilp.nodes", "count"),
    ("ilp.propagations", "count"),
    ("ilp.conflicts", "count"),
    ("ilp.us_per_node", "us"),
    ("encode.ms", "ms"),
    ("encode.vars", "count"),
    ("encode.rows", "count"),
    ("search.probes", "count"),
    ("search.infeasible_s", "s"),
    ("search.probe_ms_max", "ms"),
    ("sigma.eval_ms", "ms"),
    ("rdf.parse_s", "s"),
    ("rdf.triples_per_s", "1/s"),
    ("rdf.matrix_s", "s"),
    ("rdf.view_ms", "ms"),
    ("trace.overhead_share", "ratio"),
    ("self.loadgen_ms", "ms"),
    ("self.server_ms", "ms"),
    ("self.protocol_ms", "ms"),
    ("self.poller_ms", "ms"),
    ("self.tenant_ms", "ms"),
    ("self.cache_ms", "ms"),
    ("self.persist_ms", "ms"),
    ("self.flight_ms", "ms"),
    ("self.hints_ms", "ms"),
    ("self.pool_ms", "ms"),
    ("self.trace_ms", "ms"),
    ("self.engine_ms", "ms"),
    ("self.ilp_ms", "ms"),
    ("self.encode_ms", "ms"),
    ("self.search_ms", "ms"),
    ("self.sigma_ms", "ms"),
    ("self.rdf_ms", "ms"),
    ("self.pipeline_ms", "ms"),
];

/// Checked operations: how many were attempted and which failed.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub messages: Vec<String>,
}

impl Tally {
    /// Counts one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 20 {
                self.messages.push(message());
            }
        }
    }

    /// Keeps a failure message without counting an operation.
    pub fn note_failure(&mut self, message: String) {
        if self.messages.len() < 20 {
            self.messages.push(message);
        }
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, message: String) {
        self.check(false, || message);
    }

    /// Counts one operation by its checked result.
    pub fn result(&mut self, result: Result<(), String>, context: &str) {
        match result {
            Ok(()) => self.check(true, String::new),
            Err(err) => self.fail(format!("{context}: {err}")),
        }
    }

    /// Adds another tally's counts.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.messages {
            if self.messages.len() < 20 {
                self.messages.push(m);
            }
        }
    }
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Report {
    pub setup_s: f64,
    pub tally: Tally,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Context and detail for the record file and standard error.
    pub notes: Vec<(String, String)>,
}

impl Report {
    /// Sets a metric by its catalogue name.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|(n, _)| *n == name),
            "{name} is not in the catalogue"
        );
        self.metrics.insert(name, value);
    }

    /// Records a context or detail line.
    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.notes.push((key.to_owned(), value.to_string()));
    }

    /// The pass-rate metrics from a sample of pass wall times (seconds):
    /// each pass is one operation of an analyst.
    pub fn pipeline(&mut self, passes: &[f64]) {
        let sorted = stats::sorted(passes);
        let median = stats::median(passes);
        let tail = stats::tail(&sorted);
        self.note("p99_ms.percentile", tail.percentile);
        self.note("p99_ms.samples", tail.count);
        self.set("p50_ms", median * 1e3);
        self.set("p99_ms", tail.value * 1e3);
        self.set("max_rate_rps", 1.0 / median);
        self.set(
            "saturated_rps",
            passes.len() as f64 / passes.iter().sum::<f64>(),
        );
    }

    /// The result line: the requested metric set, each with its unit.
    pub fn result_line(&self, traced: bool) -> String {
        let catalogue: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut out = String::new();
        let correct = self.tally.failed == 0 && self.tally.attempted > 0;
        let _ = write!(
            out,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.tally.attempted.max(1),
            self.tally.failed
        );
        for (idx, (name, unit)) in catalogue.iter().enumerate() {
            let value = match *name {
                "setup_s" => self.setup_s,
                _ => self.metrics.get(name).copied().unwrap_or(0.0),
            };
            let sep = if idx == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(value)
            );
        }
        out.push_str("}}");
        out
    }
}

/// A JSON number with all its digits; non-finite values read 0.
pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0".to_owned()
    }
}
