//! The metric tables: every name, unit, direction and regression bound the
//! benchmark prints, in one place. `BENCHMARK.json` at the repository root
//! is the rendering of these tables ([`benchmark_json`]); a test holds the
//! committed file to it.

use crate::workloads::Kind;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's declaration.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// How long one run measures (the `--seconds` the driver passes).
pub const RUN_SECONDS: u64 = 10;

/// End-to-end metrics: what a user of the server sees, measured by client
/// stopwatch with tracing off. Every workload reports every one of them.
///
/// The bounds come from calibration on the two-core sandbox (README,
/// "Baseline"): over ten seeds the timings' quartiles sit 2–10% of the
/// median apart on a quiet machine, so they carry the widest bound the
/// contract allows; the counts repeat to within 0–2.5% and carry tight ones.
pub const END_TO_END: &[Spec] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("read_p50_us", "us", Lower, 0.25),
    e2e("write_p50_us", "us", Lower, 0.25),
    e2e("change_p50_us", "us", Lower, 0.25),
    e2e("recover_s", "s", Lower, 0.25),
    e2e("disk_bytes_per_op", "bytes", Lower, 0.05),
    e2e("peak_rss_mib", "MiB", Lower, 0.25),
    e2e("adopted_qc_mean", "score", Higher, 0.08),
    e2e("survived_share", "share", Higher, 0.05),
];

/// Per-layer metrics: single-layer times from the traced differential
/// ladder and its leaf probes, counts from registry deltas over an
/// untraced round, and the tail latencies (too noisy on two cores to carry
/// a bound — kept as diagnostics).
pub const PER_LAYER: &[Spec] = &[
    layer("read_tail_us", "us", Lower),
    layer("write_tail_us", "us", Lower),
    layer("change_tail_us", "us", Lower),
    layer("server.wire_self_us", "us", Lower),
    layer("server.admission_self_us", "us", Lower),
    layer("server.codec_us", "us", Lower),
    layer("server.queue_wait_us", "us", Lower),
    layer("server.read_stall_us", "us", Lower),
    layer("server.response_bytes_per_read", "bytes", Lower),
    layer("server.errors", "count", Lower),
    layer("system.shell_parse_self_us", "us", Lower),
    layer("system.apply_update_us", "us", Lower),
    layer("system.apply_change_us", "us", Lower),
    layer("system.batch_partitions_per_batch", "count", Higher),
    layer("system.rewrite_cache_hit_ratio", "share", Higher),
    layer("system.partner_cache_hit_ratio", "share", Higher),
    layer("store.append_self_us", "us", Lower),
    layer("store.append_direct_us", "us", Lower),
    layer("store.fsyncs_per_op", "count", Lower),
    layer("store.records_per_fsync", "count", Higher),
    layer("store.fsync_mean_us", "us", Lower),
    layer("store.log_bytes_per_op", "bytes", Lower),
    layer("store.checkpoint_us", "us", Lower),
    layer("store.snapshot_bytes", "bytes", Lower),
    layer("store.recover_records_per_s", "1/s", Higher),
    layer("store.records_replayed", "count", Lower),
    layer("store.snapshot_load_us", "us", Lower),
    layer("sync.search_us", "us", Lower),
    layer("sync.candidates_per_change", "count", Lower),
    layer("sync.emitted_per_change", "count", Lower),
    layer("sync.pruned_per_change", "count", Higher),
    layer("sync.useful_ratio", "share", Higher),
    layer("core.rank_us", "us", Lower),
    layer("core.candidates_ranked_per_change", "count", Lower),
    layer("misd.apply_change_us", "us", Lower),
    layer("misd.index_rebuild_us", "us", Lower),
    layer("misd.clone_us", "us", Lower),
    layer("misd.index_hit_ratio", "share", Higher),
    layer("misd.relations", "count", Lower),
    layer("relational.plan_us", "us", Lower),
    layer("relational.exec_us", "us", Lower),
    layer("relational.rows_out_per_s", "1/s", Higher),
    layer("relational.rows_examined_per_row_out", "count", Lower),
    layer("relational.distinct_format_us", "us", Lower),
    layer("relational.index_hits", "count", Higher),
    layer("relational.index_builds", "count", Lower),
    layer("relational.morsels", "count", Higher),
    layer("relational.steals", "count", Lower),
    layer("relational.serial_fallbacks", "count", Lower),
    layer("relational.intern_hit_ratio", "share", Higher),
    layer("esql.parse_us", "us", Lower),
    layer("share.server", "share", Lower),
    layer("share.system", "share", Lower),
    layer("share.store", "share", Lower),
    layer("share.sync", "share", Lower),
    layer("share.core", "share", Lower),
    layer("share.misd", "share", Lower),
    layer("share.relational", "share", Lower),
    layer("share.esql", "share", Lower),
    layer("unattributed_share", "share", Lower),
    layer("trace.overhead_share", "share", Lower),
    layer("trace.dropped_events", "count", Lower),
];

/// Why each workload exists (the `why` of `BENCHMARK.json`).
#[must_use]
pub fn why(kind: Kind) -> &'static str {
    match kind {
        Kind::UpdateStream => {
            "one tenant per client, single-tuple updates: every write pays its own fsync and \
             maintainer pass, so store + system do the work and sync is idle"
        }
        Kind::ReadMostly => {
            "two clients on one tenant querying 0.5k-20k-row extents: codec, framing and \
             formatting dominate, store does little, writes contend for the tenant lock"
        }
        Kind::EvolveStorm => {
            "survival chains of capability changes over replicated families: sync + core + \
             misd do the work, relational and store little; rewriting quality is scored here"
        }
        Kind::Rematerialize => {
            "the same op kinds over large relations: recomputes, view definitions and update \
             batches make relational and the O(|R|) maintainer do the work, sync almost none"
        }
    }
}

fn spec_json(spec: &Spec) -> String {
    let mut out = format!(
        "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
        spec.name,
        spec.unit,
        spec.better.word()
    );
    if let Some(bound) = spec.bound {
        out.push_str(&format!(", \"bound\": {bound}"));
    }
    out.push('}');
    out
}

/// The contents of `BENCHMARK.json`.
#[must_use]
pub fn benchmark_json() -> String {
    let list = |specs: &[Spec]| {
        specs
            .iter()
            .map(|s| format!("    {}", spec_json(s)))
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let workloads = Kind::ALL
        .iter()
        .map(|k| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                k.name(),
                why(*k)
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{workloads}\n  ],\n  \
         \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        list(END_TO_END),
        list(PER_LAYER)
    )
}

/// A set of measured values, keyed by metric name in table order.
#[derive(Debug, Clone, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// An empty set.
    #[must_use]
    pub fn new() -> Values {
        Values::default()
    }

    /// Records `value` for `name` (replacing an earlier reading).
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// Takes over every reading of `other` (replacing earlier ones).
    pub fn absorb(&mut self, other: Values) {
        for (name, value) in other.0 {
            self.set(name, value);
        }
    }

    /// The reading for `name`, if any.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Reads the values of `specs` back out of a result line written by
    /// [`Values::json`] (a spec the line lacks stays unset).
    #[must_use]
    pub fn from_json(line: &str, specs: &[Spec]) -> Values {
        let mut values = Values::new();
        for spec in specs {
            let key = format!("\"{}\": {{\"value\": ", spec.name);
            let reading = line
                .split_once(&key)
                .and_then(|(_, rest)| rest.split_once(','))
                .and_then(|(number, _)| number.parse::<f64>().ok());
            if let Some(v) = reading {
                values.set(spec.name, v);
            }
        }
        values
    }

    /// The contract's `metrics` object for `specs`: every spec, in table
    /// order, with its unit.
    ///
    /// # Panics
    ///
    /// When a spec has no reading — every metric is defined on every
    /// workload, so a gap is a bug in the harness.
    #[must_use]
    pub fn json(&self, specs: &[Spec]) -> String {
        let fields: Vec<String> = specs
            .iter()
            .map(|s| {
                let v = self
                    .get(s.name)
                    .unwrap_or_else(|| panic!("metric `{}` was never measured", s.name));
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    s.name,
                    json_number(v),
                    s.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A finite JSON number with all the digits `f64` carries.
#[must_use]
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_committed_benchmark_json_is_the_rendering_of_these_tables() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `bash benchmark/run.sh --print-benchmark-json > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for spec in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(spec.name), "duplicate metric {}", spec.name);
            assert!(spec.name.len() <= 64 && spec.unit.len() <= 16);
            assert!(spec
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .all(|s| s.bound.is_some_and(|b| b <= 0.25)));
        assert!(END_TO_END
            .iter()
            .any(|s| s.name == "setup_s" && s.unit == "s"));
        for kind in Kind::ALL {
            assert!(why(kind).len() <= 200 && !why(kind).contains('\n'));
        }
        assert!(benchmark_json().len() < 64 * 1024);
    }

    #[test]
    fn values_survive_a_round_trip_through_the_result_line() {
        let specs = [layer("a.b", "us", Lower), layer("a", "count", Higher)];
        let mut v = Values::new();
        v.set("a.b", -1.5e-7);
        v.set("a", 12345.678);
        let back = Values::from_json(&v.json(&specs), &specs);
        assert_eq!(back.get("a.b"), Some(-1.5e-7));
        assert_eq!(back.get("a"), Some(12345.678));
        assert_eq!(Values::from_json("{}", &specs).get("a"), None);
    }

    #[test]
    fn values_render_in_table_order_with_units() {
        let mut v = Values::new();
        v.set("b", 2.5);
        v.set("a", 1.0);
        v.set("b", 3.25);
        let specs = [layer("a", "us", Lower), layer("b", "count", Higher)];
        assert_eq!(
            v.json(&specs),
            "{\"a\": {\"value\": 1, \"unit\": \"us\"}, \"b\": {\"value\": 3.25, \"unit\": \"count\"}}"
        );
    }
}
