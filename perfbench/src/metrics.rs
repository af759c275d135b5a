//! The metric catalogue: every name the benchmark reports, with its
//! unit. `BENCHMARK.json` at the repository root lists exactly these
//! names (a unit test holds the two together).

use preexec_json::Json;

/// End-to-end metrics, reported by every untraced run:
/// `(name, unit, better)`.
pub const END_TO_END: [(&str, &str, &str); 5] = [
    ("ops_per_s", "ops/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// Per-layer metrics, reported by every traced run: `(name, unit)`.
/// A layer a workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 43] = [
    // Front end: trace, slicer, critpath.
    ("stage.workload_build.ms", "ms"),
    ("stage.trace.ms", "ms"),
    ("stage.profile.ms", "ms"),
    ("stage.slice.ms", "ms"),
    ("stage.critpath.ms", "ms"),
    ("trace.insts", "count"),
    ("trace.ns_per_inst", "ns"),
    ("slice.nodes", "count"),
    // Simulator: sim, mem, bpred, energy.
    ("stage.baseline_sim.ms", "ms"),
    ("stage.opt_sim.ms", "ms"),
    ("sim.runs", "count"),
    ("sim.cycles", "count"),
    ("sim.ns_per_cycle", "ns"),
    ("sim.ff_skip_ratio", "ratio"),
    ("sim.ns_per_executed_cycle", "ns"),
    // Selection: core.
    ("stage.select.ms", "ms"),
    ("select.calls", "count"),
    ("select.us_per_call", "us"),
    // Memo and store: the engine's caches and the persistent store.
    ("memo.core_hit_ratio", "ratio"),
    ("memo.sim_hit_ratio", "ratio"),
    ("memo.aux_hit_ratio", "ratio"),
    ("store.hit_ratio", "ratio"),
    ("store.load_us", "us"),
    ("store.bytes", "bytes"),
    ("stage.other.ms", "ms"),
    // Admission: gen, analysis, oracle.
    ("gen.build_us", "us"),
    ("gen.admit_us", "us"),
    // Controller: controller and the adapt harness.
    ("adapt.interval_sim.ms", "ms"),
    ("adapt.other.ms", "ms"),
    // Server: the serving kit and the engine service.
    ("server.lru_hit_ratio", "ratio"),
    ("server.singleflight_joins", "count"),
    ("server.rejected_429", "count"),
    ("serve.repeat.p50_ms", "ms"),
    ("serve.repeat.share", "ratio"),
    ("serve.select.p50_ms", "ms"),
    ("serve.select.share", "ratio"),
    ("serve.sim.p50_ms", "ms"),
    ("serve.sim.share", "ratio"),
    ("serve.cold.p50_ms", "ms"),
    ("serve.cold.share", "ratio"),
    // Host.
    ("host.cpu_util", "ratio"),
    ("host.slowdown", "ratio"),
    // Tracing.
    ("trace_overhead.pct", "%"),
];

/// `a / b`, or 0 when `b` is 0 (a layer the workload never reached).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// One run's metric values: a fixed catalogue, every entry present.
#[derive(Clone, Debug)]
pub struct Values {
    entries: Vec<(&'static str, &'static str, f64)>,
}

impl Values {
    /// The end-to-end catalogue, all zero.
    pub fn end_to_end() -> Values {
        Values {
            entries: END_TO_END.iter().map(|&(n, u, _)| (n, u, 0.0)).collect(),
        }
    }

    /// The per-layer catalogue, all zero.
    pub fn per_layer() -> Values {
        Values {
            entries: PER_LAYER.iter().map(|&(n, u)| (n, u, 0.0)).collect(),
        }
    }

    /// Sets `name`. Non-finite values read as 0.
    ///
    /// # Panics
    ///
    /// Panics on a name outside the catalogue: every reported name must
    /// be listed in `BENCHMARK.json`.
    pub fn set(&mut self, name: &str, value: f64) {
        let entry = self
            .entries
            .iter_mut()
            .find(|e| e.0 == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the catalogue"));
        entry.2 = if value.is_finite() { value } else { 0.0 };
    }

    /// `{"name": {"value": v, "unit": u}, ...}` in catalogue order.
    pub fn to_json(&self) -> Json {
        self.entries
            .iter()
            .fold(Json::object(), |acc, &(name, unit, value)| {
                acc.with(name, Json::object().with("value", value).with("unit", unit))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Json {
        preexec_json::parse(crate::compare::SPEC).expect("BENCHMARK.json parses")
    }

    fn listed(spec: &Json, key: &str) -> Vec<(String, String, Option<String>)> {
        spec.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key:?} list"))
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
                (s("name").unwrap(), s("unit").unwrap(), s("better"))
            })
            .collect()
    }

    fn emitted(values: &Values) -> Vec<(String, String)> {
        match values.to_json() {
            Json::Object(fields) => fields
                .iter()
                .map(|(k, v)| (k.clone(), v.get("unit").unwrap().as_str().unwrap().into()))
                .collect(),
            _ => unreachable!(),
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_emitted_end_to_end_metrics() {
        let spec = spec();
        let listed = listed(&spec, "end_to_end");
        let expected: Vec<(String, String, Option<String>)> = END_TO_END
            .iter()
            .map(|&(n, u, b)| (n.into(), u.into(), Some(b.into())))
            .collect();
        assert_eq!(listed, expected);
        let names: Vec<(String, String)> = listed
            .iter()
            .map(|(n, u, _)| (n.clone(), u.clone()))
            .collect();
        assert_eq!(emitted(&Values::end_to_end()), names);
    }

    #[test]
    fn benchmark_json_lists_exactly_the_emitted_per_layer_metrics() {
        let listed: Vec<(String, String)> = listed(&spec(), "per_layer")
            .into_iter()
            .map(|(n, u, _)| (n, u))
            .collect();
        assert_eq!(emitted(&Values::per_layer()), listed);
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let ok = |s: &str, extra: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c) || extra.contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        let all = END_TO_END
            .iter()
            .map(|&(n, u, _)| (n, u))
            .chain(PER_LAYER.iter().copied());
        for (name, unit) in all {
            assert!(ok(name, ""), "bad name {name:?}");
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(ok(unit, "/%") && unit.len() <= 16, "bad unit {unit:?}");
            assert!(seen.insert(name), "duplicate name {name:?}");
        }
        let spec = spec();
        let names: Vec<String> = spec
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        assert_eq!(names, crate::workloads::NAMES);
    }

    #[test]
    fn unknown_names_are_refused() {
        let mut v = Values::per_layer();
        v.set("sim.runs", 3.0);
        v.set("host.cpu_util", f64::NAN);
        let value = |name: &str| v.to_json().get(name)?.get("value")?.as_f64();
        assert_eq!(value("sim.runs"), Some(3.0));
        assert_eq!(value("host.cpu_util"), Some(0.0));
        let refused = std::panic::catch_unwind(move || v.set("sim.speed", 1.0));
        assert!(refused.is_err());
    }
}
