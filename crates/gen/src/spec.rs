//! The declarative scenario spec: per-knob value grids plus a seed,
//! parsed from a tiny TOML subset or from JSON, expanded to the cartesian
//! product of scenarios in a fixed knob order.

use crate::{KnobPoint, Scenario};
use preexec_json::Json;

/// A knob-grid spec. Every knob holds the list of values its axis takes;
/// [`GenSpec::scenarios`] expands the cartesian product (slice_len
/// outermost → footprint innermost, matching field order) with one shared
/// seed, so `(spec, seed)` fully determines the scenario list *and* every
/// program in it.
#[derive(Clone, Debug, PartialEq)]
pub struct GenSpec {
    /// Data-layout seed shared by every scenario in the grid.
    pub seed: u64,
    /// Grid for [`KnobPoint::slice_len`].
    pub slice_len: Vec<u32>,
    /// Grid for [`KnobPoint::induction_depth`].
    pub induction_depth: Vec<u32>,
    /// Grid for [`KnobPoint::branch_divergence`].
    pub branch_divergence: Vec<f64>,
    /// Grid for [`KnobPoint::miss_rate`].
    pub miss_rate: Vec<f64>,
    /// Grid for [`KnobPoint::miss_clustering`].
    pub miss_clustering: Vec<f64>,
    /// Grid for [`KnobPoint::footprint`].
    pub footprint: Vec<u64>,
}

impl Default for GenSpec {
    /// A single-scenario spec at the default knob point, seed 1.
    fn default() -> GenSpec {
        let k = KnobPoint::default();
        GenSpec {
            seed: 1,
            slice_len: vec![k.slice_len],
            induction_depth: vec![k.induction_depth],
            branch_divergence: vec![k.branch_divergence],
            miss_rate: vec![k.miss_rate],
            miss_clustering: vec![k.miss_clustering],
            footprint: vec![k.footprint],
        }
    }
}

/// The recognized spec keys, in canonical (expansion) order.
pub const SPEC_KEYS: [&str; 7] = [
    "seed",
    "slice_len",
    "induction_depth",
    "branch_divergence",
    "miss_rate",
    "miss_clustering",
    "footprint",
];

impl GenSpec {
    /// Number of scenarios the grid expands to.
    pub fn len(&self) -> usize {
        self.slice_len.len()
            * self.induction_depth.len()
            * self.branch_divergence.len()
            * self.miss_rate.len()
            * self.miss_clustering.len()
            * self.footprint.len()
    }

    /// `true` when any axis is empty (the grid expands to nothing).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the grid to its scenario list, validating every point.
    /// The order is the deterministic cartesian order (slice_len
    /// outermost, footprint innermost).
    pub fn scenarios(&self) -> Result<Vec<Scenario>, String> {
        if self.is_empty() {
            return Err("empty knob grid: every axis needs at least one value".to_string());
        }
        let mut out = Vec::with_capacity(self.len());
        for &sl in &self.slice_len {
            for &id in &self.induction_depth {
                for &bd in &self.branch_divergence {
                    for &mr in &self.miss_rate {
                        for &mc in &self.miss_clustering {
                            for &fp in &self.footprint {
                                let s = Scenario {
                                    knobs: KnobPoint {
                                        slice_len: sl,
                                        induction_depth: id,
                                        branch_divergence: bd,
                                        miss_rate: mr,
                                        miss_clustering: mc,
                                        footprint: fp,
                                    },
                                    seed: self.seed,
                                };
                                s.validate().map_err(|e| format!("{}: {e}", s.name()))?;
                                out.push(s);
                            }
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// The spec as JSON (fields in [`SPEC_KEYS`] order). This is the
    /// canonical form: content-addressing of atlas results hashes its
    /// compact rendering ([`GenSpec::canonical`]).
    pub fn to_json(&self) -> Json {
        fn arr<T: Copy + preexec_json::ToJson>(v: &[T]) -> Json {
            Json::Array(v.iter().map(|x| x.to_json()).collect())
        }
        Json::object()
            .with("seed", self.seed)
            .with("slice_len", arr(&self.slice_len))
            .with("induction_depth", arr(&self.induction_depth))
            .with("branch_divergence", arr(&self.branch_divergence))
            .with("miss_rate", arr(&self.miss_rate))
            .with("miss_clustering", arr(&self.miss_clustering))
            .with("footprint", arr(&self.footprint))
    }

    /// Compact canonical rendering of [`GenSpec::to_json`].
    pub fn canonical(&self) -> String {
        self.to_json().to_string()
    }

    /// Strict JSON parse: unknown fields are errors, every present knob
    /// may be a scalar or an array, absent knobs keep their defaults.
    pub fn from_json(v: &Json) -> Result<GenSpec, String> {
        let fields = match v {
            Json::Object(fields) => fields,
            _ => return Err("gen spec must be a JSON object".to_string()),
        };
        for (k, _) in fields {
            if !SPEC_KEYS.contains(&k.as_str()) {
                return Err(format!("unknown gen spec field `{k}`"));
            }
        }
        let mut spec = GenSpec::default();
        if let Some(seed) = v.get("seed") {
            spec.seed = seed
                .as_u64()
                .ok_or_else(|| "seed must be an unsigned integer".to_string())?;
        }
        fn scalar_or_array(v: &Json) -> Vec<&Json> {
            match v {
                Json::Array(items) => items.iter().collect(),
                other => vec![other],
            }
        }
        fn u64s(key: &str, v: &Json) -> Result<Vec<u64>, String> {
            scalar_or_array(v)
                .into_iter()
                .map(|x| {
                    x.as_u64()
                        .ok_or_else(|| format!("{key} values must be unsigned integers"))
                })
                .collect()
        }
        // The one narrowing of outside integers onto the `u32` knobs: a
        // value past `u32::MAX` is an error naming the knob, not a wrap.
        fn u32s(key: &str, v: &Json) -> Result<Vec<u32>, String> {
            u64s(key, v)?
                .into_iter()
                .map(|n| {
                    u32::try_from(n)
                        .map_err(|_| format!("{key} value {n} is too large (max {})", u32::MAX))
                })
                .collect()
        }
        fn f64s(key: &str, v: &Json) -> Result<Vec<f64>, String> {
            scalar_or_array(v)
                .into_iter()
                .map(|x| {
                    x.as_f64()
                        .ok_or_else(|| format!("{key} values must be numbers"))
                })
                .collect()
        }
        if let Some(x) = v.get("slice_len") {
            spec.slice_len = u32s("slice_len", x)?;
        }
        if let Some(x) = v.get("induction_depth") {
            spec.induction_depth = u32s("induction_depth", x)?;
        }
        if let Some(x) = v.get("branch_divergence") {
            spec.branch_divergence = f64s("branch_divergence", x)?;
        }
        if let Some(x) = v.get("miss_rate") {
            spec.miss_rate = f64s("miss_rate", x)?;
        }
        if let Some(x) = v.get("miss_clustering") {
            spec.miss_clustering = f64s("miss_clustering", x)?;
        }
        if let Some(x) = v.get("footprint") {
            spec.footprint = u64s("footprint", x)?;
        }
        Ok(spec)
    }

    /// Parses the TOML-subset spec format: `key = value` lines where
    /// `value` is a number or `[v1, v2, ...]`; `#` comments and
    /// `[section]` headers (cosmetic grouping) are ignored. Keys are the
    /// JSON field names ([`SPEC_KEYS`]).
    pub fn from_toml(text: &str) -> Result<GenSpec, String> {
        let mut spec = GenSpec::default();
        spec.apply_toml(text)?;
        Ok(spec)
    }

    /// Applies TOML-subset lines on top of the current spec (the CLI's
    /// `--spec FILE` then `--seed`/`--set` layering).
    pub fn apply_toml(&mut self, text: &str) -> Result<(), String> {
        let spec = self;
        for (lineno, raw) in text.lines().enumerate() {
            let line = match raw.find('#') {
                Some(i) => &raw[..i],
                None => raw,
            }
            .trim();
            if line.is_empty() || (line.starts_with('[') && line.ends_with(']')) {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected `key = value`", lineno + 1))?;
            let (key, value) = (key.trim(), value.trim());
            if !SPEC_KEYS.contains(&key) {
                return Err(format!("line {}: unknown gen spec key `{key}`", lineno + 1));
            }
            let values: Vec<&str> = if value.starts_with('[') && value.ends_with(']') {
                value[1..value.len() - 1]
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .collect()
            } else {
                vec![value]
            };
            let err = |what: &str| format!("line {}: {key} values must be {what}", lineno + 1);
            match key {
                "seed" => {
                    spec.seed = values
                        .first()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| err("one unsigned integer"))?;
                }
                "slice_len" | "induction_depth" => {
                    let parsed: Option<Vec<u32>> = values.iter().map(|s| s.parse().ok()).collect();
                    let parsed = parsed.ok_or_else(|| err("unsigned integers"))?;
                    if key == "slice_len" {
                        spec.slice_len = parsed;
                    } else {
                        spec.induction_depth = parsed;
                    }
                }
                "footprint" => {
                    let parsed: Option<Vec<u64>> = values.iter().map(|s| s.parse().ok()).collect();
                    spec.footprint = parsed.ok_or_else(|| err("unsigned integers"))?;
                }
                _ => {
                    let parsed: Option<Vec<f64>> = values.iter().map(|s| s.parse().ok()).collect();
                    let parsed = parsed.ok_or_else(|| err("numbers"))?;
                    match key {
                        "branch_divergence" => spec.branch_divergence = parsed,
                        "miss_rate" => spec.miss_rate = parsed,
                        _ => spec.miss_clustering = parsed,
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_one_scenario() {
        let spec = GenSpec::default();
        let scenarios = spec.scenarios().unwrap();
        assert_eq!(scenarios.len(), 1);
        assert_eq!(
            scenarios[0].name(),
            "gen:sl4_id1_bd0_mr0.25_mc0_fp131072_s1"
        );
    }

    #[test]
    fn toml_and_json_parse_to_the_same_spec() {
        let toml = "\
# a 2x2 grid
[gen]
seed = 9
[grid]
miss_rate = [0, 0.5]
slice_len = [2, 8]
footprint = 65536
";
        let from_toml = GenSpec::from_toml(toml).unwrap();
        let json = preexec_json::parse(
            r#"{"seed":9,"miss_rate":[0,0.5],"slice_len":[2,8],"footprint":65536}"#,
        )
        .unwrap();
        let from_json = GenSpec::from_json(&json).unwrap();
        assert_eq!(from_toml, from_json);
        assert_eq!(from_toml.len(), 4);
        // Expansion order is deterministic: slice_len outermost.
        let names: Vec<String> = from_toml
            .scenarios()
            .unwrap()
            .iter()
            .map(|s| s.name())
            .collect();
        assert_eq!(
            names,
            [
                "gen:sl2_id1_bd0_mr0_mc0_fp65536_s9",
                "gen:sl2_id1_bd0_mr0.5_mc0_fp65536_s9",
                "gen:sl8_id1_bd0_mr0_mc0_fp65536_s9",
                "gen:sl8_id1_bd0_mr0.5_mc0_fp65536_s9",
            ]
        );
    }

    #[test]
    fn unknown_keys_are_rejected_in_both_formats() {
        assert!(GenSpec::from_toml("mis_rate = 0.5").is_err());
        let json = preexec_json::parse(r#"{"mis_rate":0.5}"#).unwrap();
        assert!(GenSpec::from_json(&json).is_err());
    }

    #[test]
    fn integer_knobs_past_u32_are_errors_naming_the_knob() {
        for knob in ["slice_len", "induction_depth"] {
            let json = preexec_json::parse(&format!(r#"{{"{knob}":4294967300}}"#)).unwrap();
            let err = GenSpec::from_json(&json).unwrap_err();
            assert!(err.contains(knob), "{err}");
        }
    }

    #[test]
    fn canonical_rendering_is_stable() {
        let spec = GenSpec::default();
        assert_eq!(
            spec.canonical(),
            r#"{"seed":1,"slice_len":[4],"induction_depth":[1],"branch_divergence":[0.0],"miss_rate":[0.25],"miss_clustering":[0.0],"footprint":[131072]}"#
        );
        assert_eq!(GenSpec::from_json(&spec.to_json()).unwrap(), spec);
    }

    #[test]
    fn empty_axis_is_an_error() {
        let mut spec = GenSpec::default();
        spec.miss_rate.clear();
        assert!(spec.scenarios().is_err());
    }
}
