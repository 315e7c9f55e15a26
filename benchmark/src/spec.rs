//! `BENCHMARK.json`, read back: the metric names, units, directions and
//! bounds live there and nowhere else, so what the runner prints and what
//! `compare` judges cannot drift from what the file declares.

use ct_telemetry::json::{self, JsonValue};
use std::path::Path;

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `"better": "higher"`.
    pub higher_is_better: bool,
    /// Share of the base's median the metric may worsen by (end-to-end only).
    pub bound: Option<f64>,
}

/// The declared benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics.
    pub per_layer: Vec<Metric>,
    /// Seconds one run measures.
    pub run_seconds: u64,
}

fn field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, String> {
    v.get(key)
        .ok_or_else(|| format!("BENCHMARK.json: missing \"{key}\""))
}

fn metrics(v: &JsonValue, key: &str) -> Result<Vec<Metric>, String> {
    field(v, key)?
        .as_arr()
        .ok_or_else(|| format!("BENCHMARK.json: \"{key}\" is not a list"))?
        .iter()
        .map(|m| {
            let text = |k: &str| {
                field(m, k)?
                    .as_str()
                    .map(str::to_string)
                    .ok_or_else(|| format!("BENCHMARK.json: \"{k}\" is not a string"))
            };
            Ok(Metric {
                name: text("name")?,
                unit: text("unit")?,
                higher_is_better: text("better")? == "higher",
                bound: m.get("bound").and_then(JsonValue::as_f64),
            })
        })
        .collect()
}

impl Spec {
    /// Parse the text of a `BENCHMARK.json`.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let v = json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let workloads = field(&v, "workloads")?
            .as_arr()
            .ok_or("BENCHMARK.json: \"workloads\" is not a list")?
            .iter()
            .map(|w| {
                field(w, "name")?
                    .as_str()
                    .map(str::to_string)
                    .ok_or_else(|| "BENCHMARK.json: workload name is not a string".to_string())
            })
            .collect::<Result<_, _>>()?;
        Ok(Spec {
            workloads,
            end_to_end: metrics(&v, "end_to_end")?,
            per_layer: metrics(&v, "per_layer")?,
            run_seconds: field(&v, "run_seconds")?
                .as_u64()
                .ok_or("BENCHMARK.json: \"run_seconds\" is not a whole number")?,
        })
    }

    /// Load `<root>/BENCHMARK.json`.
    pub fn load(root: &Path) -> Result<Spec, String> {
        let path = root.join("BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Spec::parse(&text)
    }
}

/// The `key = value` lines of a manifest's `[profile.release]` table,
/// whitespace removed and sorted.
fn release_profile(manifest: &str) -> Vec<String> {
    let mut lines: Vec<String> = manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.chars().filter(|c| !c.is_whitespace()).collect())
        .collect();
    lines.sort();
    lines
}

/// Refuse to run unless this package's release profile is the root
/// manifest's: profiles come from the benchmark's own workspace root, so
/// only this check makes the numbers those of the code tier-1 tests.
pub fn check_release_profiles(root: &Path) -> Result<(), String> {
    let read = |p: &str| {
        std::fs::read_to_string(root.join(p))
            .map_err(|e| format!("{}: {e}", root.join(p).display()))
    };
    let (ours, theirs) = (
        release_profile(&read("benchmark/Cargo.toml")?),
        release_profile(&read("Cargo.toml")?),
    );
    if ours == theirs {
        Ok(())
    } else {
        Err(format!(
            "release profiles differ: benchmark/Cargo.toml has {ours:?}, Cargo.toml has {theirs:?}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn release_profile_is_read_whatever_the_spacing() {
        let a = "[package]\nname='x'\n\n[profile.release]\n# why\ndebug = true\noverflow-checks=true\n\n[profile.bench]\ndebug = false\n";
        let b = "[profile.release]\noverflow-checks = true\ndebug   =   true\n";
        assert_eq!(
            release_profile(a),
            vec!["debug=true", "overflow-checks=true"]
        );
        assert_eq!(release_profile(a), release_profile(b));
        assert_ne!(
            release_profile(a),
            release_profile("[profile.release]\ndebug = true\n")
        );
        assert!(release_profile("[package]\n").is_empty());
    }

    #[test]
    fn spec_parses_names_bounds_and_directions() {
        let s = Spec::parse(
            r#"{"command": ["x"], "paths": ["p"], "run_seconds": 3,
                "workloads": [{"name": "w1", "why": "a"}, {"name": "w2", "why": "b"}],
                "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
                "per_layer": [{"name": "x.calls", "unit": "count", "better": "higher"}]}"#,
        )
        .unwrap();
        assert_eq!(s.workloads, ["w1", "w2"]);
        assert_eq!(s.run_seconds, 3);
        assert_eq!(s.end_to_end[0].bound, Some(0.25));
        assert!(!s.end_to_end[0].higher_is_better);
        assert!(s.per_layer[0].higher_is_better && s.per_layer[0].bound.is_none());
        assert!(Spec::parse("{}").is_err());
    }
}
