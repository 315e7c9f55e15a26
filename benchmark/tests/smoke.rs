//! A scaled-down run of every workload, traced and untraced: every output
//! check passes, and the metric names that come out are exactly the names
//! `BENCHMARK.json` declares — in both directions, each with its unit.

use alfnet_bench::runner::{run, Args};
use alfnet_bench::spec::Spec;
use std::path::PathBuf;

/// `cargo test` runs in the package directory; the checkout root is above.
fn root() -> PathBuf {
    PathBuf::from("..")
}

fn smoke(workload: &str) {
    let spec = Spec::load(&root()).expect("BENCHMARK.json");
    for (trace, declared) in [(false, &spec.end_to_end), (true, &spec.per_layer)] {
        let out = run(&Args {
            workload: workload.to_string(),
            seed: 1990,
            seconds: 0.0, // one round
            trace,
            scale: 0.01,
            root: root(),
        })
        .expect("run");
        assert!(out.correct, "{workload} trace={trace}: {:?}", out.problems);
        assert_eq!(out.failed, 0);
        assert!(out.attempted >= 1);
        let declared: Vec<(&str, &str)> = declared
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str()))
            .collect();
        let mut emitted: Vec<(&str, &str)> = out
            .metrics
            .iter()
            .map(|(name, (_, unit))| (name.as_str(), unit.as_str()))
            .collect();
        let mut want = declared.clone();
        want.sort_unstable();
        emitted.sort_unstable();
        assert_eq!(emitted, want, "{workload} trace={trace}");
        for (name, (value, unit)) in &out.metrics {
            assert!(value.is_finite(), "{name} = {value}");
            assert!(!unit.is_empty(), "{name} has no unit");
        }
        assert!(out
            .json_line()
            .starts_with("{\"correct\": true, \"attempted\": "));
    }
}

#[test]
fn bulk_pair() {
    smoke("bulk_pair");
}

#[test]
fn rpc_pair() {
    smoke("rpc_pair");
}

#[test]
fn server_fanin() {
    smoke("server_fanin");
}

#[test]
fn lossy_pair() {
    smoke("lossy_pair");
}

#[test]
fn layered_bulk() {
    smoke("layered_bulk");
}

#[test]
fn every_declared_workload_exists_and_the_other_way_round() {
    let spec = Spec::load(&root()).expect("BENCHMARK.json");
    let have: Vec<&str> = alfnet_bench::workloads::WORKLOADS
        .iter()
        .map(|w| w.name)
        .collect();
    assert_eq!(spec.workloads, have);
}

#[test]
fn release_profile_matches_the_root_manifest() {
    alfnet_bench::spec::check_release_profiles(&root()).expect("profiles match");
}
