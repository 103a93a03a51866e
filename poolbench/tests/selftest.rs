//! Self-test of the benchmark: every workload runs at small scale, untraced
//! and traced, and reports every metric `BENCHMARK.json` names as a finite
//! number; planted errors in the outputs are caught.
//!
//! ```sh
//! cargo test --release --manifest-path poolbench/Cargo.toml
//! ```

use std::time::Duration;

use poolbench::measure::Ledger;
use poolbench::workloads::{self, Scale, Workload};
use poolbench::{run, to_json, Config, END_TO_END, PER_LAYER};

/// The `"name"` values of one top-level array of `BENCHMARK.json`.
fn names_in(section: &str) -> Vec<String> {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let start = spec.find(&format!("\"{section}\"")).expect("section present");
    let body = &spec[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("quoted")].to_string())
        .collect()
}

#[test]
fn benchmark_json_names_what_the_benchmark_reports() {
    let listed = |t: &[(&str, &str)]| t.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
    assert_eq!(names_in("end_to_end"), listed(END_TO_END));
    assert_eq!(names_in("per_layer"), listed(PER_LAYER));
    let workloads: Vec<_> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names_in("workloads"), workloads);
}

#[test]
fn every_workload_reports_every_metric() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let cfg = Config {
                workload,
                seed: 7,
                measure: Duration::from_millis(50),
                trace,
                scale: Scale::SMALL,
            };
            let report = run(&cfg);
            let name = workload.name();
            assert!(report.correct, "{name} trace={trace}: {:?}", report.violations);
            assert!(report.attempted > 0, "{name}");
            assert_eq!(report.failed, 0, "{name}");
            let table = if trace { PER_LAYER } else { END_TO_END };
            assert_eq!(report.metrics.len(), table.len(), "{name} trace={trace}");
            for (metric, _) in table {
                let v = report.metrics[metric];
                assert!(v.is_finite(), "{name} {metric} = {v}");
            }
            if !trace {
                for (metric, _) in END_TO_END {
                    assert!(report.metrics[metric] > 0.0, "{name} {metric} reads 0");
                }
            }
            let json = to_json(&report);
            assert!(json.starts_with("{\"correct\": true, \"attempted\": "), "{json}");
            assert_eq!(json.matches("\"unit\"").count(), table.len(), "{json}");
        }
    }
}

#[test]
fn planted_checksum_errors_are_caught() {
    let clean = workloads::mix40(Scale::SMALL, 3, false);
    assert!(clean.violations.is_empty(), "{:?}", clean.violations);
    assert_eq!(clean.added, clean.removed);

    // An element that was never added shows up among the removed ones.
    let mut extra = workloads::mix40(Scale::SMALL, 3, false);
    extra.removed.record(0xDEAD_BEEF);
    extra.check_conservation();
    assert!(!extra.violations.is_empty(), "extra element not caught");

    // One id swapped for another: same count, different multiset.
    let mut swapped = workloads::magazine(Scale::SMALL, 3, false);
    assert!(swapped.violations.is_empty(), "{:?}", swapped.violations);
    let mut ids = Ledger::default();
    ids.record(1);
    let mut other = Ledger::default();
    other.record(2);
    swapped.removed.merge(&ids);
    swapped.added.merge(&other);
    swapped.check_conservation();
    assert!(!swapped.violations.is_empty(), "swapped id not caught");
}

#[test]
fn a_wrong_game_tree_answer_is_caught() {
    let reference = ttt::minimax(&ttt::Board::new(), workloads::TTT_DEPTH);
    let good = workloads::ttt(5, &reference);
    assert!(good.violations.is_empty(), "{:?}", good.violations);
    let wrong = ttt::SearchResult { score: reference.score + 1, ..reference };
    assert!(!workloads::ttt(5, &wrong).violations.is_empty());
}
