//! Smoke test: at tiny sizes every workload emits every named metric
//! with its unit, in both modes, and passes the correctness gate.

use distctr_perfbench::{run, Params, Workload, END_TO_END, PER_LAYER};

#[test]
fn every_workload_emits_every_metric_and_passes_the_gate() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let out = run(w, &Params::tiny(7, trace)).expect("tiny run completes");
            assert!(out.correct(), "{}: {:?}", w.name(), out.violations);
            assert!(out.attempted > 0);
            assert_eq!(out.failed, 0, "{}", w.name());
            let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            let emitted: Vec<(&str, &str)> = out.metrics.iter().map(|&(n, _, u)| (n, u)).collect();
            assert_eq!(emitted, table, "{} trace={trace}", w.name());
            let json = out.to_json();
            for &(name, value, unit) in &out.metrics {
                assert!(value.is_finite(), "{name} = {value}");
                assert!(json.contains(&format!("\"{name}\": {{\"value\": ")), "{name} in {json}");
                assert!(json.contains(&format!("\"unit\": \"{unit}\"")));
                if !trace {
                    assert!(value > 0.0, "{}: end-to-end {name} must not be 0", w.name());
                }
            }
            let ok_frac = out.metrics.iter().find(|m| m.0 == "ok_frac").map(|m| m.1);
            assert!(trace || ok_frac == Some(1.0), "{}: ok_frac {ok_frac:?}", w.name());
        }
    }
}

#[test]
fn canonical_loads_are_exact() {
    let out = run(Workload::ServeHot, &Params::tiny(3, true)).expect("tiny run completes");
    let get = |name: &str| out.metrics.iter().find(|m| m.0 == name).map(|m| m.1);
    // k = 3, n = 81: the canonical sweep's message total and bottleneck
    // are protocol constants, independent of seed and timing.
    assert_eq!(get("sim.max_load"), Some(52.0));
    assert_eq!(get("sim.msgs_per_inc"), Some(694.0 / 81.0));
}

#[test]
fn benchmark_json_lists_every_workload_and_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    for w in Workload::ALL {
        assert!(spec.contains(&format!("\"name\": \"{}\"", w.name())), "{}", w.name());
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}
