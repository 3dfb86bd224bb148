//! Every workload at tiny scale, untraced and traced: all correctness
//! checks pass, and exactly the metrics `BENCHMARK.json` names are
//! printed, each with its unit.

use pepc_perfbench::workload::Workload;
use pepc_perfbench::{run, Opts};

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark directory");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[body.find('[').expect("list opens")..body.find(']').expect("list closes")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("string ends");
        rest[open..close].to_string()
    };
    body.split('{').skip(1).map(|obj| (field(obj, "name"), field(obj, "unit"))).collect()
}

fn tiny(workload: Workload, trace: bool) -> Opts {
    let users = match workload {
        Workload::Data1m => 500,
        _ => 60,
    };
    Opts { workload, seed: 3, seconds: 0.4, trace, users, setups: 1 }
}

fn check(trace: bool, section: &str) {
    let want = listed(section);
    assert!(!want.is_empty());
    for w in Workload::ALL {
        let out = run(&tiny(w, trace)).unwrap_or_else(|e| panic!("{} failed a correctness check: {e}", w.name()));
        let got: Vec<(String, String)> = out.metrics.iter().map(|m| (m.name.clone(), m.unit.to_string())).collect();
        assert_eq!(got, want, "{} (trace={trace}) metrics", w.name());
        assert!(out.metrics.iter().all(|m| m.value.is_finite()), "{}: non-finite metric", w.name());
        assert!(
            out.attempted > 0 && out.failed == 0,
            "{}: {} attempted, {} failed",
            w.name(),
            out.attempted,
            out.failed
        );
        let json = out.json();
        assert!(json.starts_with("{\"correct\": true, \"attempted\": "), "{json}");
        for (name, unit) in &want {
            assert!(json.contains(&format!("\"{name}\": {{\"value\": ")), "{name} missing from {json}");
            assert!(json.contains(&format!("\"unit\": \"{unit}\"")), "{unit} missing from {json}");
            assert!(out.report.iter().any(|l| l.contains(name.as_str())), "{name} missing from the report");
        }
    }
}

#[test]
fn untraced_runs_print_every_end_to_end_metric() {
    check(false, "end_to_end");
}

#[test]
fn traced_runs_print_every_per_layer_metric_and_the_ledger() {
    check(true, "per_layer");
    let out = run(&tiny(Workload::Mixed10k, true)).expect("mixed traced run");
    assert!(out.report.iter().any(|l| l.starts_with("ledger:")));
    assert!(out.report.iter().any(|l| l.contains("unattributed")));
    assert!(out.report.iter().any(|l| l.contains("tracing overhead")));
}

#[test]
fn untraced_report_names_the_workload_metrics() {
    let expect: [(Workload, &[&str]); 3] = [
        (Workload::Data1m, &["data_mpps", "burst_lat_p50_us", "burst_lat_p99_us", "pkt_loss_ratio"]),
        (
            Workload::Sig10k,
            &[
                "proc_per_s",
                "attach_p50_us",
                "attach_p99_us",
                "handover_p99_us",
                "service_req_p99_us",
                "proc_fail_ratio",
            ],
        ),
        (
            Workload::Mixed10k,
            &["pkt_lat_p50_us", "pkt_lat_p99_us", "pkt_loss_ratio", "attach_ready_p99_us", "proc_fail_ratio"],
        ),
    ];
    for (w, names) in expect {
        let out = run(&tiny(w, false)).expect("tiny run");
        for name in names {
            let line = out.report.iter().find(|l| l.split_whitespace().next() == Some(name));
            let line = line.unwrap_or_else(|| panic!("{}: {name} not reported", w.name()));
            assert!(line.contains("n="), "{name} reported without a sample count: {line}");
        }
    }
}

#[test]
fn stale_demux_maps_follow_the_churn_past_the_population() {
    // No IMSI is attached twice, so every S1AP detach leaves one more
    // stale map, with no ceiling at the population size.
    let opts = tiny(Workload::Sig10k, true);
    let out = run(&opts).expect("signaling traced run");
    let stale = out.metrics.iter().find(|m| m.name == "demux.stale_maps").expect("stale maps reported");
    assert!(stale.value > opts.users as f64, "{} stale maps with {} users", stale.value, opts.users);
}
