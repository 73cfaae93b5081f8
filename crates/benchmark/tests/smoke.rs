//! Guards the benchmark's contract from the workspace's own test run: a
//! smoke run must print exactly the workloads and metrics that
//! `BENCHMARK.json` declares, with the declared units, and validate
//! every output.

use aomp_simcore::Json;
use std::collections::BTreeMap;
use std::process::Command;

const ENV_THE_RUNTIME_CAPTURES: [&str; 8] = [
    "AOMP_NUM_THREADS",
    "AOMP_NO_POOL",
    "AOMP_METRICS",
    "AOMP_TRACE",
    "AOMP_SCHEDULE",
    "AOMP_TASK_WORKERS",
    "AOMP_NR_REPLICAS",
    "AOMP_SERVE_FAULTS",
];

/// The benchmark binary with a clean environment (CI legs set some of
/// the variables it refuses to run under) and trace files sent to the
/// test's scratch directory.
fn benchmark() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_aomp-benchmark"));
    for var in ENV_THE_RUNTIME_CAPTURES {
        cmd.env_remove(var);
    }
    cmd.env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"));
    cmd
}

fn declared() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `name -> unit` of one declared metric list, with the contract's limits
/// on names checked on the way.
fn declared_metrics(decl: &Json, list: &str, at_most: usize) -> BTreeMap<String, String> {
    let metrics = decl.get(list).and_then(Json::as_array).expect(list);
    assert!(
        (1..=at_most).contains(&metrics.len()),
        "{list}: {} metrics, limit {at_most}",
        metrics.len()
    );
    let map: BTreeMap<String, String> = metrics
        .iter()
        .map(|m| (m.str_field("name").unwrap(), m.str_field("unit").unwrap()))
        .collect();
    assert_eq!(map.len(), metrics.len(), "{list}: a name is used twice");
    for name in map.keys() {
        let legal = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        assert!(
            name.len() <= 64
                && name.chars().all(legal)
                && name.starts_with(|c: char| c.is_ascii_alphanumeric()),
            "illegal metric name `{name}`"
        );
    }
    map
}

/// `name -> unit` of one printed result line, which must be correct.
fn printed_metrics(line: &str) -> BTreeMap<String, String> {
    let json = Json::parse(line).expect("result line parses");
    assert!(
        line.starts_with("{\"correct\": true"),
        "a smoke run failed validation: {line}"
    );
    assert_eq!(json.usize_field("failed").unwrap(), 0);
    assert!(json.usize_field("attempted").unwrap() >= 1);
    match json.get("metrics") {
        Some(Json::Obj(fields)) => fields
            .iter()
            .map(|(name, m)| {
                assert!(m.f64_field("value").unwrap().is_finite(), "{name}");
                (name.clone(), m.str_field("unit").unwrap())
            })
            .collect(),
        _ => panic!("no metrics object in {line}"),
    }
}

#[test]
fn smoke_run_prints_exactly_the_declared_names() {
    let decl = declared();
    let workloads: Vec<String> = decl
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.str_field("name").unwrap())
        .collect();
    assert!((2..=8).contains(&workloads.len()));
    let end_to_end = declared_metrics(&decl, "end_to_end", 16);
    let per_layer = declared_metrics(&decl, "per_layer", 128);

    let out = benchmark()
        .args(["run", "--smoke", "--traced"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke run failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let ran: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("== "))
        .map(|l| l.split(':').next().unwrap())
        .collect();
    assert_eq!(ran, workloads, "workloads run vs declared");

    let lines: Vec<&str> = stdout.lines().filter(|l| l.starts_with('{')).collect();
    assert_eq!(
        lines.len(),
        workloads.len() + 1,
        "one line per workload, one per layer"
    );
    for (line, workload) in lines.iter().zip(&workloads) {
        assert_eq!(
            printed_metrics(line),
            end_to_end,
            "end-to-end set of {workload}"
        );
    }
    assert_eq!(printed_metrics(lines[workloads.len()]), per_layer);
}

#[test]
fn refuses_to_run_under_a_captured_variable() {
    let out = benchmark()
        .env("AOMP_NUM_THREADS", "3")
        .args(["run", "--smoke"])
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("AOMP_NUM_THREADS"));
}
