//! Benchmark self-test at a tiny fault count (`--tiny`): every workload
//! `BENCHMARK.json` declares, and `cpu_permanent`, runs end to end,
//! untraced and traced, and prints every declared metric with its declared
//! unit; and a wrong pinned digest is reported as a failure, not as a pass.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use marvel_serve::json::{parse, Json};
use std::path::{Path, PathBuf};
use std::process::Command;

struct Run {
    code: i32,
    /// The final result object.
    result: Json,
    /// The `{"cell": ...}` pin lines printed before it.
    pins: Vec<Json>,
}

fn perfbench(workload: &str, trace: u8, expect: Option<&Path>) -> Run {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.current_dir(env!("CARGO_TARGET_TMPDIR")).args([
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        &trace.to_string(),
        "--tiny",
    ]);
    if let Some(path) = expect {
        cmd.arg("--expect").arg(path);
    }
    let out = cmd.output().expect("perfbench runs");
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let lines: Vec<Json> =
        stdout.lines().map(|l| parse(l).expect("every stdout line is JSON")).collect();
    let (result, pins) = lines.split_last().expect("perfbench printed a result line");
    Run { code: out.status.code().unwrap_or(-1), result: result.clone(), pins: pins.to_vec() }
}

fn manifest() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses")
}

fn names(list: &Json) -> Vec<&str> {
    list.as_array()
        .expect("a list")
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).expect("a name"))
        .collect()
}

#[test]
fn every_workload_prints_every_declared_metric_with_its_unit() {
    let manifest = manifest();
    // `cpu_permanent` is no longer declared but the benchmark still runs it.
    let mut workloads = names(manifest.get("workloads").expect("workloads"));
    if !workloads.contains(&"cpu_permanent") {
        workloads.push("cpu_permanent");
    }
    for workload in workloads {
        for (trace, key) in [(0, "end_to_end"), (1, "per_layer")] {
            let run = perfbench(workload, trace, None);
            assert_eq!(run.code, 0, "{workload} --trace {trace} failed");
            assert_eq!(run.result.get("correct").and_then(Json::as_bool), Some(true));
            assert_eq!(run.result.get("failed").and_then(Json::as_u64), Some(0));
            assert!(run.result.get("attempted").and_then(Json::as_u64).is_some_and(|n| n > 0));
            let Some(Json::Object(printed)) = run.result.get("metrics") else {
                panic!("no metrics object")
            };
            let declared = manifest.get(key).and_then(Json::as_array).expect("metric list");
            assert_eq!(
                printed.len(),
                declared.len(),
                "{workload} --trace {trace} prints extra or missing metrics"
            );
            for m in declared {
                let name = m.get("name").and_then(Json::as_str).expect("metric name");
                let got = run.result.get("metrics").and_then(|ms| ms.get(name));
                let got =
                    got.unwrap_or_else(|| panic!("{workload} --trace {trace} does not print {name}"));
                assert_eq!(got.get("unit"), m.get("unit"), "{name} unit");
                assert!(matches!(got.get("value"), Some(Json::Int(_) | Json::Float(_))), "{name} value");
            }
        }
    }
}

#[test]
fn wrong_pinned_digest_fails_the_run() {
    let honest = perfbench("cpu_transient", 0, None);
    assert_eq!(honest.code, 0);
    let cell = honest.pins.first().expect("the timed cell's pin line");
    let key = cell.get("cell").and_then(Json::as_str).expect("cell key");
    let count = |k: &str| cell.get(k).and_then(Json::as_u64).expect("pin count");
    let wrong: PathBuf = Path::new(env!("CARGO_TARGET_TMPDIR")).join("wrong-expected.json");
    std::fs::write(
        &wrong,
        format!(
            r#"{{"schema_version":1,"cells":{{"{key}":{{"runs":{},"sdc":{},"crash":{},"digest":"0123456789abcdef"}}}}}}"#,
            count("runs"),
            count("sdc"),
            count("crash")
        ),
    )
    .expect("write the wrong expectations");
    let run = perfbench("cpu_transient", 0, Some(&wrong));
    assert_eq!(run.code, 1, "a digest mismatch must fail the run");
    assert_eq!(run.result.get("correct").and_then(Json::as_bool), Some(false));
    assert!(run.result.get("failed").and_then(Json::as_u64).is_some_and(|n| n >= count("runs")));
}
