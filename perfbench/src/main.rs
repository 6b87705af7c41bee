//! The repository's performance benchmark.
//!
//! ```text
//! perfbench --workload <postmark_nfs|history_reads|array_tcp> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench --selftest
//! ```
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics; a traced
//! run (`--trace 1`) prints the per-layer metrics, from spans recorded
//! by the benchmark's own wrappers around each layer's public surface.
//! Either way the last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! A run whose outputs fail a correctness check prints `correct: false`
//! with no metrics and exits with status 1.
//!
//! `--selftest` runs every workload at smoke size: each must emit every
//! named metric with its unit, each correctness check must catch a
//! planted wrong expectation, and the count metrics that repeat exactly
//! for one seed are listed.

mod array_tcp;
mod common;
mod history;
mod postmark;
mod trace;

use std::time::Duration;

use common::{Report, RunArgs};

/// The end-to-end metrics, in the order `BENCHMARK.json` lists them.
const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "ops/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("sim_ops_per_s", "ops/s"),
    ("setup_s", "s"),
    ("success_ratio", "ratio"),
    ("write_amp", "ratio"),
    ("space_amp", "ratio"),
    ("rss_peak_mb", "MiB"),
];

/// The per-layer metrics of the traced run.
const PER_LAYER: &[(&str, &str)] = &[
    ("fs.self_us_per_op", "us/op"),
    ("fs.rpcs_per_op", "rpc/op"),
    ("tcp.wire_us_p50", "us"),
    ("tcp.wire_us_p99", "us"),
    ("tcp.bytes_per_rpc", "B"),
    ("array.dispatch_us_p50", "us"),
    ("array.dispatch_us_p99", "us"),
    ("array.shard_skew", "ratio"),
    ("array.member_requests_per_op", "ratio"),
    ("array.busy_sim_s_max", "s"),
    ("txn.committed", "count"),
    ("txn.prepare_us_p99", "us"),
    ("txn.decide_us_p99", "us"),
    ("core.rpc_us_p50", "us"),
    ("core.rpc_us_p99", "us"),
    ("core.sync_us_p50", "us"),
    ("core.sync_us_p99", "us"),
    ("core.sync_share", "ratio"),
    ("core.syncs_per_op", "syncs/op"),
    ("core.sim_rpc_us_p99", "us"),
    ("core.audit_records_per_rpc", "ratio"),
    ("journal.sectors_per_sync", "sectors/sync"),
    ("journal.checkpoints", "count"),
    ("journal.sim_us_p99", "us"),
    ("journal.time_based_reads", "count"),
    ("lfs.cache_hit_ratio", "ratio"),
    ("lfs.read_useful_ratio", "ratio"),
    ("lfs.sim_us_p99", "us"),
    ("disk.reads", "count"),
    ("disk.writes", "count"),
    ("disk.bytes_read", "B"),
    ("disk.bytes_written", "B"),
    ("disk.mean_write_kb", "KiB"),
    ("disk.busy_sim_s", "s"),
    ("disk.host_us", "us/op"),
    ("self_us_per_op.fs", "us/op"),
    ("self_us_per_op.core", "us/op"),
    ("self_us_per_op.tcp", "us/op"),
    ("self_us_per_op.array", "us/op"),
    ("self_us_per_op.disk", "us/op"),
    ("self_us_per_op.client", "us/op"),
    ("trace.e2e_us_per_op", "us/op"),
    ("trace.layers_sum_us_per_op", "us/op"),
    ("trace.dropped_spans", "count"),
    ("trace.unattributed_disk_us_per_op", "us/op"),
    ("trace.ops_per_s", "ops/s"),
    ("trace.untraced_ops_per_s", "ops/s"),
    ("trace.overhead_ratio", "ratio"),
    ("error_rate", "ratio"),
    ("op_samples", "count"),
];

const WORKLOADS: &[&str] = &["postmark_nfs", "history_reads", "array_tcp"];

/// Per-layer metrics that are exact counts or simulated-time figures:
/// the self-test reports which of them repeat exactly for one seed.
const COUNT_METRICS: &[&str] = &[
    "fs.rpcs_per_op",
    "tcp.bytes_per_rpc",
    "array.shard_skew",
    "array.member_requests_per_op",
    "array.busy_sim_s_max",
    "txn.committed",
    "txn.prepare_us_p99",
    "txn.decide_us_p99",
    "core.syncs_per_op",
    "core.sim_rpc_us_p99",
    "core.audit_records_per_rpc",
    "journal.sectors_per_sync",
    "journal.checkpoints",
    "journal.sim_us_p99",
    "journal.time_based_reads",
    "lfs.cache_hit_ratio",
    "lfs.read_useful_ratio",
    "lfs.sim_us_p99",
    "disk.reads",
    "disk.writes",
    "disk.bytes_read",
    "disk.bytes_written",
    "disk.busy_sim_s",
    "op_samples",
];

/// Traced and untraced windows alternate this often in a traced run.
const TRACE_WINDOW: Duration = Duration::from_millis(250);
const SMOKE_TRACE_WINDOW: Duration = Duration::from_millis(20);

fn run_workload(name: &str, args: &RunArgs) -> Option<Report> {
    let window = if args.smoke {
        SMOKE_TRACE_WINDOW
    } else {
        TRACE_WINDOW
    };
    match name {
        "postmark_nfs" => Some(postmark::run(args, window)),
        "history_reads" => Some(history::run(args, window)),
        "array_tcp" => Some(array_tcp::run(args, window)),
        _ => None,
    }
}

/// Whether `r` carries exactly the expected metrics with their units.
fn metric_set_problems(r: &Report, trace: bool) -> Vec<String> {
    let expected = if trace { PER_LAYER } else { END_TO_END };
    let mut problems = Vec::new();
    for &(name, unit) in expected {
        let found: Vec<_> = r.metrics.iter().filter(|m| m.name == name).collect();
        match found.as_slice() {
            [m] if m.unit == unit && m.value.is_finite() => {}
            [m] => problems.push(format!("{name}: unit {} value {}", m.unit, m.value)),
            [] => problems.push(format!("{name}: missing")),
            _ => problems.push(format!("{name}: reported {} times", found.len())),
        }
    }
    for m in &r.metrics {
        if !expected.iter().any(|e| e.0 == m.name) {
            problems.push(format!("{}: not a listed metric", m.name));
        }
    }
    problems
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn result_line(r: &Report, correct: bool) -> String {
    let metrics: Vec<String> = if correct {
        r.metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    json_escape(m.name),
                    m.value,
                    json_escape(m.unit)
                )
            })
            .collect()
    } else {
        Vec::new()
    };
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.attempted.max(1),
        r.failed,
        metrics.join(", ")
    )
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --selftest",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> (Option<String>, RunArgs, bool) {
    let mut workload = None;
    let mut args = RunArgs {
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        max_ops: None,
        setup_reps: None,
        plant: false,
    };
    let mut selftest = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--selftest" => selftest = true,
            _ => usage(),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        usage();
    }
    (workload, args, selftest)
}

fn main() {
    let (workload, args, selftest) = parse_args();
    if selftest {
        std::process::exit(if selftest::run() { 0 } else { 1 });
    }
    let Some(name) = workload else { usage() };
    let Some(report) = run_workload(&name, &args) else {
        usage()
    };
    for note in &report.notes {
        println!("# {note}");
    }
    let failures: Vec<_> = report
        .checks
        .iter()
        .filter(|c| c.failure.is_some())
        .collect();
    for c in &report.checks {
        match &c.failure {
            None => println!("# check passed: {}", c.name),
            Some(f) => println!("# CHECK FAILED: {}: {f}", c.name),
        }
    }
    let problems = metric_set_problems(&report, args.trace);
    for p in &problems {
        println!("# METRIC PROBLEM: {p}");
    }
    let correct = failures.is_empty() && problems.is_empty() && report.attempted > 0;
    if correct {
        for m in &report.metrics {
            println!("# {:<36} {:>18.4} {}", m.name, m.value, m.unit);
        }
    }
    println!("{}", result_line(&report, correct));
    if !correct {
        std::process::exit(1);
    }
}

mod selftest {
    //! Smoke-size self-test of the benchmark itself.

    use super::*;

    /// Client operations per smoke run, so counts can repeat exactly.
    const SMOKE_OPS: u64 = 300;

    fn smoke(trace: bool, plant: bool) -> RunArgs {
        RunArgs {
            seed: 7,
            seconds: 120.0,
            trace,
            smoke: true,
            max_ops: Some(SMOKE_OPS),
            setup_reps: Some(1),
            plant,
        }
    }

    /// Data and trace checks carry a prefix and each has a planted
    /// fault; the rest (set-up, sample counts) have none.
    fn is_planted_check(name: &str) -> bool {
        ["postmark:", "history:", "array:", "trace:"]
            .iter()
            .any(|p| name.starts_with(p))
    }

    pub fn run() -> bool {
        let mut ok = true;
        let mut fail = |what: String| {
            println!("SELFTEST FAILED: {what}");
            ok = false;
        };
        // BENCHMARK.json lists exactly the metrics the runs report.
        match std::fs::read_to_string("BENCHMARK.json") {
            Ok(json) => {
                for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
                    let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                    if !json.contains(&entry) {
                        fail(format!("BENCHMARK.json lacks {entry}"));
                    }
                }
                let listed = json.matches("\"unit\":").count();
                if listed != END_TO_END.len() + PER_LAYER.len() {
                    fail(format!("BENCHMARK.json lists {listed} metrics"));
                }
            }
            Err(e) => fail(format!("cannot read BENCHMARK.json: {e}")),
        }
        for &w in WORKLOADS {
            println!("== {w}");
            for trace in [false, true] {
                let r = run_workload(w, &smoke(trace, false)).expect("known workload");
                let mode = if trace { "traced" } else { "untraced" };
                for c in &r.checks {
                    if let Some(f) = &c.failure {
                        fail(format!("{w} {mode}: check '{}' failed: {f}", c.name));
                    }
                }
                for p in metric_set_problems(&r, trace) {
                    fail(format!("{w} {mode}: {p}"));
                }
                println!(
                    "{mode}: {} metrics with units, {} checks passed",
                    r.metrics.len(),
                    r.checks.len()
                );
            }

            for trace in [false, true] {
                let planted = run_workload(w, &smoke(trace, true)).expect("known workload");
                let checks: Vec<_> = planted
                    .checks
                    .iter()
                    .filter(|c| is_planted_check(&c.name))
                    .collect();
                if checks.len() < 2 {
                    fail(format!("{w}: only {} planted checks ran", checks.len()));
                }
                for c in checks {
                    match &c.failure {
                        Some(_) => println!("planted fault caught by '{}'", c.name),
                        None => fail(format!("{w}: check '{}' passed a planted fault", c.name)),
                    }
                }
            }

            // Two traced runs of the same seed and operation count.
            let a = run_workload(w, &smoke(true, false)).expect("known workload");
            let b = run_workload(w, &smoke(true, false)).expect("known workload");
            let mut same = Vec::new();
            let mut differ = Vec::new();
            for &name in COUNT_METRICS {
                let (x, y) = (a.value(name), b.value(name));
                if x == y {
                    same.push(name);
                } else {
                    differ.push(format!(
                        "{name} ({:?} vs {:?})",
                        x.unwrap_or(f64::NAN),
                        y.unwrap_or(f64::NAN)
                    ));
                }
            }
            println!("repeat exactly for one seed: {}", same.join(", "));
            println!(
                "differ between runs of one seed: {}",
                if differ.is_empty() {
                    "none".to_string()
                } else {
                    differ.join(", ")
                }
            );
        }
        println!(
            "{}",
            if ok {
                "SELFTEST PASSED"
            } else {
                "SELFTEST FAILED"
            }
        );
        ok
    }
}
