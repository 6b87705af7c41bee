//! Pieces shared by the three workloads: the measured-phase clock, the
//! per-operation latency log, drive snapshots and their deltas, and the
//! metric and check types a run reports.

use std::sync::Arc;
use std::time::{Duration, Instant};

use s4_core::{RequestContext, S4Drive, StatsSnapshot};
use s4_simdisk::{BlockDev, DiskStats, MemDisk, TimedDisk};

use s4_fs::FsResult;

use crate::trace::{attribute, write_spans, Attribution, Kind, LayerOf, Span, TracedDev, Tracer};

/// The device stack every workload's drives sit on.
pub type Dev = TimedDisk<TracedDev<MemDisk>>;

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// One correctness check's outcome.
#[derive(Clone, Debug)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// `None` when it passed, else what went wrong.
    pub failure: Option<String>,
}

/// What one run of one workload produced.
#[derive(Default)]
pub struct Report {
    /// Client operations attempted in the measured phase.
    pub attempted: u64,
    /// Of those, how many failed or were refused.
    pub failed: u64,
    /// Every correctness check the run made.
    pub checks: Vec<Check>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Human-readable lines, printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a check that passed when `ok`.
    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl FnOnce() -> String) {
        self.checks.push(Check {
            name: name.into(),
            failure: (!ok).then(detail),
        });
    }

    /// Reports 0 for metrics of layers this workload does not use.
    pub fn not_applicable(&mut self, names: &[(&'static str, &'static str)]) {
        for &(name, unit) in names {
            self.metric(name, 0.0, unit);
        }
    }

    /// Value of metric `name`, if reported.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Knobs of one run, from the command line.
#[derive(Clone, Copy, Debug)]
pub struct RunArgs {
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced.
    pub trace: bool,
    /// Smoke size for the self-test (never for measurements).
    pub smoke: bool,
    /// Stop the measured phase after this many client operations.
    pub max_ops: Option<u64>,
    /// Set up this many times and report the median (untraced run);
    /// `None` leaves the count to the workload.
    pub setup_reps: Option<usize>,
    /// Planted wrong expectation, for the self-test.
    pub plant: bool,
}

impl RunArgs {
    /// Set-ups to run: one in a traced run, else the workload's `default`
    /// unless the command line chose.
    pub fn reps(&self, default: usize) -> usize {
        if self.trace {
            1
        } else {
            self.setup_reps.unwrap_or(default).max(1)
        }
    }
}

/// Runs `setup` `reps` times, freeing each system before the next is
/// built so only one is ever resident, and returns the last system with
/// the host time of every set-up.
pub fn set_up<S>(reps: usize, mut setup: impl FnMut() -> FsResult<S>) -> FsResult<(S, Vec<f64>)> {
    let mut times = Vec::with_capacity(reps);
    let mut sys = None;
    for _ in 0..reps.max(1) {
        drop(sys.take());
        let t0 = Instant::now();
        sys = Some(setup()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((sys.expect("at least one set-up ran"), times))
}

/// When the measured phase started and when it must stop.
#[derive(Clone, Copy)]
pub struct Phase {
    /// Start of the measured phase.
    pub start: Instant,
    deadline: Instant,
    cap: u64,
}

impl Phase {
    /// A phase starting now that ends after `seconds`, or once a client
    /// has done `args.max_ops` units of work (else `cap` units).
    pub fn begin(args: &RunArgs, seconds: f64, cap: u64, tracer: &Tracer) -> Phase {
        let start = Instant::now();
        tracer.start_phase(start);
        Phase {
            start,
            deadline: start + Duration::from_secs_f64(seconds),
            cap: args.max_ops.unwrap_or(cap),
        }
    }

    /// Whether a client that has done `done` units of work may start
    /// another.
    pub fn more(&self, done: u64) -> bool {
        done < self.cap && self.in_time()
    }

    /// Whether the phase's time is not up yet.
    pub fn in_time(&self) -> bool {
        Instant::now() < self.deadline
    }
}

/// One client operation in a traced window: the root span it opened
/// and when the client started and finished it, on the tracer's time
/// scale.
#[derive(Clone, Copy, Debug)]
pub struct ClientOp {
    /// Id of the operation's root span, 0 if it opened none.
    pub root: u64,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
}

impl ClientOp {
    /// Client-measured latency, ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Host latency of every client operation one client thread ran.
#[derive(Default)]
pub struct OpLog {
    /// Operations in traced windows.
    pub traced: Vec<ClientOp>,
    /// Latencies of operations in untraced windows, ns.
    pub untraced_ns: Vec<u64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
}

impl OpLog {
    /// Times one client operation.
    pub fn time<R, E>(
        &mut self,
        tracer: &Tracer,
        f: impl FnOnce() -> Result<R, E>,
    ) -> Result<R, E> {
        let traced = tracer.decide();
        let start = tracer.now_ns();
        let r = f();
        let end = tracer.now_ns();
        let root = tracer.finish_op();
        if traced {
            self.traced.push(ClientOp { root, start, end });
        } else {
            self.untraced_ns.push(end - start);
        }
        self.attempted += 1;
        if r.is_err() {
            self.failed += 1;
        }
        r
    }

    /// Folds another client's log into this one.
    pub fn merge(&mut self, other: OpLog) {
        self.traced.extend(other.traced);
        self.untraced_ns.extend(other.untraced_ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Operations completed so far.
    pub fn ops(&self) -> u64 {
        self.attempted
    }
}

/// Nearest-rank quantile of `sorted` (ascending), `p` in (0, 1].
pub fn quantile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Samples strictly above the nearest-rank p99.
pub fn samples_above_p99(n: usize) -> usize {
    let rank = ((0.99 * n as f64).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Median of a few set-up times, seconds.
pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Bucketed histogram contents, `(upper_bound, count)` ascending.
pub type Buckets = Vec<(u64, u64)>;

/// Quantile of the observations in `after` that are not in `before`.
pub fn bucket_quantile(before: &Buckets, after: &Buckets, p: f64) -> u64 {
    let delta: Vec<(u64, u64)> = after
        .iter()
        .map(|&(ub, n)| {
            let was = before.iter().find(|b| b.0 == ub).map_or(0, |b| b.1);
            (ub, n - was)
        })
        .filter(|&(_, n)| n > 0)
        .collect();
    let total: u64 = delta.iter().map(|d| d.1).sum();
    if total == 0 {
        return 0;
    }
    let rank = ((p * total as f64).ceil() as u64).clamp(1, total);
    let mut cum = 0;
    for (ub, n) in &delta {
        cum += n;
        if cum >= rank {
            return *ub;
        }
    }
    delta.last().map_or(0, |d| d.0)
}

/// Merges several bucket lists into one.
pub fn merge_buckets(lists: &[Buckets]) -> Buckets {
    let mut out: Buckets = Vec::new();
    for l in lists {
        for &(ub, n) in l {
            match out.iter_mut().find(|b| b.0 == ub) {
                Some(b) => b.1 += n,
                None => out.push((ub, n)),
            }
        }
    }
    out.sort_by_key(|b| b.0);
    out
}

/// What one drive's counters read at one instant.
#[derive(Clone)]
pub struct DriveSnap {
    /// Drive operation counters.
    pub stats: StatsSnapshot,
    /// Device counters.
    pub disk: DiskStats,
    /// Block-cache `(hits, misses)`.
    pub cache: (u64, u64),
    /// `s4_rpc_latency_us` buckets.
    pub rpc: Buckets,
    /// `s4_journal_latency_us` buckets.
    pub journal: Buckets,
    /// `s4_lfs_latency_us` buckets.
    pub lfs: Buckets,
}

impl DriveSnap {
    /// Reads `drive`'s counters.
    pub fn take(drive: &S4Drive<Dev>) -> DriveSnap {
        let reg = drive.registry();
        DriveSnap {
            stats: drive.stats().snapshot(),
            disk: drive.log().device().stats(),
            cache: drive.log().cache().hit_stats(),
            rpc: reg.histogram("s4_rpc_latency_us", "").nonzero_buckets(),
            journal: reg.histogram("s4_journal_latency_us", "").nonzero_buckets(),
            lfs: reg.histogram("s4_lfs_latency_us", "").nonzero_buckets(),
        }
    }
}

/// Bytes of log space in use: the referenced share of the data area
/// (current versions plus the history pool).
pub fn log_bytes_in_use(drive: &S4Drive<Dev>) -> f64 {
    drive.log().utilization() * drive.log().geometry().data_bytes() as f64
}

/// A fresh timed in-memory device of `bytes`, its byte store wrapped for
/// tracing, charging `clock`.
pub fn timed_dev(bytes: u64, clock: &s4_clock::SimClock, tracer: &Arc<Tracer>) -> Dev {
    TimedDisk::new(
        TracedDev::new(MemDisk::with_capacity_bytes(bytes), tracer.clone()),
        s4_simdisk::DiskModelParams::cheetah_9gb_10k(),
        clock.clone(),
    )
}

/// The drive's administrative context.
pub fn admin_ctx<D: BlockDev>(drive: &S4Drive<D>) -> RequestContext {
    RequestContext::admin(s4_core::ClientId(0), drive.config().admin_token)
}

/// Reports the per-layer metrics every workload shares, from drive
/// snapshots taken at the start (`before`) and end (`after`) of the
/// measured phase — one pair per drive (array members included).
pub fn layer_metrics_from_drives(
    r: &mut Report,
    before: &[DriveSnap],
    after: &[DriveSnap],
    client_ops: u64,
    client_bytes_read: u64,
    audited_sent: u64,
) {
    let ops = client_ops.max(1) as f64;
    let sum = |f: &dyn Fn(&DriveSnap, &DriveSnap) -> u64| -> u64 {
        before.iter().zip(after).map(|(b, a)| f(b, a)).sum()
    };
    let syncs = sum(&|b, a| a.stats.syncs - b.stats.syncs);
    let audits = sum(&|b, a| a.stats.audit_records - b.stats.audit_records);
    let sectors = sum(&|b, a| a.stats.journal_sectors - b.stats.journal_sectors);
    let checkpoints = sum(&|b, a| a.stats.checkpoints - b.stats.checkpoints);
    let tbr = sum(&|b, a| a.stats.time_based_reads - b.stats.time_based_reads);
    let hits = sum(&|b, a| a.cache.0 - b.cache.0);
    let misses = sum(&|b, a| a.cache.1 - b.cache.1);
    let d = |f: &dyn Fn(&DiskStats) -> u64| sum(&|b, a| f(&a.disk) - f(&b.disk));
    let reads = d(&|s| s.reads);
    let writes = d(&|s| s.writes);
    let bytes_read = d(&|s| s.bytes_read());
    let bytes_written = d(&|s| s.bytes_written());
    let busy_us = d(&|s| s.busy_us);
    let q99 = |f: fn(&DriveSnap) -> &Buckets| {
        let b: Vec<Buckets> = before.iter().map(|s| f(s).clone()).collect();
        let a: Vec<Buckets> = after.iter().map(|s| f(s).clone()).collect();
        bucket_quantile(&merge_buckets(&b), &merge_buckets(&a), 0.99) as f64
    };

    r.metric("core.syncs_per_op", syncs as f64 / ops, "syncs/op");
    r.metric("core.sim_rpc_us_p99", q99(|s| &s.rpc), "us");
    r.metric(
        "core.audit_records_per_rpc",
        audits as f64 / audited_sent.max(1) as f64,
        "ratio",
    );
    r.metric(
        "journal.sectors_per_sync",
        sectors as f64 / syncs.max(1) as f64,
        "sectors/sync",
    );
    r.metric("journal.checkpoints", checkpoints as f64, "count");
    r.metric("journal.sim_us_p99", q99(|s| &s.journal), "us");
    r.metric("journal.time_based_reads", tbr as f64, "count");
    r.metric(
        "lfs.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    // With no device reads at all nothing read was wasted.
    let useful = if bytes_read == 0 {
        1.0
    } else {
        client_bytes_read as f64 / bytes_read as f64
    };
    r.metric("lfs.read_useful_ratio", useful, "ratio");
    r.metric("lfs.sim_us_p99", q99(|s| &s.lfs), "us");
    r.metric("disk.reads", reads as f64, "count");
    r.metric("disk.writes", writes as f64, "count");
    r.metric("disk.bytes_read", bytes_read as f64, "B");
    r.metric("disk.bytes_written", bytes_written as f64, "B");
    r.metric(
        "disk.mean_write_kb",
        bytes_written as f64 / writes.max(1) as f64 / 1024.0,
        "KiB",
    );
    r.metric("disk.busy_sim_s", busy_us as f64 / 1e6, "s");
}

/// Host-time metrics from the traced windows: latency of RPCs with and
/// without a `Sync`, the `Sync` share of client time, device host time,
/// each layer's self time per operation, and the trace checks.
pub struct TraceSummary<'a> {
    /// Every recorded span.
    pub spans: &'a [Span],
    /// Attribution of the spans to layers.
    pub attribution: &'a Attribution,
    /// The traced client operations.
    pub ops: &'a [ClientOp],
    /// Span kind whose durations are "the RPC" for `core.*`.
    pub rpc_kind: Kind,
    /// Which layer each span kind belongs to.
    pub layer_of: LayerOf,
    /// Layers this workload reports self time for.
    pub layers: &'a [&'static str],
    /// Plant one fault into the input of each trace check (self-test).
    pub plant: bool,
}

/// Reports the trace-derived metrics and checks.
pub fn layer_metrics_from_trace(r: &mut Report, t: &TraceSummary) {
    let ops = t.ops.len().max(1) as f64;
    let e2e_ns: u64 = t.ops.iter().map(ClientOp::dur).sum();
    let mut plain: Vec<u64> = Vec::new();
    let mut sync: Vec<u64> = Vec::new();
    let mut disk_ns = 0u64;
    for s in t.spans {
        if s.kind == t.rpc_kind {
            if s.sync {
                sync.push(s.dur());
            } else {
                plain.push(s.dur());
            }
        }
        if s.kind == Kind::Disk {
            disk_ns += s.dur();
        }
    }
    plain.sort_unstable();
    sync.sort_unstable();
    let us = |ns: u64| ns as f64 / 1e3;
    r.metric("core.rpc_us_p50", us(quantile(&plain, 0.5)), "us");
    r.metric("core.rpc_us_p99", us(quantile(&plain, 0.99)), "us");
    r.metric("core.sync_us_p50", us(quantile(&sync, 0.5)), "us");
    r.metric("core.sync_us_p99", us(quantile(&sync, 0.99)), "us");
    r.metric(
        "core.sync_share",
        sync.iter().sum::<u64>() as f64 / e2e_ns.max(1) as f64,
        "ratio",
    );
    r.metric("disk.host_us", disk_ns as f64 / 1e3 / ops, "us/op");

    // Layer self times, plus the client's own share: the part of each
    // traced operation outside its root span.
    let a = t.attribution;
    let client_ns: u64 = t
        .ops
        .iter()
        .filter_map(|op| {
            a.roots
                .get(&op.root)
                .map(|root| op.dur().saturating_sub(root.dur()))
        })
        .sum();
    for &layer in t.layers {
        let ns = a.self_of(layer);
        r.metric(self_metric_name(layer), ns as f64 / 1e3 / ops, "us/op");
    }
    r.metric(
        "self_us_per_op.client",
        client_ns as f64 / 1e3 / ops,
        "us/op",
    );
    r.metric("trace.e2e_us_per_op", e2e_ns as f64 / 1e3 / ops, "us/op");
    let attributed: u64 = a.self_ns.iter().map(|x| x.1).sum();
    r.metric(
        "trace.layers_sum_us_per_op",
        (attributed + client_ns) as f64 / 1e3 / ops,
        "us/op",
    );
    if t.plant {
        r.checks.extend(planted_trace_checks(t));
    } else {
        r.checks.extend(trace_checks(a, a, t.ops, t.layers));
    }
}

/// The trace checks, in a fixed order. `a` is the attribution checked;
/// `expected` supplies the interval-union figures the sweep's are
/// compared with (the same attribution, except in the self-test).
///
/// Together they make the layer self times add up to the end-to-end
/// time: each traced operation's time is its root span plus the
/// client's share outside it, and each root span is the sum of the self
/// times of its tree.
fn trace_checks(
    a: &Attribution,
    expected: &Attribution,
    ops: &[ClientOp],
    layers: &[&str],
) -> Vec<Check> {
    let mut r = Report::default();
    r.check(
        "trace: every span nests inside its parent",
        a.nesting_violations == 0,
        || format!("{} spans end outside their parent", a.nesting_violations),
    );

    let mut claimed = std::collections::HashSet::new();
    let mut bad_ops = 0;
    for op in ops {
        let inside = a
            .roots
            .get(&op.root)
            .is_some_and(|root| root.start >= op.start && root.end <= op.end);
        if !(inside && claimed.insert(op.root)) {
            bad_ops += 1;
        }
    }
    let unclaimed = a.roots.len() - claimed.len();
    r.check(
        "trace: each traced op has one root span, inside the client-measured time",
        bad_ops == 0 && unclaimed == 0,
        || {
            format!(
                "{bad_ops} of {} ops lack a root span inside them; {unclaimed} root spans belong to no op",
                ops.len()
            )
        },
    );

    let uneven: Vec<_> = a
        .roots
        .values()
        .filter(|root| root.union_ns != root.dur())
        .collect();
    r.check(
        "trace: per root span, the layer self times add up to its duration",
        uneven.is_empty(),
        || {
            format!(
                "{} roots differ, first: self times {} ns vs span {} ns",
                uneven.len(),
                uneven[0].union_ns,
                uneven[0].dur()
            )
        },
    );

    let mut names: Vec<&str> = a
        .self_ns
        .iter()
        .chain(&expected.union_ns)
        .map(|x| x.0)
        .collect();
    names.sort_unstable();
    names.dedup();
    let differ: Vec<String> = names
        .iter()
        .filter(|l| {
            a.self_of(l) != expected.union_of(l) || (!layers.contains(l) && a.self_of(l) > 0)
        })
        .map(|l| {
            format!(
                "{l}: sweep {} ns, union {} ns",
                a.self_of(l),
                expected.union_of(l)
            )
        })
        .collect();
    r.check(
        "trace: sweep and interval union give each listed layer the same self time",
        differ.is_empty(),
        || differ.join("; "),
    );
    r.checks
}

/// The trace checks, each run on an input with one fault planted for
/// it, at the first traced operation's root span; every one must fail.
fn planted_trace_checks(t: &TraceSummary) -> Vec<Check> {
    let spans = t.spans;
    let root = t
        .ops
        .first()
        .and_then(|op| spans.iter().find(|s| s.id == op.root));
    let Some(&root) = root else {
        // Nothing to plant into: the checks pass, and the self-test
        // reports them as vacuous.
        return trace_checks(t.attribution, t.attribution, t.ops, t.layers);
    };
    let next = spans.iter().map(|s| s.id).max().unwrap_or(0) + 1;
    // The spans plus children of the root, each `(kind, start, end)`.
    let with_children = |extra: &[(Kind, u64, u64)]| -> Vec<Span> {
        let mut p = spans.to_vec();
        for (k, &(kind, start, end)) in extra.iter().enumerate() {
            p.push(Span {
                kind,
                id: next + k as u64,
                parent: root.id,
                start,
                end,
                ..root
            });
        }
        p
    };
    let check = |planted: &[Span], which: usize| -> Check {
        let a = attribute(planted, t.layer_of);
        trace_checks(&a, &a, t.ops, t.layers).swap_remove(which)
    };
    let mid = root.start + root.dur() / 2;
    // A child span that ends after the root.
    let outside = with_children(&[(Kind::Disk, mid, root.end + 1)]);
    // The root span lost.
    let lost: Vec<Span> = spans.iter().filter(|s| s.id != root.id).copied().collect();
    // Two children of different layers that both cover the root.
    let overlap = with_children(&[
        (Kind::Handle, root.start, root.end),
        (Kind::Disk, root.start, root.end),
    ]);
    // An expectation that holds one device access the trace does not.
    let expected = attribute(&with_children(&[(Kind::Disk, root.start, mid)]), t.layer_of);
    vec![
        check(&outside, 0),
        check(&lost, 1),
        check(&overlap, 2),
        trace_checks(t.attribution, &expected, t.ops, t.layers).swap_remove(3),
    ]
}

fn self_metric_name(layer: &str) -> &'static str {
    match layer {
        "fs" => "self_us_per_op.fs",
        "core" => "self_us_per_op.core",
        "tcp" => "self_us_per_op.tcp",
        "array" => "self_us_per_op.array",
        "disk" => "self_us_per_op.disk",
        _ => "self_us_per_op.other",
    }
}

/// Reports 0 for the TCP, array and transaction metrics on workloads
/// that use none of those layers.
pub fn not_applicable_tcp_array_txn(r: &mut Report) {
    r.not_applicable(&[
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
        ("trace.unattributed_disk_us_per_op", "us/op"),
    ]);
}

/// Failure share and latency sample count, reported by every traced run.
fn common_trace_counts(r: &mut Report, log: &OpLog) {
    r.metric(
        "error_rate",
        log.failed as f64 / log.attempted.max(1) as f64,
        "ratio",
    );
    r.metric("op_samples", log.attempted as f64, "count");
}

/// Writes the traced run's spans under `.bench_out/spans/`.
fn write_spans_file(r: &mut Report, workload: &str, spans: &[Span]) {
    let path = std::path::PathBuf::from(format!(".bench_out/spans/{workload}.csv"));
    match write_spans(&path, spans) {
        Ok(()) => r.notes.push(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => r.notes.push(format!("could not write spans: {e}")),
    }
}

/// Reports traced against untraced throughput from one traced run.
fn tracing_overhead(r: &mut Report, tracer: &Tracer, phase: &Phase, end: Instant, log: &OpLog) {
    let (traced_t, untraced_t) = tracer.split_time(phase.start, end);
    let traced = log.traced.len() as f64 / traced_t.as_secs_f64().max(1e-9);
    let untraced = log.untraced_ns.len() as f64 / untraced_t.as_secs_f64().max(1e-9);
    r.metric("trace.ops_per_s", traced, "ops/s");
    r.metric("trace.untraced_ops_per_s", untraced, "ops/s");
    r.metric("trace.overhead_ratio", untraced / traced.max(1e-9), "ratio");
    r.metric("trace.dropped_spans", tracer.dropped() as f64, "count");
}

/// Completes a traced run's report: tracing overhead, failures, sample
/// count, and the spans written out.
pub fn finish_traced(
    r: &mut Report,
    workload: &str,
    tracer: &Tracer,
    phase: &Phase,
    end: Instant,
    log: &OpLog,
    spans: &[Span],
) {
    tracing_overhead(r, tracer, phase, end, log);
    common_trace_counts(r, log);
    write_spans_file(r, workload, spans);
    r.attempted = log.attempted;
    r.failed = log.failed;
}

/// Reports the end-to-end metrics every workload shares.
pub struct EndToEnd {
    /// Client operations in the measured phase, with their latencies.
    pub log: OpLog,
    /// Host time of the measured phase.
    pub host: Duration,
    /// Simulated time of the measured phase, seconds.
    pub sim_s: f64,
    /// Set-up times of each repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Device bytes written over the whole run.
    pub device_bytes_written: u64,
    /// Client payload bytes written over the whole run.
    pub client_bytes_written: u64,
    /// Log space in use at the end, bytes.
    pub space_in_use: f64,
    /// Require ten samples above p99 (off at smoke size).
    pub check_p99_samples: bool,
}

impl EndToEnd {
    /// Adds the nine end-to-end metrics and the sample-count check.
    pub fn report(self, r: &mut Report) {
        let mut lat = self.log.untraced_ns;
        lat.sort_unstable();
        let n = lat.len();
        let ops = self.log.attempted as f64;
        r.metric("ops_per_s", ops / self.host.as_secs_f64(), "ops/s");
        r.metric("op_p50_us", quantile(&lat, 0.5) as f64 / 1e3, "us");
        r.metric("op_p99_us", quantile(&lat, 0.99) as f64 / 1e3, "us");
        r.metric("sim_ops_per_s", ops / self.sim_s.max(1e-12), "ops/s");
        r.metric("setup_s", median(self.setup_s), "s");
        r.metric(
            "success_ratio",
            1.0 - self.log.failed as f64 / ops.max(1.0),
            "ratio",
        );
        let payload = self.client_bytes_written.max(1) as f64;
        r.metric(
            "write_amp",
            self.device_bytes_written as f64 / payload,
            "ratio",
        );
        r.metric("space_amp", self.space_in_use / payload, "ratio");
        r.metric("rss_peak_mb", rss_peak_mb(), "MiB");
        r.notes.push(format!(
            "latency samples {n}, {} above p99",
            samples_above_p99(n)
        ));
        if self.check_p99_samples {
            r.check(
                "p99 has at least 10 samples above it",
                samples_above_p99(n) >= 10,
                || format!("{n} samples leave {} above p99", samples_above_p99(n)),
            );
        }
        r.attempted = self.log.attempted;
        r.failed = self.log.failed;
    }
}
