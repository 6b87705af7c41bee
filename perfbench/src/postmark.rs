//! `postmark_nfs`: PostMark through the S4-enhanced NFS server of
//! Figure 1b, at the paper's scale (5,000 files, 20,000 transactions).
//!
//! Stack: client → `S4FileServer` (NFS translator, NFS ops charged the
//! LAN) → `LoopbackTransport` → `S4Drive` → `TimedDisk<MemDisk>`. One
//! client, closed loop. The inputs are the repository's PostMark
//! generator (`s4_workloads::postmark`) run with the benchmark's seed.
//! Its create phase is set-up; the measured phase replays all of its
//! transactions, a fixed amount of work, so a slower drive takes longer
//! rather than doing less. A run that cannot finish them within
//! [`TIME_LIMIT`] fails.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use s4_bench::{bench_ctx, RemoteFs};
use s4_clock::{NetworkModel, SimClock, SimDuration};
use s4_core::{DriveConfig, S4Drive};
use s4_fs::{FileServer, FsError, FsResult, Handle, LoopbackTransport, S4FileServer, S4FsConfig};
use s4_workloads::postmark::{generate, PostmarkConfig};
use s4_workloads::FsOp;

use crate::common::{
    finish_traced, layer_metrics_from_drives, layer_metrics_from_trace, log_bytes_in_use,
    not_applicable_tcp_array_txn, set_up, timed_dev, Dev, DriveSnap, EndToEnd, OpLog, Phase,
    Report, RunArgs, TraceSummary,
};
use crate::trace::{attribute, loopback_layer, Kind, TracedFs, TracedTransport, Tracer};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
const SMOKE_FILES: usize = 150;
const SMOKE_TRANSACTIONS: usize = 300;
/// The measured phase must finish all transactions within this; today
/// it takes about a fifth of it.
const TIME_LIMIT: Duration = Duration::from_secs(120);
/// NFS transfer size for whole-file reads.
const NFS_READ: u64 = 4096;
const DISK_BYTES: u64 = 2 << 30;

type Translator = S4FileServer<TracedTransport<LoopbackTransport<Dev>>>;
type Fs = TracedFs<RemoteFs<Translator>>;

struct File {
    dir: Handle,
    name: String,
    handle: Handle,
    size: u64,
}

struct System {
    fs: Fs,
    drive: Arc<S4Drive<Dev>>,
    clock: SimClock,
    tracer: Arc<Tracer>,
    dirs: HashMap<String, Handle>,
    /// The live files by generator path, with the model's sizes.
    files: HashMap<String, File>,
    bytes_written: u64,
}

impl System {
    fn fs_inner(&self) -> &Translator {
        // TracedFs → RemoteFs → translator.
        self.fs.inner().inner()
    }
}

fn config(args: &RunArgs) -> PostmarkConfig {
    let mut config = PostmarkConfig {
        seed: args.seed,
        ..PostmarkConfig::default()
    };
    if args.smoke {
        config.nfiles = SMOKE_FILES;
        config.transactions = SMOKE_TRANSACTIONS;
    }
    config
}

/// Splits a generator path `pm<d>/f<id>` into directory and name.
fn split(path: &str) -> FsResult<(&str, &str)> {
    path.split_once('/')
        .ok_or_else(|| FsError::Storage(format!("unexpected PostMark path {path}")))
}

/// Formats a drive, mounts the translator and replays PostMark's create
/// phase. Every client operation here is part of set-up.
fn setup(create: &[FsOp], tracer: Arc<Tracer>) -> FsResult<System> {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let drive = Arc::new(
        S4Drive::format(
            timed_dev(DISK_BYTES, &clock, &tracer),
            DriveConfig::default(),
            clock.clone(),
        )
        .map_err(|e| FsError::Storage(e.to_string()))?,
    );
    // Figure 1b: S4 RPCs stay inside the server; NFS ops cross the LAN.
    let transport = TracedTransport::new(
        LoopbackTransport::new(drive.clone(), NetworkModel::free()),
        tracer.clone(),
    );
    let s4fs = S4FileServer::mount(transport, bench_ctx(), "postmark", S4FsConfig::default())?;
    let fs = TracedFs::new(
        RemoteFs::new(s4fs, NetworkModel::lan_100mbit(), clock.clone()),
        tracer.clone(),
    );
    let mut sys = System {
        fs,
        drive,
        clock,
        tracer,
        dirs: HashMap::new(),
        files: HashMap::new(),
        bytes_written: 0,
    };
    let root = sys.fs.root();
    for op in create {
        match op {
            FsOp::Mkdir(name) => {
                let dir = sys.fs.mkdir(root, name)?;
                sys.dirs.insert(name.clone(), dir);
            }
            FsOp::Create(path) => {
                let file = create_file(&sys, path)?;
                sys.files.insert(path.clone(), file);
            }
            FsOp::Write { path, offset, data } => {
                let file = sys
                    .files
                    .get_mut(path)
                    .ok_or_else(|| FsError::Storage(format!("no live file {path}")))?;
                sys.fs.write(file.handle, *offset, data)?;
                file.size = file.size.max(offset + data.len() as u64);
                sys.bytes_written += data.len() as u64;
            }
            other => return Err(FsError::Storage(format!("unexpected create op {other:?}"))),
        }
    }
    Ok(sys)
}

fn create_file(sys: &System, path: &str) -> FsResult<File> {
    let (dir, name) = split(path)?;
    let dir = *sys
        .dirs
        .get(dir)
        .ok_or_else(|| FsError::Storage(format!("no directory for {path}")))?;
    let handle = sys.fs.create(dir, name)?;
    Ok(File {
        dir,
        name: name.to_string(),
        handle,
        size: 0,
    })
}

/// Outcome of the measured phase.
struct Measured {
    log: OpLog,
    end: Instant,
    transactions: usize,
    bytes_read: u64,
    size_mismatches: u64,
    first_mismatch: Option<String>,
}

impl Measured {
    fn mismatch(&mut self, what: String) {
        self.size_mismatches += 1;
        self.first_mismatch.get_or_insert(what);
    }
}

/// Replays the transactions in order until all are done or the time
/// limit is reached. A transaction is a create-and-write or a delete,
/// then a whole-file read (getattr, then 4 KiB reads) or an append
/// (getattr, then a write at the size it returned).
fn transactions(sys: &mut System, ops: Vec<FsOp>, args: &RunArgs, phase: &Phase) -> Measured {
    let mut m = Measured {
        log: OpLog::default(),
        end: phase.start,
        transactions: 0,
        bytes_read: 0,
        size_mismatches: 0,
        first_mismatch: None,
    };
    // A planted wrong expectation: the model believes every file is one
    // byte longer than it is.
    let skew = args.plant as u64;
    let tracer = sys.tracer.clone();
    let t = &*tracer;
    for op in ops {
        if !phase.in_time() {
            break;
        }
        match op {
            FsOp::Create(path) => {
                if let Ok(file) = m.log.time(t, || create_file(sys, &path)) {
                    sys.files.insert(path, file);
                }
            }
            FsOp::Write { path, offset, data } => {
                let Some(file) = sys.files.get_mut(&path) else {
                    continue;
                };
                let handle = file.handle;
                if m.log
                    .time(t, || sys.fs.write(handle, offset, &data))
                    .is_ok()
                {
                    file.size = file.size.max(offset + data.len() as u64);
                    sys.bytes_written += data.len() as u64;
                }
            }
            FsOp::Remove(path) => {
                if let Some(f) = sys.files.remove(&path) {
                    let _ = m.log.time(t, || sys.fs.remove(f.dir, &f.name));
                }
            }
            FsOp::ReadAll(path) => {
                let Some(file) = sys.files.get(&path) else {
                    continue;
                };
                let (handle, size) = (file.handle, file.size);
                let expect = size + skew;
                if let Ok(attr) = m.log.time(t, || sys.fs.getattr(handle)) {
                    if attr.size != expect {
                        m.mismatch(format!("getattr {} vs model {expect}", attr.size));
                    }
                }
                let mut off = 0;
                while off < size {
                    let Ok(data) = m.log.time(t, || sys.fs.read(handle, off, NFS_READ)) else {
                        break;
                    };
                    if data.is_empty() {
                        break;
                    }
                    off += data.len() as u64;
                }
                m.bytes_read += off;
                if off != expect {
                    m.mismatch(format!("read {off} bytes vs model {expect}"));
                }
                m.transactions += 1;
            }
            FsOp::Append { path, data } => {
                let Some(file) = sys.files.get_mut(&path) else {
                    continue;
                };
                let (handle, expect) = (file.handle, file.size + skew);
                if let Ok(attr) = m.log.time(t, || sys.fs.getattr(handle)) {
                    if attr.size != expect {
                        m.mismatch(format!("getattr {} vs model {expect}", attr.size));
                    }
                    if m.log
                        .time(t, || sys.fs.write(handle, attr.size, &data))
                        .is_ok()
                    {
                        file.size += data.len() as u64;
                        sys.bytes_written += data.len() as u64;
                    }
                }
                m.transactions += 1;
            }
            other => m.mismatch(format!("unexpected transaction op {other:?}")),
        }
    }
    m.end = Instant::now();
    m
}

/// Runs the workload once.
pub fn run(args: &RunArgs, window: std::time::Duration) -> Report {
    let mut r = Report::default();
    let config = config(args);
    let phases = generate(&config);
    let (mut sys, setup_s) = match set_up(args.reps(SETUP_REPS), || {
        setup(&phases.create, Tracer::new(args.trace, window))
    }) {
        Ok(s) => s,
        Err(e) => {
            r.check("set-up completes", false, || e.to_string());
            return r;
        }
    };
    let files = sys.files.len();
    drop(phases.create);

    let before = DriveSnap::take(&sys.drive);
    let rpcs_before = sys.tracer.rpcs.load(Ordering::Relaxed);
    let audited_before = sys.tracer.audited.load(Ordering::Relaxed);
    let phase = Phase::begin(args, TIME_LIMIT.as_secs_f64(), u64::MAX, &sys.tracer);
    let sim0 = sys.clock.now();
    let m = transactions(&mut sys, phases.transactions, args, &phase);
    let sim_s = (sys.clock.now() - sim0).as_secs_f64();
    let after = DriveSnap::take(&sys.drive);
    let rpcs = sys.tracer.rpcs.load(Ordering::Relaxed) - rpcs_before;
    let audited = sys.tracer.audited.load(Ordering::Relaxed) - audited_before;
    let spans = sys.tracer.take_spans();
    r.notes.push(format!(
        "postmark_nfs: {files} files at start, {} of {} transactions, {} NFS ops, {rpcs} S4 RPCs in {:.2}s",
        m.transactions,
        config.transactions,
        m.log.attempted,
        (m.end - phase.start).as_secs_f64()
    ));
    if args.trace {
        r.notes.push(format!(
            "postmark_nfs S4 RPC mix: {}",
            sys.tracer.request_mix()
        ));
    }

    // A planted wrong expectation: one transaction more than generated.
    r.check(
        "postmark: every transaction ran within the time limit",
        m.transactions == config.transactions + args.plant as usize,
        || {
            format!(
                "{} of {} transactions in {}s",
                m.transactions,
                config.transactions,
                TIME_LIMIT.as_secs()
            )
        },
    );
    // Correctness: sizes the server returned against the model, during
    // the phase and for every file afterwards.
    r.check(
        "postmark: bytes returned equal the model's file sizes",
        m.size_mismatches == 0,
        || {
            format!(
                "{} mismatches, first: {}",
                m.size_mismatches,
                m.first_mismatch.clone().unwrap_or_default()
            )
        },
    );
    let skew = args.plant as u64;
    let bad_final = sys
        .files
        .values()
        .filter(|f| sys.fs_inner().getattr(f.handle).map(|a| a.size) != Ok(f.size + skew))
        .count();
    r.check(
        "postmark: every file's final size equals the model",
        bad_final == 0,
        || format!("{bad_final} of {} files differ", sys.files.len()),
    );
    audit_check(&mut r, &sys, args.plant);

    if args.trace {
        let attribution = attribute(&spans, loopback_layer);
        let fs_self = attribution.self_of("fs");
        let traced_ops = m.log.traced.len().max(1) as f64;
        r.metric(
            "fs.self_us_per_op",
            fs_self as f64 / 1e3 / traced_ops,
            "us/op",
        );
        r.metric(
            "fs.rpcs_per_op",
            rpcs as f64 / m.log.attempted.max(1) as f64,
            "rpc/op",
        );
        not_applicable_tcp_array_txn(&mut r);
        layer_metrics_from_drives(
            &mut r,
            &[before],
            &[after],
            m.log.attempted,
            m.bytes_read,
            audited,
        );
        layer_metrics_from_trace(
            &mut r,
            &TraceSummary {
                spans: &spans,
                attribution: &attribution,
                ops: &m.log.traced,
                layer_of: loopback_layer,
                plant: args.plant,
                rpc_kind: Kind::Rpc,
                layers: &["fs", "core", "disk"],
            },
        );
        r.not_applicable(&[
            ("self_us_per_op.tcp", "us/op"),
            ("self_us_per_op.array", "us/op"),
        ]);
        finish_traced(
            &mut r,
            "postmark_nfs",
            &sys.tracer,
            &phase,
            m.end,
            &m.log,
            &spans,
        );
    } else {
        EndToEnd {
            log: m.log,
            host: m.end - phase.start,
            sim_s,
            setup_s,
            device_bytes_written: sys.drive.log().device().stats().bytes_written(),
            client_bytes_written: sys.bytes_written,
            space_in_use: log_bytes_in_use(&sys.drive),
            check_p99_samples: !args.smoke,
        }
        .report(&mut r);
    }
    r
}

/// Every request is audited: the drive appended one audit record per
/// RPC the translator sent, batch sub-requests counted one by one.
fn audit_check(r: &mut Report, sys: &System, plant: bool) {
    let appended = sys.drive.stats().snapshot().audit_records;
    // A planted wrong expectation: one request more than was sent.
    let sent = sys.tracer.audited.load(Ordering::Relaxed) + plant as u64;
    r.check(
        "postmark: audit records appended equal requests sent",
        appended == sent,
        || format!("drive appended {appended} audit records for {sent} requests"),
    );
}
