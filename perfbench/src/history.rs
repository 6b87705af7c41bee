//! `history_reads`: time-based reads of past versions, the forensic side
//! of S4 (§3.1–3.2).
//!
//! One client reaches one drive through `LoopbackTransport` (S4 RPCs
//! charged the LAN, Figure 1a). Set-up writes every object's 8 KiB
//! content over and over, syncing as it goes, until the retained
//! history is more than twice the drive's 128 MiB block cache. The
//! measured phase issues only `Read { time: Some(t) }` calls for random
//! past versions, and checks each against the bytes written for the
//! version current at `t`, regenerated from the seed.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use s4_bench::bench_ctx;
use s4_clock::{NetworkModel, SimClock, SimDuration, SimTime};
use s4_core::{DriveConfig, ObjectId, Request, Response, S4Drive};
use s4_fs::{FsError, FsResult, LoopbackTransport, Transport};
use s4_workloads::Rng;

use crate::common::{
    finish_traced, layer_metrics_from_drives, layer_metrics_from_trace, log_bytes_in_use,
    not_applicable_tcp_array_txn, timed_dev, Dev, DriveSnap, EndToEnd, OpLog, Phase, Report,
    RunArgs, TraceSummary,
};
use crate::trace::{attribute, loopback_layer, Kind, TracedTransport, Tracer};

/// Bytes per version.
const VERSION_BYTES: usize = 8 * 1024;
/// 64 objects × 576 versions × 8 KiB = 288 MiB of history.
const OBJECTS: usize = 64;
const VERSIONS: usize = 576;
const SMOKE_OBJECTS: usize = 6;
const SMOKE_VERSIONS: usize = 12;
/// A Sync after this many version writes.
const SYNC_EVERY: usize = 128;
const DISK_BYTES: u64 = 1 << 30;
/// Drives (log layouts) an untraced run measures.
const LAYOUTS: usize = 3;

type Client = TracedTransport<LoopbackTransport<Dev>>;

struct System {
    client: Client,
    drive: Arc<S4Drive<Dev>>,
    clock: SimClock,
    tracer: Arc<Tracer>,
    oids: Vec<ObjectId>,
    /// `times[o][v]`: a simulated instant at which version `v` of object
    /// `o` is the current one.
    times: Vec<Vec<SimTime>>,
    bytes_written: u64,
}

/// The content of version `v` of object `o`, from the seed alone.
fn content(seed: u64, o: usize, v: usize) -> Vec<u8> {
    let mut rng =
        Rng::new(seed ^ ((o as u64) << 32 | v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    rng.bytes(VERSION_BYTES)
}

fn call(client: &Client, req: &Request) -> FsResult<Response> {
    client.call(&bench_ctx(), req)
}

fn setup(args: &RunArgs, tracer: Arc<Tracer>) -> FsResult<System> {
    let (objects, versions) = if args.smoke {
        (SMOKE_OBJECTS, SMOKE_VERSIONS)
    } else {
        (OBJECTS, VERSIONS)
    };
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
    let client = TracedTransport::new(
        LoopbackTransport::new(drive.clone(), NetworkModel::lan_100mbit()),
        tracer.clone(),
    );
    let mut oids = Vec::with_capacity(objects);
    for _ in 0..objects {
        match call(&client, &Request::Create)? {
            Response::Created(oid) => oids.push(oid),
            other => return Err(FsError::Storage(format!("bad Create response {other:?}"))),
        }
    }
    let mut times = vec![Vec::with_capacity(versions); objects];
    let mut writes = 0;
    for v in 0..versions {
        for (o, &oid) in oids.iter().enumerate() {
            let data = content(args.seed, o, v);
            call(
                &client,
                &Request::Write {
                    oid,
                    offset: 0,
                    data,
                },
            )?;
            times[o].push(clock.now());
            writes += 1;
            if writes % SYNC_EVERY == 0 {
                call(&client, &Request::Sync)?;
            }
        }
    }
    call(&client, &Request::Sync)?;
    // Warm the block cache: reading each object's oldest version walks
    // its whole journal once, so the measured phase starts from the
    // steady state rather than from the cache the writes left behind.
    for (o, &oid) in oids.iter().enumerate() {
        let resp = call(
            &client,
            &Request::Read {
                oid,
                offset: 0,
                len: VERSION_BYTES as u64,
                time: Some(times[o][0]),
            },
        )?;
        if resp != Response::Data(content(args.seed, o, 0)) {
            return Err(FsError::Storage(format!(
                "object {o}'s oldest version reads back wrong"
            )));
        }
    }
    Ok(System {
        client,
        drive,
        clock,
        tracer,
        oids,
        times,
        bytes_written: (writes * VERSION_BYTES) as u64,
    })
}

struct Measured {
    log: OpLog,
    end: Instant,
    bytes_read: u64,
    wrong: u64,
    first_wrong: Option<String>,
}

fn reads(sys: &System, args: &RunArgs, phase: &Phase, rep: u64) -> Measured {
    let mut rng = Rng::new(args.seed ^ 0x4849_5354_4f52_5953 ^ rep << 48);
    let mut m = Measured {
        log: OpLog::default(),
        end: phase.start,
        bytes_read: 0,
        wrong: 0,
        first_wrong: None,
    };
    let versions = sys.times[0].len();
    let t = &*sys.tracer;
    while phase.more(m.log.ops()) {
        let o = rng.index(sys.oids.len());
        let v = rng.index(versions);
        let req = Request::Read {
            oid: sys.oids[o],
            offset: 0,
            len: VERSION_BYTES as u64,
            time: Some(sys.times[o][v]),
        };
        let resp = m.log.time(t, || call(&sys.client, &req));
        // A planted wrong expectation: the neighbouring version.
        let expect_v = match (args.plant, v) {
            (false, _) => v,
            (true, 0) => 1,
            (true, _) => v - 1,
        };
        let ok = match &resp {
            Ok(Response::Data(d)) => {
                m.bytes_read += d.len() as u64;
                *d == content(args.seed, o, expect_v)
            }
            _ => false,
        };
        if !ok {
            m.wrong += 1;
            m.first_wrong.get_or_insert_with(|| {
                format!("object {o} version {v}: {resp:?}")
                    .chars()
                    .take(160)
                    .collect()
            });
        }
    }
    m.end = Instant::now();
    m
}

/// Runs the workload once. An untraced run builds [`LAYOUTS`] drives in
/// turn and measures each for an equal share of the time: where a sync
/// packs several dirty objects, the drive's object-table order sets the
/// log layout, so each drive gets a different layout, and the run
/// reports the pooled result over all of them.
pub fn run(args: &RunArgs, window: std::time::Duration) -> Report {
    let mut r = Report::default();
    let reps = args.reps(LAYOUTS);
    let seconds = args.seconds / reps as f64;
    let mut setup_s = Vec::with_capacity(reps);
    let mut log = OpLog::default();
    let mut host = std::time::Duration::ZERO;
    let mut sim_s = 0.0;
    let mut device_bytes_written = 0;
    let mut client_bytes_written = 0;
    let mut space_in_use = 0.0;
    for rep in 0..reps {
        let tracer = Tracer::new(args.trace, window);
        let t0 = Instant::now();
        let sys = match setup(args, tracer) {
            Ok(s) => s,
            Err(e) => {
                r.check("set-up completes", false, || e.to_string());
                return r;
            }
        };
        setup_s.push(t0.elapsed().as_secs_f64());
        let history = log_bytes_in_use(&sys.drive);
        let cache = (sys.drive.config().log.cache_blocks * 4096) as f64;
        if !args.smoke {
            r.check(
                format!(
                    "history: drive {rep}'s retained history is at least twice the block cache"
                ),
                history >= 2.0 * cache,
                || {
                    format!(
                        "{:.0} MiB in use, cache {:.0} MiB",
                        history / 1048576.0,
                        cache / 1048576.0
                    )
                },
            );
        }

        let before = DriveSnap::take(&sys.drive);
        let audited_before = sys.tracer.audited.load(Ordering::Relaxed);
        let phase = Phase::begin(args, seconds, u64::MAX, &sys.tracer);
        let sim0 = sys.clock.now();
        let m = reads(&sys, args, &phase, rep as u64);
        sim_s += (sys.clock.now() - sim0).as_secs_f64();
        host += m.end - phase.start;
        let after = DriveSnap::take(&sys.drive);
        let audited = sys.tracer.audited.load(Ordering::Relaxed) - audited_before;
        r.notes.push(format!(
            "history_reads drive {rep}: {} objects × {} versions, {:.0} MiB retained; {} reads in {:.2}s",
            sys.oids.len(),
            sys.times[0].len(),
            history / 1048576.0,
            m.log.attempted,
            (m.end - phase.start).as_secs_f64()
        ));
        r.check(
            format!("history: every read from drive {rep} returns the version current at its time"),
            m.wrong == 0,
            || {
                format!(
                    "{} wrong reads, first: {}",
                    m.wrong,
                    m.first_wrong.clone().unwrap_or_default()
                )
            },
        );
        let appended = sys.drive.stats().snapshot().audit_records;
        let sent = sys.tracer.audited.load(Ordering::Relaxed) + args.plant as u64;
        r.check(
            format!("history: drive {rep} appended one audit record per request sent"),
            appended == sent,
            || format!("drive appended {appended} audit records for {sent} requests"),
        );
        device_bytes_written += sys.drive.log().device().stats().bytes_written();
        client_bytes_written += sys.bytes_written;
        space_in_use += log_bytes_in_use(&sys.drive);

        if args.trace {
            let spans = sys.tracer.take_spans();
            let attribution = attribute(&spans, loopback_layer);
            r.not_applicable(&[("fs.self_us_per_op", "us/op"), ("fs.rpcs_per_op", "rpc/op")]);
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
                    layers: &["core", "disk"],
                },
            );
            r.not_applicable(&[
                ("self_us_per_op.fs", "us/op"),
                ("self_us_per_op.tcp", "us/op"),
                ("self_us_per_op.array", "us/op"),
            ]);
            finish_traced(
                &mut r,
                "history_reads",
                &sys.tracer,
                &phase,
                m.end,
                &m.log,
                &spans,
            );
        }
        log.merge(m.log);
        // The drive (and its ~0.5 GiB of history) is freed here, before
        // the next one is built.
    }
    if !args.trace {
        EndToEnd {
            log,
            host,
            sim_s,
            setup_s,
            device_bytes_written,
            client_bytes_written,
            space_in_use,
            check_p99_samples: !args.smoke,
        }
        .report(&mut r);
    }
    r
}
