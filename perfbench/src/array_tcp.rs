//! `array_tcp`: a mirrored 4×2 `S4Array` behind the TCP server, driven
//! by two client threads on two `TcpTransport` connections.
//!
//! All members share one simulated clock, as `S4Array::format` builds
//! them: the array's two-phase commit pins one `t0` from that clock for
//! every member. The simulated throughput is set by the busiest member
//! drive's device time (independent spindles). The clients send the S4 request stream
//! PostMark's NFS translator sends (measured on `postmark_nfs`, see
//! [`MIX`]): reads, getattrs, creates, and atomic batches that append
//! to one or two objects, sometimes delete one, and end in a `Sync`.
//! The array broadcasts a batch's `Sync` to every shard, so every batch
//! is a multi-shard two-phase commit. Every read is checked against the
//! client's own model of its objects.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use s4_array::{ArrayConfig, S4Array};
use s4_clock::{SimClock, SimDuration};
use s4_core::{
    ClientId, DriveConfig, ObjectId, OpKind, Request, RequestContext, Response, S4Drive, UserId,
};
use s4_fs::{FsResult, TcpServerHandle, TcpTransport, Transport};
use s4_workloads::Rng;

use crate::common::{
    admin_ctx, bucket_quantile, finish_traced, layer_metrics_from_drives, layer_metrics_from_trace,
    log_bytes_in_use, quantile, set_up, timed_dev, Buckets, Dev, DriveSnap, EndToEnd, OpLog, Phase,
    Report, RunArgs, TraceSummary,
};
use crate::trace::{attribute, tcp_layer, Kind, TracedHandler, TracedTransport, Tracer};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
const SHARDS: usize = 4;
const MIRRORS: usize = 2;
const CLIENTS: usize = 2;
/// Objects each client creates during set-up.
const OBJECTS_PER_CLIENT: usize = 8;
/// A client's creates turn into getattrs at this many objects, and its
/// deletes are left out at [`MIN_OBJECTS`].
const MAX_OBJECTS_PER_CLIENT: usize = 48;
const MIN_OBJECTS: usize = 4;
/// Appends turn into overwrites once an object is this long.
const MAX_OBJECT_BYTES: usize = 32 * 1024;
/// Initial contents, and the payload of each append or write in a
/// batch: the translator's mean write under PostMark is about 4 KiB.
const INITIAL_BYTES: usize = 4096;
const WRITE_BYTES: usize = 4096;
/// Read length: the NFS transfer size.
const READ_BYTES: u64 = 4096;
const DISK_BYTES: u64 = 256 << 20;

type Client = TracedTransport<TcpTransport>;
type Array = S4Array<Dev>;

struct Obj {
    oid: ObjectId,
    data: Vec<u8>,
}

/// One client's connection, identity and model of the objects it owns.
struct ClientState {
    conn: Client,
    ctx: RequestContext,
    objs: Vec<Obj>,
    bytes_written: u64,
}

impl ClientState {
    fn call(&self, req: &Request) -> FsResult<Response> {
        self.conn.call(&self.ctx, req)
    }
}

struct System {
    array: Arc<Array>,
    server: Option<TcpServerHandle>,
    clients: Vec<ClientState>,
    tracer: Arc<Tracer>,
}

impl System {
    fn members(&self) -> Vec<Arc<S4Drive<Dev>>> {
        (0..SHARDS)
            .flat_map(|s| (0..MIRRORS).map(move |k| (s, k)))
            .map(|(s, k)| self.array.member_drive(s, k))
            .collect()
    }

    fn shutdown(&mut self) {
        // Close the connections first so the server's connection threads
        // see end-of-stream and exit, then stop the accept thread.
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

impl Drop for System {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn err(e: impl std::fmt::Display) -> s4_fs::FsError {
    s4_fs::FsError::Storage(e.to_string())
}

fn setup(args: &RunArgs, tracer: Arc<Tracer>) -> FsResult<System> {
    let objects = if args.smoke { 4 } else { OBJECTS_PER_CLIENT };
    let mut drives = Vec::with_capacity(SHARDS * MIRRORS);
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    for i in 0..SHARDS * MIRRORS {
        let config = DriveConfig::default().with_oid_class(SHARDS as u64, (i / MIRRORS) as u64);
        drives.push(
            S4Drive::format(
                timed_dev(DISK_BYTES, &clock, &tracer),
                config,
                clock.clone(),
            )
            .map_err(err)?,
        );
    }
    let array = Arc::new(
        S4Array::from_drives(
            drives,
            ArrayConfig {
                mirrors: MIRRORS,
                ..ArrayConfig::default()
            },
        )
        .map_err(err)?,
    );
    let handler = Arc::new(TracedHandler::new(array.clone(), tracer.clone()));
    let server = TcpServerHandle::serve(handler, "127.0.0.1:0").map_err(err)?;
    let mut sys = System {
        array,
        server: None,
        clients: Vec::with_capacity(CLIENTS),
        tracer: tracer.clone(),
    };
    let addr = server.addr();
    sys.server = Some(server);
    let mut rng = Rng::new(args.seed);
    for c in 0..CLIENTS {
        let conn = TracedTransport::new(TcpTransport::connect(addr).map_err(err)?, tracer.clone());
        let ctx = RequestContext::user(UserId(100 + c as u32), ClientId(1 + c as u32));
        let mut client = ClientState {
            conn,
            ctx,
            objs: Vec::with_capacity(MAX_OBJECTS_PER_CLIENT),
            bytes_written: 0,
        };
        for _ in 0..objects {
            let oid = match client.call(&Request::Create)? {
                Response::Created(oid) => oid,
                other => return Err(err(format!("bad Create response {other:?}"))),
            };
            let data = rng.bytes(INITIAL_BYTES);
            client.call(&Request::Write {
                oid,
                offset: 0,
                data: data.clone(),
            })?;
            client.bytes_written += data.len() as u64;
            client.objs.push(Obj { oid, data });
        }
        client.call(&Request::Sync)?;
        sys.clients.push(client);
    }
    Ok(sys)
}

/// What one client thread saw in the measured phase.
#[derive(Default)]
struct ClientRun {
    log: OpLog,
    bytes_read: u64,
    bytes_written: u64,
    wrong_reads: u64,
    batches: u64,
    first_wrong: Option<String>,
}

impl ClientRun {
    fn wrong(&mut self, what: String) {
        self.wrong_reads += 1;
        self.first_wrong.get_or_insert(what);
    }
}

/// The kinds of request in the mix.
#[derive(Clone, Copy)]
enum Op {
    Read,
    GetAttr,
    Create,
    /// An atomic batch: appends to `writes` objects on different shards,
    /// optionally a delete, then a `Sync`.
    Batch {
        writes: usize,
        delete: bool,
    },
}

/// The mix, as exact counts per round of 200 requests: the S4 requests
/// PostMark's NFS translator sends in `postmark_nfs`'s measured phase
/// (printed by its traced run; seed 7: batches 45.4%, reads 26.9%,
/// getattrs 16.4%, creates 11.2%; per batch 1.52 writes, 0.25 deletes,
/// 0.25 truncates, 0.25 setattrs and one `Sync`). Truncates and setattrs
/// are left out; deletes match creates so the object count holds.
/// Dealing shuffled rounds instead of drawing each request on its own
/// keeps the payload written per run, and so `write_amp`, from varying
/// with the seed.
const MIX: [(Op, usize); 7] = [
    (Op::Read, 54),
    (Op::GetAttr, 33),
    (Op::Create, 22),
    (
        Op::Batch {
            writes: 1,
            delete: false,
        },
        33,
    ),
    (
        Op::Batch {
            writes: 2,
            delete: false,
        },
        36,
    ),
    (
        Op::Batch {
            writes: 1,
            delete: true,
        },
        11,
    ),
    (
        Op::Batch {
            writes: 2,
            delete: true,
        },
        11,
    ),
];

/// One shuffled round of [`MIX`].
fn shuffled_mix(rng: &mut Rng) -> Vec<Op> {
    let mut deck: Vec<Op> = MIX
        .iter()
        .flat_map(|&(op, n)| std::iter::repeat_n(op, n))
        .collect();
    for k in (1..deck.len()).rev() {
        deck.swap(k, rng.index(k + 1));
    }
    deck
}

fn write_into(data: &mut Vec<u8>, offset: usize, bytes: &[u8]) {
    if data.len() < offset + bytes.len() {
        data.resize(offset + bytes.len(), 0);
    }
    data[offset..offset + bytes.len()].copy_from_slice(bytes);
}

/// Reads `oid` whole and compares it with `expect`.
fn read_matches(client: &ClientState, oid: ObjectId, expect: &[u8]) -> Result<bool, String> {
    match client.call(&Request::Read {
        oid,
        offset: 0,
        len: expect.len() as u64 + 1,
        time: None,
    }) {
        Ok(Response::Data(d)) => Ok(d == expect),
        other => Err(format!("{other:?}").chars().take(160).collect()),
    }
}

fn shard_of(obj: &Obj) -> u64 {
    obj.oid.0 % SHARDS as u64
}

/// The request that adds `data` to `obj`: an append, or an overwrite
/// from the start once the object is long.
fn add_data(obj: &Obj, data: &[u8]) -> Request {
    if obj.data.len() + data.len() > MAX_OBJECT_BYTES {
        Request::Write {
            oid: obj.oid,
            offset: 0,
            data: data.to_vec(),
        }
    } else {
        Request::Append {
            oid: obj.oid,
            data: data.to_vec(),
        }
    }
}

/// Applies a request [`add_data`] built to the model.
fn apply_to_model(obj: &mut Obj, req: &Request) -> u64 {
    match req {
        Request::Append { data, .. } => {
            obj.data.extend_from_slice(data);
            data.len() as u64
        }
        Request::Write { data, .. } => {
            write_into(&mut obj.data, 0, data);
            data.len() as u64
        }
        _ => 0,
    }
}

/// One client's closed loop.
fn client_loop(
    client: &mut ClientState,
    tracer: &Tracer,
    phase: &Phase,
    seed: u64,
    plant: bool,
) -> ClientRun {
    let mut rng = Rng::new(seed);
    let mut run = ClientRun::default();
    let mut deck = Vec::new();
    while phase.more(run.log.ops()) {
        if deck.is_empty() {
            deck = shuffled_mix(&mut rng);
        }
        let i = rng.index(client.objs.len());
        let oid = client.objs[i].oid;
        let len = client.objs[i].data.len() as u64;
        match deck.pop().expect("deck refilled above") {
            Op::Read => {
                let offset = rng.below(len / READ_BYTES + 1) * READ_BYTES;
                let req = Request::Read {
                    oid,
                    offset,
                    len: READ_BYTES,
                    time: None,
                };
                let resp = run.log.time(tracer, || client.call(&req));
                let data = &client.objs[i].data;
                let end = (offset + READ_BYTES).min(len) as usize;
                let mut expect = data[(offset as usize).min(end)..end].to_vec();
                // A planted wrong expectation: one byte flipped.
                if plant && !expect.is_empty() {
                    expect[0] ^= 0xFF;
                }
                match resp {
                    Ok(Response::Data(d)) if d == expect => run.bytes_read += d.len() as u64,
                    other => run.wrong(format!("read {oid:?}@{offset}: {:?}", other.map(|_| ()))),
                }
            }
            Op::Create if client.objs.len() < MAX_OBJECTS_PER_CLIENT => {
                if let Ok(Response::Created(oid)) =
                    run.log.time(tracer, || client.call(&Request::Create))
                {
                    client.objs.push(Obj {
                        oid,
                        data: Vec::new(),
                    });
                }
            }
            Op::Create | Op::GetAttr => {
                let req = Request::GetAttr { oid, time: None };
                let expect = len + plant as u64;
                match run.log.time(tracer, || client.call(&req)) {
                    Ok(Response::Attrs(a)) if a.size == expect => {}
                    other => run.wrong(format!("getattr {oid:?}: {:?}", other.map(|_| ()))),
                }
            }
            Op::Batch { writes, delete } => {
                // Appends to `i` and, for two writes, to an object on
                // another shard; a delete of a third object.
                let home = shard_of(&client.objs[i]);
                let mut targets = vec![i];
                if writes == 2 {
                    if let Some(j) =
                        (0..client.objs.len()).find(|&j| shard_of(&client.objs[j]) != home)
                    {
                        targets.push(j);
                    }
                }
                let victim = (delete && client.objs.len() > MIN_OBJECTS)
                    .then(|| rng.index(client.objs.len()))
                    .filter(|v| !targets.contains(v));
                let mut reqs: Vec<Request> = targets
                    .iter()
                    .map(|&k| add_data(&client.objs[k], &rng.bytes(WRITE_BYTES)))
                    .collect();
                if let Some(v) = victim {
                    reqs.push(Request::Delete {
                        oid: client.objs[v].oid,
                    });
                }
                reqs.push(Request::Sync);
                let req = Request::Batch(reqs);
                run.batches += 1;
                if run.log.time(tracer, || client.call(&req)).is_ok() {
                    let Request::Batch(reqs) = &req else {
                        unreachable!("built as a batch above")
                    };
                    for (&k, sub) in targets.iter().zip(reqs) {
                        run.bytes_written += apply_to_model(&mut client.objs[k], sub);
                    }
                    if let Some(v) = victim {
                        client.objs.swap_remove(v);
                    }
                }
            }
        }
    }
    run
}

/// After the phase: every object reads back as its owner last wrote it.
fn final_read_back(sys: &System, plant: bool) -> (u64, Option<String>) {
    let mut bad = 0;
    let mut first = None;
    for client in &sys.clients {
        for obj in &client.objs {
            let mut expect = obj.data.clone();
            if plant {
                expect.push(0);
            }
            match read_matches(client, obj.oid, &expect) {
                Ok(true) => {}
                other => {
                    bad += 1;
                    first.get_or_insert(format!("{:?}: {other:?}", obj.oid));
                }
            }
        }
    }
    (bad, first)
}

/// A batch that must abort (its second write targets an object that
/// does not exist on another shard) leaves the first object unchanged.
fn abort_probe(sys: &System, plant: bool) -> Result<(), String> {
    let client = &sys.clients[0];
    let obj = &client.objs[0];
    let home = obj.oid.0 % SHARDS as u64;
    let missing = ObjectId((1 << 40) * SHARDS as u64 + (home + 1) % SHARDS as u64);
    let probe = vec![0xEE; 64];
    let req = Request::Batch(vec![
        Request::Write {
            oid: obj.oid,
            offset: 0,
            data: probe.clone(),
        },
        Request::Write {
            oid: missing,
            offset: 0,
            data: probe.clone(),
        },
    ]);
    if client.call(&req).is_ok() {
        return Err("a batch writing a missing object succeeded".into());
    }
    let mut expect = obj.data.clone();
    if plant {
        write_into(&mut expect, 0, &probe);
    }
    match client.call(&Request::Read {
        oid: obj.oid,
        offset: 0,
        len: expect.len() as u64 + probe.len() as u64,
        time: None,
    }) {
        Ok(Response::Data(d)) if d == expect => Ok(()),
        Ok(Response::Data(d)) => Err(format!(
            "object of {} bytes reads back as {} bytes, starting with the probe: {}",
            expect.len(),
            d.len(),
            d.starts_with(&probe)
        )),
        other => Err(format!("{other:?}").chars().take(160).collect()),
    }
}

/// Audit records of mutating requests on member `k` of `shard`.
fn mutating_audits(sys: &System, shard: usize, k: usize) -> Result<usize, String> {
    let drive = sys.array.member_drive(shard, k);
    let records = drive
        .read_audit_records(&admin_ctx(&drive))
        .map_err(|e| e.to_string())?;
    Ok(records
        .iter()
        .filter(|r| {
            !matches!(
                r.op,
                OpKind::Read
                    | OpKind::GetAttr
                    | OpKind::GetAclByUser
                    | OpKind::GetAclByIndex
                    | OpKind::PList
                    | OpKind::PMount
            )
        })
        .count())
}

fn txn_snapshot(array: &Array) -> (u64, Buckets, Buckets) {
    let reg = array.txn_registry();
    (
        reg.counter("s4_txn_committed_total", "").get(),
        reg.histogram("s4_txn_prepare_us", "").nonzero_buckets(),
        reg.histogram("s4_txn_decide_us", "").nonzero_buckets(),
    )
}

/// Runs the workload once.
pub fn run(args: &RunArgs, window: std::time::Duration) -> Report {
    let mut r = Report::default();
    let (mut sys, setup_s) = match set_up(args.reps(SETUP_REPS), || {
        let tracer = Tracer::new(args.trace, window);
        tracer.record_orphan_disk(true);
        setup(args, tracer)
    }) {
        Ok(s) => s,
        Err(e) => {
            r.check("set-up completes", false, || e.to_string());
            return r;
        }
    };
    let members = sys.members();

    let before: Vec<DriveSnap> = members.iter().map(|d| DriveSnap::take(d)).collect();
    let txn_before = txn_snapshot(&sys.array);
    let rpcs_before = sys.tracer.rpcs.load(Ordering::Relaxed);
    let audited_before = sys.tracer.audited.load(Ordering::Relaxed);
    let wire_before = sys.tracer.wire_bytes.load(Ordering::Relaxed);
    let phase = Phase::begin(args, args.seconds, u64::MAX, &sys.tracer);
    let tracer = sys.tracer.clone();
    let runs: Vec<ClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = sys
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let tracer = &*tracer;
                let phase = &phase;
                let seed = args.seed ^ (0xC11E_0000 + c as u64);
                s.spawn(move || client_loop(client, tracer, phase, seed, args.plant))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let end = Instant::now();
    let after: Vec<DriveSnap> = members.iter().map(|d| DriveSnap::take(d)).collect();
    let txn_after = txn_snapshot(&sys.array);
    let rpcs = sys.tracer.rpcs.load(Ordering::Relaxed) - rpcs_before;
    let audited = sys.tracer.audited.load(Ordering::Relaxed) - audited_before;
    let wire = sys.tracer.wire_bytes.load(Ordering::Relaxed) - wire_before;
    let spans = sys.tracer.take_spans();

    let mut log = OpLog::default();
    let mut bytes_read = 0;
    let mut wrong = 0;
    let mut first_wrong = None;
    let mut batches = 0;
    for (c, run) in runs.into_iter().enumerate() {
        bytes_read += run.bytes_read;
        sys.clients[c].bytes_written += run.bytes_written;
        wrong += run.wrong_reads;
        batches += run.batches;
        if first_wrong.is_none() {
            first_wrong = run.first_wrong;
        }
        log.merge(run.log);
    }
    // Busiest member's simulated device time in the phase.
    let busy_sim_s = before
        .iter()
        .zip(&after)
        .map(|(b, a)| (a.disk.busy_us - b.disk.busy_us) as f64 / 1e6)
        .fold(0.0, f64::max);
    r.notes.push(format!(
        "array_tcp: {} RPCs ({batches} atomic batches) from {CLIENTS} clients in {:.2}s",
        log.attempted,
        (end - phase.start).as_secs_f64()
    ));

    r.check(
        "array: every read returns the client's own last write",
        wrong == 0,
        || {
            format!(
                "{wrong} wrong replies, first: {}",
                first_wrong.unwrap_or_default()
            )
        },
    );
    let (bad, first) = final_read_back(&sys, args.plant);
    r.check(
        "array: every object reads back as its owner last wrote it, so every batch applied whole",
        bad == 0,
        || format!("{bad} objects differ, first: {}", first.unwrap_or_default()),
    );
    let probe = abort_probe(&sys, args.plant);
    r.check(
        "array: an aborted cross-shard batch leaves nothing behind",
        probe.is_ok(),
        || probe.clone().unwrap_err(),
    );
    for shard in 0..SHARDS {
        let counts: Result<Vec<usize>, String> = (0..MIRRORS)
            .map(|k| mutating_audits(&sys, shard, k))
            .collect();
        let ok = match &counts {
            Ok(c) => c.iter().all(|&n| n + args.plant as usize == c[0]) && c[0] > 0,
            Err(_) => false,
        };
        r.check(
            format!("array: shard {shard}'s mirrors end with equal audit counts"),
            ok,
            || format!("mutating audit records per member: {counts:?}"),
        );
    }

    if args.trace {
        let attribution = attribute(&spans, tcp_layer);
        r.not_applicable(&[("fs.self_us_per_op", "us/op"), ("fs.rpcs_per_op", "rpc/op")]);
        let by_id: std::collections::HashMap<u64, &crate::trace::Span> =
            spans.iter().map(|s| (s.id, s)).collect();
        let mut wire_ns = Vec::new();
        let mut dispatch_ns = Vec::new();
        for s in &spans {
            match s.kind {
                Kind::Rpc => {
                    if let Some(h) = attribution
                        .handle_of_rpc
                        .get(&s.id)
                        .and_then(|h| by_id.get(h))
                    {
                        wire_ns.push(s.dur() - h.dur());
                    }
                }
                Kind::Handle => dispatch_ns.push(s.dur()),
                _ => {}
            }
        }
        wire_ns.sort_unstable();
        dispatch_ns.sort_unstable();
        let us = |ns: u64| ns as f64 / 1e3;
        r.metric("tcp.wire_us_p50", us(quantile(&wire_ns, 0.5)), "us");
        r.metric("tcp.wire_us_p99", us(quantile(&wire_ns, 0.99)), "us");
        r.metric("tcp.bytes_per_rpc", wire as f64 / rpcs.max(1) as f64, "B");
        r.metric(
            "array.dispatch_us_p50",
            us(quantile(&dispatch_ns, 0.5)),
            "us",
        );
        r.metric(
            "array.dispatch_us_p99",
            us(quantile(&dispatch_ns, 0.99)),
            "us",
        );
        let per_shard: Vec<u64> = (0..SHARDS)
            .map(|s| after[s * MIRRORS].stats.requests - before[s * MIRRORS].stats.requests)
            .collect();
        let mean = per_shard.iter().sum::<u64>() as f64 / SHARDS as f64;
        let max = *per_shard.iter().max().unwrap_or(&0) as f64;
        r.metric("array.shard_skew", max / mean.max(1e-9), "ratio");
        let member_requests: u64 = before
            .iter()
            .zip(&after)
            .map(|(b, a)| a.stats.requests - b.stats.requests)
            .sum();
        r.metric(
            "array.member_requests_per_op",
            member_requests as f64 / log.attempted.max(1) as f64,
            "ratio",
        );
        r.metric("array.busy_sim_s_max", busy_sim_s, "s");
        r.metric(
            "txn.committed",
            (txn_after.0 - txn_before.0) as f64,
            "count",
        );
        r.metric(
            "txn.prepare_us_p99",
            bucket_quantile(&txn_before.1, &txn_after.1, 0.99) as f64,
            "us",
        );
        r.metric(
            "txn.decide_us_p99",
            bucket_quantile(&txn_before.2, &txn_after.2, 0.99) as f64,
            "us",
        );
        layer_metrics_from_drives(&mut r, &before, &after, log.attempted, bytes_read, audited);
        layer_metrics_from_trace(
            &mut r,
            &TraceSummary {
                spans: &spans,
                attribution: &attribution,
                ops: &log.traced,
                layer_of: tcp_layer,
                plant: args.plant,
                rpc_kind: Kind::Handle,
                layers: &["tcp", "array", "disk"],
            },
        );
        r.not_applicable(&[
            ("self_us_per_op.fs", "us/op"),
            ("self_us_per_op.core", "us/op"),
        ]);
        r.metric(
            "trace.unattributed_disk_us_per_op",
            attribution.unattributed_disk_ns as f64 / 1e3 / log.traced.len().max(1) as f64,
            "us/op",
        );
        finish_traced(&mut r, "array_tcp", &tracer, &phase, end, &log, &spans);
    } else {
        let payload: u64 = sys.clients.iter().map(|c| c.bytes_written).sum();
        EndToEnd {
            log,
            host: end - phase.start,
            sim_s: busy_sim_s,
            setup_s,
            device_bytes_written: members
                .iter()
                .map(|d| d.log().device().stats().bytes_written())
                .sum(),
            client_bytes_written: payload,
            space_in_use: members.iter().map(|d| log_bytes_in_use(d)).sum(),
            check_p99_samples: !args.smoke,
        }
        .report(&mut r);
    }
    drop(members);
    sys.shutdown();
    r
}
