//! Span recording for the traced run, from wrappers the benchmark owns.
//!
//! Four wrappers sit at the public layer boundaries of the stack:
//! [`TracedFs`] (the NFS translator's [`FileServer`] surface),
//! [`TracedTransport`] (the client side of one S4 RPC),
//! [`TracedHandler`] (the server side of one S4 RPC, behind TCP) and
//! [`TracedDev`] (the byte store under `TimedDisk`). Each records a
//! span — kind, id, parent, request id, start, end — into one
//! in-memory buffer that is analysed and written out when the run ends.
//!
//! The wrappers stay in place in an untraced run; there they only bump
//! the RPC counters the correctness checks need.
//!
//! Whether a client operation is traced is decided once, by the
//! benchmark loop, before the operation starts ([`Tracer::decide`]).
//! Nested spans on the same thread follow their parent. A server-side
//! span follows a marker bit the client sets in the request's trace id.
//! Device spans on array shard-worker threads carry no parent; the
//! analysis assigns each to the server span that contains it in time.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use s4_core::{Request, RequestContext, Response};
use s4_fs::{FileAttr, FileKind, FileServer, FsResult, Handle, RpcHandler, Transport};
use s4_simdisk::{BlockDev, DiskError};

/// Trace ids the benchmark mints for traced requests carry this bit, so
/// the server side records a span exactly when the client did.
const TRACED_BIT: u64 = 1 << 62;

/// Spans kept in memory; later spans are counted as dropped.
const MAX_SPANS: usize = 2_000_000;

/// Which boundary a span was recorded at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One NFS operation on the translator's `FileServer` surface.
    Fs,
    /// One S4 RPC, client side (`Transport::call`).
    Rpc,
    /// One S4 RPC, server side (`RpcHandler::handle`).
    Handle,
    /// One read, write or peek of the byte store under `TimedDisk`.
    Disk,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Fs => "fs",
            Kind::Rpc => "rpc",
            Kind::Handle => "handle",
            Kind::Disk => "disk",
        }
    }
}

/// One recorded span. Times are nanoseconds since the tracer's base.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Boundary kind.
    pub kind: Kind,
    /// Unique nonzero id.
    pub id: u64,
    /// Id of the enclosing span, 0 when none is known.
    pub parent: u64,
    /// Id of the root span of the client operation, 0 when unknown.
    pub req: u64,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// For RPC spans: the request is, or carries, a `Sync`.
    pub sync: bool,
}

impl Span {
    /// Duration, ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

thread_local! {
    /// Open spans on this thread: (id, req).
    static OPEN: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
    /// The benchmark loop's decision for the operation this thread runs.
    static OP_TRACED: Cell<bool> = const { Cell::new(false) };
    /// Id of the last root span opened on this thread, 0 once taken.
    static LAST_ROOT: Cell<u64> = const { Cell::new(0) };
}

/// The span buffer plus the always-on RPC counters.
pub struct Tracer {
    base: Instant,
    /// Tracing mode: traced and untraced windows alternate.
    mode: bool,
    window: Duration,
    /// Record device spans seen on threads with no open span (array
    /// shard workers), by time window.
    orphan_disk: AtomicBool,
    /// Start of the measured phase, ns since `base`.
    phase_start: AtomicU64,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    dropped: AtomicU64,
    /// RPCs sent through a [`TracedTransport`].
    pub rpcs: AtomicU64,
    /// Audited requests those RPCs carry (batch sub-requests counted
    /// one by one).
    pub audited: AtomicU64,
    /// `wire_size` of requests plus responses.
    pub wire_bytes: AtomicU64,
    /// Requests sent in the measured phase of a traced run by kind, with
    /// their payload bytes: `(inside a batch, kind, count, bytes)`.
    mix: Mutex<Vec<(bool, &'static str, u64, u64)>>,
}

impl Tracer {
    /// A tracer; with `mode`, traced and untraced windows of `window`
    /// alternate from [`Tracer::start_phase`] on.
    pub fn new(mode: bool, window: Duration) -> Arc<Tracer> {
        Arc::new(Tracer {
            base: Instant::now(),
            mode,
            window,
            orphan_disk: AtomicBool::new(false),
            phase_start: AtomicU64::new(u64::MAX),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
            rpcs: AtomicU64::new(0),
            audited: AtomicU64::new(0),
            wire_bytes: AtomicU64::new(0),
            mix: Mutex::new(Vec::new()),
        })
    }

    /// Also record device spans on threads without an open span.
    pub fn record_orphan_disk(&self, on: bool) {
        self.orphan_disk.store(on, Ordering::SeqCst);
    }

    /// Nanoseconds since the tracer's base, the spans' time scale.
    pub fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Starts the measured phase: windows count from `at`.
    pub fn start_phase(&self, at: Instant) {
        let ns = at.duration_since(self.base).as_nanos() as u64;
        self.phase_start.store(ns, Ordering::SeqCst);
    }

    /// Whether the window containing now is traced: even windows of the
    /// measured phase are, so a short run is traced from its start.
    fn window_traced(&self) -> bool {
        let start = self.phase_start.load(Ordering::Relaxed);
        let t = self.now_ns();
        self.mode && t >= start && ((t - start) / self.window.as_nanos() as u64).is_multiple_of(2)
    }

    /// Decides whether the next client operation on this thread is
    /// traced and remembers it for the wrappers.
    pub fn decide(&self) -> bool {
        let traced = self.window_traced();
        OP_TRACED.with(|c| c.set(traced));
        traced
    }

    /// Time spent in traced and untraced windows between `start` and
    /// `end`: `(traced, untraced)`.
    pub fn split_time(&self, start: Instant, end: Instant) -> (Duration, Duration) {
        let total = end.duration_since(start);
        if !self.mode {
            return (Duration::ZERO, total);
        }
        let w = self.window.as_nanos() as u64;
        let t = total.as_nanos() as u64;
        let full = t / w;
        let rem = t % w;
        let mut traced = full.div_ceil(2) * w;
        if full.is_multiple_of(2) {
            traced += rem;
        }
        let traced = Duration::from_nanos(traced);
        (traced, total - traced)
    }

    /// Whether a span opened now on this thread should be recorded, and
    /// its parent and request ids.
    fn should_record(&self, kind: Kind) -> Option<(u64, u64)> {
        if let Some(top) = OPEN.with(|o| o.borrow().last().copied()) {
            return Some(top);
        }
        if kind == Kind::Disk {
            let on = self.orphan_disk.load(Ordering::Relaxed) && self.window_traced();
            return on.then_some((0, 0));
        }
        OP_TRACED.with(|c| c.get()).then_some((0, 0))
    }

    /// Ends the client operation on this thread: later calls outside an
    /// operation are not traced. Returns the root span the operation
    /// opened, 0 if none.
    pub fn finish_op(&self) -> u64 {
        OP_TRACED.with(|c| c.set(false));
        LAST_ROOT.with(|c| c.replace(0))
    }

    fn open(&self, kind: Kind, parent: u64, req: u64) -> Open {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let req = if req == 0 { id } else { req };
        if parent == 0 && kind != Kind::Disk {
            LAST_ROOT.with(|c| c.set(id));
        }
        OPEN.with(|o| o.borrow_mut().push((id, req)));
        Open {
            id,
            parent,
            req,
            start: self.now_ns(),
        }
    }

    fn close(&self, open: Open, kind: Kind, sync: bool) {
        let end = self.now_ns();
        OPEN.with(|o| o.borrow_mut().pop());
        let span = Span {
            kind,
            id: open.id,
            parent: open.parent,
            req: open.req,
            start: open.start,
            end,
            sync,
        };
        let mut spans = self.spans.lock().expect("span buffer lock poisoned");
        if spans.len() < MAX_SPANS {
            spans.push(span);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Runs `f` inside a span of `kind` when the current operation is
    /// traced.
    fn span<R>(&self, kind: Kind, f: impl FnOnce() -> R) -> R {
        match self.should_record(kind) {
            None => f(),
            Some((parent, req)) => {
                let open = self.open(kind, parent, req);
                let r = f();
                self.close(open, kind, false);
                r
            }
        }
    }

    /// Every span recorded so far.
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer lock poisoned"))
    }

    fn count_request(&self, req: &Request, resp: &FsResult<Response>) {
        let mut mix = self.mix.lock().expect("request mix lock poisoned");
        let mut add = |in_batch: bool, kind: &'static str, bytes: u64| match mix
            .iter_mut()
            .find(|m| m.0 == in_batch && m.1 == kind)
        {
            Some(m) => {
                m.2 += 1;
                m.3 += bytes;
            }
            None => mix.push((in_batch, kind, 1, bytes)),
        };
        add(
            false,
            request_kind(req),
            payload_bytes(req, resp.as_ref().ok()),
        );
        if let Request::Batch(reqs) = req {
            for sub in reqs {
                add(true, request_kind(sub), payload_bytes(sub, None));
            }
        }
    }

    /// The requests sent in the measured phase by kind: each kind's share of all RPCs
    /// and its mean payload, then what a batch holds on average.
    pub fn request_mix(&self) -> String {
        let mut mix = self.mix.lock().expect("request mix lock poisoned").clone();
        mix.sort_by(|a, b| a.0.cmp(&b.0).then(b.2.cmp(&a.2)));
        let total: u64 = mix.iter().filter(|m| !m.0).map(|m| m.2).sum();
        let batches = mix
            .iter()
            .find(|m| !m.0 && m.1 == "batch")
            .map_or(0, |m| m.2);
        let parts: Vec<String> = mix
            .iter()
            .map(|&(in_batch, kind, n, bytes)| {
                let mean = bytes / n.max(1);
                if in_batch {
                    format!(
                        "per batch {kind} {:.2} ({mean} B)",
                        n as f64 / batches.max(1) as f64
                    )
                } else {
                    format!(
                        "{kind} {:.2}% ({mean} B)",
                        100.0 * n as f64 / total.max(1) as f64
                    )
                }
            })
            .collect();
        format!("{total} RPCs: {}", parts.join(", "))
    }

    /// Spans dropped because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

struct Open {
    id: u64,
    parent: u64,
    req: u64,
    start: u64,
}

fn carries_sync(req: &Request) -> bool {
    match req {
        Request::Sync => true,
        Request::Batch(reqs) => reqs.iter().any(carries_sync),
        _ => false,
    }
}

fn request_kind(req: &Request) -> &'static str {
    match req {
        Request::Create => "create",
        Request::Delete { .. } => "delete",
        Request::Read { .. } => "read",
        Request::Write { .. } => "write",
        Request::Append { .. } => "append",
        Request::Truncate { .. } => "truncate",
        Request::GetAttr { .. } => "getattr",
        Request::SetAttr { .. } => "setattr",
        Request::PCreate { .. } => "pcreate",
        Request::PMount { .. } => "pmount",
        Request::Sync => "sync",
        Request::Batch(_) => "batch",
        _ => "other",
    }
}

/// Client payload a request moves: the data it writes, or the data a
/// read returned.
fn payload_bytes(req: &Request, resp: Option<&Response>) -> u64 {
    match (req, resp) {
        (Request::Write { data, .. } | Request::Append { data, .. }, _) => data.len() as u64,
        (Request::Read { .. }, Some(Response::Data(d))) => d.len() as u64,
        _ => 0,
    }
}

fn audited_requests(req: &Request) -> u64 {
    match req {
        Request::Batch(reqs) => reqs.iter().map(audited_requests).sum(),
        _ => 1,
    }
}

/// [`Transport`] wrapper: counts every RPC and, when traced, records a
/// [`Kind::Rpc`] span and stamps the request's trace id with the span's
/// id (plus the traced marker), which the server side records as its
/// parent.
pub struct TracedTransport<T: Transport> {
    inner: T,
    tracer: Arc<Tracer>,
}

impl<T: Transport> TracedTransport<T> {
    /// Wraps `inner`.
    pub fn new(inner: T, tracer: Arc<Tracer>) -> Self {
        TracedTransport { inner, tracer }
    }
}

impl<T: Transport> Transport for TracedTransport<T> {
    fn call(&self, ctx: &RequestContext, req: &Request) -> FsResult<Response> {
        let t = &self.tracer;
        t.rpcs.fetch_add(1, Ordering::Relaxed);
        t.audited
            .fetch_add(audited_requests(req), Ordering::Relaxed);
        let resp = match t.should_record(Kind::Rpc) {
            None => self.inner.call(ctx, req),
            Some((parent, req_id)) => {
                let open = t.open(Kind::Rpc, parent, req_id);
                let mut ctx = *ctx;
                ctx.trace.trace_id = TRACED_BIT | open.id;
                let resp = self.inner.call(&ctx, req);
                t.close(open, Kind::Rpc, carries_sync(req));
                resp
            }
        };
        t.wire_bytes
            .fetch_add(wire_bytes(req, &resp), Ordering::Relaxed);
        if t.mode && t.phase_start.load(Ordering::Relaxed) != u64::MAX {
            t.count_request(req, &resp);
        }
        resp
    }

    fn clock(&self) -> &s4_clock::SimClock {
        self.inner.clock()
    }
}

fn wire_bytes(req: &Request, resp: &FsResult<Response>) -> u64 {
    let resp = resp.as_ref().map(|r| r.wire_size()).unwrap_or(16);
    (req.wire_size() + resp) as u64
}

/// [`RpcHandler`] wrapper: records a [`Kind::Handle`] span for requests
/// whose trace id carries the benchmark's traced marker, parented to the
/// client span that sent them.
pub struct TracedHandler<H: RpcHandler> {
    inner: Arc<H>,
    tracer: Arc<Tracer>,
}

impl<H: RpcHandler> TracedHandler<H> {
    /// Wraps `inner`.
    pub fn new(inner: Arc<H>, tracer: Arc<Tracer>) -> Self {
        TracedHandler { inner, tracer }
    }
}

impl<H: RpcHandler> RpcHandler for TracedHandler<H> {
    fn handle(&self, ctx: &RequestContext, req: &Request) -> s4_core::Result<Response> {
        let id = ctx.trace.trace_id;
        if id & TRACED_BIT == 0 {
            return self.inner.handle(ctx, req);
        }
        let client_span = id & !TRACED_BIT;
        let open = self.tracer.open(Kind::Handle, client_span, client_span);
        let resp = self.inner.handle(ctx, req);
        self.tracer.close(open, Kind::Handle, carries_sync(req));
        resp
    }

    fn stats_text(&self) -> String {
        self.inner.stats_text()
    }

    fn reshard_text(&self) -> String {
        self.inner.reshard_text()
    }

    fn txn_text(&self) -> String {
        self.inner.txn_text()
    }
}

/// [`BlockDev`] wrapper placed under `TimedDisk`: times the raw byte
/// store's host cost.
pub struct TracedDev<D: BlockDev> {
    inner: D,
    tracer: Arc<Tracer>,
}

impl<D: BlockDev> TracedDev<D> {
    /// Wraps `inner`.
    pub fn new(inner: D, tracer: Arc<Tracer>) -> Self {
        TracedDev { inner, tracer }
    }
}

impl<D: BlockDev> BlockDev for TracedDev<D> {
    fn num_sectors(&self) -> u64 {
        self.inner.num_sectors()
    }

    fn read(&self, sector: u64, buf: &mut [u8]) -> Result<(), DiskError> {
        self.tracer
            .span(Kind::Disk, || self.inner.read(sector, buf))
    }

    fn write(&self, sector: u64, buf: &[u8]) -> Result<(), DiskError> {
        self.tracer
            .span(Kind::Disk, || self.inner.write(sector, buf))
    }

    fn sync(&self) -> Result<(), DiskError> {
        self.inner.sync()
    }

    fn peek(&self, sector: u64, buf: &mut [u8]) -> Result<(), DiskError> {
        self.tracer
            .span(Kind::Disk, || self.inner.peek(sector, buf))
    }
}

/// [`FileServer`] wrapper: one [`Kind::Fs`] root span per NFS operation.
pub struct TracedFs<S: FileServer> {
    inner: S,
    tracer: Arc<Tracer>,
}

impl<S: FileServer> TracedFs<S> {
    /// Wraps `inner`.
    pub fn new(inner: S, tracer: Arc<Tracer>) -> Self {
        TracedFs { inner, tracer }
    }

    /// The wrapped server.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn span<R>(&self, f: impl FnOnce(&S) -> R) -> R {
        self.tracer.span(Kind::Fs, || f(&self.inner))
    }
}

impl<S: FileServer> FileServer for TracedFs<S> {
    fn root(&self) -> Handle {
        self.inner.root()
    }
    fn lookup(&self, dir: Handle, name: &str) -> FsResult<Handle> {
        self.span(|s| s.lookup(dir, name))
    }
    fn create(&self, dir: Handle, name: &str) -> FsResult<Handle> {
        self.span(|s| s.create(dir, name))
    }
    fn mkdir(&self, dir: Handle, name: &str) -> FsResult<Handle> {
        self.span(|s| s.mkdir(dir, name))
    }
    fn symlink(&self, dir: Handle, name: &str, target: &str) -> FsResult<Handle> {
        self.span(|s| s.symlink(dir, name, target))
    }
    fn readlink(&self, file: Handle) -> FsResult<String> {
        self.span(|s| s.readlink(file))
    }
    fn read(&self, file: Handle, offset: u64, len: u64) -> FsResult<Vec<u8>> {
        self.span(|s| s.read(file, offset, len))
    }
    fn write(&self, file: Handle, offset: u64, data: &[u8]) -> FsResult<()> {
        self.span(|s| s.write(file, offset, data))
    }
    fn getattr(&self, file: Handle) -> FsResult<FileAttr> {
        self.span(|s| s.getattr(file))
    }
    fn truncate(&self, file: Handle, size: u64) -> FsResult<()> {
        self.span(|s| s.truncate(file, size))
    }
    fn remove(&self, dir: Handle, name: &str) -> FsResult<()> {
        self.span(|s| s.remove(dir, name))
    }
    fn rmdir(&self, dir: Handle, name: &str) -> FsResult<()> {
        self.span(|s| s.rmdir(dir, name))
    }
    fn rename(&self, fd: Handle, fname: &str, td: Handle, tname: &str) -> FsResult<()> {
        self.span(|s| s.rename(fd, fname, td, tname))
    }
    fn readdir(&self, dir: Handle) -> FsResult<Vec<(String, Handle, FileKind)>> {
        self.span(|s| s.readdir(dir))
    }
    fn now(&self) -> s4_clock::SimTime {
        self.inner.now()
    }
}

/// Which layer a span's self time belongs to, per workload.
pub type LayerOf = fn(Kind) -> &'static str;

/// Layers of the single-drive stacks: the client side of an RPC through
/// `LoopbackTransport` is the drive's own dispatch.
pub fn loopback_layer(k: Kind) -> &'static str {
    match k {
        Kind::Fs => "fs",
        Kind::Rpc => "core",
        Kind::Handle => "array",
        Kind::Disk => "disk",
    }
}

/// Layers of the TCP stack: the client side of an RPC minus the server
/// side is the wire.
pub fn tcp_layer(k: Kind) -> &'static str {
    match k {
        Kind::Rpc => "tcp",
        other => loopback_layer(other),
    }
}

/// Result of attributing host time to layers.
#[derive(Debug, Default)]
pub struct Attribution {
    /// Self time per layer, ns, over every traced client operation, by
    /// the sweep: each instant goes to the deepest active span.
    pub self_ns: Vec<(&'static str, u64)>,
    /// The same figure computed separately, by interval union: each
    /// span's duration minus the union of its children's intervals.
    pub union_ns: Vec<(&'static str, u64)>,
    /// Root spans by id.
    pub roots: HashMap<u64, RootTimes>,
    /// Spans that end outside their parent, or whose parent (for a
    /// server span: the client span that sent it) was not recorded.
    pub nesting_violations: u64,
    /// Device spans not inside any traced server span (array only).
    pub unattributed_disk_ns: u64,
    /// Server spans by id, for the wire-time computation.
    pub handle_of_rpc: HashMap<u64, u64>,
}

/// One root span and the interval-union self times of its tree.
#[derive(Clone, Copy, Debug)]
pub struct RootTimes {
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// Sum over the root's tree of the interval-union self times, ns.
    pub union_ns: u64,
}

impl RootTimes {
    /// Duration, ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

impl Attribution {
    /// Self time of `layer` by the sweep, ns.
    pub fn self_of(&self, layer: &str) -> u64 {
        total_of(&self.self_ns, layer)
    }

    /// Self time of `layer` by interval union, ns.
    pub fn union_of(&self, layer: &str) -> u64 {
        total_of(&self.union_ns, layer)
    }
}

fn total_of(totals: &[(&'static str, u64)], layer: &str) -> u64 {
    totals.iter().find(|x| x.0 == layer).map_or(0, |x| x.1)
}

fn add_to(totals: &mut Vec<(&'static str, u64)>, layer: &'static str, ns: u64) {
    match totals.iter_mut().find(|(l, _)| *l == layer) {
        Some((_, v)) => *v += ns,
        None => totals.push((layer, ns)),
    }
}

/// Length of the union of `intervals`.
fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = 0;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Adds the interval-union self times of span `i`'s tree, clamped to
/// `within`, to `totals`; returns their sum. A span's self time is its
/// duration minus the union of its children's intervals. A parent's
/// leaf children of one layer count as one merged interval set, so
/// parallel device accesses of one request count once; overlapping
/// children of different layers, or overlapping children with children
/// of their own, count twice, and the root's sum then exceeds its
/// duration.
fn union_self(
    spans: &[Span],
    children: &HashMap<u64, Vec<usize>>,
    i: usize,
    within: (u64, u64),
    layer_of: LayerOf,
    totals: &mut Vec<(&'static str, u64)>,
) -> u64 {
    let s = &spans[i];
    let lo = s.start.clamp(within.0, within.1);
    let hi = s.end.clamp(within.0, within.1);
    let mut covered = Vec::new();
    let mut leaves: Vec<(&'static str, Vec<(u64, u64)>)> = Vec::new();
    let mut sum = 0;
    for &c in children.get(&s.id).map_or(&[][..], |v| v) {
        let cs = &spans[c];
        let iv = (cs.start.clamp(lo, hi), cs.end.clamp(lo, hi));
        covered.push(iv);
        if children.contains_key(&cs.id) {
            sum += union_self(spans, children, c, (lo, hi), layer_of, totals);
        } else {
            let layer = layer_of(cs.kind);
            match leaves.iter_mut().find(|l| l.0 == layer) {
                Some(l) => l.1.push(iv),
                None => leaves.push((layer, vec![iv])),
            }
        }
    }
    let own = (hi - lo).saturating_sub(union_len(&mut covered));
    add_to(totals, layer_of(s.kind), own);
    sum += own;
    for (layer, mut ivs) in leaves {
        let ns = union_len(&mut ivs);
        add_to(totals, layer, ns);
        sum += ns;
    }
    sum
}

/// Attributes every traced root span's time to layers, twice. The
/// sweep gives each instant of a root to the deepest span active then,
/// so parallel children (one request's writes on several array members)
/// count once and the layers of one root always sum to its duration.
/// The interval union ([`union_self`]) computes the same self times span
/// by span; the run checks that both agree and that each root's union
/// sum equals its duration.
pub fn attribute(spans: &[Span], layer_of: LayerOf) -> Attribution {
    let mut out = Attribution::default();
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
    let mut handles: Vec<usize> = Vec::new();
    let mut orphan_disks: Vec<usize> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if s.kind == Kind::Handle {
            handles.push(i);
        }
        if s.parent == 0 {
            if s.kind == Kind::Disk {
                orphan_disks.push(i);
            }
            continue;
        }
        match index.get(&s.parent) {
            Some(&p) => {
                let ps = &spans[p];
                if s.start < ps.start || s.end > ps.end {
                    out.nesting_violations += 1;
                }
                if s.kind == Kind::Handle {
                    out.handle_of_rpc.insert(ps.id, s.id);
                }
                children.entry(ps.id).or_default().push(i);
            }
            None => out.nesting_violations += 1,
        }
    }
    // Device spans from shard workers: assign each to the latest-started
    // server span that contains it.
    handles.sort_by_key(|&i| spans[i].start);
    for &d in &orphan_disks {
        let ds = &spans[d];
        let upto = handles.partition_point(|&h| spans[h].start <= ds.start);
        let owner = handles[..upto]
            .iter()
            .rev()
            .take(64)
            .find(|&&h| spans[h].end >= ds.end && index.contains_key(&spans[h].parent));
        match owner {
            Some(&h) => children.entry(spans[h].id).or_default().push(d),
            None => out.unattributed_disk_ns += ds.dur(),
        }
    }

    let mut totals: Vec<(&'static str, u64)> = Vec::new();
    let mut tree: Vec<(usize, usize)> = Vec::new();
    let mut events: Vec<(u64, bool, usize)> = Vec::new();
    for (ri, root) in spans.iter().enumerate() {
        if root.parent != 0 || root.kind == Kind::Disk || root.kind == Kind::Handle {
            continue;
        }
        let union_ns = union_self(
            spans,
            &children,
            ri,
            (root.start, root.end),
            layer_of,
            &mut out.union_ns,
        );
        out.roots.insert(
            root.id,
            RootTimes {
                start: root.start,
                end: root.end,
                union_ns,
            },
        );
        // Collect the tree with depths.
        tree.clear();
        tree.push((ri, 0));
        let mut k = 0;
        while k < tree.len() {
            let (i, depth) = tree[k];
            if let Some(cs) = children.get(&spans[i].id) {
                for &c in cs {
                    tree.push((c, depth + 1));
                }
            }
            k += 1;
        }
        // Sweep: each instant goes to the deepest active span.
        events.clear();
        let mut kind_at: Vec<Kind> = Vec::new();
        for &(i, depth) in &tree {
            let s = &spans[i];
            let start = s.start.clamp(root.start, root.end);
            let end = s.end.clamp(root.start, root.end);
            if end <= start {
                continue;
            }
            if kind_at.len() <= depth {
                kind_at.resize(depth + 1, s.kind);
            }
            kind_at[depth] = s.kind;
            events.push((start, true, depth));
            events.push((end, false, depth));
        }
        // Ends sort before starts at the same instant.
        events.sort_by_key(|&(t, is_start, _)| (t, is_start));
        let mut active = vec![0u32; kind_at.len()];
        let mut prev = root.start;
        for &(t, is_start, depth) in &events {
            if t > prev {
                if let Some(d) = (0..active.len()).rev().find(|&d| active[d] > 0) {
                    add_to(&mut totals, layer_of(kind_at[d]), t - prev);
                }
                prev = t;
            }
            if is_start {
                active[depth] += 1;
            } else {
                active[depth] -= 1;
            }
        }
    }
    out.self_ns = totals;
    out
}

/// Writes spans as CSV (`kind,id,parent,req,start_ns,end_ns,sync`).
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "kind,id,parent,req,start_ns,end_ns,sync")?;
    for s in spans {
        writeln!(
            w,
            "{},{},{},{},{},{},{}",
            s.kind.name(),
            s.id,
            s.parent,
            s.req,
            s.start,
            s.end,
            s.sync as u8
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            kind,
            id,
            parent,
            req: 0,
            start,
            end,
            sync: false,
        }
    }

    fn layer(k: Kind) -> &'static str {
        k.name()
    }

    #[test]
    fn self_times_of_a_nested_tree_sum_to_the_root() {
        let spans = [
            span(Kind::Fs, 1, 0, 0, 100),
            span(Kind::Rpc, 2, 1, 10, 90),
            span(Kind::Disk, 3, 2, 20, 30),
            span(Kind::Disk, 4, 2, 50, 70),
        ];
        let a = attribute(&spans, layer);
        let get = |l| a.self_ns.iter().find(|(n, _)| *n == l).map(|x| x.1);
        assert_eq!(get("fs"), Some(20));
        assert_eq!(get("rpc"), Some(50));
        assert_eq!(get("disk"), Some(30));
        assert_eq!(a.roots[&1].union_ns, 100);
        for l in ["fs", "rpc", "disk"] {
            assert_eq!(a.union_of(l), a.self_of(l), "{l}");
        }
        assert_eq!(a.nesting_violations, 0);
    }

    #[test]
    fn parallel_children_count_once_and_orphans_find_their_handle() {
        let spans = [
            span(Kind::Rpc, 1, 0, 0, 100),
            span(Kind::Handle, 2, 1, 10, 90),
            span(Kind::Disk, 3, 0, 20, 60),
            span(Kind::Disk, 4, 0, 40, 80),
            span(Kind::Disk, 5, 0, 95, 99),
        ];
        let a = attribute(&spans, layer);
        let get = |l| a.self_ns.iter().find(|(n, _)| *n == l).map(|x| x.1);
        assert_eq!(get("rpc"), Some(20));
        assert_eq!(get("handle"), Some(20));
        assert_eq!(get("disk"), Some(60));
        assert_eq!(a.unattributed_disk_ns, 4);
        assert_eq!(a.handle_of_rpc.get(&1), Some(&2));
        assert_eq!(a.roots[&1].union_ns, 100);
        assert_eq!(a.union_of("disk"), 60);
    }

    #[test]
    fn overlapping_children_of_two_layers_break_the_union_sum() {
        let spans = [
            span(Kind::Rpc, 1, 0, 0, 100),
            span(Kind::Handle, 2, 1, 0, 100),
            span(Kind::Disk, 3, 1, 0, 100),
        ];
        let a = attribute(&spans, layer);
        assert_eq!(a.roots[&1].union_ns, 200);
        assert_eq!(a.self_ns.iter().map(|x| x.1).sum::<u64>(), 100);
    }

    #[test]
    fn a_child_outside_its_parent_is_a_violation() {
        let spans = [span(Kind::Fs, 1, 0, 0, 10), span(Kind::Rpc, 2, 1, 5, 20)];
        assert_eq!(attribute(&spans, layer).nesting_violations, 1);
    }
}
