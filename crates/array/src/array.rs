//! The array itself: per-shard worker threads, bounded request queues,
//! mirrored members with degraded mode, and scatter-gather dispatch.

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

use s4_clock::sync::{Mutex, RwLock};
use s4_clock::{SimClock, SimDuration};
use s4_core::{
    ClientId, DiskFaultKind, DriveConfig, ObjectId, OpKind, RecoveryReport, Request,
    RequestContext, Response, S4Drive, S4Error, TraceCtx, TraceIdGen, PARTITION_OBJECT,
    PHASE_APPLY, PHASE_DECIDE, PHASE_NOTE, PHASE_PREPARE,
};
use s4_fs::RpcHandler;
use s4_obs::Registry;
use s4_simdisk::BlockDev;
use s4_txn::{note_name, parse_note, TwoPhaseOps, TxId, TxIdGen, TxnOutcome};

use crate::epoch::{EpochInfo, FlipReport, EPOCH_NOTE_PREFIX, RESERVED_NAME_PREFIX};
use crate::router::{dense_of, route, split_batch, BatchPlan, Merge, Route};

/// Returned when a shard's worker thread is gone (array shutting down
/// or worker panicked).
const WORKER_GONE: S4Error = S4Error::BadRequest("array shard worker unavailable");

/// Returned for mutations when every member of the shard has fallen
/// back to read-only (a lone member that exhausted its write retries).
const SHARD_READ_ONLY: S4Error = S4Error::BadRequest("array shard is read-only (degraded)");

/// Returned when every member of a shard is dead.
const SHARD_DEAD: S4Error = S4Error::BadRequest("array shard has no live members");

/// Array-level tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ArrayConfig {
    /// Bound of each shard's request queue. A full queue blocks the
    /// submitting client thread (backpressure) instead of growing
    /// without limit — the array runs one worker per shard, not one
    /// thread per connection.
    pub queue_depth: usize,
    /// Member drives per shard (1 = no redundancy). With `m` mirrors,
    /// `devices.len()` must be a multiple of `m`; shard `s` owns
    /// devices `s*m .. (s+1)*m`, all formatted in the same ObjectID
    /// residue class. Mutations apply to every in-sync member; reads
    /// are served by the first live member, failing over on disk
    /// faults.
    pub mirrors: usize,
    /// How many times a transient disk fault (an I/O error, as opposed
    /// to whole-device failure) is retried before the member is
    /// declared dead.
    pub retries: u32,
    /// Base backoff between retries, charged to the simulated clock and
    /// doubled on each attempt.
    pub retry_backoff_us: u64,
    /// Assign a causal trace id to every request entering the array
    /// whose context carries none, so member drives persist v2 trace
    /// records joinable across shards (DESIGN §6j). Off, requests the
    /// caller left untraced stay untraced and records encode as v1 —
    /// the `fig_trace` benchmark's baseline.
    pub trace: bool,
}

impl Default for ArrayConfig {
    fn default() -> Self {
        ArrayConfig {
            queue_depth: 64,
            mirrors: 1,
            retries: 3,
            retry_backoff_us: 100,
            trace: true,
        }
    }
}

impl ArrayConfig {
    /// Validates the knobs that workers would otherwise trip over at
    /// runtime: a zero mirror count (shards with no members), and a
    /// zero queue depth (a rendezvous channel every send deadlocks on).
    pub fn validate(&self) -> s4_core::Result<()> {
        if self.mirrors == 0 {
            return Err(S4Error::BadRequest("array: mirrors must be at least 1"));
        }
        if self.queue_depth == 0 {
            return Err(S4Error::BadRequest("array: queue depth must be at least 1"));
        }
        Ok(())
    }
}

/// Health of one mirrored member drive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemberState {
    /// Healthy: serves reads and applies every mutation.
    InSync,
    /// Last member standing after exhausting write retries: still
    /// serves reads, rejects mutations ([`S4Error::BadRequest`] with
    /// "read-only"). Only reachable when no in-sync sibling remains.
    ReadOnly,
    /// Removed from service after a fatal fault (or exhausted retries
    /// with a surviving sibling). Awaits [`S4Array::resync_member`].
    Dead,
}

const STATE_IN_SYNC: usize = 0;
const STATE_READ_ONLY: usize = 1;
const STATE_DEAD: usize = 2;

/// One member drive slot, shared between the shard worker (which owns
/// state transitions and the drive swap at resync) and the admin plane
/// (which reads state and live members' logs).
struct MemberSlot<D: BlockDev> {
    drive: Mutex<Arc<S4Drive<D>>>,
    state: AtomicUsize,
}

impl<D: BlockDev> MemberSlot<D> {
    fn new(drive: S4Drive<D>) -> Self {
        MemberSlot {
            drive: Mutex::new(Arc::new(drive)),
            state: AtomicUsize::new(STATE_IN_SYNC),
        }
    }

    fn drive(&self) -> Arc<S4Drive<D>> {
        self.drive.lock().clone()
    }

    fn state(&self) -> MemberState {
        match self.state.load(Ordering::SeqCst) {
            STATE_IN_SYNC => MemberState::InSync,
            STATE_READ_ONLY => MemberState::ReadOnly,
            _ => MemberState::Dead,
        }
    }

    fn set_state(&self, s: MemberState) {
        let v = match s {
            MemberState::InSync => STATE_IN_SYNC,
            MemberState::ReadOnly => STATE_READ_ONLY,
            MemberState::Dead => STATE_DEAD,
        };
        self.state.store(v, Ordering::SeqCst);
    }
}

/// One queued job for a shard worker.
enum Job<D: BlockDev> {
    /// A client request plus the channel its response goes back on.
    Rpc {
        ctx: RequestContext,
        req: Request,
        reply: SyncSender<s4_core::Result<Response>>,
    },
    /// Rebuild member `member` onto `dev` from a surviving sibling.
    /// Runs on the worker thread, so the shard is quiesced for the
    /// duration — no mutation can interleave with the copy.
    Resync {
        member: usize,
        dev: Box<D>,
        reply: SyncSender<s4_core::Result<()>>,
    },
    /// Install and/or retire an array-internal note in the shard's
    /// partition table (slot 0 only): create `create`, remove `remove`,
    /// and journal-flush each live member. Routed through the worker
    /// queue so the partition object's bytes stay identical across
    /// mirrors with respect to interleaved client `PCreate`s. Reshard
    /// epoch notes and transaction decision notes both ride this job —
    /// the flush after the create *is* their durability commit point.
    Note {
        create: Option<String>,
        remove: Option<String>,
        /// Trace context of the transaction whose decision note this
        /// is (default = untraced: reshard epoch notes, lazy retires).
        trace: TraceCtx,
        reply: SyncSender<s4_core::Result<()>>,
    },
    /// Phase 1 of a cross-shard transaction on this shard: execute the
    /// sub-batch on every in-sync member via
    /// [`S4Drive::txn_prepare_at`] (same pinned `t0`, so mirrors stamp
    /// identically) and reply with the canonical responses — the
    /// yes-vote. A member that faults at the disk level leaves service
    /// exactly as it would under a plain mutation.
    Prepare {
        ctx: RequestContext,
        txid: u64,
        reqs: Vec<Request>,
        reply: SyncSender<s4_core::Result<Vec<Response>>>,
    },
    /// Phase 2: commit or abort `txid` on every in-sync member.
    Decide {
        ctx: RequestContext,
        txid: u64,
        commit: bool,
        reply: SyncSender<s4_core::Result<()>>,
    },
}

/// One shard: its mirrored member slots, worker thread, queue, and
/// quiesce gate. `slot` is the shard's stable residue-class id (see
/// [`crate::epoch`]); the gate is held shared by every dispatcher for
/// the duration of its sends and exclusively by a reshard flip, so the
/// flip observes a moment with no dispatcher mid-send on this shard.
struct ShardHandle<D: BlockDev> {
    slot: usize,
    gate: RwLock<()>,
    members: Vec<Arc<MemberSlot<D>>>,
    tx: Option<SyncSender<Job<D>>>,
    thread: Option<JoinHandle<()>>,
}

impl<D: BlockDev> Drop for ShardHandle<D> {
    fn drop(&mut self) {
        // Closing the queue ends the worker's recv loop; join so no
        // thread outlives the array.
        drop(self.tx.take());
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Per-shard sub-result of a split batch that failed on that shard:
/// how far the shard's sub-batch got before aborting, and why. The
/// indices are in the *original* batch's coordinates, so a client can
/// tell exactly which prefix of its batch took effect on which shard
/// (DESIGN §6f).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchOutcome {
    /// The shard whose sub-batch aborted.
    pub shard: usize,
    /// Sub-requests of that shard's sub-batch that completed before the
    /// failure.
    pub completed: u32,
    /// Index *in the original batch* of the failing sub-request.
    pub failed_at: u32,
    /// The failing sub-request's error.
    pub error: S4Error,
    /// `true` when the array cannot know how much of the sub-batch
    /// executed before the failure — the shard worker panicked mid-batch
    /// or vanished after the sub-batch was handed over, so `completed`
    /// is a floor, not a fact. Clients must treat the shard's state as
    /// unknown until they re-read (or the array remounts). `false`
    /// covers both precise partial failures (the drive reported exactly
    /// how far it got) and pre-execution refusals (read-only/dead
    /// shard), where `completed` is exact.
    pub in_doubt: bool,
}

/// A sharded array of [`S4Drive`]s presenting the single-drive RPC
/// surface (it implements [`RpcHandler`], so the TCP server and the
/// file-system layer run over it unchanged).
///
/// Object placement is `oid % n` with reserved objects pinned (see
/// [`crate::router`]); each member drive allocates ObjectIDs only in
/// its own residue class so drive-assigned IDs route home. With
/// [`ArrayConfig::mirrors`] > 1 every residue class is served by a
/// mirror group: mutations apply to all in-sync members, reads come
/// from the first live member with failover, and a member that fails
/// fatally (or exhausts its transient-fault retries) is declared dead
/// — the shard keeps serving from the survivor in *degraded mode*,
/// surfaced through a `s4_array_degraded` gauge and an
/// `array-degraded` alert on each survivor's tamper-evident alert
/// stream. Every member keeps its own audit log, alert stream, and
/// flight recorder — the security perimeter stays per-drive, exactly
/// as §3.2 argues: a compromised client (or even a compromised sibling
/// drive) cannot forge or truncate another drive's history.
pub struct S4Array<D: BlockDev> {
    routing: Mutex<Arc<Routing<D>>>,
    rr: AtomicUsize,
    clock: SimClock,
    cfg: ArrayConfig,
    reshard_reg: Registry,
    txn_ids: TxIdGen,
    txn_reg: Registry,
    trace_ids: TraceIdGen,
}

/// One routing epoch's view of the array: the epoch itself plus the
/// live shards in dense order (sources first, then in-flight split
/// targets in slot order). Dispatchers snapshot the current `Arc`,
/// plan against it, and recheck `epoch.seq` after taking their gates —
/// a flip swaps in a new `Routing` atomically.
struct Routing<D: BlockDev> {
    epoch: EpochInfo,
    shards: Vec<Arc<ShardHandle<D>>>,
}

impl<D: BlockDev + 'static> S4Array<D> {
    /// Formats `devices` as a fresh array sharing `clock`. With
    /// `array.mirrors = m`, `devices.len()` must be a positive multiple
    /// of `m`: shard `s` of `n = devices.len()/m` owns devices
    /// `s*m..(s+1)*m`, every member formatted with ObjectID class
    /// `s (mod n)`. The initial routing epoch is persisted in shard 0's
    /// partition table.
    pub fn format(
        devices: Vec<D>,
        config: DriveConfig,
        array: ArrayConfig,
        clock: SimClock,
    ) -> s4_core::Result<S4Array<D>> {
        array.validate()?;
        let n = shard_count_of(devices.len(), array.mirrors)?;
        let epoch = EpochInfo::initial(n);
        let mut groups: Vec<Vec<S4Drive<D>>> = Vec::with_capacity(n);
        for (i, dev) in devices.into_iter().enumerate() {
            let s = i / array.mirrors;
            let drive =
                S4Drive::format(dev, config.with_oid_class(n as u64, s as u64), clock.clone())?;
            if i % array.mirrors == 0 {
                groups.push(Vec::with_capacity(array.mirrors));
            }
            groups[s].push(drive);
        }
        // Persist the initial epoch on every shard-0 member before the
        // array serves anything.
        let ctx = RequestContext::admin(ClientId(0), config.admin_token);
        let at = clock.now();
        for member in &groups[0] {
            member.with_stamp_time(at, || {
                member.op_pcreate(&ctx, &epoch.note_name(), PARTITION_OBJECT)
            })?;
            member.force_anchor()?;
        }
        Ok(Self::spawn(groups, epoch, array, clock))
    }

    /// Remounts an array previously formatted (or unmounted) with the
    /// same device order (dense: sources first, split targets after,
    /// mirrors adjacent), running per-member crash recovery. The
    /// routing epoch is read back from shard 0's partition table —
    /// highest sequence across its members wins, and members a crash
    /// left behind are repaired to the winner — so a crash anywhere in
    /// a reshard remounts wholly old-epoch or wholly new-epoch. Returns
    /// the per-member [`RecoveryReport`]s in device order.
    pub fn mount(
        devices: Vec<D>,
        config: DriveConfig,
        array: ArrayConfig,
        clock: SimClock,
    ) -> s4_core::Result<(S4Array<D>, Vec<RecoveryReport>)> {
        array.validate()?;
        let total = devices.len();
        let m = array.mirrors;
        if total == 0 {
            return Err(S4Error::BadRequest("array needs at least one drive"));
        }
        if !total.is_multiple_of(m) {
            return Err(S4Error::BadRequest(
                "array: device count not a multiple of the mirror count",
            ));
        }
        // Peek shard 0's members for the newest persisted epoch note.
        // Mounting is read-only and `crash` hands the device back
        // unwritten, so the peek leaves no trace.
        let admin = RequestContext::admin(ClientId(0), config.admin_token);
        let mut devices = devices;
        let rest = devices.split_off(m);
        let mut notes: Vec<Option<EpochInfo>> = Vec::with_capacity(m);
        let mut head = Vec::with_capacity(m);
        for dev in devices {
            let drive = S4Drive::mount(dev, config, clock.clone())?;
            let best = drive
                .op_plist(&admin, None)?
                .into_iter()
                .filter_map(|(name, _)| EpochInfo::parse_note(&name))
                .max_by_key(|e| e.seq);
            notes.push(best);
            head.push(drive.crash());
        }
        let epoch = notes
            .iter()
            .flatten()
            .copied()
            .max_by_key(|e| e.seq)
            // Legacy image without a note: a plain n-shard array.
            .unwrap_or_else(|| EpochInfo::initial(total / m));
        if epoch.live_shards() * m != total {
            return Err(S4Error::BadRequest(
                "array: device count does not match the persisted epoch",
            ));
        }
        if epoch.base > 64 {
            return Err(S4Error::BadRequest(
                "array: more than 64 shards (epoch bitmap limit)",
            ));
        }
        let repair = notes.iter().any(|n| *n != Some(epoch));

        let mut groups: Vec<Vec<S4Drive<D>>> = Vec::with_capacity(epoch.live_shards());
        let mut reports = Vec::with_capacity(total);
        for (i, dev) in head.into_iter().chain(rest).enumerate() {
            let p = i / m;
            let (stride, offset) = epoch.class_of_dense(p);
            let (drive, report) =
                S4Drive::mount_with_report(dev, config.with_oid_class(stride, offset), clock.clone())?;
            if i % m == 0 {
                groups.push(Vec::with_capacity(m));
            }
            groups[p].push(drive);
            reports.push(report);
        }
        // Repair divergent shard-0 members (a crash can land between a
        // flip's per-member note installs): everyone gets the winning
        // note, stale notes are dropped. Skipped entirely when the
        // members agree, so a healthy remount performs no writes here.
        // Every member writes below at one instant, so mirrors stay
        // identical (see `S4Drive::with_stamp_time`); mounting advanced
        // the shared clock past every recovered stamp.
        let at = clock.now();
        if repair {
            let winner = epoch.note_name();
            for member in &groups[0] {
                let mut dirty = false;
                let listed = member.op_plist(&admin, None)?;
                for (name, _) in &listed {
                    if name.starts_with(EPOCH_NOTE_PREFIX) && *name != winner {
                        member.with_stamp_time(at, || member.op_pdelete(&admin, name))?;
                        dirty = true;
                    }
                }
                if !listed.iter().any(|(n, _)| *n == winner) {
                    member.with_stamp_time(at, || {
                        member.op_pcreate(&admin, &winner, PARTITION_OBJECT)
                    })?;
                    dirty = true;
                }
                if dirty {
                    member.force_anchor()?;
                }
            }
        }

        // Resolve in-doubt cross-shard transactions (presumed abort): a
        // decision note on any shard-0 member means the coordinator
        // passed its commit point, so the transaction commits on every
        // participant; no note means it never did, so it aborts.
        // Aborts run newest-`t0` first — prepares were serial per
        // worker, so an older transaction's effects are stamped before
        // a newer one's `t0` and blanket compensation of the newer
        // transaction can never disturb the older one. Deciding a
        // transaction a member never saw is an idempotent no-op, so the
        // fan-out goes to everyone.
        let committed: BTreeSet<u64> = groups[0]
            .iter()
            .map(|m| m.op_plist(&admin, None))
            .collect::<s4_core::Result<Vec<_>>>()?
            .into_iter()
            .flatten()
            .filter_map(|(name, _)| parse_note(&name))
            .map(|t| t.0)
            .collect();
        let mut open: BTreeMap<u64, u64> = BTreeMap::new();
        for g in &groups {
            for m in g {
                for (txid, t0) in m.txn_in_doubt() {
                    let e = open.entry(txid).or_insert(t0);
                    *e = (*e).max(t0);
                }
            }
        }
        let mut order: Vec<(u64, u64)> = open.into_iter().collect();
        order.sort_by_key(|&(txid, t0)| (t0, txid));
        let mut redone = 0u64;
        let mut undone = 0u64;
        for &(txid, _) in order.iter().rev() {
            let commit = committed.contains(&txid);
            if commit {
                redone += 1;
            } else {
                undone += 1;
            }
            for g in &groups {
                for m in g {
                    m.with_stamp_time(at, || m.txn_decide(txid, commit))?;
                }
            }
        }
        // Every transaction with a note is now resolved everywhere (a
        // note without any in-doubt participant was already resolved —
        // only its lazy retire was lost), so the notes can go.
        for member in &groups[0] {
            let mut dirty = false;
            for (name, _) in member.op_plist(&admin, None)? {
                if parse_note(&name).is_some() {
                    member.with_stamp_time(at, || member.op_pdelete(&admin, &name))?;
                    dirty = true;
                }
            }
            if dirty {
                member.op_sync(&admin)?;
            }
        }

        let arr = Self::spawn(groups, epoch, array, clock);
        if redone + undone > 0 {
            arr.txn_reg
                .counter(
                    "s4_txn_recovered_commit_total",
                    "in-doubt transactions redone from a decision note at mount",
                )
                .add(redone);
            arr.txn_reg
                .counter(
                    "s4_txn_recovered_abort_total",
                    "in-doubt transactions rolled back by presumed abort at mount",
                )
                .add(undone);
        }
        Ok((arr, reports))
    }

    /// Builds an array over already-constructed drives (benchmarks use
    /// this to give each shard an independent clock). Drive `i` belongs
    /// to shard `i / mirrors` and must already allocate in that shard's
    /// residue class. The routing epoch starts fresh (no split in
    /// flight) and nothing is persisted until a flip.
    pub fn from_drives(
        drives: Vec<S4Drive<D>>,
        array: ArrayConfig,
    ) -> s4_core::Result<S4Array<D>> {
        array.validate()?;
        let n = shard_count_of(drives.len(), array.mirrors)?;
        for (i, d) in drives.iter().enumerate() {
            let s = i / array.mirrors;
            if d.oid_class() != (n as u64, s as u64) {
                return Err(S4Error::BadRequest("array member oid class mismatch"));
            }
        }
        let clock = drives[0].clock().clone();
        let mut groups: Vec<Vec<S4Drive<D>>> = Vec::with_capacity(n);
        for (i, d) in drives.into_iter().enumerate() {
            if i % array.mirrors == 0 {
                groups.push(Vec::with_capacity(array.mirrors));
            }
            let s = groups.len() - 1;
            groups[s].push(d);
        }
        Ok(Self::spawn(groups, EpochInfo::initial(n), array, clock))
    }

    fn spawn(
        groups: Vec<Vec<S4Drive<D>>>,
        epoch: EpochInfo,
        array: ArrayConfig,
        clock: SimClock,
    ) -> S4Array<D> {
        let shards = groups
            .into_iter()
            .enumerate()
            .map(|(p, drives)| {
                Arc::new(spawn_shard(epoch.slot_of_dense(p), drives, array, clock.clone()))
            })
            .collect();
        S4Array {
            routing: Mutex::new(Arc::new(Routing { epoch, shards })),
            rr: AtomicUsize::new(0),
            clock,
            cfg: array,
            reshard_reg: Registry::new(),
            txn_ids: TxIdGen::new(),
            txn_reg: Registry::new(),
            trace_ids: TraceIdGen::new(),
        }
    }

    /// The array's causal trace context for `ctx`: when tracing is on
    /// and the caller supplied no trace id, a fresh one is minted —
    /// every record the request leaves on any member drive then joins
    /// into one cross-shard trace (DESIGN §6j).
    fn traced(&self, ctx: &RequestContext) -> RequestContext {
        let mut ctx = *ctx;
        if self.cfg.trace && ctx.trace.trace_id == 0 {
            ctx.trace.trace_id = self.trace_ids.next(self.clock.now().as_micros());
        }
        ctx
    }

    /// Snapshot of the current routing (cheap: one lock, one `Arc`
    /// clone).
    fn routing(&self) -> Arc<Routing<D>> {
        self.routing.lock().clone()
    }

    /// Number of live shards (mirror groups), split targets included.
    pub fn shard_count(&self) -> usize {
        self.routing().shards.len()
    }

    /// The current routing epoch.
    pub fn epoch(&self) -> EpochInfo {
        self.routing().epoch
    }

    /// Stable residue-class slot id of the shard at dense index `i`
    /// (metric labels use this; it survives epoch changes).
    pub fn shard_slot(&self, i: usize) -> usize {
        self.routing().shards[i].slot
    }

    /// Dense index of `oid`'s home shard under the current epoch — the
    /// index to hand to [`S4Array::shard_drive`].
    pub fn shard_index_of(&self, oid: ObjectId) -> usize {
        let r = self.routing();
        dense_of(oid, &r.epoch)
    }

    /// Registry of reshard progress metrics (objects copied, catch-up
    /// lag, flip pauses), rendered into the array's expositions.
    pub fn reshard_registry(&self) -> &Registry {
        &self.reshard_reg
    }

    /// Registry of cross-shard transaction metrics (commits, aborts,
    /// lagging participants, mount-time resolutions), rendered into the
    /// array's expositions.
    pub fn txn_registry(&self) -> &Registry {
        &self.txn_reg
    }

    /// Members per shard.
    pub fn mirror_count(&self) -> usize {
        self.cfg.mirrors.max(1)
    }

    /// Handle to the first live member of shard `i` — the admin plane
    /// (forensics, detector installation, metrics) reads member drives
    /// in place, and a dead member's logs are unreachable anyway. Falls
    /// back to member 0 when the whole shard is dead.
    pub fn shard_drive(&self, i: usize) -> Arc<S4Drive<D>> {
        let r = self.routing();
        let members = &r.shards[i].members;
        members
            .iter()
            .find(|m| m.state() != MemberState::Dead)
            .unwrap_or(&members[0])
            .drive()
    }

    /// Handle to member `k` of shard `i`, regardless of its state.
    pub fn member_drive(&self, i: usize, k: usize) -> Arc<S4Drive<D>> {
        self.routing().shards[i].members[k].drive()
    }

    /// Health of every member: `states()[shard][member]`.
    pub fn member_states(&self) -> Vec<Vec<MemberState>> {
        self.routing()
            .shards
            .iter()
            .map(|s| s.members.iter().map(|m| m.state()).collect())
            .collect()
    }

    /// True if shard `i` has lost at least one member (or fallen back
    /// to read-only) — i.e. redundancy is reduced and an operator
    /// should resync a replacement.
    pub fn shard_degraded(&self, i: usize) -> bool {
        self.routing().shards[i]
            .members
            .iter()
            .any(|m| m.state() != MemberState::InSync)
    }

    /// The simulated clock requests are timed on (shard 0's).
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Rebuilds member `member` of shard `shard` onto the fresh device
    /// `dev`: the shard worker (so the shard is quiesced) exports the
    /// surviving sibling's logical state, replays it onto `dev`,
    /// verifies every live object's digest and all three reserved
    /// streams match, and only then promotes the rebuilt drive to
    /// `InSync`. Works for any member state — including replacing the
    /// sole, read-only member of an unmirrored shard.
    pub fn resync_member(&self, shard: usize, member: usize, dev: D) -> s4_core::Result<()> {
        let r = self.routing();
        if shard >= r.shards.len() {
            return Err(S4Error::BadRequest("array: no such shard"));
        }
        if member >= r.shards[shard].members.len() {
            return Err(S4Error::BadRequest("array: no such member"));
        }
        shard_call(&r.shards[shard].tx, |reply| Job::Resync {
            member,
            dev: Box::new(dev),
            reply,
        })
    }

    /// Tears the array down member by member, handing each drive to
    /// `finish` in dense device order.
    fn into_devices(
        self,
        finish: impl Fn(S4Drive<D>) -> s4_core::Result<D>,
    ) -> s4_core::Result<Vec<D>> {
        let routing = Arc::try_unwrap(self.routing.into_inner())
            .map_err(|_| S4Error::BadRequest("array routing still referenced"))?;
        let mut devices = Vec::new();
        for handle in routing.shards {
            let handle = Arc::try_unwrap(handle)
                .map_err(|_| S4Error::BadRequest("array shard still referenced"))?;
            let members: Vec<Arc<MemberSlot<D>>> = handle.members.clone();
            drop(handle); // closes the queue and joins the worker
            for m in members {
                let slot = Arc::try_unwrap(m)
                    .map_err(|_| S4Error::BadRequest("array member still referenced"))?;
                let drive = Arc::try_unwrap(slot.drive.into_inner())
                    .map_err(|_| S4Error::BadRequest("array drive still referenced"))?;
                devices.push(finish(drive)?);
            }
        }
        Ok(devices)
    }

    /// Shuts down the workers and unmounts every member, returning the
    /// block devices in device order (dense shard order, mirrors within
    /// a shard adjacent — the order [`S4Array::mount`] expects back).
    /// Fails if any member is dead — resync it first, or drop the array
    /// instead.
    pub fn unmount(self) -> s4_core::Result<Vec<D>> {
        self.into_devices(|drive| drive.unmount())
    }

    /// Drops every member *without* syncing or anchoring and returns
    /// the devices in dense device order — simulated array-wide power
    /// loss for the reshard crash-point campaigns. Volatile state on
    /// every member is lost, exactly as [`S4Drive::crash`].
    pub fn crash(self) -> s4_core::Result<Vec<D>> {
        self.into_devices(|drive| Ok(drive.crash()))
    }

    /// Verifies, executes, and audits one request against the array —
    /// the sharded equivalent of [`S4Drive::dispatch`]. Single-object
    /// requests go to the owning shard's queue; broadcast requests
    /// scatter to every shard and gather one merged response; batches
    /// are split per shard (see [`crate::router::split_batch`]).
    pub fn dispatch(&self, ctx: &RequestContext, req: &Request) -> s4_core::Result<Response> {
        // The `__s4/` partition namespace carries array-internal state
        // (epoch notes); clients cannot create, delete, or resolve it.
        if let Request::PCreate { name, .. } | Request::PDelete { name } = req {
            if name.starts_with(RESERVED_NAME_PREFIX) {
                return Err(S4Error::BadRequest("array: reserved partition namespace"));
            }
        }
        if let Request::PMount { name, .. } = req {
            if name.starts_with(RESERVED_NAME_PREFIX) {
                return Err(S4Error::NoSuchPartition);
            }
        }
        let mut ctx = self.traced(ctx);
        loop {
            let r = self.routing();
            let n = r.shards.len();
            let jobs: Vec<(usize, Request)> = match route(req, &r.epoch) {
                Route::Create => {
                    let s = self.rr.fetch_add(1, Ordering::Relaxed) % n;
                    vec![(s, req.clone())]
                }
                Route::Shard(s) => vec![(s, req.clone())],
                Route::Broadcast(_) => (0..n).map(|s| (s, req.clone())).collect(),
                Route::SplitBatch => {
                    let Request::Batch(reqs) = req else { unreachable!() };
                    return self.dispatch_split(&ctx, reqs);
                }
            };
            // The entry shard annotates every record of the trace, so
            // the assembler can tell where the request came in.
            ctx.trace.origin = jobs.first().map_or(0, |&(s, _)| s as u8);
            let Some(mut results) = self.try_scatter(&r, &ctx, jobs) else {
                continue; // epoch moved between snapshot and gates: replan
            };
            return match route(req, &r.epoch) {
                Route::Broadcast(merge) => merge_broadcast(merge, results),
                _ => results.pop().expect("one submission, one result"),
            };
        }
    }

    /// Sends every `(dense shard, request)` job under the routing
    /// snapshot `r`, then gathers responses in submission order — all
    /// sends complete before the first reply is awaited, so jobs on
    /// distinct shards execute concurrently. Blocks while a shard's
    /// queue is full — that is the backpressure contract.
    ///
    /// Returns `None` without sending anything if the epoch moved
    /// between the snapshot and gate acquisition (the caller replans
    /// against the new routing); the seq check runs *after* every
    /// involved shard's gate is held, so a plan can never be applied
    /// half-old-epoch, half-new-epoch.
    fn try_scatter(
        &self,
        r: &Routing<D>,
        ctx: &RequestContext,
        jobs: Vec<(usize, Request)>,
    ) -> Option<Vec<s4_core::Result<Response>>> {
        let mut involved: Vec<usize> = jobs.iter().map(|&(s, _)| s).collect();
        involved.sort_unstable();
        involved.dedup();
        let gates: Vec<_> = involved.iter().map(|&s| r.shards[s].gate.read()).collect();
        if self.routing.lock().epoch.seq != r.epoch.seq {
            return None;
        }
        let mut pending = Vec::with_capacity(jobs.len());
        for (s, req) in jobs {
            let (reply, rx) = mpsc::sync_channel(1);
            let sent = match &r.shards[s].tx {
                Some(tx) => tx.send(Job::Rpc { ctx: *ctx, req, reply }).is_ok(),
                None => false,
            };
            pending.push((sent, rx));
        }
        drop(gates);
        Some(
            pending
                .into_iter()
                .map(|(sent, rx)| {
                    if !sent {
                        return Err(WORKER_GONE);
                    }
                    rx.recv().unwrap_or(Err(WORKER_GONE))
                })
                .collect(),
        )
    }

    /// Splits a batch across shards, runs the sub-batches concurrently,
    /// and returns the per-slot responses plus one [`BatchOutcome`] per
    /// shard whose sub-batch aborted (empty = full success). Slots of a
    /// failed shard's unreached suffix are `None`. The outer error is
    /// reserved for planning failures (nested batch, broadcast op
    /// inside a batch, orphan `LAST_CREATED`).
    ///
    /// A batch that *mutates* more than one shard is not scattered
    /// independently — it runs as one two-phase-commit transaction
    /// (DESIGN §6i), so it takes effect on every shard or on none:
    /// success looks identical to the scatter path, and failure is a
    /// single [`BatchOutcome`] with `completed = 0` (the rollback undid
    /// everything everywhere). Single-shard and read-only batches keep
    /// the plain scatter path — they are trivially atomic already.
    pub fn dispatch_batch_outcomes(
        &self,
        ctx: &RequestContext,
        reqs: &[Request],
    ) -> s4_core::Result<(Vec<Option<Response>>, Vec<BatchOutcome>)> {
        let mut ctx = self.traced(ctx);
        let (plan, touched, results) = loop {
            let r = self.routing();
            let n = r.shards.len();
            let plan =
                split_batch(reqs, &r.epoch, || self.rr.fetch_add(1, Ordering::Relaxed) % n)?;
            let touched: Vec<usize> = (0..n).filter(|&s| !plan.subs[s].is_empty()).collect();
            ctx.trace.origin = touched.first().map_or(0, |&s| s as u8);
            if touched.len() > 1 && reqs.iter().any(Request::mutates) {
                match self.dispatch_batch_txn(&r, &ctx, &plan, &touched) {
                    Some(out) => return Ok(out),
                    None => continue, // epoch moved: replan the split
                }
            }
            let jobs: Vec<(usize, Request)> = touched
                .iter()
                .map(|&s| (s, Request::Batch(plan.subs[s].clone())))
                .collect();
            match self.try_scatter(&r, &ctx, jobs) {
                Some(results) => break (plan, touched, results),
                None => continue, // epoch moved: replan the split
            }
        };

        let mut out: Vec<Option<Response>> = vec![None; plan.total];
        let mut outcomes = Vec::new();
        for (&s, result) in touched.iter().zip(results) {
            match result {
                Ok(Response::Batch(rs)) => {
                    for (pos, resp) in rs.into_iter().enumerate() {
                        out[plan.slots[s][pos]] = Some(resp);
                    }
                }
                Ok(_) => {
                    return Err(S4Error::BadRequest(
                        "array: shard returned non-batch response",
                    ))
                }
                Err(S4Error::BatchFailed {
                    completed,
                    failed_at,
                    error,
                }) => {
                    // The drive reports sub-batch coordinates; map the
                    // failing index back to the original batch.
                    let orig = plan.slots[s]
                        .get(failed_at as usize)
                        .copied()
                        .unwrap_or(usize::MAX);
                    outcomes.push(BatchOutcome {
                        shard: s,
                        completed,
                        failed_at: orig as u32,
                        error: *error,
                        in_doubt: false,
                    });
                }
                Err(e) => {
                    // Whole-sub-batch failure without partial-progress
                    // info. A pre-execution refusal (read-only or dead
                    // shard) provably executed nothing; anything else —
                    // a worker that panicked mid-batch or vanished —
                    // may have executed a prefix whose extent was lost
                    // with the worker, so the outcome is in doubt
                    // rather than falsely precise.
                    let in_doubt = e != SHARD_READ_ONLY && e != SHARD_DEAD;
                    let orig = plan.slots[s].first().copied().unwrap_or(usize::MAX);
                    outcomes.push(BatchOutcome {
                        shard: s,
                        completed: 0,
                        failed_at: orig as u32,
                        error: e,
                        in_doubt,
                    });
                }
            }
        }
        outcomes.sort_by_key(|o| o.failed_at);
        Ok((out, outcomes))
    }

    /// Runs a multi-shard mutating batch as one two-phase-commit
    /// transaction under the routing snapshot `r`: prepare every
    /// participant (execute + journal-flush the sub-batch), durably
    /// write the decision note on shard 0 — the commit point — then fan
    /// the decision out. Participant gates are held (in dense order,
    /// like [`S4Array::try_scatter`]) for the whole window, so a
    /// reshard flip of a participant cannot interleave with the
    /// transaction. Returns `None` if the epoch moved before the gates
    /// were held (the caller replans against the new routing).
    fn dispatch_batch_txn(
        &self,
        r: &Routing<D>,
        ctx: &RequestContext,
        plan: &BatchPlan,
        touched: &[usize],
    ) -> Option<(Vec<Option<Response>>, Vec<BatchOutcome>)> {
        let gates: Vec<_> = touched.iter().map(|&s| r.shards[s].gate.read()).collect();
        if self.routing.lock().epoch.seq != r.epoch.seq {
            return None;
        }
        let txid = self.txn_ids.next(self.clock.now().as_micros());
        let mut ops = ArrayTxn {
            r,
            ctx,
            subs: &plan.subs,
            responses: BTreeMap::new(),
            clock: &self.clock,
            reg: &self.txn_reg,
        };
        let outcome = s4_txn::run(&mut ops, txid, touched);
        let responses = ops.responses;
        drop(gates);

        let mut out: Vec<Option<Response>> = vec![None; plan.total];
        match outcome {
            TxnOutcome::Committed { lagging } => {
                self.txn_reg
                    .counter(
                        "s4_txn_committed_total",
                        "cross-shard transactions committed",
                    )
                    .inc();
                if !lagging.is_empty() {
                    // A lagging participant missed the commit fan-out
                    // (its members failed after voting); its effects
                    // are durable and the decision note survives for
                    // its next mount, so the batch still succeeded.
                    self.txn_reg
                        .counter(
                            "s4_txn_lagging_total",
                            "participants that missed a commit fan-out (note kept for mount recovery)",
                        )
                        .add(lagging.len() as u64);
                }
                for (s, resps) in responses {
                    for (pos, resp) in resps.into_iter().enumerate() {
                        out[plan.slots[s][pos]] = Some(resp);
                    }
                }
                Some((out, Vec::new()))
            }
            TxnOutcome::Aborted {
                failed_shard,
                error,
            } => {
                self.txn_reg
                    .counter(
                        "s4_txn_aborted_total",
                        "cross-shard transactions rolled back",
                    )
                    .inc();
                // The rollback undid every participant, so the whole
                // batch reports as never-executed: `completed = 0` on
                // the shard that refused (or shard 0's decision write),
                // every response slot empty, nothing in doubt.
                let s = failed_shard.unwrap_or(touched[0]);
                let orig = plan.slots[s].first().copied().unwrap_or(usize::MAX);
                Some((
                    out,
                    vec![BatchOutcome {
                        shard: s,
                        completed: 0,
                        failed_at: orig as u32,
                        error,
                        in_doubt: false,
                    }],
                ))
            }
        }
    }

    /// Splits a batch across shards and reassembles one response,
    /// aborting with an aggregate [`S4Error::BatchFailed`] (earliest
    /// failing original index; `completed` counts sub-requests that
    /// finished across all shards) when any shard's sub-batch failed.
    fn dispatch_split(
        &self,
        ctx: &RequestContext,
        reqs: &[Request],
    ) -> s4_core::Result<Response> {
        let (out, outcomes) = self.dispatch_batch_outcomes(ctx, reqs)?;
        if let Some(first) = outcomes.first() {
            let completed = out.iter().filter(|r| r.is_some()).count() as u32
                + outcomes.iter().map(|o| o.completed).sum::<u32>();
            return Err(S4Error::BatchFailed {
                completed,
                failed_at: first.failed_at,
                error: Box::new(first.error.clone()),
            });
        }
        Ok(Response::Batch(
            out.into_iter()
                .map(|r| r.expect("every batch slot answered"))
                .collect(),
        ))
    }

    /// The flip of a live split (DESIGN §6h): atomically installs the
    /// epoch in which source `source_slot`'s residue class has split,
    /// bringing the target shard (slot `base + source_slot`) online.
    ///
    /// The caller (the reshard engine) has already bulk-copied the
    /// moving class and caught up to a small lag. This method performs
    /// only the brief quiesced window:
    ///
    /// 1. takes the source shard's write gate — no dispatcher can be
    ///    mid-send on it — and re-verifies the epoch hasn't moved;
    /// 2. drains the source's queue with a `Sync` barrier (the queue is
    ///    FIFO, so the reply implies every earlier job finished, and
    ///    every member is durable);
    /// 3. hands the quiesced source members to `finish`, which replays
    ///    the final delta onto the prepared target member drives and
    ///    returns them (one per mirror, formatted in class
    ///    `base + source_slot (mod 2·base)`);
    /// 4. raises each target's ObjectID allocator above the source's
    ///    (moved-then-deleted oids must never be re-issued) and anchors
    ///    it, persists the new epoch note on shard 0 *through its worker
    ///    queue*, narrows the source's allocator class, and swaps in the
    ///    new routing.
    ///
    /// An error anywhere before the note install leaves the routing
    /// untouched — the array keeps running wholly in the old epoch and
    /// the flip can be retried. The returned [`FlipReport`] carries the
    /// pause duration (on the source's member clock) that
    /// `fig_reshard` asserts against.
    pub fn install_split<F>(&self, source_slot: usize, finish: F) -> s4_core::Result<FlipReport>
    where
        F: FnOnce(&[Arc<S4Drive<D>>]) -> s4_core::Result<Vec<S4Drive<D>>>,
    {
        let r = self.routing();
        let e = r.epoch;
        if source_slot >= e.base || source_slot >= 64 {
            return Err(S4Error::BadRequest("array: no such source slot"));
        }
        if e.bits & (1u64 << source_slot) != 0 {
            return Err(S4Error::BadRequest("array: slot already split"));
        }
        let src = &r.shards[source_slot]; // dense == slot for sources
        let _gate = src.gate.write();
        if self.routing.lock().epoch.seq != e.seq {
            return Err(S4Error::BadRequest("array: epoch moved during flip"));
        }
        let live: Vec<Arc<S4Drive<D>>> = src
            .members
            .iter()
            .filter(|m| m.state() == MemberState::InSync)
            .map(|m| m.drive())
            .collect();
        if live.is_empty() {
            return Err(SHARD_READ_ONLY);
        }
        let clock = live[0].clock().clone();
        let started = clock.now();
        let admin = RequestContext::admin(ClientId(0), live[0].config().admin_token);

        // Drain: a Sync through the FIFO queue completes every queued
        // job and makes every member durable.
        shard_call(&src.tx, |reply| Job::Rpc {
            ctx: admin,
            req: Request::Sync,
            reply,
        })?;

        // Final delta onto the prepared targets, under quiescence.
        let targets = finish(&live)?;
        let target_slot = e.base + source_slot;
        let class = (2 * e.base as u64, target_slot as u64);
        if targets.len() != self.cfg.mirrors {
            return Err(S4Error::BadRequest("array: wrong target mirror count"));
        }
        if targets.iter().any(|t| t.oid_class() != class) {
            return Err(S4Error::BadRequest("array: target oid class mismatch"));
        }
        // The target must never re-issue an ObjectID the source already
        // allocated (a moved-then-deleted oid would resurrect). The
        // reshard engine pre-raises and anchors outside the gate, so
        // this usually finds the floor already durable and skips the
        // anchor write.
        let floor = live[0].next_oid(&admin)?;
        for t in &targets {
            if t.next_oid(&admin)? < floor {
                t.raise_next_oid(&admin, floor)?;
                t.force_anchor()?;
            }
        }

        // Persist the new epoch through shard 0's worker queue so the
        // partition object stays bit-identical across its mirrors. Only
        // the new note's creation is the commit point; the stale note is
        // retired after the gate drops (mount elects the highest seq and
        // repairs leftovers, so the overlap is harmless).
        let ne = e.after_split(source_slot);
        shard_call(&r.shards[0].tx, |reply| Job::Note {
            create: Some(ne.note_name()),
            remove: None,
            trace: TraceCtx::default(),
            reply,
        })?;

        // Commit point passed: narrow the source's allocator and swap
        // in the new routing.
        for m in &src.members {
            if m.state() != MemberState::Dead {
                m.drive().set_oid_class(2 * e.base as u64, source_slot as u64);
            }
        }
        let target_clock = targets[0].clock().clone();
        let handle = Arc::new(spawn_shard(target_slot, targets, self.cfg, target_clock));
        let mut shards = r.shards.clone();
        let dense = ne
            .dense_of_slot(target_slot)
            .expect("freshly split slot is live");
        shards.insert(dense, handle);
        *self.routing.lock() = Arc::new(Routing { epoch: ne, shards });

        let pause = clock.now() - started;
        self.reshard_reg
            .histogram(
                "s4_reshard_flip_pause_us",
                "time the source shard spent quiesced per flip",
            )
            .record(pause.as_micros());

        // Quiesce over: release the gate, then retire the old epoch
        // note outside the client-visible window. The job is idempotent
        // (pcreate tolerates an existing note), so a crash in between
        // just leaves both notes for mount's repair pass.
        drop(_gate);
        if let Err(err) = shard_call(&r.shards[0].tx, |reply| Job::Note {
            create: Some(ne.note_name()),
            remove: Some(e.note_name()),
            trace: TraceCtx::default(),
            reply,
        }) {
            // A vanished worker (shutdown race) is tolerable — mount's
            // repair pass drops the stale note — but a real fault is not.
            if err != WORKER_GONE {
                return Err(err);
            }
        }
        Ok(FlipReport { pause, epoch: ne })
    }
}

/// Builds one shard: wraps `drives` in member slots and starts the
/// worker thread that owns them. `slot` is the shard's stable
/// residue-class id (used in alerts and metric labels).
fn spawn_shard<D: BlockDev + 'static>(
    slot: usize,
    drives: Vec<S4Drive<D>>,
    cfg: ArrayConfig,
    clock: SimClock,
) -> ShardHandle<D> {
    let members: Vec<Arc<MemberSlot<D>>> = drives
        .into_iter()
        .map(|d| Arc::new(MemberSlot::new(d)))
        .collect();
    let (tx, rx): (SyncSender<Job<D>>, Receiver<Job<D>>) = mpsc::sync_channel(cfg.queue_depth);
    let worker_members = members.clone();
    let thread = std::thread::Builder::new()
        .name(format!("s4-shard-{slot}"))
        .spawn(move || {
            while let Ok(job) = rx.recv() {
                match job {
                    Job::Rpc { ctx, req, reply } => {
                        let _ = reply.send(worker_process(
                            slot,
                            &worker_members,
                            &cfg,
                            &clock,
                            &ctx,
                            &req,
                        ));
                    }
                    Job::Resync { member, dev, reply } => {
                        let _ = reply.send(worker_resync(slot, &worker_members, member, *dev));
                    }
                    Job::Note {
                        create,
                        remove,
                        trace,
                        reply,
                    } => {
                        let _ = reply.send(worker_note(
                            &worker_members,
                            &clock,
                            create.as_deref(),
                            remove.as_deref(),
                            trace,
                        ));
                    }
                    Job::Prepare {
                        ctx,
                        txid,
                        reqs,
                        reply,
                    } => {
                        let _ = reply.send(worker_prepare(
                            slot,
                            &worker_members,
                            &clock,
                            &ctx,
                            txid,
                            &reqs,
                        ));
                    }
                    Job::Decide {
                        ctx,
                        txid,
                        commit,
                        reply,
                    } => {
                        let _ = reply.send(worker_decide(
                            slot,
                            &worker_members,
                            &clock,
                            &ctx,
                            txid,
                            commit,
                        ));
                    }
                }
            }
        })
        .expect("spawn shard worker thread");
    ShardHandle {
        slot,
        gate: RwLock::new(()),
        members,
        tx: Some(tx),
        thread: Some(thread),
    }
}

/// Installs and/or retires an array-internal note on every live member
/// of the shard. Both steps are idempotent — a crash between members
/// leaves a divergence that [`S4Array::mount`] repairs (epoch notes:
/// highest sequence wins; transaction notes: any member's note commits
/// the transaction).
fn worker_note<D: BlockDev>(
    members: &[Arc<MemberSlot<D>>],
    clock: &SimClock,
    create: Option<&str>,
    remove: Option<&str>,
    trace: TraceCtx,
) -> s4_core::Result<()> {
    let at = clock.now();
    for m in members {
        if m.state() == MemberState::Dead {
            continue;
        }
        let drive = m.drive();
        let admin = RequestContext::admin(ClientId(0), drive.config().admin_token);
        drive.with_stamp_time(at, || -> s4_core::Result<()> {
            if let Some(new) = create {
                match drive.op_pcreate(&admin, new, PARTITION_OBJECT) {
                    Ok(_) | Err(S4Error::PartitionExists) => {}
                    Err(e) => return Err(e),
                }
            }
            if let Some(old) = remove {
                match drive.op_pdelete(&admin, old) {
                    Ok(_) | Err(S4Error::NoSuchPartition) => {}
                    Err(e) => return Err(e),
                }
            }
            // A journal flush is the durability barrier — recovery
            // replays the journal, so the note survives a crash without
            // paying for a full anchor (checkpoint promotion) in the
            // caller's window.
            drive.op_sync(&admin)
        })?;
        // A traced note (a 2PC decision install) leaves a span on the
        // member's trace stream *after* its durability barrier — the
        // record's presence means the commit point really passed here.
        if create.is_some() {
            let nctx = admin.with_trace(TraceCtx {
                phase: PHASE_NOTE,
                ..trace
            });
            drive.record_phase_trace(&nctx, OpKind::PCreate, PARTITION_OBJECT, true, 0);
        }
    }
    Ok(())
}

/// Runs one transaction step (prepare or decide) on every in-sync
/// member — the transactional sibling of [`worker_process`]'s mutation
/// path: first member's answer is canonical, a panicking or faulting
/// member leaves service via [`fail_member`]. Disk faults are *not*
/// retried here: a prepare is not idempotent under partial re-execution
/// (the transaction id is already open on the member), so the faulting
/// member is simply failed and the survivors carry the shard.
fn worker_txn_step<D: BlockDev, T>(
    shard: usize,
    members: &[Arc<MemberSlot<D>>],
    step: impl Fn(&S4Drive<D>) -> s4_core::Result<T>,
) -> s4_core::Result<T> {
    let writable: Vec<usize> = (0..members.len())
        .filter(|&k| members[k].state() == MemberState::InSync)
        .collect();
    if writable.is_empty() {
        let any_alive = members.iter().any(|m| m.state() != MemberState::Dead);
        return Err(if any_alive { SHARD_READ_ONLY } else { SHARD_DEAD });
    }
    let mut canonical: Option<s4_core::Result<T>> = None;
    let mut last_fault: Option<S4Error> = None;
    for k in writable {
        let drive = members[k].drive();
        let applied = match catch_unwind(AssertUnwindSafe(|| step(&drive))) {
            Ok(Ok(v)) => Applied::Done(Ok(v)),
            Ok(Err(e)) => match e.disk_fault() {
                None => Applied::Done(Err(e)),
                Some(_) => Applied::MemberFailed(e),
            },
            Err(_) => Applied::MemberFailed(S4Error::BadRequest(
                "array member panicked during dispatch",
            )),
        };
        match applied {
            Applied::Done(r) => {
                if canonical.is_none() {
                    canonical = Some(r);
                }
            }
            Applied::MemberFailed(e) => {
                fail_member(shard, members, k, &e);
                last_fault = Some(e);
            }
        }
    }
    canonical.unwrap_or_else(|| Err(last_fault.unwrap_or(SHARD_DEAD)))
}

/// Phase 1 on this shard: execute the sub-batch transactionally on
/// every in-sync member. One `t0` for all members — the shared clock is
/// advanced past it exactly once — and every member stamps the
/// sub-batch at one instant after it, so mirrors record identical
/// versions and stay byte-identical.
fn worker_prepare<D: BlockDev>(
    shard: usize,
    members: &[Arc<MemberSlot<D>>],
    clock: &SimClock,
    ctx: &RequestContext,
    txid: u64,
    reqs: &[Request],
) -> s4_core::Result<Vec<Response>> {
    let t0 = clock.now();
    clock.advance(SimDuration::from_micros(1));
    let at = clock.now();
    // The sub-requests run through the member's regular dispatch, so a
    // traced transaction's prepare leaves ordinary trace records —
    // stamped with the 2PC phase so the assembler can tell them from
    // plain applies.
    let pctx = match ctx.trace.trace_id {
        0 => *ctx,
        _ => ctx.with_trace(TraceCtx {
            phase: PHASE_PREPARE,
            ..ctx.trace
        }),
    };
    worker_txn_step(shard, members, |drive| {
        drive.with_stamp_time(at, || drive.txn_prepare_at(&pctx, txid, t0, reqs))
    })
}

/// Phase 2 on this shard: commit or abort on every in-sync member. A
/// traced decide leaves a synthetic span on each member's trace stream
/// (`txn_decide` is a direct call, not a dispatched request, so no
/// record would exist otherwise); `ok` carries the decision.
fn worker_decide<D: BlockDev>(
    shard: usize,
    members: &[Arc<MemberSlot<D>>],
    clock: &SimClock,
    ctx: &RequestContext,
    txid: u64,
    commit: bool,
) -> s4_core::Result<()> {
    let dctx = ctx.with_trace(TraceCtx {
        phase: PHASE_DECIDE,
        ..ctx.trace
    });
    let at = clock.now();
    worker_txn_step(shard, members, |drive| {
        drive.with_stamp_time(at, || drive.txn_decide(txid, commit))?;
        drive.record_phase_trace(&dctx, OpKind::Sync, ObjectId(txid), commit, 0);
        Ok(())
    })
}

/// `devices / mirrors`, validating the shape.
fn shard_count_of(devices: usize, mirrors: usize) -> s4_core::Result<usize> {
    let m = mirrors.max(1);
    if devices == 0 {
        return Err(S4Error::BadRequest("array needs at least one drive"));
    }
    if !devices.is_multiple_of(m) {
        return Err(S4Error::BadRequest(
            "array: device count not a multiple of the mirror count",
        ));
    }
    // The routing epoch tracks in-flight splits in a 64-bit mask, so a
    // generation's base caps at 64 source slots.
    if devices / m > 64 {
        return Err(S4Error::BadRequest(
            "array: more than 64 shards (epoch bitmap limit)",
        ));
    }
    Ok(devices / m)
}

/// Outcome of applying one operation to one member.
enum Applied<T> {
    /// The member answered (possibly a logical error — denial, missing
    /// object — which is a property of the request, not the member).
    Done(s4_core::Result<T>),
    /// The member faulted at the disk level (retries exhausted, device
    /// failed, or its dispatch panicked) and must leave service.
    MemberFailed(S4Error),
}

/// Applies `req` to one member with bounded retry on transient disk
/// faults and panic containment: a panicking dispatch is contained to
/// this member (the drive's locks are non-poisoning and every guarded
/// structure stays valid), converted into a member failure.
fn apply_with_retry<D: BlockDev>(
    drive: &S4Drive<D>,
    cfg: &ArrayConfig,
    clock: &SimClock,
    ctx: &RequestContext,
    req: &Request,
) -> Applied<Response> {
    let mut backoff = cfg.retry_backoff_us.max(1);
    let mut attempt = 0u32;
    loop {
        let result = match catch_unwind(AssertUnwindSafe(|| drive.dispatch(ctx, req))) {
            Ok(r) => r,
            Err(_) => {
                return Applied::MemberFailed(S4Error::BadRequest(
                    "array member panicked during dispatch",
                ))
            }
        };
        match result {
            Ok(resp) => return Applied::Done(Ok(resp)),
            Err(e) => match e.disk_fault() {
                None => return Applied::Done(Err(e)),
                Some(DiskFaultKind::Transient) if attempt < cfg.retries => {
                    attempt += 1;
                    clock.advance(SimDuration::from_micros(backoff));
                    backoff = backoff.saturating_mul(2);
                }
                Some(_) => return Applied::MemberFailed(e),
            },
        }
    }
}

/// Takes member `k` out of service after `error`: the last non-dead
/// member of the shard degrades to read-only (reads may still work),
/// anyone else goes dead. Raises an `array-degraded` alert on every
/// surviving member's tamper-evident alert stream — the same channel
/// the operator already polls for intrusion alerts.
fn fail_member<D: BlockDev>(
    shard: usize,
    members: &[Arc<MemberSlot<D>>],
    k: usize,
    error: &S4Error,
) {
    let others_alive = members
        .iter()
        .enumerate()
        .any(|(i, m)| i != k && m.state() != MemberState::Dead);
    let new_state = if others_alive {
        MemberState::Dead
    } else {
        MemberState::ReadOnly
    };
    members[k].set_state(new_state);
    let what = match new_state {
        MemberState::Dead => "dead",
        _ => "read-only",
    };
    let msg = format!("member {k} of shard {shard} marked {what}: {error}");
    for (i, m) in members.iter().enumerate() {
        if i != k && m.state() != MemberState::Dead {
            m.drive().system_alert("array-degraded", &msg);
        }
    }
    // A member degraded to read-only alerts through its own stream
    // too — it may be the only reachable log.
    if new_state == MemberState::ReadOnly {
        members[k].drive().system_alert("array-degraded", &msg);
    }
}

/// Processes one request on the shard worker: mutations apply to every
/// in-sync member (first member's answer is canonical — replicas are
/// deterministic, so they agree), reads go to the first live member
/// and fail over on member faults.
fn worker_process<D: BlockDev>(
    shard: usize,
    members: &[Arc<MemberSlot<D>>],
    cfg: &ArrayConfig,
    clock: &SimClock,
    ctx: &RequestContext,
    req: &Request,
) -> s4_core::Result<Response> {
    // Records written by member drives during ordinary worker execution
    // carry the apply phase (the entry phase stays on whatever record
    // the frontend wrote, if any).
    let stamped;
    let ctx = if ctx.trace.trace_id != 0 {
        stamped = ctx.with_trace(TraceCtx {
            phase: PHASE_APPLY,
            ..ctx.trace
        });
        &stamped
    } else {
        ctx
    };
    if req.mutates() {
        let writable: Vec<usize> = (0..members.len())
            .filter(|&k| members[k].state() == MemberState::InSync)
            .collect();
        if writable.is_empty() {
            let any_alive = members.iter().any(|m| m.state() != MemberState::Dead);
            return Err(if any_alive { SHARD_READ_ONLY } else { SHARD_DEAD });
        }
        let mut canonical: Option<s4_core::Result<Response>> = None;
        let mut last_fault: Option<S4Error> = None;
        // Replicas run one after another on the shared clock: stamp them
        // all at one instant (see `S4Drive::with_stamp_time`).
        let at = clock.now();
        for k in writable {
            let drive = members[k].drive();
            match drive.with_stamp_time(at, || apply_with_retry(&drive, cfg, clock, ctx, req)) {
                Applied::Done(r) => {
                    if canonical.is_none() {
                        canonical = Some(r);
                    }
                }
                Applied::MemberFailed(e) => {
                    fail_member(shard, members, k, &e);
                    last_fault = Some(e);
                }
            }
        }
        canonical.unwrap_or_else(|| Err(last_fault.unwrap_or(SHARD_DEAD)))
    } else {
        let mut last_err: Option<S4Error> = None;
        for k in 0..members.len() {
            if members[k].state() == MemberState::Dead {
                continue;
            }
            let drive = members[k].drive();
            match apply_with_retry(&drive, cfg, clock, ctx, req) {
                Applied::Done(r) => return r,
                Applied::MemberFailed(e) => {
                    fail_member(shard, members, k, &e);
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.unwrap_or(SHARD_DEAD))
    }
}

/// Rebuilds member `member` from the first surviving sibling: export
/// the survivor's logical image, replay it onto `dev`, verify object
/// digests and all three reserved streams, then promote to `InSync`.
/// Runs on the shard worker thread, so no request interleaves.
fn worker_resync<D: BlockDev>(
    shard: usize,
    members: &[Arc<MemberSlot<D>>],
    member: usize,
    dev: D,
) -> s4_core::Result<()> {
    // Copy source: the first surviving sibling, or — when replacing
    // the sole (read-only) member of an unmirrored shard — the member
    // being replaced itself, which is still readable.
    let survivor_idx = members
        .iter()
        .enumerate()
        .position(|(i, m)| i != member && m.state() != MemberState::Dead)
        .or_else(|| {
            (members[member].state() != MemberState::Dead).then_some(member)
        })
        .ok_or(SHARD_DEAD)?;
    let survivor = members[survivor_idx].drive();
    let config = *survivor.config();
    let admin = RequestContext::admin(ClientId(0), config.admin_token);

    let image = survivor.resync_image(&admin)?;
    let rebuilt = S4Drive::format_from_image(dev, config, survivor.clock().clone(), &image)?;
    // The survivor's allocator class may have been narrowed by a flip
    // since it was formatted; the replica must allocate identically.
    let (stride, offset) = survivor.oid_class();
    rebuilt.set_oid_class(stride, offset);

    // Verify the replica object by object and stream by stream before
    // trusting it with client reads.
    let survivor_ids = survivor.live_object_ids(&admin)?;
    if survivor_ids != rebuilt.live_object_ids(&admin)? {
        return Err(S4Error::BadRequest("array resync: object set mismatch"));
    }
    for &oid in &survivor_ids {
        let a = survivor.object_digest(&admin, s4_core::ObjectId(oid))?;
        let b = rebuilt.object_digest(&admin, s4_core::ObjectId(oid))?;
        if a != b {
            return Err(S4Error::BadRequest("array resync: object digest mismatch"));
        }
    }
    if survivor.read_audit_records(&admin)? != rebuilt.read_audit_records(&admin)?
        || survivor.read_alerts(&admin)? != rebuilt.read_alerts(&admin)?
        || survivor.read_traces(&admin)? != rebuilt.read_traces(&admin)?
    {
        return Err(S4Error::BadRequest("array resync: stream mismatch"));
    }

    // Promote: swap the rebuilt drive in and mark the pair healthy.
    *members[member].drive.lock() = Arc::new(rebuilt);
    members[member].set_state(MemberState::InSync);
    if survivor_idx != member && members[survivor_idx].state() == MemberState::ReadOnly {
        members[survivor_idx].set_state(MemberState::InSync);
    }
    let msg = format!("member {member} of shard {shard} resynced and back in sync");
    for m in members.iter() {
        if m.state() == MemberState::InSync {
            m.drive().system_alert("array-resync", &msg);
        }
    }
    Ok(())
}

/// Combines per-shard responses of a broadcast request.
fn merge_broadcast(
    merge: Merge,
    results: Vec<s4_core::Result<Response>>,
) -> s4_core::Result<Response> {
    match merge {
        Merge::AllOk => {
            for r in results {
                r?;
            }
            Ok(Response::Ok)
        }
        Merge::SumNewSize => {
            let mut total = 0u64;
            for r in results {
                match r? {
                    Response::NewSize(k) => total += k,
                    other => {
                        return Err(bad_shape(&other));
                    }
                }
            }
            Ok(Response::NewSize(total))
        }
        Merge::Partitions => {
            let mut all = Vec::new();
            for r in results {
                match r? {
                    Response::Partitions(p) => all.extend(p),
                    other => return Err(bad_shape(&other)),
                }
            }
            // Array-internal names (epoch notes) never reach clients.
            all.retain(|(name, _)| !name.starts_with(RESERVED_NAME_PREFIX));
            all.sort();
            Ok(Response::Partitions(all))
        }
        Merge::FirstMounted => pick_first_success(results),
        Merge::AnyOk => pick_first_success(results),
    }
}

/// First successful response in shard order; otherwise the most
/// specific error (any non-`NoSuchPartition` error beats the generic
/// "no shard knows that name").
fn pick_first_success(results: Vec<s4_core::Result<Response>>) -> s4_core::Result<Response> {
    let mut err = None;
    for r in results {
        match r {
            Ok(resp) => return Ok(resp),
            Err(S4Error::NoSuchPartition) => {
                err.get_or_insert(S4Error::NoSuchPartition);
            }
            Err(e) => return Err(e),
        }
    }
    Err(err.unwrap_or(S4Error::NoSuchPartition))
}

fn bad_shape(_resp: &Response) -> S4Error {
    S4Error::BadRequest("array: unexpected per-shard response shape")
}

/// Sends one job to a shard worker and waits for its typed reply.
/// [`WORKER_GONE`] covers both a closed queue and a worker that died
/// before answering.
fn shard_call<D: BlockDev, T>(
    tx: &Option<SyncSender<Job<D>>>,
    build: impl FnOnce(SyncSender<s4_core::Result<T>>) -> Job<D>,
) -> s4_core::Result<T> {
    let (reply, rx) = mpsc::sync_channel(1);
    let sent = match tx {
        Some(tx) => tx.send(build(reply)).is_ok(),
        None => false,
    };
    if !sent {
        return Err(WORKER_GONE);
    }
    rx.recv().unwrap_or(Err(WORKER_GONE))
}

/// The array-side port of the two-phase-commit driver: protocol
/// messages become shard-worker jobs against a held routing snapshot,
/// and the decision note lives in shard 0's partition table with the
/// same flush-is-durability discipline as the reshard epoch note.
struct ArrayTxn<'a, D: BlockDev> {
    r: &'a Routing<D>,
    ctx: &'a RequestContext,
    subs: &'a [Vec<Request>],
    responses: BTreeMap<usize, Vec<Response>>,
    clock: &'a SimClock,
    reg: &'a Registry,
}

impl<D: BlockDev> TwoPhaseOps for ArrayTxn<'_, D> {
    type Err = S4Error;

    fn prepare(&mut self, shard: usize, txid: TxId) -> Result<(), S4Error> {
        let started = self.clock.now();
        let resps = shard_call(&self.r.shards[shard].tx, |reply| Job::Prepare {
            ctx: *self.ctx,
            txid: txid.0,
            reqs: self.subs[shard].clone(),
            reply,
        })?;
        self.reg
            .histogram(
                "s4_txn_prepare_us",
                "per-participant 2PC prepare latency (execute + journal flush)",
            )
            .record((self.clock.now() - started).as_micros());
        self.responses.insert(shard, resps);
        Ok(())
    }

    fn record_decision(&mut self, txid: TxId) -> Result<(), S4Error> {
        let r = shard_call(&self.r.shards[0].tx, |reply| Job::Note {
            create: Some(note_name(txid)),
            remove: None,
            trace: self.ctx.trace,
            reply,
        });
        if r.is_err() {
            // Best-effort scrub of a possibly half-installed note, so
            // that absence — presumed abort, the decision the driver is
            // about to fan out — is what recovery reads back. (A fault
            // model where the note lands durably and this scrub *also*
            // fails is outside the power-loss discipline the campaigns
            // exercise; see DESIGN §6i.)
            let _ = shard_call(&self.r.shards[0].tx, |reply| Job::Note {
                create: None,
                remove: Some(note_name(txid)),
                trace: TraceCtx::default(),
                reply,
            });
        }
        r
    }

    fn decide(&mut self, shard: usize, txid: TxId, commit: bool) -> Result<(), S4Error> {
        let started = self.clock.now();
        let r = shard_call(&self.r.shards[shard].tx, |reply| Job::Decide {
            ctx: *self.ctx,
            txid: txid.0,
            commit,
            reply,
        });
        self.reg
            .histogram(
                "s4_txn_decide_us",
                "per-participant 2PC decide latency (commit/abort fan-out)",
            )
            .record((self.clock.now() - started).as_micros());
        r
    }

    fn retire_decision(&mut self, txid: TxId) -> Result<(), S4Error> {
        // Lazy cleanup after the client already has its answer — not
        // part of the request's causal story, so it stays untraced.
        shard_call(&self.r.shards[0].tx, |reply| Job::Note {
            create: None,
            remove: Some(note_name(txid)),
            trace: TraceCtx::default(),
            reply,
        })
    }
}

impl<D: BlockDev + 'static> RpcHandler for S4Array<D> {
    fn handle(&self, ctx: &RequestContext, req: &Request) -> s4_core::Result<Response> {
        self.dispatch(ctx, req)
    }

    fn stats_text(&self) -> String {
        self.metrics_text()
    }

    fn reshard_text(&self) -> String {
        self.reshard_status_text()
    }

    fn txn_text(&self) -> String {
        self.txn_status_text()
    }
}
