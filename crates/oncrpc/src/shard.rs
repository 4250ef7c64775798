//! Sharded event-driven RPC server core.
//!
//! Thread-per-connection dies at scale: ten thousand sessions is ten
//! thousand parked stacks. [`ShardServer`] replaces that with a fixed pool
//! of shard threads, each running a readiness-driven event loop over a
//! [`sgfs_net::Poller`]. Sessions are pinned to a shard at accept time and
//! never migrate, so every shard is shared-nothing: its sessions, its
//! record scratch buffers, its poller — no cross-shard locks on the data
//! path. The only cross-shard edge is the accept → pin handoff, a
//! lock-free SPSC ring per shard ([`sgfs_net::spsc`]).
//!
//! # Why a blocking read inside an event loop is sound here
//!
//! The record writer emits header + payload in ONE write call per
//! fragment ([`crate::record::write_record_with`]), and the in-memory
//! pipe turns each write call into one message, so a message never spans
//! two records. GTLS likewise seals each write call into its own frames.
//! Consequently, once readiness reports the first bytes of a record, the
//! rest of that record is already queued or actively being written by a
//! peer that cannot block (the pipes are unbounded). A shard may therefore
//! perform a bounded *blocking* `read_record_into` after readiness fires —
//! no restartable partial-record state machine, and GTLS renegotiation
//! (a blocking ping-pong driven by the client) works unchanged. An
//! abandoned partial record always ends in channel close → EOF error →
//! session teardown, never an indefinite stall. Held sends (below) do
//! not change this: a held record is queued whole or not at all, and a
//! reader about to block releases its own endpoint's held sends first.
//!
//! # Send waves
//!
//! Replies leave in waves, so a window of requests that arrived together
//! is answered under one arrival stamp (DESIGN.md §4, "single-stamp rule
//! for batches"). A visit holds the session's sends at its wire
//! ([`sgfs_net::PipeGather`]); a session that runs out of queued input
//! joins the shard's wave; the wave is released against one clock
//! reading when the run queue empties (after one last non-blocking look
//! for arrivals) or once every session queued when it opened has had its
//! visit. A session whose held bytes pass
//! [`AdmissionPolicy::session_backlog_cap`] sends them at once.

use crate::record::{read_record_into, write_record_with};
use crate::server::{process_record, RpcService};
use sgfs_net::{
    spsc_channel, BoxStream, PipeWatch, Poller, Popped, SendWave, SpscReceiver, SpscSender, Token,
};
use sgfs_obs::{peek_proc, peek_xid, Hop, Obs, NO_PROC};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A per-record request processor — the unit of work a shard drives.
///
/// [`RpcService`] decodes and dispatches; SGFS server proxies implement
/// this directly so each record passes through their stats/hop-cost
/// accounting. Implementations must be cheap to call repeatedly and must
/// not block on another session's progress (in-process backends use
/// [`crate::loopback::LoopbackStream`] for exactly this reason).
pub trait RecordService: Send + Sync {
    /// Consume one request record, produce one reply record.
    fn process_record(&self, record: &[u8]) -> io::Result<Vec<u8>>;

    /// Produce a cheap "try again later" reply for `record` *without*
    /// executing it, or `None` if this service cannot shed (the shard
    /// then processes the record normally). Admission control calls this
    /// when a session is over its backlog cap or the shard is inside its
    /// overload band; NFS services answer with `NFS3ERR_JUKEBOX`, whose
    /// contract — the call was not executed — makes a verbatim client
    /// retry safe even for non-idempotent procedures.
    fn shed_record(&self, record: &[u8]) -> Option<Vec<u8>> {
        let _ = record;
        None
    }
}

/// Adapter exposing any [`RpcService`] as a [`RecordService`].
pub struct RpcRecordService(pub Arc<dyn RpcService>);

impl RecordService for RpcRecordService {
    fn process_record(&self, record: &[u8]) -> io::Result<Vec<u8>> {
        Ok(process_record(record, self.0.as_ref()))
    }
}

/// Handoff payload: everything a shard needs to own a session.
struct NewSession {
    id: u64,
    stream: BoxStream,
    watch: PipeWatch,
    service: Arc<dyn RecordService>,
}

/// Token 0 is every shard's handoff inbox; sessions start at 1.
const INBOX: Token = 0;

/// Default per-visit record budget for one session (see
/// [`AdmissionPolicy::max_pump`]).
const MAX_PUMP: usize = 32;

/// Capacity of each shard's handoff ring. Accepts briefly spin when a
/// burst outruns the shard; the ring never drops.
const INBOX_CAPACITY: usize = 256;

/// Admission, backpressure, and fair-scheduling knobs for one shard.
///
/// Scheduling is deficit round robin: every backlogged session sits in
/// the shard's run queue and receives `quantum` bytes of service credit
/// per visit; a session whose requests exhaust its deficit goes to the
/// back of the queue, so one hot session cannot starve its neighbors no
/// matter how deep its backlog is.
///
/// Admission is two-level with hysteresis. A session whose sampled wire
/// backlog exceeds `session_backlog_cap` has its *newly drained* records
/// shed (answered via [`RecordService::shed_record`] without execution)
/// until it falls back under the cap. Independently, when the sum of all
/// sessions' sampled backlogs crosses `shard_backlog_budget` the shard
/// enters an overload band that *tightens* the per-session cap to a
/// quarter: backlogged sessions — the ones actually holding the bytes —
/// are shed much harder, while a well-behaved closed-loop session (whose
/// wire backlog is near zero) keeps being served. Shedding from the
/// culprits, not the bystanders, is what lets the fairness SLO hold: a
/// flood cannot convert its own backlog into its neighbors' latency.
/// The band exits once the aggregate drains below *half* the budget
/// (the hysteresis exit, so the gauge does not flap at the boundary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionPolicy {
    /// Per-session sampled-backlog cap in bytes; above it the session's
    /// drained records are shed instead of executed.
    pub session_backlog_cap: usize,
    /// Aggregate per-shard backlog budget in bytes; above it the shard
    /// enters the overload band (exit at half).
    pub shard_backlog_budget: usize,
    /// DRR service credit in bytes added to a session's deficit per run-
    /// queue visit (accumulates to at most twice this).
    pub quantum: usize,
    /// Hard per-visit record-count bound (guards the tiny-record case
    /// where a byte quantum admits thousands of requests in one visit).
    pub max_pump: usize,
}

impl Default for AdmissionPolicy {
    /// Generous defaults: a well-behaved windowed client (the pipeline
    /// caps its in-flight bytes) never trips these.
    fn default() -> Self {
        Self {
            session_backlog_cap: 256 * 1024,
            shard_backlog_budget: 4 * 1024 * 1024,
            quantum: 64 * 1024,
            max_pump: MAX_PUMP,
        }
    }
}

/// Per-shard counters and gauges, shared between the shard thread and
/// the accept-side stats reader (all relaxed: monotonic counters plus
/// advisory gauges, no cross-field consistency promised).
#[derive(Default)]
struct ShardGauges {
    active: AtomicUsize,
    served: AtomicU64,
    shed: AtomicU64,
    /// Sum of the shard's per-session sampled wire backlogs, bytes.
    backlog: AtomicUsize,
    /// High-water mark of `backlog`.
    backlog_hwm: AtomicUsize,
    /// Inside the overload hysteresis band right now?
    overloaded: AtomicBool,
}

struct ShardHandle {
    /// Producer side of the handoff ring. The mutex serializes concurrent
    /// acceptors (the ring itself is strictly SPSC); the consumer side in
    /// the shard thread stays lock-free.
    tx: Mutex<SpscSender<NewSession>>,
    poller: Arc<Poller>,
    gauges: Arc<ShardGauges>,
    join: Option<std::thread::JoinHandle<()>>,
}

/// Aggregate counters over all shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Number of shard event loops.
    pub shards: usize,
    /// Sessions ever accepted.
    pub accepted: u64,
    /// Sessions currently pinned to a shard.
    pub active: usize,
    /// Request records served across all shards.
    pub served: u64,
    /// Records shed by admission control (replied without execution).
    pub shed: u64,
    /// Shards currently inside the overload hysteresis band.
    pub overloaded: usize,
    /// Aggregate sampled wire backlog across all shards, bytes.
    pub backlog: usize,
    /// Largest aggregate backlog any single shard has sampled, bytes —
    /// the bounded-memory witness the overload tests gate on.
    pub backlog_hwm: usize,
}

/// The sharded server: a fixed set of event-loop threads plus the
/// accept-side API that pins sessions onto them.
pub struct ShardServer {
    shards: Vec<ShardHandle>,
    next_id: AtomicU64,
    accepted: AtomicU64,
    obs: Arc<Obs>,
    shutdown: AtomicBool,
}

impl ShardServer {
    /// Start `shards` event loops (at least one) with tracing disabled.
    pub fn new(shards: usize) -> Arc<Self> {
        Self::with_obs(shards, Obs::disabled())
    }

    /// Start `shards` event loops emitting [`Hop::ShardAccept`] /
    /// [`Hop::ShardHandoff`] into `obs`.
    pub fn with_obs(shards: usize, obs: Arc<Obs>) -> Arc<Self> {
        Self::with_admission(shards, obs, AdmissionPolicy::default())
    }

    /// Start `shards` event loops under an explicit [`AdmissionPolicy`]
    /// (the overload tests shrink the caps to force shedding).
    pub fn with_admission(shards: usize, obs: Arc<Obs>, policy: AdmissionPolicy) -> Arc<Self> {
        let shards = shards.max(1);
        let handles = (0..shards)
            .map(|index| {
                let (tx, rx) = spsc_channel::<NewSession>(INBOX_CAPACITY);
                let poller = Arc::new(Poller::new());
                let gauges = Arc::new(ShardGauges::default());
                let loop_poller = poller.clone();
                let loop_gauges = gauges.clone();
                let loop_obs = obs.clone();
                let join = std::thread::Builder::new()
                    .name(format!("sgfs-shard-{index}"))
                    .spawn(move || {
                        shard_loop(index, loop_poller, rx, loop_gauges, loop_obs, policy)
                    })
                    .expect("spawn shard thread");
                ShardHandle { tx: Mutex::new(tx), poller, gauges, join: Some(join) }
            })
            .collect();
        Arc::new(Self {
            shards: handles,
            next_id: AtomicU64::new(1),
            accepted: AtomicU64::new(0),
            obs,
            shutdown: AtomicBool::new(false),
        })
    }

    /// Number of shard event loops.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Accept a session: assign it an id, pick its shard (`id % shards`),
    /// and hand it off. Returns the session id.
    ///
    /// `watch` must observe the *wire* the peer writes into — take it from
    /// the raw pipe end before wrapping the stream in fault injectors or
    /// GTLS, so readiness reflects arrivals regardless of wrapping.
    pub fn add_session(
        &self,
        stream: BoxStream,
        watch: PipeWatch,
        service: Arc<dyn RecordService>,
    ) -> io::Result<u64> {
        if self.shutdown.load(Ordering::Acquire) {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "shard server shut down"));
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let shard_index = (id % self.shards.len() as u64) as usize;
        let shard = &self.shards[shard_index];
        self.obs.emit(Hop::ShardAccept, id as u32, NO_PROC, shard_index as u64);
        let mut session = NewSession { id, stream, watch, service };
        loop {
            let pushed = shard.tx.lock().push(session);
            match pushed {
                Ok(()) => break,
                Err(back) => {
                    if self.shutdown.load(Ordering::Acquire) {
                        return Err(io::Error::new(
                            io::ErrorKind::BrokenPipe,
                            "shard server shut down",
                        ));
                    }
                    // Ring full: nudge the shard and retry.
                    session = back;
                    shard.poller.wake(INBOX);
                    std::thread::yield_now();
                }
            }
        }
        shard.poller.wake(INBOX);
        self.accepted.fetch_add(1, Ordering::Relaxed);
        Ok(id)
    }

    /// Aggregate counters.
    pub fn stats(&self) -> ShardStats {
        let g = |f: &dyn Fn(&ShardGauges) -> usize| self.shards.iter().map(|s| f(&s.gauges)).sum();
        ShardStats {
            shards: self.shards.len(),
            accepted: self.accepted.load(Ordering::Relaxed),
            active: g(&|g| g.active.load(Ordering::Relaxed)),
            served: self.shards.iter().map(|s| s.gauges.served.load(Ordering::Relaxed)).sum(),
            shed: self.shards.iter().map(|s| s.gauges.shed.load(Ordering::Relaxed)).sum(),
            overloaded: g(&|g| g.overloaded.load(Ordering::Relaxed) as usize),
            backlog: g(&|g| g.backlog.load(Ordering::Relaxed)),
            backlog_hwm: self
                .shards
                .iter()
                .map(|s| s.gauges.backlog_hwm.load(Ordering::Relaxed))
                .max()
                .unwrap_or(0),
        }
    }

    /// Stop accepting, drain, and join every shard thread. Sessions still
    /// pinned are dropped (their peers see EOF). Idempotent.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        for shard in &self.shards {
            shard.tx.lock().close();
            shard.poller.wake(INBOX);
        }
    }

    /// Join shard threads after [`shutdown`](Self::shutdown); called by
    /// `Drop`, public for tests that want deterministic teardown.
    pub fn join(&mut self) {
        for shard in &mut self.shards {
            if let Some(join) = shard.join.take() {
                let _ = join.join();
            }
        }
    }
}

impl Drop for ShardServer {
    fn drop(&mut self) {
        self.shutdown();
        self.join();
    }
}

/// One pinned session inside a shard's event loop.
struct PinnedSession {
    stream: BoxStream,
    watch: PipeWatch,
    service: Arc<dyn RecordService>,
    /// DRR service credit in bytes; replenished per run-queue visit.
    deficit: usize,
    /// Last sampled wire backlog (bytes), mirrored into the shard total.
    backlog: usize,
    /// Already sitting in the run queue (dedup for readiness storms).
    queued: bool,
    /// Already listed for the shard's next send wave.
    in_wave: bool,
}

/// What one pump pass decided about a session.
enum Pump {
    /// Budget spent with input left: revisit after the neighbors.
    Rearm,
    /// Nothing more to do until the next arrival.
    Idle,
    /// EOF or error: unpin and drop.
    Gone,
}

/// The shard's open send wave: sessions that ran out of input, whose
/// held replies leave together — stamped against one clock reading —
/// when the shard is about to block, or once every session queued when
/// the wave opened has had its visit (so a reply waits at most one DRR
/// round).
#[derive(Default)]
struct Wave {
    members: Vec<Token>,
    /// Visit count at which the open wave is due.
    due: usize,
    /// Reused across waves, so a steady state allocates nothing here.
    send: SendWave,
}

impl Wave {
    fn join(&mut self, token: Token, session: &mut PinnedSession, due: usize) {
        if session.in_wave {
            return;
        }
        if self.members.is_empty() {
            self.due = due;
        }
        session.in_wave = true;
        self.members.push(token);
    }

    fn is_open(&self) -> bool {
        !self.members.is_empty()
    }

    fn is_due(&self, idle: bool, visits: usize) -> bool {
        self.is_open() && (idle || visits >= self.due)
    }

    /// A failed release means the peer is gone; its close has already
    /// fired the watch and the session's next visit unpins it.
    fn release(&mut self, sessions: &mut HashMap<Token, PinnedSession>) {
        for token in self.members.drain(..) {
            if let Some(session) = sessions.get_mut(&token) {
                session.in_wave = false;
                let _ = session.watch.gather().release_in(&mut self.send);
            }
        }
        self.send.finish();
    }
}

/// Re-sample one session's wire backlog and fold the delta into the
/// shard aggregate (so the total stays O(1) per visit, not O(sessions)).
fn resample_backlog(session: &mut PinnedSession, gauges: &ShardGauges) {
    let now = session.watch.queued_bytes();
    let old = std::mem::replace(&mut session.backlog, now);
    if now >= old {
        let total = gauges.backlog.fetch_add(now - old, Ordering::Relaxed) + (now - old);
        gauges.backlog_hwm.fetch_max(total, Ordering::Relaxed);
    } else {
        gauges.backlog.fetch_sub(old - now, Ordering::Relaxed);
    }
}

fn shard_loop(
    shard_index: usize,
    poller: Arc<Poller>,
    inbox: SpscReceiver<NewSession>,
    gauges: Arc<ShardGauges>,
    obs: Arc<Obs>,
    policy: AdmissionPolicy,
) {
    let mut sessions: HashMap<Token, PinnedSession> = HashMap::new();
    let mut next_token: Token = INBOX + 1;
    let mut ready: Vec<Token> = Vec::new();
    // Deficit-round-robin run queue: the backlogged sessions, in visit
    // order. A session is enqueued by readiness and revisited until its
    // input drains; between visits every neighbor gets its turn.
    let mut run: VecDeque<Token> = VecDeque::new();
    // Per-shard scratch: one request buffer, one write-assembly buffer,
    // shared by every session the shard owns — zero-alloc at steady state.
    let mut record: Vec<u8> = Vec::new();
    let mut scratch: Vec<u8> = Vec::new();
    let mut closed = false;
    let mut overloaded = false;
    let mut wave = Wave::default();
    let mut visits: usize = 0;

    loop {
        // Before an idle shard lets its wave go, one last non-blocking
        // look: sessions whose records arrived with the wave's own join
        // it rather than leave a wire-time later.
        let arrived = run.is_empty()
            && wave.is_open()
            && poller.wait(Some(Duration::ZERO), &mut ready) > 0;
        if !arrived {
            if wave.is_due(run.is_empty(), visits) {
                wave.release(&mut sessions);
            }
            // With backlogged sessions the poll is non-blocking, so new
            // arrivals and the accept inbox are still noticed every
            // visit — sustained overload cannot starve the INBOX.
            let timeout = if run.is_empty() { None } else { Some(Duration::ZERO) };
            poller.wait(timeout, &mut ready);
        }
        for &token in &ready {
            if token == INBOX {
                loop {
                    match inbox.pop() {
                        Popped::Value(new) => {
                            let token = next_token;
                            next_token += 1;
                            new.watch.register(poller.readiness(token));
                            obs.emit(
                                Hop::ShardHandoff,
                                new.id as u32,
                                NO_PROC,
                                shard_index as u64,
                            );
                            gauges.active.fetch_add(1, Ordering::Relaxed);
                            sessions.insert(
                                token,
                                PinnedSession {
                                    stream: new.stream,
                                    watch: new.watch,
                                    service: new.service,
                                    deficit: 0,
                                    backlog: 0,
                                    queued: false,
                                    in_wave: false,
                                },
                            );
                        }
                        Popped::Empty => break,
                        Popped::Closed => {
                            closed = true;
                            break;
                        }
                    }
                }
                continue;
            }
            if let Some(session) = sessions.get_mut(&token) {
                if !session.queued {
                    session.queued = true;
                    run.push_back(token);
                }
            }
        }
        if closed {
            // Pinned sessions drop here; their peers observe EOF.
            return;
        }
        // One DRR visit per loop iteration: pop the head, top up its
        // deficit, pump within budget, and requeue it behind every
        // waiting neighbor if input remains.
        let Some(token) = run.pop_front() else { continue };
        let Some(session) = sessions.get_mut(&token) else { continue };
        visits += 1;
        session.queued = false;
        resample_backlog(session, &gauges);
        if !overloaded && gauges.backlog.load(Ordering::Relaxed) > policy.shard_backlog_budget {
            overloaded = true;
            gauges.overloaded.store(true, Ordering::Relaxed);
            obs.emit(Hop::Overload, shard_index as u32, NO_PROC, 1);
        }
        session.deficit = (session.deficit + policy.quantum).min(2 * policy.quantum);
        // Replies to the records this session drains are held until it
        // runs out of input, then leave with the shard's send wave (see
        // `Send waves` in the module docs).
        session.watch.gather().hold();
        match pump_session(session, &mut record, &mut scratch, &gauges, &obs, &policy, overloaded)
        {
            Pump::Idle => {
                wave.join(token, session, visits + run.len());
                session.deficit = 0;
                resample_backlog(session, &gauges);
            }
            Pump::Rearm => {
                resample_backlog(session, &gauges);
                session.queued = true;
                run.push_back(token);
            }
            Pump::Gone => {
                let stale = session.backlog;
                sessions.remove(&token);
                gauges.active.fetch_sub(1, Ordering::Relaxed);
                gauges.backlog.fetch_sub(stale, Ordering::Relaxed);
            }
        }
        if overloaded && gauges.backlog.load(Ordering::Relaxed) < policy.shard_backlog_budget / 2 {
            overloaded = false;
            gauges.overloaded.store(false, Ordering::Relaxed);
            obs.emit(Hop::Overload, shard_index as u32, NO_PROC, 0);
        }
    }
}

fn pump_session(
    session: &mut PinnedSession,
    record: &mut Vec<u8>,
    scratch: &mut Vec<u8>,
    gauges: &ShardGauges,
    obs: &Obs,
    policy: &AdmissionPolicy,
    overloaded: bool,
) -> Pump {
    for _ in 0..policy.max_pump {
        if session.deficit == 0 {
            break; // DRR budget spent; yield to the neighbors.
        }
        if session.watch.has_input() {
            // Message-atomic writer invariant (module docs): the record
            // whose first bytes are queued cannot stall us indefinitely.
            match read_record_into(&mut session.stream, record) {
                Ok(true) => {
                    session.deficit = session.deficit.saturating_sub(record.len().max(1));
                    // Admission: a session over its cap has this record
                    // shed (answered without execution) — the client's
                    // JUKEBOX retry re-sends it once the backlog drains.
                    // In the overload band the cap tightens to a quarter,
                    // which sheds the sessions holding the backlog while
                    // closed-loop bystanders keep being served.
                    let backlog = session.watch.queued_bytes();
                    let cap = if overloaded {
                        policy.session_backlog_cap / 4
                    } else {
                        policy.session_backlog_cap
                    };
                    if backlog > cap {
                        if let Some(reply) = session.service.shed_record(record) {
                            gauges.shed.fetch_add(1, Ordering::Relaxed);
                            obs.emit(
                                Hop::Shed,
                                peek_xid(record),
                                peek_proc(record),
                                backlog as u64,
                            );
                            if !send_reply(session, &reply, scratch, policy) {
                                return Pump::Gone;
                            }
                            continue;
                        }
                    }
                    let reply = match session.service.process_record(record) {
                        Ok(r) => r,
                        Err(_) => return Pump::Gone,
                    };
                    // Count before the reply leaves: a peer that has seen
                    // the reply must also see it counted.
                    gauges.served.fetch_add(1, Ordering::Relaxed);
                    if !send_reply(session, &reply, scratch, policy) {
                        return Pump::Gone;
                    }
                }
                Ok(false) | Err(_) => return Pump::Gone,
            }
        } else if session.watch.is_closed() {
            // Close is final and the queue is empty: clean EOF.
            return Pump::Gone;
        } else {
            return Pump::Idle;
        }
    }
    // Budget exhausted with input (possibly) left — be fair to neighbors.
    if session.watch.has_input() || session.watch.is_closed() {
        Pump::Rearm
    } else {
        Pump::Idle
    }
}

/// Write one reply into the session's held batch; once the held bytes
/// pass the session backlog cap, send the batch and keep holding.
/// `false` means the session is gone.
fn send_reply(
    session: &mut PinnedSession,
    reply: &[u8],
    scratch: &mut Vec<u8>,
    policy: &AdmissionPolicy,
) -> bool {
    if write_record_with(&mut session.stream, reply, scratch).is_err() {
        return false;
    }
    let gather = session.watch.gather();
    if gather.held_bytes() > policy.session_backlog_cap {
        if gather.release().is_err() {
            return false;
        }
        gather.hold();
    }
    true
}

/// Threads currently live in this process, from `/proc/self/status`
/// (`None` off Linux or if the file is unreadable). The scale tests use
/// this to assert the sharded core's thread ceiling.
pub fn process_thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::RpcClient;
    use crate::msg::{AcceptStat, OpaqueAuth};
    use crate::server::Dispatch;
    use sgfs_net::pipe_pair;
    use sgfs_xdr::XdrDecoder;

    struct Doubler;

    impl RpcService for Doubler {
        fn program(&self) -> u32 {
            0x2000_0001
        }
        fn version(&self) -> u32 {
            1
        }
        fn handle(&self, proc: u32, _cred: &OpaqueAuth, args: &mut XdrDecoder<'_>) -> Dispatch {
            match proc {
                0 => Dispatch::Ok(Vec::new()),
                1 => match args.get_u32() {
                    Ok(v) => Dispatch::reply(&(v * 2)),
                    Err(_) => Dispatch::Error(AcceptStat::GarbageArgs),
                },
                _ => Dispatch::Error(AcceptStat::ProcUnavail),
            }
        }
    }

    fn connect(server: &ShardServer) -> RpcClient {
        let (client_end, server_end) = pipe_pair();
        let watch = server_end.watch();
        server
            .add_session(
                Box::new(server_end),
                watch,
                Arc::new(RpcRecordService(Arc::new(Doubler))),
            )
            .unwrap();
        RpcClient::new(Box::new(client_end), 0x2000_0001, 1)
    }

    #[test]
    fn single_session_roundtrips() {
        let _threads = crate::test_threads::shared();
        let server = ShardServer::new(2);
        let mut c = connect(&server);
        for v in [1u32, 2, 99] {
            let r: u32 = c.call(1, &v).unwrap();
            assert_eq!(r, v * 2);
        }
        let stats = server.stats();
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.served, 3);
    }

    #[test]
    fn many_sessions_few_threads() {
        let _alone = crate::test_threads::alone();
        let before = crate::test_threads::quiesced();
        let server = ShardServer::new(4);
        let mut clients: Vec<RpcClient> = (0..64).map(|_| connect(&server)).collect();
        for (i, c) in clients.iter_mut().enumerate() {
            let r: u32 = c.call(1, &(i as u32)).unwrap();
            assert_eq!(r, i as u32 * 2);
        }
        if let (Some(b), Some(a)) = (before, process_thread_count()) {
            assert!(
                a <= b + 4,
                "64 sessions must cost at most 4 shard threads (before={b}, after={a})"
            );
        }
        assert_eq!(server.stats().active, 64);
        drop(clients);
    }

    #[test]
    fn session_close_unpins() {
        let _threads = crate::test_threads::shared();
        let server = ShardServer::new(1);
        let c = connect(&server);
        drop(c);
        // EOF propagation is asynchronous; poll briefly.
        for _ in 0..200 {
            if server.stats().active == 0 {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        panic!("session not unpinned after client EOF");
    }

    #[test]
    fn shutdown_drops_sessions_and_joins() {
        let _threads = crate::test_threads::shared();
        let server = ShardServer::new(3);
        let mut c = connect(&server);
        let r: u32 = c.call(1, &21).unwrap();
        assert_eq!(r, 42);
        server.shutdown();
        // After shutdown the peer sees EOF on its next call.
        assert!(c.call::<u32>(1, &1u32).is_err());
        let (_client_end, server_end) = pipe_pair();
        let watch = server_end.watch();
        assert!(server
            .add_session(
                Box::new(server_end),
                watch,
                Arc::new(RpcRecordService(Arc::new(Doubler))),
            )
            .is_err());
    }

    #[test]
    fn interleaved_sessions_on_one_shard() {
        let _threads = crate::test_threads::shared();
        let server = ShardServer::new(1);
        let mut clients: Vec<RpcClient> = (0..8).map(|_| connect(&server)).collect();
        for round in 0..50u32 {
            for (i, c) in clients.iter_mut().enumerate() {
                let v = round * 8 + i as u32;
                let r: u32 = c.call(1, &v).unwrap();
                assert_eq!(r, v * 2);
            }
        }
        assert_eq!(server.stats().served, 400);
    }
}
