//! Fixed client-side I/O pool: the client plane's answer to
//! [`crate::shard::ShardServer`].
//!
//! Every client [`Pipeline`](../../sgfs/src/proxy/pipeline.rs) used to
//! own a detached blocking reader thread; N sessions cost N parked
//! stacks. [`ClientIoPool`] replaces that with a small fixed set of
//! event-loop workers, each multiplexing many connections over a
//! [`sgfs_net::Poller`]. A connection is pinned to one worker at
//! [`add_conn`](ClientIoPool::add_conn) time and never migrates, so a
//! worker's connections share nothing with its neighbors; the only
//! cross-worker edge is the SPSC pin handoff, exactly as on the server
//! side.
//!
//! The pool knows nothing about pipelines or GTLS: a [`PoolConn`] routes
//! its own event sources (upstream socket watch, command submission
//! ring) into the readiness token it is handed at attach time, and
//! [`pump`](PoolConn::pump) drains whatever is actionable without
//! blocking on absent input. The same message-atomic writer invariant
//! that makes the shard loops sound applies here (see the shard module
//! docs): once a watch reports input, a whole record is available, so a
//! bounded blocking record read inside the loop cannot stall.
//!
//! A worker pumps every ready connection before it blocks again, and
//! only then lets their held sends go, as one [`SendWave`]: calls that
//! several connections issued together (one per stripe member, say)
//! leave under one clock reading. A wave that answered callers lingers
//! briefly first, so their next calls can join it (`LINGER`).

use sgfs_net::{
    spsc_channel, Poller, Popped, Readiness, SendWave, SpscReceiver, SpscSender, Token,
};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one pump pass decided about a pooled connection.
pub enum ConnPump {
    /// Nothing actionable until the next readiness notification.
    Idle,
    /// Fairness budget spent with work left: re-arm the token.
    Rearm,
    /// The connection retired (shutdown drained or upstream dead):
    /// unpin and drop it.
    Gone,
}

/// One event-driven connection a pool worker owns.
pub trait PoolConn: Send {
    /// Called once when the connection is pinned to its worker. The
    /// connection must register every event source it owns against
    /// `readiness` and keep a clone so replacement sources (e.g. a
    /// re-dialed upstream after reconnect) can be registered later.
    fn attach(&mut self, readiness: Readiness);
    /// Drain actionable work. Must not block waiting for new input;
    /// bounded blocking reads after `has_input()` are fine.
    fn pump(&mut self) -> ConnPump;
    /// Send, as part of `wave`, whatever the pumps since the worker last
    /// waited held back. The worker calls this for every connection it
    /// pumped, right before it blocks.
    fn release_sends(&mut self, wave: &mut SendWave) {
        let _ = wave;
    }
    /// Whether the worker should give this connection's callers a moment
    /// before releasing: true while it holds sends and callers it
    /// answered have not called again, so their next calls can still
    /// join the wave.
    fn linger(&self) -> bool {
        false
    }
}

/// Token 0 is every worker's pin-handoff inbox; connections start at 1.
const INBOX: Token = 0;

/// Capacity of each worker's handoff ring.
const INBOX_CAPACITY: usize = 256;

/// How long, per send wave, a worker waits for callers it answered to
/// call again before it releases. A closed-loop caller calls again
/// within a thread wake-up; a call that misses the wave leaves after the
/// receiver has gated the clock on the wave, and pays a whole extra
/// one-way latency.
const LINGER: Duration = Duration::from_micros(200);

struct WorkerHandle {
    /// Producer side of the pin handoff (mutex serializes concurrent
    /// pinners; the ring itself is SPSC).
    tx: Mutex<SpscSender<Box<dyn PoolConn>>>,
    poller: Arc<Poller>,
    active: Arc<AtomicUsize>,
    /// Cleared by the worker on *any* exit — orderly shutdown or an
    /// unwinding panic in a connection's `pump` — so pinners never spin
    /// on an inbox nobody will ever drain again.
    alive: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
}

/// Drop guard that clears the worker's liveness flag even when the
/// worker thread unwinds out of `worker_loop`.
struct AliveGuard(Arc<AtomicBool>);

impl Drop for AliveGuard {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
    }
}

/// A fixed pool of client I/O event loops.
pub struct ClientIoPool {
    workers: Vec<WorkerHandle>,
    next_id: AtomicU64,
    shutdown: AtomicBool,
}

impl ClientIoPool {
    /// Start `threads` event-loop workers (at least one).
    pub fn new(threads: usize) -> Arc<Self> {
        let threads = threads.max(1);
        let workers = (0..threads)
            .map(|index| {
                let (tx, rx) = spsc_channel::<Box<dyn PoolConn>>(INBOX_CAPACITY);
                let poller = Arc::new(Poller::new());
                let active = Arc::new(AtomicUsize::new(0));
                let alive = Arc::new(AtomicBool::new(true));
                let loop_poller = poller.clone();
                let loop_active = active.clone();
                let loop_alive = AliveGuard(alive.clone());
                let join = std::thread::Builder::new()
                    .name(format!("sgfs-client-io-{index}"))
                    .spawn(move || {
                        let _alive = loop_alive;
                        worker_loop(loop_poller, rx, loop_active)
                    })
                    .expect("spawn client I/O worker");
                WorkerHandle { tx: Mutex::new(tx), poller, active, alive, join: Some(join) }
            })
            .collect();
        Arc::new(Self { workers, next_id: AtomicU64::new(0), shutdown: AtomicBool::new(false) })
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Connections currently pinned across all workers.
    pub fn active_conns(&self) -> usize {
        self.workers.iter().map(|w| w.active.load(Ordering::Relaxed)).sum()
    }

    /// Pin a connection onto the next worker (round-robin).
    pub fn add_conn(&self, conn: Box<dyn PoolConn>) -> io::Result<()> {
        if self.shutdown.load(Ordering::Acquire) {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "client I/O pool shut down"));
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let worker = &self.workers[(id % self.workers.len() as u64) as usize];
        let mut conn = conn;
        loop {
            // A worker that exited early (e.g. a connection's `pump`
            // panicked) will never drain its ring: fail fast instead of
            // spinning on the handoff forever.
            if !worker.alive.load(Ordering::Acquire) {
                return Err(io::Error::other("client I/O worker exited; connection not pinned"));
            }
            let pushed = worker.tx.lock().push(conn);
            match pushed {
                Ok(()) => break,
                Err(back) => {
                    if self.shutdown.load(Ordering::Acquire) {
                        return Err(io::Error::new(
                            io::ErrorKind::BrokenPipe,
                            "client I/O pool shut down",
                        ));
                    }
                    conn = back;
                    worker.poller.wake(INBOX);
                    std::thread::yield_now();
                }
            }
        }
        worker.poller.wake(INBOX);
        Ok(())
    }

    /// Stop pinning and ask every worker to exit; still-pinned
    /// connections are dropped (their owners observe closed channels).
    /// Idempotent.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        for worker in &self.workers {
            worker.tx.lock().close();
            worker.poller.wake(INBOX);
        }
    }

    /// Join worker threads after [`shutdown`](Self::shutdown).
    pub fn join(&mut self) {
        for worker in &mut self.workers {
            if let Some(join) = worker.join.take() {
                let _ = join.join();
            }
        }
    }
}

impl Drop for ClientIoPool {
    fn drop(&mut self) {
        self.shutdown();
        self.join();
    }
}

fn worker_loop(
    poller: Arc<Poller>,
    inbox: SpscReceiver<Box<dyn PoolConn>>,
    active: Arc<AtomicUsize>,
) {
    let mut conns: HashMap<Token, Box<dyn PoolConn>> = HashMap::new();
    let mut next_token: Token = INBOX + 1;
    let mut ready: Vec<Token> = Vec::new();
    let mut closed = false;
    // Connections pumped since the worker last waited (with repeats).
    let mut pumped: Vec<Token> = Vec::new();
    let mut linger_left = LINGER;
    let mut wave = SendWave::default();

    loop {
        // About to block: everything pumped since the last wait leaves
        // as one send wave — after one short linger if callers were just
        // answered.
        let mut n = poller.wait(Some(Duration::ZERO), &mut ready);
        if n == 0
            && !linger_left.is_zero()
            && pumped.iter().any(|t| conns.get(t).is_some_and(|c| c.linger()))
        {
            let t0 = Instant::now();
            n = poller.wait(Some(linger_left), &mut ready);
            linger_left = linger_left.saturating_sub(t0.elapsed());
        }
        if n == 0 {
            linger_left = LINGER;
            pumped.sort_unstable();
            pumped.dedup();
            for token in pumped.drain(..) {
                if let Some(conn) = conns.get_mut(&token) {
                    conn.release_sends(&mut wave);
                }
            }
            wave.finish();
            poller.wait(None, &mut ready);
        }
        for &token in &ready {
            if token == INBOX {
                loop {
                    match inbox.pop() {
                        Popped::Value(mut conn) => {
                            let token = next_token;
                            next_token += 1;
                            conn.attach(poller.readiness(token));
                            active.fetch_add(1, Ordering::Relaxed);
                            conns.insert(token, conn);
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
            let Some(conn) = conns.get_mut(&token) else {
                continue; // stale readiness for an unpinned connection
            };
            pumped.push(token);
            match conn.pump() {
                ConnPump::Idle => {}
                ConnPump::Rearm => poller.wake(token),
                ConnPump::Gone => {
                    conns.remove(&token);
                    active.fetch_sub(1, Ordering::Relaxed);
                }
            }
        }
        if closed {
            // Remaining connections drop here; their owners see their
            // channels close.
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::process_thread_count;
    use sgfs_net::{submit_ring, SubmitReceiver, SubmitSender};

    /// A conn that doubles every submitted value into a shared log.
    struct Doubler {
        rx: SubmitReceiver<u64>,
        out: Arc<Mutex<Vec<u64>>>,
        retired: Arc<AtomicBool>,
    }

    impl PoolConn for Doubler {
        fn attach(&mut self, readiness: Readiness) {
            self.rx.register(readiness);
        }
        fn pump(&mut self) -> ConnPump {
            loop {
                match self.rx.pop() {
                    Popped::Value(v) => self.out.lock().push(v * 2),
                    Popped::Empty => return ConnPump::Idle,
                    Popped::Closed => return ConnPump::Gone,
                }
            }
        }
    }

    impl Drop for Doubler {
        fn drop(&mut self) {
            self.retired.store(true, Ordering::Release);
        }
    }

    fn pinned_doubler(
        pool: &ClientIoPool,
    ) -> (SubmitSender<u64>, Arc<Mutex<Vec<u64>>>, Arc<AtomicBool>) {
        let (tx, rx) = submit_ring(16);
        let out = Arc::new(Mutex::new(Vec::new()));
        let retired = Arc::new(AtomicBool::new(false));
        pool.add_conn(Box::new(Doubler { rx, out: out.clone(), retired: retired.clone() }))
            .unwrap();
        (tx, out, retired)
    }

    fn wait_for<F: Fn() -> bool>(what: &str, f: F) {
        for _ in 0..500 {
            if f() {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        panic!("timed out waiting for {what}");
    }

    #[test]
    fn many_conns_fixed_threads() {
        let _alone = crate::test_threads::alone();
        let before = crate::test_threads::quiesced();
        let pool = ClientIoPool::new(2);
        let conns: Vec<_> = (0..64).map(|_| pinned_doubler(&pool)).collect();
        for (i, (tx, _, _)) in conns.iter().enumerate() {
            tx.push(i as u64).unwrap();
        }
        for (i, (_, out, _)) in conns.iter().enumerate() {
            wait_for("doubled value", || out.lock().first() == Some(&(i as u64 * 2)));
        }
        if let (Some(b), Some(a)) = (before, process_thread_count()) {
            assert!(a <= b + 2, "64 conns must cost 2 pool threads (before={b}, after={a})");
        }
        assert_eq!(pool.active_conns(), 64);
    }

    #[test]
    fn sender_drop_retires_conn() {
        let _threads = crate::test_threads::shared();
        let pool = ClientIoPool::new(1);
        let (tx, out, retired) = pinned_doubler(&pool);
        tx.push(5).unwrap();
        wait_for("value", || !out.lock().is_empty());
        drop(tx);
        wait_for("retire", || retired.load(Ordering::Acquire));
        wait_for("unpin", || pool.active_conns() == 0);
    }

    /// A conn whose pump panics on first wakeup, killing its worker —
    /// the failure mode that used to wedge `add_conn` forever.
    struct PanicOnPump {
        rx: SubmitReceiver<u64>,
    }

    impl PoolConn for PanicOnPump {
        fn attach(&mut self, readiness: Readiness) {
            self.rx.register(readiness);
        }
        fn pump(&mut self) -> ConnPump {
            panic!("poisoned pump");
        }
    }

    #[test]
    fn add_conn_fails_fast_after_worker_death() {
        let _threads = crate::test_threads::shared();
        let pool = ClientIoPool::new(1);
        let (tx, rx) = submit_ring(4);
        pool.add_conn(Box::new(PanicOnPump { rx })).unwrap();
        tx.push(1).unwrap(); // wake the worker; its pump panics; it dies
        // Pre-fix this loop never terminated: once the dead worker's ring
        // filled, add_conn spun on a handoff nobody would ever drain.
        // Post-fix the liveness flag turns the spin into a fast error.
        let mut failed = false;
        for _ in 0..2000 {
            let (tx2, rx2) = submit_ring(4);
            let pinned = pool.add_conn(Box::new(Doubler {
                rx: rx2,
                out: Arc::new(Mutex::new(Vec::new())),
                retired: Arc::new(AtomicBool::new(false)),
            }));
            drop(tx2);
            if pinned.is_err() {
                failed = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(failed, "add_conn kept claiming success against a dead worker");
    }

    #[test]
    fn shutdown_drops_pinned_conns_and_joins() {
        let _alone = crate::test_threads::alone();
        let before = crate::test_threads::quiesced();
        let pool = ClientIoPool::new(2);
        let (tx, _out, retired) = pinned_doubler(&pool);
        pool.shutdown();
        wait_for("retire on shutdown", || retired.load(Ordering::Acquire));
        assert!(tx.push(1).is_err(), "ring closed once the conn dropped");
        let (tx2, rx2) = submit_ring(4);
        let err = pool.add_conn(Box::new(Doubler {
            rx: rx2,
            out: Arc::new(Mutex::new(Vec::new())),
            retired: Arc::new(AtomicBool::new(false)),
        }));
        assert!(err.is_err());
        drop(tx2);
        drop(pool);
        if let (Some(b), Some(a)) = (before, process_thread_count()) {
            assert!(a <= b, "pool threads joined (before={b}, after={a})");
        }
    }
}
