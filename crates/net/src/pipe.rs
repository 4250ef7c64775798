//! In-memory duplex byte streams, optionally routed over an emulated link.

use crate::clock::SimClock;
use crate::link::Link;
use crate::poll::Readiness;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::Arc;
use std::time::Duration;

/// A chunk in flight, stamped with its emulated arrival time.
struct Msg {
    arrive_at: Duration,
    data: Vec<u8>,
}

/// One direction of the pipe: a bounded-by-courtesy queue plus EOF flag.
struct Channel {
    state: Mutex<ChannelState>,
    cond: Condvar,
    /// Readiness handle of a registered poller, notified on every push
    /// and close (the shard event loops watch receive channels this way).
    watcher: Mutex<Option<Readiness>>,
}

#[derive(Default)]
struct ChannelState {
    queue: VecDeque<Msg>,
    /// Payload bytes currently queued (maintained on push/pop so the
    /// admission layer can sample a session's wire backlog in O(1)).
    queued_bytes: usize,
    closed: bool,
}

impl Channel {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(ChannelState::default()),
            cond: Condvar::new(),
            watcher: Mutex::new(None),
        })
    }

    /// Queue every message of `msgs` under one lock acquisition, so a
    /// receiver observes all of them or none. The caller wakes it.
    fn queue_all(&self, msgs: impl Iterator<Item = Msg>) -> io::Result<()> {
        let mut st = self.state.lock();
        if st.closed {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "pipe closed"));
        }
        for msg in msgs {
            st.queued_bytes += msg.data.len();
            st.queue.push_back(msg);
        }
        Ok(())
    }

    /// Wake a blocked reader and the registered poller.
    fn wake(&self) {
        self.cond.notify_one();
        self.notify_watcher();
    }

    /// Non-blocking pop.
    fn try_pop(&self) -> Option<Msg> {
        let mut st = self.state.lock();
        let m = st.queue.pop_front()?;
        st.queued_bytes -= m.data.len();
        Some(m)
    }

    /// Blocking pop; `None` at EOF.
    fn pop(&self) -> Option<Msg> {
        let mut st = self.state.lock();
        loop {
            if let Some(m) = st.queue.pop_front() {
                st.queued_bytes -= m.data.len();
                return Some(m);
            }
            if st.closed {
                return None;
            }
            self.cond.wait(&mut st);
        }
    }

    fn is_closed(&self) -> bool {
        self.state.lock().closed
    }

    fn close(&self) {
        {
            let mut st = self.state.lock();
            st.closed = true;
            self.cond.notify_all();
        }
        self.notify_watcher();
    }

    /// Wake a registered poller, outside the state lock (the poller has
    /// its own lock; never hold both).
    fn notify_watcher(&self) {
        if let Some(w) = self.watcher.lock().as_ref() {
            w.notify();
        }
    }
}

/// The send side of one endpoint: the channel it feeds, the link that
/// stamps it, and the sends a [`PipeGather`] is holding back.
struct Outbound {
    channel: Arc<Channel>,
    /// Link this endpoint transmits over, with its direction index.
    link: Option<(Arc<Link>, usize)>,
    held: Mutex<Held>,
}

#[derive(Default)]
struct Held {
    /// Holding: sends queue here instead of leaving.
    on: bool,
    /// Held messages in send order. Drained on release, never shrunk, so
    /// a steady stream of batches reuses one allocation.
    msgs: Vec<Vec<u8>>,
    bytes: usize,
}

impl Outbound {
    fn new(channel: Arc<Channel>, link: Option<(Arc<Link>, usize)>) -> Arc<Self> {
        Arc::new(Self { channel, link, held: Mutex::new(Held::default()) })
    }

    /// One write call = one message: held while a gather is open,
    /// otherwise stamped and queued now.
    fn send(&self, buf: &[u8]) -> io::Result<()> {
        let data = buf.to_vec();
        {
            let mut held = self.held.lock();
            if held.on {
                if self.channel.is_closed() {
                    return Err(io::Error::new(io::ErrorKind::BrokenPipe, "pipe closed"));
                }
                held.bytes += data.len();
                held.msgs.push(data);
                return Ok(());
            }
        }
        let arrive_at = match &self.link {
            Some((link, dir)) => link.stamp_send(*dir, buf.len()),
            None => Duration::ZERO,
        };
        self.channel.queue_all(std::iter::once(Msg { arrive_at, data }))?;
        self.channel.wake();
        Ok(())
    }

    /// End the hold: stamp every held message against the wave's clock
    /// reading (taken now if the wave has none yet) and queue them
    /// together.
    fn release(&self, wave: &mut SendWave) -> io::Result<()> {
        let mut held = self.held.lock();
        held.on = false;
        held.bytes = 0;
        if held.msgs.is_empty() {
            return Ok(());
        }
        let now = self.link.as_ref().map(|(link, _)| wave.now(link.clock()));
        let link = &self.link;
        self.channel.queue_all(held.msgs.drain(..).map(|data| Msg {
            arrive_at: match (link, now) {
                (Some((link, dir)), Some(now)) => link.stamp_send_at(*dir, data.len(), now),
                _ => Duration::ZERO,
            },
            data,
        }))?;
        wave.wake_later(&self.channel);
        Ok(())
    }
}

/// A poll-side view of one pipe endpoint's *receive* channel, plus the
/// endpoint's [`PipeGather`].
///
/// Taken from the raw [`PipeEnd`] **before** the endpoint is wrapped in
/// higher layers (fault injectors, GTLS), so readiness always reflects
/// the wire itself: arrivals and EOF fire regardless of what the wrapping
/// stack does with the bytes. Every record is still its own pipe message
/// — gathering delays when a record is queued, never how it is cut, and
/// a released batch is queued under one lock — so "the wire has input"
/// is exactly "a whole record (or EOF) is ready to pump".
#[derive(Clone)]
pub struct PipeWatch {
    channel: Arc<Channel>,
    gather: PipeGather,
}

impl PipeWatch {
    /// Install `readiness` as this channel's watcher. If the channel
    /// already holds data or is already closed, the token fires
    /// immediately — registration cannot race an earlier arrival.
    pub fn register(&self, readiness: Readiness) {
        *self.channel.watcher.lock() = Some(readiness.clone());
        let fire = {
            let st = self.channel.state.lock();
            !st.queue.is_empty() || st.closed
        };
        if fire {
            readiness.notify();
        }
    }

    /// Is at least one unconsumed message queued?
    pub fn has_input(&self) -> bool {
        !self.channel.state.lock().queue.is_empty()
    }

    /// Has the sending side closed (EOF pending once drained)?
    pub fn is_closed(&self) -> bool {
        self.channel.is_closed()
    }

    /// Payload bytes currently queued and unconsumed on this channel.
    ///
    /// This is the receiver-side backlog the admission layer samples: a
    /// session that keeps submitting while its records sit unread shows
    /// up here, byte-accurate, without walking the queue.
    pub fn queued_bytes(&self) -> usize {
        self.channel.state.lock().queued_bytes
    }

    /// Unconsumed whole messages (records) queued on this channel.
    pub fn queued_msgs(&self) -> usize {
        self.channel.state.lock().queue.len()
    }

    /// The send-side gather of the endpoint this watch was taken from
    /// (inert for a watch taken from a [`PipeReader`]).
    pub fn gather(&self) -> &PipeGather {
        &self.gather
    }
}

/// Several [`PipeGather::release_in`] calls that leave as one stamped
/// send: they share one clock reading, taken lazily by the first release
/// that has anything to send (an endpoint on another clock — another
/// emulated testbed — reads its own), and no receiver is woken until
/// [`finish`](Self::finish), so none can gate the clock on part of the
/// wave while the rest is still being queued. Dropping a wave finishes
/// it.
#[derive(Default)]
pub struct SendWave {
    reading: Option<(Arc<SimClock>, Duration)>,
    /// Receivers to wake at `finish`: the first inline, so a one-endpoint
    /// wave never allocates; a reused wave keeps its capacity.
    first: Option<Arc<Channel>>,
    rest: Vec<Arc<Channel>>,
}

impl SendWave {
    /// The wave's reading of `clock`.
    fn now(&mut self, clock: &Arc<SimClock>) -> Duration {
        match &self.reading {
            Some((c, now)) if Arc::ptr_eq(c, clock) => *now,
            Some(_) => clock.now(),
            None => {
                let now = clock.now();
                self.reading = Some((clock.clone(), now));
                now
            }
        }
    }

    fn wake_later(&mut self, channel: &Arc<Channel>) {
        if self.first.is_none() {
            self.first = Some(channel.clone());
        } else {
            self.rest.push(channel.clone());
        }
    }

    /// Wake every receiver of the wave, now that all of it is queued,
    /// and start afresh.
    pub fn finish(&mut self) {
        self.reading = None;
        for channel in self.first.take().into_iter().chain(self.rest.drain(..)) {
            channel.wake();
        }
    }
}

impl Drop for SendWave {
    fn drop(&mut self) {
        self.finish();
    }
}

/// A handle that makes a batch of sends leave one pipe endpoint as one
/// stamped send.
///
/// Between [`hold`](Self::hold) and [`release`](Self::release) every
/// write on the endpoint — through any wrapping stack — is kept back;
/// release stamps them all against a single clock reading and queues
/// them under one lock. Without it, a receiver that gates the shared
/// clock forward on the first message of a batch pushes the stamps of
/// the rest one link latency later, and a window of calls issued
/// together pays for itself serially. Each write is still its own
/// message, so readiness, backlog sampling and message counts are
/// unchanged.
///
/// Two rules keep a hold from stalling anything: a reader that is about
/// to block on the same endpoint releases first (a handshake ping-pong
/// never waits behind its own held flight), and dropping the endpoint
/// releases before it closes. A gather taken from a [`PipeReader`]'s
/// watch has no send side and does nothing.
#[derive(Clone)]
pub struct PipeGather(Option<Arc<Outbound>>);

impl PipeGather {
    /// Start holding this endpoint's sends.
    pub fn hold(&self) {
        if let Some(out) = &self.0 {
            out.held.lock().on = true;
        }
    }

    /// Queue everything held, stamped together, and stop holding. Fails
    /// only if the peer is gone, which its close already signals.
    pub fn release(&self) -> io::Result<()> {
        self.release_in(&mut SendWave::default())
    }

    /// [`release`](Self::release) as part of `wave`: every endpoint
    /// released in one wave is stamped against the same clock reading.
    pub fn release_in(&self, wave: &mut SendWave) -> io::Result<()> {
        match &self.0 {
            Some(out) => out.release(wave),
            None => Ok(()),
        }
    }

    /// Payload bytes currently held back.
    pub fn held_bytes(&self) -> usize {
        self.0.as_ref().map_or(0, |out| out.held.lock().bytes)
    }
}

/// One endpoint of an in-memory duplex pipe.
///
/// Implements `Read`/`Write`; reads block until data or EOF. When built
/// over a [`Link`], each written chunk is stamped with its arrival time and
/// the reader fast-forwards (or sleeps, in real-sleep mode) the shared
/// clock to that time before consuming it.
pub struct PipeEnd {
    rx: PipeReader,
    tx: PipeWriter,
}

/// Create a connected pair of pipe endpoints with no link emulation
/// (an ideal local transport, e.g. proxy ↔ kernel server on one host).
pub fn pipe_pair() -> (PipeEnd, PipeEnd) {
    build_pair(None)
}

/// Create a connected pair routed across an emulated WAN link.
///
/// The first endpoint is the "client host" side (transmits in direction 0),
/// the second the "server host" side (direction 1).
pub fn pipe_pair_over_link(link: Arc<Link>) -> (PipeEnd, PipeEnd) {
    build_pair(Some(link))
}

fn build_pair(link: Option<Arc<Link>>) -> (PipeEnd, PipeEnd) {
    let a_to_b = Channel::new();
    let b_to_a = Channel::new();
    let clock = link.as_ref().map(|l| l.clock().clone());
    let end = |incoming: &Arc<Channel>, outgoing: &Arc<Channel>, dir: usize| {
        let out = Outbound::new(outgoing.clone(), link.as_ref().map(|l| (l.clone(), dir)));
        PipeEnd {
            rx: PipeReader {
                incoming: incoming.clone(),
                out: out.clone(),
                clock: clock.clone(),
                readbuf: Vec::new(),
                readpos: 0,
            },
            tx: PipeWriter { out },
        }
    };
    (end(&b_to_a, &a_to_b, 0), end(&a_to_b, &b_to_a, 1))
}

/// The read half of a split [`PipeEnd`].
pub struct PipeReader {
    incoming: Arc<Channel>,
    /// The sibling send side, released before a read blocks.
    out: Arc<Outbound>,
    clock: Option<Arc<SimClock>>,
    /// Partially consumed incoming message.
    readbuf: Vec<u8>,
    readpos: usize,
}

/// The write half of a split [`PipeEnd`].
pub struct PipeWriter {
    out: Arc<Outbound>,
}

impl PipeEnd {
    /// A poll-side watch on this endpoint's receive channel, carrying its
    /// send-side [`PipeGather`]. Take it before boxing/wrapping the
    /// endpoint; it stays valid (and keeps firing) through any wrapping
    /// stack.
    pub fn watch(&self) -> PipeWatch {
        PipeWatch { channel: self.rx.incoming.clone(), gather: self.gather() }
    }

    /// The send-side gather handle of this endpoint.
    pub fn gather(&self) -> PipeGather {
        PipeGather(Some(self.tx.out.clone()))
    }

    /// Split into independently owned read and write halves, so one
    /// thread can block reading while another writes (the tunnel
    /// forwarders need this).
    pub fn split(self) -> (PipeReader, PipeWriter) {
        (self.rx, self.tx)
    }
}

impl PipeReader {
    /// A poll-side watch on this half's receive channel (its gather is
    /// inert: the send side lives in the [`PipeWriter`]).
    pub fn watch(&self) -> PipeWatch {
        PipeWatch { channel: self.incoming.clone(), gather: PipeGather(None) }
    }
}

impl Read for PipeReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        while self.readpos == self.readbuf.len() {
            let msg = match self.incoming.try_pop() {
                Some(msg) => msg,
                None => {
                    // About to block: whatever this endpoint holds may be
                    // what the peer is waiting for. Best-effort — a closed
                    // peer shows up as EOF below.
                    let _ = self.out.release(&mut SendWave::default());
                    match self.incoming.pop() {
                        Some(msg) => msg,
                        None => return Ok(0), // EOF
                    }
                }
            };
            if let Some(clock) = &self.clock {
                clock.wait_until(msg.arrive_at);
            }
            self.readbuf = msg.data;
            self.readpos = 0;
        }
        let n = buf.len().min(self.readbuf.len() - self.readpos);
        buf[..n].copy_from_slice(&self.readbuf[self.readpos..self.readpos + n]);
        self.readpos += n;
        Ok(n)
    }
}

impl Write for PipeWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        self.out.send(buf)?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for PipeReader {
    fn drop(&mut self) {
        // Also wakes any peer blocked on this side so a dropped endpoint
        // is observed promptly.
        self.incoming.close();
    }
}

impl Drop for PipeWriter {
    fn drop(&mut self) {
        // Held sends were written: they leave before the close.
        let _ = self.out.release(&mut SendWave::default());
        self.out.channel.close();
    }
}

impl Read for PipeEnd {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.rx.read(buf)
    }
}

impl Write for PipeEnd {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.tx.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;
    use std::io::{Read, Write};

    #[test]
    fn write_then_read_roundtrip() {
        let (mut a, mut b) = pipe_pair();
        a.write_all(b"hello world").unwrap();
        let mut buf = [0u8; 11];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello world");
    }

    #[test]
    fn reads_can_split_messages() {
        let (mut a, mut b) = pipe_pair();
        a.write_all(&[1, 2, 3, 4, 5, 6]).unwrap();
        let mut buf = [0u8; 4];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 4]);
        let mut buf2 = [0u8; 2];
        b.read_exact(&mut buf2).unwrap();
        assert_eq!(buf2, [5, 6]);
    }

    #[test]
    fn reads_can_join_messages() {
        let (mut a, mut b) = pipe_pair();
        a.write_all(&[1, 2]).unwrap();
        a.write_all(&[3, 4]).unwrap();
        let mut buf = [0u8; 4];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 4]);
    }

    #[test]
    fn eof_on_peer_drop() {
        let (a, mut b) = pipe_pair();
        drop(a);
        let mut buf = [0u8; 8];
        assert_eq!(b.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn write_to_closed_pipe_fails() {
        let (mut a, b) = pipe_pair();
        drop(b);
        assert!(a.write_all(b"x").is_err());
    }

    #[test]
    fn blocking_read_across_threads() {
        let (mut a, mut b) = pipe_pair();
        let t = std::thread::spawn(move || {
            let mut buf = [0u8; 5];
            b.read_exact(&mut buf).unwrap();
            buf
        });
        std::thread::sleep(Duration::from_millis(20));
        a.write_all(b"async").unwrap();
        assert_eq!(&t.join().unwrap(), b"async");
    }

    #[test]
    fn watch_fires_on_push_and_close() {
        use crate::poll::Poller;
        let (mut a, b) = pipe_pair();
        let watch = b.watch();
        let poller = Poller::new();
        watch.register(poller.readiness(4));
        let mut out = Vec::new();
        assert_eq!(poller.wait(Some(Duration::from_millis(5)), &mut out), 0, "idle pipe");
        a.write_all(b"ping").unwrap();
        assert_eq!(poller.wait(None, &mut out), 1);
        assert_eq!(out, [4]);
        assert!(watch.has_input());
        drop(a);
        assert_eq!(poller.wait(None, &mut out), 1, "close wakes the watcher");
        assert!(watch.is_closed());
    }

    #[test]
    fn watch_registered_after_data_fires_immediately() {
        use crate::poll::Poller;
        let (mut a, b) = pipe_pair();
        a.write_all(b"early").unwrap();
        let poller = Poller::new();
        b.watch().register(poller.readiness(0));
        let mut out = Vec::new();
        assert_eq!(poller.wait(Some(Duration::from_millis(50)), &mut out), 1);
    }

    #[test]
    fn gathered_sends_leave_under_one_stamp() {
        let clock = SimClock::new();
        let link = Link::new(LinkSpec::wan_rtt(Duration::from_millis(20)), clock.clone());
        let (mut a, mut b) = pipe_pair_over_link(link);
        let gather = a.gather();
        gather.hold();
        a.write_all(b"one").unwrap();
        // A receiver elsewhere gates the shared clock forward mid-batch.
        clock.advance(Duration::from_millis(10));
        a.write_all(b"two").unwrap();
        assert!(!b.watch().has_input(), "held sends are not on the wire");
        assert_eq!(gather.held_bytes(), 6);
        gather.release().unwrap();
        assert_eq!(b.watch().queued_msgs(), 2, "one message per write");
        let mut buf = [0u8; 3];
        b.read_exact(&mut buf).unwrap();
        let first = clock.virtual_time();
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"two");
        assert!(
            clock.virtual_time() - first < Duration::from_millis(1),
            "the second message shares the first one's stamp"
        );
    }

    #[test]
    fn one_wave_stamps_several_endpoints_together() {
        let clock = SimClock::new();
        let link = Link::new(LinkSpec::wan_rtt(Duration::from_millis(20)), clock.clone());
        let (mut a1, mut b1) = pipe_pair_over_link(link.clone());
        let (mut a2, mut b2) = pipe_pair_over_link(link);
        let (g1, g2) = (a1.gather(), a2.gather());
        g1.hold();
        g2.hold();
        a1.write_all(b"x").unwrap();
        a2.write_all(b"y").unwrap();
        let mut wave = SendWave::default();
        g1.release_in(&mut wave).unwrap();
        clock.advance(Duration::from_millis(10));
        g2.release_in(&mut wave).unwrap();
        let mut buf = [0u8; 1];
        b1.read_exact(&mut buf).unwrap();
        let first = clock.virtual_time();
        b2.read_exact(&mut buf).unwrap();
        assert!(clock.virtual_time() - first < Duration::from_millis(1));
    }

    #[test]
    fn a_wave_reads_each_clock_apart() {
        let (c1, c2) = (SimClock::new(), SimClock::new());
        c2.advance(Duration::from_secs(5));
        let ideal = |c: &Arc<SimClock>| Link::new(LinkSpec::ideal(), c.clone());
        let (mut a1, mut b1) = pipe_pair_over_link(ideal(&c1));
        let (mut a2, mut b2) = pipe_pair_over_link(ideal(&c2));
        let (g1, g2) = (a1.gather(), a2.gather());
        g1.hold();
        g2.hold();
        a1.write_all(b"x").unwrap();
        a2.write_all(b"y").unwrap();
        let mut wave = SendWave::default();
        g1.release_in(&mut wave).unwrap();
        g2.release_in(&mut wave).unwrap();
        let mut buf = [0u8; 1];
        b1.read_exact(&mut buf).unwrap();
        b2.read_exact(&mut buf).unwrap();
        assert!(c1.virtual_time() < Duration::from_secs(1), "no stamp from the other clock");
        assert_eq!(c2.virtual_time(), Duration::from_secs(5));
    }

    #[test]
    fn blocking_read_releases_held_sends() {
        let (mut a, mut b) = pipe_pair();
        a.gather().hold();
        a.write_all(b"ping").unwrap();
        let peer = std::thread::spawn(move || {
            let mut buf = [0u8; 4];
            b.read_exact(&mut buf).unwrap();
            b.write_all(b"pong").unwrap();
            buf
        });
        // Reading the answer would deadlock if the question stayed held.
        let mut buf = [0u8; 4];
        a.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"pong");
        assert_eq!(&peer.join().unwrap(), b"ping");
    }

    #[test]
    fn drop_releases_held_sends_before_eof() {
        let (mut a, mut b) = pipe_pair();
        a.gather().hold();
        a.write_all(b"last words").unwrap();
        drop(a);
        let mut got = Vec::new();
        b.read_to_end(&mut got).unwrap();
        assert_eq!(got, b"last words");
    }

    #[test]
    fn gather_of_a_reader_half_is_inert() {
        let (a, mut b) = pipe_pair();
        let (reader, mut writer) = a.split();
        let gather = reader.watch().gather().clone();
        gather.hold();
        writer.write_all(b"straight through").unwrap();
        assert_eq!(gather.held_bytes(), 0);
        let mut buf = [0u8; 16];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"straight through");
    }

    #[test]
    fn link_charges_virtual_latency() {
        let clock = SimClock::new();
        let link = Link::new(LinkSpec::wan_rtt(Duration::from_millis(40)), clock.clone());
        let (mut a, mut b) = pipe_pair_over_link(link);
        a.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        b.read_exact(&mut buf).unwrap();
        // One-way latency charged to the shared virtual clock.
        assert!(clock.now() >= Duration::from_millis(20));
        b.write_all(b"pong").unwrap();
        a.read_exact(&mut buf).unwrap();
        assert!(clock.now() >= Duration::from_millis(40), "full RTT after reply");
    }

    #[test]
    fn round_trips_accumulate_rtt() {
        let clock = SimClock::new();
        let link = Link::new(LinkSpec::wan_rtt(Duration::from_millis(10)), clock.clone());
        let (mut a, mut b) = pipe_pair_over_link(link);
        let server = std::thread::spawn(move || {
            let mut buf = [0u8; 1];
            for _ in 0..50 {
                b.read_exact(&mut buf).unwrap();
                b.write_all(&buf).unwrap();
            }
        });
        let mut buf = [0u8; 1];
        for i in 0..50u8 {
            a.write_all(&[i]).unwrap();
            a.read_exact(&mut buf).unwrap();
            assert_eq!(buf[0], i);
        }
        server.join().unwrap();
        // 50 sequential round trips at 10ms RTT = 500ms of simulated time
        // (real CPU time substitutes for part of the virtual offset).
        assert!(clock.now() >= Duration::from_millis(500));
        assert!(clock.now() < Duration::from_millis(600));
    }
}
