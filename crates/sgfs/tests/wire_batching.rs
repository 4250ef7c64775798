//! Virtual-time budget of batches the program issues together.
//!
//! A window of calls submitted together must leave the wire as one
//! stamped send, and the shard must answer it as one: otherwise the
//! receiver gating the shared clock forward on the first record of the
//! window pushes every later stamp one link latency back, and the window
//! costs its records serially. Likewise the striped write-back fans its
//! per-member COMMITs (and the size mirrors behind them) out in
//! parallel instead of one member after another.
//!
//! Both cases run over emulated 20 ms links and assert on the virtual
//! (link-charged) part of the clock only — never on wall-clock time.
//! They run one at a time: a wave stays whole only while the threads
//! that release it get the CPU, and on a 2-core host the other case's
//! threads would compete for it (DESIGN.md §4 on stamps of different
//! threads).

use sgfs::config::{CacheMode, SecurityLevel, SessionConfig, StripePolicy};
use sgfs::proxy::client::{ClientProxy, Upstream};
use sgfs::proxy::pipeline::Pipeline;
use sgfs::stats::ProxyStats;
use sgfs_net::{pipe_pair, pipe_pair_over_link, Link, LinkSpec, PipeEnd, SimClock};
use sgfs_nfs3::proc::{procnum, CommitRes, GetAttrRes, WccRes, WriteArgs, WriteRes};
use sgfs_nfs3::types::*;
use sgfs_nfs3::{NFS_PROGRAM, NFS_VERSION};
use sgfs_oncrpc::msg::AuthSysParams;
use sgfs_oncrpc::record::{read_record, write_record};
use sgfs_oncrpc::{CallHeader, OpaqueAuth, RecordService, ReplyHeader, ShardServer};
use sgfs_xdr::{XdrDecode, XdrDecoder, XdrEncode, XdrEncoder};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

const RTT: Duration = Duration::from_millis(20);
const BLOCK: usize = 32 * 1024;
const WINDOW: u32 = 8;

fn write_call(xid: u32, fh: &Fh3, offset: u64) -> Vec<u8> {
    let header = CallHeader {
        xid,
        prog: NFS_PROGRAM,
        vers: NFS_VERSION,
        proc: procnum::WRITE,
        cred: OpaqueAuth::sys(&AuthSysParams::new("batch-host", 1001, 1001)),
        verf: OpaqueAuth::none(),
    };
    let mut enc = XdrEncoder::with_capacity(BLOCK + 256);
    header.encode(&mut enc);
    WriteArgs {
        file: fh.clone(),
        offset,
        stable: StableHow::Unstable,
        data: vec![(offset / BLOCK as u64) as u8; BLOCK],
    }
    .encode(&mut enc);
    enc.into_bytes()
}

fn attr(size: u64) -> Fattr3 {
    Fattr3 {
        ftype: FType3::Reg,
        mode: 0o644,
        nlink: 1,
        uid: 1001,
        gid: 1001,
        size,
        used: size,
        fsid: 1,
        fileid: 9,
        atime: NfsTime3 { seconds: 1, nseconds: 0 },
        mtime: NfsTime3 { seconds: 1, nseconds: 0 },
        ctime: NfsTime3 { seconds: 1, nseconds: 0 },
    }
}

/// A replica backend: stores WRITE payloads by offset, answers the
/// write-back's GETATTR/COMMIT/SETATTR, verifier fixed.
#[derive(Default)]
struct Replica {
    blocks: Mutex<BTreeMap<u64, Vec<u8>>>,
}

impl RecordService for Replica {
    fn process_record(&self, record: &[u8]) -> std::io::Result<Vec<u8>> {
        let mut dec = XdrDecoder::new(record);
        let header = CallHeader::decode(&mut dec).expect("call header");
        let mut enc = XdrEncoder::with_capacity(256);
        ReplyHeader::success(header.xid).encode(&mut enc);
        let wcc = WccData { before: None, after: Some(attr(0)) };
        match header.proc {
            procnum::GETATTR => {
                GetAttrRes { status: NfsStat3::Ok, attr: Some(attr(0)) }.encode(&mut enc)
            }
            procnum::WRITE => {
                let a = WriteArgs::from_xdr_bytes(&record[dec.position()..]).expect("write");
                let count = a.data.len() as u32;
                self.blocks.lock().unwrap().insert(a.offset, a.data);
                let committed = StableHow::Unstable;
                WriteRes { status: NfsStat3::Ok, wcc, count, committed, verf: 3 }.encode(&mut enc)
            }
            procnum::COMMIT => CommitRes { status: NfsStat3::Ok, wcc, verf: 3 }.encode(&mut enc),
            procnum::SETATTR => WccRes { status: NfsStat3::Ok, wcc }.encode(&mut enc),
            other => panic!("unexpected proc {other}"),
        }
        Ok(enc.into_bytes())
    }
}

/// Pin a fresh session for `service` on `shards` across its own 20 ms
/// link on `clock`; returns the client end.
fn dial(shards: &ShardServer, clock: &Arc<SimClock>, service: Arc<Replica>) -> PipeEnd {
    let link = Link::new(LinkSpec::wan_rtt(RTT), clock.clone());
    let (client, server) = pipe_pair_over_link(link);
    let watch = server.watch();
    shards.add_session(Box::new(server), watch, service).expect("pin session");
    client
}

/// A window of 32 KiB WRITEs submitted together costs one round trip,
/// not one per record: the pump releases the admitted window as one
/// stamped send, and the shard answers the records it drains as one.
#[test]
fn a_window_of_writes_costs_one_round_trip() {
    let _serial = serial();
    let clock = SimClock::new();
    let shards = ShardServer::new(1);
    let end = dial(&shards, &clock, Arc::default());
    let watch = end.watch();
    let p = Pipeline::new(Upstream::Plain(Box::new(end)), watch, WINDOW, None, ProxyStats::new());
    let fh = Fh3::from_ino(1, 9);
    let records =
        (0..WINDOW).map(|i| write_call(i + 1, &fh, u64::from(i) * BLOCK as u64)).collect();

    let before = clock.virtual_time();
    for reply in p.submit_batch(records) {
        reply.wait().expect("write reply");
    }
    let spent = clock.virtual_time() - before;
    assert!(
        spent <= RTT + Duration::from_millis(5),
        "a window of {WINDOW} writes took {spent:?} of link time (one RTT is {RTT:?})"
    );
}

/// One file's replicated write-back: each member's WRITE share costs
/// one round trip per window, and the COMMIT and size-mirror fan-outs
/// one round trip each, whatever the number of members.
#[test]
fn a_replicated_flush_costs_its_windows_plus_two_fan_outs() {
    let _serial = serial();
    const WIDTH: u32 = 3;
    const REPLICAS: u32 = 2;
    const BLOCKS: u32 = 48;
    let clock = SimClock::new();
    let shards = ShardServer::new(1);
    let replicas: Vec<Arc<Replica>> = (0..WIDTH).map(|_| Arc::default()).collect();
    let upstreams = replicas
        .iter()
        .map(|r| {
            let end = dial(&shards, &clock, r.clone());
            let watch = end.watch();
            (Upstream::Plain(Box::new(end)), watch, None)
        })
        .collect();
    let mut config = SessionConfig::new(SecurityLevel::None);
    config.cache = CacheMode::MemoryMeta;
    config.window = WINDOW;
    config.stripe =
        Some(StripePolicy { width: WIDTH, replicas: REPLICAS, block_size: BLOCK as u32 });
    let proxy = ClientProxy::with_stripe(upstreams, &config).expect("striped proxy");

    // Fill the write-back cache through the proxy's NFS face.
    let fh = Fh3::from_ino(1, 9);
    let (mut down, proxy_down) = pipe_pair();
    let runner = std::thread::spawn(move || proxy.run(Box::new(proxy_down)));
    for b in 0..BLOCKS {
        write_record(&mut down, &write_call(b + 1, &fh, u64::from(b) * BLOCK as u64))
            .expect("downstream write");
        read_record(&mut down).expect("downstream read").expect("write-back ack");
    }
    drop(down);
    let (mut proxy, run) = runner.join().expect("proxy thread");
    run.expect("proxy loop");

    let before = clock.virtual_time();
    proxy.flush_file(&fh).expect("replicated flush");
    let spent = clock.virtual_time() - before;

    let per_member = BLOCKS * REPLICAS / WIDTH;
    let rtts = per_member.div_ceil(WINDOW) + 3;
    assert!(
        spent <= RTT * rtts,
        "flushing {BLOCKS} blocks x{REPLICAS} over {WIDTH} members took {spent:?} of link \
         time; budget {rtts} RTTs = {:?}",
        RTT * rtts
    );
    assert_eq!(proxy.stats().failovers(), 0);
    assert_eq!(proxy.stats().replica_writes(), u64::from(WIDTH));
    for r in &replicas {
        assert_eq!(r.blocks.lock().unwrap().len(), per_member as usize);
    }
}
