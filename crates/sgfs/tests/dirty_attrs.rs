//! Attribute changes on a file with unflushed write-back data.
//!
//! Until its write-back the client proxy alone knows a dirty file's
//! size: every upstream copy still has the size from before the absorbed
//! WRITEs. A chmod (SETATTR without a size) must not hand the file back
//! to the server's stale attributes — the next WRITE would refetch them,
//! the client would watch the file shrink, and a striped flush's size
//! mirror would truncate acknowledged data on every replica.
//!
//! Each member here is a real `nfsd` host served through
//! `RpcRecordService` on a shard, so sizes, modes and contents are the
//! kernel server's own.

use sgfs::config::{CacheMode, SecurityLevel, SessionConfig, StripePolicy};
use sgfs::proxy::client::{ClientProxy, StripeUpstream, Upstream};
use sgfs::proxy::stripe::StripeMap;
use sgfs::session::FILE_UID;
use sgfs_net::pipe_pair;
use sgfs_nfs3::types::{Sattr3, StableHow};
use sgfs_nfs3::{Fh3, Nfs3Client};
use sgfs_nfsd::{ExportEntry, Exports, NfsServer};
use sgfs_oncrpc::msg::AuthSysParams;
use sgfs_oncrpc::{OpaqueAuth, RpcRecordService, ShardServer};
use sgfs_vfs::{UserContext, Vfs};
use std::sync::Arc;

const BLOCK: usize = 32 * 1024;
const BLOCKS: usize = 4;
const FILE: u64 = (BLOCK * BLOCKS) as u64;
const HEADER: usize = 4096;

/// One file host exporting `/GFS`, owned by the file account.
fn host() -> (Arc<NfsServer>, Fh3) {
    let vfs = Arc::new(Vfs::new());
    let root = UserContext::root();
    vfs.mkdir_p("/GFS", 0o755, &root).unwrap();
    let attr = vfs.resolve("/GFS", &root).unwrap();
    let owner = sgfs_vfs::SetAttrs {
        uid: Some(FILE_UID),
        gid: Some(FILE_UID),
        ..Default::default()
    };
    vfs.setattr(attr.ino, &owner, &root).unwrap();
    let mut exports = Exports::new();
    exports.add(ExportEntry::localhost("/GFS"));
    let server = NfsServer::new_no_squash(vfs, exports);
    let root_fh = server.mount("/GFS", "localhost").unwrap();
    (server, root_fh)
}

/// What the file must hold: four patterned blocks, the first 4 KiB
/// overwritten after the chmod.
fn expected() -> Vec<u8> {
    let mut data: Vec<u8> = (0..BLOCKS)
        .flat_map(|b| vec![0x10 + b as u8; BLOCK])
        .collect();
    data[..HEADER].fill(0xEE);
    data
}

/// Write 4 × 32 KiB, chmod, overwrite 4 KiB at offset 0, then write
/// back — checking the client-visible size at every step, and every
/// member's copy after the flush.
fn chmod_between_writes_keeps_the_dirty_size(stripe: Option<StripePolicy>) {
    let width = stripe.map_or(1, |p| p.width) as usize;
    let shards = ShardServer::new(1);
    let hosts: Vec<(Arc<NfsServer>, Fh3)> = (0..width).map(|_| host()).collect();
    let upstreams: Vec<StripeUpstream> = hosts
        .iter()
        .map(|(server, _)| {
            let (client_end, server_end) = pipe_pair();
            let watch = server_end.watch();
            shards
                .add_session(
                    Box::new(server_end),
                    watch,
                    Arc::new(RpcRecordService(server.clone())),
                )
                .unwrap();
            let watch = client_end.watch();
            (Upstream::Plain(Box::new(client_end)), watch, None)
        })
        .collect();
    let mut config = SessionConfig::new(SecurityLevel::None);
    config.cache = CacheMode::MemoryMeta;
    config.stripe = stripe;
    let proxy = ClientProxy::with_stripe(upstreams, &config).expect("proxy");

    let (down, proxy_down) = pipe_pair();
    let runner = std::thread::spawn(move || proxy.run(Box::new(proxy_down)));
    let mut nfs = Nfs3Client::new(Box::new(down));
    nfs.set_cred(OpaqueAuth::sys(&AuthSysParams::new(
        "compute-host",
        FILE_UID,
        FILE_UID,
    )));
    let root = hosts[0].1.clone();
    let (fh, _) = nfs
        .create(
            &root,
            "f",
            Sattr3 {
                mode: Some(0o644),
                ..Default::default()
            },
        )
        .unwrap();
    let data = expected();
    for b in 0..BLOCKS {
        let block = vec![0x10 + b as u8; BLOCK];
        nfs.write(&fh, (b * BLOCK) as u64, block, StableHow::Unstable)
            .unwrap();
    }
    assert_eq!(nfs.getattr(&fh).unwrap().size, FILE, "after the writes");
    nfs.setattr(
        &fh,
        &Sattr3 {
            mode: Some(0o600),
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(
        nfs.getattr(&fh).unwrap().size,
        FILE,
        "a chmod keeps the dirty size"
    );
    nfs.write(&fh, 0, data[..HEADER].to_vec(), StableHow::Unstable)
        .unwrap();
    assert_eq!(
        nfs.getattr(&fh).unwrap().size,
        FILE,
        "an overwrite does not shrink the file"
    );
    drop(nfs);
    let (mut proxy, run) = runner.join().expect("proxy thread");
    run.expect("proxy loop");
    proxy.flush_all().expect("write-back");
    drop(proxy);

    let map = StripeMap::new(stripe.unwrap_or(StripePolicy::striped(1)));
    let ctx = UserContext::root();
    for (m, (server, _)) in hosts.iter().enumerate() {
        let vfs = server.vfs();
        let attr = vfs.resolve("/GFS/f", &ctx).expect("file on every member");
        assert_eq!(attr.size, FILE, "member {m} holds the whole file size");
        assert_eq!(attr.mode & 0o777, 0o600, "member {m} saw the chmod");
        for b in (0..BLOCKS as u64).filter(|&b| map.members_of_block(b).contains(&m)) {
            let (got, _) = vfs
                .read(attr.ino, b * BLOCK as u64, BLOCK as u32, &ctx)
                .unwrap();
            let want = &data[b as usize * BLOCK..(b as usize + 1) * BLOCK];
            assert!(
                got == want,
                "member {m} block {b} differs from what was acknowledged"
            );
        }
    }
}

#[test]
fn chmod_keeps_dirty_size_on_a_single_upstream() {
    chmod_between_writes_keeps_the_dirty_size(None);
}

#[test]
fn chmod_keeps_dirty_size_across_a_replicated_stripe() {
    chmod_between_writes_keeps_the_dirty_size(Some(StripePolicy::replicated(3, 2)));
}
