//! One job: seeded PKI, `Session::build` through the first answered
//! mount call, the workload, `Session::finish`, and the server-side
//! check — with everything the session exposes read off on the way.

use crate::drive::{self, Recorder};
use crate::gen::{self, Input};
use crate::measure::{self, EventTally, Spans};
use rand::rngs::SmallRng;
use sgfs::config::{DurabilityPolicy, SecurityLevel, StripePolicy};
use sgfs::obs::{Hist, Hop, Obs};
use sgfs::proxy::stripe::StripeMap;
use sgfs::{GridWorld, Session, SessionParams, SetupKind};
use sgfs_crypto::rsa::RsaKeyPair;
use sgfs_pki::{CertificateAuthority, Credential, DistinguishedName, TrustStore};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The stack every workload is measured on: AES-256-GCM records, the
/// strongest suite and the default.
pub const SGFS_GCM: SetupKind = SetupKind::Sgfs(SecurityLevel::AeadCipher);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Per-byte data path at LAN RTT, larger than the kernel-client cache.
    BulkLan,
    /// Bulk writes into a replicated stripe set, written back at teardown.
    ReplicatedWan,
}

pub const WORKLOADS: [Workload; 2] = [Workload::BulkLan, Workload::ReplicatedWan];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkLan => "bulk-lan",
            Workload::ReplicatedWan => "replicated-wan",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        WORKLOADS.into_iter().find(|w| w.name() == s)
    }

    pub fn input(self, seed: u64) -> Input {
        match self {
            Workload::BulkLan => gen::bulk(seed),
            Workload::ReplicatedWan => gen::replicated(seed),
        }
    }

    fn rtt(self) -> Duration {
        match self {
            Workload::BulkLan => Duration::from_micros(300),
            Workload::ReplicatedWan => Duration::from_millis(20),
        }
    }

    fn kernel_cache_bytes(self) -> usize {
        match self {
            Workload::BulkLan => gen::BULK_CACHE_BYTES,
            // Half a file, so rereads reach the client proxy's cache.
            Workload::ReplicatedWan => gen::REP_FILE_BYTES / 2,
        }
    }

    fn stripe(self) -> Option<StripePolicy> {
        (self == Workload::ReplicatedWan).then(|| StripePolicy::replicated(3, 2))
    }

    fn proxy_cache(self) -> bool {
        self != Workload::BulkLan
    }

    /// The journal is on wherever the proxy caches, but leaves flushing
    /// to the OS: a journal fsync every 64 appends puts the host disk's
    /// flush latency, which swings several-fold from run to run on a
    /// virtual disk, into every 64th op. Appends and compactions, the
    /// journal's own work, are still measured.
    fn durability(self) -> DurabilityPolicy {
        if self.proxy_cache() {
            DurabilityPolicy {
                fsync_every: 0,
                ..DurabilityPolicy::default()
            }
        } else {
            DurabilityPolicy::none()
        }
    }

    /// The layer ladder: plain NFS, proxies without security, and the
    /// measured stack. Striping needs a proxy, so `replicated-wan` has no
    /// `nfs-v3` rung.
    pub fn rungs(self) -> &'static [SetupKind] {
        match self {
            Workload::ReplicatedWan => &[SetupKind::Gfs, SGFS_GCM],
            _ => &[SetupKind::NfsV3, SetupKind::Gfs, SGFS_GCM],
        }
    }

    /// Identical link, cache, durability and stripe parameters for every
    /// rung; only the stack differs.
    fn params(self, kind: SetupKind, cache_dir: &Path, obs: Option<Arc<Obs>>) -> SessionParams {
        let mut p = SessionParams::lan(kind);
        p.rtt = self.rtt();
        p.mem_cache_bytes = self.kernel_cache_bytes();
        p.disk_cache_dir = self.proxy_cache().then(|| cache_dir.to_path_buf());
        p.durability = self.durability();
        p.stripe = self.stripe();
        p.obs = obs;
        p
    }

    /// The parameters printed in the result header.
    pub fn describe(self) -> Vec<(&'static str, String)> {
        let d = self.durability();
        let mut v = vec![
            ("stack", SGFS_GCM.label().to_string()),
            ("rtt_ms", format!("{}", self.rtt().as_secs_f64() * 1e3)),
            ("kernel_cache_bytes", self.kernel_cache_bytes().to_string()),
            ("proxy_disk_cache", self.proxy_cache().to_string()),
            ("journal", d.journal.to_string()),
            ("journal_fsync_every", d.fsync_every.to_string()),
            (
                "stripe_width",
                self.stripe().map_or(1, |s| s.width).to_string(),
            ),
            (
                "stripe_replicas",
                self.stripe().map_or(1, |s| s.replicas).to_string(),
            ),
            ("call_bytes", gen::CALL_BYTES.to_string()),
        ];
        match self {
            Workload::BulkLan => v.push(("file_bytes", gen::BULK_FILE_BYTES.to_string())),
            Workload::ReplicatedWan => v.extend([
                ("files", gen::REP_FILES.to_string()),
                ("file_bytes", gen::REP_FILE_BYTES.to_string()),
                ("deleted_files", gen::REP_DELETES.to_string()),
            ]),
        }
        v
    }
}

/// The PKI world `GridWorld::new` builds, with keys drawn from a seeded
/// generator so every run does the same key-generation work.
fn seeded_world(seed: u64) -> GridWorld {
    let mut rng = SmallRng::seed_from_u64(seed);
    let dn = |s: &str| DistinguishedName::parse(s).expect("static DN");
    let ca = CertificateAuthority::new(&dn("/O=Grid/OU=ACIS/CN=CA"), 512, &mut rng);
    let mut trust = TrustStore::new();
    trust.add_root(ca.certificate().clone());
    let ukey = RsaKeyPair::generate(512, &mut rng);
    let ucert = ca.issue(&dn("/O=Grid/OU=ACIS/CN=alice"), &ukey.public);
    let skey = RsaKeyPair::generate(512, &mut rng);
    let scert = ca.issue(&dn("/O=Grid/OU=ACIS/CN=fileserver"), &skey.public);
    GridWorld {
        ca,
        user: Credential::new(ucert, ukey),
        server: Credential::new(scert, skey),
        trust,
        authorized_dn: dn("/O=Grid/OU=ACIS/CN=alice"),
    }
}

/// Everything measured in one job. Job-level totals run from the first
/// workload call through `Session::finish`; per-op samples cover ops only.
pub struct Job {
    pub ops: usize,
    pub failed: u64,
    pub errors: Vec<String>,
    pub op_wall_us: Vec<f64>,
    pub op_sim_ms: Vec<f64>,
    pub sim_s: f64,
    pub charged_s: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub wire_bytes: u64,
    pub wire_msgs: u64,
    pub user_bytes: u64,
    pub pki_s: f64,
    pub build_s: f64,
    /// Per-layer readings (see `main::PER_LAYER`), keyed by metric name.
    pub layers: BTreeMap<&'static str, f64>,
}

impl Job {
    pub fn cpu_us_per_op(&self) -> f64 {
        self.cpu_s * 1e6 / self.ops as f64
    }

    pub fn wire_msgs_per_op(&self) -> f64 {
        self.wire_msgs as f64 / self.ops as f64
    }
}

fn merged_proc_hist(obs: &Obs) -> Hist {
    let all = Hist::new();
    for p in 0..sgfs::obs::NUM_PROCS as u32 {
        if let Some(h) = obs.proc_hist(p) {
            all.merge(h);
        }
    }
    all
}

fn hist_sum_ns(h: &Hist) -> f64 {
    h.mean() * h.count() as f64
}

/// Run `input` once on a fresh `kind` session. `index` picks the PKI
/// seed, so repeated jobs of a run average over key-generation draws,
/// and names the job's proxy cache spool under `cache_root`.
#[allow(clippy::too_many_arguments)]
pub fn run(
    w: Workload,
    input: &Input,
    kind: SetupKind,
    traced: bool,
    seed: u64,
    index: u64,
    cache_root: &Path,
    spans: Option<&mut Spans>,
) -> Result<Job, String> {
    let cache_dir = cache_root.join(format!("{index}-{}", kind.label()));
    let obs = traced.then(Obs::new);
    let mut rec = Recorder::new(spans);
    let context = |e: String| format!("{} job {index}: {e}", kind.label());
    rec.span("job", |rec| {
        let t = Instant::now();
        let world = rec.span("setup.pki", |_| {
            seeded_world(gen::derive(seed, 1000 + index))
        });
        let pki_s = t.elapsed().as_secs_f64();
        let params = w.params(kind, &cache_dir, obs.clone());
        let t = Instant::now();
        let mut session = rec.span("session.build", |rec| {
            let mut s = Session::build(&world, &params).map_err(|e| context(e.to_string()))?;
            rec.call("stat", || s.mount.stat("/")).map_err(context)?;
            Ok::<_, String>(s)
        })?;
        let build_s = t.elapsed().as_secs_f64();

        let clock = session.clock().clone();
        let link = session.link().clone();
        let client = session.client_proxy_stats().cloned();
        let server = session.server_proxy().map(|p| p.stats().clone());
        let shards = session.shard_server().clone();
        let members: Vec<_> = if session.replica_servers().is_empty() {
            vec![session.server().vfs().clone()]
        } else {
            session
                .replica_servers()
                .iter()
                .map(|s| s.vfs().clone())
                .collect()
        };
        let mut l = BTreeMap::new();
        let rpcs0 = session.mount.stats().total();
        let (hits0, misses0) = session.mount.cache_stats();
        let wire = |dir| link.bytes_sent(dir);
        let (bytes0, msgs0) = (
            wire(0) + wire(1),
            link.messages_sent(0) + link.messages_sent(1),
        );
        let (sent0, recv0) = (wire(0), wire(1));
        let (sim0, virt0, wall0, cpu0) = (
            clock.now(),
            clock.virtual_time(),
            Instant::now(),
            measure::usage().cpu_s,
        );

        rec.set_clock(clock.clone());
        rec.tally = obs.clone().map(|o| EventTally::new(o, Hop::FlushRound));
        let expected = drive::run(input, &mut session.mount, rec);
        let rpcs = session.mount.stats().total() - rpcs0;
        let (hits, misses) = session.mount.cache_stats();
        let (buf_hits, buf_misses) = (hits - hits0, misses - misses0);
        if let Some(t) = &mut rec.tally {
            t.poll(true);
        }
        let report = rec
            .span("session.finish", |_| session.finish())
            .map_err(|e| context(e.to_string()))?;
        if let Some(t) = &mut rec.tally {
            t.poll(true);
            l.insert("proxy.flush.rounds", t.count as f64);
            l.insert("obs.events_lost", t.lost as f64);
        }

        let sim = clock.now() - sim0;
        let charged = clock.virtual_time() - virt0;
        let (wall_s, cpu_s) = (wall0.elapsed().as_secs_f64(), measure::usage().cpu_s - cpu0);
        let shard_stats = shards.stats();
        drop(shards);
        let _ = std::fs::remove_dir_all(&cache_dir);

        for bad in drive::verify(&expected, &members, w.stripe().map(StripeMap::new)) {
            rec.fail(bad);
        }

        let ops = rec.ops() as f64;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        l.insert("nfsclient.rpcs_per_op", rpcs as f64 / ops);
        l.insert(
            "nfsclient.buffer_hit_ratio",
            ratio(buf_hits as f64, (buf_hits + buf_misses) as f64),
        );
        let (hits, misses) = report.proxy_cache.unwrap_or((0, 0));
        l.insert(
            "proxy.client.cache_hit_ratio",
            ratio(hits as f64, (hits + misses) as f64),
        );
        if let Some(c) = &client {
            l.insert(
                "proxy.client.busy_us_per_op",
                c.busy().as_secs_f64() * 1e6 / ops,
            );
            l.insert("proxy.pipeline.peak_depth", c.pipeline_peak() as f64);
            l.insert(
                "proxy.pipeline.retries",
                (c.reconnects() + c.replays() + c.jukebox_retries()) as f64,
            );
            l.insert(
                "proxy.journal.appends_per_op",
                c.journal_appends() as f64 / ops,
            );
            l.insert("proxy.journal.compactions", c.journal_compactions() as f64);
            l.insert("proxy.cache_io_errors", c.cache_io_errors() as f64);
            l.insert("proxy.stripe.replica_writes", c.replica_writes() as f64);
            l.insert("proxy.stripe.failovers", c.failovers() as f64);
        }
        if let Some(s) = &server {
            l.insert(
                "proxy.server.busy_us_per_op",
                s.busy().as_secs_f64() * 1e6 / ops,
            );
        }
        l.insert("proxy.flush.bytes", report.writeback_bytes as f64);
        l.insert("writeback_s", report.writeback_time.as_secs_f64());
        if let Some(obs) = &obs {
            let fwd = merged_proc_hist(obs);
            l.insert(
                "proxy.client.forward_p50_us",
                fwd.quantile(0.50) as f64 / 1e3,
            );
            l.insert(
                "proxy.client.forward_p99_us",
                fwd.quantile(0.99) as f64 / 1e3,
            );
            let reply = obs.hop_hist(Hop::UpstreamReply);
            l.insert(
                "proxy.pipeline.reply_wait_p50_us",
                reply.quantile(0.50) as f64 / 1e3,
            );
            l.insert(
                "proxy.pipeline.reply_wait_p99_us",
                reply.quantile(0.99) as f64 / 1e3,
            );
            let (br, bw) = (obs.hop_hist(Hop::BlockRead), obs.hop_hist(Hop::BlockWrite));
            l.insert(
                "proxy.blockstore.ops_per_op",
                (br.count() + bw.count()) as f64 / ops,
            );
            l.insert(
                "proxy.blockstore.us_per_op",
                (hist_sum_ns(br) + hist_sum_ns(bw)) / 1e3 / ops,
            );
            let (seal, open) = (obs.hop_hist(Hop::Seal), obs.hop_hist(Hop::Open));
            l.insert(
                "gtls.records_per_op",
                (seal.count() + open.count()) as f64 / ops,
            );
            l.insert(
                "gtls.seal_ns_per_byte",
                ratio(hist_sum_ns(seal), (wire(0) - sent0) as f64),
            );
            l.insert(
                "gtls.open_ns_per_byte",
                ratio(hist_sum_ns(open), (wire(1) - recv0) as f64),
            );
        }
        l.insert(
            "oncrpc.shard.served_per_op",
            shard_stats.served as f64 / ops,
        );
        l.insert(
            "oncrpc.shard.backlog_hwm_bytes",
            shard_stats.backlog_hwm as f64,
        );
        l.insert("oncrpc.shard.shed", shard_stats.shed as f64);

        let wire_msgs = link.messages_sent(0) + link.messages_sent(1) - msgs0;
        let sim_s = sim.as_secs_f64();
        Ok(Job {
            ops: rec.ops(),
            failed: rec.failed,
            errors: std::mem::take(&mut rec.errors),
            op_wall_us: std::mem::take(&mut rec.op_wall_us),
            op_sim_ms: std::mem::take(&mut rec.op_sim_ms),
            sim_s,
            charged_s: charged.as_secs_f64(),
            wall_s,
            cpu_s,
            wire_bytes: wire(0) + wire(1) - bytes0,
            wire_msgs,
            user_bytes: rec.user_bytes,
            pki_s,
            build_s,
            layers: l,
        })
    })
}
