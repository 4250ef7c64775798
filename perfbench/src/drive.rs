//! The closed-loop driver: replays generated inputs through `NfsMount`
//! one call at a time, times every op on the wall clock and on the
//! testbed's simulated clock, compares every read with the bytes the
//! generator wrote, and afterwards checks the server's file systems.

use crate::gen::{self, Input, CALL_BYTES};
use crate::measure::{EventTally, Spans};
use sgfs::proxy::stripe::StripeMap;
use sgfs_net::SimClock;
use sgfs_nfsclient::{FsResult, NfsMount, OpenFlags};
use sgfs_vfs::{UserContext, Vfs};
use std::sync::Arc;
use std::time::Instant;

/// Errors kept verbatim for the report; the rest are only counted.
const KEPT_ERRORS: usize = 8;

/// Per-op timings and failure accounting of one job.
pub struct Recorder<'a> {
    clock: Option<Arc<SimClock>>,
    spans: Option<&'a mut Spans>,
    op_id: u64,
    /// Real latency of each timed op, microseconds.
    pub op_wall_us: Vec<f64>,
    /// Simulated latency of each timed op (CPU plus charged link and hop
    /// time), milliseconds.
    pub op_sim_ms: Vec<f64>,
    /// Failed ops plus post-teardown mismatches.
    pub failed: u64,
    /// Payload bytes the job asked to move (written plus read).
    pub user_bytes: u64,
    pub errors: Vec<String>,
    /// Trace events counted while the job runs (traced jobs only).
    pub tally: Option<EventTally>,
}

impl<'a> Recorder<'a> {
    pub fn new(spans: Option<&'a mut Spans>) -> Self {
        Recorder {
            clock: None,
            spans,
            op_id: 0,
            op_wall_us: Vec::new(),
            op_sim_ms: Vec::new(),
            failed: 0,
            user_bytes: 0,
            errors: Vec::new(),
            tally: None,
        }
    }

    /// The session clock ops are timed on (known once it is built).
    pub fn set_clock(&mut self, clock: Arc<SimClock>) {
        self.clock = Some(clock);
    }

    pub fn ops(&self) -> usize {
        self.op_wall_us.len()
    }

    pub fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.errors.len() < KEPT_ERRORS {
            self.errors.push(e);
        }
    }

    /// A span around `f` when tracing; `f` alone otherwise.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let op = self.op_id;
        if let Some(s) = self.spans.as_deref_mut() {
            s.begin(name, op);
        }
        let out = f(self);
        if let Some(s) = self.spans.as_deref_mut() {
            s.end();
        }
        out
    }

    /// One op: timed, counted in `ops`, and a failure if `f` errs.
    pub fn op(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> Result<(), String>) {
        self.op_id += 1;
        let clock = self.clock.clone().expect("ops run on a built session");
        let (wall0, sim0) = (Instant::now(), clock.now());
        let res = self.span(name, f);
        let sim = clock.now() - sim0;
        self.op_wall_us.push(wall0.elapsed().as_secs_f64() * 1e6);
        self.op_sim_ms.push(sim.as_secs_f64() * 1e3);
        if let Some(t) = &mut self.tally {
            t.poll(false);
        }
        if let Err(e) = res {
            self.fail(format!("op {} ({name}): {e}", self.op_id));
        }
    }

    /// One `NfsMount` call, under its own span.
    pub fn call<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce() -> FsResult<T>,
    ) -> Result<T, String> {
        self.span(name, |_| f()).map_err(|e| format!("{name}: {e}"))
    }
}

fn check(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// What the server must hold once the job is torn down.
pub struct Expected<'i> {
    /// Surviving files and their contents.
    pub files: Vec<(String, &'i [u8])>,
    /// Files the job deleted.
    pub gone: Vec<String>,
}

/// Run the job `input` describes on `mount`; returns what the server
/// must hold afterwards.
pub fn run<'i>(input: &'i Input, mount: &mut NfsMount, rec: &mut Recorder) -> Expected<'i> {
    match input {
        Input::Bulk { data } => bulk(data, mount, rec),
        Input::Replicated { files, deletes } => replicated(files, deletes, mount, rec),
    }
}

fn write_file_ops(path: &str, data: &[u8], fsync: bool, mount: &mut NfsMount, rec: &mut Recorder) {
    let mut fd = None;
    rec.op("open", |r| {
        fd = Some(r.call("open", || {
            mount.open(path, OpenFlags::create_truncate(), 0o644)
        })?);
        Ok(())
    });
    for chunk in data.chunks(CALL_BYTES) {
        rec.op("write", |r| {
            let fd = fd.ok_or("file not open")?;
            let n = r.call("write", || mount.write(fd, chunk))?;
            r.user_bytes += n as u64;
            check(n == chunk.len(), || {
                format!("short write {n} of {}", chunk.len())
            })
        });
    }
    if fsync {
        rec.op("fsync", |r| {
            let fd = fd.ok_or("file not open")?;
            r.call("fsync", || mount.fsync(fd))
        });
    }
    rec.op("close", |r| {
        let fd = fd.ok_or("file not open")?;
        r.call("close", || mount.close(fd))
    });
}

fn read_file_ops(path: &str, data: &[u8], mount: &mut NfsMount, rec: &mut Recorder) {
    let mut fd = None;
    rec.op("open", |r| {
        fd = Some(r.call("open", || mount.open(path, OpenFlags::rdonly(), 0))?);
        Ok(())
    });
    for (i, want) in data.chunks(CALL_BYTES).enumerate() {
        rec.op("read", |r| {
            let fd = fd.ok_or("file not open")?;
            let got = r.call("read", || mount.read(fd, CALL_BYTES))?;
            r.user_bytes += got.len() as u64;
            check(got == want, || format!("{path}: bytes differ in call {i}"))
        });
    }
    rec.op("close", |r| {
        let fd = fd.ok_or("file not open")?;
        r.call("close", || mount.close(fd))
    });
}

const BULK_PATH: &str = "/bulk.dat";

/// Write a file twice the kernel-client cache, fsync, read, reread.
fn bulk<'i>(data: &'i [u8], mount: &mut NfsMount, rec: &mut Recorder) -> Expected<'i> {
    write_file_ops(BULK_PATH, data, true, mount, rec);
    for _ in 0..2 {
        read_file_ops(BULK_PATH, data, mount, rec);
    }
    Expected {
        files: vec![(BULK_PATH.to_string(), data)],
        gone: Vec::new(),
    }
}

/// Write each file in 32 KiB calls, reread them all, delete a quarter.
fn replicated<'i>(
    files: &'i [Vec<u8>],
    deletes: &[usize],
    mount: &mut NfsMount,
    rec: &mut Recorder,
) -> Expected<'i> {
    for (i, data) in files.iter().enumerate() {
        write_file_ops(&gen::rep_path(i), data, false, mount, rec);
    }
    for (i, data) in files.iter().enumerate() {
        read_file_ops(&gen::rep_path(i), data, mount, rec);
    }
    for &i in deletes {
        rec.op("unlink", |r| {
            r.call("unlink", || mount.unlink(&gen::rep_path(i)))
        });
    }
    Expected {
        files: (0..files.len())
            .filter(|i| !deletes.contains(i))
            .map(|i| (gen::rep_path(i), files[i].as_slice()))
            .collect(),
        gone: deletes.iter().map(|&i| gen::rep_path(i)).collect(),
    }
}

/// Check the exported trees after teardown. With a stripe map, every
/// block must be byte-identical on each member the map names for it;
/// otherwise the single server must hold each whole file. Deleted files
/// must be absent everywhere. Returns one message per bad file.
pub fn verify(expected: &Expected, members: &[Arc<Vfs>], map: Option<StripeMap>) -> Vec<String> {
    let root = UserContext::root();
    let mut bad = Vec::new();
    for (path, want) in &expected.files {
        let full = format!("/GFS{path}");
        let ok = members.iter().enumerate().all(|(m, vfs)| {
            let Ok(attr) = vfs.resolve(&full, &root) else {
                return false;
            };
            let read = |off: usize, len: usize| {
                vfs.read(attr.ino, off as u64, len as u32, &root)
                    .map(|(d, _)| d)
                    .ok()
            };
            match map {
                None => {
                    attr.size == want.len() as u64
                        && read(0, want.len()).as_deref() == Some(&want[..])
                }
                Some(map) => {
                    let bs = map.block_size() as usize;
                    (0..want.len().div_ceil(bs)).all(|b| {
                        let chunk = &want[b * bs..want.len().min((b + 1) * bs)];
                        !map.members_of_block(b as u64).contains(&m)
                            || read(b * bs, chunk.len()).as_deref() == Some(chunk)
                    })
                }
            }
        });
        if !ok {
            bad.push(format!("{path}: server copy differs from what was written"));
        }
    }
    for path in &expected.gone {
        if members
            .iter()
            .any(|vfs| vfs.resolve(&format!("/GFS{path}"), &root).is_ok())
        {
            bad.push(format!("{path}: deleted file still on the server"));
        }
    }
    bad
}
