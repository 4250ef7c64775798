//! Measurement helpers: order statistics, process CPU and peak memory,
//! and the benchmark's own span recorder.

use sgfs::obs::{Hop, Obs};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Median of `v` (mean of the middle pair for an even count).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Index of the lower median of `v` (the sample a median-based report
/// picks when several metrics must come from one and the same sample).
pub fn median_index(v: &[f64]) -> usize {
    let mut idx: Vec<usize> = (0..v.len()).collect();
    idx.sort_by(|&a, &b| v[a].total_cmp(&v[b]));
    idx[(v.len() - 1) / 2]
}

/// A tail percentile that is backed by data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (at most the one asked for).
    pub pct: u32,
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// Samples a tail percentile must have strictly above it to be reported.
pub const TAIL_SUPPORT: usize = 10;

/// The highest whole percentile, at most `max_pct`, with at least
/// [`TAIL_SUPPORT`] samples beyond it (nearest-rank); `None` when not
/// even the median qualifies.
pub fn tail(v: &[f64], max_pct: u32) -> Option<Tail> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    (50..=max_pct).rev().find_map(|pct| {
        let rank = (pct as usize * n).div_ceil(100).max(1);
        (n - rank >= TAIL_SUPPORT).then(|| Tail {
            pct,
            value: s[rank - 1],
            samples: n,
        })
    })
}

/// Process-wide CPU time and peak resident memory.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// User plus system CPU of every thread, live or exited, in seconds.
    pub cpu_s: f64,
    /// Peak resident set size in MiB.
    pub max_rss_mb: f64,
}

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// `getrusage(RUSAGE_SELF)`: microsecond CPU accounting, unlike the
/// clock-tick granularity of `/proc/self/stat`.
pub fn usage() -> Usage {
    let mut ru = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `Rusage` has the layout of the 64-bit Linux `struct rusage`
    // (two timevals followed by fourteen longs) and `ru` is a valid,
    // exclusively borrowed instance for the call to fill.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid buffer"
    );
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    Usage {
        cpu_s: secs(&ru.ru_utime) + secs(&ru.ru_stime),
        // Linux reports ru_maxrss in KiB.
        max_rss_mb: ru.ru_maxrss as f64 / 1024.0,
    }
}

/// Counts trace events of one hop without losing any to ring wrap.
///
/// Each emitting thread keeps only its last 16 Ki events, and a traced
/// job emits far more. Harvesting whenever half a ring's worth of new
/// events exists keeps every thread's events in reach; the logical
/// clock ticks once per event, so ticks minus events harvested is
/// exactly what was lost anyway.
pub struct EventTally {
    obs: Arc<Obs>,
    hop: Hop,
    harvested_to: u64,
    /// Events of `hop` seen so far.
    pub count: u64,
    /// Events of any hop emitted but overwritten before a harvest.
    pub lost: u64,
}

/// New events that trigger a harvest: half of one thread's ring.
const HARVEST_EVERY: u64 = 1 << 13;

impl EventTally {
    pub fn new(obs: Arc<Obs>, hop: Hop) -> Self {
        let harvested_to = obs.clock().current();
        EventTally {
            obs,
            hop,
            harvested_to,
            count: 0,
            lost: 0,
        }
    }

    /// Harvest if enough new events have accumulated (or `force`).
    pub fn poll(&mut self, force: bool) {
        let now = self.obs.clock().current();
        if now == self.harvested_to || (!force && now - self.harvested_to < HARVEST_EVERY) {
            return;
        }
        let (events, _) = self.obs.events();
        let fresh = events
            .iter()
            .filter(|e| e.seq >= self.harvested_to && e.seq < now);
        let (mut seen, mut hits) = (0, 0);
        for e in fresh {
            seen += 1;
            hits += u64::from(e.hop == self.hop);
        }
        self.count += hits;
        self.lost += (now - self.harvested_to) - seen;
        self.harvested_to = now;
    }
}

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to (0 = outside any op).
    pub op: u64,
}

/// In-memory span log for the traced pass, written out once at the end
/// so recording costs two clock reads and a push.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(origin: Instant) -> Self {
        Spans {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn begin(&mut self, name: &'static str, op: u64) {
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let parent = self.open.last().copied();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
    }

    pub fn end(&mut self) {
        let idx = self.open.pop().expect("span end without begin");
        self.spans[idx].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// One JSON object per line: id, parent, name, op, start/end in ns
    /// since the benchmark process started.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_reports_highest_percentile_with_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(
            tail(&v, 99),
            Some(Tail {
                pct: 99,
                value: 990.0,
                samples: 1000
            })
        );
        // 999 samples leave only 9 beyond p99; p98 has 19.
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        let t = tail(&v, 99).unwrap();
        assert_eq!((t.pct, t.samples), (98, 999));
        assert_eq!(t.value, 980.0);
        // Order of input does not matter.
        let mut r: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        r.swap(3, 700);
        assert_eq!(tail(&r, 99).unwrap().value, 990.0);
        // Too few samples for even a median with ten beyond it.
        assert_eq!(tail(&[1.0; 19], 99), None);
        assert_eq!(tail(&[1.0; 20], 99).unwrap().pct, 50);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_index(&[4.0, 1.0, 2.0, 3.0]), 2);
    }

    #[test]
    fn usage_counts_cpu_spent() {
        let before = usage();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        let after = usage();
        assert!(after.cpu_s > before.cpu_s);
        assert!(after.max_rss_mb > 0.0);
    }

    #[test]
    fn event_tally_counts_across_ring_wraps() {
        let obs = Obs::new();
        let mut t = EventTally::new(obs.clone(), Hop::FlushRound);
        // Four rings' worth from one thread, harvested as it goes.
        for i in 0..(1u64 << 16) {
            let hop = if i % 100 == 0 {
                Hop::FlushRound
            } else {
                Hop::UpstreamSend
            };
            obs.emit(hop, 0, 0, 0);
            t.poll(false);
        }
        t.poll(true);
        assert_eq!((t.count, t.lost), (656, 0));
        // Unharvested past a full ring: the loss is counted, not hidden.
        for _ in 0..(1u64 << 15) {
            obs.emit(Hop::UpstreamSend, 0, 0, 0);
        }
        t.poll(true);
        assert_eq!(t.lost, 1 << 14);
    }

    #[test]
    fn spans_nest_and_serialize() {
        let mut s = Spans::new(Instant::now());
        s.begin("outer", 0);
        s.begin("inner", 7);
        s.end();
        s.end();
        let text = s.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"id\":0,\"parent\":null,\"name\":\"outer\""));
        assert!(lines[1].starts_with("{\"id\":1,\"parent\":0,\"name\":\"inner\",\"op\":7"));
    }
}
