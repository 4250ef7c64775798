//! Multi-server placement: the stripe map and the runtime stripe set.
//!
//! A session placed across several FSS upstreams (see
//! [`StripePolicy`](crate::config::StripePolicy)) routes every file block
//! through the **stripe map**: a pure function from block index to the
//! `replicas` distinct members that hold the block. A single upstream is
//! the width-1, 1-replica map: every block on its one member. The map is
//! deterministic — no RNG, no state — so the client, a rebuilt client,
//! and a test oracle all agree on the placement, and a reconnect cannot
//! silently re-home blocks.
//!
//! The **stripe set** is the runtime side: one pipelined channel per
//! member plus an up/down flag. Reads try a block's members in map order
//! and fail over past down members; replicated flushes fan WRITE batches
//! out to every live member of each block. The set is cheap to clone
//! (pipelines are handles, flags are shared), which is how the read-ahead
//! worker fans prefetches out across servers without a second thread per
//! upstream.

use crate::config::StripePolicy;
use crate::proxy::pipeline::Pipeline;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Pure block → members placement for one session.
///
/// Member of replica `j` of block `b` is `(b * replicas + j) % width`:
/// consecutive residues, so the `replicas` members of one block are
/// always distinct (`replicas <= width`), and the assignment sequence is
/// a plain round-robin over the members — over any prefix of blocks,
/// per-member load is balanced within one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripeMap {
    width: u32,
    replicas: u32,
    block_size: u32,
}

impl StripeMap {
    /// Build the map for a placement, clamping degenerate policies
    /// (`width >= 1`, `1 <= replicas <= width`, `block_size >= 1`).
    pub fn new(policy: StripePolicy) -> Self {
        let width = policy.width.max(1);
        Self {
            width,
            replicas: policy.replicas.clamp(1, width),
            block_size: policy.block_size.max(1),
        }
    }

    /// Number of members the map distributes over.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Replicas per block.
    pub fn replicas(&self) -> u32 {
        self.replicas
    }

    /// Stripe unit in bytes.
    pub fn block_size(&self) -> u32 {
        self.block_size
    }

    /// The block index a byte offset falls in.
    pub fn block_of(&self, offset: u64) -> u64 {
        offset / self.block_size as u64
    }

    /// The distinct members holding `block`, in read-preference order
    /// (the first is the block's primary).
    pub fn members_of_block(&self, block: u64) -> Vec<usize> {
        self.holders(block).collect()
    }

    /// The members holding the block containing byte `offset`.
    pub fn members_of_offset(&self, offset: u64) -> Vec<usize> {
        self.holders(self.block_of(offset)).collect()
    }

    /// [`members_of_block`](Self::members_of_block) without the
    /// allocation, for the per-call paths.
    pub fn holders(&self, block: u64) -> impl Iterator<Item = usize> {
        let (width, base) = (self.width as u64, block * self.replicas as u64);
        (0..self.replicas as u64).map(move |j| ((base + j) % width) as usize)
    }

    /// Whether every block lives on every member (`replicas == width`;
    /// width 1 is the single-upstream session). Such a set needs no
    /// per-block routing: each member holds whole files, so no WRITE is
    /// split, no READ is clamped and no member's file size undershoots.
    pub fn mirrored(&self) -> bool {
        self.replicas == self.width
    }

    /// Bytes from `offset` to the end of its stripe block — how far one
    /// member's copy runs contiguously. Unbounded in a mirrored set.
    pub fn contiguous_from(&self, offset: u64) -> u64 {
        if self.mirrored() {
            return u64::MAX;
        }
        let bs = self.block_size as u64;
        bs - offset % bs
    }
}

/// One upstream member of a stripe set.
///
/// The pipeline slot is shared across every clone of the set (the proxy
/// and its read-ahead worker), so a re-sync can swap in a fresh channel
/// for a member whose old pipeline burned its reconnect budget while the
/// host was away.
#[derive(Clone)]
struct Member {
    pipeline: Arc<Mutex<Pipeline>>,
    up: Arc<AtomicBool>,
}

/// The runtime stripe set: the map plus one pipelined channel and one
/// up/down flag per member.
///
/// Down is sticky until [`mark_up`](Self::mark_up): a member is marked
/// down when a call on it fails terminally (its own reconnect/replay
/// machinery already ran and gave up), and rejoins only after an explicit
/// re-sync (`ClientProxy::resync_member`). The last live member is never
/// marked down: with no survivor to route to, its errors go to the caller
/// and its pipeline keeps reconnecting — at width 1 exactly the
/// single-upstream session's behaviour.
#[derive(Clone)]
pub struct StripeSet {
    map: StripeMap,
    members: Vec<Member>,
    /// Serializes down transitions, so two racing failures (the proxy
    /// and its read-ahead worker) cannot both see a survivor in the other.
    downing: Arc<Mutex<()>>,
}

impl StripeSet {
    /// Assemble a set from one pipeline per member. `pipelines.len()`
    /// must equal the map width.
    pub fn new(map: StripeMap, pipelines: Vec<Pipeline>) -> Self {
        assert_eq!(
            pipelines.len(),
            map.width() as usize,
            "stripe set needs exactly one pipeline per member"
        );
        Self {
            map,
            members: pipelines
                .into_iter()
                .map(|pipeline| Member {
                    pipeline: Arc::new(Mutex::new(pipeline)),
                    up: Arc::new(AtomicBool::new(true)),
                })
                .collect(),
            downing: Arc::default(),
        }
    }

    /// The placement map.
    pub fn map(&self) -> &StripeMap {
        &self.map
    }

    /// Number of members.
    pub fn width(&self) -> usize {
        self.members.len()
    }

    /// The member's pipelined channel (a cheap cloneable handle).
    pub fn member(&self, idx: usize) -> Pipeline {
        self.members[idx].pipeline.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Swap in a fresh channel for `idx` — the rejoin half of failover.
    /// Every clone of the set observes the replacement; the old pipeline
    /// retires when its last outstanding handle drops.
    pub fn replace_member(&self, idx: usize, pipeline: Pipeline) {
        *self.members[idx].pipeline.lock().unwrap_or_else(|e| e.into_inner()) = pipeline;
    }

    /// Whether the member is currently in the read/write set.
    pub fn is_up(&self, idx: usize) -> bool {
        self.members[idx].up.load(Ordering::Acquire)
    }

    /// Take the member out of the read/write set, unless it is the last
    /// live member. Returns `true` if this call transitioned it (so
    /// callers emit the failover event exactly once per incident even
    /// when racing the read-ahead worker).
    pub fn mark_down(&self, idx: usize) -> bool {
        let _downing = self.downing.lock().unwrap_or_else(|e| e.into_inner());
        let survivor = (0..self.width()).any(|m| m != idx && self.is_up(m));
        survivor && self.members[idx].up.swap(false, Ordering::AcqRel)
    }

    /// Return a re-synced member to the read/write set.
    pub fn mark_up(&self, idx: usize) {
        self.members[idx].up.store(true, Ordering::Release);
    }

    /// Members currently marked down.
    pub fn down_count(&self) -> u64 {
        self.members.iter().filter(|m| !m.up.load(Ordering::Acquire)).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(width: u32, replicas: u32, block_size: u32) -> StripeMap {
        StripeMap::new(StripePolicy { width, replicas, block_size })
    }

    /// Per-member block counts over the first `blocks` blocks.
    fn coverage(m: &StripeMap, blocks: u64) -> Vec<u64> {
        let mut counts = vec![0u64; m.width() as usize];
        for b in 0..blocks {
            for member in m.members_of_block(b) {
                counts[member] += 1;
            }
        }
        counts
    }

    #[test]
    fn degenerate_policies_clamp() {
        let m = map(0, 0, 0);
        assert_eq!((m.width(), m.replicas(), m.block_size()), (1, 1, 1));
        let m = map(2, 5, 512);
        assert_eq!(m.replicas(), 2, "replicas clamped to width");
    }

    #[test]
    fn width_one_maps_everything_to_member_zero() {
        let m = map(1, 1, 512);
        for b in [0, 1, 7, 1000] {
            assert_eq!(m.members_of_block(b), vec![0]);
        }
        assert!(m.mirrored(), "the single upstream holds every block");
        assert_eq!(m.contiguous_from(700), u64::MAX, "no stripe-block boundary");
        assert!(map(3, 3, 512).mirrored() && !map(3, 2, 512).mirrored());
    }

    #[test]
    fn offsets_bucket_by_block_size() {
        let m = map(4, 1, 512);
        assert_eq!(m.block_of(0), 0);
        assert_eq!(m.block_of(511), 0);
        assert_eq!(m.block_of(512), 1);
        assert_eq!(m.members_of_offset(1024), m.members_of_block(2));
        assert_eq!(m.contiguous_from(1000), 24, "runs to the block's end");
    }

    #[test]
    fn replicas_are_distinct_members() {
        let m = map(4, 3, 512);
        for b in 0..64 {
            let members = m.members_of_block(b);
            let mut dedup = members.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), 3, "block {b}: {members:?}");
        }
    }

    #[test]
    fn coverage_balanced_within_one_block() {
        // The counterexample that killed the primary+consecutive scheme:
        // 2 blocks, width 4, 2 replicas must land one block per member.
        let counts = coverage(&map(4, 2, 512), 2);
        assert_eq!(counts, vec![1, 1, 1, 1]);
        for (w, r, n) in [(4u32, 1u32, 10u64), (3, 2, 7), (5, 3, 11), (8, 2, 1)] {
            let counts = coverage(&map(w, r, 512), n);
            let min = *counts.iter().min().unwrap();
            let max = *counts.iter().max().unwrap();
            assert!(max - min <= 1, "w={w} r={r} n={n}: {counts:?}");
        }
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Arbitrary placement: every block of the file maps to
            /// exactly `replicas` *distinct* members, and per-member
            /// coverage over the whole file is balanced within one block.
            #[test]
            fn placement_is_distinct_and_balanced(
                file_size in 0u64..4 * 1024 * 1024,
                block_size in 1u32..128 * 1024,
                width in 1u32..9,
                replicas in 1u32..9,
            ) {
                let m = map(width, replicas, block_size);
                let blocks = file_size.div_ceil(m.block_size() as u64);
                let mut counts = vec![0u64; m.width() as usize];
                for b in 0..blocks {
                    let members = m.members_of_block(b);
                    prop_assert_eq!(members.len(), m.replicas() as usize);
                    let mut dedup = members.clone();
                    dedup.sort_unstable();
                    dedup.dedup();
                    prop_assert_eq!(
                        dedup.len(), m.replicas() as usize,
                        "block {} placed twice on one member: {:?}", b, members
                    );
                    for member in members {
                        prop_assert!(member < m.width() as usize);
                        counts[member] += 1;
                    }
                }
                let min = counts.iter().min().copied().unwrap_or(0);
                let max = counts.iter().max().copied().unwrap_or(0);
                prop_assert!(
                    max - min <= 1,
                    "coverage skew over {} blocks: {:?}", blocks, counts
                );
            }

            /// The map is a pure function of the policy: a rebuilt map
            /// (what a reconnect or a fresh client produces) places every
            /// block and byte offset identically. No block silently
            /// re-homes across a session recovery.
            #[test]
            fn placement_is_stable_across_rebuilds(
                block_size in 1u32..128 * 1024,
                width in 0u32..9,
                replicas in 0u32..12,
                probe_blocks in proptest::collection::vec(0u64..1 << 40, 1..32),
                probe_offsets in proptest::collection::vec(0u64..1 << 50, 1..32),
            ) {
                let policy = StripePolicy { width, replicas, block_size };
                let a = StripeMap::new(policy);
                let b = StripeMap::new(policy);
                prop_assert_eq!(a, b);
                for &blk in &probe_blocks {
                    prop_assert_eq!(a.members_of_block(blk), b.members_of_block(blk));
                }
                for &off in &probe_offsets {
                    prop_assert_eq!(a.block_of(off), b.block_of(off));
                    prop_assert_eq!(a.members_of_offset(off), b.members_of_offset(off));
                }
            }
        }
    }

    #[test]
    fn stripe_set_tracks_membership() {
        use crate::stats::ProxyStats;
        use sgfs_net::pipe_pair;

        let m = map(2, 2, 512);
        let mut pipelines = Vec::new();
        let mut servers = Vec::new();
        for _ in 0..2 {
            let (client, server) = pipe_pair();
            let watch = client.watch();
            servers.push(server);
            pipelines.push(Pipeline::new(
                crate::proxy::client::Upstream::Plain(Box::new(client)),
                watch,
                4,
                None,
                ProxyStats::new(),
            ));
        }
        let set = StripeSet::new(m, pipelines);
        assert_eq!(set.width(), 2);
        assert!(set.is_up(0) && set.is_up(1));

        assert!(set.mark_down(0), "first mark_down transitions");
        assert!(!set.mark_down(0), "second is a no-op");
        assert_eq!(set.down_count(), 1);
        assert!(!set.mark_down(1), "the last live member stays up");
        assert!(set.is_up(1));
        assert_eq!(set.down_count(), 1);

        // A clone shares the flags: failover seen by one handle is seen
        // by all (the read-ahead worker and the main loop agree).
        let clone = set.clone();
        assert!(!clone.is_up(0));
        clone.mark_up(0);
        assert!(set.is_up(0));
        drop(servers);
    }
}
