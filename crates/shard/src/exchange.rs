//! The per-step frontier exchange as one log-depth dissemination schedule.
//!
//! After a bulk-synchronous step, device `i` may hold discoveries for any
//! other device `j`: one dense bitmap **segment** over `j`'s owned range per
//! active `(i, j)` pair. Delivering them is a reduce-scatter with OR — owner
//! `j` needs the OR of every segment addressed to it, not the individual
//! segments — so they need not travel point to point. The schedule here
//! routes every segment along the ring in power-of-two hops:
//!
//! * round `k = 0 .. ⌈log₂ d⌉` — device `i` sends device `(i + 2ᵏ) mod d`
//!   **one** message holding the segments whose remaining ring distance to
//!   their owner has bit `k` set;
//! * the receiver OR-merges segments bound for the same owner, so a device
//!   never holds more than one segment per owner;
//! * a device with nothing to forward in a round sends nothing.
//!
//! A segment at ring distance `r` reaches its owner after exactly the hops
//! named by the set bits of `r`, for **any** device count (powers of two
//! are not special). Every device sends at most one message per round — at most
//! `d·⌈log₂ d⌉` messages per step against `d·(d−1)` point to point (24
//! against 56 at eight devices) — and, because merged segments travel once,
//! at most `d−1` segments per step: when every pair is active the bytes
//! are exactly the point-to-point total. A sparse step can move a segment
//! more than one hop, so its bytes may exceed the point-to-point bill; the
//! per-message setup the schedule removes is worth far more at bitmap sizes
//! (see "Why messages, not bytes" in [`crate::engine`]).
//!
//! A pull step exchanges in the opposite sense — scanner `i` needs owner
//! `j`'s frontier segment, an all-gather — and runs the same schedule
//! time-reversed (`(i + 2ᵏ) mod d` sends `i`, last round first), so one
//! [`ActivityMatrix`] orientation and one [`ExchangeCost`] serve both.

use gcgt_graph::{Csr, NodeId};

use crate::plan::ShardPlan;

/// Which `(device, owner)` pairs have a segment to exchange this step:
/// entry `(i, j)` is set when work expanded on device `i` touched a node
/// device `j` owns. The diagonal is never set — local discoveries are not
/// exchanged.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ActivityMatrix {
    devices: usize,
    active: Vec<bool>,
}

impl ActivityMatrix {
    /// An all-quiet matrix over `devices` devices.
    pub fn new(devices: usize) -> Self {
        Self {
            devices,
            active: vec![false; devices * devices],
        }
    }

    /// The device count.
    pub fn devices(&self) -> usize {
        self.devices
    }

    /// Marks device `i` as holding a segment for owner `j`.
    ///
    /// # Panics
    ///
    /// Panics when `i == j` or either is out of range.
    pub fn set(&mut self, i: usize, j: usize) {
        assert!(i != j, "device {i} does not exchange with itself");
        assert!(i < self.devices && j < self.devices);
        self.active[i * self.devices + j] = true;
    }

    /// Whether device `i` holds a segment for owner `j`.
    pub fn is_active(&self, i: usize, j: usize) -> bool {
        self.active[i * self.devices + j]
    }

    /// The activity of one BSP step over `work` (frontier nodes in push
    /// mode, unvisited candidates in pull mode), plus the number of
    /// distinct remotely-owned nodes it touched.
    ///
    /// Adjacency lists are sorted and shards are contiguous, so a list
    /// crosses the shard boundaries in order: each same-owner run is found
    /// with one search and the (majority) locally-owned runs are skipped
    /// without touching their edges.
    pub fn of_step(graph: &Csr, plan: &ShardPlan, work: &[NodeId]) -> (Self, u64) {
        let shards = plan.shards();
        let mut activity = Self::new(shards.len());
        let mut seen = vec![false; graph.num_nodes()];
        let mut boundary = 0u64;
        for &u in work {
            let i = plan.owner_of(u);
            let mut rest = graph.neighbors(u);
            let mut j = 0;
            while let Some(&v) = rest.first() {
                while shards[j].end_node <= v {
                    j += 1;
                }
                let end = shards[j].end_node;
                let (run, tail) = rest.split_at(rest.partition_point(|&w| w < end));
                if j != i {
                    activity.set(i, j);
                    for &w in run {
                        if !seen[w as usize] {
                            seen[w as usize] = true;
                            boundary += 1;
                        }
                    }
                }
                rest = tail;
            }
        }
        (activity, boundary)
    }
}

/// Walks the dissemination schedule for `activity`, calling
/// `send(round, from, to, owners)` once per message in round order:
/// `from` forwards `to` the (merged) segments bound for `owners`.
///
/// This is the whole algorithm; [`ExchangeCost::plan`] only counts what it
/// emits, and the property tests drive it as a message-passing simulation.
pub fn disseminate(activity: &ActivityMatrix, mut send: impl FnMut(usize, usize, usize, &[usize])) {
    let d = activity.devices;
    // held[i * d + o]: device i holds a segment bound for owner o.
    let mut held = activity.active.clone();
    let mut owners = Vec::with_capacity(d);
    // ⌈log₂ d⌉ rounds cover every ring distance below d.
    for round in 0..d.next_power_of_two().trailing_zeros() as usize {
        let hop = 1usize << round;
        for from in 0..d {
            owners.clear();
            // Ring distance from `from` forward to owner `o`.
            let distance = |o: usize| (o + d - from) % d;
            owners.extend((0..d).filter(|&o| held[from * d + o] && distance(o) & hop != 0));
            if owners.is_empty() {
                continue;
            }
            // A received segment has bit `round` of its distance cleared,
            // so it never joins the receiver's own send of this round:
            // updating `held` in place is the simultaneous exchange.
            let to = (from + hop) % d;
            for &o in &owners {
                held[from * d + o] = false;
                if o != to {
                    held[to * d + o] = true;
                }
            }
            send(round, from, to, &owners);
        }
    }
}

/// What one step's exchange costs the interconnect — the inputs of
/// [`gcgt_simt::Link::ms`], plus the schedule depth.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExchangeCost {
    /// Rounds in which at least one message was sent (≤ ⌈log₂ d⌉).
    pub rounds: usize,
    /// Messages sent (≤ d·⌈log₂ d⌉; each carries one or more segments).
    pub messages: usize,
    /// Segment bytes moved, counting every hop.
    pub bytes: usize,
}

impl ExchangeCost {
    /// Prices the dissemination schedule of `activity` over `plan`'s
    /// per-owner bitmap sizes. Pure: depends on nothing but its arguments.
    pub fn plan(activity: &ActivityMatrix, plan: &ShardPlan) -> Self {
        let mut cost = Self::default();
        let mut last_round = None;
        disseminate(activity, |round, _, _, owners| {
            if last_round != Some(round) {
                last_round = Some(round);
                cost.rounds += 1;
            }
            cost.messages += 1;
            cost.bytes += owners.iter().map(|&o| plan.bitmap_bytes(o)).sum::<usize>();
        });
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcgt_cgr::{CgrConfig, CgrGraph};
    use gcgt_graph::gen::{web_graph, WebParams};
    use gcgt_simt::Link;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    fn ceil_log2(d: usize) -> usize {
        d.next_power_of_two().trailing_zeros() as usize
    }

    fn fixture() -> &'static Csr {
        static GRAPH: OnceLock<Csr> = OnceLock::new();
        GRAPH.get_or_init(|| web_graph(&WebParams::uk2002_like(400), 5).symmetrized())
    }

    /// A `d`-device plan over the skewed fixture: the byte-balanced cut
    /// gives shards of different node counts, so per-owner bitmap sizes
    /// differ.
    fn uneven_plan(d: usize) -> ShardPlan {
        ShardPlan::build_csr(fixture(), d)
    }

    /// The point-to-point bill the schedule replaced: one message and one
    /// owner-sized bitmap per active pair.
    fn pairwise(activity: &ActivityMatrix, plan: &ShardPlan) -> (usize, usize) {
        let d = activity.devices();
        let (mut messages, mut bytes) = (0, 0);
        for i in 0..d {
            for j in 0..d {
                if activity.is_active(i, j) {
                    messages += 1;
                    bytes += plan.bitmap_bytes(j);
                }
            }
        }
        (messages, bytes)
    }

    fn dense(d: usize) -> ActivityMatrix {
        let mut a = ActivityMatrix::new(d);
        for i in 0..d {
            for j in (0..d).filter(|&j| j != i) {
                a.set(i, j);
            }
        }
        a
    }

    /// `(d, per-pair payload)`: `payload[i * d + j]` is the bitset device
    /// `i` addresses to owner `j` (0 = inactive pair), for `d` in `1..=9`.
    fn scenario() -> impl Strategy<Value = (usize, Vec<u64>)> {
        (1usize..10).prop_flat_map(|d| {
            let cell = prop_oneof![Just(0u64), 1u64..u64::MAX];
            (Just(d), proptest::collection::vec(cell, d * d..d * d + 1))
        })
    }

    fn activity_of(d: usize, payload: &[u64]) -> ActivityMatrix {
        let mut a = ActivityMatrix::new(d);
        for i in 0..d {
            for j in 0..d {
                if i != j && payload[i * d + j] != 0 {
                    a.set(i, j);
                }
            }
        }
        a
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Reduce-scatter (push): run the schedule as real message passing
        /// and check delivery, merging and every structural bound.
        #[test]
        fn every_owner_receives_exactly_the_or_of_its_segments(case in scenario()) {
            let (d, payload) = case;
            let activity = activity_of(d, &payload);
            // holds[i][o]: the merged bitset device i carries for owner o.
            let mut holds: Vec<Vec<Option<u64>>> = vec![vec![None; d]; d];
            let mut want = vec![0u64; d];
            for i in 0..d {
                for o in 0..d {
                    if activity.is_active(i, o) {
                        holds[i][o] = Some(payload[i * d + o]);
                        want[o] |= payload[i * d + o];
                    }
                }
            }
            let mut delivered = vec![0u64; d];
            let mut sent_in_round = vec![vec![false; d]; ceil_log2(d)];
            let mut segments_sent = vec![0usize; d];
            let (mut messages, mut last_round) = (0usize, 0usize);
            disseminate(&activity, |round, from, to, owners| {
                assert!(round >= last_round, "rounds are emitted in order");
                last_round = round;
                assert!(round < ceil_log2(d), "round {round} at {d} devices");
                assert_eq!(to, (from + (1 << round)) % d);
                assert!(!owners.is_empty(), "empty messages are not sent");
                assert!(!std::mem::replace(&mut sent_in_round[round][from], true),
                    "device {from} sent twice in round {round}");
                messages += 1;
                segments_sent[from] += owners.len();
                for &o in owners {
                    let bits = holds[from][o].take().expect("sender holds what it forwards");
                    if o == to {
                        delivered[o] |= bits;
                    } else {
                        *holds[to][o].get_or_insert(0) |= bits;
                    }
                }
            });
            prop_assert_eq!(&delivered, &want);
            prop_assert!(holds.iter().flatten().all(Option::is_none), "segments left in flight");
            prop_assert!(messages <= d * ceil_log2(d));
            prop_assert!(segments_sent.iter().all(|&s| s <= d.saturating_sub(1)));

            let plan = uneven_plan(d);
            let cost = ExchangeCost::plan(&activity, &plan);
            prop_assert_eq!(cost.messages, messages);
            prop_assert!(cost.rounds <= ceil_log2(d));
            let (pair_messages, pair_bytes) = pairwise(&activity, &plan);
            if pair_messages == 0 {
                prop_assert_eq!(cost, ExchangeCost::default());
                prop_assert_eq!(Link::nvlink().ms(cost.bytes, cost.messages), 0.0);
            }
            if d == 2 {
                // Two devices are one hop apart: the old pairwise charge.
                let link = Link::nvlink();
                prop_assert_eq!(
                    link.ms(cost.bytes, cost.messages).to_bits(),
                    link.ms(pair_bytes, pair_messages).to_bits()
                );
            }
        }

        /// All-gather (pull): the data flows along the transposed matrix —
        /// owner `j` to every scanner `i` with `(i, j)` active — and the
        /// time-reversed schedule delivers it with the identical bill.
        #[test]
        fn reversed_schedule_is_a_feasible_all_gather_with_the_same_bill(case in scenario()) {
            let (d, payload) = case;
            let activity = activity_of(d, &payload);
            let plan = uneven_plan(d);
            let mut log = Vec::new();
            disseminate(&activity, |round, from, to, owners| {
                log.push((round, from, to, owners.to_vec()));
            });
            // has[i * d + j]: device i holds owner j's segment.
            let mut has: Vec<bool> = (0..d * d).map(|at| at / d == at % d).collect();
            let mut bill = ExchangeCost::default();
            for (_, from, to, owners) in log.iter().rev() {
                bill.messages += 1;
                for &o in owners {
                    prop_assert!(has[to * d + o], "device {} forwards a segment it lacks", to);
                    has[from * d + o] = true;
                    bill.bytes += plan.bitmap_bytes(o);
                }
            }
            for (at, &got) in has.iter().enumerate() {
                let (i, j) = (at / d, at % d);
                prop_assert!(!activity.is_active(i, j) || got, "{} never got {}", i, j);
            }
            let cost = ExchangeCost::plan(&activity, &plan);
            prop_assert_eq!((cost.messages, cost.bytes), (bill.messages, bill.bytes));
        }
    }

    #[test]
    fn dense_exchange_is_d_log_d_messages_and_the_pairwise_bytes() {
        for d in 1..=9 {
            let plan = uneven_plan(d);
            let cost = ExchangeCost::plan(&dense(d), &plan);
            let (_, pair_bytes) = pairwise(&dense(d), &plan);
            assert_eq!(cost.rounds, ceil_log2(d), "{d} devices");
            assert_eq!(cost.messages, d * ceil_log2(d), "{d} devices");
            assert_eq!(cost.bytes, pair_bytes, "{d} devices");
        }
        // The headline case: all 56 pairs active at eight devices.
        assert_eq!(ExchangeCost::plan(&dense(8), &uneven_plan(8)).messages, 24);
    }

    #[test]
    fn a_lone_segment_hops_once_per_set_distance_bit() {
        let plan = uneven_plan(8);
        for (owner, hops) in [(1, 1), (2, 1), (3, 2), (4, 1), (5, 2), (6, 2), (7, 3)] {
            let mut a = ActivityMatrix::new(8);
            a.set(0, owner);
            let cost = ExchangeCost::plan(&a, &plan);
            assert_eq!((cost.rounds, cost.messages), (hops, hops), "0 → {owner}");
            assert_eq!(cost.bytes, hops * plan.bitmap_bytes(owner));
        }
    }

    /// The per-edge ownership loop `of_step` replaced, kept as its oracle.
    fn of_step_per_edge(graph: &Csr, plan: &ShardPlan, work: &[NodeId]) -> (ActivityMatrix, u64) {
        let mut activity = ActivityMatrix::new(plan.devices());
        let mut seen = vec![false; graph.num_nodes()];
        let mut boundary = 0u64;
        for &u in work {
            let i = plan.owner_of(u);
            for &v in graph.neighbors(u) {
                let j = plan.owner_of(v);
                if j != i {
                    activity.set(i, j);
                    if !seen[v as usize] {
                        seen[v as usize] = true;
                        boundary += 1;
                    }
                }
            }
        }
        (activity, boundary)
    }

    #[test]
    fn owner_walk_matches_the_per_edge_loop() {
        // Also pins what lets the link be priced without a zero-case branch:
        // a real step marks only owners a neighbour falls in, so every
        // message carries a non-empty bitmap and a step moves no bytes
        // exactly when it sends no messages.
        fn check(graph: &Csr, plan: &ShardPlan, work: &[NodeId]) {
            let step = ActivityMatrix::of_step(graph, plan, work);
            let what = format!("{} devices, {} work nodes", plan.devices(), work.len());
            assert_eq!(step, of_step_per_edge(graph, plan, work), "{what}");
            let cost = ExchangeCost::plan(&step.0, plan);
            assert_eq!(cost.bytes == 0, cost.messages == 0, "{what}");
        }
        let g = fixture();
        let cgr = CgrGraph::encode(g, &CgrConfig::paper_default());
        let n = g.num_nodes() as NodeId;
        let all: Vec<NodeId> = (0..n).collect();
        let strided: Vec<NodeId> = (0..n).rev().step_by(7).collect();
        for devices in [2, 3, 4, 8] {
            for plan in [
                ShardPlan::build(&cgr, devices),
                ShardPlan::build_csr(g, devices),
            ] {
                for work in [&all[..], &strided[..], &all[..1], &[]] {
                    check(g, &plan, work);
                }
            }
        }
        // More devices than nodes leaves empty shards sharing a boundary:
        // the walk must skip them exactly as `owner_of` does.
        let tiny = Csr::from_edges(3, &[(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]);
        let plan = ShardPlan::build_csr(&tiny, 8);
        assert!(plan.shards().iter().any(|s| s.num_nodes() == 0));
        check(&tiny, &plan, &[0, 1, 2]);
    }
}
