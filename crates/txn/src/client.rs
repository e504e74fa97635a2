//! A scripted transaction client: read phase, then single-group fast
//! commit or two-phase commit (optionally registrar-backed).

use crate::group::{GroupId, TxnId};
use crate::manager::{Msg, TxnConfig};
use kvstore::Key;
use obs::Counter;
use serde::{Deserialize, Serialize};
use simnet::{Actor, Context, Duration, NodeId, SimTime, SpanId, SpanStatus};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

/// One group's footprint in a transaction: `(group, read keys, writes)`.
pub type TxnPart = (GroupId, Vec<Key>, Vec<(Key, u64)>);

/// One scripted transaction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TxnSpec {
    /// Gap before starting, µs (after the previous transaction finished).
    pub gap_us: u64,
    /// Per-group footprint.
    pub parts: Vec<TxnPart>,
}

/// Aggregated results for one client (shared with the harness).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TxnStats {
    /// Committed transactions.
    pub committed: u64,
    /// Aborted transactions (validation/lock conflicts).
    pub aborted: u64,
    /// Transactions that timed out client-side.
    pub timed_out: u64,
    /// Commit latencies (ms) of committed transactions.
    pub commit_latency_ms: Vec<f64>,
    /// Commit latencies (ms) of aborted transactions (time wasted).
    pub abort_latency_ms: Vec<f64>,
}

impl TxnStats {
    /// Mean commit latency (ms) over committed transactions.
    pub fn mean_commit_ms(&self) -> f64 {
        if self.commit_latency_ms.is_empty() {
            0.0
        } else {
            self.commit_latency_ms.iter().sum::<f64>() / self.commit_latency_ms.len() as f64
        }
    }
}

/// Shared stats handle.
pub type SharedTxnStats = Rc<RefCell<TxnStats>>;

/// Create an empty shared stats handle.
pub fn shared_stats() -> SharedTxnStats {
    Rc::new(RefCell::new(TxnStats::default()))
}

#[derive(Debug)]
enum Phase {
    /// Waiting for `ReadResp`s; collected snapshots/values so far.
    Reading { snapshots: BTreeMap<GroupId, u64>, outstanding: usize },
    /// Single-group commit sent.
    FastCommit,
    /// 2PC: waiting for votes.
    Voting { yes: BTreeSet<GroupId>, no: bool, outstanding: usize },
    /// Registrar round (decision being recorded).
    Registering { commit: bool, acks: usize, needed: usize },
    /// Decisions sent; waiting for acks.
    Deciding { commit: bool, outstanding: usize },
}

#[derive(Debug)]
struct InFlight {
    txn: TxnId,
    spec_idx: usize,
    started: SimTime,
    phase: Phase,
    timeout_timer: u64,
    /// Root span of the transaction's trace, closed in `finish`.
    span: SpanId,
}

const TAG_NEXT: u64 = 1;
const TAG_TIMEOUT_BASE: u64 = 1_000;

/// The transaction client actor.
pub struct TxnClient {
    session: u64,
    cfg: TxnConfig,
    script: Vec<TxnSpec>,
    next_idx: usize,
    seq: u64,
    stats: SharedTxnStats,
    inflight: Option<InFlight>,
    timeout: Duration,
    /// Registrar quorum size; 0 = plain 2PC (no registrar round).
    registrar_quorum: usize,
}

impl TxnClient {
    /// Create a client. `registrar_quorum` of 0 runs plain 2PC; a positive
    /// value records the decision at that many nodes before phase 2
    /// (Paxos-Commit-lite; use a majority of `cfg.nodes`).
    pub fn new(
        session: u64,
        cfg: TxnConfig,
        script: Vec<TxnSpec>,
        stats: SharedTxnStats,
        registrar_quorum: usize,
    ) -> Self {
        assert!(registrar_quorum <= cfg.nodes, "registrar quorum exceeds node count");
        TxnClient {
            session,
            cfg,
            script,
            next_idx: 0,
            seq: 0,
            stats,
            inflight: None,
            timeout: Duration::from_secs(2),
            registrar_quorum,
        }
    }

    fn schedule_next<M>(&mut self, ctx: &mut Context<M>) {
        if let Some(spec) = self.script.get(self.next_idx) {
            ctx.set_timer(Duration::from_micros(spec.gap_us), TAG_NEXT);
        }
    }

    fn start_txn(&mut self, ctx: &mut Context<Msg>) {
        let Some(spec) = self.script.get(self.next_idx).cloned() else {
            return;
        };
        self.next_idx += 1;
        self.seq += 1;
        let txn: TxnId = (self.session << 32) | self.seq;
        // Root of the transaction's trace: opened before the timeout timer
        // and the read fan-out so both carry the new context.
        let span = ctx.start_trace("txn");
        let timer = ctx.set_timer(self.timeout, TAG_TIMEOUT_BASE + self.seq);
        let outstanding = spec.parts.len();
        self.inflight = Some(InFlight {
            txn,
            spec_idx: self.next_idx - 1,
            started: ctx.now(),
            phase: Phase::Reading { snapshots: BTreeMap::new(), outstanding },
            timeout_timer: timer,
            span,
        });
        for (group, read_keys, _) in &spec.parts {
            ctx.send(
                self.cfg.home(*group),
                Msg::Read { txn, group: *group, keys: read_keys.clone() },
            );
        }
    }

    fn finish(&mut self, ctx: &mut Context<Msg>, committed: bool, timed_out: bool) {
        let Some(f) = self.inflight.take() else { return };
        ctx.cancel_timer(f.timeout_timer);
        ctx.span_close(f.span, if committed { SpanStatus::Ok } else { SpanStatus::Failed });
        let latency = ctx.now().saturating_since(f.started).as_millis_f64();
        let node = ctx.self_id().0 as u64;
        let counter = if committed { Counter::TxnCommits } else { Counter::TxnAborts };
        ctx.recorder().count_node(node, counter, 1);
        let mut stats = self.stats.borrow_mut();
        if committed {
            stats.committed += 1;
            stats.commit_latency_ms.push(latency);
        } else if timed_out {
            stats.timed_out += 1;
        } else {
            stats.aborted += 1;
            stats.abort_latency_ms.push(latency);
        }
        drop(stats);
        self.schedule_next(ctx);
    }

    fn spec(&self, idx: usize) -> &TxnSpec {
        &self.script[idx]
    }

    fn enter_commit_phase(&mut self, ctx: &mut Context<Msg>) {
        let Some(f) = self.inflight.as_mut() else { return };
        let Phase::Reading { snapshots, .. } = &f.phase else { return };
        let snapshots = snapshots.clone();
        let txn = f.txn;
        let spec_idx = f.spec_idx;
        let parts = self.spec(spec_idx).parts.clone();
        if parts.len() == 1 {
            let (group, read_keys, writes) = parts.into_iter().next().expect("one part");
            let snapshot = snapshots[&group];
            if let Some(f) = self.inflight.as_mut() {
                f.phase = Phase::FastCommit;
            }
            ctx.send(
                self.cfg.home(group),
                Msg::CommitOne { txn, group, snapshot, read_keys, writes },
            );
        } else {
            let outstanding = parts.len();
            if let Some(f) = self.inflight.as_mut() {
                f.phase = Phase::Voting { yes: BTreeSet::new(), no: false, outstanding };
            }
            for (group, read_keys, writes) in parts {
                let snapshot = snapshots[&group];
                ctx.send(
                    self.cfg.home(group),
                    Msg::Prepare { txn, group, snapshot, read_keys, writes },
                );
            }
        }
    }

    fn conclude_votes(&mut self, ctx: &mut Context<Msg>) {
        let rq = self.registrar_quorum;
        // Scoped borrow: extract what the transition needs, then release.
        type VoteInfo = (TxnId, usize, bool, Vec<GroupId>);
        let info: Option<VoteInfo> = match self.inflight.as_ref() {
            Some(f) => match &f.phase {
                Phase::Voting { yes, no, outstanding } if *outstanding == 0 => {
                    Some((f.txn, f.spec_idx, !*no, yes.iter().copied().collect::<Vec<_>>()))
                }
                _ => None,
            },
            None => None,
        };
        let Some((txn, spec_idx, commit, yes_groups)) = info else { return };
        if commit && rq > 0 {
            if let Some(f) = self.inflight.as_mut() {
                f.phase = Phase::Registering { commit, acks: 0, needed: rq };
            }
            for node in 0..rq as u32 {
                ctx.send(NodeId(node), Msg::Register { txn, commit });
            }
        } else {
            // Decide immediately: commit to all groups, or abort to the
            // yes-voters (no-voters never locked anything).
            let groups: Vec<GroupId> = if commit {
                self.spec(spec_idx).parts.iter().map(|(g, _, _)| *g).collect()
            } else {
                yes_groups
            };
            if groups.is_empty() {
                self.finish(ctx, commit, false);
                return;
            }
            if let Some(f) = self.inflight.as_mut() {
                f.phase = Phase::Deciding { commit, outstanding: groups.len() };
            }
            for g in groups {
                ctx.send(self.cfg.home(g), Msg::Decide { txn, group: g, commit });
            }
        }
    }
}

impl Actor<Msg> for TxnClient {
    fn role(&self) -> &'static str {
        "client"
    }

    fn on_start(&mut self, ctx: &mut Context<Msg>) {
        self.schedule_next(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<Msg>, _id: u64, tag: u64) {
        if tag == TAG_NEXT {
            self.start_txn(ctx);
        } else if tag >= TAG_TIMEOUT_BASE {
            let seq = tag - TAG_TIMEOUT_BASE;
            if self.inflight.as_ref().map(|f| f.txn & 0xffff_ffff) == Some(seq) {
                self.finish(ctx, false, true);
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Context<Msg>, _from: NodeId, msg: Msg) {
        let Some(txn) = self.inflight.as_ref().map(|f| f.txn) else { return };
        match msg {
            Msg::ReadResp { txn: t, group, snapshot, .. } if t == txn => {
                let ready = {
                    let f = self.inflight.as_mut().expect("checked above");
                    if let Phase::Reading { snapshots, outstanding } = &mut f.phase {
                        if snapshots.insert(group, snapshot).is_none() {
                            *outstanding -= 1;
                        }
                        *outstanding == 0
                    } else {
                        false
                    }
                };
                if ready {
                    self.enter_commit_phase(ctx);
                }
            }
            Msg::Outcome { txn: t, committed } if t == txn => {
                let fast =
                    matches!(self.inflight.as_ref().map(|f| &f.phase), Some(Phase::FastCommit));
                if fast {
                    self.finish(ctx, committed, false);
                }
            }
            Msg::Vote { txn: t, group, yes } if t == txn => {
                let voted = {
                    let f = self.inflight.as_mut().expect("checked above");
                    if let Phase::Voting { yes: ys, no, outstanding } = &mut f.phase {
                        if yes {
                            ys.insert(group);
                        } else {
                            *no = true;
                        }
                        *outstanding -= 1;
                        true
                    } else {
                        false
                    }
                };
                if voted {
                    self.conclude_votes(ctx);
                }
            }
            Msg::RegisterAck { txn: t } if t == txn => {
                let proceed = {
                    let f = self.inflight.as_mut().expect("checked above");
                    if let Phase::Registering { commit, acks, needed } = &mut f.phase {
                        *acks += 1;
                        (acks >= needed).then_some((*commit, f.spec_idx))
                    } else {
                        None
                    }
                };
                if let Some((commit, spec_idx)) = proceed {
                    let groups: Vec<GroupId> =
                        self.script[spec_idx].parts.iter().map(|(g, _, _)| *g).collect();
                    if let Some(f) = self.inflight.as_mut() {
                        f.phase = Phase::Deciding { commit, outstanding: groups.len() };
                    }
                    for g in groups {
                        ctx.send(self.cfg.home(g), Msg::Decide { txn, group: g, commit });
                    }
                }
            }
            Msg::DecideAck { txn: t, .. } if t == txn => {
                let done = {
                    let f = self.inflight.as_mut().expect("checked above");
                    if let Phase::Deciding { commit, outstanding } = &mut f.phase {
                        *outstanding -= 1;
                        (*outstanding == 0).then_some(*commit)
                    } else {
                        None
                    }
                };
                if let Some(commit) = done {
                    self.finish(ctx, commit, false);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::GroupNode;
    use simnet::{LatencyModel, Sim, SimConfig};

    fn build(nodes: usize, clients: Vec<TxnClient>, seed: u64) -> Sim<Msg> {
        let cfg = TxnConfig::new(nodes);
        let mut sim = Sim::new(
            SimConfig::default()
                .seed(seed)
                .latency(LatencyModel::Constant(Duration::from_millis(3))),
        );
        for _ in 0..nodes {
            sim.add_node(Box::new(GroupNode::new(cfg)));
        }
        for c in clients {
            sim.add_node(Box::new(c));
        }
        sim
    }

    fn spec(gap_us: u64, parts: Vec<TxnPart>) -> TxnSpec {
        TxnSpec { gap_us, parts }
    }

    #[test]
    fn single_group_txn_commits() {
        let stats = shared_stats();
        let cfg = TxnConfig::new(2);
        let c = TxnClient::new(
            1,
            cfg,
            vec![
                spec(1_000, vec![(0, vec![], vec![(1, 10)])]),
                spec(1_000, vec![(0, vec![1], vec![(1, 20)])]),
            ],
            stats.clone(),
            0,
        );
        let mut sim = build(2, vec![c], 1);
        sim.run_until(SimTime::from_secs(2));
        let s = stats.borrow();
        assert_eq!(s.committed, 2);
        assert_eq!(s.aborted, 0);
        assert!(s.mean_commit_ms() > 0.0);
    }

    #[test]
    fn cross_group_txn_commits_via_2pc() {
        let stats = shared_stats();
        let cfg = TxnConfig::new(3);
        let c = TxnClient::new(
            1,
            cfg,
            vec![spec(1_000, vec![(0, vec![], vec![(1, 10)]), (1, vec![], vec![(100, 20)])])],
            stats.clone(),
            0,
        );
        let mut sim = build(3, vec![c], 2);
        sim.run_until(SimTime::from_secs(2));
        let s = stats.borrow();
        assert_eq!((s.committed, s.aborted, s.timed_out), (1, 0, 0));
    }

    #[test]
    fn registrar_round_adds_latency_but_commits() {
        let run = |registrars: usize, seed: u64| {
            let stats = shared_stats();
            let cfg = TxnConfig::new(3);
            let c = TxnClient::new(
                1,
                cfg,
                vec![spec(1_000, vec![(0, vec![], vec![(1, 10)]), (1, vec![], vec![(100, 20)])])],
                stats.clone(),
                registrars,
            );
            let mut sim = build(3, vec![c], seed);
            sim.run_until(SimTime::from_secs(2));
            let s = stats.borrow();
            assert_eq!(s.committed, 1);
            s.mean_commit_ms()
        };
        let plain = run(0, 3);
        let registered = run(2, 3);
        assert!(
            registered > plain + 5.0,
            "registrar round must add a round trip: {plain} vs {registered}"
        );
    }

    #[test]
    fn conflicting_txns_one_aborts() {
        // Two clients race an RMW on the same key in the same group with
        // overlapping read phases: OCC must abort at least one, and the
        // group must end consistent (exactly committed-many versions).
        let stats1 = shared_stats();
        let stats2 = shared_stats();
        let cfg = TxnConfig::new(1);
        let mk = |session, stats: &SharedTxnStats| {
            TxnClient::new(
                session,
                cfg,
                vec![spec(1_000, vec![(0, vec![5], vec![(5, session)])])],
                stats.clone(),
                0,
            )
        };
        let c1 = mk(1, &stats1);
        let c2 = mk(2, &stats2);
        let mut sim = build(1, vec![c1, c2], 4);
        sim.run_until(SimTime::from_secs(2));
        let (s1, s2) = (stats1.borrow(), stats2.borrow());
        let committed = s1.committed + s2.committed;
        let aborted = s1.aborted + s2.aborted;
        assert_eq!(committed + aborted, 2);
        assert_eq!(aborted, 1, "exactly one of the racing RMWs must abort");
    }

    #[test]
    fn disjoint_txns_both_commit() {
        let stats1 = shared_stats();
        let stats2 = shared_stats();
        let cfg = TxnConfig::new(1);
        let c1 = TxnClient::new(
            1,
            cfg,
            vec![spec(1_000, vec![(0, vec![1], vec![(1, 11)])])],
            stats1.clone(),
            0,
        );
        let c2 = TxnClient::new(
            2,
            cfg,
            vec![spec(1_000, vec![(0, vec![2], vec![(2, 22)])])],
            stats2.clone(),
            0,
        );
        let mut sim = build(1, vec![c1, c2], 5);
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(stats1.borrow().committed + stats2.borrow().committed, 2);
    }

    #[test]
    fn vote_no_aborts_cleanly_and_unlocks() {
        // Client A holds locks in group 0 via a long 2PC (we simulate the
        // contention window by having B prepare while A is between
        // prepare and decide). With constant latency, B's prepare lands
        // while A's locks are held → B aborts; A commits; a third txn
        // after both succeeds (locks released).
        let stats_a = shared_stats();
        let stats_b = shared_stats();
        let stats_c = shared_stats();
        let cfg = TxnConfig::new(2);
        let a = TxnClient::new(
            1,
            cfg,
            vec![spec(1_000, vec![(0, vec![], vec![(1, 10)]), (1, vec![], vec![(100, 1)])])],
            stats_a.clone(),
            0,
        );
        let b = TxnClient::new(
            2,
            cfg,
            vec![spec(9_000, vec![(0, vec![1], vec![(1, 20)]), (1, vec![], vec![(101, 1)])])],
            stats_b.clone(),
            0,
        );
        let c = TxnClient::new(
            3,
            cfg,
            vec![spec(500_000, vec![(0, vec![1], vec![(1, 30)])])],
            stats_c.clone(),
            0,
        );
        let mut sim = build(2, vec![a, b, c], 6);
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(stats_a.borrow().committed, 1, "A commits");
        assert_eq!(stats_b.borrow().aborted, 1, "B hits A's locks and aborts");
        assert_eq!(stats_c.borrow().committed, 1, "locks released for C");
    }
}
