//! The `GroupNode` actor: hosts entity groups, serves reads and commits,
//! acts as 2PC participant and commit registrar.

use crate::group::{Group, GroupId, TxnId};
use kvstore::Key;
use simnet::{Actor, Context, Duration, NodeId, SpanStatus};
use std::collections::BTreeMap;

/// Deployment configuration for the transactional store.
#[derive(Debug, Clone, Copy)]
pub struct TxnConfig {
    /// Number of group-hosting nodes.
    pub nodes: usize,
    /// Lock timeout: prepared transactions older than this are
    /// unilaterally aborted (2PC blocking mitigation).
    pub lock_timeout: Duration,
}

impl TxnConfig {
    /// Defaults: locks expire after 500 ms.
    pub fn new(nodes: usize) -> Self {
        TxnConfig { nodes, lock_timeout: Duration::from_millis(500) }
    }

    /// The home node of a group.
    pub fn home(&self, group: GroupId) -> NodeId {
        NodeId((group % self.nodes as u64) as u32)
    }
}

/// Protocol messages.
#[derive(Debug, Clone)]
pub enum Msg {
    /// Read-phase request: read `keys` of `group` at its current position.
    Read {
        /// Transaction id.
        txn: TxnId,
        /// Group.
        group: GroupId,
        /// Keys to read.
        keys: Vec<Key>,
    },
    /// Read-phase response.
    ReadResp {
        /// Transaction id.
        txn: TxnId,
        /// Group.
        group: GroupId,
        /// Values read.
        values: Vec<(Key, Option<u64>)>,
        /// The group's commit position (the snapshot).
        snapshot: u64,
    },
    /// Single-group fast commit.
    CommitOne {
        /// Transaction id.
        txn: TxnId,
        /// Group.
        group: GroupId,
        /// Snapshot from the read phase.
        snapshot: u64,
        /// Keys read.
        read_keys: Vec<Key>,
        /// Writes to apply.
        writes: Vec<(Key, u64)>,
    },
    /// 2PC phase 1 to one participant group.
    Prepare {
        /// Transaction id.
        txn: TxnId,
        /// Group.
        group: GroupId,
        /// Snapshot from the read phase.
        snapshot: u64,
        /// Keys read in this group.
        read_keys: Vec<Key>,
        /// Writes in this group.
        writes: Vec<(Key, u64)>,
    },
    /// Participant vote.
    Vote {
        /// Transaction id.
        txn: TxnId,
        /// Group.
        group: GroupId,
        /// Yes/no.
        yes: bool,
    },
    /// 2PC phase 2.
    Decide {
        /// Transaction id.
        txn: TxnId,
        /// Group.
        group: GroupId,
        /// Commit or abort.
        commit: bool,
    },
    /// Participant acknowledgement of the decision.
    DecideAck {
        /// Transaction id.
        txn: TxnId,
        /// Group.
        group: GroupId,
    },
    /// Registrar write (Paxos-Commit-lite): record the decision durably
    /// at a quorum before telling participants.
    Register {
        /// Transaction id.
        txn: TxnId,
        /// The decision.
        commit: bool,
    },
    /// Registrar acknowledgement.
    RegisterAck {
        /// Transaction id.
        txn: TxnId,
    },
    /// Commit outcome delivered to the client.
    Outcome {
        /// Transaction id.
        txn: TxnId,
        /// Whether it committed.
        committed: bool,
    },
}

impl simnet::MsgMeta for Msg {
    fn variant_name(&self) -> &'static str {
        match self {
            Msg::Read { .. } => "read",
            Msg::ReadResp { .. } => "read_resp",
            Msg::CommitOne { .. } => "commit_one",
            Msg::Prepare { .. } => "prepare",
            Msg::Vote { .. } => "vote",
            Msg::Decide { .. } => "decide",
            Msg::DecideAck { .. } => "decide_ack",
            Msg::Register { .. } => "register",
            Msg::RegisterAck { .. } => "register_ack",
            Msg::Outcome { .. } => "outcome",
        }
    }
}

const TAG_EXPIRE: u64 = 1;

/// A node hosting entity groups.
pub struct GroupNode {
    cfg: TxnConfig,
    groups: BTreeMap<GroupId, Group>,
    /// Registrar state: decisions recorded here.
    decisions: BTreeMap<TxnId, bool>,
    /// Count of transactions aborted by lock expiry (exported metric).
    pub expired_aborts: u64,
}

impl GroupNode {
    /// Create a node.
    pub fn new(cfg: TxnConfig) -> Self {
        GroupNode { cfg, groups: BTreeMap::new(), decisions: BTreeMap::new(), expired_aborts: 0 }
    }

    fn group_mut(&mut self, g: GroupId) -> &mut Group {
        self.groups.entry(g).or_default()
    }
}

impl Actor<Msg> for GroupNode {
    fn role(&self) -> &'static str {
        "replica"
    }

    fn on_start(&mut self, ctx: &mut Context<Msg>) {
        ctx.set_timer(self.cfg.lock_timeout, TAG_EXPIRE);
    }

    fn on_timer(&mut self, ctx: &mut Context<Msg>, _id: u64, tag: u64) {
        if tag == TAG_EXPIRE {
            let horizon = ctx.now().as_micros().saturating_sub(self.cfg.lock_timeout.as_micros());
            for g in self.groups.values_mut() {
                self.expired_aborts += g.expire_locks(horizon).len() as u64;
            }
            ctx.set_timer(self.cfg.lock_timeout, TAG_EXPIRE);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<Msg>, from: NodeId, msg: Msg) {
        let now_us = ctx.now().as_micros();
        match msg {
            Msg::Read { txn, group, keys } => {
                let span = ctx.span_open("group_read");
                let g = self.group_mut(group);
                let values = g.read(&keys);
                let snapshot = g.commit_pos();
                ctx.send(from, Msg::ReadResp { txn, group, values, snapshot });
                ctx.span_close(span, SpanStatus::Ok);
            }
            Msg::CommitOne { txn, group, snapshot, read_keys, writes } => {
                let span = ctx.span_open("group_commit");
                let committed =
                    self.group_mut(group).commit_one(snapshot, &read_keys, &writes, now_us).is_ok();
                ctx.send(from, Msg::Outcome { txn, committed });
                ctx.span_close(span, if committed { SpanStatus::Ok } else { SpanStatus::Failed });
            }
            Msg::Prepare { txn, group, snapshot, read_keys, writes } => {
                let span = ctx.span_open("group_prepare");
                let yes = self
                    .group_mut(group)
                    .prepare(txn, snapshot, &read_keys, &writes, now_us)
                    .is_ok();
                ctx.send(from, Msg::Vote { txn, group, yes });
                ctx.span_close(span, if yes { SpanStatus::Ok } else { SpanStatus::Failed });
            }
            Msg::Decide { txn, group, commit } => {
                let span = ctx.span_open("group_decide");
                self.group_mut(group).decide(txn, commit, now_us);
                ctx.send(from, Msg::DecideAck { txn, group });
                ctx.span_close(span, SpanStatus::Ok);
            }
            Msg::Register { txn, commit } => {
                let span = ctx.span_open("registrar_write");
                self.decisions.insert(txn, commit);
                ctx.send(from, Msg::RegisterAck { txn });
                ctx.span_close(span, SpanStatus::Ok);
            }
            // Client-side messages: ignored by group nodes.
            Msg::ReadResp { .. }
            | Msg::Vote { .. }
            | Msg::DecideAck { .. }
            | Msg::RegisterAck { .. }
            | Msg::Outcome { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn home_assignment_is_modular() {
        let cfg = TxnConfig::new(3);
        assert_eq!(cfg.home(0), NodeId(0));
        assert_eq!(cfg.home(4), NodeId(1));
        assert_eq!(cfg.home(5), NodeId(2));
    }

    #[test]
    fn node_serves_read_and_commit_via_sim() {
        use simnet::{Sim, SimConfig, SimTime};
        use std::cell::RefCell;
        use std::rc::Rc;

        // A probe actor that drives one read + one commit + one read.
        struct Probe {
            target: NodeId,
            log: Rc<RefCell<Vec<Msg>>>,
        }
        impl Actor<Msg> for Probe {
            fn on_start(&mut self, ctx: &mut Context<Msg>) {
                ctx.send(self.target, Msg::Read { txn: 1, group: 0, keys: vec![7] });
            }
            fn on_message(&mut self, ctx: &mut Context<Msg>, _from: NodeId, msg: Msg) {
                match &msg {
                    Msg::ReadResp { txn: 1, snapshot, .. } => {
                        let snapshot = *snapshot;
                        self.log.borrow_mut().push(msg);
                        ctx.send(
                            self.target,
                            Msg::CommitOne {
                                txn: 1,
                                group: 0,
                                snapshot,
                                read_keys: vec![7],
                                writes: vec![(7, 42)],
                            },
                        );
                    }
                    Msg::Outcome { .. } => {
                        self.log.borrow_mut().push(msg);
                        ctx.send(self.target, Msg::Read { txn: 2, group: 0, keys: vec![7] });
                    }
                    Msg::ReadResp { txn: 2, .. } => {
                        self.log.borrow_mut().push(msg);
                    }
                    _ => {}
                }
            }
        }

        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim: Sim<Msg> = Sim::new(SimConfig::default().seed(1));
        let node = sim.add_node(Box::new(GroupNode::new(TxnConfig::new(1))));
        sim.add_node(Box::new(Probe { target: node, log: log.clone() }));
        sim.run_until(SimTime::from_secs(1));
        let log = log.borrow();
        assert_eq!(log.len(), 3);
        match &log[1] {
            Msg::Outcome { committed, .. } => assert!(committed),
            other => panic!("expected outcome, got {other:?}"),
        }
        match &log[2] {
            Msg::ReadResp { values, snapshot, .. } => {
                assert_eq!(values, &vec![(7, Some(42))]);
                assert_eq!(*snapshot, 1);
            }
            other => panic!("expected read resp, got {other:?}"),
        }
    }
}
