//! Causal-anomaly checking (the COPS photo-ACL pattern).
//!
//! A trace is causally suspect when a session observes a write but later
//! fails to observe one of that write's *causal dependencies*. This
//! checker implements the one-hop closure of that rule:
//!
//! 1. Every write depends on (a) the earlier writes of its own session
//!    (program order) and (b) the writes its session had *read* before
//!    issuing it (reads-from order).
//! 2. When a session reads value `v` written by write `w`, it inherits
//!    per-key floors from `w`'s dependencies: for each dependency on key
//!    `k'` with stamp `s`, the reader's later reads of `k'` must return a
//!    stamp `>= s`.
//! 3. A session's own reads and writes also set floors (session order is
//!    part of causal order).
//!
//! Full transitive closure is not computed (dependencies-of-dependencies
//! beyond one reads-from hop are not chased); this catches the canonical
//! two-session anomalies the tutorial teaches while staying linear-ish in
//! trace size. The limitation is documented in DESIGN.md.

use serde::{Deserialize, Serialize};
use simnet::{OpKind, OpTrace};
use std::collections::BTreeMap;

/// Result of the causal check.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CausalReport {
    /// Dependency-floor checks performed.
    pub checked: u64,
    /// Reads that missed a causal dependency.
    pub violations: u64,
}

impl CausalReport {
    /// True if no anomaly was found.
    pub fn clean(&self) -> bool {
        self.violations == 0
    }
}

/// One write's identity and dependency set.
#[derive(Debug, Clone)]
struct WriteInfo {
    /// Per-key floors this write causally requires: key -> stamp.
    deps: BTreeMap<u64, (u64, u64)>,
    /// The write's own key and stamp (itself a dependency for observers).
    key: u64,
    stamp: (u64, u64),
}

/// Check the one-hop causal rule over a trace.
pub fn check_causal(trace: &OpTrace) -> CausalReport {
    // Pass 1: build each write's dependency set from its session's prior
    // activity (program order + reads-from).
    let mut write_info: BTreeMap<u64, WriteInfo> = BTreeMap::new(); // value -> info
    for session in trace.sessions() {
        let mut ops: Vec<_> = trace.session(session).filter(|r| r.ok).collect();
        ops.sort_by_key(|r| r.op_id);
        // Floors accumulated by this session so far (its causal past).
        let mut past: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        for op in ops {
            match op.kind {
                OpKind::Read => {
                    if let (Some(s), false) = (op.stamp, op.value_read.is_empty()) {
                        let f = past.entry(op.key).or_insert(s);
                        *f = (*f).max(s);
                    }
                }
                OpKind::Write => {
                    let (Some(stamp), Some(value)) = (op.stamp, op.value_written) else {
                        continue;
                    };
                    write_info.insert(value, WriteInfo { deps: past.clone(), key: op.key, stamp });
                    let f = past.entry(op.key).or_insert(stamp);
                    *f = (*f).max(stamp);
                }
            }
        }
    }

    // Pass 2: replay each session's reads, inheriting floors from the
    // writes it observes, and checking later reads against them.
    let mut report = CausalReport::default();
    for session in trace.sessions() {
        let mut ops: Vec<_> = trace.session(session).filter(|r| r.ok).collect();
        ops.sort_by_key(|r| r.op_id);
        let mut floors: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        for op in ops {
            match op.kind {
                OpKind::Read => {
                    // Check against inherited floors.
                    if let Some(&floor) = floors.get(&op.key) {
                        report.checked += 1;
                        if op.stamp.map(|s| s < floor).unwrap_or(true) {
                            report.violations += 1;
                        }
                    }
                    // My own reads are part of my causal past (monotonic
                    // reads is a sub-relation of causal order).
                    if let (Some(s), false) = (op.stamp, op.value_read.is_empty()) {
                        let f = floors.entry(op.key).or_insert(s);
                        *f = (*f).max(s);
                    }
                    // Inherit: the observed write's deps become my floors.
                    for v in &op.value_read {
                        if let Some(info) = write_info.get(v) {
                            for (&k, &s) in &info.deps {
                                let f = floors.entry(k).or_insert(s);
                                *f = (*f).max(s);
                            }
                            let f = floors.entry(info.key).or_insert(info.stamp);
                            *f = (*f).max(info.stamp);
                        }
                    }
                }
                OpKind::Write => {
                    if let Some(s) = op.stamp {
                        let f = floors.entry(op.key).or_insert(s);
                        *f = (*f).max(s);
                    }
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{NodeId, OpRecord, SimTime};

    fn rec(
        session: u64,
        op_id: u64,
        key: u64,
        kind: OpKind,
        stamp: (u64, u64),
        value: u64,
        ok: bool,
    ) -> OpRecord {
        OpRecord {
            session,
            op_id,
            key,
            kind,
            value_written: (kind == OpKind::Write).then_some(value),
            value_read: if kind == OpKind::Read && value != 0 { vec![value] } else { vec![] },
            invoked: SimTime::from_millis(op_id * 10),
            completed: SimTime::from_millis(op_id * 10 + 5),
            replica: NodeId(0),
            ok,
            version_ts: None,
            stamp: Some(stamp),
        }
    }

    /// The photo-ACL anomaly: Alice writes acl (k1) then photo (k2); Bob
    /// reads the photo but then sees the *old* acl.
    #[test]
    fn photo_acl_anomaly_detected() {
        let mut t = OpTrace::new();
        // Pre-existing acl version with stamp (1,0), value 100.
        t.push(rec(0, 1, 1, OpKind::Write, (1, 0), 100, true));
        // Alice: new acl (stamp 5), then photo (stamp 6).
        t.push(rec(1, 1, 1, OpKind::Write, (5, 0), 101, true));
        t.push(rec(1, 2, 2, OpKind::Write, (6, 0), 102, true));
        // Bob: reads photo 102, then reads OLD acl 100 (stamp 1 < 5).
        t.push(rec(2, 1, 2, OpKind::Read, (6, 0), 102, true));
        t.push(rec(2, 2, 1, OpKind::Read, (1, 0), 100, true));
        let r = check_causal(&t);
        assert_eq!(r.violations, 1);
        assert!(!r.clean());
    }

    #[test]
    fn causally_closed_reads_are_clean() {
        let mut t = OpTrace::new();
        t.push(rec(1, 1, 1, OpKind::Write, (5, 0), 101, true));
        t.push(rec(1, 2, 2, OpKind::Write, (6, 0), 102, true));
        // Bob reads the photo, then the NEW acl.
        t.push(rec(2, 1, 2, OpKind::Read, (6, 0), 102, true));
        t.push(rec(2, 2, 1, OpKind::Read, (5, 0), 101, true));
        let r = check_causal(&t);
        assert_eq!(r.checked, 1);
        assert!(r.clean());
    }

    #[test]
    fn reads_from_dependency_chains_through_reader() {
        // Alice reads Carol's write to k3, then writes k2. Bob reads
        // Alice's k2 write, then reads an old k3: violation (one hop
        // through Alice's read).
        let mut t = OpTrace::new();
        t.push(rec(0, 1, 3, OpKind::Write, (1, 0), 300, true)); // old k3
        t.push(rec(3, 1, 3, OpKind::Write, (7, 0), 301, true)); // Carol's k3
        t.push(rec(1, 1, 3, OpKind::Read, (7, 0), 301, true)); // Alice reads it
        t.push(rec(1, 2, 2, OpKind::Write, (8, 0), 102, true)); // Alice writes k2
        t.push(rec(2, 1, 2, OpKind::Read, (8, 0), 102, true)); // Bob reads k2
        t.push(rec(2, 2, 3, OpKind::Read, (1, 0), 300, true)); // Bob sees old k3!
        let r = check_causal(&t);
        assert_eq!(r.violations, 1);
    }

    #[test]
    fn unobserved_writes_impose_no_floors() {
        let mut t = OpTrace::new();
        t.push(rec(1, 1, 1, OpKind::Write, (5, 0), 101, true));
        // Bob never reads anything of Alice's: reading an old k1 is merely
        // stale, not causally anomalous.
        t.push(rec(0, 1, 1, OpKind::Write, (1, 0), 100, true));
        t.push(rec(2, 1, 1, OpKind::Read, (1, 0), 100, true));
        let r = check_causal(&t);
        assert_eq!(r.checked, 0);
        assert!(r.clean());
    }

    #[test]
    fn own_session_floors_apply() {
        // A session reading its own key backwards is also causally wrong
        // (session order ⊆ causal order).
        let mut t = OpTrace::new();
        t.push(rec(0, 1, 1, OpKind::Write, (1, 0), 100, true));
        t.push(rec(1, 1, 1, OpKind::Read, (5, 0), 101, true));
        t.push(rec(1, 2, 1, OpKind::Read, (1, 0), 100, true));
        let r = check_causal(&t);
        assert_eq!(r.violations, 1);
    }

    #[test]
    fn failed_ops_ignored() {
        let mut t = OpTrace::new();
        t.push(rec(1, 1, 1, OpKind::Write, (5, 0), 101, false));
        t.push(rec(2, 1, 1, OpKind::Read, (1, 0), 100, true));
        let r = check_causal(&t);
        assert_eq!(r.checked, 0);
    }
}
