//! Deployment builder and experiment runner.
//!
//! [`Experiment::run`] reduces the scheme to its kernel
//! [`Composition`](replication::kernel::Composition)
//! ([`Scheme::normalize`]) and deploys *that*: replicas and clients
//! are constructed from the composition itself, so named presets,
//! explicit [`Scheme::Composed`] schemes and ring-sharded clusters share
//! one deployment path — which is what makes preset-vs-composed byte
//! parity structural rather than coincidental.

use crate::probe::DivergenceProbe;
use crate::scheme::{ClientPlacement, Scheme};
use obs::{MetricsReport, Recorder, TsMetric, DEFAULT_TS_BUCKET_US};
use replication::causal::{CausalClient, CausalReplica};
use replication::common::{expand_script, Guarantees, ScriptOp, TargetPolicy};
use replication::eventual::{EventualClient, EventualReplica};
use replication::kernel::PropagationPolicy as Prop;
use replication::paxos::{PaxosClient, PaxosNode};
use replication::primary::{PrimaryClient, PrimaryReplica};
use replication::quorum::{QuorumClient, QuorumNode};
use replication::sharded::{check_membership, initial_ring};
use simnet::{
    optrace, Actor, FaultSchedule, LatencyModel, MsgMeta, NodeId, OpTrace, SharedTrace, Sim,
    SimConfig, SimRng, SimTime,
};
use workload::WorkloadSpec;

/// A complete experiment description.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// The replication scheme under test.
    pub scheme: Scheme,
    /// Network model.
    pub latency: LatencyModel,
    /// Scripted faults.
    pub faults: FaultSchedule,
    /// Seed (the run is a pure function of this struct).
    pub seed: u64,
    /// The workload.
    pub workload: WorkloadSpec,
    /// Virtual-time budget for the run.
    pub horizon: SimTime,
    /// Observability sink threaded into the simulator and protocols
    /// (disabled by default; see [`obs::Recorder`]).
    pub recorder: Recorder,
    /// First trace/span id offset for this run (see
    /// [`simnet::SimConfig::trace_base`]); a grid gives each cell a
    /// disjoint range so concatenated trace files keep unique ids.
    pub trace_base: u64,
    /// Enable the in-sim handler profiler for this run (see
    /// `docs/PROFILING.md`). Turns profiling on in the attached
    /// recorder and labels its samples with the scheme under test.
    pub profile: bool,
}

/// What a run produced.
#[derive(Debug)]
pub struct RunResult {
    /// Every client operation, in completion order.
    pub trace: OpTrace,
    /// Messages delivered by the network.
    pub delivered_messages: u64,
    /// Messages dropped (partition, loss, crash).
    pub dropped_messages: u64,
    /// Virtual time when the run ended.
    pub ended_at: SimTime,
    /// Total simulator events processed (messages, timers, faults) —
    /// the denominator benchmarks use for events/sec.
    pub events: u64,
    /// Aggregated counters and latency summaries from the run's
    /// recorder (all zeros when no recorder was attached).
    pub metrics: MetricsReport,
    /// Final `(node, key, version)` triples from every server store at
    /// the horizon (see [`simnet::Actor::key_versions`]) — what
    /// ownership-aware convergence checks consume.
    pub final_versions: Vec<(NodeId, u64, u64)>,
}

impl Experiment {
    /// An experiment with default network (LAN), no faults, seed 0, and
    /// the small workload.
    pub fn new(scheme: Scheme) -> Self {
        Experiment {
            scheme,
            latency: LatencyModel::lan(),
            faults: FaultSchedule::none(),
            seed: 0,
            workload: WorkloadSpec::small(),
            horizon: SimTime::from_secs(60),
            recorder: Recorder::disabled(),
            trace_base: 0,
            profile: false,
        }
    }

    /// Set the workload.
    pub fn workload(mut self, w: WorkloadSpec) -> Self {
        self.workload = w;
        self
    }

    /// Set the latency model.
    pub fn latency(mut self, l: LatencyModel) -> Self {
        self.latency = l;
        self
    }

    /// Set the fault schedule.
    pub fn faults(mut self, f: FaultSchedule) -> Self {
        self.faults = f;
        self
    }

    /// Set the seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Set the virtual-time horizon.
    pub fn horizon(mut self, h: SimTime) -> Self {
        self.horizon = h;
        self
    }

    /// Attach an observability recorder. The same handle can be kept by
    /// the caller to export the event log after the run.
    pub fn recorder(mut self, r: Recorder) -> Self {
        self.recorder = r;
        self
    }

    /// Offset this run's trace/span id allocation (see
    /// [`simnet::SimConfig::trace_base`]).
    pub fn trace_base(mut self, base: u64) -> Self {
        self.trace_base = base;
        self
    }

    /// Enable per-handler profiling for this run (see
    /// `docs/PROFILING.md`).
    pub fn profile(mut self, on: bool) -> Self {
        self.profile = on;
        self
    }

    /// Generate the per-session scripts (deterministic in the seed).
    fn scripts(&self) -> Vec<Vec<ScriptOp>> {
        let root = SimRng::new(self.seed ^ 0x5eed_f00d);
        (0..self.workload.sessions)
            .map(|i| {
                let mut rng = root.fork(i as u64 + 1);
                expand_script(&self.workload.session_script(&mut rng))
            })
            .collect()
    }

    /// Why the fault schedule cannot run on this deployment (its servers
    /// plus one client per session), if it cannot — see
    /// [`FaultSchedule::validate`]. [`Experiment::run`] panics with the
    /// same words; a harness replaying a file somebody else wrote asks
    /// first.
    pub fn check_faults(&self) -> Result<(), String> {
        self.faults.validate(self.scheme.server_node_count() + self.workload.sessions as usize)
    }

    /// Run the experiment to its horizon and collect the trace.
    pub fn run(&self) -> RunResult {
        self.run_inner(optrace::shared_trace(), None)
    }

    /// Run the experiment with a live monitor: at every time-series
    /// bucket boundary the operations newly completed since the last
    /// boundary are handed to `monitor` in `(completed, session,
    /// op_id)` order — the exact feed order the streaming checkers
    /// ([`consistency::stream`]) require — together with the current
    /// virtual time (a watermark: every future op completes at or after
    /// it). Monitoring slices the run exactly like an attached recorder
    /// does, and slicing is event-for-event identical to an unsliced
    /// run, so the trace and verdicts are unchanged by observation.
    pub fn run_monitored(
        &self,
        monitor: &mut dyn FnMut(&[simnet::OpRecord], SimTime),
    ) -> RunResult {
        let trace = optrace::shared_trace();
        let hook_trace = trace.clone();
        let mut fed = 0usize;
        let mut hook = |now: SimTime| {
            let slice = {
                let tr = hook_trace.borrow();
                let mut slice = tr.records()[fed..].to_vec();
                fed = tr.len();
                // Records are pushed at completion time, so the slice is
                // already nearly sorted; the explicit key also fixes the
                // order of same-instant completions.
                slice.sort_by_key(|r| (r.completed, r.session, r.op_id));
                slice
            };
            monitor(&slice, now);
        };
        self.run_inner(trace, Some(&mut hook))
    }

    fn run_inner(&self, trace: SharedTrace, monitor: Option<&mut dyn FnMut(SimTime)>) -> RunResult {
        if self.profile {
            // Must happen before `Sim::new` caches the recorder's
            // profiling flag; the scheme label keys every sample.
            self.recorder.enable_profiling();
            self.recorder.set_profile_scheme(&self.scheme.label());
        }
        let mut faults = self.faults.clone();
        if let Scheme::Sharded { churn, nodes, .. } = &self.scheme {
            // Churn rides the compiled fault pipeline, so membership
            // events interleave deterministically with partitions and
            // crashes (identical across `--jobs`).
            for &(at, node, join) in &churn.events {
                faults = faults.membership(at, node, join);
            }
            check_membership(*nodes, faults.membership_events());
        }
        if let Err(e) = self.check_faults() {
            panic!("fault schedule: {e}");
        }
        let launch = Launch {
            cfg: SimConfig::default()
                .seed(self.seed)
                .latency(self.latency.clone())
                .faults(faults)
                .recorder(self.recorder.clone())
                .trace_base(self.trace_base),
            servers: self.scheme.server_node_count(),
            scripts: self.scripts(),
            horizon: self.horizon,
            monitor,
        };
        let (delivered, dropped, events, ended, final_versions) =
            deploy(&self.scheme, &trace, launch);

        // The simulation and its clients are gone; nothing pushes to the
        // shared trace any more (a monitor hook only ever read it).
        let mut trace = std::mem::take(&mut *trace.borrow_mut());
        trace.sort_by_completion();
        RunResult {
            trace,
            delivered_messages: delivered,
            dropped_messages: dropped,
            ended_at: ended,
            events,
            metrics: self.recorder.report(),
            final_versions,
        }
    }
}

/// What [`drive`] hands back from a finished simulation: delivered and
/// dropped message counts, total events, the final virtual time, and
/// every replica's `(node, key, version)` store contents.
type DriveOutcome = (u64, u64, u64, SimTime, Vec<(NodeId, u64, u64)>);

/// Everything a deployment needs besides its actors.
struct Launch<'a> {
    cfg: SimConfig,
    servers: usize,
    scripts: Vec<Vec<ScriptOp>>,
    horizon: SimTime,
    monitor: Option<&'a mut dyn FnMut(SimTime)>,
}

impl Launch<'_> {
    /// Add the replicas, then one client per script (`client(i, session,
    /// script)`), and drive the simulation to the horizon.
    fn run<M: MsgMeta, R: Actor<M> + 'static, C: Actor<M> + 'static>(
        self,
        replica: impl Fn() -> R,
        client: impl Fn(usize, u64, Vec<ScriptOp>) -> C,
    ) -> DriveOutcome {
        let mut sim = Sim::new(self.cfg);
        for _ in 0..self.servers {
            sim.add_node(Box::new(replica()));
        }
        for (i, script) in self.scripts.into_iter().enumerate() {
            sim.add_node(Box::new(client(i, i as u64 + 1, script)));
        }
        drive(sim, self.horizon, self.monitor)
    }
}

/// Materialize `scheme` — its kernel composition, on a
/// consistent-hashing ring for [`Scheme::Sharded`] — into a concrete
/// actor deployment and drive it. This is the single deployment path
/// every [`Scheme`] goes through: one arm per propagation policy (which
/// implies the update site, `Composition::update`), naming the replica
/// and the client built from the composition.
///
/// Guarantees apply only to multi-master eventual compositions (other
/// protocols enforce theirs server-side); placement applies where the
/// protocol has a per-client replica choice (causal and primary clients
/// are always sticky, Paxos clients always talk to the leader's group).
/// On a ring every node coordinates (Dynamo-style, per-key preference
/// lists from the ring) and client `i` sticks to node `i % nodes`.
fn deploy(scheme: &Scheme, trace: &SharedTrace, launch: Launch) -> DriveOutcome {
    let (comp, guarantees, placement, ring) = match scheme {
        Scheme::Sharded { inner, nodes, vnodes, .. } => (
            inner.clone(),
            Guarantees::none(),
            ClientPlacement::Sticky,
            Some(initial_ring(inner, *nodes, *vnodes)),
        ),
        _ => {
            let (comp, guarantees, placement) = scheme.normalize();
            (comp, guarantees, placement, None)
        }
    };
    let (comp, n) = (&comp, comp.replicas);
    // The nodes a session may address: the home replicas, or every node
    // of a ring (never the dedicated spares of a flat sloppy quorum).
    let addressable = ring.as_ref().map_or(n, |_| launch.servers);
    let home = |i: usize| NodeId((i % addressable) as u32);
    let sticky = |i: usize| TargetPolicy::Sticky(home(i));
    let placed = |i: usize| match placement {
        ClientPlacement::Sticky => sticky(i),
        ClientPlacement::Random => TargetPolicy::Random,
    };
    let t = || trace.clone();
    match (&comp.propagation, &ring) {
        (Prop::EagerBroadcast { .. } | Prop::AntiEntropyGossip(_), None) => launch.run(
            || EventualReplica::new(comp),
            |i, s, script| EventualClient::new(s, script, t(), comp, placed(i), guarantees),
        ),
        (Prop::QuorumFanout { .. }, _) => launch.run(
            || QuorumNode::new(comp, ring.clone()),
            |i, s, script| QuorumClient::new(s, script, t(), addressable, placed(i)),
        ),
        (Prop::PrimaryShip { .. }, None) => launch.run(
            || PrimaryReplica::new(comp),
            |i, s, script| PrimaryClient::new(s, script, t(), comp, sticky(i)),
        ),
        (Prop::ConsensusLog, None) => {
            launch.run(|| PaxosNode::new(n), |_, s, script| PaxosClient::new(s, script, t(), n))
        }
        (Prop::CausalBroadcast, None) => launch.run(
            || CausalReplica::new(n),
            |i, s, script| CausalClient::new(s, script, t(), home(i)),
        ),
        _ => panic!(
            "{}: the kernel has no materialization for this propagation policy on a ring \
             (ring sharding runs coordinator/quorum compositions only)",
            scheme.label()
        ),
    }
}

/// Run the simulation to its horizon. With a recorder attached or a
/// monitor installed, the run is sliced into probe windows (one per
/// time-series bucket, so probe samples and client-side staleness
/// samples share bucket boundaries): at each boundary the driver samples
/// the in-flight message depth and per-key replica divergence (distinct
/// versions across nodes, kept up to date by a [`DivergenceProbe`] from
/// the keys each store changed), and hands the boundary time to the
/// monitor. A probe drains telemetry-only dirty sets; it never
/// schedules, reorders or drops an event, so a sliced run is
/// event-for-event identical to an unsliced one.
fn drive<M: simnet::MsgMeta>(
    mut sim: Sim<M>,
    horizon: SimTime,
    mut monitor: Option<&mut dyn FnMut(SimTime)>,
) -> DriveOutcome {
    let probing = sim.recorder().is_enabled();
    if !probing && monitor.is_none() {
        let events = sim.run_until(horizon);
        let versions = sim.key_versions();
        return (sim.delivered_messages, sim.dropped_messages, events, sim.now(), versions);
    }
    let horizon_us = horizon.as_micros();
    let mut probe = DivergenceProbe::new();
    let mut t = 0u64;
    let mut events = 0u64;
    while t < horizon_us {
        t = (t + DEFAULT_TS_BUCKET_US).min(horizon_us);
        events += sim.run_until(SimTime::from_micros(t));
        if probing {
            sim.recorder().sample(t, TsMetric::InflightDepth, sim.inflight_messages());
            probe.sample(&mut sim, t);
            #[cfg(test)]
            tests::audit_probe(&sim, &probe);
        }
        if let Some(m) = monitor.as_deref_mut() {
            m(SimTime::from_micros(t));
        }
    }
    let versions = sim.key_versions();
    (sim.delivered_messages, sim.dropped_messages, events, sim.now(), versions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use consistency::{check_session_guarantees, check_trace_linearizable};
    use replication::kernel::Composition;
    use simnet::Duration;
    use simnet::OpKind;
    use workload::{Arrival, KeyDistribution, OpMix};

    /// What [`audit_probe`] saw on this thread since the last reset.
    #[derive(Debug, Clone, Copy, Default)]
    struct ProbeAudit {
        /// Probe instants checked against the full scan.
        instants: u64,
        /// Instants at which some key had more than one version.
        diverged: u64,
        /// Instants at which the stores held fewer `(node, key)` entries
        /// than the instant before (a store lost keys: volatile amnesia).
        shrunk: u64,
        entries: usize,
        /// Change reports the current run's probe has folded.
        touched: u64,
    }

    thread_local! {
        static AUDIT: std::cell::Cell<ProbeAudit> = std::cell::Cell::new(ProbeAudit::default());
    }

    /// The probe this crate's driver used before it went incremental,
    /// kept as the oracle: scan every store of every node and count the
    /// distinct versions of each key.
    fn full_scan_fold(stored: &[(NodeId, u64, u64)]) -> (u64, u64, u64) {
        let mut per_key: std::collections::BTreeMap<u64, std::collections::BTreeSet<u64>> =
            std::collections::BTreeMap::new();
        for &(_, key, version) in stored {
            per_key.entry(key).or_default().insert(version);
        }
        let distinct = per_key.values().map(|versions| versions.len() as u64);
        (per_key.len() as u64, distinct.clone().sum(), distinct.max().unwrap_or(0))
    }

    /// Called by [`drive`] after every probe instant in this crate's
    /// unit tests: the incremental probe must hold exactly what the
    /// stores hold and fold it as the full scan does, whatever the
    /// scheme and the faults.
    pub(super) fn audit_probe<M>(sim: &Sim<M>, probe: &DivergenceProbe) {
        let stored = sim.key_versions();
        assert_eq!(
            probe.mirrored(),
            stored,
            "the probe's picture of the stores != their contents at {:?}",
            sim.now()
        );
        let expected = full_scan_fold(&stored);
        assert_eq!(
            probe.fold(),
            expected,
            "incremental divergence probe != full scan (count, sum, max) at {:?}",
            sim.now()
        );
        let mut audit = AUDIT.get();
        audit.instants += 1;
        audit.diverged += (expected.2 > 1) as u64;
        audit.shrunk += (stored.len() < audit.entries) as u64;
        audit.entries = stored.len();
        audit.touched = probe.touched();
        AUDIT.set(audit);
    }

    /// Every scheme family, a sharded ring under churn and a scheme with
    /// volatile state, with one replica crashing into amnesia and
    /// another partitioned off: at each of the run's 200 bucket
    /// boundaries [`audit_probe`] holds the incremental probe against a
    /// scan of every store.
    #[test]
    fn incremental_probe_matches_a_full_scan_at_every_bucket() {
        use crate::fuzz::FuzzScheme;
        use crate::scheme::ChurnPlan;
        let workload = WorkloadSpec {
            keys: 8,
            distribution: KeyDistribution::Zipfian { theta: 0.9 },
            mix: OpMix::ycsb_a(),
            arrival: Arrival::Closed { think_us: 5_000 },
            sessions: 3,
            ops_per_session: 25,
        };
        // The restart lands a millisecond (less than a message round
        // trip) before a bucket boundary, so the probe sees the store a
        // volatile scheme lost before anti-entropy refills it.
        let nemesis = FaultSchedule::none()
            .crash_amnesia(NodeId(1), SimTime::from_millis(800), SimTime::from_millis(1_399))
            .partition(vec![NodeId(0)], SimTime::from_secs(3), SimTime::from_secs(5));
        let ring = Scheme::Sharded {
            inner: Composition::quorum(3, 2, 2, true, 2),
            nodes: 8,
            vnodes: 8,
            churn: ChurnPlan::rolling(8, Duration::from_secs(2), 3, SimTime::from_secs(1)),
        };
        // Every fuzz family keeps its store across amnesia (WAL, fsync or
        // a replayed log); sibling-mode eventual state is volatile, so
        // this one also reports keys as gone.
        let volatile = Scheme::Eventual {
            replicas: 3,
            eager: true,
            gossip: Some((Duration::from_millis(50), 1)),
            mode: replication::kernel::ConflictMode::Siblings,
            guarantees: Guarantees::none(),
            placement: ClientPlacement::Sticky,
        };
        let schemes = FuzzScheme::ALL.iter().map(|fs| fs.to_scheme()).chain([ring, volatile]);
        let (mut diverged, mut shrunk) = (0, 0);
        for scheme in schemes {
            for seed in [11u64, 42] {
                AUDIT.set(ProbeAudit::default());
                let label = scheme.label();
                Experiment::new(scheme.clone())
                    .workload(workload.clone())
                    .latency(LatencyModel::Uniform {
                        min: Duration::from_millis(1),
                        max: Duration::from_millis(8),
                    })
                    .faults(nemesis.clone())
                    .seed(seed)
                    .horizon(SimTime::from_secs(20))
                    .recorder(Recorder::enabled())
                    .run();
                let audit = AUDIT.get();
                assert_eq!(audit.instants, 200, "{label} seed {seed}: every bucket is audited");
                assert!(audit.entries > 0, "{label} seed {seed}: nothing was stored");
                diverged += audit.diverged;
                shrunk += audit.shrunk;
            }
        }
        // Otherwise the audit only ever compared converged stores, or
        // never saw a store lose its keys.
        assert!(diverged > 0, "no bucket ever saw a diverged key");
        assert!(shrunk > 0, "no amnesia restart ever dropped keys from the probe");
    }

    /// Complexity guard, by count: a ten times longer session must not
    /// make a staleness sample or a probe instant dearer. A sample walks
    /// the versions the read missed (its output) and, beyond those,
    /// examines the logarithm of the key's writes (one more
    /// binary-search step per doubling); a scan of the history examines
    /// ten times as much. Probe reports per instant follow the writes of
    /// the instant; a scan of the stores reports every stored key.
    #[test]
    fn telemetry_cost_does_not_grow_with_session_length() {
        const SESSIONS: u32 = 4;
        let run = |ops_per_session: u32| {
            AUDIT.set(ProbeAudit::default());
            let result = Experiment::new(Scheme::quorum(3, 2, 2))
                .workload(WorkloadSpec {
                    keys: 1_024,
                    distribution: KeyDistribution::zipfian_default(),
                    mix: OpMix::ycsb_a(),
                    arrival: Arrival::Closed { think_us: 2_000 },
                    sessions: SESSIONS,
                    ops_per_session,
                })
                .seed(12)
                // No fixed idle tail: both runs are busy for the same
                // share of their instants.
                .horizon(SimTime::from_millis(ops_per_session as u64 * 4))
                .recorder(Recorder::enabled())
                .run();
            assert_eq!(result.trace.len() as u32, SESSIONS * ops_per_session);
            let ok = |kind| result.trace.records().iter().filter(move |r| r.ok && r.kind == kind);
            // Entries examined beyond the missed versions the sample
            // reports (its output): the search and the stopping entry.
            let overhead: u64 = ok(OpKind::Read)
                .map(|r| {
                    let ((missed, _), visited) =
                        result.trace.read_staleness_counted(r.key, r.invoked, &r.value_read);
                    visited - missed
                })
                .sum();
            let audit = AUDIT.get();
            (
                overhead as f64 / ok(OpKind::Read).count() as f64,
                audit.touched as f64 / audit.instants as f64,
                audit.touched,
                ok(OpKind::Write).count() as u64,
            )
        };
        let (short_visits, short_reports, ..) = run(800);
        let (long_visits, long_reports, touched, writes) = run(8_000);
        assert!(
            long_visits <= short_visits + 4.0,
            "index entries examined per read, beyond the versions it missed, grew from \
             {short_visits:.1} to {long_visits:.1}"
        );
        assert!(
            long_reports <= short_reports * 1.25,
            "change reports per probe instant grew from {short_reports:.1} to {long_reports:.1}"
        );
        assert!(
            touched <= 3 * writes,
            "{touched} change reports for {writes} writes on 3 replicas: the probe reports more \
             than what changed"
        );
    }

    fn tiny_workload() -> WorkloadSpec {
        WorkloadSpec {
            keys: 10,
            distribution: KeyDistribution::Uniform,
            mix: OpMix::ycsb_a(),
            arrival: Arrival::Closed { think_us: 5_000 },
            sessions: 3,
            ops_per_session: 20,
        }
    }

    #[test]
    fn all_schemes_complete_the_workload() {
        for scheme in [
            Scheme::eventual(3),
            Scheme::quorum(3, 2, 2),
            Scheme::PrimarySync { replicas: 3 },
            Scheme::PrimaryAsync { replicas: 3, ship_interval: Duration::from_millis(50) },
            Scheme::Paxos { nodes: 3 },
            Scheme::Causal { replicas: 3 },
        ] {
            let label = scheme.label();
            let res = Experiment::new(scheme).workload(tiny_workload()).seed(7).run();
            assert_eq!(res.trace.len(), 60, "{label}: every scripted op must be recorded");
            assert!(
                res.trace.success_rate() > 0.95,
                "{label}: fault-free run should succeed (rate {})",
                res.trace.success_rate()
            );
            assert!(res.delivered_messages > 0, "{label}: protocol exchanged messages");
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let run = |seed| {
            Experiment::new(Scheme::quorum(3, 2, 2))
                .workload(tiny_workload())
                .seed(seed)
                .run()
                .trace
        };
        let a = run(5);
        let b = run(5);
        let c = run(6);
        assert_eq!(a.records(), b.records());
        assert_ne!(a.records(), c.records());
    }

    #[test]
    fn monitored_run_is_identical_and_feeds_every_op() {
        let exp = Experiment::new(Scheme::quorum(3, 2, 2)).workload(tiny_workload()).seed(5);
        let plain = exp.run();
        let mut fed: Vec<simnet::OpRecord> = Vec::new();
        let monitored = exp.run_monitored(&mut |ops, _now| fed.extend_from_slice(ops));
        assert_eq!(plain.trace.records(), monitored.trace.records());
        // The concatenated slices are exactly the sorted trace: slices
        // partition virtual time, so cross-slice order is completion
        // order and within-slice order is enforced by the sort.
        assert_eq!(fed.as_slice(), monitored.trace.records());
    }

    #[test]
    fn online_verifier_agrees_with_the_whole_trace_fold_on_a_monitored_run() {
        use consistency::{StreamConfig, StreamVerifier, Watermark};
        let exp = Experiment::new(Scheme::eventual(3)).workload(tiny_workload()).seed(8);
        let mut verifier = StreamVerifier::new(StreamConfig::default());
        let res = exp.run_monitored(&mut |ops, now| {
            for op in ops {
                verifier.feed(op);
            }
            verifier.advance(Watermark::at(now));
        });
        let reports = verifier.finish();
        assert_eq!(reports.session, check_session_guarantees(&res.trace));
        assert_eq!(reports.staleness, consistency::measure_staleness(&res.trace));
    }

    #[test]
    fn paxos_trace_is_linearizable() {
        let res =
            Experiment::new(Scheme::Paxos { nodes: 3 }).workload(tiny_workload()).seed(11).run();
        assert!(res.trace.success_rate() > 0.95);
        check_trace_linearizable(&res.trace).expect("paxos must linearize");
    }

    #[test]
    fn sticky_eventual_clients_get_session_guarantees_for_free() {
        // A sticky client talks to one replica: RYW/MR hold trivially.
        let res = Experiment::new(Scheme::eventual(3)).workload(tiny_workload()).seed(3).run();
        let report = check_session_guarantees(&res.trace);
        assert_eq!(report.ryw_violations, 0);
        assert_eq!(report.mr_violations, 0);
    }

    #[test]
    fn primary_sync_reads_are_fresh_at_backups() {
        let res = Experiment::new(Scheme::PrimarySync { replicas: 3 })
            .workload(tiny_workload())
            .seed(9)
            .run();
        // Sync replication: no read may miss a write acked before it
        // started (modulo the one-hop window where the read overlaps the
        // write; tiny workload think times avoid that).
        let report = consistency::measure_staleness(&res.trace);
        assert_eq!(report.stale_reads, 0, "sync primary-copy must not serve stale reads");
    }

    #[test]
    fn reads_and_writes_both_present() {
        let res = Experiment::new(Scheme::eventual(2)).workload(tiny_workload()).seed(1).run();
        let reads = res.trace.records().iter().filter(|r| r.kind == OpKind::Read).count();
        let writes = res.trace.records().iter().filter(|r| r.kind == OpKind::Write).count();
        assert!(reads > 0 && writes > 0);
        assert_eq!(reads + writes, 60);
    }

    fn ring_of_eight(churn: crate::scheme::ChurnPlan) -> Experiment {
        let inner = Composition::quorum(3, 2, 2, true, 2);
        Experiment::new(Scheme::Sharded { inner, nodes: 8, vnodes: 8, churn })
            .workload(tiny_workload())
            .seed(7)
    }

    /// `NodeId(8)` of an 8-node cluster is client 0. Unchecked, it joined
    /// the ring as an owner that never answers a replica request, and
    /// sloppy quorums hid it: every op of the run still came back `ok`.
    #[test]
    #[should_panic(expected = "membership event at 100.000ms (join of node 8) does not name a \
                               server: the ring cluster has 8 nodes (ids 0..8)")]
    fn a_churn_event_cannot_join_a_client_to_the_ring() {
        let events = vec![(SimTime::from_millis(100), NodeId(8), true)];
        ring_of_eight(crate::scheme::ChurnPlan { events }).run();
    }

    /// Unchecked, the first rebalancing push to the ghost owner indexed
    /// past the simulator's actor table.
    #[test]
    #[should_panic(expected = "(join of node 5000) does not name a server")]
    fn a_fault_schedule_cannot_join_a_node_nobody_deployed() {
        let faults =
            FaultSchedule::none().membership(SimTime::from_millis(100), NodeId(5000), true);
        ring_of_eight(crate::scheme::ChurnPlan::none()).faults(faults).run();
    }
}
