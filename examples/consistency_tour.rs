//! A guided tour of the consistency spectrum: the same workload against
//! every replication scheme, with the checkers reporting what each one
//! actually delivered.
//!
//! ```sh
//! cargo run --example consistency_tour
//! ```

use rethinking_ec::consistency::{
    check_causal, check_session_guarantees, check_trace_linearizable, measure_staleness,
};
use rethinking_ec::core::metrics::latency_summary;
use rethinking_ec::core::scheme::ClientPlacement;
use rethinking_ec::core::{Experiment, Scheme};
use rethinking_ec::replication::common::Guarantees;
use rethinking_ec::replication::eventual::ConflictMode;
use rethinking_ec::simnet::{Duration, LatencyModel, SimTime};
use rethinking_ec::workload::{Arrival, KeyDistribution, OpMix, WorkloadSpec};

fn main() {
    let workload = WorkloadSpec {
        keys: 16,
        distribution: KeyDistribution::Zipfian { theta: 0.9 },
        mix: OpMix::ycsb_a(),
        arrival: Arrival::Closed { think_us: 4_000 },
        sessions: 6,
        ops_per_session: 50,
    };
    let schemes: Vec<Scheme> = vec![
        // Raw eventual consistency with roaming clients: anomalies galore.
        Scheme::Eventual {
            replicas: 3,
            eager: false,
            gossip: Some((Duration::from_millis(100), 1)),
            mode: ConflictMode::Lww,
            guarantees: Guarantees::none(),
            placement: ClientPlacement::Random,
        },
        // Same, but the client enforces all four session guarantees.
        Scheme::Eventual {
            replicas: 3,
            eager: false,
            gossip: Some((Duration::from_millis(100), 1)),
            mode: ConflictMode::Lww,
            guarantees: Guarantees::all(),
            placement: ClientPlacement::Random,
        },
        Scheme::Causal { replicas: 3 },
        Scheme::quorum(3, 1, 1),
        Scheme::quorum(3, 2, 2),
        Scheme::PrimaryAsync { replicas: 3, ship_interval: Duration::from_millis(100) },
        Scheme::PrimarySync { replicas: 3 },
        Scheme::Paxos { nodes: 3 },
    ];

    println!(
        "{:<34} {:>9} {:>9} {:>8} {:>8} {:>7} {:>6}",
        "scheme", "read p50", "write p50", "P(stale)", "RYW+MR", "causal", "lin?"
    );
    for (i, scheme) in schemes.into_iter().enumerate() {
        let mut label = scheme.label();
        if i == 1 {
            label.push_str("+sess");
        }
        let res = Experiment::new(scheme)
            .workload(workload.clone())
            .latency(LatencyModel::Uniform {
                min: Duration::from_millis(1),
                max: Duration::from_millis(10),
            })
            .seed(1)
            .horizon(SimTime::from_secs(300))
            .run();
        let lat = latency_summary(&res.trace);
        let stale = measure_staleness(&res.trace);
        let sess = check_session_guarantees(&res.trace);
        let causal = check_causal(&res.trace);
        let lin = if check_trace_linearizable(&res.trace).is_ok() { "yes" } else { "NO" };
        println!(
            "{:<34} {:>8.1}m {:>8.1}m {:>7.1}% {:>8} {:>7} {:>6}",
            label,
            lat.reads.p50,
            lat.writes.p50,
            stale.p_stale() * 100.0,
            sess.ryw_violations + sess.mr_violations,
            causal.violations,
            lin,
        );
    }
    println!(
        "\nReading the table: anomalies shrink as you walk down the spectrum,\n\
         and latency pays for it — the tutorial's whole argument in one run."
    );
}
