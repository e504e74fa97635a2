//! E7 (Table): delivered utility of consistency SLAs (Pileus).
//!
//! A two-region deployment: the primary far away (~110 ms RTT), a local
//! backup (~4 ms RTT) that lags by a replication window. A read stream is
//! served under three portfolios (password / shopping-cart / web-app) and
//! two fixed baselines (always-primary, always-local). Expected shape:
//! the SLA-driven chooser dominates both baselines on every portfolio —
//! it goes local when the lag permits and pays the WAN only when
//! consistency demands it — reproducing Pileus's headline result.

use bench::{seed_stat, Obs};
use rec_core::Grid;
use serde::Serialize;
use simnet::{Duration, NodeId, SimRng, SimTime};
use sla::{choose, delivered_utility, Consistency, Monitor, SessionState, Sla};

#[derive(Serialize)]
struct Row {
    portfolio: String,
    strategy: String,
    mean_utility: f64,
    mean_utility_ci95: f64,
    primary_fraction: f64,
    mean_latency_ms: f64,
    seeds: u64,
}

/// Per-seed measurement (one grid cell).
struct Cell {
    mean_utility: f64,
    primary_fraction: f64,
    mean_latency_ms: f64,
}

struct World {
    rng: SimRng,
    /// Primary RTT distribution (log-normal median ms, sigma).
    primary_rtt: (f64, f64),
    /// Local backup RTT distribution.
    local_rtt: (f64, f64),
    /// Replication lag: local high_ts trails now by up to this many ms.
    lag_ms: f64,
}

impl World {
    fn sample_rtt(&mut self, replica: NodeId) -> Duration {
        let (median, sigma) = if replica == NodeId(0) { self.primary_rtt } else { self.local_rtt };
        Duration::from_millis_f64(self.rng.log_normal(median, sigma))
    }

    fn local_lag(&mut self) -> Duration {
        Duration::from_millis_f64(self.rng.unit() * self.lag_ms)
    }
}

/// Simulate `n_reads` reads under a strategy; returns one cell.
fn run(sla: &Sla, fixed: Option<NodeId>, seed: u64) -> Cell {
    let mut world = World {
        rng: SimRng::new(seed),
        primary_rtt: (55.0, 0.2), // one-way ~55ms => ~110ms RTT
        local_rtt: (2.0, 0.3),
        lag_ms: 150.0,
    };
    let mut monitor = Monitor::new(2, NodeId(0));
    let mut session = SessionState::default();
    // The local replica's applied high-timestamp: monotone, trailing `now`
    // by a sawtooth lag (log shipping applies in batches).
    let mut local_high = SimTime::ZERO;
    let n_reads = 2_000u64;
    let mut total_utility = 0.0;
    let mut primary_hits = 0u64;
    let mut total_latency = 0.0;
    // Writes happen continuously: the session writes every ~20 reads.
    for i in 0..n_reads {
        let now = SimTime::from_millis(100 + i * 10);
        // Refresh the monitor's view of replica lag (Pileus piggybacks
        // high timestamps on every response; we refresh each round).
        let lag = world.local_lag();
        local_high =
            local_high.max(SimTime::from_micros(now.as_micros().saturating_sub(lag.as_micros())));
        // Pileus monitors piggyback on background traffic: both replicas
        // get an RTT observation each round, not just the chosen one.
        let probe0 = world.sample_rtt(NodeId(0));
        let probe1 = world.sample_rtt(NodeId(1));
        monitor.observe(NodeId(0), probe0, now);
        monitor.observe(NodeId(1), probe1, local_high);

        if i % 20 == 10 {
            session.last_write_ts = Some(now);
        }

        let target = match fixed {
            Some(t) => t,
            None => choose(&monitor, sla, &session, now).replica,
        };
        let rtt = world.sample_rtt(target);
        monitor.observe(target, rtt, if target == NodeId(0) { now } else { local_high });
        if target == NodeId(0) {
            primary_hits += 1;
        }
        total_latency += rtt.as_millis_f64();

        // Score what was achieved.
        let served_high = if target == NodeId(0) { now } else { local_high };
        let achieved = |c: Consistency| -> bool {
            match c {
                Consistency::Strong => target == NodeId(0),
                Consistency::ReadMyWrites => {
                    session.last_write_ts.map(|w| served_high >= w).unwrap_or(true)
                }
                Consistency::MonotonicReads => {
                    session.last_read_ts.map(|r| served_high >= r).unwrap_or(true)
                }
                Consistency::Bounded(b) => {
                    served_high.as_micros() + b.as_micros() >= now.as_micros()
                }
                Consistency::Eventual => true,
            }
        };
        total_utility += delivered_utility(sla, rtt, &achieved);
        session.last_read_ts =
            Some(session.last_read_ts.map_or(served_high, |p| p.max(served_high)));
    }
    Cell {
        mean_utility: total_utility / n_reads as f64,
        primary_fraction: primary_hits as f64 / n_reads as f64,
        mean_latency_ms: total_latency / n_reads as f64,
    }
}

fn main() {
    // E7 is analytic (no discrete-event simulation): a cell takes only
    // its seed from the grid, so the recorder only standardizes the
    // results-file shape and its counters stay zero. The grid still
    // parallelizes (portfolio, strategy, seed) cells.
    let (obs, rest) = Obs::from_args();
    bench::reject_args(&rest, Obs::USAGE);
    let portfolios: Vec<(&str, Sla)> = vec![
        ("password", Sla::password()),
        ("shopping-cart", Sla::shopping_cart()),
        ("web-app", Sla::web_app()),
    ];
    let strategies: [(&str, Option<NodeId>); 3] = [
        ("sla-driven", None),
        ("always-primary", Some(NodeId(0))),
        ("always-local", Some(NodeId(1))),
    ];
    let mut grid = Grid::new();
    for (portfolio, sla) in &portfolios {
        for &(strategy, fixed) in &strategies {
            grid.add(*portfolio, 31, (strategy, sla, fixed));
        }
    }
    let cells =
        obs.run_grid(grid, |&(strategy, sla, fixed), cell| (strategy, run(sla, fixed, cell.seed)));

    let mut rows = Vec::new();
    for seeds in cells.chunks(obs.seeds as usize) {
        let cells: Vec<&Cell> = seeds.iter().map(|c| &c.result.1).collect();
        let util = seed_stat(&cells.iter().map(|c| c.mean_utility).collect::<Vec<_>>());
        rows.push(Row {
            portfolio: seeds[0].label.clone(),
            strategy: seeds[0].result.0.to_string(),
            mean_utility: util.mean,
            mean_utility_ci95: util.ci95,
            primary_fraction: seed_stat(
                &cells.iter().map(|c| c.primary_fraction).collect::<Vec<_>>(),
            )
            .mean,
            mean_latency_ms: seed_stat(
                &cells.iter().map(|c| c.mean_latency_ms).collect::<Vec<_>>(),
            )
            .mean,
            seeds: obs.seeds,
        });
    }
    obs.save("e7_sla_utility", &rows);
}
