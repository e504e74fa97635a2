//! Parallel experiment grids.
//!
//! Every quantitative claim in the experiment suite is estimated by
//! sweeping scheme/config variants × seeds through the simulator. Each
//! [`Experiment`] is a pure function of its struct — the whole sweep is
//! embarrassingly parallel — so a [`Grid`] runs its cells on a
//! self-scheduling worker pool and merges the results back **in
//! deterministic grid order** (variant-major, then seed). The output is
//! byte-for-byte independent of the worker count:
//!
//! * every cell gets its **own** fresh [`Recorder`], so no cell ever
//!   observes another cell's events and the hot path takes no shared
//!   lock;
//! * workers return `(cell index, result)` pairs that are re-assembled
//!   by index, so completion order is irrelevant;
//! * aggregate metrics are folded *after* the pool drains, in grid
//!   order, via [`Recorder::absorb`] (which is exact and commutative).
//!
//! The simulation itself stays strictly serial inside its cell — one
//! virtual-time event loop per worker — which is the invariant that
//! keeps per-cell traces reproducible. Parallelism lives only *between*
//! cells.
//!
//! ```
//! use obs::Recorder;
//! use rec_core::{Experiment, Grid, Scheme};
//! use workload::WorkloadSpec;
//!
//! let mut grid = Grid::new();
//! for (r, w) in [(1, 1), (2, 2)] {
//!     grid.push(
//!         format!("R{r}W{w}"),
//!         Experiment::new(Scheme::quorum(3, r, w)).workload(WorkloadSpec::small()).seed(42),
//!     );
//! }
//! let cells = grid.seeds(3).run(4, Recorder::enabled);
//! assert_eq!(cells.len(), 6); // 2 variants x 3 seeds, variant-major
//! assert_eq!(cells[0].label, "R1W1");
//! assert_eq!(cells[1].seed, 43); // seeds are base_seed + seed_index
//! ```

use crate::runner::{Experiment, RunResult};
use obs::Recorder;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Default worker count: one per available hardware thread.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// One cell of a completed grid run.
#[derive(Debug)]
pub struct CellResult {
    /// Index of the variant this cell belongs to.
    pub variant: usize,
    /// The variant's label.
    pub label: String,
    /// Index of the seed within the variant (0-based).
    pub seed_index: u64,
    /// The concrete seed the cell ran with.
    pub seed: u64,
    /// What the run produced.
    pub result: RunResult,
    /// The cell's private recorder (export per-cell traces from here).
    pub recorder: Recorder,
}

/// A cartesian product of experiment variants × seeds.
///
/// Variants are labelled base experiments; `seeds(n)` runs each variant
/// at seeds `base.seed + 0 .. base.seed + n`, so a 1-seed grid
/// reproduces the variant's original single-seed run exactly.
#[derive(Debug, Clone, Default)]
pub struct Grid {
    variants: Vec<(String, Experiment)>,
    seeds_per_variant: u64,
    profile: bool,
}

impl Grid {
    /// An empty grid (one seed per variant until [`Grid::seeds`]).
    pub fn new() -> Self {
        Grid { variants: Vec::new(), seeds_per_variant: 1, profile: false }
    }

    /// Add a variant. The experiment's own seed becomes the base seed
    /// for the variant's seed column.
    pub fn push(&mut self, label: impl Into<String>, experiment: Experiment) {
        self.variants.push((label.into(), experiment));
    }

    /// Set the number of seeds per variant (clamped to at least 1).
    pub fn seeds(mut self, n: u64) -> Self {
        self.seeds_per_variant = n.max(1);
        self
    }

    /// Enable per-handler profiling in every cell (see
    /// `docs/PROFILING.md`). Each cell profiles into its own recorder;
    /// absorbing cell recorders in grid order yields the merged profile.
    pub fn profile(mut self, on: bool) -> Self {
        self.profile = on;
        self
    }

    /// Run every cell on `jobs` workers, each with a fresh recorder from
    /// `recorder` (`Recorder::disabled`, `enabled` or `with_event_log`);
    /// results come back in deterministic grid order (variant-major,
    /// then seed index), independent of `jobs` and of worker scheduling.
    pub fn run(&self, jobs: usize, recorder: fn() -> Recorder) -> Vec<CellResult> {
        // Materialize cell descriptors in grid order.
        let cells: Vec<(usize, u64)> = (0..self.variants.len())
            .flat_map(|v| (0..self.seeds_per_variant).map(move |s| (v, s)))
            .collect();
        par_map(&cells, jobs, |cell_index, &(variant, seed_index)| {
            let (label, base) = &self.variants[variant];
            let recorder = recorder();
            // Each cell allocates trace/span ids from its own disjoint
            // range, keyed by grid position (never by scheduling), so a
            // concatenated multi-cell trace file keeps globally unique
            // ids and stays byte-identical across `--jobs` levels.
            let experiment = base
                .clone()
                .seed(base.seed + seed_index)
                .recorder(recorder.clone())
                .trace_base((cell_index as u64) << 40)
                .profile(self.profile || base.profile);
            let result = experiment.run();
            CellResult {
                variant,
                label: label.clone(),
                seed_index,
                seed: base.seed + seed_index,
                result,
                recorder,
            }
        })
    }
}

/// Parallel map preserving input order.
///
/// A self-scheduling pool: `jobs` workers pull the next unclaimed index
/// from a shared atomic counter (work-stealing from one central queue —
/// the same load-balancing rayon's deques give for coarse-grained,
/// similarly-sized cells, with none of the machinery). Each worker
/// accumulates `(index, result)` pairs privately and the caller
/// re-assembles them by index, so the hot path takes **no lock** and the
/// output order never depends on scheduling.
///
/// `jobs` is clamped to `[1, items.len()]`; `jobs == 1` degenerates to
/// a plain serial map on the calling thread (no pool, identical
/// results — the property `tests/grid_determinism.rs` pins down).
pub fn par_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let jobs = jobs.max(1).min(items.len());
    if jobs == 1 {
        return items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                let next = &next;
                let f = &f;
                scope.spawn(move || {
                    let mut mine: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        mine.push((i, f(i, &items[i])));
                    }
                    mine
                })
            })
            .collect();
        for handle in handles {
            for (i, r) in handle.join().expect("grid worker panicked") {
                slots[i] = Some(r);
            }
        }
    });
    slots.into_iter().map(|s| s.expect("every cell ran exactly once")).collect()
}

/// Compile-time audit that everything a grid worker touches can cross a
/// thread boundary. `Sim` itself is intentionally **not** `Send` (its
/// actors share an `Rc<RefCell<OpTrace>>`); each worker constructs and
/// drops its own `Sim` inside [`Experiment::run`], so only the
/// experiment *description* needs to be `Send`.
#[allow(dead_code)]
fn assert_send_audit() {
    fn is_send<T: Send>() {}
    fn is_sync<T: Sync>() {}
    is_send::<Experiment>();
    is_sync::<Experiment>();
    is_send::<RunResult>();
    is_send::<CellResult>();
    is_send::<crate::Scheme>();
    is_send::<obs::Recorder>();
    is_send::<obs::MetricsReport>();
    is_send::<simnet::SimRng>();
    is_send::<simnet::FaultSchedule>();
    is_send::<simnet::LatencyModel>();
    is_send::<simnet::OpTrace>();
    is_send::<workload::WorkloadSpec>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scheme;
    use simnet::OpTrace;
    use workload::{Arrival, KeyDistribution, OpMix, WorkloadSpec};

    fn tiny() -> WorkloadSpec {
        WorkloadSpec {
            keys: 10,
            distribution: KeyDistribution::Uniform,
            mix: OpMix::ycsb_a(),
            arrival: Arrival::Closed { think_us: 5_000 },
            sessions: 2,
            ops_per_session: 10,
        }
    }

    fn small_grid() -> Grid {
        let mut g = Grid::new();
        g.push("q22", Experiment::new(Scheme::quorum(3, 2, 2)).workload(tiny()).seed(7));
        g.push("ev", Experiment::new(Scheme::eventual(3)).workload(tiny()).seed(7));
        g.seeds(3)
    }

    #[test]
    fn par_map_preserves_order_and_runs_everything() {
        let items: Vec<u64> = (0..100).collect();
        let doubled = par_map(&items, 8, |i, &x| {
            assert_eq!(i as u64, x);
            x * 2
        });
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        // Degenerate cases.
        assert_eq!(par_map(&[] as &[u64], 4, |_, &x| x), Vec::<u64>::new());
        assert_eq!(par_map(&items, 1, |_, &x| x), items);
        assert_eq!(par_map(&items, 1000, |_, &x| x), items);
    }

    #[test]
    fn grid_order_is_variant_major_with_derived_seeds() {
        let cells = small_grid().run(4, Recorder::disabled);
        assert_eq!(cells.len(), 6);
        let meta: Vec<(usize, u64, u64)> =
            cells.iter().map(|c| (c.variant, c.seed_index, c.seed)).collect();
        assert_eq!(meta, vec![(0, 0, 7), (0, 1, 8), (0, 2, 9), (1, 0, 7), (1, 1, 8), (1, 2, 9)]);
        assert!(cells.iter().all(|c| !c.result.trace.is_empty()));
    }

    #[test]
    fn parallel_and_serial_grids_agree() {
        let traces = |jobs: usize| -> Vec<OpTrace> {
            small_grid().run(jobs, Recorder::enabled).into_iter().map(|c| c.result.trace).collect()
        };
        let serial = traces(1);
        let parallel = traces(4);
        for (a, b) in serial.iter().zip(parallel.iter()) {
            assert_eq!(a.records(), b.records());
        }
    }

    #[test]
    fn one_seed_grid_reproduces_the_single_run() {
        let base = Experiment::new(Scheme::quorum(3, 2, 2)).workload(tiny()).seed(42);
        let solo = base.clone().run();
        let mut g = Grid::new();
        g.push("only", base);
        let cells = g.run(2, Recorder::disabled);
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].seed, 42);
        assert_eq!(cells[0].result.trace.records(), solo.trace.records());
    }
}
