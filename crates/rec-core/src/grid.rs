//! Parallel experiment grids.
//!
//! Every quantitative claim in the experiment suite is estimated by
//! sweeping variants × seeds through the simulator. A [`Grid`] lays the
//! cells out (variant-major, then seed), runs them on a self-scheduling
//! worker pool and hands the results back **in grid order**. One
//! function, `Grid::cell_config`, decides what a cell gets, as a ready
//! [`SimConfig`]: its seed (the variant's base seed plus the seed index),
//! a fresh [`Recorder`] of its own (profiling on when the grid profiles),
//! and its trace-id base `cell index << 40`, so the cells' event logs
//! concatenated in grid order keep globally unique trace and span ids.
//! An [`Experiment`] cell takes those values through
//! [`Experiment::run_in`]; a closure cell ([`Grid::run_cells`]) builds
//! its own `Sim` from the config.
//!
//! The output is byte-for-byte independent of the worker count: each
//! cell is a pure function of its variant and config, results are
//! re-assembled by cell index, and aggregate metrics are folded after
//! the pool drains, in grid order, via [`Recorder::absorb`] (exact and
//! commutative). The simulation stays strictly serial inside its cell;
//! parallelism lives only *between* cells.
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
//!
//! // A closure cell gets the same values as a ready `SimConfig`.
//! let mut sweep = Grid::new();
//! sweep.add("fanout 2", 7, 2usize);
//! let seeds = sweep.seeds(2).run_cells(1, Recorder::enabled, |_, cell| cell.seed);
//! assert_eq!(seeds.iter().map(|c| c.result).collect::<Vec<_>>(), [7, 8]);
//! ```

use crate::runner::{Experiment, RunResult};
use obs::Recorder;
use simnet::SimConfig;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Default worker count: one per available hardware thread.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// One cell of a completed grid run.
#[derive(Debug)]
pub struct CellResult<R = RunResult> {
    /// Index of the variant this cell belongs to.
    pub variant: usize,
    /// The variant's label.
    pub label: String,
    /// Index of the seed within the variant (0-based).
    pub seed_index: u64,
    /// The concrete seed the cell ran with.
    pub seed: u64,
    /// What the run produced.
    pub result: R,
    /// The cell's private recorder (export per-cell traces from here).
    pub recorder: Recorder,
}

/// A cartesian product of labelled variants × seeds.
///
/// `seeds(n)` runs each variant at seeds `base_seed + 0 .. base_seed +
/// n`, so a 1-seed grid reproduces the variant's single-seed run
/// exactly. Variants are [`Experiment`]s by default; any other type runs
/// through [`Grid::run_cells`].
#[derive(Debug, Clone)]
pub struct Grid<V = Experiment> {
    variants: Vec<(String, u64, V)>,
    seeds_per_variant: u64,
    profile: bool,
}

impl<V> Default for Grid<V> {
    fn default() -> Self {
        Grid { variants: Vec::new(), seeds_per_variant: 1, profile: false }
    }
}

impl<V> Grid<V> {
    /// An empty grid (one seed per variant until [`Grid::seeds`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a variant whose seed column starts at `base_seed`.
    pub fn add(&mut self, label: impl Into<String>, base_seed: u64, variant: V) {
        self.variants.push((label.into(), base_seed, variant));
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

    /// What cell `index` (in grid order) runs with: `seed`, a fresh
    /// recorder from `recorder` (profiling on when the grid profiles),
    /// and trace ids from a range keyed by grid position, never by
    /// scheduling, so traces stay byte-identical across `--jobs`.
    fn cell_config(&self, index: usize, seed: u64, recorder: fn() -> Recorder) -> SimConfig {
        let recorder = recorder();
        if self.profile {
            // Before any `Sim::new` caches the recorder's profiling flag.
            recorder.enable_profiling();
        }
        SimConfig::default().seed(seed).recorder(recorder).trace_base((index as u64) << 40)
    }

    /// Run every cell on `jobs` workers as `run(variant, cell)`, `cell`
    /// being its [`SimConfig`] with a recorder from `recorder`
    /// (`Recorder::disabled`, `enabled` or `with_event_log`). Results
    /// come back in grid order, independent of `jobs` and scheduling.
    pub fn run_cells<R, F>(
        &self,
        jobs: usize,
        recorder: fn() -> Recorder,
        run: F,
    ) -> Vec<CellResult<R>>
    where
        V: Sync,
        R: Send,
        F: Fn(&V, SimConfig) -> R + Sync,
    {
        let cells: Vec<(usize, u64)> = (0..self.variants.len())
            .flat_map(|v| (0..self.seeds_per_variant).map(move |s| (v, s)))
            .collect();
        par_map(&cells, jobs, |index, &(variant, seed_index)| {
            let (label, base_seed, v) = &self.variants[variant];
            let cell = self.cell_config(index, base_seed + seed_index, recorder);
            let recorder = cell.recorder.clone();
            CellResult {
                variant,
                label: label.clone(),
                seed_index,
                seed: cell.seed,
                result: run(v, cell),
                recorder,
            }
        })
    }
}

impl Grid {
    /// Add an experiment variant; its own seed is the base seed.
    pub fn push(&mut self, label: impl Into<String>, experiment: Experiment) {
        let seed = experiment.seed;
        self.add(label, seed, experiment);
    }

    /// [`Grid::run_cells`] with every experiment run by
    /// [`Experiment::run_in`].
    pub fn run(&self, jobs: usize, recorder: fn() -> Recorder) -> Vec<CellResult> {
        self.run_cells(jobs, recorder, Experiment::run_in)
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
/// drops its own `Sim` inside its cell, so only the variant and the
/// cell's [`SimConfig`] need to be `Send`.
#[allow(dead_code)]
fn assert_send_audit() {
    fn is_send<T: Send>() {}
    fn is_sync<T: Sync>() {}
    is_send::<Experiment>();
    is_sync::<Experiment>();
    is_send::<RunResult>();
    is_send::<CellResult>();
    is_send::<SimConfig>();
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
