//! Deterministic in-sim profiler: per-handler time and allocation
//! attribution.
//!
//! The simulator wraps every actor handler invocation in a scoped
//! [`Probe`] that measures wall time and allocation deltas (bytes and
//! count, via the thread-local tallying [`CountingAlloc`] when a binary
//! installs it as its global allocator). Samples are keyed by
//! `(scheme, node role, handler kind, message variant)` and accumulate
//! into a [`Profile`]: invocation counts, allocation tallies, and log2
//! [`Histogram`]s of per-call time and bytes.
//!
//! Determinism contract (`docs/PROFILING.md`): invocation counts and
//! allocation tallies are a pure function of the simulated run, so they
//! are byte-identical across `--jobs` levels; wall times are host
//! measurements and are not, but their histograms merge exactly and
//! commutatively ([`Profile::merge`]) in deterministic grid order.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::hist::Histogram;

names! {
    /// Which actor callback a profiled sample came from.
    #[derive(PartialOrd, Ord, Hash)]
    #[repr(usize)]
    HandlerKind, "handler kind" {
        /// `Actor::on_start`.
        Start = "on_start",
        /// `Actor::on_message`.
        Message = "on_message",
        /// `Actor::on_timer`.
        Timer = "on_timer",
        /// `Actor::on_crash`.
        Crash = "on_crash",
        /// `Actor::on_recover`.
        Recover = "on_recover",
        /// `Actor::on_membership`.
        Membership = "on_membership",
        /// `Actor::on_shutdown`.
        Shutdown = "on_shutdown",
    }
}

/// Placeholder variant name for handler kinds that carry no message.
pub const NO_VARIANT: &str = "-";

// Thread-local allocation tallies. `const`-initialized `Cell`s so the
// allocator's fast path never triggers lazy TLS initialization (which
// itself allocates on some platforms).
thread_local! {
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
    static ALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
    /// Reentrancy guard depth: while > 0, allocations are not tallied.
    /// The profiler's own bookkeeping raises it so nested probes never
    /// double-count the profiler against the profiled handler.
    static ALLOC_PAUSED: Cell<u32> = const { Cell::new(0) };
}

/// A tallying global allocator wrapping [`System`].
///
/// Install it in a binary that wants allocation attribution:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: obs::CountingAlloc = obs::CountingAlloc;
/// ```
///
/// Tallies are *gross* and monotonic: every `alloc`/`alloc_zeroed`/
/// `realloc` adds the requested size to the current thread's running
/// totals ([`alloc_totals`]); frees are not subtracted. Gross tallies
/// are what makes per-handler deltas deterministic — they count what
/// the handler allocated, not what the OS happened to reclaim. Without
/// this allocator installed, probes still measure time and invocation
/// counts; allocation deltas read 0.
pub struct CountingAlloc;

#[inline]
fn tally(bytes: usize) {
    // `try_with`: the allocator can be called during TLS teardown,
    // where accessing a thread-local would otherwise panic.
    let paused = ALLOC_PAUSED.try_with(|p| p.get() > 0).unwrap_or(true);
    if paused {
        return;
    }
    let _ = ALLOC_BYTES.try_with(|b| b.set(b.get() + bytes as u64));
    let _ = ALLOC_COUNT.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: delegates every allocation verbatim to `System`; the tallies
// touch only thread-local `Cell`s and never allocate themselves.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            tally(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            tally(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            tally(new_size);
        }
        p
    }
}

/// The current thread's gross allocation totals `(bytes, count)` since
/// thread start. Reads 0 unless [`CountingAlloc`] is installed as the
/// global allocator.
pub fn alloc_totals() -> (u64, u64) {
    (ALLOC_BYTES.with(Cell::get), ALLOC_COUNT.with(Cell::get))
}

/// RAII guard that pauses allocation tallying on the current thread
/// while alive (nestable). The recorder wraps its own profile
/// bookkeeping in one, so a nested probe (e.g. profiling the profiler
/// in tests) never double-counts that bookkeeping.
pub struct PauseAlloc(());

impl PauseAlloc {
    /// Pause tallying until the guard drops.
    pub fn new() -> Self {
        let _ = ALLOC_PAUSED.try_with(|p| p.set(p.get() + 1));
        PauseAlloc(())
    }
}

impl Default for PauseAlloc {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for PauseAlloc {
    fn drop(&mut self) {
        let _ = ALLOC_PAUSED.try_with(|p| p.set(p.get().saturating_sub(1)));
    }
}

/// What one scoped probe measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfSample {
    /// Host wall time spent inside the handler, nanoseconds.
    pub wall_ns: u64,
    /// Gross bytes allocated inside the handler (0 without
    /// [`CountingAlloc`]).
    pub alloc_bytes: u64,
    /// Gross allocation count inside the handler.
    pub alloc_count: u64,
}

/// A scoped measurement around one handler invocation: snapshot on
/// [`Probe::start`], delta on [`Probe::finish`].
#[derive(Debug)]
pub struct Probe {
    start: Instant,
    bytes0: u64,
    count0: u64,
}

impl Probe {
    /// Snapshot the clock and the thread's allocation totals.
    pub fn start() -> Self {
        let (bytes0, count0) = alloc_totals();
        Probe { start: Instant::now(), bytes0, count0 }
    }

    /// Close the probe, yielding the deltas since [`Probe::start`].
    pub fn finish(self) -> ProfSample {
        let (bytes, count) = alloc_totals();
        ProfSample {
            wall_ns: self.start.elapsed().as_nanos() as u64,
            alloc_bytes: bytes - self.bytes0,
            alloc_count: count - self.count0,
        }
    }
}

/// Profile key within one scheme: `(role, handler kind, variant)`.
type ProfKey = (&'static str, HandlerKind, &'static str);

/// Accumulated measurements for one `(scheme, role, handler, variant)`
/// cell.
#[derive(Debug, Clone, Default)]
pub struct ProfCell {
    /// Handler invocations recorded.
    pub invocations: u64,
    /// Gross bytes allocated across all invocations.
    pub alloc_bytes: u64,
    /// Gross allocation count across all invocations.
    pub alloc_count: u64,
    /// Per-call wall time, nanoseconds.
    pub time_ns: Histogram,
    /// Per-call gross allocated bytes.
    pub bytes_per_call: Histogram,
}

impl ProfCell {
    fn record(&mut self, sample: ProfSample) {
        self.invocations += 1;
        self.alloc_bytes += sample.alloc_bytes;
        self.alloc_count += sample.alloc_count;
        self.time_ns.record(sample.wall_ns);
        self.bytes_per_call.record(sample.alloc_bytes);
    }

    fn merge(&mut self, other: &ProfCell) {
        self.invocations += other.invocations;
        self.alloc_bytes += other.alloc_bytes;
        self.alloc_count += other.alloc_count;
        self.time_ns.merge(&other.time_ns);
        self.bytes_per_call.merge(&other.bytes_per_call);
    }
}

/// Per-scheme, per-handler profile data held inside an enabled
/// recorder's core.
///
/// `BTreeMap`s keep every traversal (merge, report, folded export) in a
/// deterministic key order, so merged profiles are independent of which
/// grid cell finished first.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Scheme label samples are currently attributed to.
    current: String,
    schemes: BTreeMap<String, BTreeMap<ProfKey, ProfCell>>,
}

impl Default for Profile {
    fn default() -> Self {
        // Harnesses that drive `Sim` directly never set a scheme label;
        // their samples land under "sim" rather than an empty string.
        Profile { current: "sim".to_string(), schemes: BTreeMap::new() }
    }
}

impl Profile {
    /// Attribute subsequent samples to `scheme` (an
    /// `rec_core::Scheme::label()` in the experiment path).
    pub fn set_scheme(&mut self, scheme: &str) {
        if self.current != scheme {
            self.current = scheme.to_string();
        }
    }

    /// Fold one handler sample into the current scheme's cell.
    pub fn record(
        &mut self,
        role: &'static str,
        kind: HandlerKind,
        variant: &'static str,
        sample: ProfSample,
    ) {
        if !self.schemes.contains_key(&self.current) {
            self.schemes.insert(self.current.clone(), BTreeMap::new());
        }
        let cells = self.schemes.get_mut(&self.current).expect("just inserted");
        cells.entry((role, kind, variant)).or_default().record(sample);
    }

    /// Merge another profile's cells into this one. Exact and
    /// commutative — counts, tallies, and histogram buckets all add —
    /// so folding per-cell profiles from a parallel grid in grid order
    /// yields the same counts as a serial run.
    pub fn merge(&mut self, other: &Profile) {
        for (scheme, cells) in &other.schemes {
            let mine = self.schemes.entry(scheme.clone()).or_default();
            for (key, cell) in cells {
                mine.entry(*key).or_default().merge(cell);
            }
        }
    }

    /// Snapshot into the exported [`ProfileReport`] shape.
    pub fn report(&self) -> ProfileReport {
        ProfileReport {
            schemes: self
                .schemes
                .iter()
                .map(|(scheme, cells)| SchemeProfile {
                    scheme: scheme.clone(),
                    handlers: cells
                        .iter()
                        .map(|(&(role, kind, variant), cell)| HandlerProfile {
                            role: role.to_string(),
                            handler: kind.name().to_string(),
                            variant: variant.to_string(),
                            invocations: cell.invocations,
                            alloc_bytes: cell.alloc_bytes,
                            alloc_count: cell.alloc_count,
                            time_total_ns: cell.time_ns.sum(),
                            time_ns: cell.time_ns.summary(),
                            bytes_per_call: cell.bytes_per_call.summary(),
                        })
                        .collect(),
                })
                .collect(),
        }
    }
}

/// One handler row of an exported profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HandlerProfile {
    /// Actor role (`Actor::role`): "replica", "client", ...
    pub role: String,
    /// Handler kind name ([`HandlerKind::name`]).
    pub handler: String,
    /// Message variant name (`"-"` for messageless handlers).
    pub variant: String,
    /// Invocations recorded (jobs-invariant).
    pub invocations: u64,
    /// Gross bytes allocated (jobs-invariant with [`CountingAlloc`]).
    pub alloc_bytes: u64,
    /// Gross allocation count (jobs-invariant with [`CountingAlloc`]).
    pub alloc_count: u64,
    /// Total wall nanoseconds (host-dependent).
    pub time_total_ns: u64,
    /// Per-call wall-time summary (host-dependent).
    pub time_ns: crate::hist::HistogramSummary,
    /// Per-call allocated-bytes summary.
    pub bytes_per_call: crate::hist::HistogramSummary,
}

impl HandlerProfile {
    /// The folded-stack frame for this row:
    /// `role;handler[:variant]` (variant omitted when messageless).
    pub fn frame(&self) -> String {
        if self.variant == NO_VARIANT {
            format!("{};{}", self.role, self.handler)
        } else {
            format!("{};{}:{}", self.role, self.handler, self.variant)
        }
    }

    /// The measurement selected by `weight`.
    pub fn weight(&self, weight: FoldWeight) -> u64 {
        match weight {
            FoldWeight::Calls => self.invocations,
            FoldWeight::Time => self.time_total_ns,
            FoldWeight::AllocBytes => self.alloc_bytes,
        }
    }
}

/// One scheme's handler rows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchemeProfile {
    /// The scheme label samples were attributed to.
    pub scheme: String,
    /// Handler rows in deterministic `(role, handler, variant)` order.
    pub handlers: Vec<HandlerProfile>,
}

/// The `"profile"` block of a results document (see
/// `docs/PROFILING.md` for the schema).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ProfileReport {
    /// Per-scheme profiles in scheme-label order.
    pub schemes: Vec<SchemeProfile>,
}

names! {
    /// Which measurement weights a folded-stack export; the names are
    /// `tracequery prof --by`'s values.
    FoldWeight, "fold weight" {
        /// Invocation counts (jobs-invariant).
        Calls = "calls",
        /// Total wall nanoseconds (host-dependent).
        Time = "time",
        /// Gross allocated bytes (jobs-invariant with [`CountingAlloc`]).
        AllocBytes = "alloc",
    }
}

impl ProfileReport {
    /// Render the profile as folded stacks — one
    /// `scheme;role;handler[:variant] weight` line per non-zero cell,
    /// lexicographically sorted — consumable by standard flamegraph
    /// tooling (`flamegraph.pl`, inferno, speedscope).
    pub fn to_folded(&self, weight: FoldWeight) -> String {
        let mut lines: Vec<String> = Vec::new();
        for scheme in &self.schemes {
            for h in &scheme.handlers {
                let w = h.weight(weight);
                if w > 0 {
                    lines.push(format!("{};{} {w}", scheme.scheme, h.frame()));
                }
            }
        }
        lines.sort();
        let mut out = lines.join("\n");
        if !out.is_empty() {
            out.push('\n');
        }
        out
    }

    /// The jobs-invariant projection of this report: every `(scheme,
    /// role, handler, variant)` with its invocation count and
    /// allocation tallies, timing omitted. Two runs of the same grid at
    /// different `--jobs` levels must produce equal keys.
    pub fn determinism_key(&self) -> Vec<(String, String, u64, u64, u64)> {
        self.schemes
            .iter()
            .flat_map(|s| {
                s.handlers.iter().map(|h| {
                    (s.scheme.clone(), h.frame(), h.invocations, h.alloc_bytes, h.alloc_count)
                })
            })
            .collect()
    }

    /// Total invocations across every scheme and handler.
    pub fn total_invocations(&self) -> u64 {
        self.schemes.iter().flat_map(|s| &s.handlers).map(|h| h.invocations).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(ns: u64, bytes: u64, count: u64) -> ProfSample {
        ProfSample { wall_ns: ns, alloc_bytes: bytes, alloc_count: count }
    }

    #[test]
    fn profile_accumulates_per_key() {
        let mut p = Profile::default();
        p.set_scheme("paxos");
        p.record("replica", HandlerKind::Message, "Put", sample(100, 64, 2));
        p.record("replica", HandlerKind::Message, "Put", sample(50, 32, 1));
        p.record("client", HandlerKind::Timer, NO_VARIANT, sample(10, 0, 0));
        let report = p.report();
        assert_eq!(report.schemes.len(), 1);
        assert_eq!(report.schemes[0].scheme, "paxos");
        let put = report.schemes[0].handlers.iter().find(|h| h.variant == "Put").expect("Put row");
        assert_eq!(put.invocations, 2);
        assert_eq!(put.alloc_bytes, 96);
        assert_eq!(put.alloc_count, 3);
        assert_eq!(put.time_total_ns, 150);
        assert_eq!(report.total_invocations(), 3);
    }

    #[test]
    fn merge_is_commutative_and_exact() {
        let mut a = Profile::default();
        a.set_scheme("x");
        a.record("replica", HandlerKind::Message, "Get", sample(5, 8, 1));
        let mut b = Profile::default();
        b.set_scheme("x");
        b.record("replica", HandlerKind::Message, "Get", sample(7, 16, 2));
        b.set_scheme("y");
        b.record("client", HandlerKind::Start, NO_VARIANT, sample(1, 0, 0));

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.report(), ba.report());
        let get = &ab.report().schemes[0].handlers[0];
        assert_eq!((get.invocations, get.alloc_bytes, get.alloc_count), (2, 24, 3));
        assert_eq!(ab.report().schemes.len(), 2);
    }

    #[test]
    fn folded_output_is_sorted_and_skips_zero_weights() {
        let mut p = Profile::default();
        p.set_scheme("zeta");
        p.record("replica", HandlerKind::Message, "Put", sample(10, 64, 1));
        p.set_scheme("alpha");
        p.record("client", HandlerKind::Timer, NO_VARIANT, sample(3, 0, 0));
        let folded = p.report().to_folded(FoldWeight::Calls);
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines, vec!["alpha;client;on_timer 1", "zeta;replica;on_message:Put 1"]);
        let mut sorted = lines.clone();
        sorted.sort();
        assert_eq!(lines, sorted, "folded lines must be lexicographically sorted");
        // Alloc-weighted view drops the zero-byte timer row.
        let alloc = p.report().to_folded(FoldWeight::AllocBytes);
        assert_eq!(alloc, "zeta;replica;on_message:Put 64\n");
    }

    #[test]
    fn probe_measures_allocation_deltas_when_installed() {
        // This test suite does not install CountingAlloc, so deltas are
        // zero — but the probe must still not panic and time must move.
        let probe = Probe::start();
        let v: Vec<u64> = (0..1000).collect();
        let s = probe.finish();
        assert!(v.len() == 1000);
        assert_eq!(s.alloc_bytes, 0, "no CountingAlloc in obs's own tests");
    }

    #[test]
    fn pause_guard_nests() {
        let _a = PauseAlloc::new();
        {
            let _b = PauseAlloc::new();
        }
        // Dropping the inner guard must not unpause the outer one; we
        // can only observe the depth indirectly (no panic, no underflow).
        drop(_a);
        let _ = alloc_totals();
    }

    #[test]
    fn handler_kind_names_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for k in HandlerKind::ALL {
            assert!(seen.insert(k.name()), "duplicate handler name {}", k.name());
        }
        assert_eq!(seen.len(), HandlerKind::ALL.len());
    }
}
