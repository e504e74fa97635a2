//! The measuring loop every workload shares: repeated set-up, warm-up,
//! timed passes over fixed deterministic work, and the traced run.

use crate::trace::{self, Span, SpanTotal, Tracer};
use crate::workloads;
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-up is repeated at least this often in a run, and until an eighth
/// of the run's seconds has gone by or `MAX_SETUP_REPS` are done;
/// `setup_s` is the fastest repetition, for the reason `timed_seconds`
/// gives.
const MIN_SETUP_REPS: usize = 3;
const MAX_SETUP_REPS: usize = 64;
/// Share of the full size at which every set-up repetition runs one
/// warm-up pass, so lazily built state counts as set-up, not as work.
const WARM_SCALE: f64 = 0.1;
/// A run measures at least this many passes, however long they take.
const MIN_PASSES: usize = 3;
/// Size of the passes a traced run makes over the workloads it was not
/// asked for, only so that every per-layer metric is present.
const PROBE_SCALE: f64 = 0.05;

/// `n` scaled by `scale`, never below `min`.
pub fn scaled(n: u64, scale: f64, min: u64) -> u64 {
    ((n as f64 * scale).round() as u64).max(min)
}

/// An FNV-1a-style hash, a 64-bit word a step, over everything a workload
/// produced: op traces, verdicts, checker reports and counter blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Eight bytes a step: the logs `trace_check` hashes run to 30 MB.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for chunk in s.as_bytes().chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.u64(u64::from_le_bytes(word));
        }
    }

    pub fn json<T: serde::Serialize>(&mut self, value: &T) {
        self.str(&serde_json::to_string(value).expect("reports serialize"));
    }

    pub fn trace(&mut self, trace: &simnet::OpTrace) {
        let opt = |d: &mut Digest, v: Option<u64>| {
            d.u64(v.is_some() as u64);
            d.u64(v.unwrap_or(0));
        };
        self.u64(trace.len() as u64);
        for r in trace.records() {
            self.u64(r.session);
            self.u64(r.op_id);
            self.u64(r.key);
            self.u64(matches!(r.kind, simnet::OpKind::Write) as u64);
            opt(self, r.value_written);
            self.u64(r.value_read.len() as u64);
            for &v in &r.value_read {
                self.u64(v);
            }
            self.u64(r.invoked.as_micros());
            self.u64(r.completed.as_micros());
            self.u64(r.replica.0 as u64);
            self.u64(r.ok as u64);
            opt(self, r.version_ts.map(|t| t.as_micros()));
            opt(self, r.stamp.map(|s| s.0));
            opt(self, r.stamp.map(|s| s.1));
        }
    }

    pub fn counters(&mut self, report: &obs::MetricsReport) {
        for (name, v) in &report.counters {
            self.str(name);
            self.u64(*v);
        }
    }
}

/// Metric name → (value, unit), and the names that go with some values
/// (which handler was the top one) for the trace file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    pub values: BTreeMap<String, (f64, &'static str)>,
    pub notes: BTreeMap<String, String>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, unit: &'static str, value: f64) {
        self.values.insert(name.to_string(), (value, unit));
    }

    pub fn note(&mut self, name: &str, text: &str) {
        self.notes.insert(name.to_string(), text.to_string());
    }

    pub fn to_value(&self) -> serde::Value {
        use serde::Value;
        Value::Object(
            self.values
                .iter()
                .map(|(name, &(value, unit))| {
                    let m = vec![
                        ("value".to_string(), Value::F64(value)),
                        ("unit".to_string(), Value::String(unit.to_string())),
                    ];
                    (name.clone(), Value::Object(m))
                })
                .collect(),
        )
    }
}

/// What one pass over a workload's cells produced.
pub struct Pass<'a> {
    pub tr: &'a Tracer,
    /// Host nanoseconds of each timed cell, in the order they ran.
    pub cell_ns: Vec<u64>,
    /// Work done, in the workload's unit.
    pub units: u64,
    pub attempted: u64,
    pub failed: u64,
    pub digest: Digest,
    /// Correctness checks that did not hold.
    pub errors: Vec<String>,
    /// Counts taken at the span boundaries (events, messages, bytes);
    /// the per-layer ratios are formed from these.
    pub counts: BTreeMap<&'static str, f64>,
}

impl<'a> Pass<'a> {
    fn new(tr: &'a Tracer) -> Self {
        Pass {
            tr,
            cell_ns: Vec::new(),
            units: 0,
            attempted: 0,
            failed: 0,
            digest: Digest::default(),
            errors: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// A timed cell: the part of the pass `work_per_s` counts.
    pub fn cell<T>(&mut self, name: &'static str, label: &'static str, f: impl FnOnce() -> T) -> T {
        self.cells(name, label, |_| f())
    }

    /// One call that is many timed cells: `f` calls `mark` wherever the
    /// work it has done so far is the same on every pass (a virtual-time
    /// boundary of the simulator, say), and each stretch between marks
    /// is a cell. The finer the cells, the less of a pass one burst of
    /// host noise spoils.
    pub fn cells<T>(
        &mut self,
        name: &'static str,
        label: &'static str,
        f: impl FnOnce(&mut dyn FnMut()) -> T,
    ) -> T {
        let cell_ns = &mut self.cell_ns;
        self.tr.span(name, label, || {
            let mut last = Instant::now();
            let mut mark = || {
                let now = Instant::now();
                cell_ns.push((now - last).as_nanos() as u64);
                last = now;
            };
            let out = f(&mut mark);
            mark();
            out
        })
    }

    /// Untimed: hash and check what the cells produced.
    pub fn checking(&mut self, f: impl FnOnce(&mut Pass)) {
        let tr = self.tr;
        tr.span("labbench.check", "", || f(self))
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_insert(0.0) += v;
    }
}

/// One workload, built from a seed at a scale. Building it is set-up.
pub trait Workload {
    /// One pass over the fixed work. The same inputs every time, so the
    /// digest must repeat.
    fn pass(&mut self, p: &mut Pass);

    /// Per-layer metrics from a traced run: ratios of span totals and
    /// counts, plus the ablations and direct loops that need runs of
    /// their own.
    fn layer_metrics(&mut self, t: &Traced, m: &mut Metrics);
}

/// What the traced passes of one workload recorded.
pub struct Traced {
    pub scale: f64,
    /// Number of traced passes the totals and counts are summed over.
    pub passes: f64,
    pub totals: BTreeMap<(&'static str, &'static str), SpanTotal>,
    pub counts: BTreeMap<&'static str, f64>,
    pub spans: Vec<Span>,
}

impl Traced {
    pub fn total(&self, name: &'static str, label: &'static str) -> SpanTotal {
        self.totals.get(&(name, label)).copied().unwrap_or_default()
    }

    /// Total nanoseconds of the spans named `name`, any label.
    pub fn ns(&self, name: &'static str) -> f64 {
        self.total(name, "*").total_ns as f64
    }

    pub fn count(&self, name: &'static str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Nanoseconds per iteration of a direct loop over one layer's call;
    /// `iters` at full size, fewer in step with the scale.
    pub fn loop_ns(&self, iters: u64, mut f: impl FnMut(u64)) -> f64 {
        let iters = scaled(iters, self.scale.min(1.0), 10);
        let start = Instant::now();
        for i in 0..iters {
            f(i);
        }
        start.elapsed().as_nanos() as f64 / iters as f64
    }
}

/// `a / b`, and 0 when `b` is 0 (a layer the scale left without work).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Time a closure in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// `VmHWM` (peak resident set) of this process in MiB, and its thread
/// count, from procfs.
pub fn proc_status() -> Option<(f64, u64)> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let field = |name: &str| -> Option<u64> {
        let rest = status.lines().find_map(|l| l.strip_prefix(name))?;
        rest.split_whitespace().next()?.parse().ok()
    };
    Some((field("VmHWM:")? as f64 / 1024.0, field("Threads:")?))
}

/// User plus system CPU seconds of this process so far. Fields 14 and
/// 15 of `/proc/self/stat`, in clock ticks; Linux fixes `USER_HZ` at
/// 100.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    let after_comm = stat.rsplit_once(") ")?.1;
    let mut fields = after_comm.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / 100.0)
}

/// Everything one run of one workload reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: &'static str,
    pub unit: &'static str,
    pub seed: u64,
    pub correct: bool,
    pub errors: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Timed seconds of each untraced pass, in the order they ran.
    pub pass_timed_s: Vec<f64>,
    pub wall_s: f64,
    pub cpu_s: Option<f64>,
    pub noisy: bool,
    pub threads: Option<u64>,
    pub result_digest: u64,
    /// Spans of the selected workload's traced passes (traced run only).
    pub spans: Vec<Span>,
}

/// Passes measured so far, and what they must agree on.
struct Measured {
    cell_ns: Vec<Vec<u64>>,
    pass_wall_s: Vec<f64>,
    units: u64,
    attempted: u64,
    failed: u64,
    digest: Option<Digest>,
    errors: Vec<String>,
    counts: BTreeMap<&'static str, f64>,
}

impl Measured {
    fn new() -> Self {
        Measured {
            cell_ns: Vec::new(),
            pass_wall_s: Vec::new(),
            units: 0,
            attempted: 0,
            failed: 0,
            digest: None,
            errors: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn run_pass(&mut self, w: &mut dyn Workload, tr: &Tracer) {
        let mut p = Pass::new(tr);
        let ((), wall) = timed(|| tr.span("labbench.pass", "", || w.pass(&mut p)));
        self.pass_wall_s.push(wall);
        self.units = p.units;
        self.attempted += p.attempted;
        self.failed += p.failed;
        self.errors.append(&mut p.errors);
        for (k, v) in p.counts {
            *self.counts.entry(k).or_insert(0.0) += v;
        }
        match self.digest {
            None => self.digest = Some(p.digest),
            Some(d) if d != p.digest => self.errors.push(format!(
                "result digest changed between passes: {:016x} then {:016x}",
                d.0, p.digest.0
            )),
            Some(_) => {}
        }
        if self.cell_ns.first().is_some_and(|first| first.len() != p.cell_ns.len()) {
            self.errors.push("a pass ran another number of timed cells than the first".to_string());
        } else {
            self.cell_ns.push(p.cell_ns);
        }
    }

    /// Passes until `seconds` have gone by, and at least `min_passes`.
    fn run_for(&mut self, w: &mut dyn Workload, tr: &Tracer, seconds: f64, min_passes: usize) {
        let start = Instant::now();
        let mut done = 0;
        while done < min_passes || start.elapsed().as_secs_f64() < seconds {
            self.run_pass(w, tr);
            done += 1;
        }
    }

    /// Seconds one pass's timed cells take: each cell's fastest run over
    /// the passes, summed. The work of a cell is the same on every pass,
    /// so what varies is what the host adds, and that is never negative:
    /// on a shared machine the medians of whole passes drift by a fifth
    /// within minutes, the sum of the cells' minima by a few per cent.
    fn timed_seconds(&self) -> f64 {
        let cells = self.cell_ns.first().map_or(0, Vec::len);
        let fastest = |c: usize| self.cell_ns.iter().map(|pass| pass[c]).min().unwrap_or(0);
        (0..cells).map(fastest).sum::<u64>() as f64 / 1e9
    }
}

/// Build the workload several times, each time with one reduced warm-up
/// pass; returns the last build and the fastest set-up in seconds.
fn set_up(spec: &workloads::Spec, seed: u64, scale: f64, seconds: f64) -> (Box<dyn Workload>, f64) {
    let start = Instant::now();
    let mut fastest = f64::INFINITY;
    let mut reps = 0;
    loop {
        let (w, secs) = timed(|| {
            let w = (spec.build)(seed, scale);
            let tr = Tracer::new(false);
            (spec.build)(seed, scale * WARM_SCALE).pass(&mut Pass::new(&tr));
            w
        });
        fastest = fastest.min(secs);
        reps += 1;
        let enough = reps >= MIN_SETUP_REPS && start.elapsed().as_secs_f64() >= seconds / 8.0;
        if enough || reps == MAX_SETUP_REPS {
            return (w, fastest);
        }
    }
}

/// One run of one workload: the end-to-end metrics, or with `traced`
/// the per-layer metrics.
pub fn run(spec: &workloads::Spec, seed: u64, seconds: f64, scale: f64, traced: bool) -> Outcome {
    let start = Instant::now();
    let cpu_before = cpu_seconds();
    let (mut w, setup_s) = set_up(spec, seed, scale, seconds);
    let off = Tracer::new(false);
    let mut plain = Measured::new();
    let mut metrics = Metrics::default();
    let mut spans = Vec::new();

    // End-to-end numbers always come from untraced passes; a traced run
    // spends half its time on them to know what tracing costs.
    let share = if traced { 0.5 } else { 1.0 };
    let (cpu0, wall0) = (cpu_seconds(), Instant::now());
    plain.run_for(w.as_mut(), &off, seconds * share, if traced { 2 } else { MIN_PASSES });
    let busy = match (cpu0, cpu_seconds()) {
        (Some(a), Some(b)) => (b - a) / wall0.elapsed().as_secs_f64(),
        _ => 1.0,
    };
    let mut errors = std::mem::take(&mut plain.errors);

    if traced {
        let on = Tracer::new(true);
        let mut with = Measured::new();
        with.run_for(w.as_mut(), &on, seconds * share, 2);
        errors.append(&mut with.errors);
        if with.digest != plain.digest {
            errors.push("traced passes produced another result digest than untraced".to_string());
        }
        let recorded = on.spans();
        let t = Traced {
            scale,
            passes: with.cell_ns.len() as f64,
            totals: trace::totals(&recorded),
            counts: with.counts,
            spans: recorded,
        };
        w.layer_metrics(&t, &mut metrics);
        drop(w);
        for other in workloads::ALL.iter().filter(|o| o.name != spec.name) {
            probe_layers(other, seed, scale * PROBE_SCALE, &mut metrics, &mut errors);
        }
        let fastest = |walls: &[f64]| walls.iter().copied().fold(f64::INFINITY, f64::min);
        let overhead = ratio(fastest(&with.pass_wall_s), fastest(&plain.pass_wall_s));
        metrics.put("labbench.trace_overhead_ratio", "ratio", overhead);
        layer_shares(&t, &mut metrics);
        spans = t.spans;
    } else {
        metrics.put("work_per_s", "1/s", ratio(plain.units as f64, plain.timed_seconds()));
        metrics.put("setup_s", "s", setup_s);
    }

    let status = proc_status();
    if !traced {
        if status.is_none() {
            eprintln!(
                "warning: /proc/self/status cannot be read; peak_rss_mb is unavailable and reads 0"
            );
        }
        metrics.put("peak_rss_mb", "MiB", status.map_or(0.0, |s| s.0));
    }
    Outcome {
        workload: spec.name,
        unit: spec.unit,
        seed,
        correct: errors.is_empty() && plain.failed == 0,
        errors,
        attempted: plain.attempted,
        failed: plain.failed,
        metrics,
        pass_timed_s: plain.cell_ns.iter().map(|c| c.iter().sum::<u64>() as f64 / 1e9).collect(),
        wall_s: start.elapsed().as_secs_f64(),
        cpu_s: cpu_before.zip(cpu_seconds()).map(|(a, b)| b - a),
        noisy: busy < 0.9,
        threads: status.map(|s| s.1),
        result_digest: plain.digest.unwrap_or_default().0,
        spans,
    }
}

/// One small traced pass of a workload the run was not asked for, so
/// that its per-layer metrics are present too.
fn probe_layers(
    spec: &workloads::Spec,
    seed: u64,
    scale: f64,
    metrics: &mut Metrics,
    errors: &mut Vec<String>,
) {
    let mut w = (spec.build)(seed, scale);
    let on = Tracer::new(true);
    let mut with = Measured::new();
    with.run_pass(w.as_mut(), &on);
    errors.extend(with.errors.drain(..).map(|e| format!("{} (probe): {e}", spec.name)));
    let spans = on.spans();
    let t =
        Traced { scale, passes: 1.0, totals: trace::totals(&spans), counts: with.counts, spans };
    w.layer_metrics(&t, metrics);
}

/// Where the selected workload's traced time went, by layer: self time
/// of the layer's spans over the duration of the pass spans. The shares
/// add up to `labbench.coverage_ratio`.
fn layer_shares(t: &Traced, m: &mut Metrics) {
    let own = trace::self_times(&t.spans);
    let pass_ns = t.ns("labbench.pass");
    let mut by_layer: BTreeMap<&str, f64> = [
        "workload",
        "simnet",
        "obs",
        "replication",
        "consistency",
        "obs-tools",
        "rec-core",
        "labbench",
    ]
    .into_iter()
    .map(|l| (l, 0.0))
    .collect();
    let mut covered = 0.0;
    for (s, &ns) in t.spans.iter().zip(&own) {
        if s.name == "labbench.pass" {
            continue;
        }
        covered += ns as f64;
        if let Some(total) = by_layer.get_mut(s.layer()) {
            *total += ns as f64;
        }
    }
    for (layer, ns) in by_layer {
        m.put(&format!("labbench.share.{layer}"), "ratio", ratio(ns, pass_ns));
    }
    m.put("labbench.coverage_ratio", "ratio", ratio(covered, pass_ns));
}
