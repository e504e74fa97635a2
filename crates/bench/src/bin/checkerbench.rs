//! Flat-memory harness for the streaming consistency checkers.
//!
//! Feeds a deterministic synthetic operation stream (a seeded LCG — no
//! wall clock, no OS randomness) through a bounded-window
//! [`consistency::StreamVerifier`] and reports peak RSS, so the
//! bounded-memory claim in `docs/CHECKERS.md` is measurable rather than
//! asserted. The stream rotates session ids and spreads writes over a
//! fixed key space, so both the per-session and per-key checker state
//! face continuous eviction pressure; it is constructed violation-free,
//! so the violation log cannot grow either.
//!
//! ```text
//! checkerbench --ops 1000000 --window-ms 2000     # one run, JSON row
//! checkerbench --grow-check                       # N vs 10N RSS gate
//! ```
//!
//! `--grow-check` re-executes this binary (one subprocess per size:
//! `VmHWM` from `/proc/self/status` is a per-process
//! high-water mark) at `--ops N` and `--ops 10N` and exits non-zero if
//! peak RSS grew by 10% or more — the CI regression gate for
//! `tests/checker_stream_memory.rs`.

use bench::{parse_positive, take_value, usage_exit};
use consistency::{StreamConfig, StreamVerifier, Watermark};
use simnet::{Duration, NodeId, OpKind, OpRecord, SimTime};

/// Keys the synthetic stream writes to.
const KEYS: u64 = 64;
/// Ops per rotating session before it is abandoned (eviction pressure).
const SESSION_SPAN: u64 = 200;
/// Watermark advance cadence, in ops.
const CHUNK: usize = 256;

const USAGE: &str = "[--ops N] [--window-ms MS] [--grow-check]";

/// The newest acknowledged write: `(key, value, stamp)`.
type LastWrite = (u64, u64, (u64, u64));

fn main() {
    let mut ops: u64 = 1_000_000;
    let mut window_ms: u64 = 2_000;
    let mut grow_check = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if let Some(n) = take_value(&a, "--ops", &mut args) {
            ops = parse_positive("--ops", &n, USAGE);
        } else if let Some(n) = take_value(&a, "--window-ms", &mut args) {
            window_ms = parse_positive("--window-ms", &n, USAGE);
        } else if a == "--grow-check" {
            grow_check = true;
        } else {
            usage_exit(&format!("unknown or value-less flag `{a}`"), USAGE);
        }
    }
    if grow_check {
        std::process::exit(run_grow_check(ops / 10, window_ms));
    }
    let (violations, evicted) = run_stream(ops, window_ms);
    println!(
        "{{\"ops\":{ops},\"window_ms\":{window_ms},\"violations\":{violations},\
         \"events_evicted\":{evicted},\"peak_rss_bytes\":{}}}",
        peak_rss_bytes()
    );
}

/// Feed `n` synthetic ops through a bounded-window verifier; returns
/// `(violations, events_evicted)`. The stream is violation-free by
/// construction: every read observes the newest write to its key, and
/// write stamps increase globally.
fn run_stream(n: u64, window_ms: u64) -> (usize, u64) {
    let mut verifier = StreamVerifier::new(StreamConfig {
        window: Some(Duration::from_millis(window_ms)),
        ..StreamConfig::default()
    });
    let mut last_write: Vec<Option<LastWrite>> = vec![None; KEYS as usize];
    let mut lcg: u64 = 0x9E3779B97F4A7C15;
    let mut newest_key: Option<u64> = None;
    let mut chunk: Vec<OpRecord> = Vec::with_capacity(CHUNK);
    for i in 0..n {
        lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let t = SimTime::from_micros((i + 1) * 500);
        let session = i / SESSION_SPAN;
        let write = (lcg >> 33) & 1 == 0 || newest_key.is_none();
        let rec = if write {
            let key = (lcg >> 40) % KEYS;
            let value = i + 1;
            let stamp = (i + 1, 0);
            last_write[key as usize] = Some((key, value, stamp));
            newest_key = Some(key);
            OpRecord {
                session,
                op_id: i,
                key,
                kind: OpKind::Write,
                value_written: Some(value),
                value_read: vec![],
                invoked: SimTime::from_micros(t.as_micros() - 200),
                completed: t,
                replica: NodeId(0),
                ok: true,
                version_ts: None,
                stamp: Some(stamp),
            }
        } else {
            // Read the most recently written key and observe its newest
            // value: fresh, session-clean, monotone.
            let (key, value, stamp) = last_write[newest_key.unwrap() as usize].unwrap();
            OpRecord {
                session,
                op_id: i,
                key,
                kind: OpKind::Read,
                value_written: None,
                value_read: vec![value],
                invoked: SimTime::from_micros(t.as_micros() - 200),
                completed: t,
                replica: NodeId(0),
                ok: true,
                version_ts: Some(SimTime::from_micros(value * 500)),
                stamp: Some(stamp),
            }
        };
        chunk.push(rec);
        if chunk.len() == CHUNK {
            for op in &chunk {
                verifier.feed(op);
            }
            verifier.advance(Watermark::at(t));
            chunk.clear();
        }
    }
    for op in &chunk {
        verifier.feed(op);
    }
    let reports = verifier.finish();
    (reports.violations.len(), reports.events_evicted)
}

/// Re-exec this binary at `base` and `10 * base` ops and gate on peak
/// RSS growth staying under 10%. Returns the process exit code.
fn run_grow_check(base: u64, window_ms: u64) -> i32 {
    let base = base.max(100_000);
    let small = measure_subprocess(base, window_ms);
    let large = measure_subprocess(base * 10, window_ms);
    let (Some(small), Some(large)) = (small, large) else {
        eprintln!("checkerbench: could not measure subprocess RSS");
        return 1;
    };
    if small == 0 || large == 0 {
        // procfs unavailable (non-Linux): nothing to gate on.
        println!("grow-check: skipped (no VmHWM)");
        return 0;
    }
    let growth = (large as f64 - small as f64) / small as f64;
    println!(
        "grow-check: ops {base} -> {} : peak RSS {small} -> {large} bytes ({:+.1}%)",
        base * 10,
        growth * 100.0
    );
    if growth >= 0.10 {
        eprintln!(
            "FAIL: peak RSS grew {:.1}% (>= 10%) across a 10x longer trace — \
             streaming checker state is not flat",
            growth * 100.0
        );
        1
    } else {
        0
    }
}

/// Run `checkerbench --ops <ops>` in a fresh subprocess and parse
/// `peak_rss_bytes` from its JSON row.
fn measure_subprocess(ops: u64, window_ms: u64) -> Option<u64> {
    let exe = std::env::current_exe().ok()?;
    let out = std::process::Command::new(exe)
        .arg(format!("--ops={ops}"))
        .arg(format!("--window-ms={window_ms}"))
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let tail = text.split("\"peak_rss_bytes\":").nth(1)?;
    tail.trim_end().trim_end_matches('}').trim().parse().ok()
}

/// Peak RSS of this process in bytes (`VmHWM` from `/proc/self/status`);
/// 0 where procfs is unavailable.
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}
