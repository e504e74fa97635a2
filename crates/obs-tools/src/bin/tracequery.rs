//! `tracequery`: query the artifacts a run leaves behind — the JSONL
//! trace exported with `--trace-out`, and the `profile` block of a
//! `--profile` results document.
//!
//! ```text
//! tracequery list    <trace.jsonl>                  one line per trace
//! tracequery op      <trace_id> <trace.jsonl>       span tree of one operation
//! tracequery explain <t_us> <trace.jsonl> [--window-us N]
//!                                                   fault + span context at t_us
//! tracequery chrome  <trace.jsonl> [-o <out.json>]  Chrome trace_event export
//! tracequery check   <trace.jsonl>                  span conservation invariants
//! tracequery check --stream <trace.jsonl> [--window-ms N]
//!                                                   streaming consistency check
//! tracequery prof top    <results.json> [--by calls|time|alloc] [-k N]
//! tracequery prof diff   <old.json> <new.json> [--by calls|alloc]
//! tracequery prof folded <results.json> [--by calls|time|alloc]
//! ```
//!
//! `check --stream` feeds the log's `op_complete` events through the
//! incremental consistency checkers line by line — pass `-` to read
//! from stdin, so a live `--trace-out` pipe can be monitored while the
//! run is still producing it. `--window-ms N` bounds checker memory by
//! evicting state older than N milliseconds behind the event clock
//! (violations older than the window can then go unreported; see
//! `docs/CHECKERS.md`). A log of several runs (a `--seeds`/`--jobs`
//! grid's, its cells' logs one after another, each numbered from `seq`
//! 0) gets one report per run, each headed `run N from line L:`.
//! `explain` answers for one run's clock and refuses such a log.
//!
//! `prof top` ranks handler cells by the chosen weight. `prof diff`
//! compares two runs cell-by-cell and prints relative change, biggest
//! regression first — use jobs-invariant weights (`calls`, `alloc`) to
//! compare runs from different machines; `time` is host-dependent.
//! `prof folded` re-emits the profile as flamegraph stacks
//! (`scheme;role;handler[:variant] weight`), byte-identical to the
//! `.folded` file the harness writes beside the JSON (see
//! `docs/PROFILING.md`).
//!
//! Exit codes: `0` success, `1` analysis failure (unreadable file,
//! parse error, no profile block, unknown trace id, conservation or
//! consistency violation), `2` usage error.

use consistency::SpanTable;
use obs::FoldWeight;
use obs_tools::{
    build_tree, check_spans, chrome_trace, diff_rows, parse_jsonl, parse_line, parse_profile,
    render_stream_report, render_tree, top_rows, trace_summaries, SeqOrder, StreamTraceChecker,
};

const USAGE: &str = "usage:
  tracequery list    <trace.jsonl>
  tracequery op      <trace_id> <trace.jsonl>
  tracequery explain <t_us> <trace.jsonl> [--window-us N]
  tracequery chrome  <trace.jsonl> [-o <out.json>]
  tracequery check   <trace.jsonl>
  tracequery check --stream <trace.jsonl | -> [--window-ms N]
  tracequery prof top    <results.json> [--by calls|time|alloc] [-k N]
  tracequery prof diff   <old.json> <new.json> [--by calls|alloc]
  tracequery prof folded <results.json> [--by calls|time|alloc]";

fn usage_error(msg: &str) -> ! {
    eprintln!("tracequery: {msg}\n{USAGE}");
    std::process::exit(2);
}

/// The analysis failed: say why and exit 1.
fn fail(msg: &str) -> ! {
    eprintln!("tracequery: {msg}");
    std::process::exit(1);
}

/// Write to stdout without panicking on a closed pipe (`tracequery list
/// huge.jsonl | head` must exit cleanly).
fn emit(text: &str) {
    use std::io::Write;
    if std::io::stdout().write_all(text.as_bytes()).is_err() {
        std::process::exit(0);
    }
}

/// Read `path` and parse it (a trace with [`parse_jsonl`], a results
/// document with [`parse_profile`]), or exit 1 naming it.
fn load<T, E: std::fmt::Display>(path: &str, parse: fn(&str) -> Result<T, E>) -> T {
    parse(&read(path)).unwrap_or_else(|e| fail(&format!("{path}: {e}")))
}

/// The text of `path`, or exit 1 naming it.
fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")))
}

/// The value of `flag` if `arg` is it — `flag=value`, or `flag` with
/// the value in the next argument, which is then taken from `args`.
fn take_value<'a>(
    arg: &'a str,
    flag: &str,
    args: &mut impl Iterator<Item = &'a String>,
) -> Option<&'a str> {
    if arg == flag {
        args.next().map(String::as_str)
    } else {
        arg.strip_prefix(flag)?.strip_prefix('=')
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or_else(|| usage_error("missing command"));
    match cmd {
        "list" => {
            let [path] = &args[1..] else { usage_error("list takes <trace.jsonl>") };
            let events = load(path, parse_jsonl);
            let sums = trace_summaries(&events);
            let mut out = format!("{} trace(s)\n", sums.len());
            for s in sums {
                let close = s.close_t_us.map_or("?".to_string(), |c| c.to_string());
                let status = s.status.as_deref().unwrap_or("open");
                out.push_str(&format!(
                    "trace {:>6}  {:<16} {:>3} span(s)  [{}..{}µs]  {status}\n",
                    s.trace, s.root_name, s.spans, s.open_t_us, close
                ));
            }
            emit(&out);
        }
        "op" => {
            let [trace_id, path] = &args[1..] else {
                usage_error("op takes <trace_id> <trace.jsonl>")
            };
            let trace_id: u64 =
                trace_id.parse().unwrap_or_else(|_| usage_error("<trace_id> must be an integer"));
            let events = load(path, parse_jsonl);
            match build_tree(&events, trace_id) {
                Some(tree) => emit(&render_tree(&tree)),
                None => fail(&format!("no spans for trace {trace_id} in {path}")),
            }
        }
        "explain" => {
            let [t_us, path, flags @ ..] = &args[1..] else {
                usage_error("explain takes <t_us> <trace.jsonl>")
            };
            let t_us: u64 =
                t_us.parse().unwrap_or_else(|_| usage_error("<t_us> must be an integer"));
            let mut window_us: u64 = 500_000;
            let mut flags = flags.iter();
            while let Some(a) = flags.next() {
                match take_value(a, "--window-us", &mut flags) {
                    Some(n) => {
                        window_us =
                            n.parse().unwrap_or_else(|_| usage_error("--window-us expects µs"))
                    }
                    None => usage_error(&format!("unknown flag `{a}`")),
                }
            }
            let events = one_run(path);
            // One span table for the in-flight spans and every chain.
            let spans = SpanTable::of_log(&events);
            let ctx = consistency::attribute_violation_in(&events, &spans, t_us, window_us);
            let mut out = format!("at t={t_us}µs (window {window_us}µs): {}\n", ctx.verdict());
            for (reason, n) in &ctx.drops_by_reason {
                out.push_str(&format!("  drops[{reason}] = {n}\n"));
            }
            if !ctx.crashed_nodes.is_empty() {
                out.push_str(&format!("  nodes down: {:?}\n", ctx.crashed_nodes));
            }
            if let Some(ae) = ctx.since_anti_entropy_us {
                out.push_str(&format!("  last anti-entropy round {ae}µs earlier\n"));
            }
            if ctx.in_flight_spans.is_empty() {
                out.push_str("  no operation spans in flight\n");
            }
            for s in &ctx.in_flight_spans {
                out.push_str(&format!(
                    "  in flight: {} #{} (trace {}, node {}) open since {}µs\n",
                    s.name, s.span, s.trace, s.node, s.open_t_us
                ));
                // Walk the causal chain from this span to its trace
                // root: the path the operation took to get here.
                for (i, link) in spans.causal_chain(s.span).iter().enumerate().skip(1) {
                    out.push_str(&format!(
                        "  {:>width$}caused by {} #{} (node {}) opened at {}µs\n",
                        "",
                        link.name,
                        link.span,
                        link.node,
                        link.open_t_us,
                        width = 2 + 2 * i
                    ));
                }
            }
            emit(&out);
        }
        "chrome" => {
            let (path, out) = match &args[1..] {
                [p] => (p, None),
                [p, flag, o] if flag == "-o" || flag == "--out" => (p, Some(o)),
                _ => usage_error("chrome takes <trace.jsonl> [-o <out.json>]"),
            };
            let json = chrome_trace(&load(path, parse_jsonl));
            match out {
                Some(out) => {
                    std::fs::write(out, &json)
                        .unwrap_or_else(|e| fail(&format!("cannot write {out}: {e}")));
                    eprintln!("[chrome trace saved to {out}]");
                }
                None => emit(&format!("{json}\n")),
            }
        }
        "check" => {
            let rest = &args[1..];
            if rest.iter().any(|a| a == "--stream") {
                check_stream(rest);
                return;
            }
            let [path] = rest else { usage_error("check takes <trace.jsonl>") };
            let report = check_spans(&load(path, parse_jsonl));
            emit(&format!("{report}\n"));
            if !report.ok() {
                std::process::exit(1);
            }
        }
        "prof" => prof(&args[1..]),
        other => usage_error(&format!("unknown command `{other}`")),
    }
}

/// The events of `path`, which must hold one run: a `seq` of 0 after the
/// first event starts another run, on a clock of its own, so no instant
/// `t_us` is shared by two and `explain` refuses such a log (exit 1).
fn one_run(path: &str) -> Vec<obs::TracedEvent> {
    let text = read(path);
    let events = parse_jsonl(&text).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
    let starts: Vec<usize> = (1..events.len()).filter(|&i| events[i].seq == 0).collect();
    if let Some(&second) = starts.first() {
        let mut lines = text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty());
        let line = lines.nth(second).map_or(0, |(n, _)| n + 1);
        fail(&format!(
            "{path}: {} runs, the second from line {line}; explain answers for one run: give \
             it one cell's trace",
            starts.len() + 1
        ));
    }
    events
}

/// `prof top|diff|folded`: the views of a `--profile` results document.
fn prof(args: &[String]) {
    let (cmd, rest) = args.split_first().unwrap_or_else(|| usage_error("missing prof command"));
    let takes = match cmd.as_str() {
        "top" | "folded" => "<results.json>",
        "diff" => "<old.json> <new.json>",
        other => usage_error(&format!("unknown command `prof {other}`")),
    };
    let inputs = takes.split(' ').count();
    if rest.len() < inputs {
        usage_error(&format!("prof {cmd} takes {takes}"));
    }
    let (paths, flags) = rest.split_at(inputs);
    let mut weight = FoldWeight::Calls;
    let mut k = 10usize;
    let mut flags = flags.iter();
    while let Some(a) = flags.next() {
        if let Some(by) = take_value(a, "--by", &mut flags) {
            weight = FoldWeight::from_name(by).unwrap_or_else(|_| {
                usage_error(&format!("--by expects calls|time|alloc, got {by:?}"))
            });
        } else if let Some(n) = take_value(a, "-k", &mut flags) {
            k = n.parse().unwrap_or_else(|_| usage_error("-k expects a positive integer"));
        } else {
            usage_error(&format!("unknown flag `{a}`"));
        }
    }
    let reports: Vec<_> = paths.iter().map(|path| load(path, parse_profile)).collect();
    match cmd.as_str() {
        "top" => {
            let mut out = format!(
                "{:>12}  {:>14}  {:>10}  {:>14}  cell\n",
                "calls", "alloc_bytes", "allocs", "time_total_ns"
            );
            for (scheme, h) in top_rows(&reports[0], weight, k) {
                out.push_str(&format!(
                    "{:>12}  {:>14}  {:>10}  {:>14}  {scheme};{}\n",
                    h.invocations,
                    h.alloc_bytes,
                    h.alloc_count,
                    h.time_total_ns,
                    h.frame()
                ));
            }
            emit(&out);
        }
        "diff" => {
            let diff = diff_rows(&reports[0], &reports[1], weight);
            if diff.is_empty() {
                emit("no differences\n");
                return;
            }
            let mut out = format!("{:>14}  {:>14}  {:>9}  cell\n", "old", "new", "change");
            for d in &diff {
                let pct = d.pct();
                let change =
                    if pct.is_infinite() { "+new".to_string() } else { format!("{pct:+.1}%") };
                out.push_str(&format!(
                    "{:>14}  {:>14}  {:>9}  {};{}\n",
                    d.old, d.new, change, d.scheme, d.frame
                ));
            }
            emit(&out);
        }
        _ => emit(&reports[0].to_folded(weight)),
    }
}

/// `check --stream`: run the incremental consistency checkers over the
/// log's `op_complete` events, line by line, one report per run. Reads
/// stdin when the path is `-`, so a live trace pipe can be monitored as
/// it grows. Exits 1 if any run flagged a violation.
fn check_stream(rest: &[String]) {
    use std::io::BufRead;
    let mut path: Option<String> = None;
    let mut window_ms: Option<u64> = None;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        if a == "--stream" {
            continue;
        }
        match take_value(a, "--window-ms", &mut it) {
            Some(n) => {
                window_ms =
                    Some(n.parse().unwrap_or_else(|_| usage_error("--window-ms expects ms")))
            }
            None if path.is_none() => path = Some(a.clone()),
            None => usage_error(&format!("unknown flag `{a}`")),
        }
    }
    let path = path.unwrap_or_else(|| usage_error("check --stream takes <trace.jsonl | ->"));
    let config = consistency::StreamConfig {
        window: window_ms.map(simnet::Duration::from_millis),
        ..consistency::StreamConfig::default()
    };
    let mut checker = StreamTraceChecker::new(config);
    let (shown, mut input): (&str, Box<dyn BufRead>) = if path == "-" {
        ("stdin", Box::new(std::io::stdin().lock()))
    } else {
        let file = std::fs::File::open(&path)
            .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
        (&path, Box::new(std::io::BufReader::new(file)))
    };
    // One buffer for every line, held to `seq` order as `parse_jsonl`
    // holds a document. A `seq` of 0 after the first event starts the
    // next run (a `--seeds`/`--jobs` grid's log is its cells' logs one
    // after another), which a fresh verifier judges on its own.
    let mut line = String::new();
    let mut order = SeqOrder::default();
    let (mut run, mut run_from, mut violated) = (1, None, false);
    for lineno in 1.. {
        line.clear();
        match input.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => fail(&format!("{shown}: {e}")),
        }
        // Without its line end, as `parse_jsonl` splits a document: `\n`
        // or `\r\n`, and a last line may go without.
        let text = line.lines().next().unwrap_or_default();
        if text.trim().is_empty() {
            continue;
        }
        let ev = parse_line(text, lineno)
            .and_then(|ev| order.check(ev.seq, lineno).map(|()| ev))
            .unwrap_or_else(|e| fail(&format!("{path}: {e}")));
        match run_from {
            Some(from) if ev.seq == 0 => {
                let done = std::mem::replace(&mut checker, StreamTraceChecker::new(config));
                violated |= report_run(done, Some((run, from)));
                (run, run_from) = (run + 1, Some(lineno));
            }
            Some(_) => {}
            None => run_from = Some(lineno),
        }
        checker.observe(&ev);
    }
    violated |= report_run(checker, run_from.filter(|_| run > 1).map(|from| (run, from)));
    if violated {
        std::process::exit(1);
    }
}

/// Finish one run's checker and print its report, headed `run N from
/// line L:` when the log holds more than one run. True if the run
/// flagged a violation.
fn report_run(checker: StreamTraceChecker, head: Option<(usize, usize)>) -> bool {
    let (ops, reports) = checker.finish();
    if let Some((run, from)) = head {
        emit(&format!("run {run} from line {from}:\n"));
    }
    emit(&render_stream_report(ops, &reports));
    !reports.violations.is_empty()
}
