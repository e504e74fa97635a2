//! `tracequery`: query a JSONL trace exported with `--trace-out`.
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
//! ```
//!
//! `check --stream` feeds the log's `op_complete` events through the
//! incremental consistency checkers line by line — pass `-` to read
//! from stdin, so a live `--trace-out` pipe can be monitored while the
//! run is still producing it. `--window-ms N` bounds checker memory by
//! evicting state older than N milliseconds behind the event clock
//! (violations older than the window can then go unreported; see
//! `docs/CHECKERS.md`).
//!
//! Exit codes: `0` success, `1` analysis failure (parse error, unknown
//! trace id, conservation or consistency violation), `2` usage error.

use obs::TracedEvent;
use obs_tools::{
    build_tree, check_spans, chrome_trace, parse_jsonl, parse_line, render_stream_report,
    render_tree, trace_summaries, StreamTraceChecker,
};

const USAGE: &str = "usage:
  tracequery list    <trace.jsonl>
  tracequery op      <trace_id> <trace.jsonl>
  tracequery explain <t_us> <trace.jsonl> [--window-us N]
  tracequery chrome  <trace.jsonl> [-o <out.json>]
  tracequery check   <trace.jsonl>
  tracequery check --stream <trace.jsonl | -> [--window-ms N]";

fn usage_error(msg: &str) -> ! {
    eprintln!("tracequery: {msg}\n{USAGE}");
    std::process::exit(2);
}

/// Write to stdout without panicking on a closed pipe (`tracequery list
/// huge.jsonl | head` must exit cleanly).
fn emit(text: &str) {
    use std::io::Write;
    if std::io::stdout().write_all(text.as_bytes()).is_err() {
        std::process::exit(0);
    }
}

fn load(path: &str) -> Vec<TracedEvent> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("tracequery: cannot read {path}: {e}");
        std::process::exit(1);
    });
    parse_jsonl(&text).unwrap_or_else(|e| {
        eprintln!("tracequery: {path}: {e}");
        std::process::exit(1);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or_else(|| usage_error("missing command"));
    match cmd {
        "list" => {
            let [path] = &args[1..] else { usage_error("list takes <trace.jsonl>") };
            let events = load(path);
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
            let events = load(path);
            match build_tree(&events, trace_id) {
                Some(tree) => emit(&render_tree(&tree)),
                None => {
                    eprintln!("tracequery: no spans for trace {trace_id} in {path}");
                    std::process::exit(1);
                }
            }
        }
        "explain" => {
            let (t_us, path) = match &args[1..] {
                [t, p] | [t, p, ..] => (t, p),
                _ => usage_error("explain takes <t_us> <trace.jsonl>"),
            };
            let t_us: u64 =
                t_us.parse().unwrap_or_else(|_| usage_error("<t_us> must be an integer"));
            let mut window_us: u64 = 500_000;
            let mut rest = args[3..].iter();
            while let Some(a) = rest.next() {
                match a
                    .strip_prefix("--window-us=")
                    .map(str::to_string)
                    .or_else(|| (a == "--window-us").then(|| rest.next().cloned()).flatten())
                {
                    Some(n) => {
                        window_us =
                            n.parse().unwrap_or_else(|_| usage_error("--window-us expects µs"))
                    }
                    None => usage_error(&format!("unknown flag `{a}`")),
                }
            }
            let events = load(path);
            let ctx = consistency::attribute_violation(&events, t_us, window_us);
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
                for (i, link) in
                    consistency::causal_chain(&events, s.span).iter().enumerate().skip(1)
                {
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
                [p] => (p.clone(), None),
                [p, flag, o] if flag == "-o" || flag == "--out" => (p.clone(), Some(o.clone())),
                _ => usage_error("chrome takes <trace.jsonl> [-o <out.json>]"),
            };
            let events = load(&path);
            let json = chrome_trace(&events);
            match out {
                Some(out) => {
                    std::fs::write(&out, &json).unwrap_or_else(|e| {
                        eprintln!("tracequery: cannot write {out}: {e}");
                        std::process::exit(1);
                    });
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
            let report = check_spans(&load(path));
            emit(&format!("{report}\n"));
            if !report.ok() {
                std::process::exit(1);
            }
        }
        other => usage_error(&format!("unknown command `{other}`")),
    }
}

/// `check --stream`: run the incremental consistency checkers over the
/// log's `op_complete` events, line by line. Reads stdin when the path
/// is `-`, so a live trace pipe can be monitored as it grows. Exits 1
/// if any violation was flagged.
fn check_stream(rest: &[String]) {
    use std::io::BufRead;
    let mut path: Option<String> = None;
    let mut window_ms: Option<u64> = None;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        if a == "--stream" {
            continue;
        }
        match a
            .strip_prefix("--window-ms=")
            .map(str::to_string)
            .or_else(|| (a == "--window-ms").then(|| it.next().cloned()).flatten())
        {
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
        let file = std::fs::File::open(&path).unwrap_or_else(|e| {
            eprintln!("tracequery: cannot read {path}: {e}");
            std::process::exit(1);
        });
        (&path, Box::new(std::io::BufReader::new(file)))
    };
    // One buffer for every line.
    let mut line = String::new();
    for lineno in 1.. {
        line.clear();
        match input.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("tracequery: {shown}: {e}");
                std::process::exit(1);
            }
        }
        // Without its line end, as `parse_jsonl` splits a document: `\n`
        // or `\r\n`, and a last line may go without.
        let text = line.lines().next().unwrap_or_default();
        if text.trim().is_empty() {
            continue;
        }
        let ev = parse_line(text, lineno).unwrap_or_else(|e| {
            eprintln!("tracequery: {path}: {e}");
            std::process::exit(1);
        });
        checker.observe(&ev);
    }
    let (ops, reports) = checker.finish();
    emit(&render_stream_report(ops, &reports));
    if !reports.violations.is_empty() {
        std::process::exit(1);
    }
}
