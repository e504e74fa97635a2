//! Offline analysis of JSONL trace files (`--trace-out`).
//!
//! The simulator records a structured event log — protocol events plus
//! causal span open/close pairs (see `docs/METRICS.md` and
//! `docs/TRACING.md`) — and exports it as one JSON object per line.
//! This crate is the offline side: it holds analysis only. The decoder
//! is `obs::event`'s (one table declares both directions of the wire
//! format there; [`parse`] re-exports it), [`tree`] reconstructs per-operation span trees, [`check`] verifies
//! the span conservation invariants, [`stream`] runs the incremental
//! consistency checkers over the `op_complete` events (file or live
//! pipe, bounded memory), and [`chrome`] converts a trace to Chrome
//! `trace_event` JSON for Perfetto / `chrome://tracing`.
//!
//! The `tracequery` binary is the CLI front-end:
//!
//! ```text
//! tracequery list    trace.jsonl            # one line per trace
//! tracequery op 42   trace.jsonl            # span tree of trace 42
//! tracequery explain 1500000 trace.jsonl    # why was t=1.5s anomalous?
//! tracequery chrome  trace.jsonl -o out.json
//! tracequery check   trace.jsonl            # span conservation; exit 1 on violation
//! tracequery check --stream trace.jsonl     # streaming consistency check (`-` = stdin)
//! ```
//!
//! [`prof`] is the offline side of the in-sim handler profiler
//! (`--profile` runs; see `docs/PROFILING.md`): it reads a results
//! document back into the [`obs::ProfileReport`] that wrote it, for the
//! same binary's `prof` subcommands:
//!
//! ```text
//! tracequery prof top    results/profile_protos.json     # hottest handlers
//! tracequery prof diff   old.json new.json               # regression percentages
//! tracequery prof folded results/profile_protos.json     # flamegraph stacks
//! ```

#![warn(missing_docs)]

pub mod check;
pub mod chrome;
pub mod parse;
pub mod prof;
pub mod stream;
pub mod tree;

pub use check::{check_spans, CheckReport};
pub use chrome::chrome_trace;
pub use parse::{parse_jsonl, parse_line, ParseError, SeqOrder};
pub use prof::{diff_rows, find_profile, parse_profile, top_rows, DiffRow};
pub use stream::{op_record, render_stream_report, StreamTraceChecker};
pub use tree::{build_tree, render_tree, trace_summaries, SpanNode, SpanTree, TraceSummary};
