//! EXPERIMENTS.md publishes what `results/*.json` holds. Each measured
//! table there is generated: `bench::table` renders it from the
//! committed results file, and it sits between `<!-- table: <name> -->`
//! and `<!-- /table -->`. Every harness must regenerate its committed
//! file byte for byte, and each experiment's stated shape is checked as
//! a predicate over the committed rows. `profile_protos` must count the
//! calls and allocations its committed profile holds. Nothing here
//! writes under `results/`: the harnesses run in a scratch directory of
//! their own.

use bench::table::{Col, Fmt, Table, TABLES};
use obs::ProfileReport;
use serde::{Deserialize, Value};
use std::path::Path;

fn root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// The `rows` array of the committed `results/<name>.json`.
fn rows(name: &str) -> Vec<Value> {
    let path = root().join(format!("results/{name}.json"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let doc = serde_json::parse_value(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    doc.get("rows").and_then(Value::as_array).expect("a `rows` array").to_vec()
}

/// The text between `name`'s markers in `doc`, if the block is there.
fn block<'a>(doc: &'a str, name: &str) -> Option<&'a str> {
    let open = format!("<!-- table: {name} -->\n");
    let start = doc.find(&open)? + open.len();
    let len = doc[start..].find("<!-- /table -->")?;
    Some(&doc[start..start + len])
}

#[test]
fn experiments_md_tables_are_rendered_from_the_committed_results() {
    let doc = std::fs::read_to_string(root().join("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let mut stale = Vec::new();
    for table in TABLES {
        let want = table.markdown(&Value::Array(rows(table.name))).unwrap();
        if block(&doc, table.name) != Some(want.as_str()) {
            stale.push(format!("<!-- table: {} -->\n{want}<!-- /table -->", table.name));
        }
    }
    assert!(
        stale.is_empty(),
        "EXPERIMENTS.md differs from results/; replace each block with:\n\n{}",
        stale.join("\n\n")
    );
    let blocks = doc.lines().filter(|l| l.starts_with("<!-- table: ")).count();
    assert_eq!(blocks, TABLES.len(), "EXPERIMENTS.md holds a block no table declares");
}

/// Run every harness with `--summary-only` in a scratch directory and
/// compare what it saves with the committed file. A harness whose rows
/// lack a field its table declares (a renamed `Row` field) exits 1 here.
#[test]
fn every_harness_regenerates_its_committed_results_file() {
    let harnesses = [
        env!("CARGO_BIN_EXE_e1_quorum_staleness"),
        env!("CARGO_BIN_EXE_e2_latency_spectrum"),
        env!("CARGO_BIN_EXE_e3_session_guarantees"),
        env!("CARGO_BIN_EXE_e4_partition_availability"),
        env!("CARGO_BIN_EXE_e5_gossip_convergence"),
        env!("CARGO_BIN_EXE_e6_conflict_resolution"),
        env!("CARGO_BIN_EXE_e7_sla_utility"),
        env!("CARGO_BIN_EXE_e8_entity_groups"),
        env!("CARGO_BIN_EXE_e9_bounded_staleness"),
        env!("CARGO_BIN_EXE_e10_sync_cost"),
        env!("CARGO_BIN_EXE_e11_composition_matrix"),
        env!("CARGO_BIN_EXE_e12_ring_scale"),
    ];
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("experiments_doc");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("results")).unwrap();
    for (table, exe) in TABLES.iter().zip(harnesses) {
        assert!(exe.ends_with(table.name), "{exe} is not the harness of {}", table.name);
        let out = std::process::Command::new(exe)
            .args(["--summary-only", "--jobs", "2"])
            .current_dir(&dir)
            .output()
            .expect("spawn harness");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{} failed:\n{stderr}", table.name);
        let file = format!("results/{}.json", table.name);
        let fresh = std::fs::read(dir.join(&file)).unwrap();
        assert!(fresh == std::fs::read(root().join(&file)).unwrap(), "{file} does not regenerate");
    }
}

/// A fresh full `profile_protos` run counts what the committed
/// `results/profile_protos.json` holds: every handler's invocations and
/// allocation tallies, the columns `tracequery prof diff --by calls` and
/// `--by alloc` compare. Wall time is host-dependent and not compared.
#[test]
fn profile_protos_regenerates_its_committed_calls_and_allocations() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("profile_protos");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("results")).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_profile_protos"))
        .args(["--jobs", "2"])
        .current_dir(&dir)
        .output()
        .expect("spawn profile_protos");
    assert!(
        out.status.success(),
        "profile_protos failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let counts = |root: &Path| {
        let path = root.join("results/profile_protos.json");
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = serde_json::parse_value(&text).unwrap();
        let profile =
            doc.get("profile").unwrap_or_else(|| panic!("{}: no profile", path.display()));
        ProfileReport::from_value(profile).unwrap().determinism_key()
    };
    let (committed, fresh) = (counts(root()), counts(&dir));
    let moved: Vec<String> = committed
        .iter()
        .zip(&fresh)
        .filter(|(a, b)| a != b)
        .map(|(a, b)| format!("{};{}: {:?} -> {:?}", a.0, a.1, (a.2, a.3, a.4), (b.2, b.3, b.4)))
        .collect();
    assert!(
        committed.len() == fresh.len() && moved.is_empty(),
        "results/profile_protos.json is stale ({} vs {} handlers; (calls, alloc bytes, allocs) \
         moved in {} cells, first {:?}); regenerate it with `cargo run --release --bin \
         profile_protos`",
        committed.len(),
        fresh.len(),
        moved.len(),
        &moved[..moved.len().min(3)]
    );
}

const DEMO: Table = Table {
    name: "demo",
    title: "demo",
    cols: &[Col("rate", "rate", Fmt::Pct), Col("lat", "lat_ms", Fmt::Fixed(1))],
};

fn demo_row(seeds: u64, lat: Value) -> Value {
    Value::Array(vec![Value::Object(vec![
        ("rate".into(), Value::F64(0.25)),
        ("lat_ms".into(), lat),
        ("lat_ci95".into(), Value::F64(0.04)),
        ("seeds".into(), Value::U64(seeds)),
    ])])
}

#[test]
fn the_renderer_shows_ci_only_for_several_seeds_and_names_what_a_row_lacks() {
    assert_eq!(DEMO.cells(&demo_row(1, Value::F64(1.26))).unwrap(), [["25.0%", "1.3"]]);
    assert_eq!(DEMO.cells(&demo_row(4, Value::F64(1.26))).unwrap(), [["25.0%", "1.3±0.0"]]);
    assert_eq!(DEMO.cells(&demo_row(1, Value::Null)).unwrap(), [["25.0%", "-"]]);
    let text = DEMO.text(&demo_row(1, Value::U64(2))).unwrap();
    assert_eq!(text, "\n== demo ==\n rate  lat\n------------\n25.0%  2.0\n");
    let err = DEMO.cells(&Value::Array(vec![Value::Object(vec![])])).unwrap_err();
    assert!(err.contains("demo") && err.contains("`rate`"), "{err}");
    let err = DEMO.cells(&demo_row(1, Value::String("x".into()))).unwrap_err();
    assert!(err.contains("demo") && err.contains("`lat_ms`"), "{err}");
}

fn num(row: &Value, field: &str) -> f64 {
    row.get(field).and_then(Value::as_f64).unwrap_or_else(|| panic!("no number `{field}`"))
}

fn text<'a>(row: &'a Value, field: &str) -> &'a str {
    row.get(field).and_then(Value::as_str).unwrap_or_else(|| panic!("no string `{field}`"))
}

/// The rows whose `field` is `value`, in file order; there must be one.
fn with<'a>(rows: &'a [Value], field: &str, value: &str) -> Vec<&'a Value> {
    let found: Vec<&Value> = rows.iter().filter(|r| text(r, field) == value).collect();
    assert!(!found.is_empty(), "no row with {field} = {value}");
    found
}

/// The one row whose `field` is `value`.
fn one<'a>(rows: &'a [Value], field: &str, value: &str) -> &'a Value {
    match with(rows, field, value)[..] {
        [row] => row,
        _ => panic!("several rows with {field} = {value}"),
    }
}

/// The first row `pred` accepts; there must be one.
fn pick<'a>(rows: &[&'a Value], pred: impl Fn(&Value) -> bool) -> &'a Value {
    rows.iter().copied().find(|r| pred(r)).expect("a row the claim is about")
}

/// `field` rises strictly along `rows`.
fn rising(rows: &[&Value], field: &str) -> bool {
    rows.windows(2).all(|w| num(w[0], field) < num(w[1], field))
}

/// What each section of EXPERIMENTS.md says its table shows, checked on
/// the committed rows. A claim the data contradicts is fixed in the
/// prose, never here.
#[test]
fn the_committed_rows_show_the_shapes_experiments_md_states() {
    let mut broken = Vec::new();
    let mut claim = |ok: bool, what: &str| {
        if !ok {
            broken.push(what.to_string());
        }
    };

    let e1 = rows("e1_quorum_staleness");
    let quorum = |r: &Value| (num(r, "n"), num(r, "r"), num(r, "w"));
    let repair = |r: &Value| r.get("read_repair") == Some(&Value::Bool(true));
    for row in &e1 {
        let (n, r, w) = quorum(row);
        let intersecting = row.get("intersecting") == Some(&Value::Bool(true));
        claim(intersecting == (r + w > n), "E1: `intersecting` is R+W>N");
        claim(!intersecting || num(row, "p_stale") == 0.0, "E1: every R+W>N row reads 0 % stale");
        if (r, w) == (1.0, 1.0) {
            claim(num(row, "p_stale") > 0.0, "E1: R=W=1 reads stale values");
        }
    }
    let plain: Vec<&Value> = e1.iter().filter(|r| !repair(r)).collect();
    for a in &plain {
        for b in &plain {
            let ((na, ra, wa), (nb, rb, wb)) = (quorum(a), quorum(b));
            if na == nb && ra <= rb && wa <= wb {
                claim(
                    num(b, "p_stale") <= num(a, "p_stale"),
                    "E1: raising R or W never raises staleness",
                );
            }
        }
    }
    let rr = pick(&e1.iter().collect::<Vec<_>>(), repair);
    let base = pick(&plain, |r| quorum(r) == quorum(rr));
    for field in ["p_stale", "p_t_gt_10ms"] {
        claim(num(rr, field) < num(base, field), "E1: read repair trims the rate and the tail");
    }

    let e2 = rows("e2_latency_spectrum");
    let local = ["eventual(eager+gossip,Lww)", "causal", "primary-async(100ms)", "primary-sync"];
    let local_p50 = local.iter().map(|s| num(one(&e2, "scheme", s), "read_p50_ms"));
    let local_p50 = local_p50.fold(0.0, f64::max);
    claim(local_p50 < 2.0, "E2: local reads answer in ~1 ms");
    for wan in ["quorum(N=5,R=2,W=2)", "quorum(N=5,R=3,W=3)", "paxos"] {
        let p50 = num(one(&e2, "scheme", wan), "read_p50_ms");
        claim(p50 >= 10.0 * local_p50, "E2: quorum and Paxos reads are ≥10× local reads");
    }
    let paxos = num(one(&e2, "scheme", "paxos"), "read_p50_ms");
    claim(paxos > 50.0, "E2: Paxos reads pay a WAN majority commit (> 50 ms)");
    let slowest = e2.iter().map(|r| num(r, "write_p50_ms")).fold(0.0, f64::max);
    let sync = one(&e2, "scheme", "primary-sync");
    claim(num(sync, "write_p50_ms") == slowest, "E2: sync-primary writes are the slowest");
    for row in &e2 {
        let avail = num(row, "availability");
        claim((avail < 1.0) == (row == sync), "E2: only sync-primary loses availability");
    }

    let e3 = rows("e3_session_guarantees");
    let none = with(&e3, "config", "none");
    for rate in ["ryw_rate", "mr_rate", "mw_rate", "wfr_rate"] {
        claim(rising(&none, rate), "E3: every violation rate rises with gossip lag");
        claim(num(one(&e3, "config", "all enforced"), rate) == 0.0, "E3: all enforced zeroes all");
    }
    claim(
        num(one(&e3, "config", "RYW enforced"), "ryw_rate") == 0.0,
        "E3: RYW enforced zeroes RYW",
    );
    claim(num(one(&e3, "config", "MR enforced"), "mr_rate") == 0.0, "E3: MR enforced zeroes MR");
    let unenforced = none.iter().find(|r| num(r, "gossip_ms") == 100.0).expect("none@100");
    for config in ["RYW enforced", "MR enforced", "all enforced"] {
        let p99 = num(one(&e3, "config", config), "read_p99_ms");
        claim(p99 > num(unenforced, "read_p99_ms"), "E3: read-side enforcement costs read p99");
    }

    let e4 = rows("e4_partition_availability");
    let during = |s: &str| num(one(&e4, "scheme", s), "during_partition");
    for s in ["eventual(eager+gossip,Lww)", "quorum(N=3,R=1,W=1)", "causal"] {
        claim(during(s) == 1.0, "E4: eventual, R=W=1 and causal keep 100 % in the partition");
        claim(
            num(one(&e4, "scheme", s), "overall") == 1.0,
            "E4: eventual, R=W=1 and causal lose no op at all",
        );
    }
    let majority = during("quorum(N=3,R=2,W=2)");
    claim(majority < 1.0, "E4: the majority quorum loses the minority side");
    claim(during("sloppy-quorum(N=3,R=2,W=2,+2)") > majority, "E4: hinted handoff lifts it");
    let worst = e4.iter().map(|r| num(r, "during_partition")).fold(1.0, f64::min);
    claim(during("primary-sync") == worst, "E4: primary-sync loses the most");
    claim(during("primary-async-failover(50ms)") > worst, "E4: failover rescues primary-copy");

    let e5 = rows("e5_gossip_convergence");
    let all5: Vec<&Value> = e5.iter().collect();
    let conv = |replicas: f64, fanout: f64| {
        let row = pick(&all5, |r| num(r, "replicas") == replicas && num(r, "fanout") == fanout);
        num(row, "mean_convergence_ms")
    };
    claim(e5.iter().all(|r| num(r, "unconverged") == 0.0), "E5: every write converges");
    for fanout in [1.0, 2.0, 3.0] {
        let grows = conv(4.0, fanout) < conv(8.0, fanout) && conv(8.0, fanout) < conv(16.0, fanout);
        claim(grows, "E5: convergence time grows with cluster size");
    }
    for n in [4.0, 8.0, 16.0] {
        let (f1, f2, f3) = (conv(n, 1.0), conv(n, 2.0), conv(n, 3.0));
        claim(f2 < f1, "E5: fanout 2 converges faster than fanout 1");
        claim((f3 - f2).abs() < f1 - f2, "E5: fanout 3 changes less than fanout 2 did");
    }

    let e6 = rows("e6_conflict_resolution");
    for row in with(&e6, "mode", "CRDT counter") {
        claim(num(row, "lost") == 0.0, "E6: the CRDT loses nothing");
        claim(num(row, "observed") == num(row, "expected"), "E6: the CRDT sum is exact");
    }
    let lww = with(&e6, "mode", "LWW (RMW)");
    claim(rising(&lww, "writers") && rising(&lww, "loss_rate"), "E6: LWW loss rises with writers");
    claim(lww.iter().all(|r| num(r, "loss_rate") > 0.0), "E6: LWW loses increments");

    let e7 = rows("e7_sla_utility");
    let strategy = |portfolio: &str, strategy: &str| {
        pick(&with(&e7, "portfolio", portfolio), |r| text(r, "strategy") == strategy)
    };
    for portfolio in ["password", "shopping-cart", "web-app"] {
        let rows = with(&e7, "portfolio", portfolio);
        let best = rows.iter().map(|r| num(r, "mean_utility")).fold(0.0, f64::max);
        let sla = num(strategy(portfolio, "sla-driven"), "mean_utility");
        claim(sla >= best - 0.001, "E7: sla-driven is within 0.001 of the best utility");
    }
    let cart = |s: &str| num(strategy("shopping-cart", s), "mean_latency_ms");
    claim(cart("sla-driven") < 0.5 * cart("always-primary"), "E7: the cart mostly reads locally");
    let password = strategy("password", "sla-driven");
    claim(num(password, "primary_fraction") == 1.0, "E7: password stays on the primary");

    let e8 = rows("e8_entity_groups");
    let spans = ["1 group", "2 groups (2PC)", "2 groups (2PC+reg2)"];
    for span in spans {
        claim(rising(&with(&e8, "span", span), "abort_rate"), "E8: aborts rise with skew");
    }
    let cell =
        |span: &str, theta: f64| pick(&with(&e8, "span", span), |r| num(r, "theta") == theta);
    for theta in [0.2, 0.9] {
        let (one_group, two_pc, reg) =
            (cell(spans[0], theta), cell(spans[1], theta), cell(spans[2], theta));
        claim(
            num(two_pc, "abort_rate") > 2.0 * num(one_group, "abort_rate"),
            "E8: 2PC > 2× aborts",
        );
        claim(
            num(two_pc, "mean_commit_ms") > 1.5 * num(one_group, "mean_commit_ms"),
            "E8: crossing groups costs > 1.5× commit latency",
        );
        claim(
            num(reg, "mean_commit_ms") > num(two_pc, "mean_commit_ms") + 5.0,
            "E8: the registrar adds a round",
        );
    }
    claim(e8.iter().all(|r| num(r, "timed_out") == 0.0), "E8: no transaction timed out");

    let e9 = rows("e9_bounded_staleness");
    let by_lag: Vec<&Value> = e9.iter().collect();
    claim(rising(&by_lag, "ship_ms"), "E9: rows go by lag");
    claim(
        rising(&by_lag, "p_stale") && rising(&by_lag, "mean_t_ms"),
        "E9: staleness grows with lag",
    );
    let bounds = [(25.0, "p_gt_25"), (50.0, "p_gt_50"), (100.0, "p_gt_100"), (250.0, "p_gt_250")];
    for row in &e9 {
        for pair in bounds.windows(2) {
            claim(num(row, pair[0].1) >= num(row, pair[1].1), "E9: P(t>B) falls as B grows");
        }
        for (bound, field) in bounds {
            if bound >= num(row, "ship_ms") {
                claim(num(row, field) == 0.0, "E9: P(t>B) = 0 whenever B ≥ lag");
            }
        }
    }

    let e10 = rows("e10_sync_cost");
    let of = |schemes: &[&str], field: &str| -> Vec<f64> {
        schemes.iter().map(|s| num(one(&e10, "scheme", s), field)).collect()
    };
    let one_rtt = ["eventual(eager+gossip,Lww)", "primary-async(50ms)"];
    let two_rtt = ["quorum(N=3,R=2,W=2)", "primary-sync", "paxos"];
    let max = |v: Vec<f64>| v.into_iter().fold(0.0, f64::max);
    let min = |v: Vec<f64>| v.into_iter().fold(f64::INFINITY, f64::min);
    claim(
        min(of(&two_rtt, "write_p50_ms")) > 1.5 * max(of(&one_rtt, "write_p50_ms")),
        "E10: 2-RTT schemes write slower than 1-RTT ones",
    );
    claim(
        min(of(&one_rtt, "ops_per_sec")) > max(of(&two_rtt, "ops_per_sec")),
        "E10: throughput is the mirror image",
    );
    // The LAN's one-way median is 0.5 ms, so one round trip is ~1 ms.
    claim(
        min(of(&one_rtt, "write_p50_ms")) >= 0.9 && max(of(&one_rtt, "write_p50_ms")) <= 1.2,
        "E10: async primary and local eventual ack in ~1 RTT",
    );
    claim(min(of(&two_rtt, "write_p50_ms")) >= 1.9, "E10: sync, quorum and Paxos pay ~2 RTT");

    let e11 = rows("e11_composition_matrix");
    let zero_or_null =
        |r: &Value, f: &str| r.get(f).is_some_and(|v| v.as_f64().is_none_or(|x| x == 0.0));
    let async_ship = "primary+async-ship(50ms,failover)+lww";
    for row in &e11 {
        let clean = ["stale_reads", "ryw_violations", "mr_value_violations"]
            .iter()
            .all(|f| zero_or_null(row, f));
        claim(clean != (text(row, "composition") == async_ship), "E11: only async-ship violates");
    }
    let crdt = one(&e11, "composition", "mm+gossip+crdt");
    claim(crdt.get("stale_reads") == Some(&Value::Null), "E11: stamp checkers skip the CRDT row");
    claim(num(crdt, "mr_value_violations") == 0.0, "E11: CRDT reads are value-monotonic");
    let write_p99 = |c: &str| num(one(&e11, "composition", c), "write_p99_ms");
    claim(
        write_p99("mm+eager-acked(2)+lww") > 1.5 * write_p99("mm+eager+gossip+lww"),
        "E11: eager-acked pays the full fan-in",
    );

    let e12 = rows("e12_ring_scale");
    for row in &e12 {
        claim(num(row, "hints_drained") == num(row, "hints_stored"), "E12: every hint drains");
        claim(num(row, "stale_reads") == 0.0, "E12: no stale reads");
        let mean = num(row, "ring_mean_keys_per_node");
        claim(mean == 300_000.0 / num(row, "nodes"), "E12: mean keys per node is 3·100k/nodes");
        claim(num(row, "ring_max_keys_per_node") >= mean, "E12: max >= mean");
    }
    for churn in [false, true] {
        let rows: Vec<&Value> =
            e12.iter().filter(|r| (num(r, "churn_events") > 0.0) == churn).collect();
        claim(rising(&rows, "nodes"), "E12: rows go by cluster size");
        for w in rows.windows(2) {
            claim(
                num(w[0], "availability") <= num(w[1], "availability"),
                "E12: availability climbs",
            );
            claim(num(w[0], "hints_stored") >= num(w[1], "hints_stored"), "E12: hints fall");
        }
        let rebalanced: Vec<f64> = rows.iter().map(|r| num(r, "rebalanced_keys")).collect();
        if churn {
            claim(rebalanced.windows(2).all(|w| w[0] > w[1]), "E12: rebalancing falls with size");
        } else {
            claim(rebalanced.iter().all(|&k| k == 0.0), "E12: no churn, no rebalancing");
        }
    }

    assert!(broken.is_empty(), "results/ contradicts EXPERIMENTS.md:\n{}", broken.join("\n"));
}
