//! `tracequery` is one binary with one flag reader: a misspelt, malformed
//! or value-less flag of any subcommand — the `prof` ones that used to
//! be `profquery` included — exits 2 with the usage before any file is
//! read, and a document that does not hold what it should exits 1
//! naming what is missing.

use std::process::Command;

const PROFILE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/profile_protos.json");

fn tracequery(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_tracequery")).args(args).output().expect("spawn");
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    (out.status.code(), text(&out.stdout), text(&out.stderr))
}

#[test]
fn bad_flags_exit_2_with_the_usage() {
    for (args, complaint) in [
        (&["prof", "top", PROFILE, "--bogus"][..], "unknown flag `--bogus`"),
        (&["prof", "top", PROFILE, "--by"], "unknown flag `--by`"),
        (&["prof", "diff", PROFILE, PROFILE, "--by=sideways"], "--by expects calls|time|alloc"),
        (&["prof", "folded", PROFILE, "-k", "many"], "-k expects a positive integer"),
        (&["prof", "top"], "prof top takes <results.json>"),
        (&["prof", "diff", PROFILE], "prof diff takes <old.json> <new.json>"),
        (&["prof", "flame", PROFILE], "unknown command `prof flame`"),
        (&["prof"], "missing prof command"),
        (&["explain", "7", "/nonexistent.jsonl", "--bogus"], "unknown flag `--bogus`"),
        (&["explain", "7", "/nonexistent.jsonl", "--window-us=soon"], "--window-us expects µs"),
        (&["check", "--stream", "/nonexistent.jsonl", "--window-ms"], "unknown flag `--window-ms`"),
        (&["frobnicate"], "unknown command `frobnicate`"),
        (&[], "missing command"),
    ] {
        let (code, stdout, stderr) = tracequery(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?} wrote {stdout}");
        assert!(stderr.starts_with(&format!("tracequery: {complaint}")), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:") && stderr.contains("tracequery prof top"), "{stderr}");
    }
}

#[test]
fn the_prof_views_read_the_checked_in_profile() {
    let (code, top, _) = tracequery(&["prof", "top", PROFILE, "--by=alloc", "-k", "3"]);
    assert_eq!((code, top.lines().count()), (Some(0), 4), "{top}");
    let (code, same, _) = tracequery(&["prof", "diff", PROFILE, PROFILE]);
    assert_eq!((code, same.as_str()), (Some(0), "no differences\n"));
    let folded = std::fs::read_to_string(PROFILE.replace(".json", ".folded")).unwrap();
    assert_eq!(tracequery(&["prof", "folded", PROFILE]), (Some(0), folded, String::new()));
}

/// A row that lost a member is no row of zeros (`prof diff` would call
/// that "no differences"): exit 1, naming the scheme, the row, the field.
#[test]
fn a_profile_row_without_a_field_is_exit_1_naming_it() {
    let whole = std::fs::read_to_string(PROFILE).unwrap();
    let member = whole.find("\"alloc_bytes\"").expect("a handler row");
    let end = member + whole[member..].find(',').unwrap() + 1;
    let damaged = std::env::temp_dir().join(format!("tracequery_cli_{}.json", std::process::id()));
    std::fs::write(&damaged, format!("{}{}", &whole[..member], &whole[end..])).unwrap();
    let path = damaged.to_str().unwrap();
    for args in [&["prof", "top", path][..], &["prof", "diff", PROFILE, path]] {
        let (code, stdout, stderr) = tracequery(args);
        assert_eq!((code, stdout.as_str()), (Some(1), ""), "{args:?}: {stderr}");
        let named = "schemes[0].handlers[0]: missing field `alloc_bytes`";
        assert_eq!(stderr, format!("tracequery: {path}: {named}\n"));
    }
    std::fs::remove_file(&damaged).unwrap();
}

/// Two neighbouring lines swapped: `check` and `check --stream` both
/// exit 1 naming the later line and both `seq` numbers, and neither
/// panics nor judges the swapped log.
#[test]
fn a_log_whose_seq_goes_back_is_exit_1_naming_the_line() {
    let line = |seq: u64, t_us: u64| {
        format!(
            r#"{{"seq":{seq},"t_us":{t_us},"type":"op_complete","session":1,"op":{seq},"key":3,"kind":"write","ok":true,"invoked_us":0,"replica":0,"value":{seq},"values":[]}}"#
        )
    };
    let lines: Vec<String> = (0..4).map(|seq| line(seq, 10 * (seq + 1))).collect();
    let log = std::env::temp_dir().join(format!("tracequery_cli_{}.jsonl", std::process::id()));
    let path = log.to_str().unwrap();
    std::fs::write(&log, lines.join("\n")).unwrap();
    for args in [&["check", path][..], &["check", "--stream", path]] {
        assert_eq!(tracequery(args).0, Some(0), "{args:?} on the log as written");
    }
    let swapped = [&lines[0], &lines[2], &lines[1], &lines[3]];
    std::fs::write(&log, swapped.map(String::as_str).join("\n")).unwrap();
    for args in [&["check", path][..], &["check", "--stream", path]] {
        let (code, stdout, stderr) = tracequery(args);
        assert_eq!((code, stdout.as_str()), (Some(1), ""), "{args:?}: {stderr}");
        assert!(stderr.starts_with(&format!("tracequery: {path}: line 3: `seq` 1 after `seq` 2")));
    }
    std::fs::remove_file(&log).unwrap();
}

/// Session 1 writes key 1 at `stamp` and reads it back: one run's
/// `op_complete` lines, numbered from `seq` `first`.
fn write_then_read(first: u64, stamp: u64) -> [String; 2] {
    let value = 10 * stamp;
    [
        format!(
            r#"{{"seq":{first},"t_us":1000,"type":"op_complete","session":1,"op":1,"key":1,"kind":"write","ok":true,"invoked_us":500,"replica":0,"value":{value},"values":[],"stamp":[{stamp},0]}}"#
        ),
        format!(
            r#"{{"seq":{},"t_us":2000,"type":"op_complete","session":1,"op":2,"key":1,"kind":"read","ok":true,"invoked_us":1500,"replica":0,"values":[{value}],"stamp":[{stamp},0]}}"#,
            first + 1
        ),
    ]
}

/// A grid's log is its cells' logs one after another, each numbered from
/// `seq` 0. `check --stream` judges each run with a verifier of its own:
/// two runs, each clean alone, print two clean blocks (a blank line
/// between them counts as a line) and exit 0. The same four lines as
/// one run mix the two histories and flag what neither holds.
#[test]
fn each_run_of_a_log_is_checked_alone() {
    let dir = std::env::temp_dir();
    let file = |name: &str| dir.join(format!("tracequery_cli_{}_{name}.jsonl", std::process::id()));
    let (runs, first, second, mixed) = (file("runs"), file("run1"), file("run2"), file("mixed"));
    let [w1, r1] = write_then_read(0, 5);
    let [w2, r2] = write_then_read(0, 2);
    std::fs::write(&runs, [&w1, &r1, "", &w2, &r2].join("\n")).unwrap();
    std::fs::write(&first, [&w1[..], &r1].join("\n")).unwrap();
    std::fs::write(&second, [&w2[..], &r2].join("\n")).unwrap();
    let [w2_on, r2_on] = write_then_read(2, 2);
    std::fs::write(&mixed, [&w1[..], &r1, &w2_on, &r2_on].join("\n")).unwrap();
    let path = |p: &std::path::PathBuf| p.to_str().unwrap().to_string();

    let alone = |p| {
        let (code, stdout, stderr) = tracequery(&["check", "--stream", &path(p)]);
        assert_eq!(code, Some(0), "{stdout}{stderr}");
        assert!(stdout.starts_with("checked 2 op(s): 0 violation(s)"), "{stdout}");
        stdout
    };
    let want =
        format!("run 1 from line 1:\n{}run 2 from line 4:\n{}", alone(&first), alone(&second));
    assert_eq!(tracequery(&["check", "--stream", &path(&runs)]), (Some(0), want, String::new()));

    let (code, stdout, _) = tracequery(&["check", "--stream", &path(&mixed)]);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(!stdout.contains("run "), "{stdout}");
    for kind in ["monotonic_writes", "read_your_writes", "monotonic_reads"] {
        assert!(stdout.contains(&format!("VIOLATION {kind} session=1 op=")), "{kind}: {stdout}");
    }
    for p in [runs, first, second, mixed] {
        std::fs::remove_file(p).unwrap();
    }
}

/// `explain` answers for one instant of one run's clock, so a log of
/// several runs is exit 1 naming how many and where the second starts;
/// one run's file is answered.
#[test]
fn explain_refuses_a_log_of_several_runs() {
    let log =
        std::env::temp_dir().join(format!("tracequery_cli_{}_explain.jsonl", std::process::id()));
    let path = log.to_str().unwrap();
    let [w1, r1] = write_then_read(0, 5);
    let [w2, r2] = write_then_read(0, 2);
    std::fs::write(&log, [&w1, &r1, "", &w2, &r2].join("\n")).unwrap();
    let (code, stdout, stderr) = tracequery(&["explain", "1500", path]);
    assert_eq!((code, stdout.as_str()), (Some(1), ""), "{stderr}");
    assert!(
        stderr.starts_with(&format!("tracequery: {path}: 2 runs, the second from line 4;")),
        "{stderr}"
    );
    std::fs::write(&log, [&w1[..], &r1].join("\n")).unwrap();
    let (code, stdout, stderr) = tracequery(&["explain", "1500", path]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.starts_with("at t=1500µs (window 500000µs): no fault active"), "{stdout}");
    std::fs::remove_file(&log).unwrap();
}
