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
