//! Doc-drift guards for the performance contract (docs/PERFORMANCE.md),
//! in the style of the METRICS.md tests in `tests/observability.rs`:
//! every ledger name the doc quotes must exist in `BENCHMARK.json`, the
//! Phase 2 record must quote real profile cells, and the hot-path
//! clippy gate it advertises must exist in CI. Read-only: nothing here
//! writes or regenerates an artifact.

const DOC: &str = include_str!("../docs/PERFORMANCE.md");

/// Extract the names from the markdown table rows (`| \`name\` | ...`)
/// of the section starting at `heading`.
fn doc_table_names<'a>(doc: &'a str, heading: &str) -> Vec<&'a str> {
    let section = doc
        .split(heading)
        .nth(1)
        .unwrap_or_else(|| panic!("docs/PERFORMANCE.md lost its `{heading}` section"))
        .split("\n## ")
        .next()
        .unwrap();
    section
        .lines()
        .filter_map(|l| l.strip_prefix("| `"))
        .map(|l| l.split('`').next().unwrap())
        .collect()
}

/// Every workload and metric name the doc quotes — the rows of its
/// ledger table, and in running text any `workload/metric` pair or
/// `layer.metric` name — must exist in `BENCHMARK.json`.
#[test]
fn quoted_ledger_names_exist_in_benchmark_json() {
    let bench =
        serde_json::parse_value(include_str!("../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let names = |key: &str| -> std::collections::BTreeSet<&str> {
        let entries = bench.get(key).and_then(|v| v.as_array());
        let entries = entries.unwrap_or_else(|| panic!("BENCHMARK.json lost its `{key}` array"));
        entries.iter().map(|e| e.get("name").and_then(|n| n.as_str()).expect("name")).collect()
    };
    let (workloads, end_to_end, per_layer) =
        (names("workloads"), names("end_to_end"), names("per_layer"));
    let layers: std::collections::BTreeSet<&str> =
        per_layer.iter().map(|m| m.split('.').next().unwrap()).collect();

    let table = doc_table_names(DOC, "\n## The ledger");
    assert!(table.len() >= 6, "the ledger table must name workloads and metrics: {table:?}");
    for name in table {
        assert!(
            workloads.contains(name) || end_to_end.contains(name) || per_layer.contains(name),
            "docs/PERFORMANCE.md's ledger table names `{name}`, which BENCHMARK.json does not"
        );
    }
    // Inline code outside fenced blocks.
    for token in DOC.split("```").step_by(2).flat_map(|text| text.split('`').skip(1).step_by(2)) {
        if let Some((workload, metric)) = token.split_once('/') {
            assert!(
                !workloads.contains(workload) || end_to_end.contains(metric),
                "docs/PERFORMANCE.md quotes `{token}`: no such end-to-end metric"
            );
        } else if let Some((layer, _)) = token.split_once('.') {
            assert!(
                !layers.contains(layer) || per_layer.contains(token),
                "docs/PERFORMANCE.md quotes `{token}`: no such per-layer metric"
            );
        }
    }
}

/// Every phase record ends on "what holds it in place": test files that
/// turn its claims into tier-1 assertions. A guard the doc names must
/// exist, or the record promises a rail that is not there.
#[test]
fn quoted_test_files_exist() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let quoted: std::collections::BTreeSet<&str> = DOC
        .split('`')
        .skip(1)
        .step_by(2)
        .filter(|token| token.ends_with(".rs") && token.contains("tests/"))
        .collect();
    assert!(quoted.len() >= 10, "the phase records name their guards: {quoted:?}");
    for path in quoted {
        assert!(root.join(path).is_file(), "docs/PERFORMANCE.md names `{path}`: no such file");
    }
    let phase_8 = DOC.split("\n## Phase 8").nth(1).expect("PERFORMANCE.md lost its Phase 8");
    let phase_8 = phase_8.split("\n## ").next().unwrap();
    for guard in [
        "tests/ring_membership_allocs.rs",
        "tests/ring_rebalance.rs",
        "tests/oracle/ring_rebalance.rs",
        "tests/ring_properties.rs",
    ] {
        assert!(phase_8.contains(guard), "the Phase 8 record must name `{guard}`");
    }
    let phase_9 = DOC.split("\n## Phase 9").nth(1).expect("PERFORMANCE.md lost its Phase 9");
    let phase_9 = phase_9.split("\n## ").next().unwrap();
    for guard in ["tests/sim_dispatch_allocs.rs", "crates/simnet/tests/queue_conformance.rs"] {
        assert!(phase_9.contains(guard), "the Phase 9 record must name `{guard}`");
    }
    let phase_10 = DOC.split("\n## Phase 10").nth(1).expect("PERFORMANCE.md lost its Phase 10");
    let phase_10 = phase_10.split("\n## ").next().unwrap();
    for guard in [
        "tests/anti_entropy.rs",
        "tests/oracle/anti_entropy.rs",
        "tests/anti_entropy_allocs.rs",
        "tests/crdt_semilattice.rs",
    ] {
        assert!(phase_10.contains(guard), "the Phase 10 record must name `{guard}`");
    }
    let phase_11 = DOC.split("\n## Phase 11").nth(1).expect("PERFORMANCE.md lost its Phase 11");
    let phase_11 = phase_11.split("\n## ").next().unwrap();
    for guard in [
        "event_row_size_is_pinned",
        "tests/trace_codec_allocs.rs",
        "tests/op_complete_record.rs",
        "tests/trace_codec.rs",
    ] {
        assert!(phase_11.contains(guard), "the Phase 11 record must name `{guard}`");
    }
    let phase_13 = DOC.split("\n## Phase 13").nth(1).expect("PERFORMANCE.md lost its Phase 13");
    let phase_13 = phase_13.split("\n## ").next().unwrap();
    for guard in [
        "every_wire_key_has_a_slot_of_its_own",
        "integers_are_written_as_to_string_writes_them",
        "tests/trace_codec.rs",
        "tests/oracle/trace_parse.rs",
        "tests/trace_codec_allocs.rs",
        "tests/trace_golden.rs",
        "obs.export_ns_per_event",
        "obs-tools.parse_ns_per_event",
    ] {
        assert!(phase_13.contains(guard), "the Phase 13 record must name `{guard}`");
    }
    let phase_14 = DOC.split("\n## Phase 14").nth(1).expect("PERFORMANCE.md lost its Phase 14");
    let phase_14 = phase_14.split("\n## ").next().unwrap();
    for guard in [
        "a_second_sim_on_a_thread_starts_warm",
        "tests/sim_dispatch_allocs.rs",
        "back_to_back_queues_on_one_thread_start_clean",
        "crates/simnet/tests/queue_conformance.rs",
        "an_inline_id_and_its_decoded_bytes_are_one_value",
        "layout_is_one_shared_pointer",
        "campaign_reproducers_are_what_shrink_case_makes",
        "crates/replication/tests/staleness_index.rs",
        "fuzz_campaign/work_per_s",
    ] {
        assert!(phase_14.contains(guard), "the Phase 14 record must name `{guard}`");
    }
    let phase_15 = DOC.split("\n## Phase 15").nth(1).expect("PERFORMANCE.md lost its Phase 15");
    let phase_15 = phase_15.split("\n## ").next().unwrap();
    for guard in [
        "the_template_reader_takes_every_line_the_encoder_writes",
        "the_template_reader_declines_what_the_encoder_does_not_write",
        "every_wire_key_has_a_slot_of_its_own",
        "every_line_the_template_declines_reads_as_the_oracle_reads_it",
        "template_read_lines_allocate_what_the_general_decoder_allocates",
        "tests/trace_codec.rs",
        "tests/oracle/trace_parse.rs",
        "tests/trace_codec_allocs.rs",
        "tests/trace_golden.rs",
        "obs-tools.parse_ns_per_event",
        "trace_check/work_per_s",
    ] {
        assert!(phase_15.contains(guard), "the Phase 15 record must name `{guard}`");
    }
    let phase_16 = DOC.split("\n## Phase 16").nth(1).expect("PERFORMANCE.md lost its Phase 16");
    let phase_16 = phase_16.split("\n## ").next().unwrap();
    for guard in [
        "a_pair_hashes_every_field_in_order",
        "byte_keys_hash_without_a_panic",
        "unclosed_spans_are_reported_by_ascending_id_whatever_the_table_order",
        "diverged_keys_are_listed_by_ascending_key_whatever_the_table_order",
        "oracle_whole_trace_and_online_agree_at_trace_check_scale",
        "tests/checker_stream_parity.rs",
        "tests/checker_stream_properties.rs",
        "tests/oracle/mod.rs",
        "tests/checker_stream_memory.rs",
        "obs-tools.check_spans_ns_per_event",
        "consistency.stream_ns_per_op",
        "trace_check/work_per_s",
    ] {
        assert!(phase_16.contains(guard), "the Phase 16 record must name `{guard}`");
    }
    let phase_17 = DOC.split("\n## Phase 17").nth(1).expect("PERFORMANCE.md lost its Phase 17");
    let phase_17 = phase_17.split("\n## ").next().unwrap();
    for guard in [
        "a_remembered_covered_digest_answers_as_the_store_scan",
        "a_covered_digest_is_remembered_once_per_peer_until_the_store_changes",
        "a_large_snapshot_joins_into_an_empty_counter_store_in_two_allocations",
        "a_store_of_single_version_keys_allocates_one_version_per_key",
        "undrained_marks_stay_bounded_by_the_key_count",
        "tests/anti_entropy.rs",
        "tests/oracle/anti_entropy.rs",
        "tests/store_allocs.rs",
        "tests/anti_entropy_allocs.rs",
        "tests/crdt_semilattice.rs",
        "gossip_state/work_per_s",
    ] {
        assert!(phase_17.contains(guard), "the Phase 17 record must name `{guard}`");
    }
    let phase_18 = DOC.split("\n## Phase 18").nth(1).expect("PERFORMANCE.md lost its Phase 18");
    let phase_18 = phase_18.split("\n## ").next().unwrap();
    for guard in [
        "four_lane_refills_draw_the_one_block_stream",
        "known_answers",
        "batches_longer_than_the_look_ahead_pop_as_the_model_does",
        "crates/simnet/tests/queue_conformance.rs",
        "tests/sim_dispatch_allocs.rs",
        "tests/trace_golden.rs",
        "simnet.storm_deep_ns_per_event",
        "simnet.storm_shallow_ns_per_event",
        "workload.zipf_sample_ns",
        "event_storm/work_per_s",
    ] {
        assert!(phase_18.contains(guard), "the Phase 18 record must name `{guard}`");
    }
    let phase_19 = DOC.split("\n## Phase 19").nth(1).expect("PERFORMANCE.md lost its Phase 19");
    let phase_19 = phase_19.split("\n## ").next().unwrap();
    for guard in [
        "a_packed_log_gives_back_what_was_packed",
        "a_recorder_keeps_what_its_cap_lets_in",
        "packed_event_sizes_are_pinned",
        "event_row_size_is_pinned",
        "recording_into_a_log_with_room_allocates_only_its_growth",
        "export_jsonl_allocates_once_whatever_the_event_count",
        "tests/event_log_size.rs",
        "tests/op_complete_record.rs",
        "tests/trace_codec_allocs.rs",
        "tests/trace_golden.rs",
        "obs.eventlog_overhead_ratio",
        "trace_check/peak_rss_mb",
    ] {
        assert!(phase_19.contains(guard), "the Phase 19 record must name `{guard}`");
    }
    let phase_20 = DOC.split("\n## Phase 20").nth(1).expect("PERFORMANCE.md lost its Phase 20");
    let phase_20 = phase_20.split("\n## ").next().unwrap();
    for guard in [
        "slot_log_is_a_btree_map_by_slot",
        "paxos_slot_size_is_pinned",
        "msg_size_is_pinned",
        "late_accepted_for_a_committed_slot_changes_nothing",
        "ack_tracker_counts_as_a_set_does",
        "tests/corpus_replay.rs",
        "tests/trace_golden.rs",
        "proto_sweep/peak_rss_mb",
        "replication.us_per_op.paxos",
    ] {
        assert!(phase_20.contains(guard), "the Phase 20 record must name `{guard}`");
    }
    let phase_21 = DOC.split("\n## Phase 21").nth(1).expect("PERFORMANCE.md lost its Phase 21");
    let phase_21 = phase_21.split("\n## ").next().unwrap();
    for guard in [
        "a_run_sizes_its_trace_to_its_scripted_rows",
        "sorting_in_place_equals_the_stable_sort",
        "crates/replication/tests/staleness_index.rs",
        "staleness_cost_does_not_grow_with_session_length",
        "a_candidate_is_promised_no_slot_it_has_applied",
        "msg_size_is_pinned",
        "tests/trace_golden.rs",
        "proto_sweep/peak_rss_mb",
    ] {
        assert!(phase_21.contains(guard), "the Phase 21 record must name `{guard}`");
    }
    // The architecture section's "allocation-free" sentence cites its guard.
    let wheel = DOC.split("\n## Timing-wheel architecture").nth(1).expect("wheel section");
    let wheel = wheel.split("\n## ").next().unwrap();
    assert!(
        wheel.contains("allocation-free in steady state")
            && wheel.contains("tests/sim_dispatch_allocs.rs"),
        "\"allocation-free in steady state\" must cite tests/sim_dispatch_allocs.rs"
    );
}

/// The Phase 2 (data-plane) section must exist, carry the before/after
/// `profquery diff` evidence, and quote only handler cells that exist
/// in the checked-in profile artifact — the doc's claims stay tied to
/// measurable reality.
#[test]
fn phase_2_section_quotes_real_profile_cells() {
    let section = DOC
        .split("\n## Phase 2")
        .nth(1)
        .expect("docs/PERFORMANCE.md lost its `Phase 2` data-plane section")
        .split("\n## ")
        .next()
        .unwrap();
    assert!(
        section.contains("profquery diff"),
        "the Phase 2 section must show its profquery diff evidence"
    );
    let profile = serde_json::parse_value(include_str!("../results/profile_protos.json"))
        .expect("results/profile_protos.json parses");
    let schemes = profile
        .get("profile")
        .and_then(|p| p.get("schemes"))
        .and_then(|s| s.as_array())
        .expect("profile.schemes array");
    let mut cells = std::collections::BTreeSet::new();
    for s in schemes {
        let scheme = s.get("scheme").and_then(|v| v.as_str()).expect("scheme name");
        for h in s.get("handlers").and_then(|h| h.as_array()).expect("handlers array") {
            let role = h.get("role").and_then(|v| v.as_str()).expect("role");
            let handler = h.get("handler").and_then(|v| v.as_str()).expect("handler");
            match h.get("variant").and_then(|v| v.as_str()).expect("variant") {
                "-" => cells.insert(format!("{scheme};{role};{handler}")),
                v => cells.insert(format!("{scheme};{role};{handler}:{v}")),
            };
        }
    }
    for cell in section
        .lines()
        .filter(|l| l.contains(";on_message:") || l.contains(";on_timer"))
        .filter_map(|l| l.split_whitespace().last())
    {
        assert!(
            cells.contains(cell),
            "Phase 2 quotes handler cell `{cell}` that is not in \
             results/profile_protos.json — regenerate the profile or fix the doc"
        );
    }
}

/// The hot-path clippy gate the doc advertises must exist in CI with
/// the lints and the crates it names.
#[test]
fn clippy_hotpath_ci_job_matches_the_doc() {
    let ci = include_str!("../.github/workflows/ci.yml");
    assert!(ci.contains("clippy-hotpath:"), "ci.yml lost the clippy-hotpath job");
    let gate = ci
        .lines()
        .find(|l| l.contains("cargo clippy") && l.contains("clippy::redundant_clone"))
        .expect("ci.yml lost the clippy-hotpath command line");
    let gated = DOC
        .split("The `clippy-hotpath` CI job")
        .nth(1)
        .expect("docs/PERFORMANCE.md lost its clippy-hotpath paragraph")
        .split("\n\n")
        .next()
        .unwrap();
    for krate in [
        "simnet",
        "replication",
        "rec-core",
        "obs",
        "crdt",
        "kvstore",
        "clocks",
        "obs-tools",
        "consistency",
    ] {
        assert!(
            gate.contains(&format!("-p {krate} ")) && gated.contains(&format!("`{krate}`")),
            "`{krate}` must be linted by the clippy-hotpath job and named in PERFORMANCE.md"
        );
    }
    for lint in ["clippy::redundant_clone", "clippy::large_enum_variant"] {
        assert!(
            ci.contains(&format!("-D {lint}")) && DOC.contains(&format!("`{lint}`")),
            "the `{lint}` lint must be denied in ci.yml and documented in PERFORMANCE.md"
        );
    }
}
