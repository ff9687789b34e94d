// Fault-tolerant farm orchestrator: lease ledger state machine,
// crash-safe shard streams, streaming merge, and end-to-end `farm exec`
// campaigns under injected worker kills, stalls and interrupts.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "core/param_grid.h"
#include "farm/campaign.h"
#include "farm/executor.h"
#include "farm/orchestrator.h"
#include "farm/shard_store.h"

#ifndef ACSTAB_TOOL_PATH
#define ACSTAB_TOOL_PATH ""
#endif

namespace {

using namespace acstab;

constexpr const char* tank_netlist = R"(* parameterized RLC tank
.param rval=397.887 cval=1n
r1 tank 0 {rval}
l1 tank 0 25.3303u
c1 tank 0 {cval}
.stability tank 1e4 1e8 40
.end
)";

[[nodiscard]] std::string tank_netlist_path()
{
    static const std::string path = [] {
        const std::string p = "test_orch_tank.sp";
        std::ofstream out(p, std::ios::binary);
        out << tank_netlist;
        return p;
    }();
    return path;
}

/// Small campaign the end-to-end orchestrator tests can finish quickly:
/// 2 temps x 2 cval values = 4 points of the tank fixture.
[[nodiscard]] farm::campaign_spec small_campaign()
{
    farm::campaign_spec spec;
    spec.netlist = tank_netlist_path();
    spec.node = "tank";
    spec.fstart = 1e4;
    spec.fstop = 1e8;
    spec.points_per_decade = 40;
    spec.grid.temps = {0.0, 50.0};
    spec.grid.axes = {{"cval", {0.8e-9, 1.2e-9}}};
    return spec;
}

[[nodiscard]] std::string read_file_bytes(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/// The single-process ground truth: run every point in this process and
/// merge the one shard; `farm exec` reports must match these bytes.
[[nodiscard]] std::string legacy_report_bytes(const farm::campaign_spec& spec)
{
    const std::vector<farm::point_record> records = farm::run_shard(spec, 0, 1);
    const farm::json_value doc = farm::shard_to_json(spec, 0, 1, records);
    return farm::merge_shards(spec, {doc}).dump() + "\n";
}

/// Scratch campaign state (plan file + workdir), wiped per test.
struct exec_fixture {
    farm::campaign_spec spec = small_campaign();
    std::string plan_path;
    std::string workdir;
    std::string out;

    explicit exec_fixture(const std::string& name)
        : plan_path("test_orch_" + name + "_plan.json"),
          workdir("test_orch_" + name + ".work"),
          out("test_orch_" + name + "_report.json")
    {
        std::filesystem::remove_all(workdir);
        std::filesystem::remove(out);
        std::ofstream plan(plan_path, std::ios::binary);
        plan << farm::to_json(spec).dump() << "\n";
    }

    [[nodiscard]] farm::exec_options options() const
    {
        farm::exec_options opt;
        opt.workers = 2;
        opt.workdir = workdir;
        opt.out = out;
        opt.plan_path = plan_path;
        opt.tool_path = ACSTAB_TOOL_PATH;
        opt.verbose = false;
        opt.backoff_s = 0.02; // keep retry tests fast
        return opt;
    }
};

/// Scoped ACSTAB_FAULT_INJECT so a failing test cannot leak directives
/// into later ones.
struct fault_env {
    explicit fault_env(const std::string& directives)
    {
        ::setenv("ACSTAB_FAULT_INJECT", directives.c_str(), 1);
    }
    ~fault_env() { ::unsetenv("ACSTAB_FAULT_INJECT"); }
};

// --- lease_ledger ----------------------------------------------------------

TEST(lease_ledger, grants_contiguous_leases_in_index_order)
{
    core::lease_ledger ledger(10);
    const auto a = ledger.grant(4);
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a->begin, 0u);
    EXPECT_EQ(a->end, 4u);
    const auto b = ledger.grant(4);
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(b->begin, 4u);
    EXPECT_EQ(b->end, 8u);
    const auto c = ledger.grant(4);
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->begin, 8u);
    EXPECT_EQ(c->end, 10u); // clipped at the grid end
    EXPECT_FALSE(ledger.grant(4).has_value());
    EXPECT_EQ(ledger.leased(), 10u);
}

TEST(lease_ledger, fail_release_regrants_below_the_cursor)
{
    core::lease_ledger ledger(6);
    (void)ledger.grant(6);
    for (std::size_t i = 0; i < 6; ++i)
        if (i != 2)
            ledger.complete(i);
    EXPECT_EQ(ledger.fail(2), 1u);
    EXPECT_EQ(ledger.cooling(), 1u);
    EXPECT_FALSE(ledger.grant(4).has_value()); // cooling points are not grantable
    ledger.release(2);
    const auto retry = ledger.grant(4);
    ASSERT_TRUE(retry.has_value());
    EXPECT_EQ(retry->begin, 2u);
    EXPECT_EQ(retry->end, 3u);
    EXPECT_EQ(ledger.attempts(2), 1u);
    ledger.complete(2);
    EXPECT_EQ(ledger.unresolved(), 0u);
}

TEST(lease_ledger, requeue_returns_lease_tail_without_attempt_penalty)
{
    core::lease_ledger ledger(4);
    (void)ledger.grant(4);
    // Worker died mid-lease: point 1 was in flight, 2..3 untouched.
    ledger.complete(0);
    (void)ledger.fail(1);
    ledger.requeue(2);
    ledger.requeue(3);
    EXPECT_EQ(ledger.attempts(2), 0u);
    EXPECT_EQ(ledger.pending(), 2u);
    const auto next = ledger.grant(8);
    ASSERT_TRUE(next.has_value());
    EXPECT_EQ(next->begin, 2u);
    EXPECT_EQ(next->end, 4u);
}

TEST(lease_ledger, quarantine_is_terminal_until_reset)
{
    core::lease_ledger ledger(3);
    (void)ledger.grant(3);
    ledger.complete(0);
    ledger.complete(2);
    (void)ledger.fail(1);
    ledger.quarantine(1);
    EXPECT_TRUE(ledger.is_quarantined(1));
    EXPECT_EQ(ledger.unresolved(), 0u);
    EXPECT_THROW(ledger.complete(1), analysis_error);
    // Resume policy: quarantined points get a fresh budget.
    ledger.reset_quarantined();
    EXPECT_FALSE(ledger.is_quarantined(1));
    EXPECT_EQ(ledger.attempts(1), 0u);
    const auto retry = ledger.grant(4);
    ASSERT_TRUE(retry.has_value());
    EXPECT_EQ(retry->begin, 1u);
}

TEST(lease_ledger, complete_is_idempotent_and_accepts_recovered_records)
{
    core::lease_ledger ledger(2);
    // A resume scan marks points done without any lease in flight.
    ledger.complete(0);
    ledger.complete(0);
    EXPECT_EQ(ledger.done(), 1u);
    EXPECT_EQ(ledger.unresolved(), 1u);
    EXPECT_THROW(ledger.complete(7), analysis_error);
}

// --- shard streams ---------------------------------------------------------

/// Hand-built records are enough for store-level tests (no analysis run).
[[nodiscard]] farm::point_record synthetic_record(const farm::campaign_spec& spec,
                                                  std::size_t index,
                                                  const std::string& error)
{
    farm::point_record rec;
    rec.point = spec.grid.point(index);
    rec.index = index;
    rec.status = core::point_status::analysis_failed;
    rec.error = error;
    return rec;
}

TEST(shard_stream, writer_scan_round_trip_and_truncated_tail_drop)
{
    const farm::campaign_spec spec = small_campaign();
    const std::string spec_bytes = farm::to_json(spec).dump();
    const std::string path = "test_orch_stream_rt.jsonl";
    std::filesystem::remove(path);
    {
        farm::shard_writer writer(path, spec, 7);
        writer.append(synthetic_record(spec, 0, "a"));
        writer.append(synthetic_record(spec, 2, "b"));
    }
    EXPECT_TRUE(farm::is_shard_stream_file(path));
    const farm::shard_stream_scan clean = farm::scan_shard_stream(path, spec_bytes);
    ASSERT_EQ(clean.records.size(), 2u);
    EXPECT_EQ(clean.records[0].point, 0u);
    EXPECT_EQ(clean.records[1].point, 2u);
    EXPECT_EQ(clean.truncated_tail_bytes, 0u);

    // Chop the trailing newline + a few bytes: exactly what a SIGKILL
    // mid-append leaves behind. The partial record is dropped, the rest
    // of the file stays readable.
    const std::string bytes = read_file_bytes(path);
    std::ofstream(path, std::ios::binary) << bytes.substr(0, bytes.size() - 5);
    const farm::shard_stream_scan cut = farm::scan_shard_stream(path, spec_bytes);
    ASSERT_EQ(cut.records.size(), 1u);
    EXPECT_EQ(cut.records[0].point, 0u);
    EXPECT_GT(cut.truncated_tail_bytes, 0u);
}

TEST(shard_stream, mid_file_corruption_error_is_actionable)
{
    const farm::campaign_spec spec = small_campaign();
    const std::string path = "test_orch_stream_corrupt.jsonl";
    std::filesystem::remove(path);
    {
        farm::shard_writer writer(path, spec, 0);
        writer.append(synthetic_record(spec, 0, "a"));
        writer.append(synthetic_record(spec, 1, "b"));
    }
    std::string bytes = read_file_bytes(path);
    const std::size_t first_record = bytes.find('\n') + 1;
    bytes[first_record + 2] = '\x01'; // damage inside a complete line
    std::ofstream(path, std::ios::binary) << bytes;
    try {
        (void)farm::scan_shard_stream(path, farm::to_json(spec).dump());
        FAIL() << "corrupt shard stream must not scan";
    } catch (const analysis_error& e) {
        const std::string what = e.what();
        // The triad that makes the error actionable: which file, where,
        // and what to do next.
        EXPECT_NE(what.find(path), std::string::npos) << what;
        EXPECT_NE(what.find("byte offset"), std::string::npos) << what;
        EXPECT_NE(what.find("--resume"), std::string::npos) << what;
    }
}

TEST(shard_stream, truncated_document_error_is_actionable)
{
    // The whole-document (farm run) path gets the same treatment via
    // parse_shard_document.
    try {
        (void)farm::parse_shard_document("{\"schema\":\"acstab-farm-shard-v1\",\"rec",
                                         "shard7.json");
        FAIL() << "truncated document must not parse";
    } catch (const analysis_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("shard7.json"), std::string::npos) << what;
        EXPECT_NE(what.find("offset"), std::string::npos) << what;
        EXPECT_NE(what.find("--resume"), std::string::npos) << what;
    }
}

TEST(shard_stream, merge_folds_byte_identical_duplicates_and_rejects_conflicts)
{
    const farm::campaign_spec spec = small_campaign();
    const std::string a = "test_orch_dup_a.jsonl";
    const std::string b = "test_orch_dup_b.jsonl";
    const std::string out = "test_orch_dup_merged.json";
    std::filesystem::remove(a);
    std::filesystem::remove(b);
    {
        farm::shard_writer wa(a, spec, 0);
        for (std::size_t i = 0; i < 4; ++i)
            wa.append(synthetic_record(spec, i, "x"));
        // Worker died after appending point 2 but before its ack: the
        // retry wrote an identical copy into its own stream.
        farm::shard_writer wb(b, spec, 1);
        wb.append(synthetic_record(spec, 2, "x"));
    }
    const farm::stream_merge_result merged
        = farm::merge_shard_streams(spec, {a, b}, {}, out);
    EXPECT_EQ(merged.points, 4u);
    EXPECT_TRUE(merged.extras_used.empty());

    // A non-identical duplicate is campaign corruption, not crash debris.
    const std::string c = "test_orch_dup_c.jsonl";
    std::filesystem::remove(c);
    {
        farm::shard_writer wc(c, spec, 2);
        wc.append(synthetic_record(spec, 2, "DIFFERENT"));
    }
    EXPECT_THROW((void)farm::merge_shard_streams(spec, {a, c}, {}, out), analysis_error);
}

TEST(shard_stream, merge_missing_points_error_names_resume)
{
    const farm::campaign_spec spec = small_campaign();
    const std::string a = "test_orch_missing_a.jsonl";
    std::filesystem::remove(a);
    {
        farm::shard_writer wa(a, spec, 0);
        wa.append(synthetic_record(spec, 0, "x"));
    }
    try {
        (void)farm::merge_shard_streams(spec, {a}, {}, "test_orch_missing_out.json");
        FAIL() << "incomplete coverage must not merge";
    } catch (const analysis_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("missing 3 of 4"), std::string::npos) << what;
        EXPECT_NE(what.find("--resume"), std::string::npos) << what;
    }
}

TEST(shard_stream, quarantine_extras_fill_holes_but_lose_to_real_records)
{
    const farm::campaign_spec spec = small_campaign();
    const std::string a = "test_orch_extras_a.jsonl";
    const std::string out = "test_orch_extras_merged.json";
    std::filesystem::remove(a);
    {
        farm::shard_writer wa(a, spec, 0);
        wa.append(synthetic_record(spec, 0, "x"));
        wa.append(synthetic_record(spec, 1, "x"));
        wa.append(synthetic_record(spec, 3, "x"));
    }
    farm::point_record q2 = synthetic_record(spec, 2, "quarantined after 3 attempts");
    q2.status = core::point_status::quarantined;
    farm::point_record q3 = synthetic_record(spec, 3, "quarantined after 3 attempts");
    q3.status = core::point_status::quarantined;
    const farm::stream_merge_result merged
        = farm::merge_shard_streams(spec, {a}, {q2, q3}, out);
    // Point 3 has a real record (worker died post-append), so only the
    // genuinely missing point 2 takes its placeholder.
    ASSERT_EQ(merged.extras_used.size(), 1u);
    EXPECT_EQ(merged.extras_used[0], 2u);
    const farm::json_value report = farm::json_value::parse(read_file_bytes(out));
    const auto& records = report.at("records").items();
    ASSERT_EQ(records.size(), 4u);
    EXPECT_EQ(records[2].at("status").as_string(), "quarantined");
    EXPECT_EQ(records[3].at("status").as_string(), "failed");
}

// --- incremental merge index ----------------------------------------------

/// Canonical record line, as the writer appends it (without the '\n').
[[nodiscard]] std::string record_line(const farm::point_record& rec)
{
    return farm::point_record_to_json(rec).dump();
}

TEST(merge_index, cursor_reads_a_growing_stream_record_by_record)
{
    const farm::campaign_spec spec = small_campaign();
    const std::string path = "test_orch_cursor_grow.jsonl";
    std::filesystem::remove(path);
    farm::shard_writer writer(path, spec, 0);
    farm::shard_stream_cursor cursor(path, farm::to_json(spec).dump());
    farm::stream_record_ref ref;
    std::string line;
    EXPECT_FALSE(cursor.next(ref, line)); // header only, no record yet

    writer.append(synthetic_record(spec, 3, "a"));
    ASSERT_TRUE(cursor.next(ref, line));
    EXPECT_EQ(ref.point, 3u);
    EXPECT_EQ(line, record_line(synthetic_record(spec, 3, "a")));
    EXPECT_FALSE(cursor.next(ref, line));

    // A record still being written (no newline yet) is not read; once it
    // is complete, the same cursor picks it up at the right offset.
    const std::string rec1 = record_line(synthetic_record(spec, 1, "b"));
    const std::uint64_t offset = std::filesystem::file_size(path);
    {
        std::ofstream out(path, std::ios::binary | std::ios::app);
        out << rec1.substr(0, 10);
    }
    EXPECT_FALSE(cursor.next(ref, line));
    {
        std::ofstream out(path, std::ios::binary | std::ios::app);
        out << rec1.substr(10) << "\n";
    }
    ASSERT_TRUE(cursor.next(ref, line));
    EXPECT_EQ(ref.point, 1u);
    EXPECT_EQ(ref.offset, offset);
    EXPECT_EQ(line, rec1);
    EXPECT_EQ(cursor.read_span(ref.offset, ref.length), rec1);
    EXPECT_FALSE(cursor.next(ref, line));
    EXPECT_EQ(cursor.finish(), 0u);
}

TEST(merge_index, header_check_accepts_the_same_campaign_in_any_layout_and_nothing_else)
{
    const farm::campaign_spec spec = small_campaign();
    const std::string spec_bytes = farm::to_json(spec).dump();
    const std::string rec = record_line(synthetic_record(spec, 0, "a"));
    const auto scan_with_header = [&](const std::string& header) {
        const std::string path = "test_orch_index_header.jsonl";
        std::ofstream(path, std::ios::binary) << header << "\n" << rec << "\n";
        return farm::scan_shard_stream(path, spec_bytes).records.size();
    };
    // The writer's own bytes, and the same header re-laid out with
    // whitespace: both are this campaign's stream.
    EXPECT_EQ(scan_with_header("{\"schema\":\"" + std::string(farm::shard_stream_schema)
                               + "\",\"campaign\":" + spec_bytes + ",\"worker\":12}"),
              1u);
    EXPECT_EQ(scan_with_header("{ \"schema\" : \"" + std::string(farm::shard_stream_schema)
                               + "\", \"worker\": 12, \"campaign\": " + spec_bytes + " }"),
              1u);
    // Another plan's stream, and a stream whose worker field is not a
    // number-only tail of the canonical form but an extra member.
    farm::campaign_spec other = spec;
    other.grid.temps = {0.0, 51.0};
    try {
        (void)scan_with_header("{\"schema\":\"" + std::string(farm::shard_stream_schema)
                               + "\",\"campaign\":" + farm::to_json(other).dump()
                               + ",\"worker\":3}");
        FAIL() << "a stream from another plan must be refused";
    } catch (const analysis_error& e) {
        EXPECT_NE(std::string(e.what()).find("different campaign plan"), std::string::npos)
            << e.what();
    }
    EXPECT_THROW((void)scan_with_header("{\"schema\":\"" + std::string(farm::shard_stream_schema)
                                        + "\",\"campaign\":" + spec_bytes
                                        + ",\"worker\":3}x}"),
                 analysis_error);
}

TEST(merge_index, unacknowledged_record_beats_its_quarantine_placeholder)
{
    const farm::campaign_spec spec = small_campaign();
    const std::string a = "test_orch_index_unacked.jsonl";
    const std::string out = "test_orch_index_unacked_merged.json";
    std::filesystem::remove(a);
    {
        // The worker appended points 0, 1 and 2 but was killed before it
        // acknowledged point 2, which then exhausted its retries.
        farm::shard_writer wa(a, spec, 0);
        for (std::size_t i = 0; i < 3; ++i)
            wa.append(synthetic_record(spec, i, "x"));
    }
    farm::stream_merge_index index(spec);
    const std::size_t s = index.add_stream(a);
    std::vector<std::size_t> fresh;
    const auto hook = [&fresh](std::size_t point, const std::string&) {
        fresh.push_back(point);
    };
    EXPECT_TRUE(index.advance(s, 0, hook));
    EXPECT_TRUE(index.advance(s, 1, hook));
    EXPECT_EQ(fresh, (std::vector<std::size_t>{0, 1}));

    farm::point_record q2 = synthetic_record(spec, 2, "quarantined after 3 attempts");
    q2.status = core::point_status::quarantined;
    farm::point_record q3 = synthetic_record(spec, 3, "quarantined after 3 attempts");
    q3.status = core::point_status::quarantined;
    index.finish();
    const farm::stream_merge_result merged = index.emit({q2, q3}, out);
    ASSERT_EQ(merged.extras_used.size(), 1u);
    EXPECT_EQ(merged.extras_used[0], 3u);
    const farm::json_value report = farm::json_value::parse(read_file_bytes(out));
    const auto& records = report.at("records").items();
    ASSERT_EQ(records.size(), 4u);
    EXPECT_EQ(records[2].at("status").as_string(), "failed");
    EXPECT_EQ(records[3].at("status").as_string(), "quarantined");
}

TEST(merge_index, killed_workers_truncated_tail_is_dropped)
{
    const farm::campaign_spec spec = small_campaign();
    const std::string a = "test_orch_index_tail.jsonl";
    const std::string out = "test_orch_index_tail_merged.json";
    std::filesystem::remove(a);
    {
        farm::shard_writer wa(a, spec, 0);
        wa.append(synthetic_record(spec, 0, "x"));
        wa.append(synthetic_record(spec, 1, "x"));
    }
    farm::stream_merge_index index(spec);
    const std::size_t s = index.add_stream(a);
    EXPECT_TRUE(index.advance(s, 0));
    // SIGKILL mid-append of point 2: a newline-less partial record.
    const std::string partial = record_line(synthetic_record(spec, 2, "x"));
    {
        std::ofstream tail(a, std::ios::binary | std::ios::app);
        tail << partial.substr(0, partial.size() / 2);
    }
    EXPECT_FALSE(index.advance(s, 2));
    index.finish();
    farm::point_record q2 = synthetic_record(spec, 2, "quarantined");
    q2.status = core::point_status::quarantined;
    farm::point_record q3 = synthetic_record(spec, 3, "quarantined");
    q3.status = core::point_status::quarantined;
    const farm::stream_merge_result merged = index.emit({q2, q3}, out);
    EXPECT_EQ(merged.extras_used, (std::vector<std::size_t>{2, 3}));
    EXPECT_EQ(farm::scan_shard_stream(a, farm::to_json(spec).dump()).truncated_tail_bytes,
              partial.size() / 2);
}

TEST(merge_index, conflicting_duplicate_is_rejected_as_it_is_read)
{
    const farm::campaign_spec spec = small_campaign();
    const std::string a = "test_orch_index_dup_a.jsonl";
    const std::string b = "test_orch_index_dup_b.jsonl";
    std::filesystem::remove(a);
    std::filesystem::remove(b);
    {
        farm::shard_writer wa(a, spec, 0);
        wa.append(synthetic_record(spec, 2, "x"));
        farm::shard_writer wb(b, spec, 1);
        wb.append(synthetic_record(spec, 2, "x"));
        wb.append(synthetic_record(spec, 2, "DIFFERENT"));
    }
    farm::stream_merge_index index(spec);
    const std::size_t sa = index.add_stream(a);
    const std::size_t sb = index.add_stream(b);
    std::size_t fresh = 0;
    const auto hook = [&fresh](std::size_t, const std::string&) { ++fresh; };
    EXPECT_TRUE(index.advance(sa, 2, hook));
    // The byte-identical copy folds; the conflicting one throws.
    EXPECT_TRUE(index.advance(sb, 2, hook));
    EXPECT_EQ(fresh, 1u);
    try {
        (void)index.advance(sb, 2, hook);
        FAIL() << "a conflicting duplicate must not index";
    } catch (const analysis_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("conflicting records for point 2"), std::string::npos) << what;
        EXPECT_NE(what.find(a), std::string::npos) << what;
        EXPECT_NE(what.find(b), std::string::npos) << what;
    }
}

TEST(merge_index, mid_file_corruption_error_matches_the_full_scan)
{
    const farm::campaign_spec spec = small_campaign();
    const std::string spec_bytes = farm::to_json(spec).dump();
    const std::string path = "test_orch_index_corrupt.jsonl";
    std::filesystem::remove(path);
    {
        farm::shard_writer writer(path, spec, 0);
        writer.append(synthetic_record(spec, 0, "a"));
        writer.append(synthetic_record(spec, 1, "b"));
    }
    std::string bytes = read_file_bytes(path);
    const std::size_t second_record = bytes.find('\n', bytes.find('\n') + 1) + 1;
    bytes[second_record + 2] = '\x01';
    std::ofstream(path, std::ios::binary) << bytes;

    std::string scan_error;
    try {
        (void)farm::scan_shard_stream(path, spec_bytes);
    } catch (const analysis_error& e) {
        scan_error = e.what();
    }
    ASSERT_FALSE(scan_error.empty()) << "corrupt shard stream must not scan";
    EXPECT_NE(scan_error.find("byte offset " + std::to_string(second_record)),
              std::string::npos)
        << scan_error;
    EXPECT_NE(scan_error.find("--resume"), std::string::npos) << scan_error;

    // The cursor meets the damage one acknowledgment later and reports
    // it in exactly the same words.
    farm::stream_merge_index index(spec);
    const std::size_t s = index.add_stream(path);
    EXPECT_TRUE(index.advance(s, 0));
    try {
        (void)index.advance(s, 1);
        FAIL() << "the cursor must not index a corrupt record";
    } catch (const analysis_error& e) {
        EXPECT_EQ(std::string(e.what()), scan_error);
    }
}

// --- end-to-end farm exec --------------------------------------------------

TEST(farm_exec, clean_run_matches_single_process_bytes)
{
    const exec_fixture fx("clean");
    const farm::exec_summary sum = farm::exec_campaign(fx.spec, fx.options());
    EXPECT_FALSE(sum.interrupted);
    EXPECT_EQ(sum.completed, 4u);
    EXPECT_TRUE(sum.quarantined.empty());
    EXPECT_EQ(read_file_bytes(fx.out), legacy_report_bytes(fx.spec));
}

TEST(farm_exec, worker_kill_is_retried_to_byte_identical_report)
{
    const exec_fixture fx("crash");
    // The worker SIGKILLs itself right before point 1 — mid-shard, after
    // its stream already holds earlier records. Fire-once marker: the
    // retry computes the point normally.
    const fault_env env("crash:1");
    const farm::exec_summary sum = farm::exec_campaign(fx.spec, fx.options());
    EXPECT_FALSE(sum.interrupted);
    EXPECT_TRUE(sum.quarantined.empty());
    EXPECT_EQ(read_file_bytes(fx.out), legacy_report_bytes(fx.spec));
}

TEST(farm_exec, stalled_point_times_out_into_quarantine)
{
    const exec_fixture fx("stall");
    // Stall point 2 on EVERY attempt; with a short per-point budget the
    // orchestrator must kill, retry, exhaust the budget and quarantine —
    // and still finish the other points.
    const fault_env env("stall:2:30:always");
    farm::exec_options opt = fx.options();
    opt.point_timeout_s = 1.0;
    opt.max_attempts = 2;
    const farm::exec_summary sum = farm::exec_campaign(fx.spec, opt);
    EXPECT_FALSE(sum.interrupted);
    ASSERT_EQ(sum.quarantined.size(), 1u);
    EXPECT_EQ(sum.quarantined[0].first, 2u);
    EXPECT_NE(sum.quarantined[0].second.find("wall-clock timeout"), std::string::npos)
        << sum.quarantined[0].second;

    // The quarantined point is listed in the report, not silently dropped.
    const farm::json_value report = farm::json_value::parse(read_file_bytes(fx.out));
    const auto& records = report.at("records").items();
    ASSERT_EQ(records.size(), 4u);
    EXPECT_EQ(records[2].at("status").as_string(), "quarantined");
    EXPECT_NE(records[2].at("error").as_string().find("wall-clock timeout"),
              std::string::npos);
    EXPECT_EQ(records[1].at("status").as_string(), "ok");
}

TEST(farm_exec, interrupt_then_resume_is_byte_identical)
{
    const exec_fixture fx("resume");
    {
        // Injected SIGINT-equivalent after the first completed point,
        // with a worker kill thrown in for good measure.
        const fault_env env("crash:1,interrupt:1");
        const farm::exec_summary sum = farm::exec_campaign(fx.spec, fx.options());
        EXPECT_TRUE(sum.interrupted);
        EXPECT_LT(sum.completed, 4u);
    }
    // Resume re-leases only the unfinished points and converges to the
    // same bytes as the never-interrupted single-process run.
    farm::exec_options opt = fx.options();
    opt.resume = true;
    const farm::exec_summary resumed = farm::exec_campaign(fx.spec, opt);
    EXPECT_FALSE(resumed.interrupted);
    EXPECT_EQ(resumed.completed, 4u);
    EXPECT_TRUE(resumed.quarantined.empty());
    EXPECT_EQ(read_file_bytes(fx.out), legacy_report_bytes(fx.spec));
}

TEST(farm_exec, nonexistent_report_directory_fails_before_any_work)
{
    exec_fixture fx("badout");
    farm::exec_options opt = fx.options();
    opt.out = "no_such_dir_xyz/report.json";
    try {
        (void)farm::exec_campaign(fx.spec, opt);
        FAIL() << "exec must refuse an unwritable report destination";
    } catch (const analysis_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("does not exist"), std::string::npos) << what;
        EXPECT_NE(what.find("no points were run"), std::string::npos) << what;
    }
    // The probe fires before any state is created: no workdir, no journal,
    // no worker was ever spawned.
    EXPECT_FALSE(std::filesystem::exists(fx.workdir));
}

TEST(farm_exec, file_as_report_parent_fails_before_any_work)
{
    exec_fixture fx("badparent");
    const std::string bogus_parent = "test_orch_badparent_file";
    { std::ofstream(bogus_parent, std::ios::binary) << "not a directory\n"; }
    farm::exec_options opt = fx.options();
    opt.out = bogus_parent + "/report.json";
    try {
        (void)farm::exec_campaign(fx.spec, opt);
        FAIL() << "exec must refuse a non-directory report parent";
    } catch (const analysis_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("is not a directory"), std::string::npos) << what;
        EXPECT_NE(what.find("no points were run"), std::string::npos) << what;
    }
    EXPECT_FALSE(std::filesystem::exists(fx.workdir));
    std::filesystem::remove(bogus_parent);
}

TEST(farm_exec, failed_final_merge_preserves_records_and_names_resume)
{
    exec_fixture fx("mergefail");
    // A directory squatting on the report path defeats the writability
    // probe (its parent is fine) but makes the final rename fail — the
    // computed records must survive and the error must say how to recover.
    std::filesystem::remove_all(fx.out);
    std::filesystem::create_directory(fx.out);
    try {
        (void)farm::exec_campaign(fx.spec, fx.options());
        FAIL() << "merge onto a directory must fail";
    } catch (const analysis_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("--resume"), std::string::npos) << what;
        EXPECT_NE(what.find(fx.workdir), std::string::npos) << what;
    }
    // Recovery path from the error message: fix the destination, resume,
    // and get the byte-identical report without recomputing any point.
    std::filesystem::remove_all(fx.out);
    farm::exec_options opt = fx.options();
    opt.resume = true;
    const farm::exec_summary sum = farm::exec_campaign(fx.spec, opt);
    EXPECT_EQ(sum.completed, 4u);
    EXPECT_EQ(read_file_bytes(fx.out), legacy_report_bytes(fx.spec));
}

TEST(farm_exec, on_point_hook_streams_each_record_as_it_lands)
{
    exec_fixture fx("onpoint");
    farm::exec_options opt = fx.options();
    std::vector<std::pair<std::size_t, std::string>> seen;
    opt.on_point = [&](std::size_t index, const std::string& record_json) {
        seen.emplace_back(index, record_json);
    };
    const farm::exec_summary sum = farm::exec_campaign(fx.spec, opt);
    EXPECT_EQ(sum.completed, 4u);
    ASSERT_EQ(seen.size(), 4u);
    std::set<std::size_t> indices;
    for (const auto& [index, record_json] : seen) {
        indices.insert(index);
        const farm::json_value record = farm::json_value::parse(record_json);
        EXPECT_EQ(static_cast<std::size_t>(record.at("index").as_number()), index);
        EXPECT_EQ(record.at("status").as_string(), "ok");
    }
    EXPECT_EQ(indices, (std::set<std::size_t>{0, 1, 2, 3}));
    EXPECT_EQ(read_file_bytes(fx.out), legacy_report_bytes(fx.spec));
}

TEST(farm_exec, on_point_fires_once_per_record_across_a_worker_crash)
{
    exec_fixture fx("onpointcrash");
    // Point 1's worker dies; the retry runs on a fresh worker with a
    // fresh stream. Every record still streams exactly once.
    const fault_env env("crash:1");
    farm::exec_options opt = fx.options();
    std::map<std::size_t, std::size_t> seen;
    opt.on_point = [&](std::size_t index, const std::string& record_json) {
        ++seen[index];
        EXPECT_EQ(farm::json_value::parse(record_json).at("index").as_index(), index);
    };
    const farm::exec_summary sum = farm::exec_campaign(fx.spec, opt);
    EXPECT_EQ(sum.completed, 4u);
    EXPECT_EQ(seen, (std::map<std::size_t, std::size_t>{{0, 1}, {1, 1}, {2, 1}, {3, 1}}));
    EXPECT_EQ(read_file_bytes(fx.out), legacy_report_bytes(fx.spec));
}

TEST(farm_exec, slow_worker_startup_is_not_charged_to_the_first_point)
{
    exec_fixture fx("slowstart");
    // Every worker takes 1.5 s to start (what a CPU-starved host does to
    // process startup), longer than the 1 s point budget. Startup is not
    // a point: nothing times out and nothing is quarantined.
    const std::string wrapper = "test_orch_slowstart_tool.sh";
    {
        std::ofstream script(wrapper, std::ios::binary);
        script << "#!/bin/sh\nsleep 1.5\nexec '" << ACSTAB_TOOL_PATH << "' \"$@\"\n";
    }
    std::filesystem::permissions(wrapper, std::filesystem::perms::owner_all,
                                 std::filesystem::perm_options::add);
    farm::exec_options opt = fx.options();
    opt.tool_path = std::filesystem::absolute(wrapper).string();
    opt.point_timeout_s = 1.0;
    const farm::exec_summary sum = farm::exec_campaign(fx.spec, opt);
    EXPECT_FALSE(sum.interrupted);
    EXPECT_EQ(sum.completed, 4u);
    EXPECT_TRUE(sum.quarantined.empty());
    EXPECT_EQ(read_file_bytes(fx.out), legacy_report_bytes(fx.spec));
}

TEST(farm_exec, cancelled_hook_checkpoints_like_an_interrupt)
{
    exec_fixture fx("cancelhook");
    bool cancel = false;
    farm::exec_options opt = fx.options();
    opt.on_point = [&](std::size_t, const std::string&) { cancel = true; };
    opt.cancelled = [&] { return cancel; };
    const farm::exec_summary sum = farm::exec_campaign(fx.spec, opt);
    EXPECT_TRUE(sum.interrupted);
    EXPECT_LT(sum.completed, 4u);
    EXPECT_GE(sum.completed, 1u);
    // Same contract as SIGINT: the campaign is resumable to identical bytes.
    farm::exec_options resume_opt = fx.options();
    resume_opt.resume = true;
    const farm::exec_summary resumed = farm::exec_campaign(fx.spec, resume_opt);
    EXPECT_FALSE(resumed.interrupted);
    EXPECT_EQ(resumed.completed, 4u);
    EXPECT_EQ(read_file_bytes(fx.out), legacy_report_bytes(fx.spec));
}

TEST(farm_exec, fresh_exec_refuses_an_existing_campaign_dir)
{
    const exec_fixture fx("guard");
    (void)farm::exec_campaign(fx.spec, fx.options());
    // Accidentally re-running without --resume must not clobber state.
    EXPECT_THROW((void)farm::exec_campaign(fx.spec, fx.options()), analysis_error);
    // And --resume on an already-complete campaign just re-merges.
    farm::exec_options opt = fx.options();
    opt.resume = true;
    const farm::exec_summary again = farm::exec_campaign(fx.spec, opt);
    EXPECT_EQ(again.completed, 4u);
    EXPECT_EQ(read_file_bytes(fx.out), legacy_report_bytes(fx.spec));
}

} // namespace
