// Crash-safe append-only shard store + streaming merge.
//
// The work-stealing farm cannot use the one-document-per-shard format of
// `farm run`: a worker that is killed mid-campaign must lose at most the
// record it was writing, and a million-point merge must not hold the
// whole report in memory. Shard STREAMS therefore are JSONL files —
// line 1 is a header object (schema + byte-exact campaign echo + worker
// id), every further line is one point record in the exact byte form
// `point_record_to_json(rec).dump()`. Records are append-only and
// record-atomic: each is written with a single fwrite of "record\n" and
// flushed before the point is acknowledged, so after SIGKILL the file is
// a valid prefix plus at most one truncated trailing line, which readers
// detect (missing trailing newline) and drop — the orchestrator simply
// re-runs that point, and because per-point analysis is deterministic
// the re-run is byte-safe.
//
// The merge index (stream_merge_index) records only {point index ->
// file, byte offset, length}; the report is then emitted record by
// record in global index order by reading back into the shards, so a
// million-point merge holds O(1) records. `farm exec` builds the index
// while the points run: on each "P i" acknowledgment it advances that
// worker's shard_stream_cursor through record i (validated and indexed
// exactly as a full scan does it, and handed to on_point from the same
// read), a --resume reuses the index of its recovery scan, and after
// the last acknowledgment only the bytes never read are scanned:
// records appended but never acknowledged, and truncated tails. `farm
// merge` registers every stream and scans it whole. Duplicate records
// for one index are legal iff byte-identical (a worker that died after
// appending but before acknowledging leaves one; the retry appends an
// identical copy); conflicting duplicates abort the merge. The emitted
// bytes are identical to the in-memory merge_shards() path.
#ifndef ACSTAB_FARM_SHARD_STORE_H
#define ACSTAB_FARM_SHARD_STORE_H

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "farm/executor.h"

namespace acstab::farm {

/// Schema tag on line 1 of every shard stream file.
inline constexpr const char* shard_stream_schema = "acstab-farm-shardstream-v1";

/// Append-only writer for one worker's shard stream. The header is
/// written (and flushed) on creation of a fresh file; append() performs
/// one fwrite + fflush per record, which is the record-atomicity
/// contract above. A file is owned by exactly one writer process for its
/// whole lifetime — respawned workers get a fresh file, never an append
/// handle to a dead worker's (its tail may be truncated).
class shard_writer {
public:
    shard_writer(const std::string& path, const campaign_spec& spec, std::size_t worker_id);
    ~shard_writer();
    shard_writer(const shard_writer&) = delete;
    shard_writer& operator=(const shard_writer&) = delete;

    /// Append one finished point record (single write + flush).
    void append(const point_record& rec);

    [[nodiscard]] const std::string& path() const noexcept { return path_; }

private:
    std::string path_;
    std::FILE* file_ = nullptr;
};

/// Location of one record line inside a scanned shard stream.
struct stream_record_ref {
    std::size_t point = 0;   ///< global grid index
    std::uint64_t offset = 0; ///< byte offset of the record line
    std::size_t length = 0;  ///< line length, excluding the '\n'
};

/// Incremental reader of one shard stream. Each next() reads on from
/// where the last one stopped, so a stream that is still being appended
/// to is read once, record by record, as the records land: the first
/// complete line must be the header (schema + campaign echo byte-equal
/// to `spec_bytes`, skipped when `spec_bytes` is empty), every later
/// complete line must parse as a record with an index. Corruption throws
/// analysis_error with the file name, byte offset and a what-to-do-next
/// hint. A newline-less tail is left unread: it is either a record still
/// being written or, once the writer is gone, a killed worker's
/// truncated record, which finish() reports and drops. Memory stays
/// O(1 record).
class shard_stream_cursor {
public:
    shard_stream_cursor(const std::string& path, std::string spec_bytes);
    ~shard_stream_cursor();
    shard_stream_cursor(const shard_stream_cursor&) = delete;
    shard_stream_cursor& operator=(const shard_stream_cursor&) = delete;

    /// Read and check the next complete record line into `ref` and
    /// `line` (the record bytes, without the '\n'). False when no
    /// complete line is left (yet).
    [[nodiscard]] bool next(stream_record_ref& ref, std::string& line);

    /// End of the stream, after next() returned false: the bytes of the
    /// truncated trailing record that are dropped (0 = clean file).
    /// Throws when the file never got a complete header line.
    [[nodiscard]] std::size_t finish() const;

    /// `length` bytes at `offset`, read through a read-ahead window
    /// (records are mostly read back in file order). Valid until the
    /// next read_span call on this cursor.
    [[nodiscard]] std::string_view read_span(std::uint64_t offset, std::size_t length);

    [[nodiscard]] const std::string& path() const noexcept { return path_; }

private:
    /// Append the next chunk of the file to buf_; false at end of file.
    bool fill();
    void check_header(const std::string& line, std::uint64_t offset) const;

    std::string path_;
    std::string spec_bytes_;
    int fd_ = -1;
    bool saw_header_ = false;
    std::string buf_;              ///< bytes read but not yet consumed
    std::uint64_t buf_offset_ = 0; ///< file offset of buf_[0]
    std::size_t pos_ = 0;          ///< start of the unconsumed part of buf_
    std::string window_;           ///< read_span's read-ahead window
    std::uint64_t window_offset_ = 0;
};

struct shard_stream_scan {
    std::vector<stream_record_ref> records;
    /// Bytes of a truncated trailing record that was dropped (0 = clean
    /// file). A non-zero value is the normal signature of a killed
    /// worker, not an error.
    std::size_t truncated_tail_bytes = 0;
};

/// Scan one whole shard stream: a shard_stream_cursor run from byte 0
/// to the end, then finished.
[[nodiscard]] shard_stream_scan scan_shard_stream(const std::string& path,
                                                  const std::string& spec_bytes);

/// True when `path` starts with a shard-stream header (sniffs the first
/// bytes; used by `farm merge` to dispatch between document shards and
/// JSONL stream shards).
[[nodiscard]] bool is_shard_stream_file(const std::string& path);

struct stream_merge_result {
    std::size_t points = 0;
    /// Indices whose record came from `extra_records` (quarantined
    /// points synthesized by the orchestrator). An extra whose index
    /// already has a real shard record is ignored — a completed result
    /// always beats a quarantine placeholder.
    std::vector<std::size_t> extras_used;
};

/// The merge index of a campaign's shard streams: {point index -> stream,
/// byte offset, length}, built by advancing one cursor per stream. `farm
/// exec` advances a worker's cursor on each acknowledgment, so the index
/// is built while the points run and each record is read and parsed
/// once; a plain merge registers every stream and finishes. Duplicate
/// records for one index are legal iff byte-identical (a worker that
/// died after appending but before acknowledging leaves one; the retry
/// appends an identical copy); conflicting duplicates throw.
class stream_merge_index {
public:
    /// Called with each record that fills an empty slot.
    using record_hook = std::function<void(std::size_t index, const std::string& record)>;
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    explicit stream_merge_index(const campaign_spec& spec);

    /// Open a stream for indexing; returns its id.
    std::size_t add_stream(const std::string& path);
    /// Id of the stream registered under `path`, or npos.
    [[nodiscard]] std::size_t stream_of(const std::string& path) const;

    /// Index stream `s` through its complete record lines, stopping
    /// right after the record of point `through` (npos: through the
    /// last complete line). Returns whether that record was read.
    bool advance(std::size_t s, std::size_t through = npos, const record_hook& fresh = {});

    /// Index what is left of every stream (records appended but never
    /// acknowledged) and drop truncated tails.
    void finish();

    /// Emit the campaign report at `out_path`, written atomically (temp
    /// file + rename; empty path = stdout), filling unindexed points from
    /// `extra_records` (quarantine placeholders). Bytes are identical to
    /// merge_shards() on the same records. Coverage is verified: every
    /// grid index exactly once. Resident memory is O(1) records plus
    /// O(points) slot refs.
    stream_merge_result emit(const std::vector<point_record>& extra_records,
                             const std::string& out_path);

private:
    struct slot_ref {
        std::size_t stream = npos;
        std::uint64_t offset = 0;
        std::size_t length = 0;
    };

    std::size_t total_ = 0;
    std::string spec_bytes_;
    std::deque<shard_stream_cursor> streams_;
    std::vector<slot_ref> slots_;
    std::string line_; ///< reused record buffer
};

/// Streaming merge of shard stream files (+ synthesized fallback records
/// for quarantined points) into the campaign report: every stream
/// registered with a stream_merge_index, finished, emitted.
stream_merge_result merge_shard_streams(const campaign_spec& spec,
                                        const std::vector<std::string>& shard_paths,
                                        const std::vector<point_record>& extra_records,
                                        const std::string& out_path);

/// Parse a whole-document farm JSON file's text with an actionable
/// error: on malformed/truncated input, the analysis_error names the
/// file, the byte offset and the likely cause (crashed writer) plus the
/// --resume recovery hint instead of a bare parse failure.
[[nodiscard]] json_value parse_shard_document(const std::string& text,
                                              const std::string& name);

} // namespace acstab::farm

#endif // ACSTAB_FARM_SHARD_STORE_H
