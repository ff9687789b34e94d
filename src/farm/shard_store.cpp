#include "farm/shard_store.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include <fcntl.h>
#include <unistd.h>

#include "common/error.h"

namespace acstab::farm {

namespace {

    [[nodiscard]] std::string errno_text()
    {
        return std::strerror(errno);
    }

    /// Corrupt-shard diagnostics must tell the operator what happened and
    /// what to do next, not just where the parser gave up.
    [[noreturn]] void throw_corrupt(const std::string& path, std::uint64_t offset,
                                    const std::string& detail)
    {
        throw analysis_error("farm: shard file '" + path + "' is corrupt at byte offset "
                             + std::to_string(offset) + " (" + detail
                             + "); the writing worker likely crashed mid-write — "
                               "delete this shard file and re-run with "
                               "'acstab farm exec --resume' to recompute its points");
    }

    /// Read chunk of a cursor: about one record of a 250-point sweep, so
    /// an acknowledgment costs one read and the buffer stays small.
    constexpr std::size_t cursor_chunk_bytes = 16 * 1024;
    /// read_span's read-ahead window: several records per read when the
    /// emit pass walks a stream in file order.
    constexpr std::size_t span_window_bytes = 64 * 1024;

    /// pread until `len` bytes or end of file; the byte count read.
    [[nodiscard]] std::size_t pread_full(int fd, const std::string& path, char* buf,
                                         std::size_t len, std::uint64_t offset)
    {
        std::size_t got = 0;
        while (got < len) {
            const ssize_t n = ::pread(fd, buf + got, len - got,
                                      static_cast<off_t>(offset + got));
            if (n < 0 && errno == EINTR)
                continue;
            if (n < 0)
                throw analysis_error("farm: cannot read shard file '" + path
                                     + "': " + errno_text());
            if (n == 0)
                break;
            got += static_cast<std::size_t>(n);
        }
        return got;
    }

} // namespace

shard_writer::shard_writer(const std::string& path, const campaign_spec& spec,
                           std::size_t worker_id)
    : path_(path)
{
    file_ = std::fopen(path.c_str(), "ab");
    if (file_ == nullptr)
        throw analysis_error("farm: cannot open shard file '" + path
                             + "' for append: " + errno_text());
    // A fresh (empty) file gets the header line; an existing file keeps
    // its own — appending after a crash is the orchestrator's job to
    // forbid (it hands respawned workers fresh files), not ours.
    if (std::ftell(file_) == 0) {
        json_value header = json_value::object();
        header.set("schema", json_value::str(shard_stream_schema));
        header.set("campaign", to_json(spec));
        header.set("worker", json_value::number(worker_id));
        const std::string line = header.dump() + "\n";
        if (std::fwrite(line.data(), 1, line.size(), file_) != line.size()
            || std::fflush(file_) != 0)
            throw analysis_error("farm: cannot write shard header to '" + path
                                 + "': " + errno_text());
    }
}

shard_writer::~shard_writer()
{
    if (file_ != nullptr)
        std::fclose(file_);
}

void shard_writer::append(const point_record& rec)
{
    // One fwrite for "record\n", then flush: after a SIGKILL the file
    // holds a valid prefix plus at most one newline-less tail, which
    // scan_shard_stream() drops.
    const std::string line = point_record_to_json(rec).dump() + "\n";
    if (std::fwrite(line.data(), 1, line.size(), file_) != line.size()
        || std::fflush(file_) != 0)
        throw analysis_error("farm: cannot append record to shard file '" + path_
                             + "': " + errno_text());
}

shard_stream_cursor::shard_stream_cursor(const std::string& path, std::string spec_bytes)
    : path_(path), spec_bytes_(std::move(spec_bytes))
{
    fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd_ < 0)
        throw analysis_error("farm: cannot open shard file '" + path + "'");
}

shard_stream_cursor::~shard_stream_cursor()
{
    if (fd_ >= 0)
        ::close(fd_);
}

bool shard_stream_cursor::fill()
{
    buf_offset_ += pos_;
    buf_.erase(0, pos_);
    pos_ = 0;
    const std::size_t kept = buf_.size();
    buf_.resize(kept + cursor_chunk_bytes);
    const std::size_t got
        = pread_full(fd_, path_, buf_.data() + kept, cursor_chunk_bytes, buf_offset_ + kept);
    buf_.resize(kept + got);
    return got > 0;
}

void shard_stream_cursor::check_header(const std::string& line, std::uint64_t offset) const
{
    // shard_writer's header is {"schema":S,"campaign":<spec bytes>,
    // "worker":N}. Those exact bytes pass every check below, so they are
    // accepted without parsing the campaign echo, which for a plan with
    // a thousand-value axis is the largest cost of the first
    // acknowledgment. Any other header takes the full check.
    if (!spec_bytes_.empty()) {
        const std::string prefix = std::string("{\"schema\":\"") + shard_stream_schema
            + "\",\"campaign\":" + spec_bytes_ + ",\"worker\":";
        if (line.size() > prefix.size() + 1 && line.compare(0, prefix.size(), prefix) == 0
            && line.back() == '}'
            && line.find_first_not_of("0123456789", prefix.size()) == line.size() - 1)
            return;
    }
    json_value header;
    try {
        header = json_value::parse(line);
    } catch (const parse_error& e) {
        throw_corrupt(path_, offset, e.what());
    }
    const json_value* schema = header.find("schema");
    if (schema == nullptr || schema->type() != json_value::kind::string
        || schema->as_string() != shard_stream_schema)
        throw analysis_error("farm: '" + path_
                             + "' is not an acstab shard stream (bad schema field)");
    if (!spec_bytes_.empty() && header.at("campaign").dump() != spec_bytes_)
        throw analysis_error("farm: shard file '" + path_
                             + "' was produced by a different campaign plan");
}

bool shard_stream_cursor::next(stream_record_ref& ref, std::string& line)
{
    std::size_t searched = pos_;
    for (;;) {
        const std::size_t nl = buf_.find('\n', searched);
        if (nl == std::string::npos) {
            searched = buf_.size() - pos_; // relative: fill() drops the consumed prefix
            if (!fill())
                return false;
            continue;
        }
        const std::uint64_t offset = buf_offset_ + pos_;
        line.assign(buf_, pos_, nl - pos_);
        pos_ = nl + 1;
        searched = pos_;
        if (!saw_header_) {
            check_header(line, offset);
            saw_header_ = true;
            continue;
        }
        json_value rec;
        try {
            rec = json_value::parse(line);
        } catch (const parse_error& e) {
            // Mid-file damage (every complete record line must parse;
            // only the very last line may be a crash casualty).
            throw_corrupt(path_, offset, e.what());
        }
        const json_value* index = rec.find("index");
        if (index == nullptr)
            throw_corrupt(path_, offset, "record has no index field");
        ref = {index->as_index(), offset, line.size()};
        return true;
    }
}

std::size_t shard_stream_cursor::finish() const
{
    // Whatever follows the last newline is a record cut short by a
    // killed worker. Drop it; the point is simply not finished.
    const std::size_t tail = buf_.size() - pos_;
    if (!saw_header_) {
        if (tail != 0)
            throw_corrupt(path_, 0, "header line is truncated");
        throw analysis_error("farm: '" + path_
                             + "' is not an acstab shard stream (empty file)");
    }
    return tail;
}

std::string_view shard_stream_cursor::read_span(std::uint64_t offset, std::size_t length)
{
    if (offset < window_offset_ || offset + length > window_offset_ + window_.size()) {
        window_.resize(std::max(span_window_bytes, length));
        window_.resize(pread_full(fd_, path_, window_.data(), window_.size(), offset));
        window_offset_ = offset;
        if (window_.size() < length)
            throw analysis_error("farm: short read from shard file '" + path_
                                 + "' at byte offset " + std::to_string(offset)
                                 + " (file changed while merging?)");
    }
    return std::string_view(window_).substr(offset - window_offset_, length);
}

shard_stream_scan scan_shard_stream(const std::string& path, const std::string& spec_bytes)
{
    shard_stream_cursor cursor(path, spec_bytes);
    shard_stream_scan scan;
    stream_record_ref ref;
    std::string line;
    while (cursor.next(ref, line))
        scan.records.push_back(ref);
    scan.truncated_tail_bytes = cursor.finish();
    return scan;
}

bool is_shard_stream_file(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    // Cheap sniff: the canonical header starts with the schema member.
    const std::string magic = std::string("{\"schema\":\"") + shard_stream_schema + "\"";
    std::string head(magic.size(), '\0');
    in.read(head.data(), static_cast<std::streamsize>(head.size()));
    return static_cast<std::size_t>(in.gcount()) == magic.size() && head == magic;
}

stream_merge_index::stream_merge_index(const campaign_spec& spec)
    : total_(spec.grid.size()), spec_bytes_(to_json(spec).dump()), slots_(total_)
{
}

std::size_t stream_merge_index::add_stream(const std::string& path)
{
    streams_.emplace_back(path, spec_bytes_);
    return streams_.size() - 1;
}

std::size_t stream_merge_index::stream_of(const std::string& path) const
{
    for (std::size_t s = 0; s < streams_.size(); ++s)
        if (streams_[s].path() == path)
            return s;
    return npos;
}

bool stream_merge_index::advance(std::size_t s, std::size_t through, const record_hook& fresh)
{
    shard_stream_cursor& cursor = streams_[s];
    stream_record_ref ref;
    while (cursor.next(ref, line_)) {
        if (ref.point >= total_)
            throw analysis_error("farm: shard file '" + cursor.path() + "' has record index "
                                 + std::to_string(ref.point) + " outside the grid");
        slot_ref& slot = slots_[ref.point];
        if (slot.stream == npos) {
            slot = {s, ref.offset, ref.length};
            if (fresh)
                fresh(ref.point, line_);
        } else {
            // A worker that died after appending but before its
            // acknowledgment leaves a duplicate; the retried computation
            // is deterministic, so the copies must be byte-identical.
            // Anything else is a real conflict.
            shard_stream_cursor& first = streams_[slot.stream];
            if (first.read_span(slot.offset, slot.length) != line_)
                throw analysis_error("farm: conflicting records for point "
                                     + std::to_string(ref.point) + " in '" + first.path()
                                     + "' and '" + cursor.path()
                                     + "' (shards from different campaign runs mixed "
                                       "together?)");
        }
        if (ref.point == through)
            return true;
    }
    return false;
}

void stream_merge_index::finish()
{
    for (std::size_t s = 0; s < streams_.size(); ++s) {
        advance(s);
        (void)streams_[s].finish();
    }
}

stream_merge_result stream_merge_index::emit(const std::vector<point_record>& extra_records,
                                             const std::string& out_path)
{
    // Quarantined points ride as synthesized fallback records; a real
    // result (e.g. appended just before the worker's final crash) beats
    // its own quarantine placeholder.
    stream_merge_result result;
    std::vector<std::string> extra_bytes(total_);
    for (const point_record& rec : extra_records) {
        if (rec.index >= total_)
            throw analysis_error("farm: extra record index " + std::to_string(rec.index)
                                 + " outside the grid");
        if (slots_[rec.index].stream != npos)
            continue;
        extra_bytes[rec.index] = point_record_to_json(rec).dump();
        result.extras_used.push_back(rec.index);
    }

    std::size_t missing = 0;
    std::size_t first_missing = 0;
    for (std::size_t i = 0; i < total_; ++i) {
        if (slots_[i].stream == npos && extra_bytes[i].empty()) {
            if (missing == 0)
                first_missing = i;
            ++missing;
        }
    }
    if (missing != 0)
        throw analysis_error("farm: merge is missing " + std::to_string(missing) + " of "
                             + std::to_string(total_) + " points (first missing index "
                             + std::to_string(first_missing)
                             + "); re-run with 'acstab farm exec --resume' to finish them");

    // Emit the report record by record, one resident at a time. Bytes
    // match merge_shards(): same prefix, same record bytes (the writer
    // stored the canonical dump), same separators.
    const std::string tmp_path = out_path.empty() ? std::string() : out_path + ".tmp";
    std::FILE* out = out_path.empty() ? stdout : std::fopen(tmp_path.c_str(), "wb");
    if (out == nullptr)
        throw analysis_error("farm: cannot write '" + tmp_path + "': " + errno_text());
    const auto emit_bytes = [&](std::string_view text) {
        if (std::fwrite(text.data(), 1, text.size(), out) != text.size())
            throw analysis_error("farm: cannot write report: " + errno_text());
    };
    std::string prefix = "{\"schema\":\"";
    prefix += report_schema;
    prefix += "\",\"campaign\":";
    prefix += spec_bytes_;
    prefix += ",\"points\":";
    prefix += json_value::number(total_).dump();
    prefix += ",\"records\":[";
    try {
        emit_bytes(prefix);
        for (std::size_t i = 0; i < total_; ++i) {
            if (i != 0)
                emit_bytes(",");
            const slot_ref& slot = slots_[i];
            if (slot.stream != npos)
                emit_bytes(streams_[slot.stream].read_span(slot.offset, slot.length));
            else
                emit_bytes(extra_bytes[i]);
        }
        emit_bytes("]}\n");
    } catch (...) {
        if (out != stdout) {
            std::fclose(out);
            std::remove(tmp_path.c_str());
        }
        throw;
    }
    if (out != stdout) {
        const bool flushed = std::fflush(out) == 0 && ::fsync(fileno(out)) == 0;
        std::fclose(out);
        if (!flushed || std::rename(tmp_path.c_str(), out_path.c_str()) != 0) {
            const std::string msg = errno_text();
            std::remove(tmp_path.c_str());
            throw analysis_error("farm: cannot finalize report '" + out_path + "': " + msg);
        }
    } else {
        std::fflush(out);
    }
    result.points = total_;
    return result;
}

stream_merge_result merge_shard_streams(const campaign_spec& spec,
                                        const std::vector<std::string>& shard_paths,
                                        const std::vector<point_record>& extra_records,
                                        const std::string& out_path)
{
    stream_merge_index index(spec);
    for (const std::string& path : shard_paths)
        index.add_stream(path);
    index.finish();
    return index.emit(extra_records, out_path);
}

json_value parse_shard_document(const std::string& text, const std::string& name)
{
    try {
        return json_value::parse(text);
    } catch (const parse_error& e) {
        // parse_error already reports "at offset N"; prepend the file and
        // append the recovery route so the message stands on its own.
        throw analysis_error("farm: cannot parse '" + name + "': " + e.what()
                             + "; if this is a farm shard, the writing worker likely "
                               "crashed mid-write — re-run with 'acstab farm exec "
                               "--resume' (JSONL shards recover automatically)");
    }
}

} // namespace acstab::farm
