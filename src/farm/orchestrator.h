// Fault-tolerant farm orchestrator: `acstab farm exec`.
//
// exec_campaign() self-spawns N worker processes (the tool binary's
// internal `farm worker` mode) and feeds them grid points by dynamic
// work-stealing: workers lease SMALL contiguous index ranges from the
// orchestrator as they go idle, instead of receiving fixed contiguous
// slices up front — adaptive points have wildly uneven cost, and a fixed
// partition strands the whole campaign behind its slowest shard. The
// resulting merged report is nevertheless byte-identical to the legacy
// single-process path because records are slotted by stable global index
// and every per-point analysis is serial and deterministic.
//
// Fault model (per point):
//   * worker crash (any signal/exit) -> the in-flight point is retried
//     with exponential backoff; the untouched remainder of its lease is
//     requeued with no penalty; a replacement worker is spawned with a
//     FRESH shard file (a dead worker's file may end in a truncated
//     record and must never be appended again);
//   * wall-clock timeout on one point -> the worker is killed and the
//     point handled as a crash. The clock of a fresh worker's first
//     point starts at its ready line, so process startup (slow under CPU
//     starvation) is not charged to the point; a worker that dies or
//     hangs before it is ready is a startup failure, its lease requeued
//     without an attempt charged;
//   * retry budget exhausted -> the point is quarantined: its error text
//     is recorded and a placeholder record (status "quarantined") is
//     merged into the report instead of aborting the campaign;
//   * SIGINT/SIGTERM (the CLI sets `interrupt`) -> workers are stopped,
//     the journal records the interruption, and `--resume` re-leases
//     only unfinished/quarantined points (finished records are read back
//     from the crash-safe shard streams).
//
// The journal (workdir/journal.jsonl) is an append-only audit log:
// header written atomically (temp + rename), one flushed JSONL event per
// lease/completion/failure/quarantine. The authoritative completed-point
// set for resume is the shard streams themselves, so losing journal
// events can at worst repeat work, never corrupt results.
//
// Deterministic fault injection for tests rides on ACSTAB_FAULT_INJECT
// (comma-separated directives):
//   crash:<idx>            worker SIGKILLs itself before running <idx>
//   stall:<idx>[:<s>]      worker sleeps <s> (default 30) before <idx>
//   interrupt:<n>          orchestrator behaves as if SIGINT arrived
//                          after the n-th completed point
// Each directive fires once per workdir (an O_CREAT|O_EXCL marker file
// records the firing) unless suffixed ":always", so the retry of an
// injected fault succeeds and the campaign still converges to the
// byte-identical report.
#ifndef ACSTAB_FARM_ORCHESTRATOR_H
#define ACSTAB_FARM_ORCHESTRATOR_H

#include <csignal>
#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "farm/campaign.h"

namespace acstab::farm {

struct exec_options {
    std::size_t workers = 2;      ///< worker processes to keep alive
    std::string workdir;          ///< journal + shard streams (required)
    std::string out;              ///< merged report path (required)
    std::string plan_path;        ///< plan file workers re-read (required)
    bool resume = false;          ///< continue an interrupted campaign
    real point_timeout_s = 300.0; ///< per-point wall-clock budget
    std::size_t max_attempts = 3; ///< attempts before quarantine
    real backoff_s = 0.25;        ///< retry backoff base (doubles per attempt)
    /// Worker binary; empty = this process's own executable
    /// (/proc/self/exe). Tests point it at the real tool binary.
    std::string tool_path;
    /// CLI's SIGINT/SIGTERM flag; polled every loop iteration (nullptr =
    /// not interruptible from outside).
    const volatile std::sig_atomic_t* interrupt = nullptr;
    /// Cooperative cancellation hook polled alongside `interrupt`;
    /// returning true stops the campaign exactly like SIGINT (workers
    /// killed, on-disk state stays resumable). The serve daemon points
    /// this at the request's cancel flag so a client disconnect or
    /// deadline reaps exactly that request's workers.
    std::function<bool()> cancelled;
    /// Streamed once per completed point: the global index plus the
    /// exact record line appended to the shard stream (canonical
    /// point_record_to_json bytes, durable before this fires), from the
    /// same read that enters it in the merge index. Called from inside
    /// the orchestrator loop; must not throw. Points recovered from shard
    /// streams by --resume are NOT replayed.
    std::function<void(std::size_t index, const std::string& record_json)> on_point;
    bool verbose = true; ///< per-point progress lines on stdout
};

struct exec_summary {
    std::size_t total = 0;
    std::size_t completed = 0; ///< points with a real record
    /// Quarantined points and their recorded error text, index-sorted.
    std::vector<std::pair<std::size_t, std::string>> quarantined;
    bool interrupted = false; ///< stopped early; resumable
};

/// Run (or resume) a campaign under the fault-tolerant orchestrator and
/// merge the report to opt.out. Throws analysis_error on setup/config
/// errors; worker-level failures are retried/quarantined, not thrown.
exec_summary exec_campaign(const campaign_spec& spec, const exec_options& opt);

/// Worker-process entry point (`acstab farm worker`, spawned by
/// exec_campaign): answer "R" on stdout once the plan is loaded and the
/// shard header written (the orchestrator starts the point clock there),
/// then read "L <begin> <end>" leases on stdin, run each point serially,
/// append its record to the shard stream (durably, BEFORE
/// acknowledging), answer "P <idx>" per point and "D <begin> <end>" per
/// lease on stdout; exit 0 on stdin EOF.
int run_worker(const campaign_spec& spec, const std::string& shard_path,
               std::size_t worker_id);

} // namespace acstab::farm

#endif // ACSTAB_FARM_ORCHESTRATOR_H
