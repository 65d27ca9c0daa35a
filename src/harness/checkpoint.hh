/**
 * @file
 * Sweep checkpointing: crash-safe JSONL progress log + resume loader.
 *
 * A long sweep (the 253-point paper grid, or far larger extension
 * grids) must not lose completed work to one crash, OOM kill, or CI
 * timeout. The driver appends one self-contained JSON line per
 * completed job — flushed immediately, so a hard kill loses at most
 * the in-flight jobs — and on --resume the loader replays the file,
 * verifies that each line belongs to the current grid (schema
 * version, suite, scale, and the full config identity key), and
 * hands back the verified results so only the missing points re-run.
 *
 * The stored result object is kept as raw JSON text (see
 * JsonValue::raw) and spliced verbatim into the merged artifact, so
 * a resumed artifact is byte-identical to an uninterrupted one in
 * every deterministic field.
 *
 * Line schema (v1):
 *     {"v":1,"suite":"...","scale":25,"benchmark":"LL1",
 *      "label":"fig05/4T","config_key":"{...}","status":"ok",
 *      "attempts":1,"error":"","result":{...}}
 */

#ifndef SDSP_HARNESS_CHECKPOINT_HH
#define SDSP_HARNESS_CHECKPOINT_HH

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "harness/sweep.hh"

namespace sdsp
{

/** One reloaded checkpoint line. */
struct CheckpointEntry
{
    std::string benchmark;
    std::string label;
    /** configKey() of the point's MachineConfig — the identity the
     *  resume path verifies against the current grid. */
    std::string configKey;
    /** jobStatusName() at checkpoint time. */
    std::string status;
    std::string error;
    unsigned attempts = 1;
    /** Headline numbers re-parsed for aggregate totals. */
    std::uint64_t cycles = 0;
    std::uint64_t committed = 0;
    /** The result object's exact JSON text, for verbatim splicing. */
    std::string resultRaw;

    bool ok() const { return status == "ok"; }
};

/** Appends one flushed JSONL line per completed job. Thread-safe. */
class CheckpointWriter
{
  public:
    /**
     * Open @p path (append when @p append, else truncate). A failed
     * open leaves the writer disabled (ok() false) — checkpointing
     * degrades to a warning, it never kills the sweep.
     */
    CheckpointWriter(const std::string &path, const std::string &suite,
                     unsigned scale, bool append);

    bool ok() const { return static_cast<bool>(out_); }
    const std::string &path() const { return path_; }

    /** Serialize and append @p outcome; flushes the line. */
    void record(const SweepJob &job, const JobOutcome &outcome);

  private:
    std::mutex mutex_;
    std::ofstream out_;
    std::string path_;
    std::string suite_;
    unsigned scale_;
};

/** What loadCheckpoint() recovered. */
struct CheckpointLog
{
    std::vector<CheckpointEntry> entries;
    std::size_t linesTotal = 0;
    /** Malformed or truncated lines skipped (a hard kill can tear
     *  the final line; that must not poison the resume). */
    std::size_t linesIgnored = 0;
};

/**
 * Reload @p path. Fatal when the file is missing, or when a line's
 * schema version, suite, or scale contradicts the current run —
 * resuming across incompatible grids silently corrupts artifacts.
 * Malformed lines are skipped with a warning.
 */
CheckpointLog loadCheckpoint(const std::string &path,
                             const std::string &suite, unsigned scale);

} // namespace sdsp

#endif // SDSP_HARNESS_CHECKPOINT_HH
