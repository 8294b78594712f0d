/**
 * @file
 * Exporters over a TraceRecorder snapshot:
 *
 *  - writeChromeTrace: Chrome/Perfetto `trace_event` JSON, loadable
 *    as-is in chrome://tracing or ui.perfetto.dev. Lanes: pid 1 holds
 *    one track per recorded thread; pid 2 holds one VIRTUAL track per
 *    request id, mirroring every event tagged with that request so a
 *    request's lifecycle (submit -> queued -> admitted -> prefill ->
 *    per-token ticks -> complete) reads as one horizontal lane.
 *
 *  - writeRequestTimelines: plain-text per-request timelines (the
 *    grep-able form of the pid-2 lanes).
 *
 *  - phaseBreakdown / writePhaseBreakdown: folds span durations into
 *    the serving analogue of the paper's Fig. 10 stage breakdown —
 *    how total tick time splits across admission / prefill / fused
 *    decode / KV-pool work.
 */

#ifndef LT_OBS_TRACE_EXPORT_HH
#define LT_OBS_TRACE_EXPORT_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/trace.hh"

namespace lt {
namespace obs {

/** Serialize lanes as Chrome trace_event JSON (strict JSON: also
 *  parseable by `python3 -m json.tool`). */
void writeChromeTrace(std::ostream &os,
                      const std::vector<TraceRecorder::LaneSnapshot> &lanes);

/** Convenience: snapshot `rec` and write to `path`. Returns false if
 *  the file could not be opened. */
bool writeChromeTraceFile(const std::string &path,
                          const TraceRecorder &rec);

/** Plain-text per-request event timelines, ordered by request id. */
void writeRequestTimelines(std::ostream &os,
                           const std::vector<TraceRecorder::LaneSnapshot> &lanes);

/** Disjoint per-phase span-time totals, in milliseconds.
 *  `admission_ms` excludes the nested prefill/pool spans so the four
 *  figures sum to total accounted tick time; chunked-prefill spans
 *  run outside admission and count as prefill only. */
struct PhaseBreakdown
{
    double admission_ms = 0.0; ///< tick/admission minus nested spans
    double prefill_ms = 0.0;   ///< req/prefill + tick/prefill_chunk
    double decode_ms = 0.0;    ///< tick/decode
    double pool_ms = 0.0;      ///< pool/admit

    double
    totalMs() const
    {
        return admission_ms + prefill_ms + decode_ms + pool_ms;
    }
};

PhaseBreakdown
phaseBreakdown(const std::vector<TraceRecorder::LaneSnapshot> &lanes);

/** Render a breakdown as an aligned ms / % table. */
void writePhaseBreakdown(std::ostream &os, const PhaseBreakdown &pb);

} // namespace obs
} // namespace lt

#endif // LT_OBS_TRACE_EXPORT_HH
