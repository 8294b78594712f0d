#include "obs/trace_export.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <string>

namespace lt {
namespace obs {

namespace {

// Lane (pid) assignment in the exported trace.
constexpr int kThreadPid = 1;
constexpr int kRequestPid = 2;

/** Escape a string for a JSON string literal. Event names are ASCII
 *  literals by contract, so this stays simple. */
std::string
jsonEscape(const char *s)
{
    std::string out;
    for (; s != nullptr && *s != '\0'; ++s) {
        const char c = *s;
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

std::string
tsMicros(uint64_t ns)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                  static_cast<unsigned long long>(ns / 1000),
                  static_cast<unsigned long long>(ns % 1000));
    return buf;
}

/** Emit one trace_event object (no trailing comma). `tid` is the
 *  track within `pid`. */
void
writeEvent(std::ostream &os, const TraceEvent &e, int pid,
           uint64_t tid)
{
    os << "{\"name\":\"" << jsonEscape(e.name) << "\",\"pid\":" << pid
       << ",\"tid\":" << tid << ",\"ts\":" << tsMicros(e.ts_ns);
    switch (e.type) {
    case EventType::Span:
        os << ",\"ph\":\"X\",\"dur\":" << tsMicros(e.dur_ns);
        break;
    case EventType::Instant:
        os << ",\"ph\":\"i\",\"s\":\"t\"";
        break;
    case EventType::Counter:
        os << ",\"ph\":\"C\"";
        break;
    }
    os << ",\"args\":{";
    bool first = true;
    if (e.request_id != kNoRequest && e.type != EventType::Counter) {
        os << "\"request\":" << e.request_id;
        first = false;
    }
    for (size_t i = 0; i < e.numArgs(); ++i) {
        if (!first)
            os << ",";
        os << "\"" << jsonEscape(e.arg_names[i])
           << "\":" << e.args[i];
        first = false;
    }
    os << "}}";
}

void
writeMetadata(std::ostream &os, const char *field, int pid,
              bool with_tid, uint64_t tid, const std::string &name,
              bool &first)
{
    if (!first)
        os << ",\n";
    first = false;
    os << "{\"name\":\"" << field << "\",\"ph\":\"M\",\"pid\":" << pid;
    if (with_tid)
        os << ",\"tid\":" << tid;
    os << ",\"args\":{\"name\":\"" << jsonEscape(name.c_str())
       << "\"}}";
}

} // namespace

void
writeChromeTrace(std::ostream &os,
                 const std::vector<TraceRecorder::LaneSnapshot> &lanes)
{
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    bool first = true;

    writeMetadata(os, "process_name", kThreadPid, false, 0,
                  "lt threads", first);
    writeMetadata(os, "process_name", kRequestPid, false, 0,
                  "lt requests", first);

    // One named track per recorded thread, plus one per request id
    // seen anywhere in the trace.
    std::map<uint64_t, uint64_t> request_ids; // id -> event count
    for (const auto &lane : lanes) {
        writeMetadata(os, "thread_name", kThreadPid, true, lane.lane,
                      lane.label, first);
        for (const auto &e : lane.events)
            if (e.request_id != kNoRequest)
                ++request_ids[e.request_id];
    }
    for (const auto &kv : request_ids)
        writeMetadata(os, "thread_name", kRequestPid, true, kv.first,
                      "request " + std::to_string(kv.first), first);

    for (const auto &lane : lanes) {
        for (const auto &e : lane.events) {
            os << ",\n";
            writeEvent(os, e, kThreadPid, lane.lane);
            // Mirror request-tagged events onto the request's own
            // virtual lane so its lifecycle reads horizontally.
            if (e.request_id != kNoRequest) {
                os << ",\n";
                writeEvent(os, e, kRequestPid, e.request_id);
            }
        }
    }
    os << "\n]}\n";
}

bool
writeChromeTraceFile(const std::string &path, const TraceRecorder &rec)
{
    std::ofstream os(path);
    if (!os)
        return false;
    writeChromeTrace(os, rec.snapshot());
    return static_cast<bool>(os);
}

void
writeRequestTimelines(std::ostream &os,
                      const std::vector<TraceRecorder::LaneSnapshot> &lanes)
{
    std::map<uint64_t, std::vector<TraceEvent>> per_request;
    for (const auto &lane : lanes)
        for (const auto &e : lane.events)
            if (e.request_id != kNoRequest)
                per_request[e.request_id].push_back(e);

    for (auto &kv : per_request) {
        auto &events = kv.second;
        std::stable_sort(events.begin(), events.end(),
                         [](const TraceEvent &a, const TraceEvent &b) {
                             return a.ts_ns < b.ts_ns;
                         });
        const uint64_t t0 = events.front().ts_ns;
        os << "request " << kv.first << ":\n";
        for (const auto &e : events) {
            char line[128];
            std::snprintf(line, sizeof(line), "  +%9.3f ms  %-18s",
                          static_cast<double>(e.ts_ns - t0) / 1e6,
                          e.name);
            os << line;
            if (e.type == EventType::Span) {
                std::snprintf(line, sizeof(line), " (%.3f ms)",
                              static_cast<double>(e.dur_ns) / 1e6);
                os << line;
            }
            for (size_t i = 0; i < e.numArgs(); ++i)
                os << "  " << e.arg_names[i] << "=" << e.args[i];
            os << "\n";
        }
    }
}

PhaseBreakdown
phaseBreakdown(const std::vector<TraceRecorder::LaneSnapshot> &lanes)
{
    double admission_incl = 0.0;
    double admission_prefill = 0.0;
    PhaseBreakdown pb;
    for (const auto &lane : lanes) {
        for (const auto &e : lane.events) {
            if (e.type != EventType::Span)
                continue;
            const double ms = static_cast<double>(e.dur_ns) / 1e6;
            const std::string name = e.name;
            if (name == "tick/admission")
                admission_incl += ms;
            else if (name == "req/prefill")
                admission_prefill += ms;
            else if (name == "tick/prefill_chunk")
                pb.prefill_ms += ms;
            else if (name == "tick/decode")
                pb.decode_ms += ms;
            else if (name == "pool/admit")
                pb.pool_ms += ms;
        }
    }
    // Whole-prompt prefill and pool/admit spans nest inside
    // tick/admission; strip them so the four phases are disjoint and
    // sum to accounted time. Chunked prefill runs after admission, so
    // its chunk spans count as prefill without being stripped.
    pb.prefill_ms += admission_prefill;
    pb.admission_ms = std::max(
        0.0, admission_incl - admission_prefill - pb.pool_ms);
    return pb;
}

void
writePhaseBreakdown(std::ostream &os, const PhaseBreakdown &pb)
{
    const double total = pb.totalMs();
    const struct
    {
        const char *name;
        double ms;
    } rows[] = {
        {"admission (queue/bookkeeping)", pb.admission_ms},
        {"prefill", pb.prefill_ms},
        {"fused decode", pb.decode_ms},
        {"kv-pool admit", pb.pool_ms},
    };
    os << "tick phase breakdown (span time, all ticks):\n";
    for (const auto &row : rows) {
        char line[128];
        std::snprintf(line, sizeof(line), "  %-30s %10.3f ms  %5.1f%%\n",
                      row.name, row.ms,
                      total > 0.0 ? 100.0 * row.ms / total : 0.0);
        os << line;
    }
    char line[128];
    std::snprintf(line, sizeof(line), "  %-30s %10.3f ms\n", "total",
                  total);
    os << line;
}

} // namespace obs
} // namespace lt
