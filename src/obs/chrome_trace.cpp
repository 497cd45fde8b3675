#include "obs/chrome_trace.hpp"

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

namespace insitu::obs {

namespace {

/// Fixed-point microseconds with stable formatting (golden-testable).
std::string format_us(double microseconds) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", microseconds);
  return buf;
}

void write_metadata(std::ostream& out, const char* what, int pid, int tid,
                    bool with_tid, const std::string& name, bool& first) {
  if (!first) out << ",\n";
  first = false;
  out << "  {\"name\":\"" << what << "\",\"ph\":\"M\",\"pid\":" << pid;
  if (with_tid) out << ",\"tid\":" << tid;
  out << ",\"args\":{\"name\":\"" << json_escape(name) << "\"}}";
}

void write_span(std::ostream& out, const TraceEvent& e, int pid,
                const ChromeTraceOptions& options, bool& first) {
  double ts_us = 0.0;
  double dur_us = 0.0;
  if (options.timeline == ChromeTraceOptions::Timeline::kVirtual) {
    ts_us = e.virt_begin_s * 1e6;
    dur_us = e.virt_dur_s * 1e6;
  } else {
    ts_us = static_cast<double>(e.wall_begin_ns) / 1e3;
    dur_us = static_cast<double>(e.wall_dur_ns) / 1e3;
  }
  if (!first) out << ",\n";
  first = false;
  out << "  {\"name\":\"" << json_escape(e.name) << "\",\"cat\":\""
      << to_string(e.category) << "\",\"ph\":\"X\",\"pid\":" << pid
      << ",\"tid\":" << e.rank << ",\"ts\":" << format_us(ts_us)
      << ",\"dur\":" << format_us(dur_us);
  if (options.include_args) {
    out << ",\"args\":{\"depth\":" << e.depth
        << ",\"virtual_s\":" << format_num(e.virt_begin_s)
        << ",\"virtual_dur_s\":" << format_num(e.virt_dur_s)
        << ",\"wall_ms\":"
        << format_num(static_cast<double>(e.wall_begin_ns) / 1e6)
        << ",\"wall_dur_ms\":"
        << format_num(static_cast<double>(e.wall_dur_ns) / 1e6);
    for (const TraceArg& a : e.args) {
      out << ",\"" << json_escape(a.key) << "\":" << format_num(a.value);
    }
    out << "}";
  }
  out << "}";
}

}  // namespace

std::string format_num(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", value);
  return buf;
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void write_chrome_trace(std::ostream& out, std::span<const TraceRun> runs,
                        const ChromeTraceOptions& options) {
  out << "{\"displayTimeUnit\":\"ms\",";
  if (options.meta != nullptr) {
    const ExportMeta& m = *options.meta;
    out << "\"metadata\":{\"schema\":\"" << kTraceSchema << "\",\"tool\":\""
        << json_escape(m.tool) << "\",\"config\":\"" << json_escape(m.config)
        << "\",\"seed\":" << m.seed << "},";
  }
  out << "\"traceEvents\":[\n";
  bool first = true;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const TraceRun& run = runs[r];
    const int pid = static_cast<int>(r) + 1;
    write_metadata(out, "process_name", pid, 0, /*with_tid=*/false,
                   run.label.empty() ? "insitu" : run.label, first);
    for (int rank = 0; rank < run.log.nranks; ++rank) {
      write_metadata(out, "thread_name", pid, rank, /*with_tid=*/true,
                     "rank " + std::to_string(rank), first);
    }
    // Async worker tracks (tid = rank + kWorkerTrackOffset) get their own
    // labels; sorted so the output stays byte-deterministic.
    std::set<int> worker_tids;
    for (const TraceEvent& e : run.log.events) {
      if (e.rank >= kWorkerTrackOffset) worker_tids.insert(e.rank);
    }
    for (const int tid : worker_tids) {
      write_metadata(out, "thread_name", pid, tid, /*with_tid=*/true,
                     "rank " + std::to_string(tid - kWorkerTrackOffset) +
                         " worker",
                     first);
    }
    for (const TraceEvent& e : run.log.events) {
      write_span(out, e, pid, options, first);
    }
  }
  out << "\n]}\n";
}

Status write_chrome_trace_file(const std::string& path,
                               std::span<const TraceRun> runs,
                               const ChromeTraceOptions& options) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::NotFound("cannot open trace file: " + path);
  write_chrome_trace(out, runs, options);
  out.flush();
  if (!out) return Status::Internal("short write to trace file: " + path);
  return Status::Ok();
}

Status write_chrome_trace_file(const std::string& path, const TraceLog& log,
                               const ChromeTraceOptions& options) {
  const TraceRun run{"insitu", log};
  return write_chrome_trace_file(path, std::span<const TraceRun>(&run, 1),
                                 options);
}

}  // namespace insitu::obs
