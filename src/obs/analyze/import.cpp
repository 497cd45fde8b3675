#include "obs/analyze/import.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <map>
#include <sstream>

namespace insitu::obs::analyze {

namespace {

std::string_view trim_view(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

double parse_double(std::string_view text) {
  double out = 0.0;
  std::from_chars(text.data(), text.data() + text.size(), out);
  return out;
}

std::uint64_t parse_u64(std::string_view text) {
  std::uint64_t out = 0;
  std::from_chars(text.data(), text.data() + text.size(), out);
  return out;
}

/// One pass through the exporter's formatting: what a value looks like
/// after being written and parsed back.
double format_roundtrip(double value) { return parse_double(format_num(value)); }

ExportMeta meta_from_json(const Json& meta) {
  ExportMeta out;
  out.tool = meta.string_or("tool", "");
  out.config = meta.string_or("config", "");
  out.seed = static_cast<std::uint64_t>(meta.number_or("seed", 0));
  return out;
}

// ---------------------------------------------------------------------------
// Chrome trace import

/// Fallback depth reconstruction for exports without per-span depth args
/// (include_args=false): per track, events are in post-order, so an event
/// adopts every trailing unclaimed event whose begin lies inside it.
void assign_depths(std::vector<TraceEvent*>& track) {
  struct Node {
    TraceEvent* event;
    std::vector<Node> children;
  };
  std::vector<Node> pending;
  for (TraceEvent* e : track) {
    Node node{e, {}};
    while (!pending.empty() &&
           pending.back().event->virt_begin_s >= e->virt_begin_s) {
      node.children.insert(node.children.begin(), std::move(pending.back()));
      pending.pop_back();
    }
    pending.push_back(std::move(node));
  }
  // Iterative DFS from the roots, assigning depths.
  std::vector<std::pair<const Node*, int>> stack;
  for (const Node& root : pending) stack.push_back({&root, 0});
  while (!stack.empty()) {
    const auto [node, depth] = stack.back();
    stack.pop_back();
    node->event->depth = depth;
    for (const Node& child : node->children) {
      stack.push_back({&child, depth + 1});
    }
  }
}

}  // namespace

StatusOr<ImportedTrace> import_chrome_trace(std::string_view text) {
  INSITU_ASSIGN_OR_RETURN(Json root, parse_json(text));
  if (!root.is_object()) {
    return Status::InvalidArgument("trace import: root is not an object");
  }
  ImportedTrace out;
  if (const Json* meta = root.find("metadata"); meta != nullptr) {
    if (const Json* schema = meta->find("schema");
        schema != nullptr && schema->kind == Json::Kind::kString &&
        schema->string.rfind("insitu-trace/", 0) == 0 &&
        schema->string != kTraceSchema) {
      return Status::FailedPrecondition(
          "trace schema version mismatch: dump has \"" + schema->string +
          "\", this tool reads \"" + std::string(kTraceSchema) +
          "\" — re-export the trace with the matching tool version");
    }
    out.meta = meta_from_json(*meta);
    out.has_meta = true;
  }
  const Json* events = root.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return Status::InvalidArgument("trace import: missing traceEvents array");
  }

  std::map<int, TraceRun> runs;          // pid -> run (map: sorted by pid)
  std::map<int, int> named_rank_tracks;  // pid -> "rank N" metadata count
  bool all_have_depth = true;
  for (const Json& e : events->array) {
    if (!e.is_object()) continue;
    const std::string ph = e.string_or("ph", "");
    const int pid = static_cast<int>(e.number_or("pid", 1));
    TraceRun& run = runs[pid];
    if (ph == "M") {
      const std::string what = e.string_or("name", "");
      const Json* args = e.find("args");
      const std::string name =
          args != nullptr ? args->string_or("name", "") : "";
      if (what == "process_name") {
        run.label = name;
      } else if (what == "thread_name" &&
                 name.rfind("rank ", 0) == 0 &&
                 name.find("worker") == std::string::npos) {
        ++named_rank_tracks[pid];
      }
      continue;
    }
    if (ph != "X") continue;
    TraceEvent event;
    event.name = e.string_or("name", "");
    event.category = category_from_string(e.string_or("cat", "other"));
    event.rank = static_cast<int>(e.number_or("tid", 0));
    const Json* args = e.find("args");
    const double ts_s = e.number_or("ts", 0.0) / 1e6;
    const double dur_s = e.number_or("dur", 0.0) / 1e6;
    if (args != nullptr && args->find("virtual_s") != nullptr) {
      // Args carry the full-precision times; ts/dur are rounded to 1e-3 us.
      event.virt_begin_s = args->number_or("virtual_s", ts_s);
      event.virt_dur_s = args->number_or("virtual_dur_s", dur_s);
      event.wall_begin_ns = static_cast<std::int64_t>(
          args->number_or("wall_ms", 0.0) * 1e6);
      event.wall_dur_ns = static_cast<std::int64_t>(
          args->number_or("wall_dur_ms", 0.0) * 1e6);
    } else {
      event.virt_begin_s = ts_s;
      event.virt_dur_s = dur_s;
    }
    if (args != nullptr && args->find("depth") != nullptr) {
      event.depth = static_cast<int>(args->number_or("depth", 0));
    } else {
      event.depth = -1;
      all_have_depth = false;
    }
    if (args != nullptr) {
      for (const auto& [key, value] : args->members) {
        if (key == "depth" || key == "virtual_s" || key == "virtual_dur_s" ||
            key == "wall_ms" || key == "wall_dur_ms") {
          continue;
        }
        if (value.kind == Json::Kind::kNumber) {
          event.args.push_back({key, value.number});
        }
      }
    }
    run.log.events.push_back(std::move(event));
  }

  for (auto& [pid, run] : runs) {
    int nranks = named_rank_tracks[pid];
    for (const TraceEvent& e : run.log.events) {
      if (e.rank < kWorkerTrackOffset) nranks = std::max(nranks, e.rank + 1);
    }
    run.log.nranks = nranks;
    if (!all_have_depth) {
      std::map<int, std::vector<TraceEvent*>> tracks;
      for (TraceEvent& e : run.log.events) tracks[e.rank].push_back(&e);
      for (auto& [track, events_in_track] : tracks) {
        assign_depths(events_in_track);
      }
    }
    out.runs.push_back(std::move(run));
  }
  return out;
}

StatusOr<ImportedTrace> import_chrome_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open trace file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return import_chrome_trace(buf.str());
}

// ---------------------------------------------------------------------------
// Metrics import

namespace {

/// Split one CSV line honoring the exporter's quoting rules.
std::vector<std::string> split_csv_line(std::string_view line) {
  std::vector<std::string> out;
  std::string field;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        field += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      out.push_back(std::move(field));
      field.clear();
    } else {
      field += c;
    }
  }
  out.push_back(std::move(field));
  return out;
}

StatusOr<MetricKind> kind_from_string(std::string_view kind) {
  if (kind == "counter") return MetricKind::kCounter;
  if (kind == "gauge") return MetricKind::kGauge;
  if (kind == "histogram") return MetricKind::kHistogram;
  return Status::InvalidArgument("metrics import: unknown kind '" +
                                 std::string(kind) + "'");
}

/// `# insitu-metrics/1 tool=X seed=S config=...` (config runs to end of
/// line, CSV-quoted when it contains a delimiter). Other tokens, such as
/// the `threads=N` older dumps carry, are ignored.
ExportMeta parse_csv_meta(std::string_view line) {
  ExportMeta meta;
  const auto take = [&](std::string_view key) -> std::string {
    const std::string token = std::string(key) + "=";
    const std::size_t pos = line.find(token);
    if (pos == std::string_view::npos) return "";
    std::string_view rest = line.substr(pos + token.size());
    if (key == "config") {
      if (!rest.empty() && rest.front() == '"') {
        return split_csv_line(rest)[0];
      }
      return std::string(rest);
    }
    const std::size_t end = rest.find(' ');
    return std::string(rest.substr(0, end));
  };
  meta.tool = take("tool");
  meta.seed = parse_u64(take("seed"));
  meta.config = take("config");
  return meta;
}

StatusOr<MetricsTable> import_metrics_csv(std::string_view text) {
  MetricsTable out;
  std::size_t pos = 0;
  bool header_seen = false;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? std::string_view::npos
                                           : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    if (line.empty()) continue;
    if (line.front() == '#') {
      // `# insitu-metrics/N ...`: a wrong N is a versioned-schema
      // mismatch (exit 2 in perf_report), not a silent empty table.
      const std::string_view body = trim_view(line.substr(1));
      if (body.rfind("insitu-metrics/", 0) == 0 &&
          body.substr(0, std::string_view(kMetricsSchema).size()) !=
              kMetricsSchema) {
        const std::size_t end = body.find(' ');
        return Status::FailedPrecondition(
            "metrics schema version mismatch: dump has \"" +
            std::string(body.substr(0, end)) + "\", this tool reads \"" +
            std::string(kMetricsSchema) +
            "\" — re-export the dump with the matching tool version");
      }
      out.meta = parse_csv_meta(line);
      out.has_meta = true;
      continue;
    }
    if (!header_seen) {
      if (line.rfind("run,metric,kind", 0) != 0) {
        return Status::InvalidArgument("metrics import: bad CSV header");
      }
      header_seen = true;
      continue;
    }
    const std::vector<std::string> fields = split_csv_line(line);
    if (fields.size() < 4) {
      return Status::InvalidArgument("metrics import: short CSV row");
    }
    MetricsRow row;
    row.run = fields[0];
    row.metric = fields[1];
    INSITU_ASSIGN_OR_RETURN(row.kind, kind_from_string(fields[2]));
    const auto field = [&](std::size_t i) -> std::string_view {
      return i < fields.size() ? std::string_view(fields[i])
                               : std::string_view();
    };
    if (row.kind == MetricKind::kHistogram) {
      row.count = parse_u64(field(4));
      row.sum = parse_double(field(5));
      row.mean = parse_double(field(6));
      row.min = parse_double(field(7));
      row.max = parse_double(field(8));
      row.p50 = parse_double(field(9));
      row.p90 = parse_double(field(10));
      row.p99 = parse_double(field(11));
    } else {
      row.value = parse_double(field(3));
    }
    out.rows.push_back(std::move(row));
  }
  if (!header_seen) {
    return Status::InvalidArgument("metrics import: empty CSV");
  }
  return out;
}

StatusOr<MetricsTable> import_metrics_json(std::string_view text) {
  INSITU_ASSIGN_OR_RETURN(Json root, parse_json(text));
  MetricsTable out;
  const Json* series = &root;
  if (root.is_object()) {
    if (const Json* schema = root.find("schema");
        schema != nullptr && schema->kind == Json::Kind::kString &&
        schema->string.rfind("insitu-metrics/", 0) == 0 &&
        schema->string != kMetricsSchema) {
      return Status::FailedPrecondition(
          "metrics schema version mismatch: dump has \"" + schema->string +
          "\", this tool reads \"" + std::string(kMetricsSchema) +
          "\" — re-export the dump with the matching tool version");
    }
    if (const Json* meta = root.find("meta"); meta != nullptr) {
      out.meta = meta_from_json(*meta);
      out.has_meta = true;
    }
    series = root.find("series");
    if (series == nullptr) {
      return Status::InvalidArgument("metrics import: missing series array");
    }
  }
  if (!series->is_array()) {
    return Status::InvalidArgument("metrics import: series is not an array");
  }
  for (const Json& s : series->array) {
    if (!s.is_object()) continue;
    MetricsRow row;
    row.run = s.string_or("run", "");
    row.metric = s.string_or("metric", "");
    INSITU_ASSIGN_OR_RETURN(row.kind,
                            kind_from_string(s.string_or("kind", "")));
    if (row.kind == MetricKind::kHistogram) {
      row.count = static_cast<std::uint64_t>(s.number_or("count", 0));
      row.sum = s.number_or("sum", 0.0);
      row.mean = s.number_or("mean", 0.0);
      row.min = s.number_or("min", 0.0);
      row.max = s.number_or("max", 0.0);
      row.p50 = s.number_or("p50", 0.0);
      row.p90 = s.number_or("p90", 0.0);
      row.p99 = s.number_or("p99", 0.0);
    } else {
      row.value = s.number_or("value", 0.0);
    }
    out.rows.push_back(std::move(row));
  }
  return out;
}

}  // namespace

StatusOr<MetricsTable> import_metrics(std::string_view text) {
  for (const char c : text) {
    if (std::isspace(static_cast<unsigned char>(c)) != 0) continue;
    if (c == '[' || c == '{') return import_metrics_json(text);
    break;
  }
  return import_metrics_csv(text);
}

StatusOr<MetricsTable> import_metrics_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open metrics file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return import_metrics(buf.str());
}

std::vector<MetricsRow> rows_from_runs(std::span<const MetricsRun> runs) {
  std::vector<MetricsRow> out = metrics_rows(runs);
  for (MetricsRow& row : out) {
    for (double* field : {&row.value, &row.sum, &row.mean, &row.min,
                          &row.max, &row.p50, &row.p90, &row.p99}) {
      *field = format_roundtrip(*field);
    }
  }
  return out;
}

std::string metrics_table_to_csv(const MetricsTable& table) {
  std::ostringstream out;
  write_metrics_csv_rows(out, table.rows,
                         table.has_meta ? &table.meta : nullptr);
  return out.str();
}

}  // namespace insitu::obs::analyze
