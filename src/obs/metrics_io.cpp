#include "obs/metrics_io.hpp"

#include <fstream>

#include "obs/chrome_trace.hpp"  // format_num, json_escape

namespace insitu::obs {

namespace {

/// CSV-quote a field if it contains a delimiter (metric label sets do).
std::string csv_field(const std::string& text) {
  if (text.find_first_of(",\"\n") == std::string::npos) return text;
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

void write_json_row(std::ostream& out, const MetricsRow& row) {
  out << "  {\"run\":\"" << json_escape(row.run) << "\",\"metric\":\""
      << json_escape(row.metric) << "\",\"kind\":\"" << to_string(row.kind)
      << "\"";
  if (row.kind == MetricKind::kHistogram) {
    out << ",\"count\":" << row.count << ",\"sum\":" << format_num(row.sum)
        << ",\"mean\":" << format_num(row.mean)
        << ",\"min\":" << format_num(row.min)
        << ",\"max\":" << format_num(row.max)
        << ",\"p50\":" << format_num(row.p50)
        << ",\"p90\":" << format_num(row.p90)
        << ",\"p99\":" << format_num(row.p99);
  } else {
    out << ",\"value\":" << format_num(row.value);
  }
  out << "}";
}

void write_meta_json(std::ostream& out, const ExportMeta& m) {
  out << "{\"tool\":\"" << json_escape(m.tool) << "\",\"config\":\""
      << json_escape(m.config) << "\",\"seed\":" << m.seed << "}";
}

}  // namespace

std::vector<MetricsRow> metrics_rows(std::span<const MetricsRun> runs) {
  std::vector<MetricsRow> out;
  for (const MetricsRun& run : runs) {
    for (const MetricSample& s : run.snapshot) {
      MetricsRow row;
      row.run = run.label;
      row.metric = s.key;
      row.kind = s.kind;
      if (s.kind == MetricKind::kHistogram) {
        row.count = s.count;
        row.sum = s.sum;
        row.mean = s.mean();
        row.min = s.min;
        row.max = s.max;
        row.p50 = histogram_quantile(s, 0.5);
        row.p90 = histogram_quantile(s, 0.9);
        row.p99 = histogram_quantile(s, 0.99);
      } else {
        row.value = s.value;
      }
      out.push_back(std::move(row));
    }
  }
  return out;
}

void write_metrics_csv_rows(std::ostream& out,
                            std::span<const MetricsRow> rows,
                            const ExportMeta* meta) {
  if (meta != nullptr) {
    out << "# " << kMetricsSchema << " tool=" << meta->tool
        << " seed=" << meta->seed
        << " config=" << csv_field(meta->config) << '\n';
  }
  out << "run,metric,kind,value,count,sum,mean,min,max,p50,p90,p99\n";
  for (const MetricsRow& row : rows) {
    out << csv_field(row.run) << ',' << csv_field(row.metric) << ','
        << to_string(row.kind) << ',';
    if (row.kind == MetricKind::kHistogram) {
      out << ',' << row.count << ',' << format_num(row.sum) << ','
          << format_num(row.mean) << ',' << format_num(row.min) << ','
          << format_num(row.max) << ',' << format_num(row.p50) << ','
          << format_num(row.p90) << ',' << format_num(row.p99);
    } else {
      out << format_num(row.value) << ",,,,,,,,";
    }
    out << '\n';
  }
}

void write_metrics_csv(std::ostream& out, std::span<const MetricsRun> runs,
                       const ExportMeta* meta) {
  write_metrics_csv_rows(out, metrics_rows(runs), meta);
}

Status write_metrics_csv_file(const std::string& path,
                              std::span<const MetricsRun> runs,
                              const ExportMeta* meta) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::NotFound("cannot open metrics file: " + path);
  write_metrics_csv(out, runs, meta);
  out.flush();
  if (!out) return Status::Internal("short write to metrics file: " + path);
  return Status::Ok();
}

void write_metrics_json(std::ostream& out, std::span<const MetricsRun> runs,
                        const ExportMeta* meta) {
  if (meta != nullptr) {
    out << "{\"schema\":\"" << kMetricsSchema << "\",\"meta\":";
    write_meta_json(out, *meta);
    out << ",\"series\":";
  }
  out << "[\n";
  bool first = true;
  for (const MetricsRow& row : metrics_rows(runs)) {
    if (!first) out << ",\n";
    first = false;
    write_json_row(out, row);
  }
  out << "\n]";
  if (meta != nullptr) out << "}";
  out << "\n";
}

Status write_metrics_json_file(const std::string& path,
                               std::span<const MetricsRun> runs,
                               const ExportMeta* meta) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::NotFound("cannot open metrics file: " + path);
  write_metrics_json(out, runs, meta);
  out.flush();
  if (!out) return Status::Internal("short write to metrics file: " + path);
  return Status::Ok();
}

}  // namespace insitu::obs
