// perf_report: offline performance-analysis CLI over the obs exports
// (docs/PERFORMANCE.md).
//
//   perf_report trace.json                  paper-style breakdown report
//   perf_report trace.json --metrics m.csv  ... plus the metrics dump
//   perf_report trace.json --write-baseline bench/baselines/foo.json
//   perf_report trace.json --check bench/baselines/foo.json [--tolerance F]
//   perf_report baseline.json               print a baseline file
//   perf_report current.json --check base.json   (two baseline files)
//   perf_report metrics.csv                 print a metrics dump
//
// Input kind (Chrome trace / baseline / metrics CSV or JSON) is
// auto-detected. --check exits 2 on per-phase virtual-time regressions
// beyond tolerance (default +10%) unless --report-only is given.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/analyze/baseline.hpp"
#include "obs/analyze/import.hpp"
#include "obs/analyze/json.hpp"
#include "obs/analyze/report.hpp"
#include "obs/metrics.hpp"
#include "pal/config.hpp"
#include "pal/table.hpp"

namespace {

using namespace insitu;
using namespace insitu::obs;
using namespace insitu::obs::analyze;

constexpr int kExitUsage = 64;
constexpr int kExitError = 1;
constexpr int kExitRegression = 2;

void usage() {
  std::fputs(
      "usage: perf_report <trace.json|baseline.json|metrics.{csv,json}> "
      "[options]\n"
      "  --metrics <path>         also print a metrics dump\n"
      "  --write-baseline <path>  distill the trace into a baseline file\n"
      "  --check <baseline.json>  compare against a baseline; exit 2 on\n"
      "                           regression beyond tolerance\n"
      "  --tolerance <fraction>   allowed relative growth (default 0.10)\n"
      "  --report-only            with --check: always exit 0\n"
      "  --follow                 input is a live telemetry stream "
      "(JSONL);\n"
      "                           tail it, rendering each frame until the\n"
      "                           final frame arrives (exit 0)\n"
      "  --follow-timeout <sec>   give up following after this long\n"
      "                           (default 30; exit 1 if no frame was "
      "seen)\n"
      "  --top <N>                span rows per run (default: all)\n"
      "  --wall                   add wall-clock columns (nondeterministic)\n"
      "  --no-spans               skip the per-span aggregation tables\n"
      "  --no-overlap             skip overlap / critical-path tables\n",
      stderr);
}

enum class InputKind { kTrace, kBaseline, kMetrics };

/// Peek at the file to classify it without committing to a parser.
StatusOr<InputKind> classify(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open input file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  for (const char c : text) {
    if (std::isspace(static_cast<unsigned char>(c)) != 0) continue;
    if (c != '{' && c != '[') return InputKind::kMetrics;  // CSV
    break;
  }
  if (text.find("\"traceEvents\"") != std::string::npos) {
    return InputKind::kTrace;
  }
  // Match the schema family, not the exact version, so a stale baseline
  // still routes to read_baseline and its version-mismatch diagnostic.
  if (text.find("\"insitu-bench-baseline/") != std::string::npos) {
    return InputKind::kBaseline;
  }
  return InputKind::kMetrics;  // metrics JSON
}

std::string render_metrics_table(const MetricsTable& metrics) {
  pal::TablePrinter table("metrics");
  table.set_header({"run", "metric", "kind", "value", "count", "mean",
                    "p50", "p90", "p99"});
  for (const MetricsRow& row : metrics.rows) {
    if (row.kind == MetricKind::kHistogram) {
      table.add_row({row.run, row.metric, to_string(row.kind), "",
                     std::to_string(row.count),
                     pal::TablePrinter::num(row.mean, 6),
                     pal::TablePrinter::num(row.p50, 6),
                     pal::TablePrinter::num(row.p90, 6),
                     pal::TablePrinter::num(row.p99, 6)});
    } else {
      table.add_row({row.run, row.metric, to_string(row.kind),
                     pal::TablePrinter::num(row.value, 6), "", "", "", "",
                     ""});
    }
  }
  if (metrics.has_meta) {
    table.add_note("tool=" + metrics.meta.tool +
                   " seed=" + std::to_string(metrics.meta.seed));
  }
  return table.to_string();
}

std::string render_baseline_table(const Baseline& baseline,
                                  const std::string& title) {
  pal::TablePrinter table(title);
  std::vector<std::string> header = {"run", "ranks", "steps"};
  for (int c = 0; c < kCategoryCount; ++c) {
    header.push_back(to_string(static_cast<Category>(c)));
  }
  header.push_back("total ms");
  header.push_back("end-to-end s");
  table.set_header(std::move(header));
  for (const BaselineRun& run : baseline.runs) {
    std::vector<std::string> row = {run.label, std::to_string(run.nranks),
                                    std::to_string(run.steps)};
    for (int c = 0; c < kCategoryCount; ++c) {
      row.push_back(pal::TablePrinter::num(run.phase_s[c] * 1e3, 6));
    }
    row.push_back(pal::TablePrinter::num(run.total_s * 1e3, 6));
    row.push_back(pal::TablePrinter::num(run.end_to_end_s, 6));
    table.add_row(std::move(row));
  }
  table.add_note("tool=" + baseline.tool +
                 " seed=" + std::to_string(baseline.seed));
  if (!baseline.config.empty()) {
    table.add_note("config: " + baseline.config);
  }
  return table.to_string();
}

/// Pool block of a baseline file, one row per run that carries one.
std::string render_baseline_pool_table(const Baseline& baseline) {
  bool any = false;
  for (const BaselineRun& run : baseline.runs) any = any || run.has_pool;
  if (!any) return "";
  constexpr double kMiB = 1024.0 * 1024.0;
  pal::TablePrinter table("buffer pool");
  table.set_header({"run", "hit rate", "alloc MiB", "reused MiB"});
  for (const BaselineRun& run : baseline.runs) {
    if (!run.has_pool) continue;
    table.add_row({run.label, pal::TablePrinter::num(run.pool_hit_rate, 3),
                   pal::TablePrinter::num(run.pool_bytes_allocated / kMiB, 3),
                   pal::TablePrinter::num(run.pool_bytes_reused / kMiB, 3)});
  }
  table.add_note("hit rate gates against the baseline (lower is a "
                 "regression); byte counts are informational");
  return table.to_string();
}

/// Kernel block of a baseline file: one row per run that carries one,
/// with the dominant dispatch variant and per-kernel element totals.
std::string render_baseline_kernel_table(const Baseline& baseline) {
  bool any = false;
  for (const BaselineRun& run : baseline.runs) any = any || run.has_kernels;
  if (!any) return "";
  pal::TablePrinter table("kernel dispatch");
  table.set_header({"run", "variant", "kernel", "elements"});
  for (const BaselineRun& run : baseline.runs) {
    if (!run.has_kernels) continue;
    bool first = true;
    for (const auto& [kernel, elements] : run.kernels_elements) {
      table.add_row({first ? run.label : "", first ? run.kernels_variant : "",
                     kernel, pal::TablePrinter::num(elements, 0)});
      first = false;
    }
  }
  table.add_note("informational only: kernel drift surfaces as check notes, "
                 "never as regressions");
  return table.to_string();
}

/// Distill an imported trace into baseline form (one entry per run).
Baseline baseline_from_runs(const std::vector<AnalyzedRun>& runs,
                            const ExportMeta& meta) {
  Baseline out;
  out.tool = meta.tool;
  out.config = meta.config;
  out.seed = meta.seed;
  for (const AnalyzedRun& run : runs) {
    out.runs.push_back(
        baseline_run_from_analysis(run.label, run.analysis, meta.seed));
  }
  return out;
}

int run_check(const Baseline& base, const Baseline& current,
              const CheckOptions& options, bool report_only) {
  const CheckResult result = check_baseline(base, current, options);
  if (!result.regressions.empty()) {
    pal::TablePrinter table("perf regressions (tolerance +" +
                            pal::TablePrinter::num(options.tolerance * 100,
                                                   1) +
                            "%)");
    table.set_header({"run", "phase", "baseline s", "current s", "ratio"});
    for (const Regression& r : result.regressions) {
      table.add_row({r.run, r.phase, pal::TablePrinter::num(r.baseline_s, 9),
                     pal::TablePrinter::num(r.current_s, 9),
                     pal::TablePrinter::num(r.ratio(), 3) + "x"});
    }
    table.print();
  }
  for (const std::string& m : result.mismatches) {
    std::printf("mismatch: %s\n", m.c_str());
  }
  for (const std::string& n : result.notes) {
    std::printf("%s\n", n.c_str());
  }
  if (result.ok()) {
    const auto untraced = static_cast<std::size_t>(std::ranges::count_if(
        base.runs, [](const BaselineRun& run) { return !run.traced; }));
    std::printf("PERF CHECK OK: %zu run(s) within +%s%% of baseline",
                base.runs.size() - untraced,
                pal::TablePrinter::num(options.tolerance * 100, 1).c_str());
    if (untraced > 0) std::printf(", %zu untraced not checked", untraced);
    std::printf("\n");
    return 0;
  }
  std::printf("PERF CHECK FAILED: %zu regression(s), %zu mismatch(es)\n",
              result.regressions.size(), result.mismatches.size());
  return report_only ? 0 : kExitRegression;
}

int fail(const Status& status) {
  std::fprintf(stderr, "perf_report: %s\n", status.message().c_str());
  // Schema-version mismatches (stale baseline vs current tool, or the
  // reverse) use the gating exit code so CI fails the check rather than
  // silently rendering an empty report.
  return status.code() == StatusCode::kFailedPrecondition ? kExitRegression
                                                          : kExitError;
}

/// One live-telemetry frame (insitu-live/1) rendered as a per-tenant /
/// per-phase status table plus alert lines (docs/OBSERVABILITY.md).
void render_live_frame(const Json& frame, bool tty) {
  if (tty) std::fputs("\x1b[H\x1b[2J", stdout);  // refresh in place
  const auto index = static_cast<long long>(frame.number_or("frame", 0));
  const Json* final_flag = frame.find("final");
  const bool final_frame =
      final_flag != nullptr && final_flag->kind == Json::Kind::kBool &&
      final_flag->boolean;
  pal::TablePrinter table("live telemetry: frame " + std::to_string(index) +
                          (final_frame ? " (final)" : ""));
  table.set_header({"tenant", "phase", "metric", "kind", "value", "count",
                    "p50", "p99", "max"});
  if (const Json* series = frame.find("series");
      series != nullptr && series->is_array()) {
    for (const Json& s : series->array) {
      const std::string key = s.string_or("key", "");
      std::string name = key;
      obs::Labels labels;
      obs::parse_metric_key(key, name, labels);
      std::string tenant;
      obs::Labels rest;
      for (const auto& [k, v] : labels) {
        if (k == "tenant") {
          tenant = v;
        } else {
          rest.emplace_back(k, v);
        }
      }
      const std::string phase = name.substr(0, name.find('.'));
      const std::string kind = s.string_or("kind", "");
      const std::string shown = obs::metric_key(name, rest);
      if (kind == "histogram") {
        table.add_row(
            {tenant, phase, shown, kind, "",
             std::to_string(
                 static_cast<long long>(s.number_or("count", 0))),
             pal::TablePrinter::num(s.number_or("p50", 0.0), 6),
             pal::TablePrinter::num(s.number_or("p99", 0.0), 6),
             pal::TablePrinter::num(s.number_or("max", 0.0), 6)});
      } else {
        table.add_row({tenant, phase, shown, kind,
                       pal::TablePrinter::num(s.number_or("value", 0.0), 6),
                       "", "", "", ""});
      }
    }
  }
  if (const Json* overhead = frame.find("overhead"); overhead != nullptr) {
    table.add_note(
        "hub overhead: busy=" +
        pal::TablePrinter::num(overhead->number_or("busy_seconds", 0.0), 6) +
        "s frames=" +
        std::to_string(
            static_cast<long long>(overhead->number_or("frames", 0))) +
        " sources=" +
        std::to_string(
            static_cast<long long>(overhead->number_or("sources", 0))));
  }
  table.print();
  if (const Json* alerts = frame.find("alerts");
      alerts != nullptr && alerts->is_array()) {
    for (const Json& a : alerts->array) {
      std::printf("ALERT rule=%s tenant=%s key=%s %s=%s threshold=%s "
                  "action=%s\n",
                  a.string_or("rule", "").c_str(),
                  a.string_or("tenant", "").c_str(),
                  a.string_or("key", "").c_str(),
                  a.string_or("stat", "").c_str(),
                  pal::TablePrinter::num(a.number_or("observed", 0.0), 6)
                      .c_str(),
                  pal::TablePrinter::num(a.number_or("threshold", 0.0), 6)
                      .c_str(),
                  a.string_or("action", "").c_str());
    }
  }
  std::fflush(stdout);
}

/// Tail a live telemetry stream: re-render on every new frame, exit 0
/// once the writer marks a frame final. A stream that never finishes is
/// bounded by --follow-timeout: exit 0 if at least one frame rendered
/// (the run is simply still going), exit 1 if nothing ever arrived.
int run_follow(const std::string& path, double timeout_s) {
  const bool tty = ::isatty(::fileno(stdout)) != 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  long long last_frame = -1;
  while (true) {
    std::string text;
    {
      std::ifstream in(path, std::ios::binary);
      if (in) {
        std::ostringstream buf;
        buf << in.rdbuf();
        text = buf.str();
      }
    }
    // Only complete lines are frames; the writer appends + flushes one
    // JSONL object per tick, so everything before the last '\n' parses.
    if (const std::size_t end = text.rfind('\n');
        end != std::string::npos) {
      const std::string_view complete(text.data(), end);
      const std::size_t begin = complete.rfind('\n');
      const std::string_view line =
          begin == std::string_view::npos ? complete
                                          : complete.substr(begin + 1);
      if (auto parsed = parse_json(line); parsed.ok() &&
          parsed->is_object()) {
        const auto frame =
            static_cast<long long>(parsed->number_or("frame", -1));
        if (frame != last_frame) {
          last_frame = frame;
          render_live_frame(*parsed, tty);
        }
        const Json* final_flag = parsed->find("final");
        if (final_flag != nullptr &&
            final_flag->kind == Json::Kind::kBool && final_flag->boolean) {
          return 0;
        }
      }
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      std::fprintf(stderr,
                   "perf_report: --follow timed out after %.0fs without a "
                   "final frame: %s\n",
                   timeout_s, path.c_str());
      return last_frame >= 0 ? 0 : kExitError;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const pal::Config cfg = pal::Config::from_args(argc, argv);
  if (cfg.positional().size() != 1 || cfg.has("help")) {
    usage();
    return cfg.has("help") ? 0 : kExitUsage;
  }
  const std::string input_path = cfg.positional()[0];

  if (cfg.get_bool_or("follow", false)) {
    return run_follow(input_path, cfg.get_double_or("follow-timeout", 30.0));
  }

  CheckOptions check_options;
  check_options.tolerance = cfg.get_double_or("tolerance", 0.10);
  const bool report_only = cfg.get_bool_or("report-only", false);

  ReportOptions report_options;
  report_options.spans = !cfg.get_bool_or("no-spans", false);
  report_options.overlap = !cfg.get_bool_or("no-overlap", false);
  report_options.wall = cfg.get_bool_or("wall", false);
  report_options.top_spans =
      static_cast<std::size_t>(cfg.get_int_or("top", 0));

  const auto kind = classify(input_path);
  if (!kind.ok()) return fail(kind.status());

  // Resolve the input into (optionally) a report and a baseline view.
  std::optional<Baseline> current;
  switch (*kind) {
    case InputKind::kTrace: {
      auto imported = import_chrome_trace_file(input_path);
      if (!imported.ok()) return fail(imported.status());
      const std::vector<AnalyzedRun> runs = analyze_runs(imported->runs);
      const std::string report = render_report(
          runs, imported->has_meta ? &imported->meta : nullptr,
          report_options);
      std::fwrite(report.data(), 1, report.size(), stdout);
      current = baseline_from_runs(runs, imported->meta);
      break;
    }
    case InputKind::kBaseline: {
      auto baseline = read_baseline_file(input_path);
      if (!baseline.ok()) return fail(baseline.status());
      std::fputs(
          render_baseline_table(*baseline, "baseline: " + input_path)
              .c_str(),
          stdout);
      std::fputs(render_baseline_pool_table(*baseline).c_str(), stdout);
      std::fputs(render_baseline_kernel_table(*baseline).c_str(), stdout);
      current = std::move(*baseline);
      break;
    }
    case InputKind::kMetrics: {
      auto metrics = import_metrics_file(input_path);
      if (!metrics.ok()) return fail(metrics.status());
      std::fputs(render_metrics_table(*metrics).c_str(), stdout);
      std::fputs(render_pool_table(*metrics).c_str(), stdout);
      std::fputs(render_kernel_table(*metrics).c_str(), stdout);
      std::fputs(render_tenant_table(*metrics).c_str(), stdout);
      std::fputs(render_collectives_table(*metrics).c_str(), stdout);
      std::fputs(render_reduction_table(*metrics).c_str(), stdout);
      break;
    }
  }

  if (cfg.has("metrics")) {
    auto metrics = import_metrics_file(cfg.get_string_or("metrics", ""));
    if (!metrics.ok()) return fail(metrics.status());
    std::fputs(render_metrics_table(*metrics).c_str(), stdout);
    std::fputs(render_pool_table(*metrics).c_str(), stdout);
    std::fputs(render_kernel_table(*metrics).c_str(), stdout);
    std::fputs(render_tenant_table(*metrics).c_str(), stdout);
    std::fputs(render_collectives_table(*metrics).c_str(), stdout);
    std::fputs(render_reduction_table(*metrics).c_str(), stdout);
  }

  if (cfg.has("write-baseline")) {
    if (!current.has_value()) {
      std::fputs("perf_report: --write-baseline needs a trace or baseline "
                 "input\n",
                 stderr);
      return kExitUsage;
    }
    const std::string out_path = cfg.get_string_or("write-baseline", "");
    const Status status = write_baseline_file(out_path, *current);
    if (!status.ok()) return fail(status);
    std::printf("wrote baseline: %s (%zu run(s))\n", out_path.c_str(),
                current->runs.size());
  }

  if (cfg.has("check")) {
    if (!current.has_value()) {
      std::fputs("perf_report: --check needs a trace or baseline input\n",
                 stderr);
      return kExitUsage;
    }
    auto base = read_baseline_file(cfg.get_string_or("check", ""));
    if (!base.ok()) return fail(base.status());
    return run_check(*base, *current, check_options, report_only);
  }
  return 0;
}
