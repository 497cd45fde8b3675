#include "obs/analyze/report.hpp"

#include <algorithm>
#include <sstream>

#include "obs/metrics.hpp"
#include "pal/table.hpp"

namespace insitu::obs::analyze {

namespace {

using pal::TablePrinter;

std::string ms(double seconds) {
  double value = seconds * 1e3;
  // Self times are differences; keep float dust from rendering as "-0".
  if (value > -0.5e-6 && value < 0.5e-6) value = 0.0;
  return TablePrinter::num(value, 6);
}

std::string pct(double fraction) {
  return TablePrinter::num(fraction * 100.0, 1) + "%";
}

/// Dominant parent of a span, e.g. "bridge.execute (12)".
std::string top_parent(const SpanStat& span) {
  const ParentStat* best = nullptr;
  for (const ParentStat& p : span.parents) {
    if (best == nullptr || p.virt_s > best->virt_s) best = &p;
  }
  if (best == nullptr) return "-";
  return best->parent + " (" + std::to_string(best->count) + ")";
}

}  // namespace

AnalyzedRun analyze_run(const TraceRun& run) {
  AnalyzedRun out;
  out.label = run.label;
  out.analysis = analyze_trace(run.log);
  out.overlaps = rank_overlaps(run.log);
  out.critical = critical_path(run.log);
  return out;
}

std::vector<AnalyzedRun> analyze_runs(std::span<const TraceRun> runs) {
  std::vector<AnalyzedRun> out;
  out.reserve(runs.size());
  for (const TraceRun& run : runs) out.push_back(analyze_run(run));
  return out;
}

std::string render_breakdown_table(std::span<const AnalyzedRun> runs,
                                   const ReportOptions& /*options*/) {
  TablePrinter table("per-step breakdown (virtual ms, mean per rank)");
  std::vector<std::string> header = {"configuration", "ranks", "steps"};
  for (int c = 0; c < kCategoryCount; ++c) {
    header.push_back(to_string(static_cast<Category>(c)));
  }
  header.push_back("total");
  header.push_back("end-to-end s");
  table.set_header(std::move(header));
  for (const AnalyzedRun& run : runs) {
    const TraceAnalysis& a = run.analysis;
    std::vector<std::string> row = {run.label, std::to_string(a.nranks),
                                    std::to_string(a.step.steps)};
    for (int c = 0; c < kCategoryCount; ++c) {
      row.push_back(ms(a.step.per_step_s[c]));
    }
    row.push_back(ms(a.step.total()));
    row.push_back(TablePrinter::num(a.end_to_end_s(), 6));
    table.add_row(std::move(row));
  }
  table.add_note(
      "total = per-step sim + analysis time; phases are self virtual time "
      "from the miniapp.step / bridge.execute span trees");
  return table.to_string();
}

std::string render_span_table(const AnalyzedRun& run,
                              const ReportOptions& options) {
  std::vector<const SpanStat*> order;
  double self_sum = 0.0;
  for (const SpanStat& s : run.analysis.spans) {
    order.push_back(&s);
    self_sum += s.self_virt_s;
  }
  std::sort(order.begin(), order.end(),
            [](const SpanStat* a, const SpanStat* b) {
              if (a->self_virt_s != b->self_virt_s) {
                return a->self_virt_s > b->self_virt_s;
              }
              return a->name < b->name;
            });
  if (options.top_spans != 0 && order.size() > options.top_spans) {
    order.resize(options.top_spans);
  }

  TablePrinter table("spans: " + run.label);
  std::vector<std::string> header = {"span",    "cat",     "count",
                                     "total s", "self s",  "self %",
                                     "mean ms", "top parent"};
  if (options.wall) header.insert(header.begin() + 7, "wall ms");
  table.set_header(std::move(header));
  for (const SpanStat* s : order) {
    std::vector<std::string> row = {
        s->name,
        to_string(s->category),
        std::to_string(s->count),
        TablePrinter::num(s->total_virt_s, 6),
        TablePrinter::num(s->self_virt_s, 6),
        pct(self_sum <= 0.0 ? 0.0 : s->self_virt_s / self_sum),
        ms(s->mean_virt_s()),
        top_parent(*s)};
    if (options.wall) {
      row.insert(row.begin() + 7,
                 TablePrinter::num(
                     static_cast<double>(s->total_wall_ns) / 1e6, 3));
    }
    table.add_row(std::move(row));
  }
  return table.to_string();
}

std::string render_overlap_report(const AnalyzedRun& run,
                                  const ReportOptions& /*options*/) {
  std::ostringstream out;
  if (!run.overlaps.empty()) {
    TablePrinter table("async overlap: " + run.label);
    table.set_header({"rank", "sim busy s", "worker busy s", "overlap s",
                      "hidden", "end s"});
    for (const RankOverlap& o : run.overlaps) {
      table.add_row({std::to_string(o.rank),
                     TablePrinter::num(o.sim_busy_s, 6),
                     TablePrinter::num(o.worker_busy_s, 6),
                     TablePrinter::num(o.overlap_s, 6),
                     pct(o.overlap_fraction()),
                     TablePrinter::num(o.end_s, 6)});
    }
    table.add_note("hidden = overlap / worker busy (fraction of analysis "
                   "cost absorbed by the simulation plane)");
    out << table.to_string();
  }

  const CriticalPath& cp = run.critical;
  if (!cp.segments.empty()) {
    TablePrinter table("critical path: " + run.label + " (rank " +
                       std::to_string(cp.rank) + ")");
    table.set_header({"segment", "plane", "count", "virtual s", "share"});
    for (const CriticalSegment& seg : cp.segments) {
      table.add_row({seg.name, seg.worker ? "worker" : "sim",
                     std::to_string(seg.count),
                     TablePrinter::num(seg.virt_s, 6),
                     pct(cp.end_s <= 0.0 ? 0.0 : seg.virt_s / cp.end_s)});
    }
    table.add_note("segments partition [0, " +
                   TablePrinter::num(cp.end_s, 6) +
                   "] s on the last-finishing rank; worker-plane spans "
                   "take precedence over sim-plane spans");
    out << table.to_string();
  }
  return out.str();
}

std::string render_pool_table(const MetricsTable& metrics) {
  // One row per run, in first-appearance order.
  struct PoolRow {
    std::string run;
    double hits = 0.0, misses = 0.0, evictions = 0.0;
    double bytes_allocated = 0.0, bytes_reused = 0.0;
  };
  std::vector<PoolRow> rows;
  auto row_for = [&rows](const std::string& run) -> PoolRow& {
    for (PoolRow& row : rows) {
      if (row.run == run) return row;
    }
    rows.push_back(PoolRow{run, 0, 0, 0, 0, 0});
    return rows.back();
  };
  // Labeled series (a session's `tenant=`) sum into their run's row.
  std::string name;
  obs::Labels labels;
  for (const MetricsRow& row : metrics.rows) {
    if (row.metric.rfind("pool.", 0) != 0) continue;
    labels.clear();
    if (!obs::parse_metric_key(row.metric, name, labels)) continue;
    PoolRow& pool = row_for(row.run);
    if (name == "pool.hits") pool.hits += row.value;
    else if (name == "pool.misses") pool.misses += row.value;
    else if (name == "pool.evictions") pool.evictions += row.value;
    else if (name == "pool.bytes_allocated") pool.bytes_allocated += row.value;
    else if (name == "pool.bytes_reused") pool.bytes_reused += row.value;
  }
  if (rows.empty()) return "";

  constexpr double kMiB = 1024.0 * 1024.0;
  TablePrinter table("buffer pool");
  table.set_header({"run", "hit rate", "hits", "misses", "evictions",
                    "alloc MiB", "reused MiB"});
  for (const PoolRow& row : rows) {
    const double acquires = row.hits + row.misses;
    table.add_row({row.run,
                   TablePrinter::num(acquires > 0 ? row.hits / acquires : 0.0,
                                     3),
                   TablePrinter::num(row.hits, 0),
                   TablePrinter::num(row.misses, 0),
                   TablePrinter::num(row.evictions, 0),
                   TablePrinter::num(row.bytes_allocated / kMiB, 3),
                   TablePrinter::num(row.bytes_reused / kMiB, 3)});
  }
  table.add_note("the run's rank pools summed; hit rate = hits / (hits + "
                 "misses), alloc = fresh bytes on misses, reused = request "
                 "bytes served by the free list");
  return table.to_string();
}

std::string render_kernel_table(const MetricsTable& metrics) {
  // One row per (run, kernel, variant) series, in first-appearance
  // order. Keys look like "kernels.elements{kernel=dot,variant=simd}".
  struct KernelRow {
    std::string run, kernel, variant;
    double calls = 0.0, elements = 0.0, bytes = 0.0;
  };
  std::vector<KernelRow> rows;
  auto row_for = [&rows](const std::string& run, const std::string& kernel,
                         const std::string& variant) -> KernelRow& {
    for (KernelRow& row : rows) {
      if (row.run == run && row.kernel == kernel &&
          row.variant == variant) {
        return row;
      }
    }
    rows.push_back(KernelRow{run, kernel, variant, 0, 0, 0});
    return rows.back();
  };
  auto label_value = [](const obs::Labels& labels,
                        std::string_view key) -> std::string {
    for (const auto& [k, v] : labels) {
      if (k == key) return v;
    }
    return "";
  };
  for (const MetricsRow& row : metrics.rows) {
    if (row.metric.rfind("kernels.", 0) != 0) continue;
    std::string field;
    obs::Labels labels;
    if (!obs::parse_metric_key(row.metric, field, labels) || labels.empty()) {
      continue;
    }
    const std::string kernel = label_value(labels, "kernel");
    const std::string variant = label_value(labels, "variant");
    if (kernel.empty() || variant.empty()) continue;
    KernelRow& cell = row_for(row.run, kernel, variant);
    if (field == "kernels.calls") cell.calls = row.value;
    else if (field == "kernels.elements") cell.elements = row.value;
    else if (field == "kernels.bytes") cell.bytes = row.value;
  }
  if (rows.empty()) return "";

  constexpr double kMiB = 1024.0 * 1024.0;
  TablePrinter table("kernel dispatch");
  table.set_header({"run", "kernel", "variant", "calls", "elements",
                    "MiB touched"});
  for (const KernelRow& row : rows) {
    table.add_row({row.run, row.kernel, row.variant,
                   TablePrinter::num(row.calls, 0),
                   TablePrinter::num(row.elements, 0),
                   TablePrinter::num(row.bytes / kMiB, 3)});
  }
  table.add_note("per-run deltas from kernels::stats_snapshot(); variants "
                 "are bit-identical for integer kernels and ULP-bounded "
                 "for transcendentals (docs/PERFORMANCE.md)");
  return table.to_string();
}

std::string render_tenant_table(const MetricsTable& metrics) {
  // One row per (run, tenant). Keys look like
  // "service.admission{outcome=admitted,tenant=t0}" or
  // "bridge.execute.seconds{tenant=t0}".
  struct TenantRow {
    std::string run, tenant;
    double admitted = 0.0, queued = 0.0, degraded = 0.0, rejected = 0.0;
    double completed = 0.0, failed = 0.0;
    double steps = 0.0, p99_step = 0.0;
    double high_water = 0.0;
  };
  std::vector<TenantRow> rows;
  auto row_for = [&rows](const std::string& run,
                         const std::string& tenant) -> TenantRow& {
    for (TenantRow& row : rows) {
      if (row.run == run && row.tenant == tenant) return row;
    }
    rows.push_back(TenantRow{run, tenant});
    return rows.back();
  };
  auto label_value = [](const obs::Labels& labels,
                        std::string_view key) -> std::string {
    for (const auto& [k, v] : labels) {
      if (k == key) return v;
    }
    return "";
  };
  for (const MetricsRow& row : metrics.rows) {
    std::string field;
    obs::Labels labels;
    if (!obs::parse_metric_key(row.metric, field, labels) || labels.empty()) {
      continue;
    }
    const std::string tenant = label_value(labels, "tenant");
    if (tenant.empty()) continue;
    TenantRow& cell = row_for(row.run, tenant);
    if (field == "service.admission") {
      const std::string outcome = label_value(labels, "outcome");
      if (outcome == "admitted") cell.admitted = row.value;
      else if (outcome == "queued") cell.queued = row.value;
      else if (outcome == "degraded") cell.degraded = row.value;
      else if (outcome == "rejected") cell.rejected = row.value;
    } else if (field == "service.sessions") {
      const std::string state = label_value(labels, "state");
      if (state == "completed") cell.completed = row.value;
      else if (state == "failed") cell.failed = row.value;
    } else if (field == "bridge.execute.seconds") {
      cell.steps = static_cast<double>(row.count);
      cell.p99_step = row.p99;
    } else if (field == "service.tenant.mem_high_water_bytes") {
      cell.high_water = row.value;
    }
  }
  if (rows.empty()) return "";

  constexpr double kMiB = 1024.0 * 1024.0;
  TablePrinter table("tenants");
  table.set_header({"run", "tenant", "admitted", "queued", "degraded",
                    "rejected", "completed", "failed", "steps",
                    "p99 step ms", "HW MiB"});
  for (const TenantRow& row : rows) {
    table.add_row({row.run, row.tenant, TablePrinter::num(row.admitted, 0),
                   TablePrinter::num(row.queued, 0),
                   TablePrinter::num(row.degraded, 0),
                   TablePrinter::num(row.rejected, 0),
                   TablePrinter::num(row.completed, 0),
                   TablePrinter::num(row.failed, 0),
                   TablePrinter::num(row.steps, 0),
                   TablePrinter::num(row.p99_step * 1000.0, 3),
                   TablePrinter::num(row.high_water / kMiB, 3)});
  }
  table.add_note("per-tenant admission outcomes and session results from "
                 "`tenant=`-labeled series; p99 step is the virtual "
                 "bridge.execute.seconds quantile (docs/SERVICE.md)");
  return table.to_string();
}

std::string render_collectives_table(const MetricsTable& metrics) {
  // One row per (run, op), in first-appearance order. Keys look like
  // "comm.collective.calls{op=allgather}". Contributed bytes are joined
  // from the run's "comm.bytes_sent{op=...}" counters; allreduce bytes
  // fold into the reduce row because both run through the one reduce
  // rendezvous op.
  struct CollRow {
    std::string run, op;
    double calls = 0.0;
    double waits = 0.0, wait_sum = 0.0, wait_p99 = 0.0;
    double contended = 0.0;
    double bytes = 0.0;
  };
  std::vector<CollRow> rows;
  auto row_for = [&rows](const std::string& run,
                         const std::string& op) -> CollRow& {
    for (CollRow& row : rows) {
      if (row.run == run && row.op == op) return row;
    }
    rows.push_back(CollRow{run, op});
    return rows.back();
  };
  auto label_value = [](const obs::Labels& labels,
                        std::string_view key) -> std::string {
    for (const auto& [k, v] : labels) {
      if (k == key) return v;
    }
    return "";
  };
  struct BytesRow {
    std::string run, op;
    double bytes = 0.0;
  };
  std::vector<BytesRow> bytes_rows;
  for (const MetricsRow& row : metrics.rows) {
    std::string field;
    obs::Labels labels;
    if (!obs::parse_metric_key(row.metric, field, labels) || labels.empty()) {
      continue;
    }
    if (field == "comm.bytes_sent") {
      const std::string op = label_value(labels, "op");
      if (!op.empty() && op != "p2p") {
        bytes_rows.push_back(BytesRow{row.run, op, row.value});
      }
      continue;
    }
    if (field.rfind("comm.collective.", 0) != 0) continue;
    const std::string op = label_value(labels, "op");
    if (op.empty()) continue;
    CollRow& cell = row_for(row.run, op);
    if (field == "comm.collective.calls") {
      cell.calls = row.value;
    } else if (field == "comm.collective.wait.seconds") {
      cell.waits = static_cast<double>(row.count);
      cell.wait_sum = row.sum;
      cell.wait_p99 = row.p99;
    } else if (field == "comm.collective.contended") {
      cell.contended = row.value;
    }
  }
  if (rows.empty()) return "";

  auto bytes_for = [&bytes_rows](const std::string& run,
                                 std::string_view op) -> double {
    double total = 0.0;
    for (const BytesRow& b : bytes_rows) {
      if (b.run == run && (b.op == op ||
                           (op == "reduce" && b.op == "allreduce"))) {
        total += b.bytes;
      }
    }
    return total;
  };
  constexpr double kMiB = 1024.0 * 1024.0;
  TablePrinter table("collectives");
  table.set_header({"run", "op", "calls", "MiB sent", "waits", "wait s",
                    "wait p99 ms", "contended"});
  for (CollRow& row : rows) {
    row.bytes = bytes_for(row.run, row.op);
    table.add_row({row.run, row.op,
                   TablePrinter::num(row.calls, 0),
                   TablePrinter::num(row.bytes / kMiB, 3),
                   TablePrinter::num(row.waits, 0),
                   TablePrinter::num(row.wait_sum, 3),
                   TablePrinter::num(row.wait_p99 * 1000.0, 3),
                   TablePrinter::num(row.contended, 0)});
  }
  table.add_note("per-rank totals from comm.collective.*; wait columns "
                 "are real wall seconds parked at the rendezvous (count "
                 "of waits that blocked, their sum, p99), contended = "
                 "slot try_lock misses (docs/SCALING.md)");
  return table.to_string();
}

std::string render_reduction_table(const MetricsTable& metrics) {
  // One row per (run, backend, variable). Per-variable series carry
  // both labels ("io.reduction.bytes_in{backend=flexpath,variable=data}");
  // the encode histogram and the adaptive transition counters are
  // backend-scoped and folded into every variable row of that backend.
  struct ReductionRow {
    std::string run, backend, variable;
    double level = -1.0;
    double bytes_in = 0.0, bytes_out = 0.0;
  };
  struct BackendStats {
    std::string run, backend;
    double encode_p99 = 0.0;
    double raises = 0.0, lowers = 0.0;
  };
  std::vector<ReductionRow> rows;
  std::vector<BackendStats> backends;
  auto row_for = [&rows](const std::string& run, const std::string& backend,
                         const std::string& variable) -> ReductionRow& {
    for (ReductionRow& row : rows) {
      if (row.run == run && row.backend == backend &&
          row.variable == variable) {
        return row;
      }
    }
    rows.push_back(ReductionRow{run, backend, variable});
    return rows.back();
  };
  auto backend_for = [&backends](const std::string& run,
                                 const std::string& backend) -> BackendStats& {
    for (BackendStats& b : backends) {
      if (b.run == run && b.backend == backend) return b;
    }
    backends.push_back(BackendStats{run, backend});
    return backends.back();
  };
  auto label_value = [](const obs::Labels& labels,
                        std::string_view key) -> std::string {
    for (const auto& [k, v] : labels) {
      if (k == key) return v;
    }
    return "";
  };
  for (const MetricsRow& row : metrics.rows) {
    std::string field;
    obs::Labels labels;
    if (!obs::parse_metric_key(row.metric, field, labels) || labels.empty()) {
      continue;
    }
    if (field.rfind("io.reduction.", 0) != 0) continue;
    const std::string backend = label_value(labels, "backend");
    if (backend.empty()) continue;
    const std::string variable = label_value(labels, "variable");
    if (field == "io.reduction.level") {
      row_for(row.run, backend, variable).level = row.value;
    } else if (field == "io.reduction.bytes_in") {
      row_for(row.run, backend, variable).bytes_in = row.value;
    } else if (field == "io.reduction.bytes_out") {
      row_for(row.run, backend, variable).bytes_out = row.value;
    } else if (field == "io.reduction.encode.seconds") {
      backend_for(row.run, backend).encode_p99 = row.p99;
    } else if (field == "io.reduction.raises") {
      backend_for(row.run, backend).raises = row.value;
    } else if (field == "io.reduction.lowers") {
      backend_for(row.run, backend).lowers = row.value;
    }
  }
  if (rows.empty()) return "";

  // Gauge values mirror io::ReductionLevel; named locally so the trace
  // analyzer stays independent of the io library.
  auto level_name = [](double level) -> std::string {
    switch (static_cast<int>(level)) {
      case 0: return "none";
      case 1: return "delta";
      case 2: return "subsample";
      case 3: return "quantize";
      default: return level < 0.0 ? "?" : TablePrinter::num(level, 0);
    }
  };
  constexpr double kMiB = 1024.0 * 1024.0;
  TablePrinter table("in transit reduction");
  table.set_header({"run", "backend", "variable", "level", "in MiB",
                    "out MiB", "ratio", "encode p99 ms", "raises", "lowers"});
  for (const ReductionRow& row : rows) {
    const BackendStats& stats = backend_for(row.run, row.backend);
    table.add_row(
        {row.run, row.backend, row.variable, level_name(row.level),
         TablePrinter::num(row.bytes_in / kMiB, 3),
         TablePrinter::num(row.bytes_out / kMiB, 3),
         row.bytes_out > 0.0
             ? TablePrinter::num(row.bytes_in / row.bytes_out, 2) + "x"
             : "-",
         TablePrinter::num(stats.encode_p99 * 1000.0, 4),
         TablePrinter::num(stats.raises, 0),
         TablePrinter::num(stats.lowers, 0)});
  }
  table.add_note("level = last applied per variable (gauge); raises/lowers "
                 "count adaptive controller transitions per backend "
                 "(docs/PERFORMANCE.md \"In transit data reduction\")");
  return table.to_string();
}

std::string render_report(std::span<const AnalyzedRun> runs,
                          const ExportMeta* meta,
                          const ReportOptions& options) {
  std::ostringstream out;
  if (meta != nullptr) {
    out << "# " << kTraceSchema << " tool=" << meta->tool
        << " seed=" << meta->seed << "\n";
    if (!meta->config.empty()) out << "# config: " << meta->config << "\n";
    out << "\n";
  }
  out << render_breakdown_table(runs, options);
  for (const AnalyzedRun& run : runs) {
    if (options.spans) out << "\n" << render_span_table(run, options);
    if (options.overlap && run.analysis.has_worker_tracks()) {
      out << "\n" << render_overlap_report(run, options);
    }
  }
  return out.str();
}

}  // namespace insitu::obs::analyze
