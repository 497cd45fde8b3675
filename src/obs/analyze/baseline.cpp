#include "obs/analyze/baseline.hpp"

#include <fstream>
#include <sstream>

#include "obs/chrome_trace.hpp"  // format_num, json_escape

namespace insitu::obs::analyze {

namespace {

std::string phase_name(int category) {
  return to_string(static_cast<Category>(category));
}

}  // namespace

BaselineRun baseline_run_from_analysis(const std::string& label,
                                       const TraceAnalysis& analysis,
                                       std::uint64_t seed) {
  BaselineRun run;
  run.label = label;
  run.nranks = analysis.nranks;
  run.steps = analysis.step.steps;
  run.seed = seed;
  run.phase_s = analysis.step.per_step_s;
  for (double& phase : run.phase_s) {
    // Self times are differences; drop float dust so baselines stay clean.
    if (phase > -1e-12 && phase < 1e-12) phase = 0.0;
  }
  run.total_s = analysis.step.total();
  run.end_to_end_s = analysis.end_to_end_s();
  run.traced = !analysis.tracks.empty();
  return run;
}

std::string write_baseline(const Baseline& baseline) {
  std::ostringstream out;
  out << "{\n"
      << "  \"schema\": \"" << kBaselineSchema << "\",\n"
      << "  \"tool\": \"" << json_escape(baseline.tool) << "\",\n"
      << "  \"config\": \"" << json_escape(baseline.config) << "\",\n"
      << "  \"seed\": " << baseline.seed << ",\n"
      << "  \"runs\": [";
  bool first = true;
  for (const BaselineRun& run : baseline.runs) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "    {\"label\": \"" << json_escape(run.label) << "\", ";
    if (run.traced) {
      out << "\"nranks\": " << run.nranks << ", \"steps\": " << run.steps
          << ", \"seed\": " << run.seed << ",\n     \"phases\": {";
      for (int c = 0; c < kCategoryCount; ++c) {
        if (c != 0) out << ", ";
        out << "\"" << phase_name(c) << "\": " << format_num(run.phase_s[c]);
      }
      out << "},\n     \"total_s\": " << format_num(run.total_s)
          << ", \"end_to_end_s\": " << format_num(run.end_to_end_s);
    } else {
      out << "\"traced\": false, \"seed\": " << run.seed;
    }
    if (run.has_pool) {
      out << ",\n     \"pool\": {\"hit_rate\": "
          << format_num(run.pool_hit_rate) << ", \"bytes_allocated\": "
          << format_num(run.pool_bytes_allocated) << ", \"bytes_reused\": "
          << format_num(run.pool_bytes_reused) << "}";
    }
    if (run.has_kernels) {
      out << ",\n     \"kernels\": {\"variant\": \""
          << json_escape(run.kernels_variant) << "\", \"elements\": {";
      bool first_kernel = true;
      for (const auto& [kernel, elements] : run.kernels_elements) {
        if (!first_kernel) out << ", ";
        first_kernel = false;
        out << "\"" << json_escape(kernel) << "\": " << format_num(elements);
      }
      out << "}}";
    }
    out << "}";
  }
  out << "\n  ]\n}\n";
  return out.str();
}

Status write_baseline_file(const std::string& path,
                           const Baseline& baseline) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::NotFound("cannot open baseline file: " + path);
  out << write_baseline(baseline);
  out.flush();
  if (!out) return Status::Internal("short write to baseline file: " + path);
  return Status::Ok();
}

bool is_baseline_json(const Json& root) {
  if (!root.is_object()) return false;
  const Json* schema = root.find("schema");
  return schema != nullptr && schema->kind == Json::Kind::kString &&
         schema->string == kBaselineSchema;
}

StatusOr<Baseline> read_baseline(std::string_view text) {
  INSITU_ASSIGN_OR_RETURN(Json root, parse_json(text));
  if (!is_baseline_json(root)) {
    // Distinguish "wrong schema VERSION" from "not a baseline at all":
    // a versioned mismatch is a FailedPrecondition the CLI maps to a
    // dedicated exit code with both versions named, so stale baselines
    // fail loudly instead of rendering an empty report.
    if (root.is_object()) {
      if (const Json* schema = root.find("schema");
          schema != nullptr && schema->kind == Json::Kind::kString &&
          schema->string.rfind("insitu-bench-baseline/", 0) == 0 &&
          schema->string != kBaselineSchema) {
        return Status::FailedPrecondition(
            "baseline schema version mismatch: file has \"" +
            schema->string + "\", this tool reads \"" +
            std::string(kBaselineSchema) +
            "\" — regenerate the baseline with the matching tool version");
      }
    }
    return Status::InvalidArgument(
        "not a baseline file (expected schema \"" +
        std::string(kBaselineSchema) + "\")");
  }
  Baseline out;
  out.tool = root.string_or("tool", "");
  out.config = root.string_or("config", "");
  out.seed = static_cast<std::uint64_t>(root.number_or("seed", 0));
  const Json* runs = root.find("runs");
  if (runs == nullptr || !runs->is_array()) {
    return Status::InvalidArgument("baseline: missing runs array");
  }
  for (const Json& r : runs->array) {
    if (!r.is_object()) continue;
    BaselineRun run;
    run.label = r.string_or("label", "");
    run.nranks = static_cast<int>(r.number_or("nranks", 0));
    run.steps = static_cast<std::uint64_t>(r.number_or("steps", 0));
    run.seed = static_cast<std::uint64_t>(r.number_or("seed", 0));
    if (const Json* phases = r.find("phases"); phases != nullptr) {
      for (int c = 0; c < kCategoryCount; ++c) {
        run.phase_s[c] = phases->number_or(phase_name(c), 0.0);
      }
    }
    run.total_s = r.number_or("total_s", 0.0);
    run.end_to_end_s = r.number_or("end_to_end_s", 0.0);
    if (const Json* traced = r.find("traced");
        traced != nullptr && traced->kind == Json::Kind::kBool) {
      run.traced = traced->boolean;
    }
    if (const Json* pool = r.find("pool");
        pool != nullptr && pool->is_object()) {
      run.has_pool = true;
      run.pool_hit_rate = pool->number_or("hit_rate", 0.0);
      run.pool_bytes_allocated = pool->number_or("bytes_allocated", 0.0);
      run.pool_bytes_reused = pool->number_or("bytes_reused", 0.0);
    }
    if (const Json* kern = r.find("kernels");
        kern != nullptr && kern->is_object()) {
      run.has_kernels = true;
      run.kernels_variant = kern->string_or("variant", "");
      if (const Json* elems = kern->find("elements");
          elems != nullptr && elems->is_object()) {
        for (const auto& [key, value] : elems->members) {
          if (value.kind == Json::Kind::kNumber) {
            run.kernels_elements.emplace_back(key, value.number);
          }
        }
      }
    }
    out.runs.push_back(std::move(run));
  }
  return out;
}

StatusOr<Baseline> read_baseline_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open baseline file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return read_baseline(buf.str());
}

namespace {

void check_value(const std::string& run, const std::string& phase,
                 double base, double current, const CheckOptions& options,
                 CheckResult& result) {
  if (base < options.min_phase_s) {
    if (current >= options.min_phase_s) {
      result.notes.push_back("note: " + run + "/" + phase +
                             " appeared (baseline ~0, now " +
                             format_num(current) + "s)");
    }
    return;
  }
  if (current > base * (1.0 + options.tolerance)) {
    result.regressions.push_back({run, phase, base, current});
  } else if (current < base * (1.0 - options.tolerance)) {
    result.notes.push_back("note: " + run + "/" + phase + " improved " +
                           format_num(base) + "s -> " + format_num(current) +
                           "s");
  }
}

}  // namespace

CheckResult check_baseline(const Baseline& base, const Baseline& current,
                           const CheckOptions& options) {
  CheckResult result;
  for (const BaselineRun& b : base.runs) {
    const BaselineRun* c = nullptr;
    for (const BaselineRun& candidate : current.runs) {
      if (candidate.label == b.label) {
        c = &candidate;
        break;
      }
    }
    if (c == nullptr) {
      result.mismatches.push_back("run missing from current results: " +
                                  b.label);
      continue;
    }
    if (!b.traced) {
      result.notes.push_back("note: " + b.label + ": not checked: untraced");
      continue;
    }
    if (!c->traced) {
      result.mismatches.push_back(b.label +
                                  ": recorded untraced, baseline has phases");
      continue;
    }
    if (c->nranks != b.nranks) {
      result.mismatches.push_back(
          b.label + ": rank count changed " + std::to_string(b.nranks) +
          " -> " + std::to_string(c->nranks));
    }
    if (c->steps != b.steps) {
      result.mismatches.push_back(
          b.label + ": step count changed " + std::to_string(b.steps) +
          " -> " + std::to_string(c->steps));
    }
    if (c->seed != b.seed) {
      result.notes.push_back("note: " + b.label + ": seed changed " +
                             std::to_string(b.seed) + " -> " +
                             std::to_string(c->seed));
    }
    for (int cat = 0; cat < kCategoryCount; ++cat) {
      check_value(b.label, phase_name(cat), b.phase_s[cat], c->phase_s[cat],
                  options, result);
    }
    check_value(b.label, "total", b.total_s, c->total_s, options, result);
    check_value(b.label, "end_to_end", b.end_to_end_s, c->end_to_end_s,
                options, result);
    // Pool hit rate gates in the opposite direction of time: lower is
    // worse. Every rank pools alone, so the counters are reproducible run
    // to run; allocated/reused bytes still stay informational, the hit
    // rate being the summary that gates.
    if (b.has_pool && c->has_pool) {
      if (c->pool_hit_rate < b.pool_hit_rate * (1.0 - options.tolerance)) {
        result.regressions.push_back(
            {b.label, "pool.hit_rate", b.pool_hit_rate, c->pool_hit_rate});
      } else if (c->pool_hit_rate >
                 b.pool_hit_rate * (1.0 + options.tolerance)) {
        result.notes.push_back("note: " + b.label +
                               "/pool.hit_rate improved " +
                               format_num(b.pool_hit_rate) + " -> " +
                               format_num(c->pool_hit_rate));
      }
      if (c->pool_bytes_allocated >
          b.pool_bytes_allocated * (1.0 + options.tolerance)) {
        result.notes.push_back(
            "note: " + b.label + "/pool.bytes_allocated grew " +
            format_num(b.pool_bytes_allocated) + " -> " +
            format_num(c->pool_bytes_allocated));
      }
    } else if (b.has_pool && !c->has_pool) {
      result.mismatches.push_back(b.label +
                                  ": pool stats missing from current run");
    }
    // Kernel-dispatch stats are informational only: virtual time already
    // gates the result, so variant or element-count drift is worth a note
    // (the workload routed differently) but never fails the check.
    if (b.has_kernels && c->has_kernels) {
      if (c->kernels_variant != b.kernels_variant) {
        result.notes.push_back("note: " + b.label +
                               ": kernel variant changed " +
                               b.kernels_variant + " -> " +
                               c->kernels_variant);
      }
      for (const auto& [kernel, base_elems] : b.kernels_elements) {
        double cur_elems = 0.0;
        bool found = false;
        for (const auto& [ck, cv] : c->kernels_elements) {
          if (ck == kernel) {
            cur_elems = cv;
            found = true;
            break;
          }
        }
        if (!found) {
          result.notes.push_back("note: " + b.label + "/kernels." + kernel +
                                 " no longer called");
        } else if (cur_elems != base_elems) {
          result.notes.push_back("note: " + b.label + "/kernels." + kernel +
                                 " elements changed " +
                                 format_num(base_elems) + " -> " +
                                 format_num(cur_elems));
        }
      }
    } else if (b.has_kernels && !c->has_kernels) {
      result.notes.push_back("note: " + b.label +
                             ": kernel stats missing from current run");
    }
  }
  for (const BaselineRun& c : current.runs) {
    bool known = false;
    for (const BaselineRun& b : base.runs) {
      if (b.label == c.label) {
        known = true;
        break;
      }
    }
    if (!known) {
      result.notes.push_back("note: run not in baseline (skipped): " +
                             c.label);
    }
  }
  return result;
}

}  // namespace insitu::obs::analyze
