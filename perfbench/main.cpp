// The perfbench program: runs one workload for a fixed time, checks
// its outputs, and prints every metric by name with its unit.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--size full|tiny] [--spans <path>]
//
// --trace 0 runs untraced instances and prints the end-to-end metrics.
// --trace 1 alternates untraced and traced instances and prints the
// per-layer metrics, including the tracing overhead between the two.
// The last stdout line is the result object; the line before it stamps
// the host fingerprint and the seed. Exit status is 0 only when every
// output check passed.

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif
#include <sys/utsname.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "kernels/kernels.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool tiny = false;
  std::string spans;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--size full|tiny] "
               "[--spans <path>]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage("missing value for " + key);
    }
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') usage("bad --seed " + value);
      have_seed = true;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0.0)) {
        usage("bad --seconds " + value);
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace " + value);
      args.trace = value == "1" ? 1 : 0;
    } else if (key == "--size") {
      if (value != "full" && value != "tiny") usage("bad --size " + value);
      args.tiny = value == "tiny";
    } else if (key == "--spans") {
      args.spans = value;
    } else {
      usage("unknown option " + key);
    }
  }
  if (args.workload.empty() || !have_seed || args.seconds <= 0.0 ||
      args.trace < 0) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return args;
}

bool sanitizer_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr;
#endif
}

bool optimised_build() {
#if defined(__OPTIMIZE__)
  return true;
#else
  return false;
#endif
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  std::string model(reinterpret_cast<const char*>(regs), sizeof regs);
  model.resize(std::strlen(model.c_str()));
  const auto first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
#else
  return "unknown";
#endif
}

std::string kernel_release() {
  utsname u{};
  if (uname(&u) != 0) return "unknown";
  return std::string(u.sysname) + " " + u.release;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Per-layer metrics read from the instances' layer maps, with units.
/// The span-derived ones are filled from SpanStats below.
constexpr struct {
  const char* name;
  const char* unit;
} kLayerMetrics[] = {
    {"exec.launch_s", "s"},
    {"exec.join_s", "s"},
    {"exec.cpu_per_wall", "ratio"},
    {"exec.rss_per_rank_kb", "KiB"},
    {"comm.collective.calls", "count"},
    {"comm.collective.wait_s", "s"},
    {"comm.collective.contended", "count"},
    {"comm.bytes_sent", "bytes"},
    {"comm.messages_sent", "count"},
    {"proxy.init_s", "s"},
    {"proxy.step_s", "s"},
    {"miniapp.init_s", "s"},
    {"miniapp.step_s", "s"},
    {"miniapp.adaptor_s", "s"},
    {"core.initialize_s", "s"},
    {"core.execute_s", "s"},
    {"core.execute_self_s", "s"},
    {"core.finalize_s", "s"},
    {"analysis.histogram_s", "s"},
    {"analysis.autocorrelation_s", "s"},
    {"analysis.autocorrelation_finalize_s", "s"},
    {"backends.catalyst_slice_s", "s"},
    {"backends.catalyst_slice_rank0_s", "s"},
    {"backends.flexpath_write_s", "s"},
    {"backends.flexpath_wait_s", "s"},
    {"io.reduction.bytes_in", "bytes"},
    {"io.reduction.bytes_out", "bytes"},
    {"io.reduction.ratio", "ratio"},
    {"io.reduction.encode_s", "s"},
    {"kernels.elements", "count"},
    {"kernels.bytes", "bytes"},
    {"kernels.histogram_bin.elements", "count"},
    {"kernels.reduce_moments.elements", "count"},
    {"kernels.oscillator.elements", "count"},
    {"kernels.raster_span.elements", "count"},
    {"kernels.colormap.elements", "count"},
    {"kernels.depth_composite.elements", "count"},
    {"kernels.delta_encode.elements", "count"},
    {"kernels.delta_decode.elements", "count"},
    {"pal.pool.hit_rate", "ratio"},
    {"pal.pool.bytes_allocated", "bytes"},
    {"pal.tracked_hwm_mb", "MiB"},
    {"pal.untracked_mb", "MiB"},
    {"service.submit_s", "s"},
    {"service.queue_s", "s"},
    {"service.run_s", "s"},
    {"service.gen_lag_s", "s"},
    {"obs.trace_overhead", "ratio"},
};

template <typename F>
std::vector<double> collect(const std::vector<Instance>& instances, F&& f) {
  std::vector<double> out;
  for (const Instance& i : instances) f(i, out);
  return out;
}

std::vector<Metric> end_to_end(const std::vector<Instance>& plain,
                               std::vector<double> setup) {
  for (const Instance& i : plain) setup.push_back(i.setup_s);
  const auto scalar = [&](double Instance::*field) {
    return collect(plain, [&](const Instance& i, std::vector<double>& v) {
      v.push_back(i.*field);
    });
  };
  // When every instance holds at least 100 samples (ten beyond the p90),
  // a percentile is taken per instance and reported as the median over
  // instances, so a host stall that hits one instance does not move it.
  // Smaller instances pool their samples instead.
  const auto percentile = [&](std::vector<double> Instance::*field, double q) {
    const bool per_instance =
        std::all_of(plain.begin(), plain.end(), [&](const Instance& i) {
          return (i.*field).size() >= 100;
        });
    if (per_instance) {
      return median(collect(plain, [&](const Instance& i, std::vector<double>& v) {
        v.push_back(quantile(i.*field, q));
      }));
    }
    return quantile(collect(plain, [&](const Instance& i, std::vector<double>& v) {
      v.insert(v.end(), (i.*field).begin(), (i.*field).end());
    }), q);
  };
  return {
      {"setup_s", median(setup), "s"},
      {"total_s", median(scalar(&Instance::total_s)), "s"},
      {"step_s_p50", percentile(&Instance::step_s, 0.5), "s"},
      {"step_s_p90", percentile(&Instance::step_s, 0.9), "s"},
      {"delivery_s_p50", percentile(&Instance::delivery_s, 0.5), "s"},
      {"delivery_s_p90", percentile(&Instance::delivery_s, 0.9), "s"},
      {"cpu_s", median(scalar(&Instance::cpu_s)), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
  };
}

std::vector<Metric> per_layer(const std::vector<Instance>& plain,
                              const std::vector<Instance>& traced,
                              const SpanStats& spans) {
  std::map<std::string, double> values;
  for (const auto& def : kLayerMetrics) {
    values[def.name] = median(collect(
        traced, [&](const Instance& i, std::vector<double>& v) {
          const auto it = i.layer.find(def.name);
          if (it != i.layer.end()) v.push_back(it->second);
        }));
  }
  const std::pair<const char*, SpanName> totals[] = {
      {"proxy.init_s", kProxyInit},
      {"proxy.step_s", kProxyStep},
      {"miniapp.init_s", kMiniappInit},
      {"miniapp.step_s", kMiniappStep},
      {"miniapp.adaptor_s", kAdaptor},
      {"core.initialize_s", kCoreInitialize},
      {"core.execute_s", kCoreExecute},
      {"core.finalize_s", kCoreFinalize},
      {"analysis.histogram_s", kHistogram},
      {"analysis.autocorrelation_s", kAutocorrelation},
      {"analysis.autocorrelation_finalize_s", kAutocorrelationFinalize},
      {"backends.catalyst_slice_s", kCatalystSlice},
      {"backends.flexpath_write_s", kFlexpathWrite},
  };
  for (const auto& [name, span] : totals) values[name] = spans.median_total(span);
  values["core.execute_self_s"] = spans.median_self(kCoreExecute);
  values["backends.catalyst_slice_rank0_s"] =
      spans.median_root_total(kCatalystSlice);
  const auto total = [](const std::vector<Instance>& v) {
    return median(collect(v, [](const Instance& i, std::vector<double>& out) {
      out.push_back(i.total_s);
    }));
  };
  const double untraced = total(plain);
  values["obs.trace_overhead"] =
      untraced > 0.0 ? total(traced) / untraced - 1.0 : 0.0;

  std::vector<Metric> out;
  for (const auto& def : kLayerMetrics) {
    out.push_back({def.name, values[def.name], def.unit});
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (sanitizer_build()) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a sanitizer build "
                 "(flags: %s)\n",
                 PERFBENCH_CXX_FLAGS);
    return 2;
  }
  Plan plan;
  plan.workload = args.workload;
  plan.seed = args.seed;
  plan.tiny = args.tiny;
  plan.nproc = std::clamp(static_cast<int>(std::thread::hardware_concurrency()),
                          1, 4);
  std::unique_ptr<Workload> workload = make_workload(plan);
  if (workload == nullptr) usage("unknown workload " + args.workload);

  set_rss_baseline_mb(peak_rss_mb());
  std::vector<double> setup = workload->extra_setup_samples();
  std::vector<Instance> plain;
  std::vector<Instance> traced;
  SpanStats spans;
  int run_id = 0;
  // A warm-up instance pays the once-per-process costs (fiber stacks,
  // pool free lists, first-touch page faults) outside every timing; its
  // outputs still count and become the reference for the output checks.
  const Instance warm_up = workload->run(false, nullptr, "", run_id++);
  const double begin = wall_now();
  do {
    plain.push_back(workload->run(false, nullptr, "", run_id++));
    if (args.trace == 1) {
      traced.push_back(workload->run(true, &spans, args.spans, run_id++));
    }
  } while (wall_now() - begin < args.seconds ||
           plain.size() < (args.trace == 1 ? 1u : 2u));

  // Every instance runs the same inputs, traced or not, so every output
  // digest must equal the warm-up's.
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> problems;
  const std::vector<std::uint64_t>& reference = warm_up.digest;
  std::vector<const Instance*> all = {&warm_up};
  for (const std::vector<Instance>* set : {&plain, &traced}) {
    for (const Instance& i : *set) all.push_back(&i);
  }
  for (const Instance* i : all) {
    long mismatches = 0;
    if (i->digest.size() != reference.size()) {
      mismatches = i->attempted;
    } else {
      for (std::size_t k = 0; k < reference.size(); ++k) {
        mismatches += i->digest[k] != reference[k] ? 1 : 0;
      }
    }
    if (mismatches > 0) problems.push_back("output differs from warm-up");
    attempted += i->attempted;
    failed += std::min(i->attempted, i->failed + mismatches);
    problems.insert(problems.end(), i->problems.begin(), i->problems.end());
  }
  const bool correct = failed == 0;

  std::string stamp = "{\"perfbench\": {\"workload\": " +
                      json_string(args.workload) +
                      ", \"seed\": " + std::to_string(args.seed) +
                      ", \"trace\": " + std::to_string(args.trace) +
                      ", \"size\": " + json_string(args.tiny ? "tiny" : "full") +
                      ", \"instances\": " +
                      std::to_string(1 + plain.size() + traced.size()) +
                      ", \"host\": {\"cpu\": " + json_string(cpu_model()) +
                      ", \"nproc\": " +
                      std::to_string(std::thread::hardware_concurrency()) +
                      ", \"kernel\": " + json_string(kernel_release()) +
                      ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
                      ", \"optimised\": " + (optimised_build() ? "true" : "false") +
                      ", \"kernels\": " +
                      json_string(std::string(insitu::kernels::variant_name(
                          insitu::kernels::active_variant()))) +
                      ", \"sched\": " + json_string(workload->sched()) +
                      "}, \"problems\": [";
  for (std::size_t i = 0; i < problems.size() && i < 8; ++i) {
    stamp += (i > 0 ? ", " : "") + json_string(problems[i]);
  }
  stamp += "]}}";
  std::printf("%s\n", stamp.c_str());
  if (!optimised_build()) {
    std::fprintf(stderr, "perfbench: warning: non-optimised build\n");
  }

  const std::vector<Metric> metrics = args.trace == 1
                                          ? per_layer(plain, traced, spans)
                                          : end_to_end(plain, setup);
  std::string line = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line += (i > 0 ? ", " : "") + json_string(metrics[i].name) +
            ": {\"value\": " + json_number(metrics[i].value) +
            ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}
