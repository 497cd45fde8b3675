#include "miniapp/oscillator.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "kernels/kernels.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pal/config.hpp"

namespace insitu::miniapp {

double Oscillator::time_factor(double t) const {
  switch (kind) {
    case Kind::kPeriodic:
      return std::cos(omega * t);
    case Kind::kDamped: {
      // Under-damped harmonic oscillator response.
      const double damping = std::exp(-zeta * omega * t);
      const double omega_d = omega * std::sqrt(std::max(0.0, 1.0 - zeta * zeta));
      return damping * std::cos(omega_d * t);
    }
    case Kind::kDecaying:
      return std::exp(-omega * t);
  }
  return 0.0;
}

double Oscillator::value_at(const data::Vec3& p, double t) const {
  const data::Vec3 d = p - center;
  const double r2 = d.dot(d);
  return std::exp(-r2 / (2.0 * radius * radius)) * time_factor(t);
}

StatusOr<std::vector<Oscillator>> parse_oscillators(const std::string& text) {
  std::vector<Oscillator> oscillators;
  int lineno = 0;
  for (const std::string& raw : pal::split(text, '\n')) {
    ++lineno;
    const std::string line{pal::trim(raw)};
    if (line.empty() || line.front() == '#') continue;
    std::istringstream in(line);
    std::string kind;
    Oscillator osc;
    in >> kind >> osc.center.x >> osc.center.y >> osc.center.z >>
        osc.radius >> osc.omega;
    if (in.fail()) {
      return Status::InvalidArgument("oscillator deck line " +
                                     std::to_string(lineno) + ": parse error");
    }
    in >> osc.zeta;  // optional
    if (kind == "periodic") {
      osc.kind = Oscillator::Kind::kPeriodic;
    } else if (kind == "damped") {
      osc.kind = Oscillator::Kind::kDamped;
    } else if (kind == "decaying") {
      osc.kind = Oscillator::Kind::kDecaying;
    } else {
      return Status::InvalidArgument("oscillator deck line " +
                                     std::to_string(lineno) +
                                     ": unknown kind '" + kind + "'");
    }
    if (osc.radius <= 0.0) {
      return Status::InvalidArgument("oscillator deck line " +
                                     std::to_string(lineno) +
                                     ": radius must be positive");
    }
    oscillators.push_back(osc);
  }
  return oscillators;
}

OscillatorSim::OscillatorSim(comm::Communicator& comm,
                             OscillatorConfig config)
    : comm_(comm), config_(std::move(config)) {
  box_ = data::decompose_regular(config_.global_cells, comm_.size(),
                                 comm_.rank());
  values_.assign(static_cast<std::size_t>(box_.point_count()), 0.0);
  tracked_ = pal::TrackedBytes(values_.size() * sizeof(double));
}

void OscillatorSim::initialize() {
  // "read and broadcast from the root process": serialize the oscillator
  // table from rank 0 so every rank runs the identical configuration.
  std::vector<Oscillator> table = config_.oscillators;
  std::vector<std::byte> blob;
  if (comm_.rank() == 0) {
    blob.resize(table.size() * sizeof(Oscillator));
    std::memcpy(blob.data(), table.data(), blob.size());
  }
  comm_.broadcast(blob, 0);
  if (comm_.rank() != 0) {
    table.resize(blob.size() / sizeof(Oscillator));
    std::memcpy(table.data(), blob.data(), blob.size());
    config_.oscillators = std::move(table);
  }
  time_ = 0.0;
  step_ = 0;
  fill_grid();
}

void OscillatorSim::step() {
  obs::TraceScope span(obs::Category::kSim, "miniapp.step");
  const double start = comm_.clock().now();
  ++step_;
  time_ = static_cast<double>(step_) * config_.dt;
  fill_grid();
  if (config_.sync_every_step) comm_.barrier();
  obs::metrics()
      .histogram("miniapp.step.seconds")
      .record(comm_.clock().now() - start);
}

void OscillatorSim::fill_grid() {
  const data::ImageDataPtr grid = make_grid();
  const std::int64_t n = grid->num_points();
  const std::size_t m = config_.oscillators.size();
  const std::int64_t nx = grid->point_dim(0);
  const std::int64_t ny = grid->point_dim(1);
  const std::int64_t nz = grid->point_dim(2);
  const data::Vec3 origin = grid->origin();
  const data::Vec3 spacing = grid->spacing();

  // Per-oscillator terms, hoisted once per step. One kernel call fills
  // the block, accumulating oscillators in deck order: per point that is
  // 0 + v0 + v1 + ..., exactly the original per-point running sum.
  std::vector<kernels::OscillatorTerm> terms;
  terms.reserve(m);
  for (const Oscillator& osc : config_.oscillators) {
    terms.push_back(kernels::OscillatorTerm{
        osc.center.x, osc.center.y, osc.center.z,
        2.0 * osc.radius * osc.radius, osc.time_factor(time_)});
  }
  const kernels::GridBlock block{nx,        ny,        nz,
                                 origin.x,  origin.y,  origin.z,
                                 spacing.x, spacing.y, spacing.z,
                                 box_.offset[0], box_.offset[1],
                                 box_.offset[2]};
  std::fill(values_.begin(), values_.end(), 0.0);
  kernels::oscillator_accumulate(values_.data(), block, terms.data(),
                                 static_cast<std::int64_t>(terms.size()));
  // O(m N^3) per step; virtual cost optionally scaled to the paper-size
  // per-rank workload.
  const std::int64_t modeled_points = config_.modeled_points_per_rank > 0
                                          ? config_.modeled_points_per_rank
                                          : n;
  comm_.advance_compute(comm_.machine().compute_time(
      static_cast<std::uint64_t>(modeled_points) * std::max<std::size_t>(m, 1),
      config_.work_per_update));
}

data::ImageDataPtr OscillatorSim::make_grid() const {
  return std::make_shared<data::ImageData>(box_, data::Vec3{},
                                           data::Vec3{1, 1, 1});
}

}  // namespace insitu::miniapp
