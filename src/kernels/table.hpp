#pragma once

// Internal: the dispatch table. One instance per variant, defined in
// generic.cpp / simd.cpp; kernels.cpp selects between them and layers
// the per-(kernel, variant) counters on top.

#include <cstdint>

#include "kernels/kernels.hpp"

namespace insitu::kernels::detail {

struct KernelTable {
  Moments (*reduce_moments)(const double*, std::int64_t,
                            const std::uint8_t*);
  void (*histogram_bin)(const double*, std::int64_t, const std::uint8_t*,
                        double, double, int, std::int64_t*);
  double (*dot)(const double*, const double*, std::int64_t);
  void (*fma_accumulate)(double*, const double*, const double*,
                         std::int64_t);
  void (*saxpy)(double*, double, const double*, std::int64_t);
  void (*lerp)(double*, const double*, const double*, double, std::int64_t);
  void (*colormap_apply)(const double*, std::int64_t, double, double,
                         const std::uint8_t*, int, std::uint8_t*);
  void (*depth_composite)(std::uint8_t*, float*, const std::uint8_t*,
                          const float*, std::int64_t);
  RasterResult (*raster_mesh)(const ScreenVertex*,
                              const std::array<std::int32_t, 3>*,
                              std::int64_t, const RasterFrame&,
                              const ColorRamp&);
  void (*plane_distance)(const double*, const double*, const double*,
                         std::int64_t, double, double, double, double,
                         double, double, double*);
  void (*magnitude3)(const double*, std::int64_t, const double*,
                     std::int64_t, const double*, std::int64_t,
                     std::int64_t, double*);
  void (*oscillator_accumulate)(double*, const GridBlock&,
                                const OscillatorTerm*, std::int64_t);
  void (*vexp)(const double*, double*, std::int64_t);
  void (*vsin)(const double*, double*, std::int64_t);
  void (*vcos)(const double*, double*, std::int64_t);
  void (*quantize_encode)(const double*, std::int64_t, double, double,
                          std::uint16_t*);
  void (*quantize_decode)(const std::uint16_t*, std::int64_t, double, double,
                          double*);
  void (*delta_encode)(const double*, const double*, std::int64_t,
                       std::uint64_t*);
  void (*delta_decode)(const std::uint64_t*, const double*, std::int64_t,
                       double*);
  std::int64_t (*subsample_gather)(const double*, std::int64_t, int, int,
                                   double*);
  void (*subsample_expand)(const double*, std::int64_t, int, int, double*);
};

extern const KernelTable kGenericTable;
extern const KernelTable kSimdTable;

}  // namespace insitu::kernels::detail
