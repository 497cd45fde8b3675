#pragma once

// Extracted geometry shared by the slice/contour kernels and the renderer.

#include <array>
#include <cstdint>
#include <vector>

#include "data/types.hpp"

namespace insitu::analysis {

/// Triangle soup with one scalar attribute per vertex (for pseudocolor
/// rendering) — the product of slice extraction and isosurfacing.
struct TriangleMesh {
  std::vector<data::Vec3> vertices;
  std::vector<std::array<std::int32_t, 3>> triangles;
  std::vector<double> scalars;  ///< per-vertex attribute

  std::size_t num_vertices() const { return vertices.size(); }
  std::size_t num_triangles() const { return triangles.size(); }
  bool empty() const { return triangles.empty(); }

  /// Append another mesh (indices re-based).
  void append(const TriangleMesh& other);

  /// Drop every vertex and triangle, keeping the capacity for reuse.
  void clear() {
    vertices.clear();
    triangles.clear();
    scalars.clear();
  }

  /// Merge vertices closer than `epsilon` (quantized-grid welding) and
  /// drop degenerate triangles. Marching-tet output duplicates every
  /// shared edge vertex ~6x; welding shrinks extracts accordingly.
  void weld(double epsilon = 1e-9);

  data::Bounds bounds() const;

  /// Approximate payload size, used to model rendering/transport costs.
  std::size_t size_bytes() const {
    return vertices.size() * sizeof(data::Vec3) +
           triangles.size() * sizeof(std::array<std::int32_t, 3>) +
           scalars.size() * sizeof(double);
  }
};

}  // namespace insitu::analysis
