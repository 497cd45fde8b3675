#include "analysis/geometry.hpp"

#include <cmath>
#include <cstdint>
#include <unordered_map>

namespace insitu::analysis {

void TriangleMesh::weld(double epsilon) {
  if (vertices.empty()) return;
  const double inv = 1.0 / std::max(epsilon, 1e-300);
  struct Key {
    std::int64_t x, y, z;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      std::uint64_t h = 1469598103934665603ULL;
      for (const std::int64_t v : {k.x, k.y, k.z}) {
        h ^= static_cast<std::uint64_t>(v);
        h *= 1099511628211ULL;
      }
      return static_cast<std::size_t>(h);
    }
  };
  std::unordered_map<Key, std::int32_t, KeyHash> index;
  index.reserve(vertices.size());
  std::vector<data::Vec3> new_vertices;
  std::vector<double> new_scalars;
  std::vector<std::int32_t> remap(vertices.size());
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    const data::Vec3& v = vertices[i];
    const Key key{static_cast<std::int64_t>(std::llround(v.x * inv)),
                  static_cast<std::int64_t>(std::llround(v.y * inv)),
                  static_cast<std::int64_t>(std::llround(v.z * inv))};
    auto [it, inserted] =
        index.emplace(key, static_cast<std::int32_t>(new_vertices.size()));
    if (inserted) {
      new_vertices.push_back(v);
      new_scalars.push_back(scalars[i]);
    }
    remap[i] = it->second;
  }
  std::vector<std::array<std::int32_t, 3>> new_triangles;
  new_triangles.reserve(triangles.size());
  for (const auto& tri : triangles) {
    const std::array<std::int32_t, 3> mapped = {
        remap[static_cast<std::size_t>(tri[0])],
        remap[static_cast<std::size_t>(tri[1])],
        remap[static_cast<std::size_t>(tri[2])]};
    if (mapped[0] == mapped[1] || mapped[1] == mapped[2] ||
        mapped[0] == mapped[2]) {
      continue;  // degenerate after welding
    }
    new_triangles.push_back(mapped);
  }
  vertices = std::move(new_vertices);
  scalars = std::move(new_scalars);
  triangles = std::move(new_triangles);
}

void TriangleMesh::append(const TriangleMesh& other) {
  const auto base = static_cast<std::int32_t>(vertices.size());
  vertices.insert(vertices.end(), other.vertices.begin(),
                  other.vertices.end());
  scalars.insert(scalars.end(), other.scalars.begin(), other.scalars.end());
  triangles.reserve(triangles.size() + other.triangles.size());
  for (const auto& tri : other.triangles) {
    triangles.push_back({tri[0] + base, tri[1] + base, tri[2] + base});
  }
}

}  // namespace insitu::analysis
