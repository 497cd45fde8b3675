#include "io/vtk_xml.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>

#include "comm/runtime.hpp"
#include "io/block_io.hpp"
#include "test_temp_dir.hpp"

namespace insitu::io {
namespace {

using data::DataArray;
using data::ImageData;
using data::IndexBox;
using data::Vec3;

std::shared_ptr<ImageData> make_block() {
  IndexBox box;
  box.cells = {2, 2, 1};
  box.offset = {4, 0, 0};
  auto img = std::make_shared<ImageData>(box, Vec3{0.5, 0, 0},
                                         Vec3{0.25, 0.25, 1.0});
  auto pts = DataArray::create<double>("temperature", img->num_points(), 1);
  for (std::int64_t i = 0; i < img->num_points(); ++i) {
    pts->set(i, 0, static_cast<double>(i) * 0.5);
  }
  img->point_fields().add(pts);
  auto cells = DataArray::create<float>("pressure", img->num_cells(), 2);
  img->cell_fields().add(cells);
  return img;
}

TEST(VtiText, ContainsRequiredStructure) {
  const std::string xml = vti_text(*make_block());
  EXPECT_NE(xml.find("<?xml version=\"1.0\"?>"), std::string::npos);
  EXPECT_NE(xml.find("<VTKFile type=\"ImageData\""), std::string::npos);
  EXPECT_NE(xml.find("WholeExtent=\"4 6 0 2 0 1\""), std::string::npos);
  EXPECT_NE(xml.find("Origin=\"0.5 0 0\""), std::string::npos);
  EXPECT_NE(xml.find("Spacing=\"0.25 0.25 1\""), std::string::npos);
  EXPECT_NE(xml.find("<Piece Extent=\"4 6 0 2 0 1\">"), std::string::npos);
  EXPECT_NE(xml.find("Name=\"temperature\""), std::string::npos);
  EXPECT_NE(xml.find("type=\"Float64\""), std::string::npos);
  EXPECT_NE(xml.find("Name=\"pressure\""), std::string::npos);
  EXPECT_NE(xml.find("NumberOfComponents=\"2\""), std::string::npos);
  EXPECT_NE(xml.find("</VTKFile>"), std::string::npos);
  // Point values present in ascii.
  EXPECT_NE(xml.find("0 0.5 1 1.5"), std::string::npos);
  // Balanced tags.
  auto count = [&](const char* needle) {
    std::size_t n = 0, pos = 0;
    while ((pos = xml.find(needle, pos)) != std::string::npos) {
      ++n;
      pos += 1;
    }
    return n;
  };
  EXPECT_EQ(count("<DataArray"), count("</DataArray>"));
  EXPECT_EQ(count("<Piece"), count("</Piece>"));
}

TEST(VtiFile, WritesToDisk) {
  const test_util::TempDir tmp;
  const std::string path = tmp.file("block.vti");
  ASSERT_TRUE(write_vti(path, *make_block()).ok());
  auto bytes = read_file_bytes(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_GT(bytes->size(), 200u);
}

TEST(Pvti, ParallelIndexReferencesAllPieces) {
  const test_util::TempDir tmp;
  const std::string dir = tmp.str();
  const int p = 4;
  std::atomic<int> failures{0};
  comm::Runtime::run(p, [&](comm::Communicator& comm) {
    IndexBox box = data::decompose_regular({8, 8, 8}, p, comm.rank());
    ImageData local(box, Vec3{}, Vec3{1, 1, 1});
    auto values = DataArray::create<double>("v", local.num_points(), 1);
    local.point_fields().add(values);
    auto pvti = write_pvti(comm, dir, "step0", local);
    if (!pvti.ok()) ++failures;
    if (comm.rank() == 0 && pvti->empty()) ++failures;
  });
  EXPECT_EQ(failures.load(), 0);

  // 4 pieces + 1 index.
  int vti = 0, pvti = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".vti") ++vti;
    if (entry.path().extension() == ".pvti") ++pvti;
  }
  EXPECT_EQ(vti, 4);
  EXPECT_EQ(pvti, 1);

  auto bytes = read_file_bytes(dir + "/step0.pvti");
  ASSERT_TRUE(bytes.ok());
  const std::string xml(reinterpret_cast<const char*>(bytes->data()),
                        bytes->size());
  EXPECT_NE(xml.find("WholeExtent=\"0 8 0 8 0 8\""), std::string::npos);
  for (int r = 0; r < p; ++r) {
    EXPECT_NE(xml.find("step0_r" + std::to_string(r) + ".vti"),
              std::string::npos)
        << r;
  }
  EXPECT_NE(xml.find("PDataArray"), std::string::npos);
}

TEST(Pvd, TimeSeriesIndex) {
  const test_util::TempDir tmp;
  const std::string path = tmp.file("series.pvd");
  ASSERT_TRUE(write_pvd(path, {{0.0, "step0.pvti"}, {0.5, "step1.pvti"}})
                  .ok());
  auto bytes = read_file_bytes(path);
  ASSERT_TRUE(bytes.ok());
  const std::string xml(reinterpret_cast<const char*>(bytes->data()),
                        bytes->size());
  EXPECT_NE(xml.find("type=\"Collection\""), std::string::npos);
  EXPECT_NE(xml.find("timestep=\"0\""), std::string::npos);
  EXPECT_NE(xml.find("timestep=\"0.5\""), std::string::npos);
  EXPECT_NE(xml.find("file=\"step1.pvti\""), std::string::npos);
}

}  // namespace
}  // namespace insitu::io
