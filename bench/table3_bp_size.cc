// Reproduces Table 3 of the paper: the size (in stored numbers) of each
// proposed bounding predicate as a function of data dimensionality —
//   MBR: 2D     MAP: 4D     JB: (2 + 2^D)·D     XJB: 2D + (D+1)·X
// — and cross-checks the formulas against the byte sizes the actual
// codecs emit.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "am/rtree.h"
#include "core/jagged.h"
#include "core/map_tree.h"
#include "tests/test_helpers.h"
#include "util/flags.h"
#include "util/table_printer.h"

int main(int argc, char** argv) {
  bw::Flags flags;
  int64_t* x = flags.AddInt64("x", 10, "XJB bite count");
  int64_t* max_dim = flags.AddInt64("max_dim", 8, "largest dimensionality");
  bw::Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    if (parsed.code() == bw::StatusCode::kNotFound) return 0;
    std::fprintf(stderr, "%s\n", parsed.ToString().c_str());
    return 2;
  }

  std::printf("=== Table 3: bounding predicate sizes (numbers stored) ===\n");
  std::printf("X = %lld for XJB\n\n", (long long)*x);

  bw::TablePrinter table({"D", "MBR (2D)", "MAP (4D)", "JB ((2+2^D)D)",
                          "XJB (2D+(D+1)X)", "codec bytes MBR/MAP/JB/XJB"});
  for (size_t d = 2; d <= static_cast<size_t>(*max_dim); ++d) {
    const size_t mbr = 2 * d;
    const size_t map = 4 * d;
    const size_t jb = (2 + (size_t{1} << d)) * d;
    // A BP cannot hold more bites than the MBR has corners.
    const size_t x_eff = std::min<size_t>(static_cast<size_t>(*x),
                                          size_t{1} << d);
    const size_t xjb = 2 * d + (d + 1) * x_eff;

    // Cross-check against what the real codecs serialize for a small
    // point cloud of this dimensionality.
    const auto points = bw::testing::MakeClusteredPoints(64, d, 4, d);
    bw::am::RtreeExtension rtree(d);
    bw::core::MapExtension amap(d, 42, 0.4, /*partition_samples=*/32);
    bw::core::JbExtension jbe(d);
    bw::core::XjbExtension xjbe(d, x_eff);
    const size_t mbr_bytes = rtree.BpFromPoints(points).size();
    const size_t map_bytes = amap.BpFromPoints(points).size();
    const size_t jb_bytes = jbe.BpFromPoints(points).size();
    const size_t xjb_bytes = xjbe.BpFromPoints(points).size();

    BW_CHECK_EQ(mbr_bytes, mbr * sizeof(float));
    BW_CHECK_EQ(map_bytes, map * sizeof(float));
    BW_CHECK_EQ(jb_bytes, jb * sizeof(float));
    BW_CHECK_EQ(xjb_bytes, xjb * sizeof(float));

    char codec[64];
    std::snprintf(codec, sizeof(codec), "%zu/%zu/%zu/%zu", mbr_bytes,
                  map_bytes, jb_bytes, xjb_bytes);
    table.AddRow({std::to_string(d), std::to_string(mbr), std::to_string(map),
                  std::to_string(jb), std::to_string(xjb), codec});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("paper checks: at D=5, MBR=10, MAP=20, JB=170, XJB=%lld;\n"
              "JB grows exponentially with D while XJB stays linear.\n",
              (long long)(10 + 6 * *x));
  return 0;
}
