// bwadmin: command-line administration of Blobworld indexes, covering
// the offline production workflow the paper assumes (Section 3.2: image
// processing and index construction are batch jobs; the static index is
// then served).
//
//   bwadmin gen     --dataset blobs.bin --images 4000
//   bwadmin build   --dataset blobs.bin --index idx --am xjb --dim 5
//   bwadmin info    --index idx
//   bwadmin query   --dataset blobs.bin --index idx --blob 17 --k 10
//   bwadmin analyze --dataset blobs.bin --index idx --queries 200
//
// --index PREFIX names a durable index (core/durable_index.h): the base
// file PREFIX.bwpf and its write-ahead log PREFIX.bwwal, the same pair
// `bwserver --index PREFIX` serves. info, query and analyze open it
// through crash recovery, whose closing checkpoint rewrites the base
// file, so they write to the index files too.
//
//   bwadmin stats   --server 127.0.0.1:4821
//   bwadmin health  --server 127.0.0.1:4821
//   bwadmin stats   --endpoints 127.0.0.1:4830,127.0.0.1:4831,127.0.0.1:4832
//   bwadmin health  --endpoints 127.0.0.1:4830,127.0.0.1:4831
//
// stats/health are the online half: they query a live bwserver over the
// wire protocol and pretty-print its QueryService::Snapshot() counters
// (the kStats payload is exactly service/snapshot_export.h's field
// registry, so counters added there show up here untouched). With
// --endpoints (comma-separated) they fan out to a whole shard fleet
// instead and print one merged table, a column per server — the
// operator's single view over bwrouter's shards. An unreachable server
// still gets its column ('-' everywhere) plus a per-endpoint error
// line under the table, and the sweep exits nonzero so scripts notice.
//
//   bwadmin catchup --source 127.0.0.1:4830 --target 127.0.0.1:4833
//
// catchup is the operator-driven half of replica self-healing: it
// streams the WAL suffix (or a full snapshot past the checkpoint
// horizon) from a healthy source bwserver into a lagging target over
// the wire catch-up RPCs, then verifies bit-identity by checksum —
// the same protocol bwrouter's background driver runs on its own.

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <algorithm>

#include "amdb/analysis.h"
#include "blobworld/dataset.h"
#include "blobworld/pipeline.h"
#include "core/durable_index.h"
#include "linalg/reducer.h"
#include "net/client.h"
#include "service/snapshot_export.h"
#include "shard/tail_tolerance.h"
#include "util/flags.h"
#include "util/stopwatch.h"

namespace {

using bw::Status;
using bw::StatusCode;

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// Opens the durable index saved at PREFIX.bwpf + PREFIX.bwwal.
bw::Result<std::unique_ptr<bw::core::DurableIndex>> OpenIndex(
    const std::string& prefix) {
  return bw::core::OpenDurableIndex(prefix + ".bwpf", prefix + ".bwwal");
}

// Rebuilds the reduced vectors the index was built over (deterministic:
// the reducer is a pure function of the dataset).
bw::Result<std::vector<bw::geom::Vec>> ReducedVectors(
    const bw::blobworld::BlobDataset& dataset, size_t dim) {
  bw::linalg::SvdReducer reducer;
  BW_RETURN_IF_ERROR(reducer.Fit(dataset.Histograms(), dim));
  return reducer.ProjectAll(dataset.Histograms(), dim);
}

int CmdGen(bw::Flags& flags, int argc, char** argv) {
  std::string* dataset_path = flags.AddString("dataset", "blobs.bin", "");
  int64_t* images = flags.AddInt64("images", 4000, "");
  int64_t* seed = flags.AddInt64("seed", 1234, "");
  Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) return parsed.code() == StatusCode::kNotFound ? 0 : 2;

  bw::blobworld::DatasetParams params;
  params.num_images = static_cast<size_t>(*images);
  params.within_cluster_sigma = 0.5;
  params.direct_noise = 0.02;
  params.blend_fraction = 0.2;
  params.zipf_exponent = 0.8;
  params.seed = static_cast<uint64_t>(*seed);
  const auto dataset = bw::blobworld::GenerateDatasetDirect(params);
  Status saved = dataset.SaveTo(*dataset_path);
  if (!saved.ok()) return Fail(saved);
  std::printf("wrote %s: %zu blobs from %zu images\n", dataset_path->c_str(),
              dataset.num_blobs(), dataset.num_images());
  return 0;
}

int CmdBuild(bw::Flags& flags, int argc, char** argv) {
  std::string* dataset_path = flags.AddString("dataset", "blobs.bin", "");
  std::string* index_path = flags.AddString("index", "index", "");
  std::string* am = flags.AddString("am", "xjb", "");
  int64_t* dim = flags.AddInt64("dim", 5, "");
  int64_t* xjb_x = flags.AddInt64("xjb_x", 0, "0 = auto-select");
  Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) return parsed.code() == StatusCode::kNotFound ? 0 : 2;

  auto dataset = bw::blobworld::BlobDataset::LoadFrom(*dataset_path);
  if (!dataset.ok()) return Fail(dataset.status());
  auto vectors = ReducedVectors(*dataset, static_cast<size_t>(*dim));
  if (!vectors.ok()) return Fail(vectors.status());

  bw::Stopwatch watch;
  bw::core::IndexBuildOptions options;
  options.am = *am;
  options.xjb_x = static_cast<size_t>(*xjb_x);
  auto index = bw::core::BuildDurableIndex(*vectors, options,
                                           *index_path + ".bwpf",
                                           *index_path + ".bwwal");
  if (!index.ok()) return Fail(index.status());
  const auto shape = (*index)->tree().Shape();
  std::printf("built %s index over %zu vectors in %.1fs "
              "(height %d, %llu nodes) -> %s.bwpf + %s.bwwal\n",
              am->c_str(), vectors->size(), watch.ElapsedSeconds(),
              shape.height, (unsigned long long)shape.TotalNodes(),
              index_path->c_str(), index_path->c_str());
  return 0;
}

int CmdInfo(bw::Flags& flags, int argc, char** argv) {
  std::string* index_path = flags.AddString("index", "index", "");
  Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) return parsed.code() == StatusCode::kNotFound ? 0 : 2;

  auto index = OpenIndex(*index_path);
  if (!index.ok()) return Fail(index.status());
  const auto& tree = (*index)->tree();
  const auto shape = tree.Shape();
  std::printf("index:      %s\n", index_path->c_str());
  std::printf("AM:         %s (%zu-D)\n", tree.extension().Name().c_str(),
              tree.extension().dim());
  std::printf("entries:    %llu\n", (unsigned long long)tree.size());
  std::printf("height:     %d\n", shape.height);
  for (size_t level = 0; level < shape.nodes_per_level.size(); ++level) {
    std::printf("  level %zu: %llu nodes, %llu entries, util %.2f\n", level,
                (unsigned long long)shape.nodes_per_level[level],
                (unsigned long long)shape.entries_per_level[level],
                shape.avg_utilization_per_level[level]);
  }
  std::printf("validation: %s\n", tree.Validate().ToString().c_str());
  return 0;
}

int CmdQuery(bw::Flags& flags, int argc, char** argv) {
  std::string* dataset_path = flags.AddString("dataset", "blobs.bin", "");
  std::string* index_path = flags.AddString("index", "index", "");
  int64_t* blob = flags.AddInt64("blob", 0, "query blob id");
  int64_t* k = flags.AddInt64("k", 10, "");
  Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) return parsed.code() == StatusCode::kNotFound ? 0 : 2;

  auto dataset = bw::blobworld::BlobDataset::LoadFrom(*dataset_path);
  if (!dataset.ok()) return Fail(dataset.status());
  auto index = OpenIndex(*index_path);
  if (!index.ok()) return Fail(index.status());
  auto vectors = ReducedVectors(*dataset, (*index)->tree().extension().dim());
  if (!vectors.ok()) return Fail(vectors.status());
  if (*blob < 0 || static_cast<size_t>(*blob) >= vectors->size()) {
    return Fail(Status::InvalidArgument("blob id out of range"));
  }

  bw::gist::TraversalStats stats;
  auto neighbors = (*index)->tree().KnnSearch(
      (*vectors)[static_cast<size_t>(*blob)], static_cast<size_t>(*k), &stats);
  if (!neighbors.ok()) return Fail(neighbors.status());
  std::printf("%zu nearest blobs to blob %lld:\n", neighbors->size(),
              (long long)*blob);
  for (const auto& n : *neighbors) {
    std::printf("  blob %-7llu image %-6u dist %.5f\n",
                (unsigned long long)n.rid,
                dataset->blob(static_cast<size_t>(n.rid)).image, n.distance);
  }
  std::printf("cost: %llu leaf + %llu inner page reads\n",
              (unsigned long long)stats.leaf_accesses,
              (unsigned long long)stats.internal_accesses);
  return 0;
}

int CmdAnalyze(bw::Flags& flags, int argc, char** argv) {
  std::string* dataset_path = flags.AddString("dataset", "blobs.bin", "");
  std::string* index_path = flags.AddString("index", "index", "");
  int64_t* queries = flags.AddInt64("queries", 200, "");
  int64_t* k = flags.AddInt64("k", 200, "");
  Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) return parsed.code() == StatusCode::kNotFound ? 0 : 2;

  auto dataset = bw::blobworld::BlobDataset::LoadFrom(*dataset_path);
  if (!dataset.ok()) return Fail(dataset.status());
  auto index = OpenIndex(*index_path);
  if (!index.ok()) return Fail(index.status());
  auto vectors = ReducedVectors(*dataset, (*index)->tree().extension().dim());
  if (!vectors.ok()) return Fail(vectors.status());

  const auto foci = bw::blobworld::SampleQueryBlobs(
      *dataset, static_cast<size_t>(*queries), 0xF0C1);
  const auto workload = bw::amdb::Workload::NnOverFoci(
      *vectors, foci, static_cast<size_t>(*k));
  auto report = bw::amdb::AnalyzeWorkload((*index)->tree(), workload);
  if (!report.ok()) return Fail(report.status());
  std::printf("%s", report->ToString().c_str());
  return 0;
}

// Splits "--server host:port" and opens a wire-protocol client.
bw::Result<std::unique_ptr<bw::net::Client>> ConnectTo(
    const std::string& server) {
  const size_t colon = server.rfind(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument("--server wants host:port, got '" +
                                   server + "'");
  }
  const int port = std::atoi(server.c_str() + colon + 1);
  if (port <= 0 || port >= 65536) {
    return Status::InvalidArgument("bad port in --server '" + server + "'");
  }
  return bw::net::Client::Connect(server.substr(0, colon),
                                  static_cast<uint16_t>(port));
}

// "a,b,c" -> {a, b, c} (empty pieces dropped).
std::vector<std::string> SplitEndpoints(const std::string& spec) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= spec.size()) {
    size_t comma = spec.find(',', start);
    if (comma == std::string::npos) comma = spec.size();
    if (comma > start) out.push_back(spec.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

// Short column header for an endpoint: "host:port" minus a common
// "127.0.0.1:" prefix is just the port.
std::string ColumnLabel(const std::string& endpoint) {
  if (endpoint.rfind("127.0.0.1:", 0) == 0) return endpoint.substr(10);
  if (endpoint.rfind("localhost:", 0) == 0) return endpoint.substr(10);
  return endpoint;
}

// Fleet-wide stats: one column per server, rows = union of counter
// names in first-seen order, '-' where a server lacks the counter (or
// was unreachable). Counters whose sum across the fleet is meaningful
// (everything except write_state) keep their raw per-shard values; the
// reader sums columns.
int FleetStats(const std::vector<std::string>& endpoints) {
  std::vector<std::string> names;  // row order: first-seen.
  std::vector<std::vector<std::pair<std::string, double>>> columns;
  std::vector<std::pair<std::string, std::string>> errors;  // endpoint, why.
  size_t reachable = 0;
  for (const std::string& endpoint : endpoints) {
    std::vector<std::pair<std::string, double>> fields;
    auto client = ConnectTo(endpoint);
    if (client.ok()) {
      auto stats = (*client)->Stats();
      if (stats.ok()) {
        fields = std::move(*stats);
        ++reachable;
      } else {
        errors.emplace_back(endpoint, stats.status().ToString());
      }
    } else {
      errors.emplace_back(endpoint, client.status().ToString());
    }
    for (const auto& [name, value] : fields) {
      (void)value;
      if (std::find(names.begin(), names.end(), name) == names.end()) {
        names.push_back(name);
      }
    }
    columns.push_back(std::move(fields));
  }
  if (reachable == 0) {
    for (const auto& [endpoint, why] : errors) {
      std::fprintf(stderr, "%s: %s\n", endpoint.c_str(), why.c_str());
    }
    return Fail(Status::Unavailable("no endpoint answered stats"));
  }

  std::printf("%-34s", "counter");
  for (const std::string& endpoint : endpoints) {
    std::printf(" %14s", ColumnLabel(endpoint).c_str());
  }
  std::printf("\n");
  for (const std::string& name : names) {
    std::printf("%-34s", name.c_str());
    for (const auto& column : columns) {
      const auto it =
          std::find_if(column.begin(), column.end(),
                       [&](const auto& field) { return field.first == name; });
      if (it == column.end()) {
        std::printf(" %14s", "-");
      } else if (name == "write_state") {
        std::printf(" %14s",
                    bw::service::WriteStateName(
                        static_cast<bw::service::WriteState>(
                            static_cast<int>(it->second))));
      } else if (it->second ==
                 static_cast<double>(static_cast<int64_t>(it->second))) {
        std::printf(" %14lld", (long long)static_cast<int64_t>(it->second));
      } else {
        std::printf(" %14.3f", it->second);
      }
    }
    std::printf("\n");
  }
  // Per-endpoint failures under the merged table, where a human (or a
  // CI grep) sees them next to the '-' columns they explain.
  for (const auto& [endpoint, why] : errors) {
    std::printf("error: %-27s %s\n", endpoint.c_str(), why.c_str());
  }
  return reachable == endpoints.size() ? 0 : 1;
}

int CmdStats(bw::Flags& flags, int argc, char** argv) {
  std::string* server = flags.AddString("server", "127.0.0.1:4821", "");
  std::string* endpoints = flags.AddString(
      "endpoints", "", "comma-separated fleet ('' = single --server)");
  Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) return parsed.code() == StatusCode::kNotFound ? 0 : 2;

  if (!endpoints->empty()) return FleetStats(SplitEndpoints(*endpoints));

  auto client = ConnectTo(*server);
  if (!client.ok()) return Fail(client.status());
  auto fields = (*client)->Stats();
  if (!fields.ok()) return Fail(fields.status());

  std::printf("%s: %zu counters\n", server->c_str(), fields->size());
  for (const auto& [name, value] : *fields) {
    if (name == "write_state") {
      std::printf("  %-34s %s\n", name.c_str(),
                  bw::service::WriteStateName(
                      static_cast<bw::service::WriteState>(
                          static_cast<int>(value))));
    } else if (value == static_cast<double>(static_cast<int64_t>(value))) {
      std::printf("  %-34s %lld\n", name.c_str(),
                  (long long)static_cast<int64_t>(value));
    } else {
      std::printf("  %-34s %.3f\n", name.c_str(), value);
    }
  }
  return 0;
}

// A stats row like "router.shard0.replica1.breaker" carries the
// numeric BreakerState; health prints them as state names so an
// operator sees which backends the router has tripped away from.
// Non-routers simply have no such rows.
void PrintBreakerRows(bw::net::Client& client, const char* indent) {
  auto fields = client.Stats();
  if (!fields.ok()) return;
  for (const auto& [name, value] : *fields) {
    const size_t dot = name.rfind(".breaker");
    if (name.rfind("router.", 0) != 0 || dot == std::string::npos ||
        dot + 8 != name.size()) {
      continue;
    }
    std::printf("%s%-24s %s\n", indent, name.c_str(),
                bw::shard::BreakerStateName(static_cast<bw::shard::BreakerState>(
                    static_cast<int>(value))));
  }
}

// Fleet-wide health: one row per server. Exit 0 only when every server
// answered and none is fail-stopped.
int FleetHealth(const std::vector<std::string>& endpoints) {
  int exit_code = 0;
  std::printf("%-22s %-10s %-7s %-9s %-11s %-11s %s\n", "server", "state",
              "writes", "degraded", "generation", "completed", "uptime");
  for (const std::string& endpoint : endpoints) {
    auto client = ConnectTo(endpoint);
    if (!client.ok()) {
      std::printf("%-22s %-10s %s\n", endpoint.c_str(), "UNREACHABLE",
                  client.status().ToString().c_str());
      exit_code = 1;
      continue;
    }
    auto health = (*client)->Health();
    if (!health.ok()) {
      std::printf("%-22s %-10s %s\n", endpoint.c_str(), "ERROR",
                  health.status().ToString().c_str());
      exit_code = 1;
      continue;
    }
    std::printf("%-22s %-10s %-7s %-9s %-11llu %-11llu %.1fs\n",
                endpoint.c_str(),
                bw::service::WriteStateName(
                    static_cast<bw::service::WriteState>(
                        health->write_state)),
                health->writes_enabled ? "yes" : "no",
                health->write_degraded ? "yes" : "no",
                (unsigned long long)health->generation,
                (unsigned long long)health->completed,
                health->uptime_seconds);
    if (health->write_state ==
        static_cast<uint8_t>(bw::service::WriteState::kFailed)) {
      exit_code = 1;
    }
    PrintBreakerRows(**client, "    ");
  }
  return exit_code;
}

int CmdHealth(bw::Flags& flags, int argc, char** argv) {
  std::string* server = flags.AddString("server", "127.0.0.1:4821", "");
  std::string* endpoints = flags.AddString(
      "endpoints", "", "comma-separated fleet ('' = single --server)");
  Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) return parsed.code() == StatusCode::kNotFound ? 0 : 2;

  if (!endpoints->empty()) return FleetHealth(SplitEndpoints(*endpoints));

  auto client = ConnectTo(*server);
  if (!client.ok()) return Fail(client.status());
  auto health = (*client)->Health();
  if (!health.ok()) return Fail(health.status());

  std::printf("%s: %s\n", server->c_str(),
              bw::service::WriteStateName(
                  static_cast<bw::service::WriteState>(health->write_state)));
  std::printf("  writes_enabled     %s\n",
              health->writes_enabled ? "yes" : "no");
  std::printf("  write_degraded     %s\n",
              health->write_degraded ? "yes" : "no");
  std::printf("  generation         %llu\n",
              (unsigned long long)health->generation);
  std::printf("  completed          %llu\n",
              (unsigned long long)health->completed);
  std::printf("  pages_quarantined  %llu\n",
              (unsigned long long)health->pages_quarantined);
  std::printf("  uptime             %.1f s\n", health->uptime_seconds);
  PrintBreakerRows(**client, "  ");
  // Health is the fitness probe: serving reads + not fail-stopped = 0.
  return health->write_state ==
                 static_cast<uint8_t>(bw::service::WriteState::kFailed)
             ? 1
             : 0;
}

// Ships the target every page it needs for a full resync (the path a
// WAL suffix retired past the source's checkpoint forces). Restarts
// bounded times when the source commits mid-transfer.
Status ShipSnapshot(bw::net::Client& source, bw::net::Client& target,
                    uint32_t max_bytes) {
  for (int restart = 0; restart < 4; ++restart) {
    uint64_t tag = 0;
    uint32_t start_page = 0;
    bool first = true;
    bool restarted = false;
    for (;;) {
      auto chunk = source.PullSnapshot(start_page, max_bytes);
      if (!chunk.ok()) return chunk.status();
      if (chunk->pages.empty()) {
        return Status::Internal("snapshot chunk with no pages");
      }
      if (first) {
        tag = chunk->tag;
      } else if (chunk->tag != tag) {
        restarted = true;
        break;
      }
      const bool last = start_page + chunk->pages.size() >= chunk->total_pages;
      auto ack = target.ApplySnapshot(*chunk, first, last);
      if (!ack.ok()) return ack.status();
      first = false;
      start_page += static_cast<uint32_t>(chunk->pages.size());
      if (last) {
        std::printf("  shipped snapshot: %llu pages at tag %llu\n",
                    (unsigned long long)chunk->total_pages,
                    (unsigned long long)tag);
        return Status::OK();
      }
    }
    if (!restarted) break;
  }
  return Status::Unavailable(
      "snapshot transfer kept restarting under concurrent commits");
}

// Operator-driven replica catch-up between two bwservers: the same
// WAL-suffix / snapshot / checksum-verify protocol bwrouter's
// background driver runs, exposed as a command for fleets without a
// router (or for rehearsing a recovery by hand).
int CmdCatchup(bw::Flags& flags, int argc, char** argv) {
  std::string* source_spec = flags.AddString("source", "", "healthy replica");
  std::string* target_spec = flags.AddString("target", "", "lagging replica");
  int64_t* max_batches = flags.AddInt64("max_batches", 64, "");
  int64_t* max_bytes = flags.AddInt64("max_bytes", 1 << 20, "");
  int64_t* max_rounds = flags.AddInt64("max_rounds", 64, "");
  Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) return parsed.code() == StatusCode::kNotFound ? 0 : 2;
  if (source_spec->empty() || target_spec->empty()) {
    return Fail(Status::InvalidArgument("--source and --target required"));
  }

  auto source = ConnectTo(*source_spec);
  if (!source.ok()) return Fail(source.status());
  auto target = ConnectTo(*target_spec);
  if (!target.ok()) return Fail(target.status());

  bool force_snapshot = false;
  for (int64_t round = 0; round < *max_rounds; ++round) {
    auto target_pos = (*target)->CatchupPos();
    if (!target_pos.ok()) return Fail(target_pos.status());
    auto source_pos = (*source)->CatchupPos();
    if (!source_pos.ok()) return Fail(source_pos.status());

    if (!force_snapshot && target_pos->last_tag == source_pos->last_tag) {
      auto source_sum = (*source)->TreeSum();
      if (!source_sum.ok()) return Fail(source_sum.status());
      auto target_sum = (*target)->TreeSum();
      if (!target_sum.ok()) return Fail(target_sum.status());
      if (source_sum->crc == target_sum->crc &&
          source_sum->page_count == target_sum->page_count) {
        std::printf(
            "%s caught up to %s: tag %llu, %llu pages, crc %08x "
            "(bit-identical)\n",
            target_spec->c_str(), source_spec->c_str(),
            (unsigned long long)target_sum->tag,
            (unsigned long long)target_sum->page_count, target_sum->crc);
        return 0;
      }
      std::printf("  tags agree (%llu) but trees differ: full resync\n",
                  (unsigned long long)target_pos->last_tag);
      force_snapshot = true;
      continue;
    }

    if (force_snapshot || target_pos->last_tag > source_pos->last_tag) {
      Status shipped = ShipSnapshot(**source, **target,
                                    static_cast<uint32_t>(*max_bytes));
      if (!shipped.ok()) return Fail(shipped);
      force_snapshot = false;
      continue;
    }

    auto tail = (*source)->PullWal(target_pos->last_tag,
                                   static_cast<uint32_t>(*max_batches),
                                   static_cast<uint32_t>(*max_bytes));
    if (!tail.ok()) return Fail(tail.status());
    if (tail->snapshot_needed) {
      std::printf("  suffix after tag %llu retired past a checkpoint: "
                  "full resync\n",
                  (unsigned long long)target_pos->last_tag);
      force_snapshot = true;
      continue;
    }
    for (const auto& batch : tail->batches) {
      auto ack = (*target)->ApplyWal(batch);
      if (!ack.ok()) return Fail(ack.status());
    }
    if (!tail->batches.empty()) {
      std::printf("  applied %zu WAL batch(es) through tag %llu\n",
                  tail->batches.size(),
                  (unsigned long long)tail->batches.back().tag);
    }
  }
  return Fail(Status::Unavailable(
      "catch-up did not converge (writes still in flight? "
      "quiesce the target or raise --max_rounds)"));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(
        stderr,
        "usage: bwadmin <gen|build|info|query|analyze|stats|health|catchup> "
        "[flags]\n");
    return 2;
  }
  const char* command = argv[1];
  bw::Flags flags;
  // Shift argv past the subcommand.
  argv[1] = argv[0];
  if (std::strcmp(command, "gen") == 0) {
    return CmdGen(flags, argc - 1, argv + 1);
  }
  if (std::strcmp(command, "build") == 0) {
    return CmdBuild(flags, argc - 1, argv + 1);
  }
  if (std::strcmp(command, "info") == 0) {
    return CmdInfo(flags, argc - 1, argv + 1);
  }
  if (std::strcmp(command, "query") == 0) {
    return CmdQuery(flags, argc - 1, argv + 1);
  }
  if (std::strcmp(command, "analyze") == 0) {
    return CmdAnalyze(flags, argc - 1, argv + 1);
  }
  if (std::strcmp(command, "stats") == 0) {
    return CmdStats(flags, argc - 1, argv + 1);
  }
  if (std::strcmp(command, "health") == 0) {
    return CmdHealth(flags, argc - 1, argv + 1);
  }
  if (std::strcmp(command, "catchup") == 0) {
    return CmdCatchup(flags, argc - 1, argv + 1);
  }
  std::fprintf(stderr, "unknown command '%s'\n", command);
  return 2;
}
