// Benchmark input generation. The indexed collection is fixed: a
// synthetic Blobworld collection (218-bin color histograms per blob, the
// paper's pre-processing output), projected to 5-D by an SVD fitted on
// the indexed blobs. The run's --seed draws the query stream (indexed
// blobs) and the held-out blobs of the same collection that the write
// workload inserts.
//
// The histograms exist only inside a forked child process: the parent
// receives the 5-D vectors over a pipe, so neither the measured set-up
// time nor the parent's peak resident memory includes them.

#ifndef BLOBWORLD_PERFBENCH_INPUTS_H_
#define BLOBWORLD_PERFBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geom/vec.h"
#include "util/status.h"

namespace bw::perfbench {

struct InputSpec {
  size_t blobs = 20000;   // blobs in the synthetic collection.
  size_t queries = 2000;  // query blobs, sampled from the indexed ones.
  size_t held_out = 0;    // blobs kept out of the index for inserts.
  size_t dim = 5;         // SVD dimensionality (the paper's choice).
  uint64_t seed = 1;
};

struct Inputs {
  /// Indexed blobs; the record id of corpus[i] is i.
  std::vector<geom::Vec> corpus;
  /// Query points: copies of indexed blobs, as in the paper's workload.
  std::vector<geom::Vec> queries;
  /// Blobs of the same collection that are not in the index.
  std::vector<geom::Vec> held_out;
};

/// Synthesizes and projects the collection in a child process and
/// returns its 5-D outputs. Deterministic in spec.seed. Must be called
/// before the process starts any thread (it forks).
Result<Inputs> GenerateInputs(const InputSpec& spec);

}  // namespace bw::perfbench

#endif  // BLOBWORLD_PERFBENCH_INPUTS_H_
