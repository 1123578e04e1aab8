#include "perfbench/inputs.h"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string>

#include "blobworld/dataset.h"
#include "linalg/reducer.h"
#include "util/random.h"

namespace bw::perfbench {
namespace {

// The collection (its latent model and which of its blobs are indexed)
// is fixed, as the paper's collection was; --seed draws the query stream
// and the blobs the write workload inserts. Drawing the indexed subset
// per seed as well moved throughput and write cost by up to 25% between
// seeds, which swamped the run-to-run spread the benchmark exists to
// keep small.
constexpr uint64_t kCollectionSeed = 1234;
// Blobs outside the index that inserts are drawn from, per held-out blob
// a run needs.
constexpr size_t kPoolPerHeldOut = 2;
constexpr uint64_t kSubsetSalt = 0x48454c44;  // "HELD"
constexpr uint64_t kQuerySalt = 0xF0C1;

bool WriteAll(int fd, const void* data, size_t bytes) {
  const char* p = static_cast<const char*>(data);
  while (bytes > 0) {
    const ssize_t n = ::write(fd, p, bytes);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    bytes -= static_cast<size_t>(n);
  }
  return true;
}

bool ReadAll(int fd, void* data, size_t bytes) {
  char* p = static_cast<char*>(data);
  while (bytes > 0) {
    const ssize_t n = ::read(fd, p, bytes);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    bytes -= static_cast<size_t>(n);
  }
  return true;
}

bool WriteVectors(int fd, const std::vector<geom::Vec>& vectors) {
  for (const geom::Vec& v : vectors) {
    if (!WriteAll(fd, v.data(), v.dim() * sizeof(float))) return false;
  }
  return true;
}

bool ReadVectors(int fd, size_t count, size_t dim,
                 std::vector<geom::Vec>* out) {
  out->reserve(count);
  for (size_t i = 0; i < count; ++i) {
    geom::Vec v(dim);
    if (!ReadAll(fd, v.data(), dim * sizeof(float))) return false;
    out->push_back(std::move(v));
  }
  return true;
}

// Child side: synthesize, split, project, and stream the 5-D result.
// Returns the child's exit code.
int GenerateIntoPipe(const InputSpec& spec, int fd) {
  const size_t pool = kPoolPerHeldOut * spec.held_out;
  const size_t needed = spec.blobs + pool;
  blobworld::DatasetParams params;
  // ~10% more images than needed: an image holds a varying blob count.
  params.num_images = needed * 11 / 50 + 1;
  params.blobs_per_image = 5.0;
  params.latent_clusters = 60;
  params.within_cluster_sigma = 0.5;
  params.direct_noise = 0.02;
  params.blend_fraction = 0.2;
  params.zipf_exponent = 0.8;
  params.local_dims = 2;
  params.seed = kCollectionSeed;
  std::vector<geom::Vec> corpus_hist;
  std::vector<geom::Vec> held_hist;
  {
    const blobworld::BlobDataset dataset =
        blobworld::GenerateDatasetDirect(params);
    if (dataset.num_blobs() < needed || spec.queries > spec.blobs) return 3;
    // Fixed: the indexed blobs and the pool of the others.
    Rng fixed(kCollectionSeed ^ kSubsetSalt);
    std::vector<size_t> picked =
        fixed.SampleWithoutReplacement(dataset.num_blobs(), needed);
    fixed.Shuffle(picked);
    std::sort(picked.begin(), picked.begin() + spec.blobs);
    for (size_t i = 0; i < spec.blobs; ++i) {
      corpus_hist.push_back(dataset.blob(picked[i]).histogram);
    }
    // Seeded: which pool blobs are inserted, and in what order.
    Rng rng(spec.seed ^ kSubsetSalt);
    std::vector<size_t> held = rng.SampleWithoutReplacement(pool, spec.held_out);
    rng.Shuffle(held);
    for (size_t i : held) {
      held_hist.push_back(dataset.blob(picked[spec.blobs + i]).histogram);
    }
  }
  linalg::SvdReducer reducer;
  if (!reducer.Fit(corpus_hist, spec.dim).ok()) return 4;
  const std::vector<geom::Vec> corpus =
      reducer.ProjectAll(corpus_hist, spec.dim);
  const std::vector<geom::Vec> held = reducer.ProjectAll(held_hist, spec.dim);
  corpus_hist = {};
  held_hist = {};

  Rng rng(spec.seed ^ kQuerySalt);
  std::vector<geom::Vec> queries;
  for (size_t i : rng.SampleWithoutReplacement(corpus.size(), spec.queries)) {
    queries.push_back(corpus[i]);
  }
  const uint64_t header[4] = {corpus.size(), queries.size(), held.size(),
                              spec.dim};
  if (!WriteAll(fd, header, sizeof(header)) || !WriteVectors(fd, corpus) ||
      !WriteVectors(fd, queries) || !WriteVectors(fd, held)) {
    return 5;
  }
  return 0;
}

}  // namespace

Result<Inputs> GenerateInputs(const InputSpec& spec) {
  int fds[2];
  if (::pipe(fds) != 0) {
    return Status::IoError(std::string("pipe: ") + std::strerror(errno));
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return Status::IoError(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    ::close(fds[0]);
    const int code = GenerateIntoPipe(spec, fds[1]);
    ::close(fds[1]);
    ::_exit(code);
  }
  ::close(fds[1]);
  Inputs inputs;
  uint64_t header[4] = {0, 0, 0, 0};
  bool read_ok = ReadAll(fds[0], header, sizeof(header)) &&
                 header[3] == spec.dim && header[1] == spec.queries &&
                 header[2] == spec.held_out;
  read_ok = read_ok &&
            ReadVectors(fds[0], header[0], spec.dim, &inputs.corpus) &&
            ReadVectors(fds[0], header[1], spec.dim, &inputs.queries) &&
            ReadVectors(fds[0], header[2], spec.dim, &inputs.held_out);
  ::close(fds[0]);
  int wstatus = 0;
  while (::waitpid(pid, &wstatus, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0 || !read_ok) {
    return Status::Internal("input generator child failed (wait status " +
                            std::to_string(wstatus) + ")");
  }
  return inputs;
}

}  // namespace bw::perfbench
