#include "core/durable_index.h"

#include <cstring>
#include <numeric>

#include "am/bulk_load.h"

namespace bw::core {

namespace {

constexpr uint32_t kMetaMagic = 0x42574D54;  // "BWMT"
constexpr uint32_t kMetaVersion = 1;

struct TreeMeta {
  pages::PageId root = pages::kInvalidPageId;
  int height = 0;
  uint64_t size = 0;
  uint32_t dim = 0;
  uint32_t aux_param = 0;
  std::string extension_name;
};

void AppendU32(std::vector<uint8_t>* out, uint32_t v) {
  const size_t at = out->size();
  out->resize(at + sizeof(v));
  std::memcpy(out->data() + at, &v, sizeof(v));
}

void AppendU64(std::vector<uint8_t>* out, uint64_t v) {
  const size_t at = out->size();
  out->resize(at + sizeof(v));
  std::memcpy(out->data() + at, &v, sizeof(v));
}

Status ReadTreeMeta(const pages::Page& page, TreeMeta* meta) {
  if (page.slot_count() != 1) {
    return Status::Corruption("meta page must hold exactly one record");
  }
  const uint8_t* p = page.RecordData(0);
  const size_t len = page.RecordLength(0);
  // Fixed prefix: magic, version, root, height, size, dim, aux, name_len
  // (seven u32 fields and one u64).
  constexpr size_t kPrefix = 4 * 7 + 8;
  if (len < kPrefix) return Status::Corruption("meta record truncated");
  uint32_t magic, version, root, height, dim, aux, name_len;
  uint64_t size;
  std::memcpy(&magic, p + 0, 4);
  std::memcpy(&version, p + 4, 4);
  std::memcpy(&root, p + 8, 4);
  std::memcpy(&height, p + 12, 4);
  std::memcpy(&size, p + 16, 8);
  std::memcpy(&dim, p + 24, 4);
  std::memcpy(&aux, p + 28, 4);
  std::memcpy(&name_len, p + 32, 4);
  if (magic != kMetaMagic) return Status::Corruption("bad meta magic");
  if (version != kMetaVersion) {
    return Status::NotSupported("unsupported meta version");
  }
  if (len != kPrefix + name_len) {
    return Status::Corruption("meta record length mismatch");
  }
  meta->root = root;
  meta->height = static_cast<int>(height);
  meta->size = size;
  meta->dim = dim;
  meta->aux_param = aux;
  meta->extension_name.assign(reinterpret_cast<const char*>(p + kPrefix),
                              name_len);
  return Status::OK();
}

}  // namespace

Status WriteTreeMeta(storage::DurableStore* store, const gist::Tree& tree) {
  const std::string name = tree.extension().Name();
  std::vector<uint8_t> blob;
  AppendU32(&blob, kMetaMagic);
  AppendU32(&blob, kMetaVersion);
  AppendU32(&blob, tree.root());
  AppendU32(&blob, static_cast<uint32_t>(tree.height()));
  AppendU64(&blob, tree.size());
  AppendU32(&blob, static_cast<uint32_t>(tree.extension().dim()));
  AppendU32(&blob, tree.extension().AuxParam());
  AppendU32(&blob, static_cast<uint32_t>(name.size()));
  const size_t at = blob.size();
  blob.resize(at + name.size());
  std::memcpy(blob.data() + at, name.data(), name.size());

  BW_ASSIGN_OR_RETURN(pages::Page * page, store->pages()->Write(kMetaPageId));
  page->Clear();
  return page->Insert(blob.data(), blob.size()).status();
}

Status RefreshTreeFromMeta(storage::DurableStore* store, gist::Tree* tree) {
  if (store->pages()->page_count() == 0) {
    return Status::Corruption("store has no meta page");
  }
  TreeMeta meta;
  BW_RETURN_IF_ERROR(ReadTreeMeta(
      *static_cast<const pages::PageStore*>(store->pages())->PeekNoIo(
          kMetaPageId),
      &meta));
  if (meta.root != pages::kInvalidPageId &&
      meta.root >= store->pages()->page_count()) {
    return Status::Corruption("meta root page out of range");
  }
  if (meta.extension_name != tree->extension().Name() ||
      meta.dim != static_cast<uint32_t>(tree->extension().dim())) {
    return Status::InvalidArgument(
        "meta page describes a different access method (" +
        meta.extension_name + "/dim " + std::to_string(meta.dim) +
        ") than the installed tree (" + tree->extension().Name() + "/dim " +
        std::to_string(tree->extension().dim()) + ")");
  }
  tree->InstallBulkLoaded(meta.root, meta.height, meta.size);
  return Status::OK();
}

Result<std::unique_ptr<DurableIndex>> CreateDurableIndex(
    const std::string& base_path, const std::string& wal_path, size_t dim,
    const IndexBuildOptions& options, storage::StoreOptions store_options,
    size_t num_points_hint) {
  store_options.page_size = options.page_bytes;
  BW_ASSIGN_OR_RETURN(
      std::unique_ptr<storage::DurableStore> store,
      storage::DurableStore::Create(base_path, wal_path, store_options));
  const pages::PageId meta = store->pages()->Allocate();
  if (meta != kMetaPageId) {
    return Status::Internal("meta page must be the store's first page");
  }
  BW_ASSIGN_OR_RETURN(std::unique_ptr<gist::Extension> extension,
                      MakeExtension(dim, options, num_points_hint));
  auto tree =
      std::make_unique<gist::Tree>(store->pages(), std::move(extension));
  auto index =
      std::make_unique<DurableIndex>(std::move(store), std::move(tree));
  BW_RETURN_IF_ERROR(index->Commit(/*tag=*/0));
  BW_RETURN_IF_ERROR(index->Checkpoint());
  return index;
}

Result<std::unique_ptr<DurableIndex>> BuildDurableIndex(
    const std::vector<geom::Vec>& vectors, const IndexBuildOptions& options,
    const std::string& base_path, const std::string& wal_path,
    storage::StoreOptions store_options) {
  if (vectors.empty()) {
    return Status::InvalidArgument("cannot index an empty vector set");
  }
  BW_ASSIGN_OR_RETURN(
      std::unique_ptr<DurableIndex> index,
      CreateDurableIndex(base_path, wal_path, vectors[0].dim(), options,
                         store_options, vectors.size()));
  std::vector<gist::Rid> rids(vectors.size());
  std::iota(rids.begin(), rids.end(), 0);
  if (options.bulk_load) {
    am::BulkLoadOptions load;
    load.fill_fraction = options.fill_fraction;
    BW_RETURN_IF_ERROR(am::StrBulkLoad(&index->tree(), vectors, rids, load));
  } else {
    BW_RETURN_IF_ERROR(am::InsertionLoad(&index->tree(), vectors, rids));
  }
  BW_RETURN_IF_ERROR(index->Commit(/*tag=*/vectors.size()));
  BW_RETURN_IF_ERROR(index->Checkpoint());
  index->store().pages()->ResetStats();
  return index;
}

Result<std::unique_ptr<DurableIndex>> OpenDurableIndex(
    const std::string& base_path, const std::string& wal_path,
    IndexBuildOptions options, storage::StoreOptions store_options) {
  storage::RecoveryManager::Summary summary;
  BW_ASSIGN_OR_RETURN(std::unique_ptr<storage::DurableStore> store,
                      storage::RecoveryManager::Recover(
                          base_path, wal_path, store_options, &summary));
  if (store->pages()->page_count() == 0) {
    return Status::Corruption("recovered store has no meta page");
  }
  TreeMeta meta;
  BW_RETURN_IF_ERROR(ReadTreeMeta(
      *static_cast<const pages::PageStore*>(store->pages())->PeekNoIo(
          kMetaPageId),
      &meta));
  if (meta.root != pages::kInvalidPageId &&
      meta.root >= store->pages()->page_count()) {
    return Status::Corruption("meta root page out of range");
  }
  options.am = meta.extension_name;
  options.page_bytes = store->pages()->page_size();
  if (options.am == "xjb" && meta.aux_param != 0) {
    options.xjb_x = meta.aux_param;
  }
  BW_ASSIGN_OR_RETURN(
      std::unique_ptr<gist::Extension> extension,
      MakeExtension(meta.dim, options, static_cast<size_t>(meta.size)));
  if (extension->AuxParam() != meta.aux_param) {
    return Status::InvalidArgument(
        "extension parameter mismatch (index built with " +
        std::to_string(meta.aux_param) + ", reopened with " +
        std::to_string(extension->AuxParam()) + ")");
  }
  auto tree =
      std::make_unique<gist::Tree>(store->pages(), std::move(extension));
  tree->InstallBulkLoaded(meta.root, meta.height, meta.size);
  BW_RETURN_IF_ERROR(tree->Validate());
  store->pages()->ResetStats();
  return std::make_unique<DurableIndex>(std::move(store), std::move(tree),
                                        summary);
}

}  // namespace bw::core
