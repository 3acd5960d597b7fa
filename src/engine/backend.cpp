#include "engine/backend.hpp"

#include "obs/names.hpp"

namespace dfw {

const char* to_string(ClassifierBackendKind kind) {
  switch (kind) {
    case ClassifierBackendKind::kFlatSlab:
      return "flat_slab";
    case ClassifierBackendKind::kPrefixTrie:
      return "prefix_trie";
  }
  return "flat_slab";
}

std::optional<ClassifierBackendKind> parse_backend_kind(
    std::string_view name) {
  if (name == "flat_slab") {
    return ClassifierBackendKind::kFlatSlab;
  }
  if (name == "prefix_trie") {
    return ClassifierBackendKind::kPrefixTrie;
  }
  return std::nullopt;
}

const char* compile_phase_name(ClassifierBackendKind kind) {
  switch (kind) {
    case ClassifierBackendKind::kFlatSlab:
      return names::kClassifierCompileFlatSlab;
    case ClassifierBackendKind::kPrefixTrie:
      return names::kClassifierCompilePrefixTrie;
  }
  return names::kClassifierCompileFlatSlab;
}

const char* serve_backend_counter_name(ClassifierBackendKind kind) {
  switch (kind) {
    case ClassifierBackendKind::kFlatSlab:
      return names::kServeBackendFlatSlab;
    case ClassifierBackendKind::kPrefixTrie:
      return names::kServeBackendPrefixTrie;
  }
  return names::kServeBackendFlatSlab;
}

std::shared_ptr<const ClassifierBackend> compile_backend(
    ClassifierBackendKind kind, const Fdd& fdd) {
  switch (kind) {
    case ClassifierBackendKind::kPrefixTrie:
      return compile_prefix_trie_backend(fdd);
    case ClassifierBackendKind::kFlatSlab:
      break;
  }
  return compile_flat_slab_backend(fdd);
}

}  // namespace dfw
