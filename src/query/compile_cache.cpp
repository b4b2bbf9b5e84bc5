#include "query/compile_cache.h"

namespace legion::query {

Result<CompiledQuery> CompileCache::Get(const std::string& text, bool* hit) {
  auto it = entries_.find(text);
  if (it != entries_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    if (hit != nullptr) *hit = true;
    return it->second->second;
  }
  auto compiled = CompiledQuery::Compile(text);
  if (hit != nullptr) *hit = false;
  if (!compiled) return compiled;

  if (capacity_ == 0) return *compiled;  // caching disabled
  // Evict the LRU entry *before* inserting: the cache never holds
  // capacity_+1 entries, and a fresh entry can never be chosen as its
  // own victim.
  if (entries_.size() >= capacity_) {
    entries_.erase(lru_.back().first);
    lru_.pop_back();
  }
  lru_.emplace_front(text, *compiled);
  entries_[text] = lru_.begin();
  return *compiled;
}

}  // namespace legion::query
