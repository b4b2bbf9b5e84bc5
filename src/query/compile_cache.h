// An LRU cache of compiled queries keyed by query text.
//
// The Collection's string entry points (QueryCollection and the network
// path behind every scheduler round) historically re-ran
// lexer+parser+planner on each call even though schedulers issue the
// same handful of query strings forever.  A small LRU in front of
// Compile() turns that into a hash lookup.  CompiledQuery is cheap to
// copy (two shared_ptrs and the text), so Get() hands out copies.
#pragma once

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <utility>

#include "base/result.h"
#include "query/query.h"

namespace legion::query {

class CompileCache {
 public:
  // capacity 0 disables caching entirely: every Get() compiles, nothing
  // is retained, size() stays 0.
  explicit CompileCache(std::size_t capacity = 128) : capacity_(capacity) {}

  // Compile-through lookup.  On success `*hit` (when given) reports
  // whether the query was served from cache.  Failed compiles are not
  // cached: they are rare and the error message must stay fresh.
  Result<CompiledQuery> Get(const std::string& text, bool* hit = nullptr);

  std::size_t size() const { return entries_.size(); }
  std::size_t capacity() const { return capacity_; }

 private:
  using LruList = std::list<std::pair<std::string, CompiledQuery>>;

  std::size_t capacity_;
  LruList lru_;  // front = most recently used
  std::unordered_map<std::string, LruList::iterator> entries_;
};

}  // namespace legion::query
