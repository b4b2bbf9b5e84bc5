#include "core/collection.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "objects/core_hierarchy.h"

namespace legion {

CollectionObject::CollectionObject(SimKernel* kernel, Loid loid)
    : LegionObject(kernel, loid, CollectionClassLoid(loid.domain())) {
  kernel->network().RegisterEndpoint(loid, loid.domain());
  (void)Activate(loid, Loid());
  mutable_attributes().Set("service", "collection");

  obs::MetricsRegistry& metrics = kernel->metrics();
  const obs::Labels labels = {{"component", "collection"}};
  cells_.queries_served = metrics.GetCounter("queries_served", labels);
  cells_.updates_applied = metrics.GetCounter("updates_applied", labels);
  cells_.updates_rejected = metrics.GetCounter("updates_rejected", labels);
  cells_.index_hits = metrics.GetCounter("index_hits", labels);
  cells_.planner_fallbacks = metrics.GetCounter("planner_fallbacks", labels);
  cells_.compile_cache_hits =
      metrics.GetCounter("compile_cache_hits", labels);
  cells_.compile_cache_misses =
      metrics.GetCounter("compile_cache_misses", labels);
  cells_.query_wall_us =
      metrics.GetHistogram("collection_query_wall_us", labels,
                           {1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1e3, 5e3, 1e4,
                            5e4, 1e5, 1e6});
  cells_.staleness_ms = metrics.GetHistogram(
      "collection_staleness_ms", labels,
      {1.0, 10.0, 100.0, 1e3, 5e3, 1e4, 3e4, 6e4, 3e5, 6e5, 3.6e6});
  cells_.delta_pushes = metrics.GetCounter("delta_pushes", labels);
  cells_.delta_records = metrics.GetCounter("delta_records", labels);
  cells_.stale_answers = metrics.GetCounter("stale_answers", labels);
  cells_.refresh_pulls = metrics.GetCounter("refresh_pulls", labels);
}

bool CollectionObject::Authorized(const Loid& caller,
                                  const Loid& member) const {
  if (caller == member) return true;  // a resource may describe itself
  return trusted_.count(caller) != 0;
}

void CollectionObject::Upsert(const Loid& member,
                              const AttributeDatabase& attributes) {
  CollectionRecord& record = records_[member];
  // The copy shares the push's array; setting "member" clones it once.
  // Every record self-identifies so injected functions can key external
  // state (e.g. load history) by member.
  AttributeDatabase next = attributes;
  next.Set("member", member.ToString());
  indexes_.Update(member, record.attributes, next);
  record.attributes = std::move(next);
  record.member = member;
  record.updated_at = kernel()->Now();
  ++record.update_count;
  cells_.updates_applied->Add();
  JournalDelta(CollectionDelta::Kind::kUpsert, member, record.attributes);
}

void CollectionObject::JournalDelta(CollectionDelta::Kind kind,
                                    const Loid& member,
                                    const AttributeDatabase& attributes) {
  if (!parent_.valid()) return;
  CollectionDelta& delta = journal_[member];
  delta.kind = kind;
  delta.member = member;
  delta.version = ++next_delta_version_;
  delta.attributes =
      kind == CollectionDelta::Kind::kUpsert ? attributes : AttributeDatabase{};
}

void CollectionObject::JoinCollection(const Loid& joiner, Callback<bool> done) {
  // Join without an installment of initial description: an empty record
  // that a later update or pull will fill.
  Upsert(joiner, AttributeDatabase{});
  done(true);
}

void CollectionObject::JoinCollection(const Loid& joiner,
                                      const AttributeDatabase& attributes,
                                      Callback<bool> done) {
  Upsert(joiner, attributes);
  done(true);
}

bool CollectionObject::Erase(const Loid& member) {
  auto it = records_.find(member);
  if (it == records_.end()) return false;
  indexes_.Remove(member, it->second.attributes);
  records_.erase(it);
  JournalDelta(CollectionDelta::Kind::kLeave, member, AttributeDatabase{});
  return true;
}

void CollectionObject::LeaveCollection(const Loid& leaver,
                                       Callback<bool> done) {
  done(Erase(leaver));
}

void CollectionObject::UpdateCollectionEntry(const Loid& member,
                                             const AttributeDatabase& attributes,
                                             Callback<bool> done) {
  // The CollectionSink path is the member describing itself.
  UpdateEntryAs(member, member, attributes, std::move(done));
}

void CollectionObject::UpdateEntryAs(const Loid& caller, const Loid& member,
                                     const AttributeDatabase& attributes,
                                     Callback<bool> done) {
  if (!Authorized(caller, member)) {
    cells_.updates_rejected->Add();
    done(Status::Error(ErrorCode::kRefused,
                       caller.ToString() + " may not update " +
                           member.ToString()));
    return;
  }
  Upsert(member, attributes);
  done(true);
}

void CollectionObject::QueryCollection(const std::string& query_text,
                                       Callback<CollectionData> done) {
  QueryCollection(query_text, QueryOptions{}, std::move(done));
}

void CollectionObject::QueryCollection(const std::string& query_text,
                                       const QueryOptions& options,
                                       Callback<CollectionData> done) {
  // Staleness the caller is about to act on (simulated age of records).
  cells_.staleness_ms->Observe(MeanRecordAge().millis());
  if (!children_.empty() && options.max_staleness < Duration::Infinite()) {
    RefreshThenAnswer(query_text, options, std::move(done));
    return;
  }
  auto result = QueryLocal(query_text, options);
  if (!result) {
    done(result.status());
    return;
  }
  done(std::move(*result));
}

void CollectionObject::RefreshThenAnswer(const std::string& query_text,
                                         const QueryOptions& options,
                                         Callback<CollectionData> done) {
  const SimTime now = kernel()->Now();
  std::vector<ChildState*> stale;
  for (auto& [domain, child] : children_) {
    if (options.domain_scope >= 0 &&
        domain != static_cast<DomainId>(options.domain_scope)) {
      continue;
    }
    if (now - child.last_delta_at > options.max_staleness) {
      stale.push_back(&child);
    }
  }
  auto answer = [this, query_text, options,
                 done = std::move(done)](bool any_stale) {
    if (any_stale) cells_.stale_answers->Add();
    auto result = QueryLocal(query_text, options);
    if (!result) {
      done(result.status());
      return;
    }
    done(std::move(*result));
  };
  if (stale.empty()) {
    answer(false);
    return;
  }
  cells_.refresh_pulls->Add(stale.size());
  struct RefreshState {
    std::size_t outstanding;
    bool any_failed = false;
    std::function<void(bool)> answer;
  };
  auto state = std::make_shared<RefreshState>();
  state->outstanding = stale.size();
  state->answer = std::move(answer);
  for (ChildState* child : stale) {
    CallOn<DeltaBatch, CollectionObject>(
        kernel(), loid(), child->sub, kSmallMessage, kLargeMessage,
        Duration::Seconds(5),
        [](CollectionObject& sub, Callback<DeltaBatch> reply) {
          reply(sub.PendingDeltas());
        },
        [this, state](Result<DeltaBatch> batch) {
          if (batch.ok()) {
            ApplyDeltaBatch(*batch, [](Result<std::uint64_t>) {});
          } else {
            state->any_failed = true;
          }
          if (--state->outstanding == 0) state->answer(state->any_failed);
        },
        "refresh_pull");
  }
}

Result<CollectionData> CollectionObject::QueryLocal(
    const std::string& query_text, const QueryOptions& options) const {
  bool hit = false;
  auto compiled = compile_cache_.Get(query_text, &hit);
  (hit ? cells_.compile_cache_hits : cells_.compile_cache_misses)->Add();
  if (!compiled) return compiled.status();
  return QueryLocal(*compiled, options);
}

void CollectionObject::MaterializeDerived(CollectionRecord& record) const {
  functions_.ForEach([&record](const std::string& name,
                               const query::FunctionRegistry::Fn& fn) {
    record.attributes.Set(name, fn(record.attributes, {}));
  });
}

CollectionData CollectionObject::EmitResults(
    std::vector<const CollectionRecord*>& matched,
    const QueryOptions& options) const {
  if (!options.order_by.empty()) {
    // Rank by the stored attribute: numeric keys first, ascending, then
    // records without one, both tiers member-ordered so the result order
    // is total and deterministic.
    struct Keyed {
      int missing;
      double key;
      const CollectionRecord* record;
    };
    std::vector<Keyed> keyed;
    keyed.reserve(matched.size());
    for (const CollectionRecord* record : matched) {
      const AttrValue* value = record->attributes.Get(options.order_by);
      const bool numeric = value != nullptr && value->is_numeric() &&
                           !std::isnan(value->as_double());
      keyed.push_back(Keyed{numeric ? 0 : 1,
                            numeric ? value->as_double() : 0.0, record});
    }
    auto before = [](const Keyed& a, const Keyed& b) {
      if (a.missing != b.missing) return a.missing < b.missing;
      if (a.key != b.key) return a.key < b.key;
      return a.record->member < b.record->member;
    };
    if (options.max_results != 0 && options.max_results < keyed.size()) {
      // Top-k selection: never fully sort a thousand matches to hand the
      // scheduler its ten best.
      std::partial_sort(keyed.begin(), keyed.begin() + options.max_results,
                        keyed.end(), before);
      keyed.resize(options.max_results);
    } else {
      std::sort(keyed.begin(), keyed.end(), before);
    }
    matched.clear();
    for (const Keyed& k : keyed) matched.push_back(k.record);
  } else if (options.max_results != 0 && options.max_results < matched.size()) {
    matched.resize(options.max_results);
  }

  CollectionData out;
  out.reserve(matched.size());
  for (const CollectionRecord* record : matched) {
    out.push_back(*record);
    MaterializeDerived(out.back());
  }
  return out;
}

Result<CollectionData> CollectionObject::QueryLocal(
    const query::CompiledQuery& query, const QueryOptions& options) const {
  cells_.queries_served->Add();
  // Wall cost is measured through the kernel's WallClock, which is pinned
  // by default -- the histogram stays deterministic unless a bench opts
  // into real time.
  const obs::WallClock& wall = kernel()->wallclock();
  const std::int64_t wall_start = wall.Micros();

  const bool scoped = options.domain_scope >= 0;
  const auto scope = static_cast<DomainId>(scoped ? options.domain_scope : 0);
  std::vector<const CollectionRecord*> matched;
  bool used_index = false;
  const query::IndexPlan* plan = query.plan();
  if (plan != nullptr && !options.force_scan && !records_.empty()) {
    // An inexact index path that would visit most of the store gathers,
    // sorts and re-checks more than the scan it replaces; gate it on a
    // capped estimate.  An exact plan has no residual pass to save, so
    // it always takes the index path.
    const std::size_t limit = records_.size() - records_.size() / 4;
    if (plan->exact || indexes_.Estimate(*plan, limit) <= limit) {
      used_index = true;
      AttributeIndexes::Candidates candidates = indexes_.Eval(*plan);
      matched.reserve(candidates.members.size());
      // Candidates come member-ordered, so in the default order the
      // query can stop at max_results matches -- true early termination.
      const bool member_order = options.order_by.empty();
      for (const Loid& member : candidates.members) {
        if (scoped && member.domain() != scope) continue;
        auto it = records_.find(member);
        if (it == records_.end()) continue;
        if (candidates.exact ||
            query.Matches(it->second.attributes, &functions_)) {
          matched.push_back(&it->second);
          if (member_order && options.max_results != 0 &&
              matched.size() == options.max_results) {
            break;
          }
        }
      }
    }
  }
  if (used_index) {
    cells_.index_hits->Add();
  } else {
    cells_.planner_fallbacks->Add();
    matched.reserve(records_.size() / 4);
    for (const auto& [member, record] : records_) {
      if (scoped && member.domain() != scope) continue;
      if (query.Matches(record.attributes, &functions_)) {
        matched.push_back(&record);
      }
    }
    // Deterministic output order regardless of hash-map iteration.
    std::sort(matched.begin(), matched.end(),
              [](const CollectionRecord* a, const CollectionRecord* b) {
                return a->member < b->member;
              });
  }

  CollectionData out = EmitResults(matched, options);
  cells_.query_wall_us->Observe(
      static_cast<double>(wall.Micros() - wall_start));
  return out;
}

// ---- Federation (DESIGN.md §10) ---------------------------------------------

void CollectionObject::SetParent(const Loid& parent, Duration push_period) {
  parent_ = parent;
  push_period_ = push_period;
  if (push_timer_ != 0) kernel()->CancelPeriodic(push_timer_);
  push_timer_ =
      kernel()->SchedulePeriodic(push_period, [this] { FlushDeltas(); });
  // Records stored before the parent link predate the journal: snapshot
  // them so the root converges without waiting for organic updates.
  for (const auto& [member, record] : records_) {
    JournalDelta(CollectionDelta::Kind::kUpsert, member, record.attributes);
  }
}

void CollectionObject::AddChild(DomainId domain, const Loid& sub) {
  children_[domain] = ChildState{sub, kernel()->Now()};
}

DeltaBatch CollectionObject::PendingDeltas() const {
  DeltaBatch batch;
  batch.source = loid();
  batch.domain = loid().domain();
  batch.deltas.reserve(journal_.size());
  for (const auto& [member, delta] : journal_) {
    batch.deltas.push_back(delta);
  }
  // Version order reflects the causal order of the coalesced changes.
  std::sort(batch.deltas.begin(), batch.deltas.end(),
            [](const CollectionDelta& a, const CollectionDelta& b) {
              return a.version < b.version;
            });
  return batch;
}

void CollectionObject::FlushDeltas() {
  if (!parent_.valid()) return;
  DeltaBatch batch = PendingDeltas();
  cells_.delta_pushes->Add();
  cells_.delta_records->Add(batch.deltas.size());
  // The push must resolve (deliver or time out) before the next period
  // fires, or unacked journals would pile up in flight.
  const Duration timeout = std::max(
      Duration::Seconds(1), push_period_ - Duration::Millis(1));
  // Hoisted: the method lambda moves `batch`, and argument evaluation
  // order is unspecified.
  const std::size_t batch_bytes = DeltaBatchBytes(batch);
  CallOn<std::uint64_t, CollectionObject>(
      kernel(), loid(), parent_, batch_bytes, kSmallMessage, timeout,
      [batch = std::move(batch)](CollectionObject& root,
                                 Callback<std::uint64_t> reply) {
        root.ApplyDeltaBatch(batch, std::move(reply));
      },
      [this](Result<std::uint64_t> acked) {
        // Lost or refused pushes leave the journal intact: the whole
        // backlog retransmits next period and the root's version check
        // dedupes whatever had in fact arrived.
        if (!acked.ok()) return;
        for (auto it = journal_.begin(); it != journal_.end();) {
          if (it->second.version <= *acked) {
            it = journal_.erase(it);
          } else {
            ++it;
          }
        }
      },
      "delta_push");
}

void CollectionObject::ApplyDeltaBatch(const DeltaBatch& batch,
                                       Callback<std::uint64_t> done) {
  auto child = children_.find(batch.domain);
  const bool enrolled =
      child != children_.end() && child->second.sub == batch.source;
  if (!enrolled) {
    cells_.updates_rejected->Add();
    done(Status::Error(ErrorCode::kRefused,
                       batch.source.ToString() +
                           " is not an enrolled sub-Collection"));
    return;
  }
  child->second.last_delta_at = kernel()->Now();
  std::uint64_t high = 0;
  for (const CollectionDelta& delta : batch.deltas) {
    high = std::max(high, delta.version);
    std::uint64_t& applied = applied_versions_[delta.member];
    // Late or retransmitted delta: a newer change already applied.
    if (delta.version <= applied) continue;
    applied = delta.version;
    if (delta.kind == CollectionDelta::Kind::kUpsert) {
      Upsert(delta.member, delta.attributes);
    } else {
      Erase(delta.member);
    }
  }
  done(high);
}

void CollectionObject::AddTrustedUpdater(const Loid& agent) {
  trusted_.insert(agent);
}

Duration CollectionObject::MeanRecordAge() const {
  if (records_.empty()) return Duration::Zero();
  std::int64_t total = 0;
  const SimTime now = kernel()->Now();
  for (const auto& [member, record] : records_) {
    total += (now - record.updated_at).micros();
  }
  return Duration(total / static_cast<std::int64_t>(records_.size()));
}

}  // namespace legion
