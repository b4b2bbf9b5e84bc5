// The Collection (paper section 3.2, figure 4).
//
// "The Collection acts as a repository for information describing the
// state of the resources comprising the system.  Each record is stored as
// a set of Legion object attributes. ... Collections provide methods to
// join (with an optional installment of initial descriptive information)
// and update records, thus facilitating a push model for data.  The
// security facilities of Legion authenticate the caller to be sure that
// it is allowed to update the data in the Collection.  As noted earlier,
// Collections may also pull data from resources.  Users, or their agents,
// obtain information about resources by issuing queries to a Collection."
//
// Implemented faithfully to the figure-4 interface (pulling from
// resources is the Data Collection Daemon's job, core/dcd.h), plus the
// paper's planned extension: *function injection* -- users install code
// that computes new description information at query time (exposed
// through the query language's call syntax and the FunctionRegistry).
//
// Query execution (DESIGN.md "The query execution layer"): attribute
// indexes maintained incrementally on join/update/leave answer sargable
// queries in sub-linear time through the planner's index plans; string
// entry points resolve through a compiled-query LRU cache; and callers
// that only consume a bounded prefix (every scheduler) pass QueryOptions
// with an ordering hint and max_results so the Collection never
// materializes thousands of records for a ten-host placement.
//
// Single-threaded like every simulated object: the kernel delivers one
// event at a time, so the record store needs no locks (DESIGN.md §3).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "base/sim_time.h"
#include "core/collection_index.h"
#include "objects/interfaces.h"
#include "objects/legion_object.h"
#include "query/compile_cache.h"
#include "query/query.h"
#include "sim/network.h"

namespace legion {

// One resource-description record.
struct CollectionRecord {
  Loid member;
  AttributeDatabase attributes;
  SimTime updated_at;
  std::uint64_t update_count = 0;
};

using CollectionData = std::vector<CollectionRecord>;

// One journaled membership change in a federated deployment (DESIGN.md
// §10).  Versions are per-sub-Collection and monotonically increasing, so
// the root reconciles late or reordered batches deterministically: a delta
// applies iff its version exceeds the highest version the root has ever
// applied for that member.
struct CollectionDelta {
  enum class Kind : std::uint8_t { kUpsert, kLeave };
  Kind kind = Kind::kUpsert;
  Loid member;
  std::uint64_t version = 0;
  // Post-update attribute snapshot (kUpsert only; empty for kLeave).
  AttributeDatabase attributes;
};

// A push from a sub-Collection to its federation root: the journal
// entries not yet acknowledged, version-ascending.  Empty batches act as
// heartbeats that keep the root's per-domain staleness estimate fresh.
struct DeltaBatch {
  Loid source;  // the sub-Collection
  DomainId domain = 0;
  std::vector<CollectionDelta> deltas;
};

// Simulated wire size of a delta batch: a small header plus a
// medium-message record payload per delta (an attribute set serializes
// well within kMediumMessage).
inline std::size_t DeltaBatchBytes(const DeltaBatch& batch) {
  return kSmallMessage + batch.deltas.size() * kMediumMessage;
}

// Per-query execution options.  Defaults reproduce the classic
// semantics: every match, ordered by member LOID.
struct QueryOptions {
  // Keep only the first `max_results` records of the result order
  // (0 = unlimited).  Schedulers placing k instances pass a bounded
  // candidate pool instead of materializing every match.
  std::size_t max_results = 0;
  // Order results by this stored numeric attribute instead of by member
  // LOID (ties and records without a numeric value sort last, by
  // member, so the order stays total and deterministic).  Empty = member
  // order.  Derived (injected-function) attributes are not orderable:
  // they materialize after pruning.
  std::string order_by;
  // Bypass the index path and evaluate by full scan.  For the
  // scan-vs-index ablation and the planner-equivalence tests; results
  // are identical by contract.
  bool force_scan = false;
  // Restrict matches to members homed in this network domain (-1 = no
  // restriction).  A federated deployment routes domain-scoped queries
  // straight to the owning sub-Collection; the filter applies on any
  // Collection so flat and federated answers agree.
  std::int64_t domain_scope = -1;
  // Bounded staleness (QueryCollection on a federation root only): if the
  // newest delta batch from an in-scope domain is older than this, the
  // root pulls that sub's pending deltas before answering.  Infinite
  // (the default) answers from whatever has already arrived.
  Duration max_staleness = Duration::Infinite();
};

class CollectionObject : public LegionObject, public CollectionSink {
 public:
  CollectionObject(SimKernel* kernel, Loid loid);

  // ---- Figure 4 interface -------------------------------------------------
  // int JoinCollection(LOID joiner);
  void JoinCollection(const Loid& joiner, Callback<bool> done);
  // int JoinCollection(LOID joiner, LinkedList<Uval> ObjAttribute);
  void JoinCollection(const Loid& joiner, const AttributeDatabase& attributes,
                      Callback<bool> done) override;
  // int LeaveCollection(LegionLOID leaver);
  void LeaveCollection(const Loid& leaver, Callback<bool> done) override;
  // int QueryCollection(String Query, &CollectionData result);
  void QueryCollection(const std::string& query_text,
                       Callback<CollectionData> done);
  void QueryCollection(const std::string& query_text,
                       const QueryOptions& options,
                       Callback<CollectionData> done);
  // int UpdateCollectionEntry(LOID member, LinkedList<Uval> ObjAttribute);
  void UpdateCollectionEntry(const Loid& member,
                             const AttributeDatabase& attributes,
                             Callback<bool> done) override;

  // Authenticated third-party update (the Data Collection Daemon path).
  void UpdateEntryAs(const Loid& caller, const Loid& member,
                     const AttributeDatabase& attributes, Callback<bool> done);

  // ---- Local (in-process) query paths ---------------------------------------
  // Synchronous evaluation against the current store.  The string form
  // resolves through the compiled-query cache.
  Result<CollectionData> QueryLocal(const std::string& query_text,
                                    const QueryOptions& options = {}) const;
  Result<CollectionData> QueryLocal(const query::CompiledQuery& query,
                                    const QueryOptions& options = {}) const;

  // ---- Federation (DESIGN.md §10) -------------------------------------------
  // Makes this Collection a sub-Collection feeding `parent`: every
  // membership change is journaled and the journal is pushed as a
  // versioned delta batch each `push_period` (empty batches act as
  // heartbeats).  Unacknowledged entries stay journaled and retransmit
  // next period; the root's version check makes retransmission idempotent.
  // Records already stored are journaled as a full snapshot so the root
  // converges without waiting for organic updates.
  void SetParent(const Loid& parent, Duration push_period);
  // Enrolls `sub` as the aggregating child for `domain` on this root.
  // Batches from sources that are not enrolled children are refused when
  // authentication is on (the figure-4 security step, federated).
  void AddChild(DomainId domain, const Loid& sub);
  // Applies a delta batch at the root; replies with the highest version
  // seen in the batch so the sub can prune its journal.  At-least-once
  // pushes plus the per-member version check give exactly-once effect.
  void ApplyDeltaBatch(const DeltaBatch& batch, Callback<std::uint64_t> done);
  // Snapshot of the unacknowledged journal (does not prune; the next
  // acknowledged push does).  The root's refresh-pull target.
  DeltaBatch PendingDeltas() const;

  // ---- Administration ---------------------------------------------------------
  void AddTrustedUpdater(const Loid& agent);
  query::FunctionRegistry& functions() { return functions_; }
  const query::FunctionRegistry& functions() const { return functions_; }

  std::size_t record_count() const { return records_.size(); }
  // Mean age (now - updated_at) across records; the staleness metric.
  Duration MeanRecordAge() const;

 private:
  bool Authorized(const Loid& caller, const Loid& member) const;
  void Upsert(const Loid& member, const AttributeDatabase& attributes);
  // Unindexes and drops the member's record and journals its leave;
  // false if there is none.
  bool Erase(const Loid& member);
  // Journals a membership change for the next delta push.
  void JournalDelta(CollectionDelta::Kind kind, const Loid& member,
                    const AttributeDatabase& attributes);
  // Periodic push of the journal to the federation root.
  void FlushDeltas();
  // Bounded-staleness answer path: pulls pending deltas from every
  // in-scope domain whose last batch is older than options.max_staleness,
  // then answers the query.
  void RefreshThenAnswer(const std::string& query_text,
                         const QueryOptions& options,
                         Callback<CollectionData> done);
  // Function injection materialization: every registered zero-argument
  // function is evaluated against the record and "integrated with the
  // already existing description information" (paper 3.2) as a derived
  // attribute named after the function.  Runs once per *emitted* record,
  // after top-k pruning -- never per scanned candidate.
  void MaterializeDerived(CollectionRecord& record) const;
  // Applies ordering / top-k pruning to the matched records and copies
  // the survivors out (materializing derived attributes); each copy
  // shares the stored record's attribute map.  `matched` must be sorted
  // by member.
  CollectionData EmitResults(std::vector<const CollectionRecord*>& matched,
                             const QueryOptions& options) const;

  // Registry cells ({component=collection}), shared by every Collection
  // of the kernel.
  struct Cells {
    obs::Counter* queries_served;
    obs::Counter* updates_applied;
    obs::Counter* updates_rejected;
    // Query-engine counters: queries answered from the attribute
    // indexes, queries that fell back to the full scan, and
    // compiled-query cache traffic on the string entry points.
    obs::Counter* index_hits;
    obs::Counter* planner_fallbacks;
    obs::Counter* compile_cache_hits;
    obs::Counter* compile_cache_misses;
    // Wall-clock evaluation cost of each local query (not simulated
    // time; feeds the perf trajectory, not determinism).
    obs::Histogram* query_wall_us;
    // Mean record age observed at each network query -- the staleness
    // the schedulers actually acted on.
    obs::Histogram* staleness_ms;
    // Federation counters: delta batches pushed (incl. heartbeats),
    // delta records pushed (incl. retransmits), global answers served
    // while an in-scope domain stayed stale after a failed refresh, and
    // refresh pulls issued by the bounded-staleness path.
    obs::Counter* delta_pushes;
    obs::Counter* delta_records;
    obs::Counter* stale_answers;
    obs::Counter* refresh_pulls;
  };

  std::unordered_map<Loid, CollectionRecord> records_;
  AttributeIndexes indexes_;
  std::unordered_set<Loid> trusted_;
  query::FunctionRegistry functions_;
  mutable query::CompileCache compile_cache_;
  Cells cells_;

  // ---- Federation state -----------------------------------------------------
  // Sub side.  The journal coalesces per member (latest change wins) and
  // iterates in member order, so batches are deterministic.
  Loid parent_;
  Duration push_period_ = Duration::Zero();
  SimKernel::PeriodicId push_timer_ = 0;
  std::uint64_t next_delta_version_ = 0;
  std::map<Loid, CollectionDelta> journal_;
  // Root side.  applied_versions_ keeps an entry per member ever seen --
  // including departed ones -- so a late upsert with an older version
  // cannot resurrect a record a newer leave removed.
  struct ChildState {
    Loid sub;
    SimTime last_delta_at;
  };
  std::map<DomainId, ChildState> children_;
  std::unordered_map<Loid, std::uint64_t> applied_versions_;
};

}  // namespace legion
