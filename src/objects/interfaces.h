// Abstract interfaces between the core objects.
//
// The RMI talks to resources strictly through the interfaces the paper
// publishes: the Host resource-management interface of Table 1, the Vault
// storage interface, and the Class object's create_instance()/
// implementation-query methods.  Keeping them abstract here (a) mirrors the
// paper's "others are free to substitute their own modules" philosophy and
// (b) breaks the dependency cycle between the object model and the
// resource implementations.
//
// All methods are asynchronous: they take a completion callback, and
// callers route invocations through SimKernel::AsyncCall so that every
// interaction pays (simulated) network latency and can time out -- the
// negotiation failures the paper says Legion objects must accommodate.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/attributes.h"
#include "base/loid.h"
#include "base/result.h"
#include "base/sim_time.h"
#include "base/token.h"
#include "sim/kernel.h"

namespace legion {

class LegionObject;

// Creates the in-simulation object for a new instance.  Supplied by the
// ClassObject; executed by the Host at StartObject time.
using ObjectFactory = std::function<std::unique_ptr<LegionObject>(
    SimKernel* kernel, const Loid& instance_loid)>;

// ---- Reservation negotiation (paper section 3.1) -------------------------

// What the Enactor asks of a Host when it wants a reservation.
struct ReservationRequest {
  Loid vault;                  // execution vault the host must verify
  SimTime start;               // reservation window start
  Duration duration;           // window length
  Duration confirm_timeout;    // for instantaneous reservations
  ReservationType type;        // share/reuse bits (Table 2)
  Loid requester;              // who is asking; its domain is the
                               // autonomy policy's input
  std::size_t memory_mb = 0;   // capacity the object will need
  double cpu_fraction = 1.0;   // share of one CPU the object will use
};

// ---- Batched reservation negotiation (DESIGN.md §11) ----------------------
//
// The Enactor groups a schedule's mappings by target host and sends one
// ReserveBatch RPC per host instead of one per mapping (the Nimrod/G
// amortization), and releases a schedule's holds the same way, one
// CancelReservationBatch per host.  Slots keep per-mapping granularity:
// each carries the master-schedule index it reserves for, and each gets
// its own outcome.

// One mapping's reservation inside a batch.
struct BatchSlotRequest {
  std::size_t index = 0;  // master-schedule index (round-trips unchanged)
  ReservationRequest request;
};

struct ReservationBatchRequest {
  Loid requester;
  // At-most-once admission id: the Enactor reuses the id when it
  // retransmits the identical batch after a lost reply, and the host
  // replays the recorded reply instead of admitting twice.  0 = no dedup.
  std::uint64_t batch_id = 0;
  // Set on every resend of a batch id.  Purely observability: a flagged
  // retransmission that misses the host's replay cache means a lost
  // request (benign) or an evicted reply (possible double-admit), and
  // the host counts it either way.
  bool retransmit = false;
  std::vector<BatchSlotRequest> slots;
};

// Per-slot result.  `token` is meaningful iff `status.ok()`.
struct BatchSlotOutcome {
  std::size_t index = 0;
  Status status = Status::Ok();
  ReservationToken token;
};

// The host answers one outcome per request slot, in slot order, and
// answers a replayed batch id with the same reply; requesters match
// outcomes to slots by position.
struct ReservationBatchReply {
  std::vector<BatchSlotOutcome> outcomes;
};

// ---- Object startup -------------------------------------------------------

struct StartObjectRequest {
  Loid class_loid;
  // LOIDs for the instances to start.  More than one supports "efficient
  // object creation for multiprocessor systems" (paper section 3.1).
  std::vector<Loid> instances;
  // Reservation token; an invalid token means "no reservation" and the
  // host applies its default admission policy.
  ReservationToken token;
  Loid vault;
  std::size_t memory_mb = 0;
  double cpu_fraction = 1.0;
  // Runtime estimate; batch queue systems use it for backfill decisions.
  Duration estimated_runtime = Duration::Minutes(30);
  // Selected implementation as "arch/os"; the host refuses a binary it
  // cannot execute.  Empty = unconstrained.
  std::string implementation;
  // Size of that implementation's binary (for cache transfer costs).
  std::size_t binary_bytes = 1 << 20;
  ObjectFactory factory;
};

// ---- Host Object resource management interface (paper Table 1) -----------

class HostInterface {
 public:
  virtual ~HostInterface() = default;

  // Reservation management.  MakeReservation is the single-request form
  // of MakeReservationBatch: hosts answer it as a one-slot batch with
  // batch id 0, so a resent request is admitted again.  A requester that
  // retries (the Enactor at cap 1) sends its one-slot batch itself, under
  // an id of its own.
  virtual void MakeReservation(const ReservationRequest& request,
                               Callback<ReservationToken> done) = 0;
  // Batched admission: slots are evaluated in slot order within one
  // event-loop turn, each against the state its predecessors left
  // behind -- so N slots in one batch decide exactly as N requests
  // arriving back to back would -- and each is either durably admitted
  // or reported failed in its outcome.
  virtual void MakeReservationBatch(const ReservationBatchRequest& request,
                                    Callback<ReservationBatchReply> done) = 0;
  virtual void CheckReservation(const ReservationToken& token,
                                Callback<bool> done) = 0;
  // CancelReservationBatch is the batched form of CancelReservation: the
  // host runs each token, in order, through the same cancel step and
  // answers how many holds it released.  Releasing a hold also kills any
  // object still running under it.
  virtual void CancelReservation(const ReservationToken& token,
                                 Callback<bool> done) = 0;
  virtual void CancelReservationBatch(
      const std::vector<ReservationToken>& tokens,
      Callback<std::size_t> done) = 0;

  // Process (object) management.
  virtual void StartObject(const StartObjectRequest& request,
                           Callback<std::vector<Loid>> done) = 0;
  virtual void KillObject(const Loid& object, Callback<bool> done) = 0;
  virtual void DeactivateObject(const Loid& object, Callback<bool> done) = 0;

  // Information reporting.
  virtual void GetCompatibleVaults(Callback<std::vector<Loid>> done) = 0;
  virtual void VaultOk(const Loid& vault, Callback<bool> done) = 0;
};

// ---- Vault Object interface ----------------------------------------------

struct Opr;

class VaultInterface {
 public:
  virtual ~VaultInterface() = default;

  virtual void StoreOpr(const Opr& opr, Callback<bool> done) = 0;
  virtual void FetchOpr(const Loid& object, Callback<Opr> done) = 0;
  virtual void DeleteOpr(const Loid& object, Callback<bool> done) = 0;

  // Compatibility probe used by Host::vault_OK(): can objects built for
  // `arch`, running in `domain`, keep their OPRs here?
  virtual void Probe(std::uint32_t domain, const std::string& arch,
                     Callback<bool> done) = 0;
};

// ---- Class Object interface (paper section 2.1 / 3.4) ---------------------

// One buildable implementation of a class.
struct Implementation {
  std::string arch;       // e.g. "x86", "sparc", "alpha"
  std::string os_name;    // e.g. "Linux", "IRIX", "Solaris"
  std::size_t memory_mb = 32;
  std::size_t binary_bytes = 1 << 20;
};

// A directed placement handed to create_instance(); carries the
// reservation token obtained by the Enactor and, optionally, the
// selected implementation ("arch/os", empty = whatever fits the host).
struct PlacementSuggestion {
  Loid host;
  Loid vault;
  ReservationToken token;
  std::string implementation;
};

class ClassInterface {
 public:
  virtual ~ClassInterface() = default;

  // create_instance(): places one instance.  With a suggestion, the class
  // validates it against local policy and performs directed placement;
  // without, it makes the paper's "quick (and almost certainly
  // non-optimal)" default decision.
  virtual void CreateInstance(std::optional<PlacementSuggestion> suggestion,
                              Callback<Loid> done) = 0;

  // Schedulers "query the class for available implementations" (Fig 7).
  virtual void GetImplementations(Callback<std::vector<Implementation>> done) = 0;

  // Resource requirements the scheduler may ask about (section 3.3).
  virtual void GetResourceRequirements(Callback<AttributeDatabase> done) = 0;
};

// ---- Implementation caches (paper section 2, service objects) ------------

// Served by implementation-cache service objects: makes the binary for
// (class, "arch/os") locally available before a host activates it.
class BinaryProvider {
 public:
  virtual ~BinaryProvider() = default;
  virtual void EnsureBinary(const Loid& class_loid,
                            const std::string& impl_key,
                            std::size_t binary_bytes, Callback<bool> done) = 0;
};

// ---- Collection push interface (paper section 3.2, figure 4) -------------

// The slice of the Collection interface that resources need in order to
// *push* descriptive data: join with initial attributes, update the
// record, and leave.  The full Collection (queries, pull, authentication)
// lives in the core RMI; resources only see this sink.
class CollectionSink {
 public:
  virtual ~CollectionSink() = default;

  virtual void JoinCollection(const Loid& joiner,
                              const AttributeDatabase& attributes,
                              Callback<bool> done) = 0;
  virtual void UpdateCollectionEntry(const Loid& member,
                                     const AttributeDatabase& attributes,
                                     Callback<bool> done) = 0;
  virtual void LeaveCollection(const Loid& leaver, Callback<bool> done) = 0;
};

// ---- Typed remote invocation helper ---------------------------------------

// Routes a method call on a remote interface through the kernel: resolves
// the target LOID at delivery time, downcasts to the expected interface,
// and invokes.  Unknown or wrong-typed targets complete with kUnavailable.
// `op` names the call in traces (static string).
template <typename T, typename Iface>
void CallOn(SimKernel* kernel, const Loid& from, const Loid& to,
            std::size_t request_bytes, std::size_t reply_bytes,
            Duration timeout,
            std::function<void(Iface&, Callback<T>)> method,
            Callback<T> done, const char* op = "rpc") {
  kernel->AsyncCall<T>(
      from, to, request_bytes, reply_bytes, timeout,
      [kernel, to, method = std::move(method)](Callback<T> reply) {
        auto* actor = kernel->FindActor(to);
        auto* iface = dynamic_cast<Iface*>(actor);
        if (iface == nullptr) {
          reply(Status::Error(ErrorCode::kUnavailable,
                              "no such object: " + to.ToString()));
          return;
        }
        method(*iface, std::move(reply));
      },
      std::move(done), op);
}

// Nominal message sizes (bytes) used for bandwidth accounting.
inline constexpr std::size_t kSmallMessage = 256;
inline constexpr std::size_t kMediumMessage = 2048;
inline constexpr std::size_t kLargeMessage = 64 * 1024;

// Marginal wire cost of one slot inside a reservation batch (request and
// reply).  A ReserveBatch RPC is size-costed as one kSmallMessage
// envelope plus these per slot, so NetworkModel charges real transfer
// time for big batches while the per-host amortization stays visible.  A
// CancelReservationBatch RPC pays kBatchSlotMessage per token on the way
// out; its reply is one count, a bare kSmallMessage.
inline constexpr std::size_t kBatchSlotMessage = 64;
inline constexpr std::size_t kBatchSlotReplyMessage = 48;

// Default RPC timeout for control-plane calls.
inline constexpr Duration kDefaultRpcTimeout = Duration::Seconds(30);

// Pulls the binary of `class_loid` from the class object: a small request
// out, `binary_bytes` back.  The class only needs to exist to serve it.
// A host without an implementation cache pulls this way on every start,
// and a cache on each miss.
inline void PullBinary(SimKernel* kernel, const Loid& from,
                       const Loid& class_loid, std::size_t binary_bytes,
                       Callback<bool> done) {
  kernel->AsyncCall<bool>(
      from, class_loid, kSmallMessage, binary_bytes, Duration::Minutes(10),
      [kernel, class_loid](Callback<bool> reply) {
        reply(kernel->FindActor(class_loid) != nullptr);
      },
      std::move(done));
}

}  // namespace legion
