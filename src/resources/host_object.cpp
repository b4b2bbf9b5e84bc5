#include "resources/host_object.h"

#include <algorithm>
#include <cmath>

namespace legion {

namespace {
// Well-known serial for the HostClass core object (figure 1).
constexpr std::uint64_t kHostClassSerial = 2;
}  // namespace

HostObject::HostObject(SimKernel* kernel, Loid loid, HostSpec spec,
                       std::uint64_t secret_seed)
    : LegionObject(kernel, loid,
                   Loid(LoidSpace::kClass, spec.domain, kHostClassSerial)),
      spec_(std::move(spec)),
      authority_(secret_seed),
      table_(HostCapacity{spec_.cpus, spec_.memory_mb, spec_.oversubscription}),
      policy_(std::make_unique<AcceptAllPolicy>()),
      load_model_(spec_.load, Rng(secret_seed ^ 0x5bd1e995u)) {
  kernel->network().RegisterEndpoint(loid, spec_.domain);
  // Hosts are standing infrastructure: born active on themselves.
  (void)Activate(loid, Loid());
  RepopulateAttributes();
}

// ---- Reservation management -------------------------------------------------

void HostObject::MakeReservation(const ReservationRequest& request,
                                 Callback<ReservationToken> done) {
  // A single request is a one-slot batch without a dedup id, so both
  // entry points share one admission ladder (DESIGN.md §11).
  ReservationBatchRequest batch;
  batch.requester = request.requester;
  batch.slots.push_back(BatchSlotRequest{0, request});
  MakeReservationBatch(
      batch, [done = std::move(done)](Result<ReservationBatchReply> reply) {
        if (!reply.ok()) {
          done(reply.status());
          return;
        }
        const BatchSlotOutcome& outcome = reply->outcomes.front();
        if (outcome.status.ok()) {
          done(outcome.token);
        } else {
          done(outcome.status);
        }
      });
}

void HostObject::MakeReservationBatch(const ReservationBatchRequest& request,
                                      Callback<ReservationBatchReply> done) {
  const SimTime now = kernel()->Now();
  auto batch = std::make_shared<PendingBatch>();
  // At-most-once admission: a batch whose reply was lost comes back under
  // the same id.  It gets the recorded reply if the original finished, or
  // joins the original if that still waits on a vault probe -- never a
  // second admission.
  if (request.batch_id != 0) {
    batch->dedup_key =
        request.requester.ToString() + "#" + std::to_string(request.batch_id);
    EvictStaleBatchReplies(now);
    auto cached = completed_batches_.find(batch->dedup_key);
    if (cached != completed_batches_.end()) {
      ++batch_replay_hits_;
      done(cached->second);
      return;
    }
    auto in_flight = pending_batches_.find(batch->dedup_key);
    if (in_flight != pending_batches_.end()) {
      ++batch_replay_hits_;
      in_flight->second->waiters.push_back(std::move(done));
      return;
    }
    // A flagged retransmission that misses the cache re-admits blind:
    // either the original request never arrived (benign) or its reply
    // aged out of the cache (a possible double-admit).  Count it so the
    // failure mode is observable instead of silent.
    if (request.retransmit) ++batch_replay_misses_;
  }

  batch->request = request;
  batch->waiters.push_back(std::move(done));
  batch->outcomes.resize(request.slots.size());
  batch->admissible.assign(request.slots.size(), false);

  // Per-slot screening: local policy first (the autonomy guarantee), then
  // vault validity, then vault reachability.  "When asked for a
  // reservation, the Host is responsible for ensuring that the vault is
  // reachable" (paper 3.1): vaults on the compatibility list are known
  // reachable; any other vault is probed live (one vault_OK per distinct
  // vault) before anything is admitted.  The machine-specific veto
  // (PreAdmitSlot) is deliberately NOT screened here: it runs inside
  // FinishBatch, per slot, interleaved with admission, so it sees
  // predecessors' grants.
  std::unordered_map<Loid, std::vector<std::size_t>> probe_slots;
  for (std::size_t i = 0; i < request.slots.size(); ++i) {
    const ReservationRequest& slot = request.slots[i].request;
    batch->outcomes[i].index = request.slots[i].index;
    Status permit = policy_->Permit(slot, attributes(), now);
    if (!permit.ok()) {
      batch->outcomes[i].status = permit;
      continue;
    }
    if (!slot.vault.valid()) {
      batch->outcomes[i].status = Status::Error(
          ErrorCode::kInvalidArgument, "reservation request names no vault");
      continue;
    }
    const bool known_reachable =
        std::find(compatible_vaults_.begin(), compatible_vaults_.end(),
                  slot.vault) != compatible_vaults_.end();
    if (known_reachable) {
      batch->admissible[i] = true;
    } else {
      probe_slots[slot.vault].push_back(i);
    }
  }

  if (probe_slots.empty()) {
    FinishBatch(batch);
    return;
  }
  if (request.batch_id != 0) pending_batches_.emplace(batch->dedup_key, batch);
  batch->pending_probes = probe_slots.size();
  for (auto& [vault, indices] : probe_slots) {
    VaultOk(vault, [this, batch, indices = indices](Result<bool> ok) {
      const bool reachable = ok.ok() && *ok;
      for (std::size_t i : indices) {
        if (reachable) {
          batch->admissible[i] = true;
        } else {
          batch->outcomes[i].status = Status::Error(
              ErrorCode::kRefused, "vault not reachable from this host");
        }
      }
      if (--batch->pending_probes == 0) FinishBatch(batch);
    });
  }
}

void HostObject::FinishBatch(const std::shared_ptr<PendingBatch>& batch) {
  const SimTime now = kernel()->Now();
  // Run each admissible slot through veto -> issue -> admit -> grant in
  // slot order (DESIGN.md §11).  The interleaving matters: PreAdmitSlot
  // and OnSlotGranted bracket every admission, so a reservation-aware
  // queue vetoes slot i+1 against slot i's already-registered window, and
  // a single request against every window granted before it -- including
  // windows granted while its own vault probe was in flight.  Two windows
  // that individually fit but jointly exceed the queue's capacity admit
  // one and refuse the other, never both.  A vetoed slot burns no serial;
  // a slot the table rejects burns the serial it was issued.
  for (std::size_t i = 0; i < batch->request.slots.size(); ++i) {
    if (!batch->admissible[i]) continue;
    const ReservationRequest& slot = batch->request.slots[i].request;
    Status veto = PreAdmitSlot(slot, now);
    if (!veto.ok()) {
      batch->outcomes[i].status = veto;
      continue;
    }
    ReservationToken token = authority_.Issue(
        loid(), slot.vault, std::max(slot.start, now), slot.duration,
        slot.confirm_timeout, slot.type);
    Status admitted = table_.Admit(token, slot.requester, slot.memory_mb,
                                   slot.cpu_fraction, now);
    batch->outcomes[i].status = admitted;
    if (admitted.ok()) {
      batch->outcomes[i].token = token;
      OnSlotGranted(token, slot.cpu_fraction);
    }
  }
  ReservationBatchReply reply;
  reply.outcomes = std::move(batch->outcomes);
  if (batch->request.batch_id != 0) {
    RememberBatchReply(batch->dedup_key, reply);
    pending_batches_.erase(batch->dedup_key);
  }
  // The original transmission and every retransmission that joined it in
  // flight get the same reply.
  const std::size_t last = batch->waiters.size() - 1;
  for (std::size_t i = 0; i < last; ++i) batch->waiters[i](reply);
  batch->waiters[last](std::move(reply));
}

void HostObject::RememberBatchReply(const std::string& key,
                                    ReservationBatchReply reply) {
  const SimTime now = kernel()->Now();
  EvictStaleBatchReplies(now);
  if (completed_batches_.count(key) == 0) {
    completed_batch_order_.emplace_back(key, now);
  }
  completed_batches_[key] = std::move(reply);
}

void HostObject::EvictStaleBatchReplies(SimTime now) {
  // Age-bounded, not count-bounded: a retransmission can only arrive
  // within its sender's retry horizon, so anything older than the
  // retention window is safe to drop -- no matter how many requesters
  // are talking to this host in the meantime.
  while (!completed_batch_order_.empty() &&
         now - completed_batch_order_.front().second >
             spec_.batch_replay_retention) {
    completed_batches_.erase(completed_batch_order_.front().first);
    completed_batch_order_.pop_front();
  }
}

void HostObject::CheckReservation(const ReservationToken& token,
                                  Callback<bool> done) {
  if (!authority_.Verify(token)) {
    done(false);
    return;
  }
  done(table_.Check(token, kernel()->Now()));
}

void HostObject::CancelReservation(const ReservationToken& token,
                                   Callback<bool> done) {
  if (!authority_.Verify(token)) {
    done(false);
    return;
  }
  done(table_.Cancel(token, kernel()->Now()));
}

// ---- Process management -----------------------------------------------------

Status HostObject::AdmitWithoutReservation(const StartObjectRequest& request) {
  // Synthesize the reservation-shaped request the policy wants to see.
  ReservationRequest probe;
  probe.vault = request.vault;
  probe.start = kernel()->Now();
  probe.duration = Duration::Hours(1);
  probe.requester = request.class_loid;
  probe.requester_domain = request.class_loid.domain();
  probe.memory_mb = request.memory_mb;
  probe.cpu_fraction = request.cpu_fraction;
  Status permit = policy_->Permit(probe, attributes(), kernel()->Now());
  if (!permit.ok()) return permit;

  const double new_cpu =
      request.cpu_fraction * static_cast<double>(request.instances.size());
  const double cpu_capacity =
      static_cast<double>(spec_.cpus) * spec_.oversubscription;
  if (RunningCpuDemand() + new_cpu > cpu_capacity + 1e-9) {
    return Status::Error(ErrorCode::kNoResources, "CPUs fully committed");
  }
  const std::size_t new_mem = request.memory_mb * request.instances.size();
  if (RunningMemoryDemand() + new_mem > spec_.memory_mb) {
    return Status::Error(ErrorCode::kNoResources, "memory fully committed");
  }
  return Status::Ok();
}

void HostObject::StartObject(const StartObjectRequest& request,
                             Callback<std::vector<Loid>> done) {
  const SimTime now = kernel()->Now();
  if (request.instances.empty()) {
    done(Status::Error(ErrorCode::kInvalidArgument, "no instances requested"));
    return;
  }
  // An explicitly selected implementation must be executable here.
  if (!request.implementation.empty() &&
      request.implementation != spec_.arch + "/" + spec_.os_name) {
    ++starts_refused_;
    done(Status::Error(ErrorCode::kRefused,
                       "implementation '" + request.implementation +
                           "' does not run on " + spec_.arch + "/" +
                           spec_.os_name));
    return;
  }
  std::uint64_t reservation_serial = 0;
  if (request.token.valid()) {
    // The token must be one we issued, unmodified, live, and in-window.
    if (!authority_.Verify(request.token)) {
      ++starts_refused_;
      done(Status::Error(ErrorCode::kInvalidToken,
                         "token not issued by this host"));
      return;
    }
    if (request.vault.valid() && request.vault != request.token.vault) {
      ++starts_refused_;
      done(Status::Error(ErrorCode::kInvalidArgument,
                         "vault differs from the reserved vault"));
      return;
    }
    Status redeemed = table_.Redeem(request.token, now);
    if (!redeemed.ok()) {
      ++starts_refused_;
      done(redeemed);
      return;
    }
    reservation_serial = request.token.serial;
  } else {
    Status admitted = AdmitWithoutReservation(request);
    if (!admitted.ok()) {
      ++starts_refused_;
      done(admitted);
      return;
    }
  }
  LaunchObjects(request, reservation_serial, std::move(done));
}

void HostObject::LaunchObjects(const StartObjectRequest& request,
                               std::uint64_t reservation_serial,
                               Callback<std::vector<Loid>> done) {
  // Fetch the implementation binary before launch.  With a cache wired,
  // only the first (cold) start pays the transfer; without one, every
  // start pulls the binary from the class object -- the performance gap
  // implementation-cache service objects exist to close (paper §2).
  if (!request.implementation.empty()) {
    auto proceed = [this, request, reservation_serial,
                    done = std::move(done)](Result<bool> fetched) mutable {
      if (!fetched.ok() || !*fetched) {
        ++starts_refused_;
        done(Status::Error(ErrorCode::kUnavailable,
                           "implementation binary unavailable"));
        return;
      }
      LaunchPrepared(request, reservation_serial, std::move(done));
    };
    if (impl_cache_.valid()) {
      CallOn<bool, BinaryProvider>(
          kernel(), loid(), impl_cache_, kSmallMessage, kSmallMessage,
          Duration::Minutes(10),
          [request](BinaryProvider& cache, Callback<bool> reply) {
            cache.EnsureBinary(request.class_loid, request.implementation,
                               request.binary_bytes, std::move(reply));
          },
          std::move(proceed));
    } else {
      // Direct pull from the class: the reply carries the whole binary.
      kernel()->AsyncCall<bool>(
          loid(), request.class_loid, kSmallMessage, request.binary_bytes,
          Duration::Minutes(10),
          [kernel = kernel(),
           class_loid = request.class_loid](Callback<bool> reply) {
            reply(kernel->FindActor(class_loid) != nullptr);
          },
          std::move(proceed));
    }
    return;
  }
  LaunchPrepared(request, reservation_serial, std::move(done));
}

void HostObject::LaunchPrepared(const StartObjectRequest& request,
                                std::uint64_t reservation_serial,
                                Callback<std::vector<Loid>> done) {
  auto created = CreateInstanceObjects(request);
  if (!created.ok()) {
    ++starts_refused_;
    done(created.status());
    return;
  }
  const SimTime now = kernel()->Now();
  if (reservation_serial != 0 && request.token.start > now) {
    // The reservation window opens later: acknowledge the placement now
    // and bring the objects up when the window starts.
    std::vector<Loid> instances = *created;
    kernel()->ScheduleAt(request.token.start,
                         [this, request, reservation_serial] {
                           ActivateCreated(request, reservation_serial);
                         });
    done(std::move(instances));
    return;
  }
  ActivateCreated(request, reservation_serial);
  done(std::move(*created));
}

Result<std::vector<Loid>> HostObject::CreateInstanceObjects(
    const StartObjectRequest& request) {
  if (!request.factory) {
    return Status::Error(ErrorCode::kInvalidArgument,
                         "start request carries no object factory");
  }
  std::vector<Loid> created;
  created.reserve(request.instances.size());
  for (const Loid& instance : request.instances) {
    kernel()->AdoptActor(request.factory(kernel(), instance));
    created.push_back(instance);
  }
  return created;
}

void HostObject::ActivateCreated(const StartObjectRequest& request,
                                 std::uint64_t reservation_serial) {
  const Loid vault =
      request.vault.valid() ? request.vault : request.token.vault;
  for (const Loid& instance : request.instances) {
    auto* actor = kernel()->FindActor(instance);
    auto* object = dynamic_cast<LegionObject*>(actor);
    if (object == nullptr) continue;  // killed before the window opened
    Status activated = object->Activate(loid(), vault);
    if (!activated.ok()) continue;
    // The instance remembers its own demand so it can be readmitted
    // after migration or reactivation.
    object->mutable_attributes().Set(
        "memory_mb", static_cast<std::int64_t>(request.memory_mb));
    object->mutable_attributes().Set("cpu_fraction", request.cpu_fraction);
    RunningObject running;
    running.object = instance;
    running.vault = vault;
    running.memory_mb = request.memory_mb;
    running.cpu_fraction = request.cpu_fraction;
    running.started = kernel()->Now();
    running.reservation_serial = reservation_serial;
    running_[instance] = running;
    ++objects_started_;
  }
  RepopulateAttributes();
}

bool HostObject::ReleaseObject(const Loid& object, bool kill) {
  auto it = running_.find(object);
  if (it == running_.end()) return false;
  const RunningObject released = it->second;
  running_.erase(it);
  if (released.reservation_serial != 0) {
    const ReservationRecord* record =
        table_.Find(released.reservation_serial);
    if (record != nullptr) table_.OnJobDone(record->token);
  }
  if (kill) {
    if (auto* actor = kernel()->FindActor(object)) {
      if (auto* legion_object = dynamic_cast<LegionObject*>(actor)) {
        legion_object->MarkDead();
      }
      kernel()->RemoveActor(object);
    }
  }
  OnObjectReleased(released);
  RepopulateAttributes();
  return true;
}

void HostObject::KillObject(const Loid& object, Callback<bool> done) {
  done(ReleaseObject(object, /*kill=*/true));
}

void HostObject::FinishObject(const Loid& object) {
  ReleaseObject(object, /*kill=*/true);
}

void HostObject::DeactivateObject(const Loid& object, Callback<bool> done) {
  auto it = running_.find(object);
  if (it == running_.end()) {
    done(Status::Error(ErrorCode::kNotFound, "object not running here"));
    return;
  }
  auto* actor = kernel()->FindActor(object);
  auto* legion_object = dynamic_cast<LegionObject*>(actor);
  if (legion_object == nullptr) {
    running_.erase(it);
    done(Status::Error(ErrorCode::kInternal, "running object vanished"));
    return;
  }
  const Loid vault = it->second.vault;
  Opr opr = legion_object->SaveState();
  const std::size_t opr_bytes = opr.SizeBytes();
  CallOn<bool, VaultInterface>(
      kernel(), loid(), vault, opr_bytes, kSmallMessage, kDefaultRpcTimeout,
      [opr](VaultInterface& v, Callback<bool> reply) {
        v.StoreOpr(opr, std::move(reply));
      },
      [this, object, done = std::move(done)](Result<bool> stored) {
        if (!stored.ok() || !*stored) {
          done(Status::Error(ErrorCode::kUnavailable,
                             "vault refused the OPR"));
          return;
        }
        auto* actor = kernel()->FindActor(object);
        if (auto* legion_object = dynamic_cast<LegionObject*>(actor)) {
          (void)legion_object->Deactivate();
        }
        ReleaseObject(object, /*kill=*/false);
        done(true);
      });
}

void HostObject::ReactivateObject(const Loid& object, const Loid& vault,
                                  Callback<bool> done) {
  CallOn<Opr, VaultInterface>(
      kernel(), loid(), vault, kSmallMessage, kLargeMessage,
      kDefaultRpcTimeout,
      [object](VaultInterface& v, Callback<Opr> reply) {
        v.FetchOpr(object, std::move(reply));
      },
      [this, object, vault, done = std::move(done)](Result<Opr> opr) {
        if (!opr.ok()) {
          done(opr.status());
          return;
        }
        auto* legion_object =
            dynamic_cast<LegionObject*>(kernel()->FindActor(object));
        if (legion_object == nullptr || legion_object->state() ==
                                            ObjectState::kDead) {
          done(Status::Error(ErrorCode::kUnavailable,
                             "object cannot be reactivated"));
          return;
        }
        Status restored = legion_object->RestoreState(*opr);
        if (!restored.ok()) {
          done(restored);
          return;
        }
        const std::size_t memory_mb = static_cast<std::size_t>(
            legion_object->attributes().GetOr("memory_mb", AttrValue(32))
                .as_int());
        const double cpu_fraction =
            legion_object->attributes()
                .GetOr("cpu_fraction", AttrValue(1.0))
                .as_double();
        // Capacity admission for the returning object.
        const double cpu_capacity =
            static_cast<double>(spec_.cpus) * spec_.oversubscription;
        if (RunningCpuDemand() + cpu_fraction > cpu_capacity + 1e-9 ||
            RunningMemoryDemand() + memory_mb > spec_.memory_mb) {
          done(Status::Error(ErrorCode::kNoResources,
                             "no capacity for reactivation"));
          return;
        }
        Status activated = legion_object->Activate(loid(), vault);
        if (!activated.ok()) {
          done(activated);
          return;
        }
        RunningObject running;
        running.object = object;
        running.vault = vault;
        running.memory_mb = memory_mb;
        running.cpu_fraction = cpu_fraction;
        running.started = kernel()->Now();
        running_[object] = running;
        ++objects_started_;
        RepopulateAttributes();
        done(true);
      });
}

// ---- Information reporting --------------------------------------------------

void HostObject::GetCompatibleVaults(Callback<std::vector<Loid>> done) {
  done(compatible_vaults_);
}

void HostObject::VaultOk(const Loid& vault, Callback<bool> done) {
  CallOn<bool, VaultInterface>(
      kernel(), loid(), vault, kSmallMessage, kSmallMessage,
      kDefaultRpcTimeout,
      [domain = spec_.domain, arch = spec_.arch](VaultInterface& v,
                                                 Callback<bool> reply) {
        v.Probe(domain, arch, std::move(reply));
      },
      [done = std::move(done)](Result<bool> r) {
        done(r.ok() && *r);
      });
}

// ---- Configuration ------------------------------------------------------------

void HostObject::AddCompatibleVault(const Loid& vault) {
  compatible_vaults_.push_back(vault);
  RepopulateAttributes();
}

void HostObject::SetPolicy(std::unique_ptr<PlacementPolicy> policy) {
  policy_ = std::move(policy);
  RepopulateAttributes();
}

void HostObject::AddCollection(const Loid& collection) {
  collections_.push_back(collection);
}

void HostObject::StartReassessment() {
  if (reassess_timer_ != 0) return;
  reassess_timer_ = kernel()->SchedulePeriodic(spec_.reassess_period,
                                               [this] { ReassessState(); });
}

void HostObject::StopReassessment() {
  if (reassess_timer_ == 0) return;
  kernel()->CancelPeriodic(reassess_timer_);
  reassess_timer_ = 0;
}

// ---- State ----------------------------------------------------------------------

double HostObject::RunningCpuDemand() const {
  double demand = 0.0;
  for (const auto& [loid, running] : running_) demand += running.cpu_fraction;
  return demand;
}

std::size_t HostObject::RunningMemoryDemand() const {
  std::size_t demand = 0;
  for (const auto& [loid, running] : running_) demand += running.memory_mb;
  return demand;
}

double HostObject::CurrentLoad() const {
  return load_model_.current() +
         RunningCpuDemand() / static_cast<double>(spec_.cpus);
}

double HostObject::EffectiveSpeedPerObject() const {
  const double cpus = static_cast<double>(spec_.cpus);
  const double total_demand = load_model_.current() * cpus + RunningCpuDemand();
  if (total_demand <= cpus) return spec_.speed_mips;
  return spec_.speed_mips * cpus / total_demand;
}

void HostObject::SpikeLoad(double level) {
  load_model_.Spike(level);
  // Reflect the spike immediately (no model step, which would decay it).
  RepopulateAttributes();
  EvaluateTriggers();
  PushToCollections();
}

void HostObject::ReassessState() {
  // Expire first so host_live_reservations counts only live windows.
  table_.ExpireStale(kernel()->Now());
  load_model_.Step();
  RepopulateAttributes();
  EvaluateTriggers();
  PushToCollections();
}

void HostObject::RepopulateAttributes() {
  AttributeDatabase& attrs = mutable_attributes();
  attrs.Set("host_name", spec_.name);
  attrs.Set("host_arch", spec_.arch);
  attrs.Set("host_os_name", spec_.os_name);
  attrs.Set("host_os_version", spec_.os_version);
  attrs.Set("host_cpus", static_cast<std::int64_t>(spec_.cpus));
  attrs.Set("host_speed_mips", spec_.speed_mips);
  attrs.Set("host_memory_mb", static_cast<std::int64_t>(spec_.memory_mb));
  const std::size_t used = RunningMemoryDemand();
  attrs.Set("host_available_memory_mb",
            static_cast<std::int64_t>(
                spec_.memory_mb > used ? spec_.memory_mb - used : 0));
  attrs.Set("host_cost_per_cpu_second", spec_.cost_per_cpu_second);
  attrs.Set("host_domain", static_cast<std::int64_t>(spec_.domain));
  attrs.Set("host_kind", HostKind());
  attrs.Set("host_load", CurrentLoad());
  attrs.Set("host_running_objects",
            static_cast<std::int64_t>(running_.size()));
  attrs.Set("host_live_reservations",
            static_cast<std::int64_t>(table_.live_count()));
  attrs.Set("host_policy", policy_->Describe());
  AttrList vaults;
  for (const Loid& vault : compatible_vaults_) {
    vaults.push_back(AttrValue(vault.ToString()));
  }
  attrs.Set("compatible_vaults", AttrValue(std::move(vaults)));
  ExtendAttributes(attrs);
}

void HostObject::PushToCollections() {
  if (collections_.empty()) return;
  const bool join = !joined_collections_;
  joined_collections_ = true;
  for (const Loid& collection : collections_) {
    AttributeDatabase snapshot = attributes();
    CallOn<bool, CollectionSink>(
        kernel(), loid(), collection, kMediumMessage, kSmallMessage,
        kDefaultRpcTimeout,
        [join, member = loid(), snapshot](CollectionSink& sink,
                                          Callback<bool> reply) {
          if (join) {
            sink.JoinCollection(member, snapshot, std::move(reply));
          } else {
            sink.UpdateCollectionEntry(member, snapshot, std::move(reply));
          }
        },
        [](Result<bool>) { /* push is fire-and-forget */ });
  }
}

}  // namespace legion
