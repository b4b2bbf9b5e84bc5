#include "objects/class_object.h"

namespace legion {
namespace {

// Default instance factory: a plain LegionObject.
std::unique_ptr<LegionObject> DefaultFactory(SimKernel* kernel,
                                             const Loid& instance,
                                             const Loid& class_loid) {
  return std::make_unique<LegionObject>(kernel, instance, class_loid);
}

}  // namespace

ClassObject::ClassObject(SimKernel* kernel, Loid loid, std::string name,
                         std::vector<Implementation> implementations,
                         ObjectFactory factory)
    : LegionObject(kernel, loid, Loid(LoidSpace::kClass, loid.domain(), 0)),
      name_(std::move(name)),
      implementations_(std::move(implementations)),
      factory_(std::move(factory)) {
  if (!factory_) {
    Loid class_loid = loid;
    factory_ = [class_loid](SimKernel* k, const Loid& instance) {
      return DefaultFactory(k, instance, class_loid);
    };
  }
  mutable_attributes().Set("class_name", name_);
  AttrList impl_list;
  for (const auto& impl : implementations_) {
    impl_list.push_back(AttrValue(impl.arch + "/" + impl.os_name));
  }
  mutable_attributes().Set("implementations", AttrValue(std::move(impl_list)));
}

void ClassObject::GetImplementations(
    Callback<std::vector<Implementation>> done) {
  done(implementations_);
}

void ClassObject::GetResourceRequirements(Callback<AttributeDatabase> done) {
  AttributeDatabase reqs;
  reqs.Set("memory_mb", static_cast<std::int64_t>(demand_.memory_mb));
  reqs.Set("cpu_fraction", demand_.cpu_fraction);
  AttrList arches;
  for (const auto& impl : implementations_) {
    arches.push_back(AttrValue(impl.arch));
  }
  reqs.Set("arches", AttrValue(std::move(arches)));
  done(std::move(reqs));
}

StartObjectRequest ClassObject::BuildRequest(
    const PlacementSuggestion& suggestion, std::size_t count) {
  StartObjectRequest request;
  request.implementation = suggestion.implementation;
  for (const Implementation& impl : implementations_) {
    if (impl.arch + "/" + impl.os_name == suggestion.implementation) {
      request.binary_bytes = impl.binary_bytes;
      break;
    }
  }
  request.class_loid = loid();
  for (std::size_t i = 0; i < count; ++i) {
    request.instances.push_back(
        kernel()->minter().Mint(LoidSpace::kObject, loid().domain()));
  }
  request.token = suggestion.token;
  request.vault = suggestion.vault;
  request.memory_mb = demand_.memory_mb;
  request.cpu_fraction = demand_.cpu_fraction;
  request.estimated_runtime = estimated_runtime_;
  request.factory = factory_;
  return request;
}

void ClassObject::CreateInstancesOn(const PlacementSuggestion& suggestion,
                                    std::size_t count,
                                    Callback<std::vector<Loid>> done) {
  // The Class is the final authority: a selected implementation must be
  // one of ours, and the placement must pass local policy.
  if (!suggestion.implementation.empty()) {
    bool known = false;
    for (const Implementation& impl : implementations_) {
      if (impl.arch + "/" + impl.os_name == suggestion.implementation) {
        known = true;
        break;
      }
    }
    if (!known) {
      done(Status::Error(ErrorCode::kInvalidArgument,
                         "class has no implementation '" +
                             suggestion.implementation + "'"));
      return;
    }
  }
  if (validator_) {
    Status verdict = validator_(suggestion);
    if (!verdict.ok()) {
      done(verdict);
      return;
    }
  }
  StartObjectRequest request = BuildRequest(suggestion, count);
  CallOn<std::vector<Loid>, HostInterface>(
      kernel(), loid(), suggestion.host, kMediumMessage, kSmallMessage,
      kDefaultRpcTimeout,
      [request](HostInterface& host, Callback<std::vector<Loid>> reply) {
        host.StartObject(request, std::move(reply));
      },
      [this, done = std::move(done)](Result<std::vector<Loid>> result) {
        if (result.ok()) {
          for (const auto& instance : *result) instances_.push_back(instance);
        }
        done(std::move(result));
      });
}

void ClassObject::CreateInstance(std::optional<PlacementSuggestion> suggestion,
                                 Callback<Loid> done) {
  if (suggestion.has_value()) {
    CreateInstancesOn(*suggestion, 1,
                      [done = std::move(done)](Result<std::vector<Loid>> r) {
                        if (!r.ok()) {
                          done(r.status());
                          return;
                        }
                        if (r->empty()) {
                          done(Status::Error(ErrorCode::kInternal,
                                             "host started no instances"));
                          return;
                        }
                        done(r->front());
                      });
    return;
  }
  // Quick default placement: try each known resource once, round-robin.
  if (known_resources_.empty()) {
    done(Status::Error(ErrorCode::kNoResources,
                       "class knows no resources for default placement"));
    return;
  }
  TryDefaultPlacement(known_resources_.size(), std::move(done));
}

void ClassObject::TryDefaultPlacement(std::size_t attempts_left,
                                      Callback<Loid> done) {
  if (attempts_left == 0) {
    done(Status::Error(ErrorCode::kNoResources,
                       "default placement exhausted all known resources"));
    return;
  }
  const auto& [host, vault] = known_resources_[round_robin_];
  round_robin_ = (round_robin_ + 1) % known_resources_.size();

  PlacementSuggestion suggestion;
  suggestion.host = host;
  suggestion.vault = vault;
  // No reservation token: the host applies its default admission policy.
  StartObjectRequest request = BuildRequest(suggestion, 1);
  CallOn<std::vector<Loid>, HostInterface>(
      kernel(), loid(), host, kMediumMessage, kSmallMessage,
      kDefaultRpcTimeout,
      [request](HostInterface& h, Callback<std::vector<Loid>> reply) {
        h.StartObject(request, std::move(reply));
      },
      [this, attempts_left, done = std::move(done)](
          Result<std::vector<Loid>> result) mutable {
        if (result.ok() && !result->empty()) {
          instances_.push_back(result->front());
          done(result->front());
          return;
        }
        TryDefaultPlacement(attempts_left - 1, std::move(done));
      });
}

void ClassObject::SetKnownResources(
    std::vector<std::pair<Loid, Loid>> host_vault_pairs) {
  known_resources_ = std::move(host_vault_pairs);
  round_robin_ = 0;
}

void ClassObject::ForgetInstance(const Loid& instance) {
  std::erase(instances_, instance);
}

InstanceDemand InstanceDemandOf(SimKernel* kernel, const Loid& class_loid) {
  auto* klass = dynamic_cast<ClassObject*>(kernel->FindActor(class_loid));
  return klass != nullptr ? klass->instance_demand() : InstanceDemand{};
}

}  // namespace legion
