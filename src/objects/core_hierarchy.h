// The Legion core object hierarchy (paper figure 1).
//
//                      LegionClass
//                    .      |      .
//             MyObjClass HostClass VaultClass
//                           |    .      |   .
//                        Host1 Host2 Vault1 Vault2
//
// LegionClass is the root metaclass (its own class); HostClass and
// VaultClass are the guardian classes whose instances are the Host and
// Vault objects.  Every other object's class chain terminates at
// LegionClass.  The well-known serials here are what HostObject,
// VaultObject, CollectionObject and the service objects stamp into
// their class_loid, through the *ClassLoid helpers below.
#pragma once

#include "objects/class_object.h"

namespace legion {

// Well-known serials within LoidSpace::kClass (per domain).
inline constexpr std::uint64_t kLegionClassSerial = 1;
inline constexpr std::uint64_t kHostClassSerial = 2;
inline constexpr std::uint64_t kVaultClassSerial = 3;
inline constexpr std::uint64_t kCollectionClassSerial = 4;
inline constexpr std::uint64_t kServiceClassSerial = 5;

inline Loid LegionClassLoid(std::uint32_t domain) {
  return Loid(LoidSpace::kClass, domain, kLegionClassSerial);
}
inline Loid HostClassLoid(std::uint32_t domain) {
  return Loid(LoidSpace::kClass, domain, kHostClassSerial);
}
inline Loid VaultClassLoid(std::uint32_t domain) {
  return Loid(LoidSpace::kClass, domain, kVaultClassSerial);
}
inline Loid CollectionClassLoid(std::uint32_t domain) {
  return Loid(LoidSpace::kClass, domain, kCollectionClassSerial);
}
inline Loid ServiceClassLoid(std::uint32_t domain) {
  return Loid(LoidSpace::kClass, domain, kServiceClassSerial);
}

// The instantiated core hierarchy for one naming domain: actual class
// objects (classes are *active entities* in Legion), wired so that the
// class chain of every core object resolves.
struct CoreHierarchy {
  ClassObject* legion_class = nullptr;
  ClassObject* host_class = nullptr;
  ClassObject* vault_class = nullptr;
};

// Creates (or returns the already-created) core class objects for a
// domain in this kernel.
CoreHierarchy EnsureCoreHierarchy(SimKernel* kernel, std::uint32_t domain);

// Walks object -> class -> class-of-class ... until LegionClass (which
// is its own class) or a dangling link.  Returns the chain including the
// starting class loid.
std::vector<Loid> ClassChainOf(SimKernel* kernel, const Loid& class_loid,
                               std::size_t max_depth = 8);

}  // namespace legion
