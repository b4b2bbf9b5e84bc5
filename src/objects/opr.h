// Object Persistent Representations (paper section 2.1).
//
// "To be executed, a Legion object must have a Vault to hold its persistent
// state in an Object Persistent Representation (OPR).  The OPR is used for
// migration and for shutdown/restart purposes."
//
// An OPR snapshot carries the object's identity, its class, its attribute
// database, and an opaque body the object frames itself
// (LegionObject::SerializeBody).  OPRs move between hosts and vaults as
// structs; SizeBytes() prices them.
#pragma once

#include <cstdint>
#include <vector>

#include "base/attributes.h"
#include "base/loid.h"
#include "base/sim_time.h"

namespace legion {

struct Opr {
  Loid object;
  Loid class_loid;
  AttributeDatabase attributes;
  std::vector<std::uint8_t> body;
  SimTime saved_at;

  // Approximate on-the-wire size; drives vault capacity accounting and
  // migration transfer times.
  std::size_t SizeBytes() const;
};

}  // namespace legion
