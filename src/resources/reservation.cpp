#include "resources/reservation.h"

#include <cmath>

namespace legion {

const char* ToString(ReservationState state) {
  switch (state) {
    case ReservationState::kPending:
      return "pending";
    case ReservationState::kConfirmed:
      return "confirmed";
    case ReservationState::kCancelled:
      return "cancelled";
    case ReservationState::kExpired:
      return "expired";
    case ReservationState::kConsumed:
      return "consumed";
  }
  return "unknown";
}

Status ReservationTable::Admit(const ReservationToken& token,
                               const Loid& requester, std::size_t memory_mb,
                               double cpu_fraction, SimTime now) {
  ExpireStale(now);
  if (records_.count(token.serial) != 0) {
    ++rejected_;
    return Status::Error(ErrorCode::kAlreadyExists, "duplicate serial");
  }
  if (token.duration <= Duration::Zero()) {
    ++rejected_;
    return Status::Error(ErrorCode::kInvalidArgument,
                         "non-positive reservation duration");
  }
  // A window that has already closed (end <= now, the same half-open edge
  // Check/Redeem/ExpireStale use) would be expired by the very next
  // ExpireStale pass; refuse it up front instead of admitting a corpse.
  if (token.start + token.duration <= now) {
    ++rejected_;
    return Status::Error(ErrorCode::kInvalidArgument,
                         "reservation window already closed");
  }
  if (memory_mb > capacity_.memory_mb) {
    ++rejected_;
    return Status::Error(ErrorCode::kNoResources, "memory demand > capacity");
  }

  if (!token.type.share) {
    // Space sharing allocates the entire resource: the window must be
    // free of every other live reservation (shared or not).
    for (const auto& [serial, record] : records_) {
      if (!Live(record)) continue;
      if (Overlaps(token, record.token)) {
        ++rejected_;
        return Status::Error(ErrorCode::kNoResources,
                             "window conflicts with reservation #" +
                                 std::to_string(serial));
      }
    }
  } else {
    // Timesharing multiplexes the resource, but never across a live
    // unshared reservation, and only up to capacity.
    double cpu_in_window = cpu_fraction;
    std::size_t mem_in_window = memory_mb;
    for (const auto& [serial, record] : records_) {
      if (!Live(record)) continue;
      if (!Overlaps(token, record.token)) continue;
      if (!record.token.type.share) {
        ++rejected_;
        return Status::Error(ErrorCode::kNoResources,
                             "window overlaps unshared reservation #" +
                                 std::to_string(serial));
      }
      cpu_in_window += record.cpu_fraction;
      mem_in_window += record.memory_mb;
    }
    const double cpu_capacity =
        static_cast<double>(capacity_.cpus) * capacity_.oversubscription;
    if (cpu_in_window > cpu_capacity + 1e-9) {
      ++rejected_;
      return Status::Error(ErrorCode::kNoResources, "CPU capacity exceeded");
    }
    if (mem_in_window > capacity_.memory_mb) {
      ++rejected_;
      return Status::Error(ErrorCode::kNoResources, "memory capacity exceeded");
    }
  }

  ReservationRecord record;
  record.token = token;
  record.requester = requester;
  record.memory_mb = memory_mb;
  record.cpu_fraction = cpu_fraction;
  record.state = ReservationState::kPending;
  records_[token.serial] = std::move(record);
  ++admitted_;
  return Status::Ok();
}

bool ReservationTable::Check(const ReservationToken& token, SimTime now) {
  ExpireStale(now);
  auto it = records_.find(token.serial);
  if (it == records_.end()) return false;
  const ReservationRecord& record = it->second;
  if (!Live(record)) return false;
  return now < record.token.start + record.token.duration;
}

bool ReservationTable::Cancel(const ReservationToken& token, SimTime now) {
  // Expire first so a reservation whose window edge coincides exactly with
  // `now` is classified the same way every other entry point classifies it:
  // dead, hence not cancellable.
  ExpireStale(now);
  auto it = records_.find(token.serial);
  if (it == records_.end() || !Live(it->second)) return false;
  it->second.state = ReservationState::kCancelled;
  ++cancelled_;
  return true;
}

Status ReservationTable::Redeem(const ReservationToken& token, SimTime now) {
  ExpireStale(now);
  auto it = records_.find(token.serial);
  if (it == records_.end()) {
    return Status::Error(ErrorCode::kInvalidToken, "unknown reservation");
  }
  ReservationRecord& record = it->second;
  switch (record.state) {
    case ReservationState::kCancelled:
      return Status::Error(ErrorCode::kInvalidToken, "reservation cancelled");
    case ReservationState::kExpired:
      return Status::Error(ErrorCode::kExpired, "reservation expired");
    case ReservationState::kConsumed:
      return Status::Error(ErrorCode::kInvalidToken,
                           "one-shot reservation already used");
    case ReservationState::kPending:
    case ReservationState::kConfirmed:
      break;
  }
  // Early presentation (before the window opens) is allowed and counts as
  // confirmation; execution is the host's concern (it defers the launch).
  // A passed window cannot reach this point: ExpireStale(now) above already
  // expired it, so the state switch returned kExpired.
  //
  // The reuse bit: a one-shot token is good for exactly one StartObject.
  if (!record.token.type.reuse && record.uses >= 1) {
    return Status::Error(ErrorCode::kInvalidToken,
                         "one-shot reservation already used");
  }
  // Presenting the token confirms the reservation (implicit confirmation);
  // the record stays live so the window's capacity remains claimed.
  record.state = ReservationState::kConfirmed;
  ++record.uses;
  return Status::Ok();
}

void ReservationTable::OnJobDone(const ReservationToken& token) {
  auto it = records_.find(token.serial);
  if (it == records_.end()) return;
  ReservationRecord& record = it->second;
  // One-shot reservations expire when the job is done (paper Table 2
  // discussion); reusable reservations persist for the whole window.
  if (!record.token.type.reuse && Live(record)) {
    record.state = ReservationState::kConsumed;
  }
}

std::size_t ReservationTable::ExpireStale(SimTime now) {
  std::size_t n = 0;
  for (auto& [serial, record] : records_) {
    if (!Live(record)) continue;
    // Confirmation timeout: only pending instantaneous reservations.
    if (record.state == ReservationState::kPending &&
        record.token.confirm_timeout > Duration::Zero() &&
        record.token.start <= now &&
        now >= record.token.start + record.token.confirm_timeout) {
      record.state = ReservationState::kExpired;
      ++expired_;
      ++n;
      continue;
    }
    if (now >= record.token.start + record.token.duration) {
      record.state = ReservationState::kExpired;
      ++expired_;
      ++n;
    }
  }
  return n;
}

const ReservationRecord* ReservationTable::Find(std::uint64_t serial) const {
  auto it = records_.find(serial);
  return it == records_.end() ? nullptr : &it->second;
}

std::size_t ReservationTable::live_count() const {
  std::size_t n = 0;
  for (const auto& [serial, record] : records_) {
    if (Live(record)) ++n;
  }
  return n;
}

double ReservationTable::SharedCpuLoadAt(SimTime t) const {
  double load = 0.0;
  for (const auto& [serial, record] : records_) {
    if (!Live(record)) continue;
    if (t >= record.token.start && t < record.token.start + record.token.duration) {
      load += record.cpu_fraction;
    }
  }
  return load;
}

}  // namespace legion
