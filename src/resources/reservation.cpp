#include "resources/reservation.h"

#include <algorithm>

namespace legion {

const char* ToString(ReservationState state) {
  switch (state) {
    case ReservationState::kPending:
      return "pending";
    case ReservationState::kConfirmed:
      return "confirmed";
    case ReservationState::kExpired:
      return "expired";
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
  next_deadline_ = std::min(next_deadline_, Deadline(record));
  records_.emplace(token.serial, std::move(record));
  ++admitted_;
  ++live_;
  return Status::Ok();
}

bool ReservationTable::Check(const ReservationToken& token, SimTime now) {
  // After ExpireStale(now) every record left has an open window.
  ExpireStale(now);
  auto it = records_.find(token.serial);
  return it != records_.end() && Live(it->second);
}

bool ReservationTable::Cancel(const ReservationToken& token, SimTime now) {
  // Expire first so a reservation whose window edge coincides exactly with
  // `now` is classified the same way every other entry point classifies it:
  // dead, hence not cancellable.
  ExpireStale(now);
  auto it = records_.find(token.serial);
  if (it == records_.end() || !Live(it->second)) return false;
  records_.erase(it);
  --live_;
  ++cancelled_;
  return true;
}

Status ReservationTable::Redeem(const ReservationToken& token, SimTime now) {
  ExpireStale(now);
  auto it = records_.find(token.serial);
  if (it == records_.end()) {
    // Dead records leave the table; the token's own window tells the two
    // dead-token answers apart.
    if (now >= token.start + token.duration) {
      return Status::Error(ErrorCode::kExpired, "reservation expired");
    }
    return Status::Error(ErrorCode::kInvalidToken,
                         "reservation unknown, cancelled or used");
  }
  ReservationRecord& record = it->second;
  if (record.state == ReservationState::kExpired) {
    return Status::Error(ErrorCode::kExpired, "reservation expired");
  }
  // Early presentation (before the window opens) is allowed and counts as
  // confirmation; execution is the host's concern (it defers the launch).
  // A passed window cannot reach this point: ExpireStale(now) above
  // already erased it.
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
  // One-shot reservations expire when the job is done (paper Table 2
  // discussion); reusable reservations persist for the whole window.
  // `token` may alias the record, so it is not read past the erase.
  if (!it->second.token.type.reuse && Live(it->second)) {
    records_.erase(it);
    --live_;
    ++consumed_;
  }
}

SimTime ReservationTable::Deadline(const ReservationRecord& r) {
  const SimTime end = r.token.start + r.token.duration;
  if (r.state == ReservationState::kPending &&
      r.token.confirm_timeout > Duration::Zero()) {
    return std::min(end, r.token.start + r.token.confirm_timeout);
  }
  return end;
}

std::size_t ReservationTable::ExpireStale(SimTime now) {
  if (now < next_deadline_) return 0;
  std::size_t n = 0;
  next_deadline_ = SimTime::Max();
  for (auto it = records_.begin(); it != records_.end();) {
    ReservationRecord& record = it->second;
    const ReservationToken& t = record.token;
    const bool closed = now >= t.start + t.duration;
    // Confirmation timeout: only pending instantaneous reservations.
    const bool lapsed = record.state == ReservationState::kPending &&
                        t.confirm_timeout > Duration::Zero() &&
                        t.start <= now && now >= t.start + t.confirm_timeout;
    if (Live(record) && (closed || lapsed)) {
      record.state = ReservationState::kExpired;
      --live_;
      ++expired_;
      ++n;
    }
    if (closed) {
      it = records_.erase(it);
      continue;
    }
    next_deadline_ = std::min(next_deadline_, Deadline(record));
    ++it;
  }
  return n;
}

const ReservationRecord* ReservationTable::Find(std::uint64_t serial) const {
  auto it = records_.find(serial);
  return it == records_.end() ? nullptr : &it->second;
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
