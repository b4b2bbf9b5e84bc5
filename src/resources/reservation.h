// Reservation bookkeeping (paper section 3.1, Table 2).
//
// "Host Object support for reservations is provided irrespective of
// underlying system support for reservations ... the standard Unix Host
// Object maintains a reservation table in the Host Object, because the
// Unix OS has no notion of reservations."
//
// The ReservationTable implements the full semantics of Legion
// reservations:
//   * a start time, a duration, and an optional timeout period for
//     instantaneous reservations awaiting confirmation;
//   * the two type bits (Table 2): `share` (resource may be multiplexed)
//     and `reuse` (token valid for multiple StartObject calls);
//   * capacity-aware granting: an unshared reservation takes the whole
//     resource for its window; shared reservations multiplex CPU and
//     memory up to the host's capacity.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "base/loid.h"
#include "base/result.h"
#include "base/sim_time.h"
#include "base/token.h"

namespace legion {

// The states a record can hold while it is in the table.  Cancelled and
// consumed records leave the table at once, and every record leaves when
// its window ends (see ReservationTable).
enum class ReservationState {
  kPending,    // granted, awaiting confirmation (instantaneous + timeout)
  kConfirmed,  // confirmed by a StartObject presenting the token
  kExpired,    // confirmation timeout elapsed; kept until the window ends
};

const char* ToString(ReservationState state);

// What a host remembers about one granted reservation.
struct ReservationRecord {
  ReservationToken token;
  ReservationState state = ReservationState::kPending;
  Loid requester;
  std::size_t memory_mb = 0;
  double cpu_fraction = 1.0;
  std::uint32_t uses = 0;  // StartObject presentations so far
};

// Host capacity the table grants against.
struct HostCapacity {
  std::uint32_t cpus = 1;
  std::size_t memory_mb = 512;
  double oversubscription = 1.0;  // >1 allows timesharing beyond cpus
};

// The table holds only records something can still observe (DESIGN.md
// §11), so every operation costs what is live, not what has happened:
//   * Cancel erases the record, and so does job-done on a one-shot
//     reservation;
//   * a live record whose window ends is counted expired and erased;
//   * a pending record that misses its confirmation timeout is counted
//     expired but stays until its window ends, so Redeem can still
//     answer kExpired for it.
// A token whose serial the table no longer holds is dead.  Redeem tells
// the two dead-token answers apart by the token's own window: kExpired
// once it has closed, kInvalidToken before that (cancelled, used, or
// never admitted here).
//
// Invariant: admitted() == live_count() + cancelled() + expired() +
// consumed().
class ReservationTable {
 public:
  explicit ReservationTable(HostCapacity capacity) : capacity_(capacity) {}

  // Attempts to admit a reservation with the given window/type/demand at
  // time `now`.  On success the record is stored keyed by token serial.
  // Grant rules:
  //   * unshared (space sharing): the window must not overlap any other
  //     live reservation;
  //   * shared (timesharing): the sum of cpu fractions (and memory) of
  //     overlapping live reservations must stay within capacity.
  Status Admit(const ReservationToken& token, const Loid& requester,
               std::size_t memory_mb, double cpu_fraction, SimTime now);

  // check_reservation(): true iff the token names a live (pending or
  // confirmed) reservation whose window has not passed.
  bool Check(const ReservationToken& token, SimTime now);

  // cancel_reservation(): returns false for unknown/already-dead tokens.
  // Time-aware: a reservation whose window (or confirmation timeout) has
  // already passed at `now` is expired, not cancellable -- the boundary
  // instant now == start + duration classifies identically here and in
  // Check/Redeem/ExpireStale.
  bool Cancel(const ReservationToken& token, SimTime now);

  // Presents the token with a StartObject call (implicit confirmation).
  // Enforces the reuse bit: a one-shot token is consumed by its first use.
  // Fails if the token is unknown, dead, or outside its window.
  Status Redeem(const ReservationToken& token, SimTime now);

  // Marks the job done for a one-shot timesharing reservation ("a typical
  // timesharing system that expires a reservation when the job is done").
  void OnJobDone(const ReservationToken& token);

  // Expires pending reservations whose confirmation timeout elapsed and
  // live reservations whose window fully passed.  Returns # expired.
  // Returns at once until the earliest deadline on the table has passed;
  // then it walks the (live-only) table once.
  std::size_t ExpireStale(SimTime now);

  const ReservationRecord* Find(std::uint64_t serial) const;
  std::size_t live_count() const { return live_; }
  std::size_t size() const { return records_.size(); }

  // Aggregate demand admitted for the instant `t` (live, shared).
  double SharedCpuLoadAt(SimTime t) const;

  // Statistics for experiments.
  std::uint64_t admitted() const { return admitted_; }
  std::uint64_t rejected() const { return rejected_; }
  std::uint64_t cancelled() const { return cancelled_; }
  std::uint64_t expired() const { return expired_; }
  std::uint64_t consumed() const { return consumed_; }

 private:
  static bool Live(const ReservationRecord& r) {
    return r.state == ReservationState::kPending ||
           r.state == ReservationState::kConfirmed;
  }
  static bool Overlaps(const ReservationToken& a, const ReservationToken& b) {
    SimTime a_end = a.start + a.duration;
    SimTime b_end = b.start + b.duration;
    return a.start < b_end && b.start < a_end;
  }
  // The instant ExpireStale next has work on `r`: its confirmation
  // deadline while pending, else its window end.
  static SimTime Deadline(const ReservationRecord& r);

  HostCapacity capacity_;
  std::unordered_map<std::uint64_t, ReservationRecord> records_;
  std::size_t live_ = 0;
  // No record's Deadline() is earlier.  Admit lowers it; records that
  // leave early (cancelled, consumed, confirmed) can leave it stale-low,
  // which costs one rescan that finds nothing and recomputes it.
  SimTime next_deadline_ = SimTime::Max();
  std::uint64_t admitted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t expired_ = 0;
  std::uint64_t consumed_ = 0;
};

}  // namespace legion
