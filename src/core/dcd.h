// The Data Collection Daemon (paper section 3.2, footnote 4).
//
// "We are implementing an intermediate agent, the Data Collection Daemon,
// which pulls data from Hosts and pushes it into Collections."
//
// The daemon polls its assigned resources on a period, pushes each
// snapshot into its Collections as an authenticated third-party update,
// and (as a demonstration of the function-injection extension) keeps a
// short load history per host from which a Network-Weather-Service-style
// forecast function computes predicted load at query time.
#pragma once

#include <deque>
#include <unordered_map>
#include <vector>

#include "core/collection.h"
#include "objects/legion_object.h"

namespace legion {

struct DcdOptions {
  Duration poll_period = Duration::Seconds(30);
};

class DataCollectionDaemon : public LegionObject {
 public:
  static constexpr std::size_t kHistoryLength = 32;  // load samples per host

  DataCollectionDaemon(SimKernel* kernel, Loid loid, DcdOptions options = {});
  ~DataCollectionDaemon() override;

  void WatchResource(const Loid& resource);
  void AddCollection(CollectionObject* collection);

  void Start();
  void Stop();
  // One pull+push cycle, immediately.
  void PollNow();

  // Installs "forecast_load()" into a collection's function registry.
  // The forecast is an AR(1) fit over this daemon's load history for the
  // record's member -- a toy stand-in for the Network Weather Service the
  // paper points at.
  void InstallForecastFunction(CollectionObject* collection);

  // Predicted next load for a host (AR(1) over history); falls back to
  // the last observation, then 0.
  double ForecastLoad(const Loid& host) const;
  const std::deque<double>* HistoryFor(const Loid& host) const;

 private:
  void RecordSample(const Loid& host, double load);

  DcdOptions options_;
  std::vector<Loid> resources_;
  std::vector<CollectionObject*> collections_;
  std::unordered_map<Loid, std::deque<double>> history_;
  SimKernel::PeriodicId timer_ = 0;
};

}  // namespace legion
