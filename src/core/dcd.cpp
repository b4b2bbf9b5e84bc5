#include "core/dcd.h"

#include "objects/core_hierarchy.h"

namespace legion {

DataCollectionDaemon::DataCollectionDaemon(SimKernel* kernel, Loid loid,
                                           DcdOptions options)
    : LegionObject(kernel, loid, ServiceClassLoid(loid.domain())),
      options_(options) {
  kernel->network().RegisterEndpoint(loid, loid.domain());
  (void)Activate(loid, Loid());
}

DataCollectionDaemon::~DataCollectionDaemon() { Stop(); }

void DataCollectionDaemon::WatchResource(const Loid& resource) {
  resources_.push_back(resource);
}

void DataCollectionDaemon::AddCollection(CollectionObject* collection) {
  collections_.push_back(collection);
  collection->AddTrustedUpdater(loid());
}

void DataCollectionDaemon::Start() {
  if (timer_ != 0) return;
  timer_ = kernel()->SchedulePeriodic(options_.poll_period,
                                      [this] { PollNow(); });
}

void DataCollectionDaemon::Stop() {
  if (timer_ == 0) return;
  kernel()->CancelPeriodic(timer_);
  timer_ = 0;
}

void DataCollectionDaemon::PollNow() {
  for (const Loid& resource : resources_) {
    // Pull: one RPC to the resource for its current attributes.
    CallOn<AttributeDatabase, LegionObject>(
        kernel(), loid(), resource, kSmallMessage, kMediumMessage,
        kDefaultRpcTimeout,
        [](LegionObject& object, Callback<AttributeDatabase> reply) {
          reply(object.attributes());
        },
        [this, resource](Result<AttributeDatabase> attrs) {
          if (!attrs.ok()) return;
          if (const AttrValue* load = attrs->Get("host_load");
              load != nullptr && load->is_numeric()) {
            RecordSample(resource, load->as_double());
          }
          // Push: authenticated third-party update into each Collection.
          for (CollectionObject* collection : collections_) {
            CallOn<bool, CollectionObject>(
                kernel(), loid(), collection->loid(), kMediumMessage,
                kSmallMessage, kDefaultRpcTimeout,
                [caller = loid(), resource, attrs = *attrs](
                    CollectionObject& c, Callback<bool> reply) {
                  c.UpdateEntryAs(caller, resource, attrs, std::move(reply));
                },
                [](Result<bool>) {});
          }
        });
  }
}

void DataCollectionDaemon::RecordSample(const Loid& host, double load) {
  auto& samples = history_[host];
  samples.push_back(load);
  if (samples.size() > kHistoryLength) samples.pop_front();
}

const std::deque<double>* DataCollectionDaemon::HistoryFor(
    const Loid& host) const {
  auto it = history_.find(host);
  return it == history_.end() ? nullptr : &it->second;
}

double DataCollectionDaemon::ForecastLoad(const Loid& host) const {
  const std::deque<double>* samples = HistoryFor(host);
  if (samples == nullptr || samples->empty()) return 0.0;
  if (samples->size() < 4) return samples->back();
  // AR(1): x_{t+1} = mean + phi * (x_t - mean), phi from lag-1
  // autocovariance.
  double mean = 0.0;
  for (double s : *samples) mean += s;
  mean /= static_cast<double>(samples->size());
  double cov0 = 0.0, cov1 = 0.0;
  for (std::size_t i = 0; i < samples->size(); ++i) {
    const double d = (*samples)[i] - mean;
    cov0 += d * d;
    if (i + 1 < samples->size()) cov1 += d * ((*samples)[i + 1] - mean);
  }
  const double phi = cov0 > 1e-12 ? cov1 / cov0 : 0.0;
  return mean + phi * (samples->back() - mean);
}

void DataCollectionDaemon::InstallForecastFunction(
    CollectionObject* collection) {
  collection->functions().Register(
      "forecast_load",
      [this](const AttributeDatabase& record,
             const std::vector<AttrValue>& args) -> AttrValue {
        (void)args;
        const AttrValue* member = record.Get("member");
        if (member == nullptr || !member->is_string()) return AttrValue();
        auto loid = ParseLoid(member->as_string());
        if (!loid.has_value()) return AttrValue();
        return AttrValue(ForecastLoad(*loid));
      });
}

}  // namespace legion
