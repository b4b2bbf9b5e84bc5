#include "workload/metacomputer.h"

#include <gtest/gtest.h>

#include <set>

namespace legion {
namespace {

NetworkParams QuietNet() {
  NetworkParams params;
  params.jitter_fraction = 0.0;
  return params;
}

TEST(MetacomputerTest, BuildsRequestedTopology) {
  SimKernel kernel(QuietNet());
  MetacomputerConfig config;
  config.domains = 3;
  config.hosts_per_domain = 5;
  config.vaults_per_domain = 2;
  config.seed = 1;
  Metacomputer metacomputer(&kernel, config);
  EXPECT_EQ(metacomputer.hosts().size(), 15u);
  EXPECT_EQ(metacomputer.vaults().size(), 6u);
  ASSERT_NE(metacomputer.collection(), nullptr);
  ASSERT_NE(metacomputer.enactor(), nullptr);
  ASSERT_NE(metacomputer.monitor(), nullptr);
  // Domains are balanced.
  std::map<std::uint32_t, int> per_domain;
  for (auto* host : metacomputer.hosts()) per_domain[host->spec().domain]++;
  EXPECT_EQ(per_domain.size(), 3u);
  for (const auto& [domain, count] : per_domain) EXPECT_EQ(count, 5);
}

TEST(MetacomputerTest, DeterministicForSameSeed) {
  auto names_of = [](std::uint64_t seed) {
    SimKernel kernel(QuietNet());
    MetacomputerConfig config;
    config.seed = seed;
    Metacomputer metacomputer(&kernel, config);
    std::vector<std::string> names;
    for (auto* host : metacomputer.hosts()) {
      names.push_back(host->spec().arch + "/" +
                      std::to_string(host->spec().cpus) + "/" +
                      std::to_string(host->spec().speed_mips));
    }
    return names;
  };
  EXPECT_EQ(names_of(7), names_of(7));
  EXPECT_NE(names_of(7), names_of(8));
}

TEST(MetacomputerTest, HeterogeneousMixesPlatforms) {
  SimKernel kernel(QuietNet());
  MetacomputerConfig config;
  config.domains = 2;
  config.hosts_per_domain = 16;
  config.seed = 3;
  Metacomputer metacomputer(&kernel, config);
  std::set<std::string> arches;
  for (auto* host : metacomputer.hosts()) arches.insert(host->spec().arch);
  EXPECT_GE(arches.size(), 3u);
}

TEST(MetacomputerTest, HostKindMixRespectsFractions) {
  SimKernel kernel(QuietNet());
  MetacomputerConfig config;
  config.domains = 2;
  config.hosts_per_domain = 20;
  config.batch_fraction = 0.3;
  config.maui_fraction = 0.2;
  config.smp_fraction = 0.2;
  config.seed = 11;
  Metacomputer metacomputer(&kernel, config);
  int batch = 0, maui = 0;
  for (auto* host : metacomputer.hosts()) {
    if (dynamic_cast<MauiHost*>(host) != nullptr) {
      ++maui;
    } else if (dynamic_cast<BatchQueueHost*>(host) != nullptr) {
      ++batch;
    }
  }
  EXPECT_GT(maui, 0);
  EXPECT_GT(batch, 0);
}

TEST(MetacomputerTest, PopulateCollectionPushesEveryHost) {
  SimKernel kernel(QuietNet());
  MetacomputerConfig config;
  config.domains = 2;
  config.hosts_per_domain = 4;
  Metacomputer metacomputer(&kernel, config);
  metacomputer.PopulateCollection();
  EXPECT_EQ(metacomputer.collection()->record_count(), 8u);
}

TEST(MetacomputerTest, HostsHaveCompatibleVaultsInTheirDomain) {
  SimKernel kernel(QuietNet());
  MetacomputerConfig config;
  Metacomputer metacomputer(&kernel, config);
  for (auto* host : metacomputer.hosts()) {
    bool found = false;
    for (const auto& [name, value] : host->attributes()) {
      if (name == "compatible_vaults") {
        EXPECT_FALSE(value.as_list().empty());
        found = true;
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST(MetacomputerTest, UniversalClassMatchesEveryHost) {
  SimKernel kernel(QuietNet());
  MetacomputerConfig config;
  config.domains = 2;
  config.hosts_per_domain = 8;
  config.seed = 5;
  Metacomputer metacomputer(&kernel, config);
  metacomputer.PopulateCollection();
  auto* klass = metacomputer.MakeUniversalClass("everywhere");
  (void)klass;
  // Every host record matches at least one implementation's arch/OS.
  for (auto* host : metacomputer.hosts()) {
    bool matched = false;
    for (const Platform& platform : KnownPlatforms()) {
      if (host->spec().arch == platform.arch &&
          host->spec().os_name == platform.os_name) {
        matched = true;
      }
    }
    EXPECT_TRUE(matched) << host->spec().name;
  }
}

TEST(MetacomputerTest, RegistryResetWithLiveRecorderWindows) {
  SimKernel kernel(QuietNet());
  MetacomputerConfig config;
  config.domains = 2;
  config.hosts_per_domain = 2;
  config.seed = 5;
  Metacomputer metacomputer(&kernel, config);

  // A recorder window is open across the reset: the cumulative series
  // must clamp the post-reset delta to the new value instead of
  // reporting a negative window.
  obs::TimeSeriesRecorder& recorder = kernel.recorder();
  recorder.options().sample_period = Duration::Seconds(1);
  obs::Counter* messages =
      kernel.metrics().GetCounter("messages_sent", {{"component", "kernel"}});
  recorder.WatchCounter("kernel/messages_sent", messages);
  recorder.Start(kernel.Now());

  // Two populate rounds so the pre-reset total strictly exceeds any
  // single post-reset burst -- the straddling window must see a drop.
  metacomputer.PopulateCollection();
  metacomputer.PopulateCollection();
  metacomputer.Settle(Duration::Seconds(3));
  const std::uint64_t before_reset = messages->value();
  ASSERT_GT(before_reset, 0u);
  const std::size_t windows_before =
      recorder.samples("kernel/messages_sent").size();
  ASSERT_GT(windows_before, 0u);

  kernel.metrics().Reset();  // mid-window: counter drops to zero
  EXPECT_EQ(messages->value(), 0u);
  metacomputer.PopulateCollection();
  metacomputer.Settle(Duration::Seconds(3));

  const auto& samples = recorder.samples("kernel/messages_sent");
  ASSERT_GT(samples.size(), windows_before);
  bool saw_reset_window = false;
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GE(samples[i].delta, 0.0)
        << "cumulative series must never report a negative window";
    EXPECT_GE(samples[i].rate, 0.0);
    if (samples[i].value < samples[i - 1].value) {
      // The window that straddles the reset: delta clamps to the value
      // accumulated since the reset, not (new - old).
      EXPECT_DOUBLE_EQ(samples[i].delta, samples[i].value);
      saw_reset_window = true;
    }
  }
  EXPECT_TRUE(saw_reset_window);
  // The recorder stays armed through the reset.
  EXPECT_TRUE(recorder.active());
}

TEST(MetacomputerTest, FindHostAndVaultResolve) {
  SimKernel kernel(QuietNet());
  Metacomputer metacomputer(&kernel, MetacomputerConfig{});
  auto* host = metacomputer.hosts().front();
  auto* vault = metacomputer.vaults().front();
  EXPECT_EQ(metacomputer.FindHost(host->loid()), host);
  EXPECT_EQ(metacomputer.FindVault(vault->loid()), vault);
  EXPECT_EQ(metacomputer.FindHost(Loid(LoidSpace::kHost, 0, 31337)), nullptr);
}

}  // namespace
}  // namespace legion
