#include <gtest/gtest.h>

#include "hwstar/hw/machine_model.h"
#include "hwstar/hw/topology.h"

namespace hwstar::hw {
namespace {

TEST(TopologyTest, DiscoversSomething) {
  CpuTopology topo = DiscoverTopology();
  EXPECT_GE(topo.logical_cores, 1u);
  ASSERT_FALSE(topo.caches.empty());
  // At minimum an L1 data/unified cache with a sane line size.
  EXPECT_GT(topo.CacheSizeBytes(1), 0u);
  for (const auto& c : topo.caches) {
    EXPECT_GE(c.line_bytes, 16u);
    EXPECT_LE(c.line_bytes, 256u);
    EXPECT_GT(c.size_bytes, 0u);
  }
}

TEST(TopologyTest, CacheLevelsIncreaseInSize) {
  CpuTopology topo = DiscoverTopology();
  uint64_t prev = 0;
  for (const auto& c : topo.caches) {
    EXPECT_GE(c.size_bytes, prev);
    prev = c.size_bytes;
  }
}

TEST(TopologyTest, ToStringMentionsCores) {
  CpuTopology topo = DiscoverTopology();
  EXPECT_NE(topo.ToString().find("cores="), std::string::npos);
}

TEST(MachineModelTest, Server2013Shape) {
  MachineModel m = MachineModel::Server2013();
  ASSERT_EQ(m.caches.size(), 3u);
  EXPECT_LT(m.caches[0].size_bytes, m.caches[1].size_bytes);
  EXPECT_LT(m.caches[1].size_bytes, m.caches[2].size_bytes);
  EXPECT_LT(m.caches[0].hit_latency_cycles, m.caches[1].hit_latency_cycles);
  EXPECT_LT(m.caches[2].hit_latency_cycles, m.dram_latency_cycles);
  EXPECT_EQ(m.numa_nodes, 2u);
  EXPECT_GT(m.numa_remote_multiplier, 1.0);
}

TEST(MachineModelTest, ManyCoreHasNoL3) {
  MachineModel m = MachineModel::ManyCore();
  EXPECT_EQ(m.caches.size(), 2u);
  EXPECT_GT(m.cores, MachineModel::Server2013().cores);
}

TEST(MachineModelTest, DesktopIsUniformMemory) {
  MachineModel m = MachineModel::Desktop();
  EXPECT_EQ(m.numa_nodes, 1u);
  EXPECT_DOUBLE_EQ(m.numa_remote_multiplier, 1.0);
}

TEST(MachineModelTest, FromHostUsesDiscoveredCaches) {
  CpuTopology topo = DiscoverTopology();
  MachineModel m = MachineModel::FromHost(topo);
  EXPECT_EQ(m.cores, topo.logical_cores);
  EXPECT_EQ(m.caches.size(), topo.caches.size());
  EXPECT_EQ(m.caches[0].size_bytes, topo.caches[0].size_bytes);
}

TEST(MachineModelTest, EnergyRatiosAreHierarchical) {
  MachineModel m = MachineModel::Server2013();
  EXPECT_LT(m.energy_pj_l1_hit, m.energy_pj_l2_hit);
  EXPECT_LT(m.energy_pj_l2_hit, m.energy_pj_l3_hit);
  EXPECT_LT(m.energy_pj_l3_hit, m.energy_pj_dram);
  // DRAM should be roughly two orders of magnitude above L1.
  EXPECT_GT(m.energy_pj_dram / m.energy_pj_l1_hit, 50.0);
}

TEST(MachineModelTest, ToStringIsInformative) {
  std::string s = MachineModel::Server2013().ToString();
  EXPECT_NE(s.find("server2013"), std::string::npos);
  EXPECT_NE(s.find("dram="), std::string::npos);
}

TEST(MachineModelTest, StreamKnobDefaultsAndClamping) {
  // Save/restore: the knobs are process-wide.
  const uint32_t rows_before = DefaultStreamBatchRows();
  const uint32_t inflight_before = DefaultStreamMaxInflight();
  const uint64_t bound_before = DefaultStreamLatenessBound();

  MachineModel{}.ApplyAll();
  EXPECT_EQ(DefaultStreamBatchRows(), 4096u);
  EXPECT_EQ(DefaultStreamMaxInflight(), 8u);
  EXPECT_EQ(DefaultStreamLatenessBound(), 1024u);

  SetDefaultStreamBatchRows(1);  // clamped up to 64
  EXPECT_EQ(DefaultStreamBatchRows(), 64u);
  SetDefaultStreamBatchRows(1u << 30);  // clamped down to 1M rows
  EXPECT_EQ(DefaultStreamBatchRows(), 1u << 20);
  SetDefaultStreamBatchRows(2048);
  EXPECT_EQ(DefaultStreamBatchRows(), 2048u);

  SetDefaultStreamMaxInflight(0);  // clamped up to 1
  EXPECT_EQ(DefaultStreamMaxInflight(), 1u);
  SetDefaultStreamMaxInflight(1 << 20);  // clamped down to 4096
  EXPECT_EQ(DefaultStreamMaxInflight(), 4096u);

  SetDefaultStreamLatenessBound(0);  // 0 is legal: nothing may be late
  EXPECT_EQ(DefaultStreamLatenessBound(), 0u);

  SetDefaultStreamBatchRows(rows_before);
  SetDefaultStreamMaxInflight(inflight_before);
  SetDefaultStreamLatenessBound(bound_before);
}

TEST(MachineModelTest, SyncKnobDefaultsAndClamping) {
  const uint32_t interval_before = DefaultEpochAdvanceInterval();
  const uint32_t batch_before = DefaultEpochRetireBatch();

  MachineModel{}.ApplyAll();
  EXPECT_EQ(DefaultEpochAdvanceInterval(), 64u);
  EXPECT_EQ(DefaultEpochRetireBatch(), 128u);

  SetDefaultEpochAdvanceInterval(0);  // clamped up to 1
  EXPECT_EQ(DefaultEpochAdvanceInterval(), 1u);
  SetDefaultEpochAdvanceInterval(~0u);  // clamped down to 1M
  EXPECT_EQ(DefaultEpochAdvanceInterval(), 1u << 20);
  SetDefaultEpochAdvanceInterval(256);
  EXPECT_EQ(DefaultEpochAdvanceInterval(), 256u);

  SetDefaultEpochRetireBatch(0);  // clamped up to 1
  EXPECT_EQ(DefaultEpochRetireBatch(), 1u);
  SetDefaultEpochRetireBatch(~0u);  // clamped down to 1M
  EXPECT_EQ(DefaultEpochRetireBatch(), 1u << 20);

  // ApplyAll publishes whatever the model carries.
  MachineModel m;
  m.epoch_advance_interval = 32;
  m.epoch_retire_batch = 512;
  m.ApplyAll();
  EXPECT_EQ(DefaultEpochAdvanceInterval(), 32u);
  EXPECT_EQ(DefaultEpochRetireBatch(), 512u);

  SetDefaultEpochAdvanceInterval(interval_before);
  SetDefaultEpochRetireBatch(batch_before);
}

TEST(MachineModelTest, ApplyAllPublishesModelValues) {
  const uint32_t rows_before = DefaultStreamBatchRows();
  const uint32_t inflight_before = DefaultStreamMaxInflight();
  const uint64_t bound_before = DefaultStreamLatenessBound();

  // ManyCore trims the micro-batch: smaller per-core caches.
  MachineModel m = MachineModel::ManyCore();
  EXPECT_LT(m.stream_batch_rows, MachineModel{}.stream_batch_rows);
  m.ApplyAll();
  EXPECT_EQ(DefaultStreamBatchRows(), m.stream_batch_rows);
  EXPECT_EQ(DefaultStreamMaxInflight(), m.stream_max_inflight);
  EXPECT_EQ(DefaultStreamLatenessBound(), m.stream_lateness_bound);

  SetDefaultStreamBatchRows(rows_before);
  SetDefaultStreamMaxInflight(inflight_before);
  SetDefaultStreamLatenessBound(bound_before);
}

}  // namespace
}  // namespace hwstar::hw
