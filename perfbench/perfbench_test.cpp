// Tests of the benchmark's own logic: tail-percentile choice, self-time
// attribution, error counting, and that perturbed outputs fail the checks.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/fleet.hpp"
#include "core/model.hpp"
#include "fleet/delta.hpp"
#include "fleet/tree.hpp"
#include "report.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

TEST(Tail, TakesTheHighestPercentileWithTenJobsBeyond) {
  std::vector<double> ms;
  for (int i = 100; i >= 1; --i) {
    ms.push_back(i);
  }
  const Tail tail = tail_percentile(ms);
  ASSERT_TRUE(tail.defined);
  EXPECT_EQ(tail.value, 90.0);
  EXPECT_EQ(tail.percentile, 90.0);
  EXPECT_EQ(tail.beyond, 10u);
  EXPECT_EQ(tail.jobs, 100u);
}

TEST(Tail, StopsAtP90WhenMoreJobsLieBeyond) {
  std::vector<double> ms;
  for (int i = 1; i <= 1000; ++i) {
    ms.push_back(i);
  }
  const Tail tail = tail_percentile(ms);
  ASSERT_TRUE(tail.defined);
  EXPECT_EQ(tail.value, 900.0);
  EXPECT_EQ(tail.percentile, 90.0);
  EXPECT_EQ(tail.beyond, 100u);
}

TEST(Tail, FewJobsGiveTheHighestPercentileWithTenBeyond) {
  std::vector<double> ms;
  for (int i = 1; i <= 25; ++i) {
    ms.push_back(i);
  }
  const Tail tail = tail_percentile(ms);
  ASSERT_TRUE(tail.defined);
  EXPECT_EQ(tail.value, 15.0);
  EXPECT_EQ(tail.percentile, 60.0);
  EXPECT_EQ(tail.beyond, 10u);
}

TEST(Tail, ElevenJobsGiveTheSmallest) {
  std::vector<double> ms{5, 3, 9, 1, 7, 2, 8, 4, 6, 10, 11};
  const Tail tail = tail_percentile(ms);
  ASSERT_TRUE(tail.defined);
  EXPECT_EQ(tail.value, 1.0);
  EXPECT_EQ(tail.beyond, 10u);
}

TEST(Tail, TenJobsHaveNoTailAndReportTheSlowest) {
  const Tail tail = tail_percentile({3, 1, 2, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_FALSE(tail.defined);
  EXPECT_EQ(tail.value, 10.0);
  EXPECT_EQ(tail.jobs, 10u);
}

TEST(Tail, TiesAreNotCountedBeyond) {
  std::vector<double> ms(20, 1.0);
  ms.push_back(2.0);
  const Tail tail = tail_percentile(ms);
  ASSERT_TRUE(tail.defined);
  EXPECT_EQ(tail.value, 1.0);
  EXPECT_EQ(tail.beyond, 1u);  // only jobs strictly slower count
}

TEST(Median, EvenAndOddCounts) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(Mean, OfValuesAndOfNone) {
  EXPECT_EQ(mean({1, 2, 6}), 3.0);
  EXPECT_EQ(mean({}), 0.0);
}

SpanRecord span(std::string_view name, std::int64_t id, std::int64_t parent,
                std::int64_t start, std::int64_t end, int thread) {
  return SpanRecord{name, start, end, id, parent, thread};
}

TEST(SelfTime, HandBuiltTreeWithAParallelSection) {
  // job on thread 0; a parallel loop on two threads, each thread's time in
  // it an "acquire.wait" span holding the configurations it ran.
  const std::vector<SpanRecord> spans{
      span("job", 1, -1, 0, 100, 0),
      span("acquire.wait", 2, 1, 10, 80, 0),
      span("acquire.wait", 3, 1, 10, 80, 1),
      span("acquire.config", 4, 2, 10, 50, 0),
      span("acquire.config", 5, 3, 10, 75, 1),
      span("acquire.rows", 6, 1, 85, 95, 0),
      span("sim.run", 7, 4, 15, 45, 0),
  };
  const std::vector<std::int64_t> self = self_times_ns(spans);
  EXPECT_EQ(self[0], 20);  // 100 minus the union [10,80) + [85,95)
  EXPECT_EQ(self[1], 30);  // thread 0 idled 50..80
  EXPECT_EQ(self[2], 5);   // thread 1 idled 75..80
  EXPECT_EQ(self[3], 10);  // 40 minus its sim.run child
  EXPECT_EQ(self[4], 65);
  EXPECT_EQ(self[5], 10);
  EXPECT_EQ(self[6], 30);
  std::int64_t total = 0;
  for (const std::int64_t s : self) {
    total += s;
  }
  EXPECT_EQ(total, 100 + 70);  // wall time plus thread 1's time in the loop
}

TEST(SelfTime, OverlappingAndOverhangingChildrenCountOnce) {
  const std::vector<SpanRecord> spans{
      span("job", 1, -1, 0, 100, 0),
      span("a", 2, 1, 10, 40, 0),
      span("b", 3, 1, 30, 60, 1),
      span("c", 4, 1, 90, 120, 1),  // runs past its parent's end
  };
  EXPECT_EQ(self_times_ns(spans)[0], 100 - 50 - 10);
  const auto by_name = self_ms_by_name(spans);
  EXPECT_DOUBLE_EQ(by_name.at("job"), 40e-6);
}

TEST(SpanRecorder, NestsByThreadAndRecordsNothingWhenDisabled) {
  SpanRecorder off;
  {
    const Span s(&off, "job");
    EXPECT_EQ(s.id(), -1);
  }
  EXPECT_TRUE(off.records().empty());

  SpanRecorder on;
  on.enable(2);
  std::int64_t outer = -1;
  {
    const Span job(&on, "job");
    outer = job.id();
    const Span inner(&on, "core.fit");
    on.add("acquire.wait", 5, 6, outer, 1);
  }
  const std::vector<SpanRecord> records = on.records();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].name, "job");
  EXPECT_EQ(records[0].parent, -1);
  EXPECT_EQ(records[1].parent, outer);
  EXPECT_EQ(records[2].thread, 1);
  EXPECT_EQ(records[2].parent, outer);
  EXPECT_LE(records[0].start_ns, records[1].start_ns);
  EXPECT_GE(records[0].end_ns, records[1].end_ns);
}

TEST(Checks, CountsEveryOperationAndKeepsTheFirstFailure) {
  Checks checks;
  EXPECT_FALSE(checks.all_passed());  // nothing attempted proves nothing
  checks.record("job output", true);
  checks.record("job output", false, "first");
  checks.record("job output", false, "second");
  checks.record("reference", true);
  EXPECT_EQ(checks.attempted(), 4u);
  EXPECT_EQ(checks.failed(), 2u);
  EXPECT_DOUBLE_EQ(checks.error_rate(), 0.5);
  EXPECT_FALSE(checks.all_passed());
  std::ostringstream out;
  checks.print(out);
  EXPECT_NE(out.str().find("check job output: 1/3 passed -- FAILED: first"),
            std::string::npos);
  EXPECT_NE(out.str().find("check reference: 1/1 passed\n"), std::string::npos);
}

pwx::acquire::DataRow sample_row(const std::string& phase, double power) {
  pwx::acquire::DataRow row;
  row.workload = "idle";
  row.phase = phase;
  row.frequency_ghz = 2.0;
  row.threads = 8;
  row.avg_power_watts = power;
  row.avg_voltage = 0.9;
  row.elapsed_s = 1.0;
  row.counter_rates[pwx::pmc::Preset::TOT_INS] = 1e9;
  return row;
}

TEST(OutputCheck, PerturbedRowChangesTheDatasetDigest) {
  const pwx::acquire::Dataset base({sample_row("a", 100.0), sample_row("b", 120.0)});
  pwx::acquire::Dataset same({sample_row("a", 100.0), sample_row("b", 120.0)});
  EXPECT_EQ(dataset_digest(base), dataset_digest(same));

  pwx::acquire::Dataset nudged = base;
  nudged.rows()[1].counter_rates[pwx::pmc::Preset::TOT_INS] =
      std::nextafter(1e9, 2e9);
  EXPECT_NE(dataset_digest(base), dataset_digest(nudged));

  const pwx::acquire::Dataset swapped({sample_row("b", 120.0), sample_row("a", 100.0)});
  EXPECT_NE(dataset_digest(base), dataset_digest(swapped));
}

pwx::core::PowerModel tiny_model() {
  pwx::acquire::Dataset ds;
  for (int i = 0; i < 16; ++i) {
    pwx::acquire::DataRow row = sample_row("p" + std::to_string(i), 60.0 + i);
    row.frequency_ghz = 1.2 + 0.1 * (i % 4);
    row.avg_voltage = 0.8 + 0.02 * (i % 3);
    row.counter_rates[pwx::pmc::Preset::TOT_INS] = 1e9 * (1 + i);
    ds.append(row);
  }
  pwx::core::FeatureSpec spec;
  spec.events = {pwx::pmc::Preset::TOT_INS};
  return pwx::core::train_model(ds, spec);
}

TEST(OutputCheck, PerturbedDeltaFailsTheSnapshotCheck) {
  pwx::fleet::TreeOptions options;
  options.group_count = 2;
  options.shards_per_group = 2;
  pwx::fleet::FleetTree tree(tiny_model(), 0.0, 10.0, options);
  std::vector<pwx::fleet::TreeSample> batch;
  for (int n = 0; n < 32; ++n) {
    const pwx::fleet::TreeNodeId id = tree.intern("node" + std::to_string(n));
    pwx::fleet::TreeSample ts;
    ts.group = id.group;
    ts.sample.node = id.local;
    ts.sample.now_s = 1.0;
    ts.sample.sample = tree.layout().make_sample();
    ts.sample.sample.elapsed_s = 1.0;
    ts.sample.sample.frequency_ghz = 2.0;
    ts.sample.sample.voltage = 0.9;
    ts.sample.sample.counts[0] = 1e9 * (1 + n % 5);
    batch.push_back(ts);
  }
  tree.ingest_batch(batch);
  const std::uint64_t snapshot = pwx::core::snapshot_digest(tree.snapshot(1.0));

  const auto merged_digest = [&](bool perturb) {
    pwx::fleet::DeltaMerger merger;
    for (std::uint32_t g = 0; g < 2; ++g) {
      pwx::fleet::FleetDelta delta = pwx::fleet::decode_delta(
          pwx::fleet::encode_delta(tree.group_delta(g, 1.0, 1)));
      if (perturb && g == 1) {
        delta.shards[0].fresh_sum = std::nextafter(delta.shards[0].fresh_sum, 0.0);
      }
      merger.add(std::move(delta));
    }
    return pwx::core::snapshot_digest(merger.merge());
  };
  EXPECT_EQ(merged_digest(false), snapshot);
  EXPECT_NE(merged_digest(true), snapshot);
}

TEST(Report, ResultLineCarriesEveryDigit) {
  const std::string line =
      result_json(true, 3, 0, {{"job_mean_ms", 1.0 / 3.0, "ms"}, {"setup_s", 2.5, "s"}});
  EXPECT_EQ(line,
            R"({"correct": true, "attempted": 3, "failed": 0, "metrics": {)"
            R"("job_mean_ms": {"value": 0.33333333333333331, "unit": "ms"}, )"
            R"("setup_s": {"value": 2.5, "unit": "s"}}})");
}

}  // namespace
}  // namespace perfbench
