// iph::stats unit tests: instrument semantics (Prometheus `le`
// bucketing, quantile interpolation), snapshot/diff across resets, the
// labeled-name convention, both exporters (including from_json's strict
// rejection — benchreport's exit-3 contract depends on it), and a
// multi-threaded hammering test that demands EXACT final counts: the
// relaxed-atomic recording path must lose nothing. Run under TSan in CI
// (tsan-race-check builds the whole suite), where the same test also
// proves the recording path is data-race-free.
#include "stats/stats.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "stats/export.h"
#include "trace/json.h"

namespace iph::stats {
namespace {

TEST(Counter, MonotonicAndDefaultStep) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetAndAddAreLevels) {
  Gauge g;
  g.set(7);
  g.add(-10);
  EXPECT_EQ(g.value(), -3);
}

TEST(Histogram, LeBucketSemantics) {
  // Prometheus `le`: a value equal to a bound lands in that bound's
  // bucket; past the last finite bound is the +Inf overflow slot.
  Histogram h({1.0, 2.0, 4.0});
  h.record(0.5);
  h.record(1.0);
  h.record(1.5);
  h.record(4.0);
  h.record(9.0);
  const HistogramSnapshot s = h.snapshot();
  ASSERT_EQ(s.buckets.size(), 4u);
  EXPECT_EQ(s.buckets[0], 2u);  // 0.5, 1.0
  EXPECT_EQ(s.buckets[1], 1u);  // 1.5
  EXPECT_EQ(s.buckets[2], 1u);  // 4.0
  EXPECT_EQ(s.buckets[3], 1u);  // 9.0 -> +Inf
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.sum, 16.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.2);
  EXPECT_DOUBLE_EQ(HistogramSnapshot{}.mean(), 0.0);
}

TEST(Histogram, BoundsAreSanitized) {
  Histogram h({4.0, 1.0, 1.0, 2.0});
  EXPECT_EQ(h.bounds(), (std::vector<double>{1.0, 2.0, 4.0}));
  EXPECT_EQ(h.bucket_count(), 4u);
}

TEST(Histogram, QuantileInterpolatesInsideBucket) {
  Histogram h({10.0, 20.0});
  for (int i = 0; i < 10; ++i) h.record(5.0);
  const HistogramSnapshot s = h.snapshot();
  // All mass in bucket (0, 10]: the median interpolates to its middle.
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 10.0);
}

TEST(Histogram, QuantileSaturatesAtLastFiniteBound) {
  Histogram h({10.0, 20.0});
  for (int i = 0; i < 4; ++i) h.record(30.0);  // all in +Inf
  const HistogramSnapshot s = h.snapshot();
  EXPECT_DOUBLE_EQ(s.quantile(0.9), 20.0);
}

TEST(Histogram, QuantileOfEmptyIsZero) {
  Histogram h({1.0});
  EXPECT_DOUBLE_EQ(h.snapshot().quantile(0.99), 0.0);
}

// Satellite acceptance test: N threads hammer one histogram (and one
// counter) concurrently; every record must land — final count, per-
// bucket tallies and the double sum are asserted EXACTLY. Values are
// small integers so the CAS-added sum is order-independent (integer
// adds in double are associative well below 2^53). TSan watches the
// interleavings when the suite runs under tsan-race-check.
TEST(Stats, ConcurrentRecordingLosesNothing) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  Registry reg;
  Counter& c = reg.counter("hits_total");
  Histogram& h = reg.histogram("val", {0.0, 1.0, 2.0, 3.0});
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &h] {
      for (int j = 0; j < kPerThread; ++j) {
        c.inc();
        h.record(static_cast<double>(j % 5));  // 0..4, 4 -> +Inf
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const RegistrySnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_or0("hits_total"),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  const HistogramSnapshot* hs = snap.histogram("val");
  ASSERT_NE(hs, nullptr);
  constexpr std::uint64_t kPerBucket =
      static_cast<std::uint64_t>(kThreads) * (kPerThread / 5);
  ASSERT_EQ(hs->buckets.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(hs->buckets[i], kPerBucket);
  EXPECT_EQ(hs->count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  // sum = threads * (count/5) * (0+1+2+3+4), exactly representable.
  EXPECT_DOUBLE_EQ(hs->sum, static_cast<double>(kPerBucket) * 10.0);
}

TEST(Registry, SameNameReturnsSameInstrument) {
  Registry reg;
  Counter& a = reg.counter("x_total");
  Counter& b = reg.counter("x_total");
  EXPECT_EQ(&a, &b);
  a.inc(3);
  EXPECT_EQ(b.value(), 3u);
  // Histogram bounds: first registration wins.
  Histogram& h1 = reg.histogram("h", {1.0, 2.0});
  Histogram& h2 = reg.histogram("h", {99.0});
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds(), (std::vector<double>{1.0, 2.0}));
}

TEST(Snapshot, DiffSubtractsCountersAndBuckets) {
  Registry reg;
  Counter& c = reg.counter("c_total");
  Gauge& g = reg.gauge("depth");
  Histogram& h = reg.histogram("lat", {1.0, 2.0});
  c.inc(5);
  g.set(3);
  h.record(0.5);
  const RegistrySnapshot before = reg.snapshot();
  c.inc(2);
  g.set(9);
  h.record(1.5);
  h.record(1.5);
  const RegistrySnapshot d = reg.snapshot().diff(before);
  EXPECT_EQ(d.counter_or0("c_total"), 2u);
  // Gauges are levels, not rates: the diff keeps the current value.
  ASSERT_NE(d.gauge("depth"), nullptr);
  EXPECT_EQ(*d.gauge("depth"), 9);
  const HistogramSnapshot* hd = d.histogram("lat");
  ASSERT_NE(hd, nullptr);
  EXPECT_EQ(hd->buckets[0], 0u);
  EXPECT_EQ(hd->buckets[1], 2u);
  EXPECT_EQ(hd->count, 2u);
  EXPECT_DOUBLE_EQ(hd->sum, 3.0);
}

TEST(Snapshot, DiffAcrossResetTakesCurrentWholesale) {
  // A counter that went backwards means the source registry was
  // restarted between the snapshots; the diff is everything since.
  RegistrySnapshot earlier, later;
  earlier.counters.emplace_back("c_total", 10u);
  later.counters.emplace_back("c_total", 4u);
  HistogramSnapshot eh;
  eh.bounds = {1.0};
  eh.buckets = {7, 0};
  eh.count = 7;
  eh.sum = 3.5;
  HistogramSnapshot lh;
  lh.bounds = {1.0};
  lh.buckets = {2, 0};
  lh.count = 2;
  lh.sum = 1.0;
  earlier.histograms.emplace_back("h", eh);
  later.histograms.emplace_back("h", lh);
  const RegistrySnapshot d = later.diff(earlier);
  EXPECT_EQ(d.counter_or0("c_total"), 4u);
  const HistogramSnapshot* hd = d.histogram("h");
  ASSERT_NE(hd, nullptr);
  EXPECT_EQ(hd->count, 2u);
  EXPECT_EQ(hd->buckets[0], 2u);
}

TEST(Snapshot, DiffAgainstMismatchedShapeTakesCurrent) {
  HistogramSnapshot earlier, later;
  earlier.bounds = {1.0, 2.0};
  earlier.buckets = {1, 1, 0};
  earlier.count = 2;
  later.bounds = {5.0};
  later.buckets = {3, 1};
  later.count = 4;
  const HistogramSnapshot d = later.diff(earlier);
  EXPECT_EQ(d.count, 4u);
  EXPECT_EQ(d.bounds, later.bounds);
}

TEST(Labeled, BakesLabelIntoName) {
  EXPECT_EQ(labeled("iph_serve_rejected_total", "reason", "full"),
            "iph_serve_rejected_total{reason=\"full\"}");
}

TEST(Export, JsonRoundTrips) {
  Registry reg;
  reg.counter(labeled("rej_total", "reason", "full")).inc(3);
  reg.gauge("depth").set(-2);
  Histogram& h = reg.histogram("lat", {1.0, 2.0});
  h.record(0.5);
  h.record(5.0);
  const RegistrySnapshot snap = reg.snapshot();
  RegistrySnapshot back;
  std::string err;
  ASSERT_TRUE(from_json(to_json(snap), back, &err)) << err;
  EXPECT_EQ(back.counters, snap.counters);
  EXPECT_EQ(back.gauges, snap.gauges);
  ASSERT_EQ(back.histograms.size(), 1u);
  EXPECT_EQ(back.histograms[0].first, "lat");
  EXPECT_EQ(back.histograms[0].second.buckets, snap.histograms[0].second.buckets);
  EXPECT_EQ(back.histograms[0].second.count, snap.histograms[0].second.count);
  EXPECT_DOUBLE_EQ(back.histograms[0].second.sum, snap.histograms[0].second.sum);
}

TEST(Export, FromJsonRejectsMalformedInput) {
  RegistrySnapshot out;
  std::string err;
  trace::Json j;
  ASSERT_TRUE(trace::Json::parse("{\"schema\":\"wrong\"}", &j, &err));
  EXPECT_FALSE(from_json(j, out, &err));
  EXPECT_NE(err.find("schema"), std::string::npos);

  ASSERT_TRUE(trace::Json::parse(
      "{\"schema\":\"iph-stats-v1\",\"counters\":12,"
      "\"gauges\":{},\"histograms\":{}}",
      &j, &err));
  EXPECT_FALSE(from_json(j, out, &err));

  // Histogram whose buckets are not bounds+1 (a truncated upload).
  ASSERT_TRUE(trace::Json::parse(
      "{\"schema\":\"iph-stats-v1\",\"counters\":{},\"gauges\":{},"
      "\"histograms\":{\"h\":{\"bounds\":[1,2],\"buckets\":[0,1],"
      "\"count\":1,\"sum\":0.5}}}",
      &j, &err));
  EXPECT_FALSE(from_json(j, out, &err));
  EXPECT_NE(err.find("bounds+1"), std::string::npos);
}

TEST(Export, PrometheusShape) {
  Registry reg;
  reg.counter(labeled("rej_total", "reason", "full")).inc(3);
  reg.counter(labeled("rej_total", "reason", "shutdown")).inc(1);
  Histogram& h = reg.histogram(labeled("lat", "queue", "small"), {1.0});
  h.record(0.5);
  h.record(9.0);
  const std::string text = to_prometheus(reg.snapshot());
  // Labeled siblings share one TYPE line.
  EXPECT_EQ(text.find("# TYPE rej_total counter"),
            text.rfind("# TYPE rej_total counter"));
  EXPECT_NE(text.find("rej_total{reason=\"full\"} 3"), std::string::npos);
  // `le` is spliced into the existing label set; buckets are cumulative.
  EXPECT_NE(text.find("lat_bucket{queue=\"small\",le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("lat_bucket{queue=\"small\",le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("lat_count{queue=\"small\"} 2"), std::string::npos);
}

}  // namespace
}  // namespace iph::stats
