// Heavier concurrency torture: long mixed workloads at high (oversubscribed)
// thread counts with full invariant verification. These run a few seconds
// each — they are the closest this suite gets to the paper's 100+-core
// adversarial interleavings.
#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <thread>

#include "core/refiner.hpp"
#include "delaunay/mesh.hpp"
#include "delaunay/operations.hpp"
#include "imaging/phantom.hpp"

namespace pi2m {
namespace {

TEST(Torture, SixteenThreadsMixedOpsOnKernel) {
  DelaunayMesh mesh({{0, 0, 0}, {1, 1, 1}}, 1 << 17, 1 << 20);
  constexpr int kThreads = 16;
  // Each thread runs until it has committed its own quota, so the floor no
  // longer depends on how the early conflict storm on the tiny box mesh is
  // scheduled (a fixed attempt budget measured scheduler luck). The totals
  // still exceed 3000 inserts and 500 removals. The attempt cap is the
  // livelock detector: far above what the quotas need even when most
  // attempts roll back.
  constexpr std::uint64_t kInsertQuota = 200;
  constexpr std::uint64_t kRemoveQuota = 40;
  constexpr std::uint64_t kAttemptCap = 1'000'000;
  struct Tally {
    std::uint64_t inserts = 0, removes = 0, conflicts = 0;
  };
  std::vector<Tally> tally(kThreads);

  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      OpScratch s;
      std::mt19937 rng(5000 + t);
      std::uniform_real_distribution<double> u(0.02, 0.98);
      std::vector<VertexId> mine;
      CellId hint = 0;
      Tally& me = tally[static_cast<std::size_t>(t)];
      for (std::uint64_t i = 0;
           i < kAttemptCap &&
           (me.inserts < kInsertQuota || me.removes < kRemoveQuota);
           ++i) {
        const bool remove = !mine.empty() && me.removes < kRemoveQuota &&
                            (i % 3 == 2 || me.inserts >= kInsertQuota);
        if (remove) {
          const OpResult r = remove_vertex(mesh, mine.back(), t, s);
          if (r.status == OpStatus::Success) {
            mine.pop_back();
            ++me.removes;
          } else if (r.status == OpStatus::Conflict) {
            ++me.conflicts;
            std::this_thread::yield();
          } else if (r.status == OpStatus::Failed) {
            mine.pop_back();  // permanently unremovable; try another
          }
        } else {
          const OpResult r = insert_point(mesh, {u(rng), u(rng), u(rng)},
                                          VertexKind::Circumcenter, hint, t, s);
          if (r.status == OpStatus::Success) {
            mine.push_back(r.new_vertex);
            ++me.inserts;
            hint = s.created.front();
          } else if (r.status == OpStatus::Conflict) {
            ++me.conflicts;
            std::this_thread::yield();
          }
        }
      }
    });
  }
  for (auto& th : pool) th.join();

  std::uint64_t inserts = 0, removes = 0;
  for (int t = 0; t < kThreads; ++t) {
    const Tally& me = tally[static_cast<std::size_t>(t)];
    EXPECT_GE(me.inserts, kInsertQuota)
        << "thread " << t << " (" << me.conflicts << " conflicts)";
    EXPECT_GE(me.removes, kRemoveQuota)
        << "thread " << t << " (" << me.conflicts << " conflicts)";
    inserts += me.inserts;
    removes += me.removes;
  }
  EXPECT_GT(inserts, 3000u);
  EXPECT_GT(removes, 500u);
  EXPECT_EQ(mesh.check_integrity(/*check_delaunay=*/true), "");
  EXPECT_NEAR(mesh.total_volume(), 1.0, 1e-9);
  for (VertexId v = 0; v < mesh.vertex_count(); ++v) {
    ASSERT_EQ(mesh.vertex(v).owner.load(), -1) << "leaked lock on " << v;
  }
}

TEST(Torture, RefinerSixteenThreadsEveryConfig) {
  // One substantial refinement per CM at 16 threads, all invariants on.
  const LabeledImage3D img = phantom::abdominal(36, 36, 36);
  for (const CmKind cm :
       {CmKind::Random, CmKind::Global, CmKind::Local}) {
    RefinerOptions opt;
    opt.threads = 16;
    opt.topology = {2, 2};
    opt.rules.delta = 1.4;
    opt.cm = cm;
    opt.watchdog_sec = 60.0;
    Refiner refiner(img, opt);
    const RefineOutcome out = refiner.refine();
    ASSERT_TRUE(out.completed) << to_string(cm);
    EXPECT_EQ(refiner.mesh().check_integrity(false), "") << to_string(cm);
    const Vec3 ext = refiner.mesh().box().extent();
    EXPECT_NEAR(refiner.mesh().total_volume(), ext.x * ext.y * ext.z,
                1e-6 * ext.x * ext.y * ext.z)
        << to_string(cm);
    for (VertexId v = 0; v < refiner.mesh().vertex_count(); ++v) {
      ASSERT_EQ(refiner.mesh().vertex(v).owner.load(), -1)
          << to_string(cm) << " leaked lock " << v;
    }
  }
}

TEST(Torture, RepeatedRefinementsAreConsistent) {
  // Same input meshed repeatedly (different thread counts) must agree on
  // the element count within a small tolerance: the mesh is not literally
  // deterministic under concurrency, but the refinement rules pin the
  // density.
  const LabeledImage3D img = phantom::concentric_shells(28);
  std::vector<std::size_t> counts;
  for (const int threads : {1, 4, 16}) {
    RefinerOptions opt;
    opt.threads = threads;
    opt.rules.delta = 1.6;
    Refiner refiner(img, opt);
    const RefineOutcome out = refiner.refine();
    ASSERT_TRUE(out.completed);
    counts.push_back(out.mesh_cells);
  }
  for (const std::size_t c : counts) {
    EXPECT_NEAR(static_cast<double>(c), static_cast<double>(counts[0]),
                0.15 * counts[0]);
  }
}

}  // namespace
}  // namespace pi2m
