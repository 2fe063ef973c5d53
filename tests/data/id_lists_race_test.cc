#include <latch>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/id_lists.h"

namespace groupsa::data {
namespace {

// Copies of one table share its storage, and the storage goes with the
// last copy, whichever thread drops it. Race-labelled: under
// ThreadSanitizer, a count that is not atomic or a storage that is
// written after it is shared is a reported data race here.
TEST(IdListsRaceTest, CopiesOutliveTheOriginalAcrossThreads) {
  constexpr int kThreads = 4;
  constexpr int kRows = 64;
  IdLists::Builder builder;
  std::vector<int32_t> row;
  int64_t want = 0;
  for (int r = 0; r < kRows; ++r) {
    row.assign(static_cast<size_t>(r % 7), r);
    want += static_cast<int64_t>(row.size()) * r;
    builder.AddRow(row);
  }
  auto original = std::make_unique<IdLists>(std::move(builder).Build());

  std::latch start(kThreads + 1);
  std::vector<int64_t> sums(kThreads, 0);
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&start, &sums, t, held = *original] {
      start.arrive_and_wait();
      int64_t sum = 0;
      for (int i = 0; i < 200; ++i) {
        const IdLists copy = held;
        sum = 0;
        for (int r = 0; r < copy.num_rows(); ++r)
          for (const int32_t id : copy[r]) sum += id;
      }
      sums[static_cast<size_t>(t)] = sum;
    });
  }
  start.arrive_and_wait();
  original.reset();  // the readers' copies now hold the only references
  for (std::thread& reader : readers) reader.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(sums[t], want) << "thread " << t;
}

}  // namespace
}  // namespace groupsa::data
