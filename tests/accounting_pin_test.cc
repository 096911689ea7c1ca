// Accounting pinned: under seeded faults, every query must report the
// committed spend, spend by dataset, counterfactual, savings, error code
// and EXPLAIN ANALYZE text, every batch its committed prefetch and total
// spend, and the cost and savings ledgers their committed documents
// (tests/golden/accounting.txt).
#include "accounting_pin.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace payless::digest {
namespace {

TEST(AccountingPinTest, EveryQueryReportsItsSpendAsCommitted) {
  std::ifstream in(ACCOUNTING_GOLDEN);
  std::vector<std::string> want;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') want.push_back(line);
  }
  ASSERT_FALSE(want.empty()) << "cannot read " << ACCOUNTING_GOLDEN;
  const std::vector<std::string> got = ComputeAccountingPin();
  constexpr size_t kShown = 10;
  size_t differing = 0;
  std::ostringstream diff;
  for (size_t i = 0; i < std::max(want.size(), got.size()); ++i) {
    const std::string committed = i < want.size() ? want[i] : "(none)";
    const std::string now = i < got.size() ? got[i] : "(none)";
    if (committed == now) continue;
    if (++differing <= kShown) {
      diff << "\n  committed: " << committed << "\n  now:       " << now;
    }
  }
  EXPECT_EQ(differing, 0u)
      << "lines that differ (first " << kShown << "):" << diff.str()
      << "\nA declared accounting change regenerates the file: "
         "build/tests/accounting_pin > tests/golden/accounting.txt";
}

}  // namespace
}  // namespace payless::digest
