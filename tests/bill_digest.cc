// Prints the bill digest (tests/bill_digest.h) with its header:
//   build/tests/bill_digest > tests/golden/bills.txt
#include <cstdio>
#include <string>

#include "bill_digest.h"

int main() {
  std::fputs(payless::digest::DigestHeader(), stdout);
  for (const std::string& line : payless::digest::ComputeBillDigest()) {
    std::puts(line.c_str());
  }
  return 0;
}
