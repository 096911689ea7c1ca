// Prints the accounting pin (tests/accounting_pin.h) with its header:
//   build/tests/accounting_pin > tests/golden/accounting.txt
#include <cstdio>
#include <string>

#include "accounting_pin.h"

int main() {
  std::fputs(payless::digest::AccountingPinHeader(), stdout);
  for (const std::string& line : payless::digest::ComputeAccountingPin()) {
    std::puts(line.c_str());
  }
  return 0;
}
