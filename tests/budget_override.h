// Test helper shared by the runner test suites.
#pragma once

#include <cstdint>

#include "fs/spill.h"

namespace mrs {

/// Pins the process memory budget for one test body and restores it after.
/// Per-worker combiners switch off under a budget, so a test of them pins
/// it to 0 to stay meaningful under an ambient $MRS_MEMORY_BUDGET.
class BudgetOverride {
 public:
  explicit BudgetOverride(int64_t limit)
      : saved_(MemoryBudget::Process().limit()) {
    MemoryBudget::Process().set_limit(limit);
  }
  ~BudgetOverride() { MemoryBudget::Process().set_limit(saved_); }

  BudgetOverride(const BudgetOverride&) = delete;
  BudgetOverride& operator=(const BudgetOverride&) = delete;

 private:
  int64_t saved_;
};

}  // namespace mrs
