#include "dp/budget.h"

#include "common/str_util.h"

namespace pso::dp {

namespace {

// Absolute slack for the budget comparison: repeated floating-point
// charges (k * eps) can land a hair above the cap they should exactly
// meet; a nano-epsilon of grace keeps "10 charges of 0.1 against a budget
// of 1.0" admitting all ten on every platform.
constexpr double kBudgetSlack = 1e-9;

}  // namespace

BudgetLedger::BudgetLedger(double budget_eps) : budget_eps_(budget_eps) {}

Result<uint64_t> BudgetLedger::Charge(uint64_t client, double eps) {
  if (eps < 0.0) {
    return Status::InvalidArgument(
        StrFormat("negative epsilon charge %.6f", eps));
  }
  double spent = 0.0;
  {
    MutexLock lock(mu_);
    BudgetClientState& state = clients_[client];
    if (budget_eps_ <= 0.0 ||
        state.spent_eps + eps <= budget_eps_ + kBudgetSlack) {
      state.spent_eps += eps;
      return state.answered++;
    }
    ++state.rejected;
    spent = state.spent_eps;
  }
  // Format the rejection off the ledger lock: StrFormat allocates, and a
  // burst of over-budget clients must not serialize the admission path
  // behind message rendering. It also keeps the ledger lock a leaf
  // (common/mutex.h): nothing here can reach the log or metrics locks.
  return Status::ResourceExhausted(StrFormat(
      "client %llu over budget: spent %.6f + query %.6f > cap %.6f",
      static_cast<unsigned long long>(client), spent, eps, budget_eps_));
}

BudgetClientState BudgetLedger::ClientState(uint64_t client) const {
  MutexLock lock(mu_);
  auto it = clients_.find(client);
  return it == clients_.end() ? BudgetClientState{} : it->second;
}

size_t BudgetLedger::NumClients() const {
  MutexLock lock(mu_);
  return clients_.size();
}

uint64_t BudgetLedger::TotalAnswered() const {
  MutexLock lock(mu_);
  uint64_t total = 0;
  for (const auto& [id, state] : clients_) total += state.answered;
  return total;
}

uint64_t BudgetLedger::TotalRejected() const {
  MutexLock lock(mu_);
  uint64_t total = 0;
  for (const auto& [id, state] : clients_) total += state.rejected;
  return total;
}

std::vector<uint64_t> BudgetLedger::RejectedClients() const {
  MutexLock lock(mu_);
  std::vector<uint64_t> out;
  out.reserve(clients_.size());
  for (const auto& [id, state] : clients_) {
    if (state.rejected > 0) out.push_back(id);
  }
  return out;
}

}  // namespace pso::dp
