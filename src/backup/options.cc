#include "backup/options.h"

#include <climits>
#include <string>

#include "transfer/link.h"
#include "util/text.h"

namespace p2p {
namespace backup {
namespace {

util::Status Invalid(const std::string& msg) {
  return util::Status::InvalidArgument(msg);
}

}  // namespace

util::Status SystemOptions::Validate() const {
  if (num_peers < 16) {
    // Pool sampling needs a population to draw from; tiny populations can
    // never fill a candidate pool.
    return Invalid("num_peers must be >= 16, got " + std::to_string(num_peers));
  }
  if (k < 1) {
    return Invalid("k must be >= 1, got " + std::to_string(k));
  }
  if (m < 0) {
    return Invalid("m must be >= 0, got " + std::to_string(m));
  }
  if (m > INT_MAX - k) {
    return Invalid("m must be <= " + std::to_string(INT_MAX - k) +
                   " so that k + m fits an int, got " + std::to_string(m));
  }
  const int n = k + m;
  if (repair_threshold < k || repair_threshold > n) {
    return Invalid("repair_threshold " + std::to_string(repair_threshold) +
                   " outside [k, k + m] = [" + std::to_string(k) + ", " +
                   std::to_string(n) + "]");
  }
  if (quota_blocks <= 0) {
    return Invalid("quota_blocks must be positive, got " +
                   std::to_string(quota_blocks));
  }
  if (partner_timeout < 1) {
    return Invalid("partner_timeout must be >= 1 round, got " +
                   std::to_string(partner_timeout));
  }
  if (max_partner_factor < 1.0) {
    return Invalid("max_partner_factor must be >= 1.0");
  }
  // Both factors scale k + m into an int: the instant-mode partner cap and
  // the candidate pool target of a repair.
  if (!(max_partner_factor * n <= INT_MAX)) {
    return Invalid("max_partner_factor * (k + m) must fit an int, got " +
                   util::RenderShortestDouble(max_partner_factor) + " * " +
                   std::to_string(n));
  }
  if (acceptance_horizon < 1) {
    return Invalid("acceptance_horizon must be >= 1 round");
  }
  if (pool_factor <= 0.0) {
    return Invalid("pool_factor must be positive");
  }
  if (!(pool_factor * n <= INT_MAX)) {
    return Invalid("pool_factor * (k + m) must fit an int, got " +
                   util::RenderShortestDouble(pool_factor) + " * " +
                   std::to_string(n));
  }
  if (sample_attempt_factor < 1) {
    return Invalid("sample_attempt_factor must be >= 1");
  }
  if (max_blocks_per_round < 0) {
    return Invalid("max_blocks_per_round must be >= 0 (0 = unlimited)");
  }
  if (departure_grace < 0) {
    return Invalid("departure_grace must be >= 0 rounds");
  }
  if (loss_rate_tau < 1) {
    // A non-positive EMA time constant divides by zero in the loss-rate
    // decay; name the value so sweep errors point at the offending cell.
    return Invalid("loss_rate_tau must be >= 1 round, got " +
                   std::to_string(loss_rate_tau));
  }
  if (sample_interval < 1) {
    // sample_interval <= 0 would stall the series sampler (next_sample_
    // never advances past now).
    return Invalid("sample_interval must be >= 1 round, got " +
                   std::to_string(sample_interval));
  }
  // The link name must resolve even when transfers are disabled, so a sweep
  // with a link axis fails at expansion rather than mid-run.
  if (util::Result<net::LinkProfile> link = transfer::FindLinkProfile(transfer_link);
      !link.ok()) {
    return link.status();
  }
  // Strategy specs: name must be registered, parameters typed and in range.
  if (util::Status st = policy.Validate(); !st.ok()) return st;
  if (util::Status st = selection.Validate(); !st.ok()) return st;
  if (util::Status st = estimator.Validate(); !st.ok()) return st;
  return util::Status::OK();
}

bool SameOption(const OptionKey& row, const SystemOptions& a,
                const SystemOptions& b) {
  return std::visit([&](auto member) { return a.*member == b.*member; },
                    row.member);
}

bool operator==(const SystemOptions& a, const SystemOptions& b) {
  if (a.num_peers != b.num_peers) return false;
  for (const OptionKey& row : kOptionKeys) {
    if (!SameOption(row, a, b)) return false;
  }
  return true;
}

const char* VisibilityModelName(VisibilityModel model) {
  switch (model) {
    case VisibilityModel::kInstantOnline:
      return "instant";
    case VisibilityModel::kTimeoutPresumed:
      return "timeout";
  }
  return "timeout";
}

util::Result<VisibilityModel> VisibilityModelFromName(const std::string& name) {
  if (name == "instant") return VisibilityModel::kInstantOnline;
  if (name == "timeout") return VisibilityModel::kTimeoutPresumed;
  return util::Status::InvalidArgument("unknown visibility model: '" + name +
                                       "'");
}

}  // namespace backup
}  // namespace p2p
