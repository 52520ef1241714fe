#include "churn/profile.h"

#include <cmath>

namespace p2p {
namespace churn {

util::Status Profile::Validate() const {
  if (name.empty()) {
    return util::Status::InvalidArgument("profile needs a name");
  }
  if (proportion < 0.0 || proportion > 1.0) {
    return util::Status::InvalidArgument(
        "profile '" + name + "': proportion must be in [0, 1]");
  }
  if (availability <= 0.0 || availability >= 1.0) {
    return util::Status::InvalidArgument(
        "profile '" + name + "': availability must be in (0, 1)");
  }
  if (sessions == SessionKind::kDiurnal && session_cycle < 2) {
    return util::Status::InvalidArgument(
        "profile '" + name + "': session cycle must be >= 2 rounds");
  }
  util::Status life = lifetime.Validate();
  if (!life.ok()) {
    return util::Status::InvalidArgument("profile '" + name +
                                         "': " + life.message());
  }
  return util::Status::OK();
}

ProfileSet::ProfileSet(std::vector<Profile> profiles)
    : profiles_(std::move(profiles)) {
  sessions_.reserve(profiles_.size());
  cumulative_.reserve(profiles_.size());
  double acc = 0.0;
  for (const Profile& p : profiles_) {
    sessions_.push_back(p.sessions == SessionKind::kBernoulli
                            ? SessionProcess::BernoulliRounds(p.availability)
                            : SessionProcess::DiurnalSessions(
                                  p.availability,
                                  static_cast<double>(p.session_cycle)));
    acc += p.proportion;
    cumulative_.push_back(acc);
  }
  cumulative_.back() = 1.0;  // absorb rounding
}

util::Result<ProfileSet> ProfileSet::Create(std::vector<Profile> profiles) {
  if (profiles.empty()) {
    return util::Status::InvalidArgument("population needs >= 1 profile");
  }
  double total = 0.0;
  for (const Profile& p : profiles) {
    P2P_RETURN_IF_ERROR(p.Validate());
    total += p.proportion;
  }
  if (std::abs(total - 1.0) > 1e-9) {
    return util::Status::InvalidArgument(
        "profile proportions must sum to 1, got " + std::to_string(total));
  }
  return ProfileSet(std::move(profiles));
}

uint32_t ProfileSet::SampleIndex(util::Rng* rng) const {
  const double u = rng->NextDouble();
  for (size_t i = 0; i < cumulative_.size(); ++i) {
    if (u < cumulative_[i]) return static_cast<uint32_t>(i);
  }
  return static_cast<uint32_t>(cumulative_.size() - 1);
}

util::Result<SessionKind> SessionKindFromName(const std::string& name) {
  if (name == "diurnal") return SessionKind::kDiurnal;
  if (name == "bernoulli") return SessionKind::kBernoulli;
  return util::Status::InvalidArgument("unknown session kind: '" + name + "'");
}

}  // namespace churn
}  // namespace p2p
