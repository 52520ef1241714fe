// Peer behaviour profiles: one profile is a population share, a lifetime
// law and an availability process. The paper's own table (section 4.1.1)
// is scenario::PopulationSpec::Paper().
//
// "Each peer belongs to a profile and it cannot change during the
// simulation. A peer cannot know to which profile an other peer belongs."

#ifndef P2P_CHURN_PROFILE_H_
#define P2P_CHURN_PROFILE_H_

#include <string>
#include <vector>

#include "churn/availability.h"
#include "churn/lifetime.h"
#include "sim/clock.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/status.h"

namespace p2p {
namespace churn {

/// Which on/off session process realizes a profile's availability.
enum class SessionKind {
  kDiurnal,    ///< alternating sessions with a fixed mean cycle (default 1 day)
  kBernoulli,  ///< independent per-round coin
};

/// \brief One behaviour class.
struct Profile {
  std::string name;
  double proportion = 0.0;    ///< population share in [0, 1]
  double availability = 0.0;  ///< stationary online probability in (0, 1)
  LifetimeSpec lifetime;
  SessionKind sessions = SessionKind::kDiurnal;
  /// kDiurnal: mean on+off cycle length in rounds.
  sim::Round session_cycle = sim::kRoundsPerDay;

  util::Status Validate() const;

  friend bool operator==(const Profile& a, const Profile& b) {
    return a.name == b.name && a.proportion == b.proportion &&
           a.availability == b.availability && a.lifetime == b.lifetime &&
           a.sessions == b.sessions && a.session_cycle == b.session_cycle;
  }
  friend bool operator!=(const Profile& a, const Profile& b) {
    return !(a == b);
  }
};

/// \brief A validated population mix, ready to sample; proportions sum to 1.
class ProfileSet {
 public:
  /// Checks each profile and the proportion sum, then builds each profile's
  /// session process.
  static util::Result<ProfileSet> Create(std::vector<Profile> profiles);

  /// Number of profiles.
  size_t size() const { return profiles_.size(); }

  /// Profile by index.
  const Profile& operator[](size_t i) const { return profiles_[i]; }

  /// The session process of profile `i`.
  const SessionProcess& sessions(size_t i) const { return sessions_[i]; }

  /// Draws a profile index according to the proportions.
  uint32_t SampleIndex(util::Rng* rng) const;

 private:
  explicit ProfileSet(std::vector<Profile> profiles);

  std::vector<Profile> profiles_;
  std::vector<SessionProcess> sessions_;
  std::vector<double> cumulative_;
};

/// Token map for the text format ("diurnal", "bernoulli").
util::Result<SessionKind> SessionKindFromName(const std::string& name);

}  // namespace churn
}  // namespace p2p

#endif  // P2P_CHURN_PROFILE_H_
