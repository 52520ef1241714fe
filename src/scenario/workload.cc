#include "scenario/workload.h"

#include <algorithm>
#include <cmath>

namespace p2p {
namespace scenario {
namespace {

// BackupNetwork's pool sampler needs a population to draw from; matches the
// num_peers floor in backup::SystemOptions::Validate().
constexpr int64_t kPopulationFloor = 16;

int64_t FractionToCount(double fraction, uint32_t num_peers) {
  return static_cast<int64_t>(
      std::llround(std::abs(fraction) * static_cast<double>(num_peers)));
}

}  // namespace

WorkloadEvent WorkloadEvent::FlashCrowd(sim::Round at, double fraction) {
  WorkloadEvent e;
  e.kind = WorkloadKind::kFlashCrowd;
  e.at = at;
  e.fraction = fraction;
  return e;
}

WorkloadEvent WorkloadEvent::MassExit(sim::Round at, double fraction) {
  WorkloadEvent e;
  e.kind = WorkloadKind::kMassExit;
  e.at = at;
  e.fraction = fraction;
  return e;
}

WorkloadEvent WorkloadEvent::Ramp(sim::Round at, double fraction,
                                  sim::Round duration) {
  WorkloadEvent e;
  e.kind = WorkloadKind::kRamp;
  e.at = at;
  e.fraction = fraction;
  e.duration = duration;
  return e;
}

util::Status WorkloadEvent::Validate() const {
  if (at < 1) {
    return util::Status::InvalidArgument(
        "workload event must start at round >= 1, got " + std::to_string(at));
  }
  if (!std::isfinite(fraction) || std::abs(fraction) > 16.0) {
    return util::Status::InvalidArgument("workload fraction out of range");
  }
  switch (kind) {
    case WorkloadKind::kFlashCrowd:
      if (fraction <= 0.0) {
        return util::Status::InvalidArgument(
            "flash-crowd fraction must be > 0");
      }
      break;
    case WorkloadKind::kMassExit:
      if (fraction <= 0.0 || fraction >= 1.0) {
        return util::Status::InvalidArgument(
            "mass-exit fraction must be in (0, 1)");
      }
      break;
    case WorkloadKind::kRamp:
      if (fraction == 0.0) {
        return util::Status::InvalidArgument("ramp fraction must be non-zero");
      }
      if (duration < 1) {
        return util::Status::InvalidArgument(
            "ramp duration must be >= 1 round");
      }
      break;
  }
  if (kind != WorkloadKind::kRamp && duration != 0) {
    return util::Status::InvalidArgument(
        "duration is only meaningful for ramp events");
  }
  return util::Status::OK();
}

util::Status WorkloadSchedule::Validate() const {
  for (size_t i = 0; i < events.size(); ++i) {
    util::Status st = events[i].Validate();
    if (!st.ok()) {
      return util::Status::InvalidArgument(
          "event " + std::to_string(i) + ": " + st.message());
    }
  }
  return util::Status::OK();
}

util::Result<std::vector<backup::PopulationAdjustment>> CompileWorkload(
    const WorkloadSchedule& schedule, uint32_t num_peers) {
  P2P_RETURN_IF_ERROR(schedule.Validate());

  // Sum the counts in 64 bits before building any adjustment. Each join
  // takes an id of its own, and no schedule removes more peers than it ever
  // has: past either bound a count would wrap its uint32_t, and a long ramp
  // would first build one adjustment per peer.
  uint64_t slots = num_peers;
  uint64_t exits = 0;
  for (const WorkloadEvent& e : schedule.events) {
    const auto count =
        static_cast<uint64_t>(FractionToCount(e.fraction, num_peers));
    if (e.kind == WorkloadKind::kMassExit || e.fraction < 0.0) {
      exits += count;
    } else {
      slots += count;
    }
  }
  if (slots > backup::kMaxNormalSlots) {
    return util::Status::InvalidArgument(
        "workload needs " + std::to_string(slots) +
        " peer ids for its peers plus scheduled joins, more than the " +
        std::to_string(backup::kMaxNormalSlots) + " a network has");
  }
  if (exits > slots) {
    return util::Status::InvalidArgument(
        "workload removes " + std::to_string(exits) +
        " peers, more than the " + std::to_string(slots) + " it ever has");
  }

  std::vector<backup::PopulationAdjustment> out;
  for (const WorkloadEvent& e : schedule.events) {
    const int64_t total = FractionToCount(e.fraction, num_peers);
    if (total == 0) continue;  // rounds to nothing at this population scale
    switch (e.kind) {
      case WorkloadKind::kFlashCrowd:
        out.push_back({e.at, static_cast<uint32_t>(total), 0});
        break;
      case WorkloadKind::kMassExit:
        out.push_back({e.at, 0, static_cast<uint32_t>(total)});
        break;
      case WorkloadKind::kRamp: {
        // Spread `total` as evenly as integer arithmetic allows; the
        // cumulative count after r rounds is floor(total * r / duration),
        // so join (or exit) j, counted from 1, lands in round
        // ceil(j * duration / total) - 1. Each pass takes the first join of
        // a round and jumps past that round's last, so the loop runs once
        // per non-empty round: at most `total` times, however long the
        // ramp. The products need 128 bits for long ramps.
        const bool grow = e.fraction > 0.0;
        const __uint128_t n = static_cast<__uint128_t>(total);
        const __uint128_t d = static_cast<__uint128_t>(e.duration);
        for (__uint128_t j = 1; j <= n;) {
          const __uint128_t r = (j * d + n - 1) / n - 1;
          const __uint128_t last = n * (r + 1) / d;
          const auto step = static_cast<uint32_t>(last - j + 1);
          const sim::Round at = e.at + static_cast<sim::Round>(r);
          if (grow) {
            out.push_back({at, step, 0});
          } else {
            out.push_back({at, 0, step});
          }
          j = last + 1;
        }
        break;
      }
    }
  }

  std::stable_sort(out.begin(), out.end(),
                   [](const backup::PopulationAdjustment& a,
                      const backup::PopulationAdjustment& b) {
                     return a.at < b.at;
                   });

  // Feasibility: the live population is exactly num_peers + joins - exits at
  // every point (ordinary churn replaces departures 1:1), so the minimum
  // over all prefixes is static.
  int64_t population = static_cast<int64_t>(num_peers);
  for (const backup::PopulationAdjustment& adj : out) {
    population -= adj.exits;  // exits are applied before joins in a round
    if (population < kPopulationFloor) {
      return util::Status::InvalidArgument(
          "workload drives the population below " +
          std::to_string(kPopulationFloor) + " peers at round " +
          std::to_string(adj.at));
    }
    population += adj.joins;
  }
  return out;
}

const char* WorkloadKindName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kFlashCrowd:
      return "flash-crowd";
    case WorkloadKind::kMassExit:
      return "mass-exit";
    case WorkloadKind::kRamp:
      return "ramp";
  }
  return "flash-crowd";
}

util::Result<WorkloadKind> WorkloadKindFromName(const std::string& name) {
  if (name == "flash-crowd") return WorkloadKind::kFlashCrowd;
  if (name == "mass-exit") return WorkloadKind::kMassExit;
  if (name == "ramp") return WorkloadKind::kRamp;
  return util::Status::InvalidArgument("unknown workload kind: '" + name + "'");
}

}  // namespace scenario
}  // namespace p2p
