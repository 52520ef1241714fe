// Scenario registry / file tool: list the built-ins, render a scenario in
// the canonical text form, validate a file, or run one end to end.
//
//   ./scenario_tool list                       # registry names, one per line
//   ./scenario_tool policies                   # registered maintenance policies
//   ./scenario_tool selections                 # registered selection strategies
//   ./scenario_tool estimators                 # registered lifetime estimators
//   ./scenario_tool metrics                    # registered result probes
//   ./scenario_tool show flash-crowd           # canonical key=value text
//   ./scenario_tool show flash-crowd > my.scenario   # ... then edit and:
//   ./scenario_tool run my.scenario --peers=500 --rounds=200 --check
//   ./scenario_tool run paper --policy='proactive{batch_blocks=4}' --check
//   ./scenario_tool run paper --estimator='availability-weighted' --check
//
// `policies` / `selections` / `estimators` list every registered strategy
// with its parameters, defaults, and valid ranges (--names for just the
// names, one per line - what scripts/check.sh iterates); `metrics` lists
// every registered probe of the results pipeline (name, unit, shape,
// aggregation - the vocabulary of `metrics.select` in scenario files and
// `sweep_demo --metrics`). `run` validates first,
// simulates, and prints a one-screen summary; with --check it also verifies
// the full partnership/quota invariant set during and after the run (the CI
// smoke loop in scripts/check.sh runs every registered scenario AND every
// registered strategy this way and fails on any Validate() or invariant
// error).

#include <cstdio>
#include <iostream>
#include <memory>

#include "core/strategy_registry.h"
#include "metrics/categories.h"
#include "metrics/registry.h"
#include "scenario/registry.h"
#include "scenario/scenario.h"
#include "scenario/text.h"
#include "trace/sinks.h"
#include "trace/trace.h"
#include "util/flags.h"
#include "util/table.h"

namespace {

int Usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s list\n"
               "       %s policies [--names]\n"
               "       %s selections [--names]\n"
               "       %s estimators [--names]\n"
               "       %s metrics [--names]\n"
               "       %s show <name|file>\n"
               "       %s run <name|file> [--peers=N] [--rounds=R] [--seed=S] "
               "[--policy=SPEC] [--selection=SPEC] [--estimator=SPEC] "
               "[--transfer=LINK] [--check] [--brief] [--trace=FILE]\n",
               prog, prog, prog, prog, prog, prog, prog);
  return 1;
}

// Prints one strategy family: names only, or one table row per (strategy,
// parameter) with parameterless strategies on a single row.
template <typename Strategy>
int PrintStrategies(bool names_only) {
  using p2p::core::ParamValue;
  p2p::util::Table table{{"strategy", "parameter", "type", "default", "range",
                          "description"}};
  for (const auto* d : p2p::core::StrategyRegistry<Strategy>::List()) {
    if (names_only) {
      std::printf("%s\n", d->name.c_str());
      continue;
    }
    table.BeginRow();
    table.Add(d->name);
    table.Add("-");
    table.Add("-");
    table.Add("-");
    table.Add("-");
    table.Add(d->summary);
    for (const p2p::core::ParamInfo& info : d->params) {
      table.BeginRow();
      table.Add("");
      table.Add(info.name);
      table.Add(p2p::core::ParamTypeName(info.type));
      table.Add(info.contextual_default.empty()
                    ? info.def.Render()
                    : "(" + info.contextual_default + ")");
      table.Add("[" + ParamValue::Double(info.min_value).Render() + ", " +
                ParamValue::Double(info.max_value).Render() + "]");
      table.Add(info.help);
    }
  }
  if (!names_only) table.RenderPretty(std::cout);
  return 0;
}

// Overrides `spec` from a --policy / --selection / --estimator value (empty
// keeps the scenario's); false after printing the parse error.
template <typename Strategy>
bool OverrideSpec(const std::string& text,
                  p2p::core::StrategySpec<Strategy>* spec) {
  if (text.empty()) return true;
  auto parsed = p2p::core::StrategySpec<Strategy>::Parse(text);
  if (!parsed.ok()) {
    std::cerr << "--" << p2p::core::StrategyTraits<Strategy>::kLabel << ": "
              << parsed.status().ToString() << "\n";
    return false;
  }
  *spec = *parsed;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace p2p;

  uint32_t peers = 0;
  int64_t rounds = 0;
  int64_t seed = -1;
  bool check = false;
  bool names_only = false;
  bool brief = false;
  std::string policy_spec;
  std::string selection_spec;
  std::string estimator_spec;
  std::string transfer_link;
  std::string trace_path;

  util::FlagSet flags;
  flags.UInt32("peers", &peers, "population size (0 = scenario value)");
  flags.Int64("rounds", &rounds, "rounds to simulate (0 = scenario value)");
  flags.Int64("seed", &seed, "random seed (-1 = scenario value)");
  flags.Bool("check", &check, "verify simulation invariants during the run");
  flags.Bool("names", &names_only,
             "policies/selections/estimators/metrics: print registered "
             "names only");
  flags.String("policy", &policy_spec,
               "run: override the maintenance policy (spec string)");
  flags.String("selection", &selection_spec,
               "run: override the selection strategy (spec string)");
  flags.String("estimator", &estimator_spec,
               "run: override the lifetime estimator (spec string)");
  flags.String("transfer", &transfer_link,
               "run: enable the bandwidth-constrained transfer scheduler on "
               "the named link profile (dsl-2009, dsl-modern, ftth)");
  flags.Bool("brief", &brief,
             "run: print a one-line summary instead of the metric table");
  flags.String("trace", &trace_path,
               "run: record host-runtime phase timings; writes Chrome "
               "trace_event JSON (.json, for about:tracing / Perfetto) or "
               "JSONL spans (.jsonl) and prints the phase summary to stderr");
  if (auto st = flags.Parse(argc, argv); !st.ok()) {
    std::cerr << st.ToString() << "\n";
    return Usage(argv[0]);
  }
  const auto& args = flags.positional();
  if (args.empty()) return Usage(argv[0]);
  const std::string& command = args[0];

  if (command == "list") {
    if (args.size() != 1) return Usage(argv[0]);
    for (const std::string& name : scenario::RegistryNames()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }

  if (command == "policies" || command == "selections" ||
      command == "estimators") {
    if (args.size() != 1) return Usage(argv[0]);
    if (command == "policies") {
      return PrintStrategies<core::MaintenancePolicy>(names_only);
    }
    if (command == "selections") {
      return PrintStrategies<core::SelectionStrategy>(names_only);
    }
    return PrintStrategies<core::LifetimeEstimator>(names_only);
  }

  if (command == "metrics") {
    if (args.size() != 1) return Usage(argv[0]);
    util::Table table(
        {"metric", "unit", "shape", "kind", "aggregation", "default",
         "description"});
    for (const metrics::MetricDescriptor* d : metrics::ListMetrics()) {
      if (names_only) {
        std::printf("%s\n", d->name.c_str());
        continue;
      }
      table.BeginRow();
      table.Add(d->name);
      table.Add(d->unit);
      table.Add(d->per_category ? "per-category" : "scalar");
      table.Add(d->kind == metrics::MetricKind::kCount ? "count" : "real");
      table.Add(d->aggregation == metrics::MetricAggregation::kMoments
                    ? "moments"
                    : "none");
      table.Add(d->default_selected ? "yes" : "no");
      table.Add(d->help);
    }
    if (!names_only) table.RenderPretty(std::cout);
    return 0;
  }

  if (args.size() != 2) return Usage(argv[0]);
  auto loaded = scenario::LoadScenario(args[1]);
  if (!loaded.ok()) {
    std::cerr << loaded.status().ToString() << "\n";
    return 1;
  }
  scenario::Scenario s = std::move(*loaded);

  if (command == "show") {
    std::fputs(scenario::RenderScenarioText(s).c_str(), stdout);
    return 0;
  }
  if (command != "run") return Usage(argv[0]);

  if (auto st = scenario::OverrideScale(peers, rounds, seed, &s); !st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }
  if (!OverrideSpec(policy_spec, &s.options.policy) ||
      !OverrideSpec(selection_spec, &s.options.selection) ||
      !OverrideSpec(estimator_spec, &s.options.estimator)) {
    return 1;
  }
  if (!transfer_link.empty()) {
    s.options.transfer_enabled = true;
    s.options.transfer_link = transfer_link;
  }
  if (auto st = s.Validate(); !st.ok()) {
    std::cerr << "scenario '" << s.name << "': " << st.ToString() << "\n";
    return 1;
  }

  scenario::RunOptions run;
  run.check_invariants = check;
  std::unique_ptr<trace::TraceSession> session;
  if (!trace_path.empty()) {
    session = std::make_unique<trace::TraceSession>();
    session->Install();
  }
  const scenario::Outcome out = scenario::RunScenario(s, run);
  if (session != nullptr) {
    trace::TraceSession::Uninstall();
    trace::WriteSummary(*session, std::cerr);
    if (auto st = trace::WriteTraceFile(*session, trace_path); !st.ok()) {
      std::cerr << st.ToString() << "\n";
      return 1;
    }
    std::fprintf(stderr, "# trace written to %s\n", trace_path.c_str());
  }

  if (brief) {
    const metrics::MetricValue* repairs = out.report.Find("repairs");
    const metrics::MetricValue* losses = out.report.Find("losses");
    std::printf(
        "ok scenario=%s peers=%u rounds=%lld seed=%llu wall_ms=%.0f "
        "repairs=%lld losses=%lld final_population=%lld\n",
        s.name.c_str(), s.peers, static_cast<long long>(s.rounds),
        static_cast<unsigned long long>(s.seed), out.wall_seconds * 1000.0,
        repairs != nullptr ? static_cast<long long>(repairs->scalar) : -1,
        losses != nullptr ? static_cast<long long>(losses->scalar) : -1,
        static_cast<long long>(out.final_population));
    return 0;
  }

  std::printf("# scenario %s: %u peers, %lld rounds, seed %llu%s\n",
              s.name.c_str(), s.peers, static_cast<long long>(s.rounds),
              static_cast<unsigned long long>(s.seed),
              check ? " (invariants verified)" : "");
  // The scenario's metric selection drives the summary: one row per selected
  // scalar, four per per-category probe (the default set prints the five
  // totals plus both per-category rate blocks); a metrics.select line in the
  // file reshapes it without touching this tool.
  auto selection = metrics::ResolveMetricSelection(s.metrics);
  util::Table t({"metric", "value"});
  auto row = [&t](const std::string& name, const std::string& value) {
    t.BeginRow();
    t.Add(name);
    t.Add(value);
  };
  bool selection_has_final_population = false;
  for (const metrics::MetricDescriptor* d : *selection) {
    if (d->name == "final_population") selection_has_final_population = true;
    const metrics::MetricValue* v = out.report.Find(d->name);
    if (v == nullptr) continue;
    auto render = [&](double x) {
      if (d->kind == metrics::MetricKind::kCount) {
        return std::to_string(static_cast<int64_t>(x));
      }
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.3f", x);
      return std::string(buf);
    };
    if (d->per_category) {
      for (int c = 0; c < metrics::kCategoryCount; ++c) {
        row(d->name + "." +
                metrics::CategoryToken(static_cast<metrics::AgeCategory>(c)),
            render(v->per_category[static_cast<size_t>(c)]));
      }
    } else {
      row(d->name, render(v->scalar));
    }
  }
  if (!selection_has_final_population) {
    row("final population", std::to_string(out.final_population));
  }
  row("backed up", std::to_string(out.population.backed_up));
  t.RenderPretty(std::cout);
  std::printf("run took %.1fs\n", out.wall_seconds);
  return 0;
}
