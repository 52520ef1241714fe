// Drive a multi-axis scenario sweep (repair threshold x host quota x named
// scenario x policy spec x selection spec) through the parallel runner and
// print a report.
//
//   ./sweep_demo --thresholds=132,148,164 --quotas=256,384
//                --scenarios=paper,flash-crowd
//                --policies='fixed-threshold,proactive{batch_blocks=8}'
//                --selections='oldest-first,weighted-random{age_exponent=2}'
//                --estimators='age-rank,availability-weighted{exponent=2}'
//                --metrics=repairs,losses,repair_bandwidth,time_to_repair_mean
//                --replicates=3 --threads=4 --format=pretty
//
// Formats: pretty (per-cell + aggregate tables), csv (per-cell rows),
// aggregate (per-group mean/stddev CSV), json (both in one document).
// --metrics selects which registered probes become report columns
// (`scenario_tool metrics` lists them; empty = the default set). Output on
// stdout is byte-identical for any --threads value.

#include <cstdio>
#include <iostream>
#include <memory>

#include "scenario/parse.h"
#include "scenario/registry.h"
#include "sweep/report.h"
#include "sweep/runner.h"
#include "sweep/spec.h"
#include "trace/sinks.h"
#include "trace/trace.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace p2p;

  sweep::SweepSpec spec;
  std::string thresholds = "132,148,164";
  std::string quotas = "";
  std::string scenarios = "";
  std::string policies = "";
  std::string selections = "";
  std::string estimators = "";
  std::string links = "";
  std::string metrics = "";
  int replicates = 1;
  int threads = 0;
  std::string format = "pretty";
  std::string trace_path;

  util::FlagSet flags;
  scenario::ScenarioFlags scale;
  scale.Register(&flags);
  flags.String("thresholds", &thresholds,
               "comma-separated repair thresholds (axis 1)");
  flags.String("quotas", &quotas,
               "comma-separated host quotas (axis 2; empty = keep default)");
  flags.String("scenarios", &scenarios,
               "comma-separated scenario names/files (axis 3; empty = base "
               "world only)");
  flags.String("policies", &policies,
               "comma-separated policy specs, e.g. "
               "'fixed-threshold{threshold=140},adaptive-redundancy' (empty "
               "= base policy)");
  flags.String("selections", &selections,
               "comma-separated selection specs, e.g. "
               "'oldest-first,weighted-random{age_exponent=2}' (empty = base "
               "selection)");
  flags.String("estimators", &estimators,
               "comma-separated estimator specs, e.g. "
               "'age-rank,availability-weighted{exponent=2}' (empty = base "
               "estimator)");
  flags.String("links", &links,
               "comma-separated link-profile names (dsl-2009, dsl-modern, "
               "ftth); each cell runs with the transfer scheduler enabled on "
               "that link (empty = instant repairs)");
  flags.String("metrics", &metrics,
               "comma-separated metric names to report (see 'scenario_tool "
               "metrics'; empty = default set)");
  flags.Int32("replicates", &replicates, "seed replicates per grid point");
  flags.Int32("threads", &threads, "worker threads (0 = hardware)");
  flags.String("format", &format, "pretty | csv | aggregate | json");
  flags.String("trace", &trace_path,
               "record host-runtime phase timings across all worker threads; "
               "writes Chrome trace_event JSON (.json) or JSONL spans "
               "(.jsonl) and prints the phase summary to stderr");
  if (auto st = flags.Parse(argc, argv); !st.ok()) {
    std::cerr << st.ToString() << "\n" << flags.Usage(argv[0]);
    return 1;
  }
  if (auto st = scale.Apply(&spec.base); !st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }

  spec.replicates = replicates;
  // Parses one list flag into its spec field; false after printing the
  // error. `optional` skips an empty flag, keeping the base value; the
  // threshold axis is always parsed.
  const auto parse = [](const char* flag, const std::string& text,
                        auto parse_list, auto* out) {
    const util::Status st = parse_list(text, out);
    if (!st.ok()) std::cerr << "--" << flag << ": " << st.ToString() << "\n";
    return st.ok();
  };
  const auto optional = [&parse](const char* flag, const std::string& text,
                                 auto parse_list, auto* out) {
    return text.empty() || parse(flag, text, parse_list, out);
  };
  if (!parse("thresholds", thresholds, scenario::ParseIntList,
             &spec.repair_thresholds) ||
      !optional("quotas", quotas, scenario::ParseIntList, &spec.quotas) ||
      !optional("scenarios", scenarios, scenario::ParseStringList,
                &spec.scenarios) ||
      !optional("policies", policies, scenario::ParseSpecList,
                &spec.policies) ||
      !optional("selections", selections, scenario::ParseSpecList,
                &spec.selections) ||
      !optional("estimators", estimators, scenario::ParseSpecList,
                &spec.estimators) ||
      !optional("links", links, scenario::ParseStringList, &spec.links) ||
      !optional("metrics", metrics, scenario::ParseStringList,
                &spec.metrics)) {
    return 1;
  }

  sweep::RunnerOptions ropts;
  ropts.threads = threads;
  ropts.progress = true;
  std::fprintf(stderr, "# sweep: %zu cells on %d threads\n", spec.CellCount(),
               sweep::ResolveThreads(threads));
  std::unique_ptr<trace::TraceSession> session;
  if (!trace_path.empty()) {
    session = std::make_unique<trace::TraceSession>();
    session->Install();
  }
  const auto results = sweep::RunSweep(spec, ropts);
  if (session != nullptr) {
    trace::TraceSession::Uninstall();
    trace::WriteSummary(*session, std::cerr);
    if (auto st = trace::WriteTraceFile(*session, trace_path); !st.ok()) {
      std::cerr << st.ToString() << "\n";
      return 1;
    }
    std::fprintf(stderr, "# trace written to %s\n", trace_path.c_str());
  }
  if (!results.ok()) {
    std::cerr << results.status().ToString() << "\n";
    return 1;
  }

  const sweep::SweepReport report = sweep::SweepReport::Build(spec, *results);
  if (format == "csv") {
    report.WriteCellsCsv(std::cout);
  } else if (format == "aggregate") {
    report.WriteAggregateCsv(std::cout);
  } else if (format == "json") {
    report.WriteJson(std::cout);
  } else {
    report.CellTable().RenderPretty(std::cout);
    if (spec.replicates > 1) {
      std::printf("\n");
      report.AggregateTable().RenderPretty(std::cout);
    }
  }
  return 0;
}
