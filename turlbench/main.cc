// The benchmark binary: turlbench --workload <pretrain|serve|
// eval_row_population> --seed <n> --seconds <s> --trace <0|1>. Prints human-readable lines
// (provenance, input properties, the workload's named figures, correctness
// gates, kernel accounting) and, as its last line, the one-line JSON
// result with the end-to-end metrics it measured on an untraced run, the
// per-layer ones on a traced run; run.py matches them to BENCHMARK.json.
// Exits non-zero when it refuses to run.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "core/context.h"
#include "nn/kernels/threading.h"
#include "nn/train_parallel.h"
#include "rt/batch_scheduler.h"
#include "workloads.h"

namespace turlbench {

turl::core::TurlContext BuildCorpus() {
  turl::core::ContextConfig config;
  config.corpus.num_tables = 3000;
  config.seed = 42;
  return turl::core::BuildContext(config);
}

turl::core::TurlConfig PaperConfig() {
  turl::core::TurlConfig config;
  config.num_layers = 4;
  config.d_model = 312;
  config.d_intermediate = 1200;
  config.num_heads = 12;
  return config;
}

double SteadyNowMs() { return turl::rt::BatchScheduler::NowMs(); }

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "turlbench: %s\nusage: turlbench --workload "
               "<pretrain|serve|eval_row_population> "
               "--seed <n> --seconds <s> --trace <0|1>\n",
               why);
  return 2;
}

}  // namespace
}  // namespace turlbench

int main(int argc, char** argv) {
  using namespace turlbench;
  RunOptions options;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0';
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != nullptr && *end == '\0' && options.seconds > 0;
    } else if (key == "--trace") {
      options.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else {
      return Usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_seed || !have_seconds ||
      !have_trace) {
    return Usage("missing or malformed arguments");
  }

  // The numbers must measure the library defaults in an optimised build.
  const std::vector<std::string> knobs = TurlEnvVars();
  if (!knobs.empty()) {
    std::fprintf(stderr, "turlbench: refusing to run with %s set; unset "
                 "every TURL_* variable\n", knobs[0].c_str());
    return 2;
  }
#ifndef NDEBUG
  std::fprintf(stderr, "turlbench: refusing to run a build with asserts\n");
  return 2;
#endif
  if (std::strcmp(TURLBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "turlbench: refusing to run a %s build\n",
                 TURLBENCH_BUILD_TYPE);
    return 2;
  }

  Report report;
  report.Line("== turlbench %s seed %llu, %.1f s, trace %d ==",
              options.workload.c_str(), (unsigned long long)options.seed,
              options.seconds, options.trace ? 1 : 0);
  report.Line("provenance: nproc %ld, hardware threads %u, kernel threads "
              "%d, train threads %d, build %s, SIMD %s",
              sysconf(_SC_NPROCESSORS_ONLN),
              std::thread::hardware_concurrency(),
              turl::nn::kernels::KernelThreads(), turl::nn::TrainThreads(),
              TURLBENCH_BUILD_TYPE, TURLBENCH_SIMD ? "on (AVX2/FMA)" : "off");

  if (options.workload == "pretrain") {
    RunPretrain(options, &report);
  } else if (options.workload == "serve") {
    RunServe(options, &report);
  } else if (options.workload == "eval_row_population") {
    RunEvalRowPopulation(options, &report);
  } else {
    return Usage(("unknown workload " + options.workload).c_str());
  }
  report.EndToEnd("peak_rss_mb", PeakRssMb(), "MB");
  report.Line("peak_rss_mb %.1f MB", PeakRssMb());

  report.Line("correctness: %s", report.correct() ? "PASS" : "FAIL");
  std::printf("%s\n", report.ResultJson(options.trace ? report.layers()
                                                     : report.end_to_end())
                          .c_str());
  return 0;
}
