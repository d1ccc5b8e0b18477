// iphbench — the benchmark's measuring binary (run.py launches it).
//
//   iphbench bulk --workload W --family disk|circle --n N --seed S
//                 --seconds T --trace 0|1 [--out-dir D] [--corrupt]
//   iphbench load --workload W --target HOST:PORT --seed S --seconds T
//                 --trace 0|1 [--out-dir D] [--corrupt]
//   iphbench provenance
//
// Each run mode prints one JSON result line on stdout (common.h) and
// exits 0 only if every result was correct and every reconciliation
// held; usage errors exit 2.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"

int main(int argc, char** argv) {
  perfbench::Args a;
  if (argc < 2) {
    std::fprintf(stderr, "usage: iphbench bulk|load|provenance [options]\n");
    return 2;
  }
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string k = argv[i];
    const auto val = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "iphbench: %s needs a value\n", k.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (k == "--workload") a.workload = val();
    else if (k == "--seed") a.seed = std::strtoull(val().c_str(), nullptr, 0);
    else if (k == "--seconds") a.seconds = std::atof(val().c_str());
    else if (k == "--trace") a.trace = val() == "1";
    else if (k == "--corrupt") a.corrupt = true;
    else if (k == "--out-dir") a.out_dir = val();
    else if (k == "--family") a.family = val();
    else if (k == "--n") a.n = std::strtoull(val().c_str(), nullptr, 0);
    else if (k == "--target") a.target = val();
    else {
      std::fprintf(stderr, "iphbench: unknown option %s\n", k.c_str());
      return 2;
    }
  }
  if (a.mode == "provenance") {
    std::printf("%s\n", perfbench::provenance().dump().c_str());
    return 0;
  }
  if (a.mode == "bulk") return perfbench::run_bulk(a);
  if (a.mode == "load" && !a.target.empty()) return perfbench::run_load(a);
  std::fprintf(stderr, "iphbench: bad mode or missing --target\n");
  return 2;
}
