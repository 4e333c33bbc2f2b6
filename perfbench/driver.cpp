// One benchmark operation per process, so each one pays its own set-up and
// has its own peak resident set.  run.py starts it, reads the single JSON
// line it prints, and aggregates the operations of a run.
//
//   perfbench_driver --workload lu_base --seed 7 [--trace] [--t0-ns N]
//                    [--doc PATH] [--setup-only]
//   perfbench_driver --host-info
//
// --t0-ns is the steady-clock time (CLOCK_MONOTONIC, ns) at which the
// caller started this process; set-up runs from there to the first call
// into the program.  --setup-only stops there and reports only set-up, so
// a run can sample set-up more often than it has operations.  --doc is
// where matrix_chiba writes its document.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\n"
               "usage: perfbench_driver --workload NAME --seed N [--trace] "
               "[--t0-ns N] [--doc PATH] [--setup-only]\n"
               "       perfbench_driver --host-info\n",
               why);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return end != s && *end == '\0';
}

/// JSON string literal for the short ASCII texts this driver emits.
std::string quoted(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// FNV-1a, enough to tell two matrix documents apart.
std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Seconds from the caller's --t0-ns (0: not given) to `first_call_ns`.
double setup_seconds(std::int64_t first_call_ns, std::uint64_t t0_ns) {
  if (t0_ns == 0) return 0;
  return 1e-9 * static_cast<double>(first_call_ns -
                                    static_cast<std::int64_t>(t0_ns));
}

/// This process image's peak resident set.  Not getrusage's ru_maxrss,
/// which also counts the launcher's resident set from before exec.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::fprintf(stderr,
               "perfbench_driver: refusing to measure an unoptimized build "
               "(build type %s)\n",
               PERFBENCH_BUILD_TYPE);
  return 3;
#endif
  const perfbench::WorkloadSpec* workload = nullptr;
  std::uint64_t seed = 0, t0_ns = 0;
  bool have_seed = false, traced = false, setup_only = false;
  std::string doc_path = "perfbench-matrix.json";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--host-info") {
      std::printf("{\"compiler\": %s, \"build_type\": %s}\n",
                  quoted(PERFBENCH_COMPILER).c_str(),
                  quoted(PERFBENCH_BUILD_TYPE).c_str());
      return 0;
    } else if (arg == "--trace") {
      traced = true;
    } else if (arg == "--setup-only") {
      setup_only = true;
    } else if (value == nullptr) {
      return usage("missing value after an option");
    } else if (arg == "--workload") {
      workload = perfbench::find_workload(value);
      if (workload == nullptr) return usage("unknown workload");
      ++i;
    } else if (arg == "--seed") {
      if (!parse_u64(value, seed)) return usage("--seed expects an integer");
      have_seed = true;
      ++i;
    } else if (arg == "--t0-ns") {
      if (!parse_u64(value, t0_ns)) return usage("--t0-ns expects an integer");
      ++i;
    } else if (arg == "--doc") {
      doc_path = value;
      ++i;
    } else {
      return usage("unknown option");
    }
  }
  if (workload == nullptr || !have_seed) {
    return usage("--workload and --seed are required");
  }

  if (setup_only) {
    // What an operation does before its first call: static registration
    // (done before main) and generating its input.
    if (workload->kind == perfbench::Workload::MatrixChiba) {
      (void)perfbench::matrix_options(seed, workload->scale, doc_path);
    } else {
      (void)perfbench::chiba_config(workload->kind, seed, workload->scale);
    }
    std::printf("{\"setup_s\": %s}\n",
                number(setup_seconds(now_ns(), t0_ns)).c_str());
    return 0;
  }

  perfbench::OpResult r;
  try {
    r = perfbench::run_op(workload->kind, seed, workload->scale, traced,
                          doc_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: operation failed: %s\n", e.what());
    return 1;
  }

  std::string line = "{\"setup_s\": " +
                     number(setup_seconds(r.first_call_ns, t0_ns)) +
                     ", \"wall_s\": " + number(r.wall_s) +
                     ", \"cpu_s\": " + number(r.cpu_s) +
                     ", \"peak_rss_mb\": " +
                     number(peak_rss_mb()) +
                     ", \"engine_events\": " + std::to_string(r.engine_events) +
                     ", \"exec_sec\": " + number(r.exec_sec) +
                     ", \"doc_fnv1a\": " + std::to_string(fnv1a(r.doc)) +
                     ", \"errors\": [";
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    line += (i ? ", " : "") + quoted(r.errors[i]);
  }
  line += "], \"counters\": {";
  for (std::size_t i = 0; i < r.counters.size(); ++i) {
    line += (i ? ", " : "") + quoted(r.counters[i].first) + ": " +
            number(r.counters[i].second);
  }
  line += "}, \"spans\": [";
  for (std::size_t i = 0; i < r.spans.size(); ++i) {
    const auto& s = r.spans[i];
    line += (i ? ", " : "") + std::string("{\"name\": ") + quoted(s.name) +
            ", \"parent\": " + std::to_string(s.parent) +
            ", \"start_s\": " + number(s.start_s) +
            ", \"end_s\": " + number(s.end_s) + "}";
  }
  line += "]}\n";
  std::fputs(line.c_str(), stdout);
  return 0;
}
