// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Fuzz engine for toolchains without libFuzzer (gcc, or clang under
// ThreadSanitizer). It reads four of libFuzzer's own flags, so one
// command line drives either engine:
//
//   <harness> [-runs=N] [-seed=S] [-max_total_time=SECONDS]
//             [-artifact_prefix=P] [INPUT_FILE_OR_DIR...]
//
// It first runs LLVMFuzzerTestOneInput once over every file named on
// the command line, recursing into directories -- the contract of
// LLVM's StandaloneFuzzTargetMain.c, and how the seed corpus runs as a
// ctest entry in every build configuration. Then, while -runs=N or
// -max_total_time allows (whichever ends first; both 0 by default, so
// a bare replay stays a replay), it runs seeded random inputs: input i
// is 0-4096 bytes (libFuzzer's default -max_len) drawn from
// Rng(seed, i). There is no coverage feedback. -seed=0, the default,
// picks a seed and prints it, as libFuzzer does.
//
// Each random input is written to <P>crash-<harness>-<seed>-<i> before
// it runs and deleted after it returns, so an input that aborts (a
// FuzzFail, an MC_CHECK, an MC_AUDIT, a sanitizer report) stays behind
// as raw bytes, and passing that file back reproduces the abort:
//
//   ./build/fuzz/fuzz_incremental -runs=2000 -seed=1 -artifact_prefix=out/
//   ./build/fuzz/fuzz_incremental out/crash-fuzz_incremental-1-417
//
// Any other flag exits 2.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "tools/flag_parse.h"
#include "util/random.h"
#include "util/timer.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size);

namespace {

constexpr size_t kMaxRandomInputBytes = 4096;

struct DriverOptions {
  uint64_t runs = 0;
  uint64_t seed = 0;
  uint64_t max_total_time = 0;
  std::string artifact_prefix;
  std::vector<std::filesystem::path> inputs;
};

[[noreturn]] void Usage(const std::string& program) {
  std::fprintf(stderr,
               "usage: %s [-runs=N] [-seed=S] [-max_total_time=SECONDS] "
               "[-artifact_prefix=P] [INPUT_FILE_OR_DIR...]\n"
               "Replays each input, then runs seeded random inputs while "
               "-runs or -max_total_time allows (standalone engine; no "
               "coverage feedback).\n",
               program.c_str());
  std::exit(2);
}

DriverOptions ParseArgs(int argc, char** argv, const std::string& program) {
  using monoclass::tools::ParseFlagValue;
  DriverOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.empty() || arg[0] != '-') {
      options.inputs.emplace_back(arg);
      continue;
    }
    // "-name=value"; a bare "-name" reads as an empty value.
    const size_t eq = std::min(arg.find('='), arg.size());
    const std::string name = arg.substr(0, eq);
    const char* value = argv[i] + std::min(eq + 1, arg.size());
    if (name == "-runs") {
      options.runs = ParseFlagValue<uint64_t>(program.c_str(), "-runs", value);
    } else if (name == "-seed") {
      options.seed = ParseFlagValue<uint64_t>(program.c_str(), "-seed", value);
    } else if (name == "-max_total_time") {
      options.max_total_time = ParseFlagValue<uint64_t>(
          program.c_str(), "-max_total_time", value);
    } else if (name == "-artifact_prefix") {
      options.artifact_prefix = value;
    } else {
      std::fprintf(stderr, "%s: unknown flag %s\n", program.c_str(),
                   arg.c_str());
      Usage(program);
    }
  }
  if (options.inputs.empty() && options.runs == 0 &&
      options.max_total_time == 0) {
    Usage(program);
  }
  return options;
}

std::vector<uint8_t> ReadFile(const std::filesystem::path& path) {
  std::ifstream stream(path, std::ios::binary);
  if (!stream) {
    std::fprintf(stderr, "standalone fuzz driver: cannot read %s\n",
                 path.c_str());
    std::exit(2);
  }
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(stream),
                              std::istreambuf_iterator<char>());
}

size_t RunOne(const std::filesystem::path& path) {
  const std::vector<uint8_t> bytes = ReadFile(path);
  LLVMFuzzerTestOneInput(bytes.data(), bytes.size());
  return 1;
}

size_t Replay(const std::vector<std::filesystem::path>& inputs) {
  size_t executed = 0;
  for (const std::filesystem::path& path : inputs) {
    if (std::filesystem::is_directory(path)) {
      std::vector<std::filesystem::path> files;
      for (const auto& entry :
           std::filesystem::recursive_directory_iterator(path)) {
        if (entry.is_regular_file()) files.push_back(entry.path());
      }
      // Directory iteration order is filesystem-dependent; sort so runs
      // are reproducible.
      std::sort(files.begin(), files.end());
      for (const auto& file : files) executed += RunOne(file);
    } else {
      executed += RunOne(path);
    }
  }
  return executed;
}

// Runs random inputs until -runs or -max_total_time is spent. Returns
// the number run; an input that fails never returns here.
size_t RunRandom(const DriverOptions& options, const std::string& harness) {
  const std::string stem = options.artifact_prefix + "crash-" + harness +
                           "-" + std::to_string(options.seed) + "-";
  std::printf("standalone fuzz driver: -seed=%llu; a failing input stays "
              "at %s<run>\n",
              static_cast<unsigned long long>(options.seed), stem.c_str());
  std::fflush(stdout);
  const monoclass::WallTimer timer;
  const auto keep_going = [&options, &timer](uint64_t run) {
    return (options.runs == 0 || run < options.runs) &&
           (options.max_total_time == 0 ||
            timer.ElapsedSeconds() <
                static_cast<double>(options.max_total_time));
  };
  std::vector<uint8_t> bytes;
  uint64_t run = 0;
  for (; keep_going(run); ++run) {
    monoclass::Rng rng(options.seed, run);
    bytes.resize(rng.UniformInt(kMaxRandomInputBytes + 1));
    for (uint8_t& byte : bytes) byte = static_cast<uint8_t>(rng.Next());
    const std::string artifact = stem + std::to_string(run);
    {
      std::ofstream out(artifact, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
      if (!out) {
        std::fprintf(stderr, "standalone fuzz driver: cannot write %s\n",
                     artifact.c_str());
        std::exit(2);
      }
    }
    LLVMFuzzerTestOneInput(bytes.data(), bytes.size());
    std::filesystem::remove(artifact);
  }
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string harness =
      std::filesystem::path(argv[0]).filename().string();
  DriverOptions options = ParseArgs(argc, argv, harness);
  const size_t replayed = Replay(options.inputs);
  size_t random = 0;
  if (options.runs > 0 || options.max_total_time > 0) {
    if (options.seed == 0) options.seed = std::random_device{}() | 1u;
    random = RunRandom(options, harness);
  }
  std::printf("standalone fuzz driver: %zu input(s) replayed, %zu random "
              "input(s), 0 failures\n",
              replayed, random);
  return 0;
}
