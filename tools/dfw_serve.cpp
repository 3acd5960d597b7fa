// dfw_serve: a long-running classification daemon over a hot-swappable
// compiled policy. The whole driver lives in src/serve/cli.cpp (library
// form, so tests exercise flags, snapshot boot, the command loop, and
// exit codes in-process); this translation unit only adapts main().
//
// See serve/cli.hpp for the command set and docs/serve.md for the
// serving model: hot swaps with retry/backoff, last-good fallback,
// crash-consistent snapshots, health reporting.

#include <iostream>
#include <string>
#include <vector>

#include "serve/cli.hpp"

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  return dfw::serve::run_serve_cli(args, std::cin, std::cout, std::cerr);
}
