/**
 * @file
 * `hattc` — the HATT compiler driver. Thin wrapper over io/cli (which
 * is itself a shell over the CompilationService in io/service) so the
 * whole parse -> preprocess -> map -> serialize pipeline — including
 * `hattc batch` (parallel corpus compilation over one shared two-tier
 * mapping store) and `hattc cache gc|list` (cache eviction + listing) —
 * is library code covered by the test suite; see `hattc` with no
 * arguments for usage.
 */

#include <iostream>
#include <string>
#include <vector>

#include "io/cli.hpp"

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    return hatt::io::runHattc(args, std::cout, std::cerr);
}
