/**
 * @file
 * `hattd` — the long-lived HATT compilation daemon. Binds a loopback
 * TCP socket, then serves newline-delimited `hatt-compile-request` v1
 * frames (plus the ping/stats/shutdown control verbs) through one
 * shared CompilationService whose in-memory mapping tier stays warm
 * across requests. The wire contract is docs/PROTOCOL.md; flags,
 * lifecycle and capacity notes are docs/OPERATIONS.md.
 *
 * Exit codes: 0 clean shutdown (SIGTERM/SIGINT or `{"op":"shutdown"}`),
 * 64 usage error, 69 (EX_UNAVAILABLE) bind/listen failure, 70 internal
 * failure of the loop itself.
 */

#include <csignal>
#include <cstdint>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/buildinfo.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "io/cli.hpp"
#include "io/server.hpp"

namespace {

constexpr int kExitUnavailable = 69; // EX_UNAVAILABLE: bind/listen failed
constexpr int kExitInternal = 70;    // EX_SOFTWARE

const char *const kUsage =
    "usage: hattd [options]\n"
    "\n"
    "Serve hatt-compile-request v1 frames over TCP (docs/PROTOCOL.md).\n"
    "\n"
    "options:\n"
    "  --host ADDR         listen address (default 127.0.0.1)\n"
    "  --port N            listen port; 0 picks an ephemeral port and\n"
    "                      prints it on the `listening` line (default 0)\n"
    "  --cache DIR         durable mapping-cache directory; omitted =\n"
    "                      warm in-memory tier only\n"
    "  --out-root DIR      root under which every request's out_dir is\n"
    "                      resolved (default `out`)\n"
    "  --max-frame-bytes N per-frame byte cap (default 1048576)\n"
    "  --max-connections N concurrent client cap (default 64)\n"
    "  --frame-timeout S   slow-loris guard: drop a connection holding a\n"
    "                      partial frame longer than S seconds; also\n"
    "                      bounds the shutdown drain (default 30)\n"
    "  --max-terms N       server-side parse cap on Hamiltonian terms;\n"
    "                      requests may tighten, never loosen\n"
    "  --max-modes N       server-side parse cap on modes (same rule)\n"
    "  --timeout S         server-side compile budget per request\n"
    "  --trace FILE        write a Chrome trace-event JSON of the whole\n"
    "                      daemon lifetime (HATT_TRACE works too)\n"
    "  --version           print build provenance and exit\n"
    "\n"
    "environment: HATT_THREADS=N sizes the work pool (default: hardware\n"
    "  threads); responses are identical for every N\n";

hatt::io::Server *g_server = nullptr;

void
onSignal(int)
{
    // requestStop() is async-signal-safe by contract (atomic store +
    // one write() on the wake pipe).
    if (g_server != nullptr)
        g_server->requestStop();
}

double
parseSeconds(const std::string &flag, const std::string &value)
{
    size_t used = 0;
    double s = 0.0;
    try {
        s = std::stod(value, &used);
    } catch (const std::exception &) {
        throw std::runtime_error(flag + " needs a non-negative number");
    }
    if (used != value.size() || !(s >= 0.0))
        throw std::runtime_error(flag + " needs a non-negative number");
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace hatt;

    io::ServerConfig config;
    std::string trace_file;
    const std::vector<std::string> args(argv + 1, argv + argc);
    try {
        for (size_t i = 0; i < args.size(); ++i) {
            const std::string &a = args[i];
            auto value = [&]() -> const std::string & {
                if (i + 1 >= args.size())
                    throw std::runtime_error("option " + a +
                                             " needs a value");
                return args[++i];
            };
            if (a == "--help" || a == "-h") {
                std::cout << kUsage;
                return 0;
            } else if (a == "--version") {
                std::cout << "hattd " << buildinfo::kGitSha << " ("
                          << buildinfo::kCompiler << ", "
                          << buildinfo::kBuildType << ")\n"
                          << "flags: " << buildinfo::kFlags << "\n";
                return 0;
            } else if (a == "--host") {
                config.host = value();
            } else if (a == "--port") {
                config.port = static_cast<uint16_t>(
                    io::parseUnsigned(a, value(), 65535));
            } else if (a == "--cache") {
                config.cacheDir = value();
            } else if (a == "--out-root") {
                config.outRoot = value();
                if (config.outRoot.empty())
                    throw std::runtime_error(
                        "--out-root needs a non-empty path");
            } else if (a == "--max-frame-bytes") {
                config.maxFrameBytes =
                    io::parseUnsigned(a, value(), 1u << 30);
                if (config.maxFrameBytes < 64)
                    throw std::runtime_error(
                        "--max-frame-bytes must be at least 64");
            } else if (a == "--max-connections") {
                config.maxConnections =
                    io::parseUnsigned(a, value(), 1u << 16);
                if (config.maxConnections == 0)
                    throw std::runtime_error(
                        "--max-connections must be positive");
            } else if (a == "--frame-timeout") {
                config.frameTimeoutSeconds = parseSeconds(a, value());
            } else if (a == "--max-terms") {
                config.limits.maxTerms = io::parseUnsigned(a, value());
            } else if (a == "--max-modes") {
                config.limits.maxModes = static_cast<uint32_t>(
                    io::parseUnsigned(a, value(), UINT32_MAX));
            } else if (a == "--timeout") {
                config.timeoutSeconds = parseSeconds(a, value());
            } else if (a == "--trace") {
                trace_file = value();
                if (trace_file.empty())
                    throw std::runtime_error(
                        "--trace needs a non-empty file path");
            } else {
                throw std::runtime_error("unknown option '" + a + "'");
            }
        }
    } catch (const std::exception &e) {
        std::cerr << "hattd: " << e.what() << "\n\n" << kUsage;
        return io::kExitUsage;
    }

    // The daemon's metrics window opens once, at startup: `stats`
    // responses accumulate over the whole lifetime (per-request resets
    // would erase the cross-request cache/store counters that make the
    // warm tier observable).
    metrics::reset();
    if (!trace_file.empty()) {
        trace::configure(trace_file);
        trace::metadata("command", "hattd");
    }

    std::signal(SIGPIPE, SIG_IGN); // belt next to MSG_NOSIGNAL braces

    io::Server server(config);
    Status bound = server.bind();
    if (!bound.ok()) {
        std::cerr << "hattd: " << bound.message() << "\n";
        return bound.code() == Status::Code::InvalidArgument
                   ? io::kExitUsage
                   : kExitUnavailable;
    }

    g_server = &server;
    struct sigaction sa = {};
    sa.sa_handler = onSignal;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);

    // The `listening` line is the readiness signal scripts and tests
    // wait for (Hattd.RealDaemonRoundTripWarmTierParityAndSigterm).
    std::cout << "hattd: listening on " << config.host << ":"
              << server.port() << "\n"
              << std::flush;
    std::cerr << "hattd: cache "
              << (config.cacheDir.empty() ? std::string("(memory tier only)")
                                          : config.cacheDir)
              << ", out root " << config.outRoot << "\n";

    int rc = kExitInternal;
    try {
        rc = server.run();
    } catch (const std::exception &e) {
        std::cerr << "hattd: fatal: " << e.what() << "\n";
        return kExitInternal;
    }
    g_server = nullptr;
    if (rc == 0)
        std::cout << "hattd: shut down cleanly\n";
    return rc;
}
