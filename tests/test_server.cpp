/**
 * @file
 * Acceptance tests for the hattd engine (io/server): the daemon's
 * responses and artifacts are byte-identical to one-shot service calls
 * for HATT_THREADS ∈ {1, 4} (modulo the volatile fields docs/PROTOCOL.md
 * names), a repeated request is served from the warm memory tier,
 * malformed / oversized / mid-frame-disconnect / slow-loris traffic
 * yields `hatt-status` frames or clean closes with the loop still
 * serving, newer wire versions are rejected, `out_dir` cannot escape
 * the server's out root, and the ping/stats/shutdown verbs plus
 * requestStop() all drain to a clean run() == 0.
 *
 * The server runs in-process on a background thread (bind() happens on
 * the test thread first, so connects never race the listener), except
 * in Hattd.RealDaemonRoundTripWarmTierParityAndSigterm, which drives
 * the shipped `hattd` binary end to end: port 0, the warm memory tier,
 * artifact parity with `hattc compile`, and a clean exit on SIGTERM.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>

#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "io/cache.hpp"
#include "io/json.hpp"
#include "io/server.hpp"
#include "io/service.hpp"

namespace hatt {
namespace {

namespace fs = std::filesystem;
using io::CompilationService;
using io::CompileRequest;
using io::JsonValue;
using io::Server;
using io::ServerConfig;
using io::ServiceConfig;

std::string
dataFile(const std::string &name)
{
    return std::string(HATT_DATA_DIR) + "/" + name;
}

fs::path
scratchDir(const std::string &tag)
{
    fs::path dir = fs::temp_directory_path() /
                   ("hatt_server_test_" + tag + "_" +
                    std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot read " << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** The volatile response fields docs/PROTOCOL.md exempts from the
    byte-identity bar; everything else must match exactly. */
bool
isVolatileField(const std::string &key)
{
    return key == "seconds" || key == "cache_seconds" ||
           key == "cache_hit" || key == "cache_tier";
}

std::string
stripVolatile(const JsonValue &doc)
{
    JsonValue out = JsonValue::object();
    for (const auto &[key, value] : doc.asObject())
        if (!isVolatileField(key))
            out.add(key, value);
    return out.dump(2);
}

/** Blocking line-framed test client (the daemon side is the one under
    test; the client can afford to be simple). */
class Client
{
  public:
    explicit Client(uint16_t port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        EXPECT_GE(fd_, 0);
        timeval tv{10, 0};
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        connected_ = ::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                               sizeof addr) == 0;
        EXPECT_TRUE(connected_);
    }

    ~Client() { close(); }

    void
    close()
    {
        if (fd_ >= 0)
            ::close(fd_);
        fd_ = -1;
    }

    void
    sendRaw(const std::string &bytes)
    {
        size_t off = 0;
        while (off < bytes.size()) {
            ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
            ASSERT_GT(n, 0);
            off += static_cast<size_t>(n);
        }
    }

    void sendLine(const std::string &line) { sendRaw(line + "\n"); }

    /** Like sendRaw, but a mid-stream failure (the daemon hanging up
        on us) is an expected outcome. @return bytes actually sent. */
    size_t
    sendBestEffort(const std::string &bytes)
    {
        size_t off = 0;
        while (off < bytes.size()) {
            ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
            if (n <= 0)
                break;
            off += static_cast<size_t>(n);
        }
        return off;
    }

    /** One response line, or "" on EOF / receive timeout. */
    std::string
    recvLine()
    {
        size_t pos;
        while ((pos = buf_.find('\n')) == std::string::npos) {
            char tmp[4096];
            ssize_t n = ::recv(fd_, tmp, sizeof tmp, 0);
            if (n <= 0)
                return "";
            buf_.append(tmp, static_cast<size_t>(n));
        }
        std::string line = buf_.substr(0, pos);
        buf_.erase(0, pos + 1);
        return line;
    }

    /** True when the daemon closed the connection (clean EOF). */
    bool
    recvEof()
    {
        for (;;) {
            char tmp[4096];
            ssize_t n = ::recv(fd_, tmp, sizeof tmp, 0);
            if (n == 0)
                return true;
            if (n < 0)
                return false; // timeout or error, not EOF
            buf_.append(tmp, static_cast<size_t>(n));
        }
    }

    JsonValue
    rpc(const JsonValue &frame)
    {
        sendLine(frame.dump());
        const std::string reply = recvLine();
        EXPECT_FALSE(reply.empty()) << "no reply frame";
        return reply.empty() ? JsonValue() : JsonValue::parse(reply);
    }

  private:
    int fd_ = -1;
    bool connected_ = false;
    std::string buf_;
};

/** An in-process daemon: bound on construction, served on a background
    thread, joined (gracefully when still running) on destruction. */
struct Daemon
{
    Server server;
    std::thread thread;
    int rc = -1;

    explicit Daemon(ServerConfig config) : server(std::move(config))
    {
        Status bound = server.bind();
        EXPECT_TRUE(bound.ok()) << bound.message();
        thread = std::thread([this] { rc = server.run(); });
    }

    int
    join()
    {
        if (thread.joinable())
            thread.join();
        return rc;
    }

    int
    stop()
    {
        server.requestStop();
        return join();
    }

    ~Daemon()
    {
        if (thread.joinable()) {
            server.requestStop();
            thread.join();
        }
    }
};

JsonValue
compileFrame(const std::string &input, const std::string &out_dir)
{
    CompileRequest req;
    req.path = input;
    req.outDir = out_dir;
    return io::compileRequestToJson(req);
}

JsonValue
opFrame(const char *verb)
{
    JsonValue doc = JsonValue::object();
    doc.add("op", verb);
    return doc;
}

// ----------------------------------------------------- determinism bar

TEST(Server, ResponsesByteIdenticalToOneShotAcrossThreadCaps)
{
    fs::path dir = scratchDir("parity");
    const std::vector<std::string> inputs = {dataFile("h2.ops"),
                                             dataFile("hubbard2x2.ops")};
    std::vector<std::string> per_cap; // concatenated stripped responses
    for (unsigned threads : {1u, 4u}) {
        setParallelThreads(threads);
        const std::string tag = std::to_string(threads);

        ServerConfig config;
        config.cacheDir = (dir / ("dcache" + tag)).string();
        config.outRoot = (dir / ("srv" + tag)).string();
        Daemon daemon(config);
        Client client(daemon.server.port());

        CompilationService oneshot(
            ServiceConfig{(dir / ("ccache" + tag)).string(), true});

        std::string stripped_all;
        for (size_t i = 0; i < inputs.size(); ++i) {
            const std::string out_dir = "w" + std::to_string(i);
            JsonValue served = client.rpc(compileFrame(inputs[i], out_dir));
            ASSERT_EQ(served.at("format").asString(),
                      "hatt-compile-response")
                << served.dump(2);

            CompileRequest req;
            req.path = inputs[i];
            req.outDir = (dir / ("one" + tag) / out_dir).string();
            StatusOr<io::CompileResponse> direct = oneshot.compile(req);
            ASSERT_TRUE(direct.ok()) << direct.status().message();

            // Responses: byte-identical minus the volatile fields.
            const std::string served_text = stripVolatile(served);
            EXPECT_EQ(served_text,
                      stripVolatile(io::compileResponseToJson(
                          direct.value())));
            stripped_all += served_text;

            // Artifacts: byte-identical (the .metrics.json sidecar is
            // volatile by contract and excluded).
            const std::string stem = served.at("stem").asString();
            for (const char *suffix :
                 {".mapping.json", ".tree.json", ".qubit.json"}) {
                const fs::path daemon_file = fs::path(config.outRoot) /
                                             out_dir / (stem + suffix);
                const fs::path oneshot_file =
                    fs::path(req.outDir) / (stem + suffix);
                EXPECT_EQ(readFile(daemon_file), readFile(oneshot_file))
                    << daemon_file;
            }
        }
        per_cap.push_back(stripped_all);

        // Graceful shutdown via the wire verb: ok frame, EOF, rc 0.
        JsonValue bye = client.rpc(opFrame("shutdown"));
        EXPECT_TRUE(bye.at("ok").asBool());
        EXPECT_TRUE(client.recvEof());
        EXPECT_EQ(daemon.join(), 0);
    }
    setParallelThreads(0);

    // ... and the responses are cap-invariant too.
    ASSERT_EQ(per_cap.size(), 2u);
    EXPECT_EQ(per_cap[0], per_cap[1]);
    fs::remove_all(dir);
}

TEST(Server, StatsDeterministicSectionInvariantAcrossThreads)
{
    // Two fresh daemons, the same request script, different worker
    // counts: the deterministic counter section of the stats snapshot
    // is byte-identical (the volatile section never is).
    fs::path dir = scratchDir("statsthreads");
    std::vector<std::string> sections;
    for (unsigned threads : {1u, 4u}) {
        setParallelThreads(threads);
        metrics::reset();
        const std::string tag = std::to_string(threads);
        ServerConfig config;
        config.cacheDir = (dir / ("dcache" + tag)).string();
        config.outRoot = (dir / ("srv" + tag)).string();
        Daemon daemon(config);
        Client client(daemon.server.port());
        for (int pass = 0; pass < 2; ++pass)
            for (const char *input : {"h2", "hubbard2x2"}) {
                JsonValue resp = client.rpc(compileFrame(
                    dataFile(std::string(input) + ".ops"),
                    std::string("w_") + input));
                ASSERT_EQ(resp.at("format").asString(),
                          "hatt-compile-response")
                    << resp.dump(2);
            }
        JsonValue stats = client.rpc(opFrame("stats"));
        ASSERT_EQ(stats.at("format").asString(), "hatt-stats");
        const JsonValue &det = stats.at("metrics").at("deterministic");
        EXPECT_EQ(det.at("server.compile_requests").asInt(), 4);
        sections.push_back(det.dump(2));
        EXPECT_EQ(daemon.stop(), 0);
    }
    setParallelThreads(0);
    EXPECT_EQ(sections[0], sections[1]);
    fs::remove_all(dir);
}

TEST(Server, RetiredJobsFieldIsAcceptedAndIgnored)
{
    // Older v1 clients still send the worker-cap hint `jobs`. The pool
    // is sized by the daemon's HATT_THREADS alone, so the same frame
    // with and without the field is served identically.
    fs::path dir = scratchDir("jobs");
    ServerConfig config;
    config.outRoot = (dir / "srv").string();
    Daemon daemon(config);
    Client client(daemon.server.port());

    const JsonValue plain = client.rpc(compileFrame(dataFile("h2.ops"), "a"));
    JsonValue frame = compileFrame(dataFile("h2.ops"), "b");
    frame.add("jobs", 4);
    const JsonValue with_jobs = client.rpc(frame);
    ASSERT_EQ(with_jobs.at("format").asString(), "hatt-compile-response")
        << with_jobs.dump(2);
    EXPECT_EQ(stripVolatile(with_jobs), stripVolatile(plain));
    for (const char *suffix : {".mapping.json", ".tree.json", ".qubit.json"})
        EXPECT_EQ(readFile(dir / "srv/b" / (std::string("h2") + suffix)),
                  readFile(dir / "srv/a" / (std::string("h2") + suffix)))
            << suffix;
    EXPECT_EQ(daemon.stop(), 0);
    fs::remove_all(dir);
}

TEST(Server, SecondIdenticalRequestServedFromMemoryTier)
{
    fs::path dir = scratchDir("warm");
    ServerConfig config;
    config.outRoot = (dir / "srv").string(); // no disk cache: memory only
    Daemon daemon(config);
    Client client(daemon.server.port());

    const JsonValue frame = compileFrame(dataFile("h2.ops"), "w");
    JsonValue cold = client.rpc(frame);
    ASSERT_EQ(cold.at("format").asString(), "hatt-compile-response");
    EXPECT_FALSE(cold.at("cache_hit").asBool());

    JsonValue warm = client.rpc(frame);
    EXPECT_TRUE(warm.at("cache_hit").asBool());
    ASSERT_FALSE(warm.at("cache_tier").isNull());
    EXPECT_EQ(warm.at("cache_tier").asString(), "memory");

    // The warm response is the cold one, volatile fields aside.
    EXPECT_EQ(stripVolatile(cold), stripVolatile(warm));
    EXPECT_EQ(daemon.stop(), 0);
    fs::remove_all(dir);
}

TEST(Server, DeviceAwareRoundTripMatchesOneShot)
{
    // The device-aware path over the wire: the daemon's response —
    // canonical device echo plus the routed-cost block — is
    // byte-identical to a one-shot CompilationService compile, modulo
    // the documented volatile fields.
    fs::path dir = scratchDir("device");
    ServerConfig config;
    config.outRoot = (dir / "srv").string();
    Daemon daemon(config);
    Client client(daemon.server.port());

    CompileRequest req;
    req.path = dataFile("h2.ops");
    req.outDir = "w";
    req.mapping = "treespilation";
    req.device = "Montreal"; // canonicalised on both paths
    JsonValue served = client.rpc(io::compileRequestToJson(req));
    ASSERT_EQ(served.at("format").asString(), "hatt-compile-response")
        << served.dump(2);
    EXPECT_EQ(served.at("device").asString(), "montreal");
    EXPECT_GT(served.at("routed_cnots").asInt(), 0);
    EXPECT_GT(served.at("routed_depth").asInt(), 0);
    ASSERT_FALSE(served.at("routed_swaps").isNull());

    CompilationService oneshot(ServiceConfig{});
    CompileRequest direct_req = req;
    direct_req.outDir = (dir / "one").string();
    StatusOr<io::CompileResponse> direct = oneshot.compile(direct_req);
    ASSERT_TRUE(direct.ok()) << direct.status().message();
    EXPECT_EQ(stripVolatile(served),
              stripVolatile(io::compileResponseToJson(direct.value())));

    // An unknown device comes back as a status frame, and the daemon
    // keeps serving.
    CompileRequest bad = req;
    bad.device = "bogus";
    JsonValue err = client.rpc(io::compileRequestToJson(bad));
    EXPECT_EQ(err.at("format").asString(), "hatt-status");
    EXPECT_NE(err.at("message").asString().find("montreal"),
              std::string::npos)
        << err.dump(2);
    JsonValue again = client.rpc(io::compileRequestToJson(req));
    EXPECT_EQ(again.at("format").asString(), "hatt-compile-response");

    EXPECT_EQ(daemon.stop(), 0);
    fs::remove_all(dir);
}

// ------------------------------------------------- untrusted traffic

TEST(Server, MalformedFramesYieldStatusAndKeepServing)
{
    fs::path dir = scratchDir("malformed");
    ServerConfig config;
    config.outRoot = (dir / "srv").string();
    Daemon daemon(config);
    Client client(daemon.server.port());

    client.sendLine("{ this is not json");
    JsonValue err = JsonValue::parse(client.recvLine());
    EXPECT_EQ(err.at("format").asString(), "hatt-status");
    EXPECT_FALSE(err.at("ok").asBool());
    EXPECT_EQ(err.at("code").asString(), "invalid_argument");

    client.sendLine("42"); // valid JSON, not an object
    EXPECT_EQ(JsonValue::parse(client.recvLine()).at("code").asString(),
              "invalid_argument");

    JsonValue unknown = client.rpc(opFrame("selfdestruct"));
    EXPECT_EQ(unknown.at("code").asString(), "invalid_argument");

    // The same connection still serves real work.
    EXPECT_EQ(client.rpc(opFrame("ping")).at("message").asString(),
              "pong");
    JsonValue served = client.rpc(compileFrame(dataFile("h2.ops"), "w"));
    EXPECT_EQ(served.at("format").asString(), "hatt-compile-response");
    EXPECT_EQ(daemon.stop(), 0);
    fs::remove_all(dir);
}

TEST(Server, OversizedFrameGetsStatusThenCloseDaemonKeepsServing)
{
    fs::path dir = scratchDir("oversized");
    ServerConfig config;
    config.outRoot = (dir / "srv").string();
    config.maxFrameBytes = 128;
    Daemon daemon(config);

    {
        // A complete over-cap line: resource_exhausted, then close.
        Client client(daemon.server.port());
        client.sendLine("{\"pad\": \"" + std::string(300, 'x') + "\"}");
        JsonValue err = JsonValue::parse(client.recvLine());
        EXPECT_EQ(err.at("code").asString(), "resource_exhausted");
        EXPECT_TRUE(client.recvEof());
    }
    {
        // An unterminated over-cap frame must not buffer forever: the
        // reject fires without ever seeing a newline.
        Client client(daemon.server.port());
        client.sendRaw(std::string(300, 'y'));
        JsonValue err = JsonValue::parse(client.recvLine());
        EXPECT_EQ(err.at("code").asString(), "resource_exhausted");
        EXPECT_TRUE(client.recvEof());
    }

    // The daemon shrugged both off.
    Client fresh(daemon.server.port());
    EXPECT_EQ(fresh.rpc(opFrame("ping")).at("message").asString(), "pong");
    EXPECT_EQ(daemon.stop(), 0);
    fs::remove_all(dir);
}

TEST(Server, NewlineFreeFloodIsRejectedWithoutBufferingTheStream)
{
    fs::path dir = scratchDir("flood");
    ServerConfig config;
    config.outRoot = (dir / "srv").string();
    config.maxFrameBytes = 128;
    Daemon daemon(config);

    {
        // A fast peer streaming far more than the cap with no newline:
        // the daemon must reject and hang up after ~cap bytes, not
        // drain the stream into memory. Socket buffers are a few MB at
        // most, so a completed 64 MB send would prove the daemon kept
        // reading past the cap.
        Client client(daemon.server.port());
        const std::string chunk(64 * 1024, 'z');
        size_t sent = 0;
        for (int i = 0; i < 1024; ++i) {
            const size_t n = client.sendBestEffort(chunk);
            sent += n;
            if (n < chunk.size())
                break; // daemon hung up on us, as it should
        }
        EXPECT_LT(sent, size_t{64} * 1024 * 1024);
        // The queued resource_exhausted status may be lost to the RST
        // from our own unread bytes; what matters is the hangup above
        // and the daemon still serving below.
        const std::string reply = client.recvLine();
        if (!reply.empty()) {
            EXPECT_EQ(JsonValue::parse(reply).at("code").asString(),
                      "resource_exhausted");
        }
    }

    Client fresh(daemon.server.port());
    EXPECT_EQ(fresh.rpc(opFrame("ping")).at("message").asString(), "pong");
    EXPECT_EQ(daemon.stop(), 0);
    fs::remove_all(dir);
}

TEST(Server, MidFrameDisconnectIsACleanCloseDaemonKeepsServing)
{
    fs::path dir = scratchDir("midframe");
    ServerConfig config;
    config.outRoot = (dir / "srv").string();
    Daemon daemon(config);

    {
        Client client(daemon.server.port());
        client.sendRaw("{\"format\": \"hatt-compile-req"); // no newline
        client.close();
    }

    Client fresh(daemon.server.port());
    EXPECT_EQ(fresh.rpc(opFrame("ping")).at("message").asString(), "pong");
    JsonValue served = fresh.rpc(compileFrame(dataFile("h2.ops"), "w"));
    EXPECT_EQ(served.at("format").asString(), "hatt-compile-response");
    EXPECT_EQ(daemon.stop(), 0);
    fs::remove_all(dir);
}

TEST(Server, SlowLorisPartialFrameTimesOutWithStatus)
{
    fs::path dir = scratchDir("loris");
    ServerConfig config;
    config.outRoot = (dir / "srv").string();
    config.frameTimeoutSeconds = 0.15;
    Daemon daemon(config);

    Client client(daemon.server.port());
    client.sendRaw("{\"op\": \"pi"); // and then... nothing, forever
    JsonValue err = JsonValue::parse(client.recvLine());
    EXPECT_EQ(err.at("format").asString(), "hatt-status");
    EXPECT_EQ(err.at("code").asString(), "deadline_exceeded");
    EXPECT_TRUE(client.recvEof());

    Client fresh(daemon.server.port());
    EXPECT_EQ(fresh.rpc(opFrame("ping")).at("message").asString(), "pong");
    EXPECT_EQ(daemon.stop(), 0);
    fs::remove_all(dir);
}

// ------------------------------------------------- request validation

TEST(Server, NewerWireVersionIsRejectedNotHalfParsed)
{
    fs::path dir = scratchDir("version");
    ServerConfig config;
    config.outRoot = (dir / "srv").string();
    Daemon daemon(config);
    Client client(daemon.server.port());

    std::string text = compileFrame(dataFile("h2.ops"), "w").dump();
    const size_t at = text.find("\"version\":1");
    ASSERT_NE(at, std::string::npos) << text;
    text.replace(at, 11, "\"version\":2");
    client.sendLine(text);
    JsonValue err = JsonValue::parse(client.recvLine());
    EXPECT_EQ(err.at("format").asString(), "hatt-status");
    EXPECT_EQ(err.at("code").asString(), "invalid_argument");

    EXPECT_EQ(client.rpc(opFrame("ping")).at("message").asString(),
              "pong");
    EXPECT_EQ(daemon.stop(), 0);
    fs::remove_all(dir);
}

TEST(Server, OutDirCannotEscapeTheOutRoot)
{
    fs::path dir = scratchDir("sandbox");
    ServerConfig config;
    config.outRoot = (dir / "srv").string();
    Daemon daemon(config);
    Client client(daemon.server.port());

    for (const char *escape : {"../evil", "/tmp/evil", "a/../../evil"}) {
        JsonValue err =
            client.rpc(compileFrame(dataFile("h2.ops"), escape));
        EXPECT_EQ(err.at("format").asString(), "hatt-status") << escape;
        EXPECT_EQ(err.at("code").asString(), "invalid_argument")
            << escape;
    }

    // A well-behaved relative out_dir lands beneath the out root.
    JsonValue served =
        client.rpc(compileFrame(dataFile("h2.ops"), "nested/run"));
    ASSERT_EQ(served.at("format").asString(), "hatt-compile-response");
    EXPECT_TRUE(fs::exists(fs::path(config.outRoot) / "nested/run" /
                           (served.at("stem").asString() +
                            ".mapping.json")));
    EXPECT_EQ(daemon.stop(), 0);
    fs::remove_all(dir);
}

TEST(Server, CompileErrorsComeBackAsStatusFrames)
{
    fs::path dir = scratchDir("badcompile");
    ServerConfig config;
    config.outRoot = (dir / "srv").string();
    Daemon daemon(config);
    Client client(daemon.server.port());

    JsonValue err =
        client.rpc(compileFrame((dir / "no_such_input.ops").string(), "w"));
    EXPECT_EQ(err.at("format").asString(), "hatt-status");
    EXPECT_FALSE(err.at("ok").asBool());
    EXPECT_FALSE(err.at("code").asString().empty());

    EXPECT_EQ(client.rpc(opFrame("ping")).at("message").asString(),
              "pong");
    EXPECT_EQ(daemon.stop(), 0);
    fs::remove_all(dir);
}

// ----------------------------------------------------- control verbs

TEST(Server, StatsVerbServesTheMetricsSnapshot)
{
    fs::path dir = scratchDir("stats");
    ServerConfig config;
    config.outRoot = (dir / "srv").string();
    Daemon daemon(config);
    Client client(daemon.server.port());

    ASSERT_EQ(client.rpc(opFrame("ping")).at("message").asString(),
              "pong");
    JsonValue stats = client.rpc(opFrame("stats"));
    EXPECT_EQ(stats.at("format").asString(), "hatt-stats");
    EXPECT_EQ(stats.at("version").asInt(), 1);
    EXPECT_NE(stats.at("build").find("git_sha"), nullptr);
    const JsonValue &det = stats.at("metrics").at("deterministic");
    ASSERT_NE(det.find("server.frames"), nullptr);
    // ping + this stats frame, at least (metrics are process-global, so
    // other server-fixture tests in this binary may have added more).
    EXPECT_GE(det.at("server.frames").asInt(), 2);
    EXPECT_EQ(daemon.stop(), 0);
    fs::remove_all(dir);
}

TEST(Server, NoWorkIsAdmittedAfterShutdownBegins)
{
    fs::path dir = scratchDir("draingate");
    ServerConfig config;
    config.outRoot = (dir / "srv").string();
    Daemon daemon(config);
    Client client(daemon.server.port());

    // Shutdown with a pipelined request behind it in the same write:
    // the drain must answer the shutdown and drop the ping — exactly
    // one reply frame, then EOF.
    client.sendRaw("{\"op\": \"shutdown\"}\n{\"op\": \"ping\"}\n");
    JsonValue bye = JsonValue::parse(client.recvLine());
    EXPECT_TRUE(bye.at("ok").asBool());
    EXPECT_EQ(bye.at("op").asString(), "shutdown");
    EXPECT_TRUE(client.recvEof()); // EOF, not a pong
    EXPECT_EQ(daemon.join(), 0);
    fs::remove_all(dir);
}

TEST(Server, ShutdownLeavesALoadableCache)
{
    // The durable tier is complete the moment a store returns: a clean
    // shutdown has nothing to fold or flush, and a fresh process hits
    // the daemon's entry straight from the directory.
    fs::path dir = scratchDir("dcache");
    const std::string cache_dir = (dir / "dcache").string();
    ServerConfig config;
    config.outRoot = (dir / "srv").string();
    config.cacheDir = cache_dir;
    Daemon daemon(config);
    Client client(daemon.server.port());
    const JsonValue resp = client.rpc(compileFrame(dataFile("h2.ops"), "d"));
    ASSERT_EQ(resp.at("format").asString(), "hatt-compile-response")
        << resp.dump();
    EXPECT_EQ(daemon.stop(), 0);

    const uint64_t hash =
        std::stoull(resp.at("content_hash").asString(), nullptr, 16);
    io::MappingCache fresh(cache_dir);
    std::optional<MappingStore::Entry> hit = fresh.load(hash, "hatt");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->tier, "disk");
    EXPECT_FALSE(fs::exists(fs::path(cache_dir) / "index.json"));
    fs::remove_all(dir);
}

/** Overwrite every entry file in @p cache whose name ends in
    @p suffix with a torn write; @return how many were damaged. */
size_t
tearEntries(const fs::path &cache, const std::string &suffix)
{
    size_t torn = 0;
    for (const fs::directory_entry &de : fs::directory_iterator(cache)) {
        const std::string name = de.path().filename().string();
        if (name.size() >= suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0) {
            std::ofstream(de.path(), std::ios::trunc) << "{ torn write\n";
            ++torn;
        }
    }
    return torn;
}

TEST(Server, QuarantinedCacheIsReportedByTheCompileThatMovedIt)
{
    // A restarted daemon over a cache with torn entries: the compile
    // whose own lookup quarantined an entry says so, whatever spelling
    // or option bag keyed it, and a later hit on the rebuilt entry
    // does not.
    fs::path dir = scratchDir("quarantine");
    const fs::path cache = dir / "dcache";
    ServerConfig config;
    config.cacheDir = cache.string();
    config.outRoot = (dir / "srv").string();
    auto h2Frame = [&](const std::string &mapping,
                       const std::string &device) {
        CompileRequest req;
        req.path = dataFile("h2.ops");
        req.outDir = mapping;
        req.mapping = mapping;
        req.device = device;
        return io::compileRequestToJson(req);
    };
    const JsonValue hatt = h2Frame("hatt", "");
    const JsonValue bonsai = h2Frame("bonsai", "line:8");
    auto quarantined = [](Client &client, const JsonValue &frame) {
        const JsonValue resp = client.rpc(frame);
        EXPECT_EQ(resp.at("format").asString(), "hatt-compile-response")
            << resp.dump(2);
        return resp.at("quarantined_cache").asBool();
    };

    {
        Daemon warm(config);
        Client client(warm.server.port());
        EXPECT_FALSE(quarantined(client, hatt));
        EXPECT_FALSE(quarantined(client, bonsai));
        EXPECT_EQ(warm.stop(), 0);
    }
    ASSERT_EQ(tearEntries(cache, "-hatt.json"), 1u);
    ASSERT_EQ(tearEntries(cache, "-bonsai.json"), 1u);
    {
        Daemon daemon(config);
        Client client(daemon.server.port());
        // (a) reported once: the repeat is a memory hit.
        EXPECT_TRUE(quarantined(client, hatt));
        EXPECT_FALSE(quarantined(client, hatt));
        // (b) the device-keyed entry of a device-aware kind.
        EXPECT_TRUE(quarantined(client, bonsai));
        EXPECT_EQ(daemon.stop(), 0);
    }
    ASSERT_EQ(tearEntries(cache, "-hatt.json"), 1u);
    {
        // (c) a case variant of the kind.
        Daemon daemon(config);
        Client client(daemon.server.port());
        EXPECT_TRUE(quarantined(client, h2Frame("HATT", "")));
        EXPECT_EQ(daemon.stop(), 0);
    }
    fs::remove_all(dir);
}

TEST(Server, RequestStopDrainsToACleanExit)
{
    fs::path dir = scratchDir("sigstop");
    ServerConfig config;
    config.outRoot = (dir / "srv").string();
    Daemon daemon(config);
    Client idle(daemon.server.port()); // an idle connection mustn't pin
    EXPECT_EQ(idle.rpc(opFrame("ping")).at("message").asString(),
              "pong"); // ensure it was accepted, not just backlogged
    EXPECT_EQ(daemon.stop(), 0); // the drain must not wait for it
    EXPECT_TRUE(idle.recvEof());
    fs::remove_all(dir);
}

// ------------------------------------------------- the shipped binary

/** Start @p argv with stdout and stderr appended to @p log; returns the
    child's pid (-1 when it could not be started). */
pid_t
spawnLogged(const std::vector<std::string> &argv, const fs::path &log)
{
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
    std::vector<char *> args;
    for (const std::string &a : argv)
        args.push_back(const_cast<char *>(a.c_str()));
    args.push_back(nullptr);
    pid_t pid = -1;
    if (posix_spawn(&pid, args[0], &actions, nullptr, args.data(),
                    environ) != 0)
        pid = -1;
    posix_spawn_file_actions_destroy(&actions);
    return pid;
}

/** Exit code of @p pid, or -1 when it did not exit normally. */
int
waitExit(pid_t pid)
{
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status))
        return -1;
    return WEXITSTATUS(status);
}

/** Kills and reaps a child that a failed assertion left running. */
struct ChildGuard
{
    pid_t pid;

    ~ChildGuard()
    {
        if (pid > 0 && ::waitpid(pid, nullptr, WNOHANG) == 0) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, nullptr, 0);
        }
    }
};

TEST(Hattd, RealDaemonRoundTripWarmTierParityAndSigterm)
{
    fs::path dir = scratchDir("binary");
    const fs::path log = dir / "hattd.log";
    const pid_t daemon = spawnLogged(
        {HATTD_BINARY, "--port", "0", "--cache", (dir / "dcache").string(),
         "--out-root", (dir / "srv").string()},
        log);
    ASSERT_GT(daemon, 0);
    ChildGuard guard{daemon};

    // Port 0: the daemon picks one and announces it.
    const std::string listening = "listening on 127.0.0.1:";
    std::string text;
    size_t at = std::string::npos;
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while ((at = (text = readFile(log)).find(listening)) ==
               std::string::npos &&
           std::chrono::steady_clock::now() < give_up)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_NE(at, std::string::npos) << text;
    const uint16_t port = static_cast<uint16_t>(
        std::stoi(text.substr(at + listening.size())));

    // h2 and hubbard2x2 twice on one connection, then ping and stats.
    // The h2 frame still carries the retired `jobs: 0` field, as older
    // v1 clients send it.
    const std::vector<std::string> inputs = {"h2", "hubbard2x2"};
    std::vector<JsonValue> frames;
    for (const std::string &inp : inputs)
        frames.push_back(compileFrame(dataFile(inp + ".ops"), "w_" + inp));
    frames[0].add("jobs", 0);
    std::vector<JsonValue> replies;
    {
        Client client(port);
        for (int pass = 0; pass < 2; ++pass)
            for (const JsonValue &frame : frames)
                replies.push_back(client.rpc(frame));
        replies.push_back(client.rpc(opFrame("ping")));
        replies.push_back(client.rpc(opFrame("stats")));
    }
    ASSERT_EQ(replies.size(), 6u);
    for (size_t i = 0; i < 4; ++i)
        ASSERT_EQ(replies[i].at("format").asString(),
                  "hatt-compile-response")
            << replies[i].dump(2);

    // The paper's H2/STO-3G row over the wire, built cold.
    EXPECT_EQ(replies[0].at("num_qubits").asInt(), 4);
    EXPECT_EQ(replies[0].at("pauli_weight").asInt(), 32);
    EXPECT_FALSE(replies[0].at("cache_hit").asBool());
    // The repeat pass is served by the warm memory tier and is the cold
    // response, volatile fields aside.
    for (size_t i = 0; i < 2; ++i) {
        EXPECT_TRUE(replies[i + 2].at("cache_hit").asBool());
        EXPECT_EQ(replies[i + 2].at("cache_tier").asString(), "memory");
        EXPECT_EQ(stripVolatile(replies[i + 2]), stripVolatile(replies[i]));
    }
    EXPECT_EQ(replies[4].at("message").asString(), "pong");
    EXPECT_EQ(replies[5].at("format").asString(), "hatt-stats");
    EXPECT_EQ(replies[5]
                  .at("metrics")
                  .at("deterministic")
                  .at("server.compile_requests")
                  .asInt(),
              4);

    // The daemon's artifacts are byte-identical to one-shot hattc runs.
    for (const std::string &inp : inputs) {
        const fs::path one = dir / "one" / inp;
        ASSERT_EQ(waitExit(spawnLogged({HATTC_BINARY, "compile",
                                        dataFile(inp + ".ops"), "-o",
                                        one.string()},
                                       dir / "hattc.log")),
                  0)
            << readFile(dir / "hattc.log");
        for (const char *kind : {".mapping.json", ".tree.json", ".qubit.json"})
            EXPECT_EQ(readFile(dir / "srv" / ("w_" + inp) / (inp + kind)),
                      readFile(one / (inp + kind)))
                << inp << kind;
    }

    // SIGTERM drains to a clean exit.
    ASSERT_EQ(::kill(daemon, SIGTERM), 0);
    EXPECT_EQ(waitExit(daemon), 0);
    EXPECT_NE(readFile(log).find("shut down cleanly"), std::string::npos)
        << readFile(log);
    fs::remove_all(dir);
}

} // namespace
} // namespace hatt
