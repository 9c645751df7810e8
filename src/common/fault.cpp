#include "common/fault.hpp"

#include "common/metrics.hpp"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace hatt::fault {

namespace {

struct Rule
{
    Action action = Action::None;
    uint64_t n = 0;       //!< 0 = every arrival
    bool fromNOn = false; //!< "@N+": every arrival >= n
    uint64_t arrivals = 0;
};

struct Registry
{
    std::mutex mutex;
    std::unordered_map<std::string, Rule> rules;
};

// 0 = uninitialized (env not yet consulted), 1 = disarmed, 2 = armed.
std::atomic<int> g_state{0};

Registry &
registry()
{
    static Registry reg;
    return reg;
}

/** Parse one "point=action[@N[+]]" rule into (point, rule). */
std::string
parseRule(const std::string &text, std::string &point, Rule &rule)
{
    const size_t eq = text.find('=');
    if (eq == std::string::npos || eq == 0)
        return "fault rule \"" + text + "\": expected point=action";
    point = text.substr(0, eq);
    std::string rest = text.substr(eq + 1);

    const size_t atp = rest.find('@');
    if (atp != std::string::npos) {
        std::string num = rest.substr(atp + 1);
        if (!num.empty() && num.back() == '+') {
            rule.fromNOn = true;
            num.pop_back();
        }
        if (num.empty() ||
            num.find_first_not_of("0123456789") != std::string::npos)
            return "fault rule \"" + text + "\": bad arrival index";
        rule.n = std::strtoull(num.c_str(), nullptr, 10);
        if (rule.n == 0)
            return "fault rule \"" + text +
                   "\": arrival index is 1-based";
        rest = rest.substr(0, atp);
    }

    if (rest == "fail")
        rule.action = Action::Fail;
    else if (rest == "throw")
        rule.action = Action::Throw;
    else
        return "fault rule \"" + text + "\": unknown action \"" + rest +
               "\" (want fail or throw)";
    return {};
}

std::string
configureLocked(Registry &reg, const std::string &spec)
{
    reg.rules.clear();
    if (spec.empty()) {
        g_state.store(1, std::memory_order_release);
        return {};
    }
    size_t pos = 0;
    while (pos <= spec.size()) {
        size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string item = spec.substr(pos, comma - pos);
        if (!item.empty()) {
            std::string point;
            Rule rule;
            std::string err = parseRule(item, point, rule);
            if (!err.empty()) {
                reg.rules.clear();
                g_state.store(1, std::memory_order_release);
                return err;
            }
            reg.rules[point] = rule;
        }
        pos = comma + 1;
    }
    g_state.store(reg.rules.empty() ? 1 : 2, std::memory_order_release);
    return {};
}

/** First-use init from the environment (ignores a malformed spec). */
void
initFromEnv()
{
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    if (g_state.load(std::memory_order_acquire) != 0)
        return; // raced with another initializer / configure()
    const char *spec = std::getenv("HATT_FAULTS");
    configureLocked(reg, spec != nullptr ? spec : "");
}

} // namespace

Action
at(const char *point)
{
    int s = g_state.load(std::memory_order_acquire);
    if (s == 1)
        return Action::None; // the common, zero-cost path
    if (s == 0) {
        initFromEnv();
        s = g_state.load(std::memory_order_acquire);
        if (s == 1)
            return Action::None;
    }
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    auto it = reg.rules.find(point);
    if (it == reg.rules.end())
        return Action::None;
    Rule &rule = it->second;
    const uint64_t arrival = ++rule.arrivals;
    if (rule.n != 0 &&
        (rule.fromNOn ? arrival < rule.n : arrival != rule.n))
        return Action::None;
    // Deterministic by construction: the arrival filter alone decides
    // firings, never the clock or a thread id.
    metrics::add("fault.firings");
    return rule.action;
}

bool
active()
{
    int s = g_state.load(std::memory_order_acquire);
    if (s == 0) {
        initFromEnv();
        s = g_state.load(std::memory_order_acquire);
    }
    return s == 2;
}

std::string
configure(const std::string &spec)
{
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    return configureLocked(reg, spec);
}

void
disable()
{
    configure({});
}

uint64_t
arrivals(const std::string &point)
{
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    auto it = reg.rules.find(point);
    return it == reg.rules.end() ? 0 : it->second.arrivals;
}

} // namespace hatt::fault
