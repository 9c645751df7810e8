#ifndef HATT_COMMON_FAULT_HPP
#define HATT_COMMON_FAULT_HPP

/**
 * @file
 * Deterministic fault-injection registry. Production code queries named
 * injection points (`fault::at("cache.write")`) at the places that can
 * fail in the field — cache io, parser allocation, pool task dispatch —
 * and tests (or the HATT_FAULTS environment variable) arm them with a
 * spec describing exactly which arrivals fire:
 *
 *     HATT_FAULTS=cache.write=fail@2,parse.alloc=throw@1
 *
 * Spec grammar (comma-separated rules):
 *
 *     point=action[@N[+]]
 *
 *  - point:   dotted site name (cache.write, cache.read, emit.write,
 *             parse.alloc, pool.dispatch, ...). Unknown names are legal — a rule
 *             simply never fires if nothing queries its point.
 *  - action:  "fail" (the site reports a clean failure on its normal
 *             error path) or "throw" (the site throws the exception
 *             class the fault models, e.g. std::bad_alloc for
 *             parse.alloc).
 *  - @N:      fire only on the N-th arrival at the point (1-based);
 *             "@N+" fires on every arrival from the N-th on. Without
 *             @N the rule fires on every arrival.
 *
 * Firings depend only on the arrival count, so an armed run is as
 * deterministic as an unarmed one.
 *
 * Cost when unset: a single relaxed atomic load per query — no locks,
 * no clock reads, no allocation. Arrival counters are only maintained
 * while a spec is armed, so runs without HATT_FAULTS are bit-identical
 * to builds that never call fault::at().
 */

#include <cstdint>
#include <string>

namespace hatt::fault {

/** What an armed injection point asks the call site to do. */
enum class Action {
    None, //!< proceed normally
    Fail, //!< report a clean failure through the site's error path
    Throw //!< throw the exception class the site's fault models
};

/**
 * Query the injection point @p point, counting this arrival. Returns
 * Action::None unless a spec armed the point. On the first query the
 * registry self-initializes from HATT_FAULTS.
 */
Action at(const char *point);

/** True when any spec is armed (env or configure()). */
bool active();

/**
 * Arm the registry with @p spec (see grammar above); an empty spec
 * disarms it. Resets all arrival counters. Returns an empty string on
 * success, else a diagnostic describing the first bad rule.
 */
std::string configure(const std::string &spec);

/** Disarm every rule and reset counters (tests' teardown). */
void disable();

/** Arrivals counted at @p point since the last configure()/disable(). */
uint64_t arrivals(const std::string &point);

} // namespace hatt::fault

#endif // HATT_COMMON_FAULT_HPP
