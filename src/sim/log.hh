/**
 * @file
 * Minimal leveled logging for simulation components.
 *
 * Off by default so benches stay quiet; tests and examples raise the
 * level to trace command flow. Messages are prefixed with simulated
 * time and component name.
 */

#ifndef BMS_SIM_LOG_HH
#define BMS_SIM_LOG_HH

#include <string>

#include "sim/check.hh"
#include "sim/types.hh"

namespace bms::sim {

enum class LogLevel
{
    None = 0,
    Warn = 1,
    Info = 2,
    Debug = 3,
    Trace = 4,
};

/** Process-wide log configuration. */
class Log
{
  public:
    static LogLevel level() { return _level; }
    static void setLevel(LogLevel lvl) { _level = lvl; }
    static bool enabled(LogLevel lvl) { return lvl <= _level; }

    /** Emit one line: "[<time us>] <who>: <msg>". */
    static void write(LogLevel lvl, Tick now, const std::string &who,
                      const std::string &msg);

  private:
    static LogLevel _level;
};

/**
 * Compose a message from stream-able parts and log it. Parts format
 * like a panic report's (check.hh): one-byte integers such as a
 * pcie::FunctionId print as numbers, bools as true/false.
 */
template <typename... Parts>
void
logAt(LogLevel lvl, Tick now, const std::string &who, const Parts &...parts)
{
    if (!Log::enabled(lvl))
        return;
    Log::write(lvl, now, who, detail::formatParts(parts...));
}

} // namespace bms::sim

#endif // BMS_SIM_LOG_HH
