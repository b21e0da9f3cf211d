#include "core/rfn.hpp"

#include <algorithm>

namespace rfn {

bool RfnOptions::engine_enabled(const char* name) const {
  if (engines.empty()) return true;
  return std::find(engines.begin(), engines.end(), name) != engines.end();
}

std::vector<std::string> RfnOptions::validate() const {
  std::vector<std::string> errors;
  // Single source of truth for the portfolio's engine names; the rejection
  // message spells out the whole valid set so a typo is self-correcting.
  static const char* const kEngines[] = {"bdd", "atpg", "sat", "pdr"};
  static const std::string kEngineList = [] {
    std::string list;
    for (const char* name : kEngines) {
      if (!list.empty()) list += ",";
      list += name;
    }
    return list;
  }();
  for (const std::string& e : engines) {
    const bool known = std::find(std::begin(kEngines), std::end(kEngines), e) !=
                       std::end(kEngines);
    if (!known)
      errors.push_back("unknown engine \"" + e + "\" (valid engines: " +
                       kEngineList + ")");
  }
  // Step 2 needs an engine that can settle the abstract obligation; with
  // only "atpg" every run would end Unknown.
  if (!engines.empty() && !engine_enabled("bdd") && !engine_enabled("sat") &&
      !engine_enabled("pdr"))
    errors.push_back("engines must include a Step-2 engine (bdd, sat or pdr)");
  if (race_pdr_max_frames == 0)
    errors.push_back("race_pdr_max_frames must be >= 1");
  if (race_pdr_time_s < 0.0)
    errors.push_back("race_pdr_time_s must be >= 0");
  if (max_iterations == 0)
    errors.push_back("max_iterations must be >= 1");
  if (traces_per_iteration == 0)
    errors.push_back("traces_per_iteration must be >= 1");
  if (budget_bdd_nodes < 0)
    errors.push_back("budget_bdd_nodes must be >= 0 (0 disables the budget)");
  if (budget_mem_mb < 0)
    errors.push_back("budget_mem_mb must be >= 0 (0 disables the budget)");
  if (race_probe_time_s < 0.0)
    errors.push_back("race_probe_time_s must be >= 0");
  if (reach.max_live_nodes == 0)
    errors.push_back("reach.max_live_nodes must be >= 1");
  if (reach.max_steps == 0)
    errors.push_back("reach.max_steps must be >= 1");
  return errors;
}

}  // namespace rfn
