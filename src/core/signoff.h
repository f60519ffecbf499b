// One-call chip-level thermal/EM sign-off.
//
// Runs the complete flow the paper motivates, in one structured report:
//   1. self-consistent design-rule tables for every metal level and
//      dielectric flow (signal + power duties),
//   2. delay-optimal repeater checks on the global layers
//      (j_peak-delay vs j_peak-self-consistent),
//   3. an ESD screen of the I/O-relevant top layer,
//   4. the chip-level EM budget derating,
// and renders the result as an aligned text report.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/engine.h"
#include "report/json.h"

namespace dsmt::core {

struct SignoffOptions {
  double j0 = 6e9;                  ///< EM design rule [A/m^2]
  std::vector<materials::Dielectric> gap_fills =
      materials::paper_dielectrics();
  double k_rel_electrical = 4.0;    ///< insulator permittivity for delay
  double esd_hbm_volts = 2000.0;    ///< qualification target
  std::size_t em_population = 1000000;  ///< stressed lines for budgeting
  double em_sigma = 0.5;
  EngineOptions engine;
};

struct SignoffReport {
  std::string technology;
  std::vector<selfconsistent::TableCell> design_rules;  ///< all levels/flows
  std::vector<LayerCheck> global_checks;                ///< top layers
  esd::StressAssessment esd;                            ///< top layer, HBM
  double j0_chip_budgeted = 0.0;  ///< j0 after population derating [A/m^2]
  bool all_global_layers_pass = false;
  bool esd_safe = false;

  /// Renders the full report as aligned text tables.
  std::string to_text() const;

  /// Serializes the full report as JSON (for downstream tooling).
  std::string to_json(int indent = 2) const;
};

/// Runs the sign-off for a technology. Global layers = the top two (or the
/// top four on stacks of 8+ levels), matching the paper's table layout.
SignoffReport run_signoff(const tech::Technology& technology,
                          const SignoffOptions& options = {});

/// Registers the provider of the sign-off report's "service" JSON section
/// (admission and outcome counters — see service/server.h). `owner`
/// identifies the registrant so a stale owner cannot clear a newer one;
/// the latest registration wins. SignoffReport::to_json invokes the source
/// while holding the slot lock, so the source must not call back into this
/// registration API (it would self-deadlock).
void set_signoff_service_source(const void* owner,
                                std::function<report::Json()> source);

/// Clears the registration if (and only if) `owner` still holds it. Blocks
/// until any in-flight to_json invocation of the source returns, so after
/// this call the owner may be destroyed safely.
void clear_signoff_service_source(const void* owner);

/// Copy of the registered provider, for introspection; empty when none is
/// registered. Unlike to_json, a copy invoked by the caller does NOT hold
/// the slot lock — only invoke it while the registrant is known to outlive
/// the call.
std::function<report::Json()> signoff_service_source();

}  // namespace dsmt::core
