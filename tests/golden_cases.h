// Shared definition of the golden-regression scenarios: the exact paper
// artifacts (Tables 2-4 design-rule grids, Fig. 2/3 sweep series, the
// Monte-Carlo variation summary) flattened to ordered (key, value) rows, and
// the service's reply-bytes corpus (one exact reply per ladder outcome).
//
// Both tests/test_golden_regression.cpp (compare against tests/golden/*) and
// tests/golden_gen_main.cpp (regenerate the snapshots, driven by
// tools/update_golden.py) include this header, so the checked values and the
// written values can never drift apart.
#pragma once

#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "cache/solve_cache.h"
#include "core/variation.h"
#include "numeric/constants.h"
#include "numeric/fault_injection.h"
#include "selfconsistent/sweep.h"
#include "service/request.h"
#include "service/server.h"
#include "supervise/pool.h"
#include "supervise/protocol.h"
#include "tech/ntrs.h"
#include "thermal/impedance.h"

namespace dsmt::golden {

using Rows = std::vector<std::pair<std::string, double>>;

inline std::string fmt_idx(std::size_t i) {
  return (i < 10 ? "0" : "") + std::to_string(i);
}

/// The Fig. 2/3 base problem (figure captions: Cu, AlCu-era Q = 0.7 eV,
/// t_ox = 3 um, t_m = 0.5 um, W_m = 3 um, quasi-1D spreading).
inline selfconsistent::Problem fig_base_problem() {
  selfconsistent::Problem p;
  p.metal = materials::make_copper();
  p.metal.em.activation_energy_ev = 0.7;
  p.j0 = MA_per_cm2(0.6);
  const auto weff =
      thermal::effective_width(um(3.0), um(3.0), thermal::kPhiQuasi1D);
  const auto rth =
      thermal::rth_per_length_uniform(um(3.0), W_per_mK(1.15), weff);
  p.heating_coefficient =
      selfconsistent::heating_coefficient(um(3.0), um(0.5), rth);
  return p;
}

/// One design-rule table (the bench/design_rule_common.h row selection):
/// signal and power duty cycles, the three paper dielectrics, and the
/// paper's top-of-stack level rows for each technology node.
inline Rows design_rule_rows(const std::vector<tech::Technology>& techs,
                             double j0_ma_per_cm2) {
  Rows rows;
  for (double r : {0.1, 1.0}) {
    for (const auto& technology : techs) {
      selfconsistent::TableSpec spec;
      spec.technology = technology;
      spec.gap_fills = materials::paper_dielectrics();
      const int top = technology.top_level();
      const int n_rows = technology.num_levels() >= 8 ? 4 : 2;
      for (int l = top - n_rows + 1; l <= top; ++l) spec.levels.push_back(l);
      spec.duty_cycles = {r};
      spec.j0 = MA_per_cm2(j0_ma_per_cm2);
      for (const auto& cell : selfconsistent::generate_design_rule_table(spec)) {
        const std::string key = technology.name + "/r=" +
                                (r < 0.5 ? "0.1" : "1.0") + "/M" +
                                std::to_string(cell.level) + "/" +
                                cell.dielectric;
        rows.emplace_back(key + "/jpeak_MA_cm2", to_MA_per_cm2(cell.sol.j_peak));
        rows.emplace_back(key + "/tm_C", kelvin_to_celsius(cell.sol.t_metal));
      }
    }
  }
  return rows;
}

inline Rows table2_rows() {
  return design_rule_rows(
      {tech::make_ntrs_250nm_cu(), tech::make_ntrs_100nm_cu()}, 0.6);
}

inline Rows table3_rows() {
  return design_rule_rows(
      {tech::make_ntrs_250nm_cu(), tech::make_ntrs_100nm_cu()}, 1.8);
}

inline Rows table4_rows() {
  return design_rule_rows(
      {tech::make_ntrs_250nm_alcu(), tech::make_ntrs_100nm_alcu()}, 0.6);
}

/// Fig. 2 series: the bench's 17-point log-spaced duty sweep.
inline Rows fig2_rows() {
  Rows rows;
  const auto duties = selfconsistent::log_spaced(1e-4, 1.0, 17);
  const auto points =
      selfconsistent::sweep_duty_cycle(fig_base_problem(), duties);
  for (std::size_t k = 0; k < points.size(); ++k) {
    const std::string key = "fig2/k=" + fmt_idx(k);
    rows.emplace_back(key + "/duty", points[k].duty_cycle);
    rows.emplace_back(key + "/tm_C", kelvin_to_celsius(points[k].sc.t_metal));
    rows.emplace_back(key + "/jpeak_sc", to_MA_per_cm2(points[k].sc.j_peak));
    rows.emplace_back(key + "/jpeak_em_only",
                      to_MA_per_cm2(points[k].jpeak_em_only));
    rows.emplace_back(key + "/jpeak_thermal_only",
                      to_MA_per_cm2(points[k].jpeak_thermal_only));
  }
  return rows;
}

/// Fig. 3 family: j_o in {0.6, 1.2, 1.8, 2.4} MA/cm^2 over 9 duty points.
inline Rows fig3_rows() {
  Rows rows;
  const std::vector<double> j0s = {MA_per_cm2(0.6), MA_per_cm2(1.2),
                                   MA_per_cm2(1.8), MA_per_cm2(2.4)};
  const auto duties = selfconsistent::log_spaced(1e-4, 1.0, 9);
  const auto family = selfconsistent::sweep_j0(fig_base_problem(), j0s, duties);
  for (std::size_t i = 0; i < family.size(); ++i) {
    for (std::size_t k = 0; k < family[i].size(); ++k) {
      const std::string key =
          "fig3/j0=" + fmt_idx(i) + "/k=" + fmt_idx(k);
      rows.emplace_back(key + "/tm_C",
                        kelvin_to_celsius(family[i][k].sc.t_metal));
      rows.emplace_back(key + "/jpeak_sc",
                        to_MA_per_cm2(family[i][k].sc.j_peak));
    }
  }
  return rows;
}

/// Monte-Carlo variation distribution summary (counter-seeded sampling):
/// 100 nm Cu node, top level, HSQ gap fill, signal duty, paper j0.
inline Rows variation_rows() {
  core::VariationSpec spec;
  const auto res =
      core::monte_carlo_jpeak(tech::make_ntrs_100nm_cu(), 8,
                              materials::make_hsq(), 2.45, 0.1,
                              MA_per_cm2(1.8), spec, 200);
  Rows rows;
  rows.emplace_back("variation/nominal", res.nominal);
  rows.emplace_back("variation/mean", res.mean);
  rows.emplace_back("variation/stddev", res.stddev);
  rows.emplace_back("variation/p01", res.p01);
  rows.emplace_back("variation/p50", res.p50);
  rows.emplace_back("variation/p99", res.p99);
  // Pin a few individual samples too: they prove the per-sample seeding
  // (not just the aggregate) is stable.
  for (std::size_t s : {std::size_t{0}, std::size_t{99}, std::size_t{199}})
    rows.emplace_back("variation/sample" + fmt_idx(s), res.samples[s]);
  return rows;
}

/// Design-rule table pinned against selfconsistent::solve directly (the
/// Tables 2-4 rows above cover the sweep driver): a (duty x dielectric x
/// level) grid for the 100 nm Cu node, one solve per cell. A failed cell
/// would throw, value drift would show in the rows.
inline Rows batch_table_rows() {
  const auto technology = tech::make_ntrs_100nm_cu();
  const auto gap_fills = materials::paper_dielectrics();
  const std::vector<int> levels = {5, 6, 7, 8};
  const std::vector<double> duties = {0.01, 0.1, 0.5, 1.0};

  Rows rows;
  for (const double r : duties) {
    for (const auto& gf : gap_fills) {
      for (const int level : levels) {
        const std::string key = "batch_table/r=" + std::to_string(r) + "/" +
                                gf.name + "/M" + std::to_string(level);
        const selfconsistent::Solution s =
            selfconsistent::solve(selfconsistent::make_level_problem(
                technology, level, gf, 2.45, r, MA_per_cm2(0.6)));
        rows.emplace_back(key + "/tm_C", kelvin_to_celsius(s.t_metal));
        rows.emplace_back(key + "/jpeak_MA_cm2", to_MA_per_cm2(s.j_peak));
        rows.emplace_back(key + "/iterations",
                          static_cast<double>(s.iterations));
      }
    }
  }
  return rows;
}

/// Monte-Carlo variation summary on a second configuration (250 nm Cu
/// node, polyimide gap fill, power duty): pins the sampling end to end —
/// per-sample seeding, sample ordering, and the ordered reduction.
inline Rows batch_variation_rows() {
  core::VariationSpec spec;
  const auto technology = tech::make_ntrs_250nm_cu();
  const auto res = core::monte_carlo_jpeak(technology,
                                           technology.top_level(),
                                           materials::make_polyimide(), 2.45,
                                           1.0, MA_per_cm2(0.6), spec, 150);
  Rows rows;
  rows.emplace_back("batch_variation/nominal", res.nominal);
  rows.emplace_back("batch_variation/mean", res.mean);
  rows.emplace_back("batch_variation/stddev", res.stddev);
  rows.emplace_back("batch_variation/p01", res.p01);
  rows.emplace_back("batch_variation/p50", res.p50);
  rows.emplace_back("batch_variation/p99", res.p99);
  for (std::size_t s : {std::size_t{0}, std::size_t{74}, std::size_t{149}})
    rows.emplace_back("batch_variation/sample" + fmt_idx(s), res.samples[s]);
  return rows;
}

/// Every golden file: name (under tests/golden/) plus its row generator.
struct GoldenCase {
  const char* file;
  Rows (*rows)();
};

/// Prints a case as its file name. gtest's default printer dumps the struct's
/// pointer bytes, which address-space randomisation changes on every run, so
/// the listed test names (and the CTest names built from them) would never
/// repeat.
inline void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.file; }

inline std::vector<GoldenCase> all_cases() {
  return {
      {"table2_cu_jo06.csv", &table2_rows},
      {"table3_cu_jo18.csv", &table3_rows},
      {"table4_alcu_jo06.csv", &table4_rows},
      {"fig2_series.csv", &fig2_rows},
      {"fig3_family.csv", &fig3_rows},
      {"variation_summary.csv", &variation_rows},
      {"batch_table.csv", &batch_table_rows},
      {"batch_variation.csv", &batch_variation_rows},
  };
}

// --- Reply-bytes corpus ------------------------------------------------------
//
// Reply bytes are the service's behavioural contract, so they are pinned
// exactly, with no tolerance: one reply payload (the DSM1 frame body,
// service::write_response at compact indent) per ladder outcome and typed
// refusal. A diff of the committed file is exactly what a change did to
// the wire.

/// (case name, reply payload bytes), in file order.
using Replies = std::vector<std::pair<std::string, std::string>>;

inline constexpr const char* kReplyCorpusFile = "reply_corpus.tsv";

namespace corpus {

inline service::Request wire(const std::string& id, double duty) {
  service::Request r;
  r.id = id;
  r.kind = service::RequestKind::kSelfConsistent;
  r.duty_cycle = duty;
  r.wire.width_um = 0.5;
  r.wire.thickness_um = 0.9;
  r.wire.dielectric_um = 0.8;
  return r;
}

inline service::ServerConfig quiet() {
  service::ServerConfig c;
  c.publish_signoff = false;
  return c;
}

/// NaN residuals in Brent and its bisection fallback ("numeric/b" matches
/// both): no recovery stage can save the full solve.
inline numeric::fault::FaultPlan dead_solver() {
  return {numeric::fault::FaultKind::kNanResidual, "numeric/b", 1, 0.0, ""};
}

/// The reply's payload as service::write_response writes it, checked
/// against the tree-built oracle: a disagreement is written into the bytes,
/// so the corpus comparison reports it by case name.
inline std::string bytes(const service::Response& response) {
  std::string written;
  service::write_response(written, response, -1);
  const std::string oracle = service::response_to_json(response).dump(-1);
  return written == oracle ? written
                           : "write_response " + written +
                                 " differs from response_to_json " + oracle;
}

/// The parent-side answer to a request whose hash crashed two workers.
inline std::string quarantine_reply() {
  supervise::SuperviseConfig config;
  config.workers = 1;
  config.service = quiet();
  config.sleep_on_restart_backoff = false;
  config.publish_signoff = false;
  config.poll_interval_ms = 5;
  config.quarantine_threshold = 2;
  // Empty key substring: every request reaching a worker is poison.
  config.limits.child_fault = {numeric::fault::FaultKind::kCrashAbort,
                               "supervise/worker", 1, 10.0, ""};
  supervise::WorkerPool pool(config);
  const service::Request poison = wire("", 0.1);
  (void)pool.execute(poison, 1);
  (void)pool.execute(poison, 2);
  return supervise::frame_payload(pool.execute(poison, 3).frame);
}

}  // namespace corpus

inline Replies reply_corpus() {
  using numeric::fault::ScopedFault;
  // Forks first, before this process starts any pool thread.
  const std::string quarantined = corpus::quarantine_reply();

  Replies out;
  {
    service::Server server(corpus::quiet());
    service::Request duty = corpus::wire("duty-cycle-point", 0.01);
    duty.kind = service::RequestKind::kDutyCyclePoint;
    service::Request cell;
    cell.id = "table-cell";
    cell.kind = service::RequestKind::kTableCell;
    cell.technology = "NTRS-100nm-Cu";
    cell.level = 6;
    cell.dielectric = "hsq";
    const std::vector<service::Request> kinds = {
        corpus::wire("self-consistent", 0.1), duty, cell};
    for (std::size_t i = 0; i < kinds.size(); ++i)
      out.emplace_back(std::string("full/") + service::kind_name(kinds[i].kind),
                       corpus::bytes(server.handle(kinds[i], i)));
  }
  {
    service::ServerConfig config = corpus::quiet();
    config.solve_cache =
        std::make_shared<cache::SolveCache>(cache::SolveCacheConfig{});
    service::Server server(config);
    (void)server.handle(corpus::wire("cache-cold", 0.2), 0);
    out.emplace_back("full/cache-hit",
                     corpus::bytes(server.handle(corpus::wire("cache-hit", 0.2),
                                                 1)));
  }
  {
    service::Server server(corpus::quiet());
    ScopedFault fault(corpus::dead_solver());
    out.emplace_back("degraded/retries-exhausted",
                     corpus::bytes(server.handle(
                         corpus::wire("retries-exhausted", 0.1), 7)));
  }
  {
    // The same geometry solved at r' = 0.25, then the solver fails at
    // r = 0.1 <= r'.
    service::Server server(corpus::quiet());
    (void)server.handle(corpus::wire("solved", 0.25), 0);
    ScopedFault fault(corpus::dead_solver());
    out.emplace_back("degraded/solved-geometry-then-fault",
                     corpus::bytes(server.handle(
                         corpus::wire("same-geometry", 0.1), 1)));
  }
  {
    service::ServerConfig config = corpus::quiet();
    config.queue_capacity = 1;
    service::Server server(config);
    const std::vector<service::Response> replies = server.submit_batch(
        {corpus::wire("admitted", 0.1), corpus::wire("shed", 0.1)});
    out.emplace_back("refused/shed", corpus::bytes(replies[1]));
  }
  {
    service::Server server(corpus::quiet());
    service::Request bad = corpus::wire("invalid-input", 0.1);
    bad.wire.width_um = -1.0;
    out.emplace_back("refused/invalid-input",
                     corpus::bytes(server.handle(bad, 0)));
  }
  {
    // The EM-only line j0/r of this duty-cycle point overflows: refused
    // before any kernel runs, never answered with +inf.
    service::Server server(corpus::quiet());
    service::Request tiny = corpus::wire("tiny-duty", 5e-324);
    tiny.kind = service::RequestKind::kDutyCyclePoint;
    out.emplace_back("refused/tiny-duty",
                     corpus::bytes(server.handle(tiny, 0)));
  }
  out.emplace_back("supervise/quarantine", quarantined);
  return out;
}

/// The corpus file: a header line, then one "case<TAB>bytes" line per
/// reply. Compact JSON escapes every control character, so a reply never
/// spans lines.
inline std::string reply_corpus_text() {
  std::string text = "case\treply\n";
  for (const auto& [name, reply] : reply_corpus())
    text += name + "\t" + reply + "\n";
  return text;
}

}  // namespace dsmt::golden
