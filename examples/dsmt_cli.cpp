// dsmt_cli — a small command-line front end over the library, for flows
// that want the analyses without writing C++:
//
//   dsmt_cli designrule --tech <250|180|130|100|file.tech> [--level N]
//                       [--j0 MA] [--duty r] [--dielectric name]
//   dsmt_cli repeater   --tech <...> [--level N] [--k K]
//   dsmt_cli esd        --tech <...> [--level N] [--hbm kV]
//   dsmt_cli signoff    --tech <...> [--j0 MA] [--k K]
//   dsmt_cli techfile   --tech <...>            (dump the techfile)
//
// Each subcommand takes only the options on its line, and every number is
// read by core/cli.h's rule. An unknown subcommand or option, an option
// without a value, a missing --tech or a bad number exits 2 naming it,
// with the usage message. An analysis that fails (an unreadable .tech
// file, a level the stack lacks) exits 1.
#include <cstdio>
#include <map>
#include <set>
#include <stdexcept>
#include <string>

#include "core/cli.h"
#include "core/signoff.h"
#include "numeric/constants.h"
#include "repeater/optimizer.h"
#include "repeater/simulate.h"
#include "selfconsistent/sweep.h"
#include "tech/ntrs.h"
#include "tech/techfile.h"

namespace {

using namespace dsmt;

/// Every subcommand with the --name VALUE options it reads.
const std::map<std::string, std::set<std::string>> kCommands = {
    {"designrule", {"tech", "level", "j0", "duty", "dielectric"}},
    {"repeater", {"tech", "level", "k"}},
    {"esd", {"tech", "level", "hbm"}},
    {"signoff", {"tech", "j0", "k"}},
    {"techfile", {"tech"}},
};

int usage() {
  std::fprintf(stderr,
               "usage: dsmt_cli designrule --tech T [--level N] [--j0 MA] "
               "[--duty r] [--dielectric name]\n"
               "       dsmt_cli repeater   --tech T [--level N] [--k K]\n"
               "       dsmt_cli esd        --tech T [--level N] [--hbm kV]\n"
               "       dsmt_cli signoff    --tech T [--j0 MA] [--k K]\n"
               "       dsmt_cli techfile   --tech T\n"
               "T is 250, 180, 130, 100 or a .tech file\n");
  return 2;
}

int usage_error(const std::string& message) {
  std::fprintf(stderr, "dsmt_cli: %s\n", message.c_str());
  return usage();
}

tech::Technology load_tech(const std::string& spec) {
  if (spec == "250") return tech::make_ntrs_250nm_cu();
  if (spec == "180") return tech::make_ntrs_180nm_cu();
  if (spec == "130") return tech::make_ntrs_130nm_cu();
  if (spec == "100") return tech::make_ntrs_100nm_cu();
  return tech::load_techfile(spec);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const auto command = kCommands.find(cmd);
  if (command == kCommands.end())
    return usage_error("unknown subcommand '" + cmd + "'");

  std::map<std::string, std::string> opts;
  for (int i = 2; i < argc; i += 2) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0 || !command->second.count(arg.substr(2)))
      return usage_error("unknown option '" + arg + "' for " + cmd);
    if (i + 1 >= argc) return usage_error("missing value for " + arg);
    opts[arg.substr(2)] = argv[i + 1];
  }
  if (!opts.count("tech")) return usage_error("missing --tech");

  // Every number is read before any analysis runs, so a bad one exits 2.
  const auto number = [&](const std::string& name, double fallback) {
    return opts.count(name) ? core::number_option<double>(name, opts[name])
                            : fallback;
  };
  int level = 0;
  double j0_ma = 0.0, duty = 0.0, k = 0.0, kv = 0.0;
  try {
    if (opts.count("level"))
      level = core::number_option<int>("level", opts["level"]);
    j0_ma = number("j0", 0.6);
    duty = number("duty", 0.1);
    k = number("k", 4.0);
    kv = number("hbm", 2.0);
  } catch (const std::invalid_argument& e) {
    return usage_error(e.what());
  }

  try {
    const auto technology = load_tech(opts["tech"]);
    if (!opts.count("level")) level = technology.top_level();
    const double j0 = MA_per_cm2(j0_ma);

    if (cmd == "techfile") {
      std::printf("%s", tech::to_techfile(technology).c_str());
      return 0;
    }
    if (cmd == "designrule") {
      const auto gf = materials::dielectric_by_name(
          opts.count("dielectric") ? opts["dielectric"] : "oxide");
      const auto sol = selfconsistent::solve(
          selfconsistent::make_level_problem(technology, level, gf, 2.45,
                                             duty, A_per_m2(j0)));
      std::printf(
          "%s M%d, %s gap-fill, r = %.3g, j0 = %.2f MA/cm2:\n"
          "  T_m    = %.1f C\n  j_peak = %.3f MA/cm2\n"
          "  j_rms  = %.3f MA/cm2\n  j_avg  = %.3f MA/cm2\n",
          technology.name.c_str(), level, gf.name.c_str(), duty,
          to_MA_per_cm2(j0), kelvin_to_celsius(sol.t_metal),
          to_MA_per_cm2(sol.j_peak), to_MA_per_cm2(sol.j_rms),
          to_MA_per_cm2(sol.j_avg));
      return 0;
    }
    if (cmd == "repeater") {
      const auto opt = repeater::optimize_layer(technology, level, k, kTrefK);
      const auto sim = repeater::simulate_stage(technology, level, k, opt);
      std::printf(
          "%s M%d (insulator k = %.1f):\n"
          "  l_opt = %.2f mm, s_opt = %.0f, stage delay = %.0f ps\n"
          "  simulated: I_peak = %.2f mA, I_rms = %.2f mA, r_eff = %.3f\n"
          "  j_peak = %.3f MA/cm2, j_rms = %.3f MA/cm2\n",
          technology.name.c_str(), level, k, opt.l_opt * 1e3, opt.s_opt,
          opt.stage_delay * 1e12, sim.current_stats.peak * 1e3,
          sim.current_stats.rms * 1e3, sim.duty_effective,
          to_MA_per_cm2(sim.j_peak), to_MA_per_cm2(sim.j_rms));
      return 0;
    }
    if (cmd == "esd") {
      core::DesignRuleEngine engine(technology, j0);
      const auto out =
          engine.esd_screen(level, kv * 1000.0, materials::make_oxide());
      std::printf(
          "%s M%d under %.1f kV HBM: %s (T_peak = %.0f C, EM derating %.2f)\n",
          technology.name.c_str(), level, kv, esd::to_string(out.state),
          kelvin_to_celsius(out.peak_temperature), out.em_lifetime_derating);
      return out.state == esd::FailureState::kSafe ? 0 : 1;
    }
    if (cmd == "signoff") {
      core::SignoffOptions so;
      so.j0 = j0;
      if (opts.count("k")) so.k_rel_electrical = k;
      const auto report = core::run_signoff(technology, so);
      std::printf("%s", report.to_text().c_str());
      return report.all_global_layers_pass ? 0 : 1;
    }
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dsmt_cli: %s\n", e.what());
    return 1;
  }
}
