// Built-in NTRS-97-style technology files for the two nodes studied in the
// paper (0.25 um and 0.1 um, Cu metallization with an AlCu variant).
//
// The paper's appendix (Table 8) is only partially legible in the available
// scan, so the stacks below are reconstructions guided by the NTRS'97
// interconnect tables and the constraints the paper's results imply:
// upper (global) levels are wide/thick (W, t ~ 1.5-2 um) and sit over a
// multi-micron cumulative dielectric stack — that is what makes the thermal
// clipping of j_peak in Tables 2-4 significant. EXPERIMENTS.md records the
// paper-vs-measured comparison cell by cell.
#pragma once

#include "tech/technology.h"

namespace dsmt::tech {

/// 0.25 um Cu technology, 6 metal levels, Vdd = 2.5 V, 625 MHz global clock.
Technology make_ntrs_250nm_cu();

/// Intermediate roadmap nodes for scaling studies (interpolated between the
/// two nodes the paper analyzes): 0.18 um (6 levels) and 0.13 um (7 levels).
Technology make_ntrs_180nm_cu();
Technology make_ntrs_130nm_cu();

/// 0.1 um Cu technology, 8 metal levels, Vdd = 1.2 V, 1 GHz global clock.
Technology make_ntrs_100nm_cu();

/// AlCu variants of the same stacks (paper Table 4).
Technology make_ntrs_250nm_alcu();
Technology make_ntrs_100nm_alcu();

}  // namespace dsmt::tech
