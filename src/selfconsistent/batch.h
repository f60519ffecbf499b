// Compatibility shim for the benchmark sources under perf/src, which
// include this header and call solve_one. Only a benchmark change may edit
// perf/; that change calls selfconsistent::solve (solver.h) directly and
// deletes this header. Nothing else includes it.
#pragma once

#include "selfconsistent/solver.h"

namespace dsmt::selfconsistent {

/// selfconsistent::solve under the name perf/src calls.
inline Solution solve_one(const Problem& problem) { return solve(problem); }

}  // namespace dsmt::selfconsistent
