// Fuzz target: binary LP-instance decoder (oracles/lp_io.h).
//
// Any byte string must either decode or fail with a Status — never
// crash or over-allocate. Accepted instances must re-encode to a
// decodable payload, build a clean LpProblem, and (when small) survive a
// solve on the sparse revised simplex and on its dense-tableau oracle
// with any Status outcome — and the two must agree on that outcome:
// different statuses for the same decodable instance is a solver bug,
// not an input property.

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "oracles/lp_io.h"
#include "oracles/oracles.h"
#include "solver/lp.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  pso::Result<pso::LpInstance> decoded = pso::DecodeLpInstance(data, size);
  if (!decoded.ok()) return 0;

  // Decoder acceptance implies encoder round-trip and builder acceptance.
  pso::Result<pso::LpInstance> again =
      pso::DecodeLpInstance(pso::EncodeLpInstance(*decoded));
  if (!again.ok()) std::abort();

  pso::LpProblem lp = pso::ToProblem(*decoded);
  if (!lp.build_status().ok()) std::abort();

  if (decoded->variables.size() <= 12 && decoded->rows.size() <= 24) {
    pso::StatusCode codes[2];
    double objectives[2] = {0.0, 0.0};
    for (int b = 0; b < 2; ++b) {
      pso::Result<pso::LpSolution> sol =
          pso::oracles::kLpEngines[b].solve(lp);
      codes[b] = sol.ok() ? pso::StatusCode::kOk : sol.status().code();
      if (sol.ok()) {
        objectives[b] = sol->objective;
        // Optimum must respect the variable bounds it was solved under.
        for (size_t i = 0; i < decoded->variables.size(); ++i) {
          const pso::LpInstance::Variable& v = decoded->variables[i];
          if (sol->values[i] < v.lower - 1e-6 ||
              sol->values[i] > v.upper + 1e-6) {
            std::abort();
          }
        }
      }
    }
    // Exact status agreement; objective agreement when both are optimal.
    // The tolerance is loose: values up to LpProblem::kMaxMagnitude
    // (1e9) multiply to the 1e18 range, where the two pivot orders
    // accumulate different roundoff.
    if (codes[0] != codes[1]) std::abort();
    if (codes[0] == pso::StatusCode::kOk) {
      double scale = std::fmax(1.0, std::fmax(std::fabs(objectives[0]),
                                              std::fabs(objectives[1])));
      if (std::fabs(objectives[0] - objectives[1]) > 1e-4 * scale) {
        std::abort();
      }
    }
  }
  return 0;
}
