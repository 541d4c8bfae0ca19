// Test-only reference decoders for the reconstruction attacks.
//
// Each is the straightforward form of a production decoder in
// recon/attacks.h, kept so differential tests can compare the two:
//  * LeastSquaresReference runs the projected-gradient decoder directly on
//    the m x n query matrix, two passes over every query byte per
//    iteration, where LeastSquaresDecodeRecorded iterates on the n x n
//    Gram matrix.
//  * ExhaustiveReference scans every candidate against the 2^n answers
//    with the minimum-violation rule alone, where ExhaustiveReconstruct
//    first tries a scan pruned at alpha.
// Neither publishes recon.* counters or spans.

#ifndef PSO_TESTS_ORACLES_RECON_REFERENCE_H_
#define PSO_TESTS_ORACLES_RECON_REFERENCE_H_

#include <vector>

#include "recon/attacks.h"
#include "recon/oracle.h"

namespace pso {
class ThreadPool;
}

namespace pso::oracles {

/// LeastSquaresDecodeRecorded's iterates computed from the queries
/// themselves. `queries` must have the decoder's shape (one answer per
/// query, each of length n); the caller checks it.
recon::Reconstruction LeastSquaresReference(
    size_t n, const std::vector<recon::SubsetQuery>& queries,
    const std::vector<double>& answers, size_t iterations = 400);

/// Asks `oracle` all 2^n subset queries (n <= 24) and returns the first
/// candidate within `alpha` of every answer, else the earliest candidate
/// of minimum violation, scanning chunks on `pool` as
/// ExhaustiveReconstruct does.
recon::Reconstruction ExhaustiveReference(recon::SubsetSumOracle& oracle,
                                          double alpha,
                                          ThreadPool* pool = nullptr);

}  // namespace pso::oracles

#endif  // PSO_TESTS_ORACLES_RECON_REFERENCE_H_
