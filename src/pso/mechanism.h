// Anonymization mechanisms M : X^n -> Y (Section 2.2).
//
// Outputs are type-erased: each concrete mechanism publishes whatever its Y
// is (a count, a noisy histogram, a generalized dataset, a tuple of other
// outputs), and adversaries downcast what they understand.

#ifndef PSO_PSO_MECHANISM_H_
#define PSO_PSO_MECHANISM_H_

#include <any>
#include <memory>
#include <string>

#include "common/rng.h"
#include "data/dataset.h"

namespace pso {

/// Type-erased mechanism output y in Y.
class MechanismOutput {
 public:
  MechanismOutput() = default;

  /// Wraps a value of any type.
  template <typename T>
  static MechanismOutput Of(T value) {
    MechanismOutput out;
    out.payload_ = std::make_shared<std::any>(std::move(value));
    return out;
  }

  /// The payload as a T, or nullptr on type mismatch / empty output.
  /// The pointer is valid only while this MechanismOutput (or a copy of
  /// it) is alive — bind the output to a local before calling As().
  template <typename T>
  const T* As() const {
    if (payload_ == nullptr) return nullptr;
    return std::any_cast<T>(payload_.get());
  }

 private:
  std::shared_ptr<const std::any> payload_;
};

/// A (possibly randomized) mechanism M : X^n -> Y.
class Mechanism {
 public:
  virtual ~Mechanism() = default;

  /// Name for reports ("M#q", "Laplace(eps=1)", "Mondrian(k=5)", ...).
  virtual std::string Name() const = 0;

  /// Runs the mechanism on `input` with fresh randomness from `rng`.
  virtual MechanismOutput Run(const Dataset& input, Rng& rng) const = 0;
};

using MechanismRef = std::shared_ptr<const Mechanism>;

}  // namespace pso

#endif  // PSO_PSO_MECHANISM_H_
