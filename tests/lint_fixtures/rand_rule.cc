// pso-lint-fixture-path: src/example/rand_rule.cc
//
// Fixture for the `rand` rule: libc/std randomness is nondeterministic
// (seeded from the environment or hardware); pso::Rng streams are not.
#include <cstdlib>
#include <random>

int Bad() {
  std::srand(42);                       // lint-expect: rand
  int a = std::rand();                  // lint-expect: rand
  std::random_device rd;                // lint-expect: rand
  double d = drand48();                 // lint-expect: rand
  return a + static_cast<int>(rd() + d);
}

int Suppressed() {
  // Legitimate uses carry an inline waiver:
  return std::rand();  // pso-lint: allow(rand)
}

int AfterDigitSeparators() {
  // An odd number of digit separators is not an unclosed char literal.
  const long long big = 5'000'000'000;
  return static_cast<int>(big) + std::rand();  // lint-expect: rand
}

int Clean() {
  // Identifiers merely containing the banned names never fire:
  int operand = 3;       // "rand" inside a word
  int my_rand_total = operand;
  // Mentions in comments don't fire either: rand(), std::random_device.
  return my_rand_total;
}
