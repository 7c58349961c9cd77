#include "reference.hpp"

#include <utility>

#include "report.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kStrings = 100000;
constexpr int kSteps = 5000;
/// Lengths from kMinLength to kMinLength + kLengths - 1: all beyond the
/// small-string buffer, so every replacement allocates.
constexpr std::uint64_t kMinLength = 24;
constexpr std::uint64_t kLengths = 40;

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

}  // namespace

ReferenceKernel::ReferenceKernel() : strings_(kStrings) {
  for (std::string& s : strings_) {
    s.assign(kMinLength + xorshift(rng_) % kLengths, 'x');
  }
}

double ReferenceKernel::chunk() {
  const Clock::time_point start = Clock::now();
  std::uint64_t sum = sink_;
  for (int i = 0; i < kSteps; ++i) {
    std::string& s = strings_[xorshift(rng_) % kStrings];
    sum += s.size() + static_cast<unsigned char>(s[s.size() / 2]);
    std::string fresh(kMinLength + sum % kLengths, 'y');
    s.swap(fresh);
  }
  sink_ = sum;
  return seconds_since(start);
}

}  // namespace perfbench
