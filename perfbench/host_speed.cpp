#include "host_speed.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "stats.h"
#include "trace.h"

namespace perfbench {

namespace {

constexpr int kRows = 48;
constexpr int kCols = 64;
constexpr int kDenseRepeats = 2;
constexpr int kTextLines = 4096;
constexpr int kTextRepeats = 2;
constexpr int kRatioRepeats = 10;
constexpr std::uint32_t kTableSize = 4096;  // power of two
constexpr std::uint32_t kChainLength = 1u << 20;  // 4 MiB of uint32
constexpr int kChainSteps = 20000;
// Nominal times of the two parts, in milliseconds: about what they took on
// the 4-vCPU host the benchmark was written on (README.md). They only set
// the scale of the reported timings.
constexpr double kCoreMs = 0.8;
constexpr double kMemoryMs = 0.8;

// A fixed 64-bit LCG, so the reference does the same work on every host.
struct Lcg {
  std::uint64_t state;
  std::uint32_t next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::uint32_t>(state >> 33);
  }
};

std::uint32_t fnv1a(const char* begin, const char* end) {
  std::uint32_t h = 2166136261u;
  for (const char* c = begin; c != end; ++c) {
    h = (h ^ static_cast<unsigned char>(*c)) * 16777619u;
  }
  return h | 1u;  // 0 marks an empty slot
}

// Gauss-Jordan elimination with partial pivoting: the inner loops of a
// simplex pivot.
double dense(std::vector<double>& a) {
  for (int k = 0; k < kRows; ++k) {
    int best = k;
    for (int i = k + 1; i < kRows; ++i) {
      if (std::fabs(a[i * kCols + k]) > std::fabs(a[best * kCols + k])) {
        best = i;
      }
    }
    if (best != k) {
      std::swap_ranges(a.begin() + best * kCols,
                       a.begin() + (best + 1) * kCols, a.begin() + k * kCols);
    }
    const double pivot = a[k * kCols + k];
    if (pivot == 0.0) continue;
    for (int j = 0; j < kCols; ++j) a[k * kCols + j] /= pivot;
    for (int i = 0; i < kRows; ++i) {
      if (i == k) continue;
      const double f = a[i * kCols + k];
      if (f == 0.0) continue;
      for (int j = 0; j < kCols; ++j) a[i * kCols + j] -= f * a[k * kCols + j];
    }
  }
  double trace = 0.0;
  for (int i = 0; i < kRows; ++i) trace += a[i * kCols + kCols - 1];
  return trace;
}

// Tokenizes "name number number\n" lines; names are looked up in an
// open-addressing hash table.
std::uint64_t tokenize(const std::vector<char>& text,
                       const std::vector<std::uint32_t>& table) {
  std::uint64_t sum = 0;
  const char* c = text.data();
  const char* const end = c + text.size();
  while (c < end) {
    while (c < end && (*c == ' ' || *c == '\n')) ++c;
    const char* start = c;
    if (c < end && *c >= '0' && *c <= '9') {
      std::uint64_t value = 0;
      while (c < end && *c >= '0' && *c <= '9') {
        value = value * 10 + static_cast<std::uint64_t>(*c - '0');
        ++c;
      }
      sum += value;
    } else {
      while (c < end && *c != ' ' && *c != '\n') ++c;
      if (c == start) continue;
      const std::uint32_t h = fnv1a(start, c);
      std::uint32_t slot = h & (kTableSize - 1);
      while (table[slot] != 0 && table[slot] != h) {
        slot = (slot + 1) & (kTableSize - 1);
      }
      sum += slot;
    }
  }
  return sum;
}

// The ratio test of a simplex pivot: scalar, branchy floating point.
std::uint64_t ratio_test(const std::vector<double>& a) {
  const std::size_t n = a.size();
  std::uint64_t picked = 0;
  for (int r = 0; r < kRatioRepeats; ++r) {
    double best = 1e300;
    for (std::size_t i = 0; i < n; ++i) {
      const double num = a[i];
      const double den = a[(i * 7 + static_cast<std::size_t>(r)) % n];
      if (num > 0.0 && den > 1e-3) {
        const double ratio = num / den;
        if (ratio < best) {
          best = ratio;
          picked += i;
        }
      } else if (num < -0.5) {
        picked ^= i;
      }
    }
  }
  return picked;
}

}  // namespace

HostSpeed::HostSpeed(Mix mix)
    : mix_(mix), matrix_(kRows * kCols), table_(kTableSize, 0) {
  Lcg rng{12345};
  for (double& v : matrix_) {
    v = static_cast<double>(rng.next() % 2001) / 1000.0 - 1.0;
  }
  char line[64];
  for (int i = 0; i < kTextLines; ++i) {
    const int n = std::snprintf(line, sizeof line, "proc_%u %u %u\n",
                                rng.next() % 1024, rng.next() % 100000,
                                rng.next() % 1000);
    text_.insert(text_.end(), line, line + n);
  }
  for (std::uint32_t name = 0; name < 1024; ++name) {
    const int n = std::snprintf(line, sizeof line, "proc_%u", name);
    const std::uint32_t h = fnv1a(line, line + n);
    std::uint32_t slot = h & (kTableSize - 1);
    while (table_[slot] != 0 && table_[slot] != h) {
      slot = (slot + 1) & (kTableSize - 1);
    }
    table_[slot] = h;
  }
  if (mix_ == Mix::kCoreAndMemory) {
    // Sattolo's algorithm: one cycle through every entry.
    chain_.resize(kChainLength);
    for (std::uint32_t i = 0; i < kChainLength; ++i) chain_[i] = i;
    for (std::uint32_t i = kChainLength - 1; i > 0; --i) {
      std::swap(chain_[i], chain_[rng.next() % i]);
    }
  }
}

double HostSpeed::sample() {
  const std::int64_t t0 = Tracer::now_ns();
  double trace = 0.0;
  for (int r = 0; r < kDenseRepeats; ++r) {
    work_ = matrix_;
    trace += dense(work_);
  }
  std::uint64_t sum = 0;
  for (int r = 0; r < kTextRepeats; ++r) sum += tokenize(text_, table_);
  sum += ratio_test(matrix_);
  double nominal_ms = kCoreMs;
  if (mix_ == Mix::kCoreAndMemory) {
    std::uint32_t at = 0;
    for (int s = 0; s < kChainSteps; ++s) at = chain_[at];
    sum += at;
    nominal_ms += kMemoryMs;
  }
  const std::int64_t t1 = Tracer::now_ns();
  std::uint64_t bits = 0;
  std::memcpy(&bits, &trace, sizeof bits);
  sink_ += bits + sum;
  samples_.push_back(static_cast<double>(t1 - t0) / 1e6 / nominal_ms);
  return samples_.back();
}

double HostSpeed::slowdown(int count) {
  std::vector<double> slowdowns;
  for (int i = 0; i < count; ++i) slowdowns.push_back(sample());
  return median(slowdowns);
}

}  // namespace perfbench
