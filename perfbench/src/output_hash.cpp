#include "output_hash.hpp"

#include <cstdio>

namespace perfbench {

void OutputHash::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xFF;
    h_ *= 0x100000001b3ULL;
  }
}

std::string OutputHash::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

}  // namespace perfbench
