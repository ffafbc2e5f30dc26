#include "crypto/prf.h"

#include <sys/random.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "util/check.h"

namespace polysse {

std::array<uint8_t, DeterministicPrf::kSeedSize> RandomSeed() {
  // Key material comes from the kernel CSPRNG only. A seed that cannot be
  // drawn aborts: a guessable fallback (clock, addresses) would silently
  // mint weak keys.
  std::array<uint8_t, DeterministicPrf::kSeedSize> seed{};
  size_t got = 0;
  while (got < seed.size()) {
    const ssize_t n = getrandom(seed.data() + got, seed.size() - got, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      std::fprintf(stderr, "RandomSeed: getrandom failed: %s\n",
                   n < 0 ? std::strerror(errno) : "no bytes returned");
      POLYSSE_CHECK(n > 0);
    }
    got += static_cast<size_t>(n);
  }
  return seed;
}

}  // namespace polysse
