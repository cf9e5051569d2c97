#include "keygraph/key.h"

namespace keygraphs {

std::string to_string(const KeyRef& ref) {
  // Appends rather than operator+ chains: GCC 12 flags the latter with a
  // false-positive -Wrestrict.
  std::string out = "k";
  out += std::to_string(ref.id);
  out += 'v';
  out += std::to_string(ref.version);
  return out;
}

}  // namespace keygraphs
