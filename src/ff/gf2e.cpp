#include "ff/gf2e.hpp"

#include <ostream>

namespace gfor14 {

template <unsigned Bits>
std::ostream& operator<<(std::ostream& os, const GF2E<Bits>& x) {
  return os << x.to_string();
}

template std::ostream& operator<< <32>(std::ostream&, const GF2E<32>&);
template std::ostream& operator<< <64>(std::ostream&, const GF2E<64>&);

}  // namespace gfor14
