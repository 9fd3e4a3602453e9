// Square root in Fp2 via generic Tonelli–Shanks, for decompressing 64-byte
// G2 points. (GT elements need no root: their 192-byte torus encoding
// decodes with one Fp6 inversion, see audit/serialize.hpp.)
#pragma once

#include <optional>

#include "field/fp2.hpp"

namespace dsaudit::ff {

std::optional<Fp2> sqrt(const Fp2& a);

}  // namespace dsaudit::ff
