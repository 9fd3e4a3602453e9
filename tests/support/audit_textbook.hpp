// The audit equations in their textbook form, as the differential oracle for
// audit::verify_settlement.
//
// The library checks Eq. 1 and Eq. 2 in one rearranged shape: every term
// moved to one side, the challenge scalar moved onto the G1 side, chi's
// coefficients folded into per-slot MSM weights, prepared G2 line tables and
// one shared final exponentiation. These functions state the paper's
// equations as written, with none of that:
//
//   Eq. 1:  e(sigma, g2) == e(chi + [y]g1, eps) * e(psi, delta - [r]eps)
//   Eq. 2:  R * e(sigma, g2)^zeta
//             == e([zeta]chi + [y']g1, eps) * e(psi, delta - [r]eps)^zeta,
//           zeta = H'(R)
//
// with chi = sum_j c_j * H(name || i_j) over the expanded challenge, every
// scalar multiplication by double-and-add (mul_naive), each pairing a plain
// pairing::pairing against an unprepared G2 point, GT powers by the textbook
// square-and-multiply, and no batch weights. Test-only: nothing under src/
// links it.
#pragma once

#include <cstddef>

#include "audit/types.hpp"

namespace dsaudit::audit {

/// True iff the basic proof satisfies Eq. 1 for the file (name, num_chunks)
/// under pk and the challenge.
bool eq1_textbook(const PublicKey& pk, const Fr& name, std::size_t num_chunks,
                  const Challenge& chal, const ProofBasic& proof);

/// True iff the private proof satisfies Eq. 2, with zeta = H'(R).
bool eq2_textbook(const PublicKey& pk, const Fr& name, std::size_t num_chunks,
                  const Challenge& chal, const ProofPrivate& proof);

}  // namespace dsaudit::audit
