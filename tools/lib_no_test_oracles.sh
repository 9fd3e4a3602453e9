#!/bin/sh
# The differential oracles (the VarUInt bignum, the textbook pairing, the
# one-exponent final exponentiation, the order-r G2 ladder, Fermat inversion,
# the BN254 parameter re-derivation, Tonelli-Shanks) live in tests/. Fails if
# any of their symbols is linked back into the library.
#
#   usage: lib_no_test_oracles.sh /path/to/libdsaudit.a
set -eu
lib=$1
syms=$(nm -C "$lib")
# An empty or foreign symbol table would pass the check below vacuously.
case $syms in
  *dsaudit::pairing::final_exponentiation*) ;;
  *) echo "lib-no-test-oracles: no pairing symbols in $lib" >&2; exit 1 ;;
esac
pattern='VarUInt|pow_var|_textbook|final_exponentiation_slow|g2_in_subgroup_naive|inverse_fermat|validate_bn254_parameters|TsContext'
if found=$(printf '%s\n' "$syms" | grep -E "$pattern"); then
  echo "lib-no-test-oracles: test-only symbols in $lib:" >&2
  printf '%s\n' "$found" | sort -u >&2
  exit 1
fi
echo "lib-no-test-oracles: PASS"
