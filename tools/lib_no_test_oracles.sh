#!/bin/sh
# The differential oracles (the VarUInt bignum, the textbook pairing, the
# one-exponent final exponentiation, the order-r G2 ladder, Fermat inversion,
# the BN254 parameter re-derivation, Tonelli-Shanks) live in tests/, and the
# library derives no constant at run time. Fails if any oracle symbol or a
# deleted run-time derivation (long-division mod, the slow modmul/modpow, the
# GLV derivation, decimal parsing) is linked back into the library, if the
# tests' counting heap or any other replacement of the global operator
# new/delete is defined in it (a library must not swap its users'
# allocator), or if a function-local static outside the allow-list below
# appears: a constant belongs in a constexpr variable, not behind an init
# guard.
#
#   usage: lib_no_test_oracles.sh /path/to/libdsaudit.a
set -eu
lib=$1
syms=$(nm -C "$lib")
# An empty or foreign symbol table would pass the checks below vacuously.
case $syms in
  *dsaudit::pairing::final_exponentiation*) ;;
  *) echo "lib-no-test-oracles: no pairing symbols in $lib" >&2; exit 1 ;;
esac
status=0
pattern='VarUInt|pow_var|_textbook|final_exponentiation_slow|g2_in_subgroup_naive|inverse_fermat|validate_bn254_parameters|TsContext'
pattern="$pattern"'|bigint::mod\(|mul_mod_slow|pow_mod_slow|glv_params|from_dec'
if found=$(printf '%s\n' "$syms" | grep -E "$pattern"); then
  echo "lib-no-test-oracles: test-only or deleted symbols in $lib:" >&2
  printf '%s\n' "$found" | sort -u >&2
  status=1
fi
# The library only calls the global allocator: a defined (T/W) operator new
# or delete, or any counting_heap symbol, is a replacement linked in.
if found=$(printf '%s\n' "$syms" |
           grep -E ' [TtWw] operator (new|delete)(\[\])?\(|counting_heap'); then
  echo "lib-no-test-oracles: allocator replacement in $lib:" >&2
  printf '%s\n' "$found" | sort -u >&2
  status=1
fi
# Function-local statics that are not constants, one pattern a line:
allowed_guards='
curve::g1_generator_table\(\)::table$
pairing::multi_pairing\(.*::inf$'
# Why each one stays:
#  - the G1 generator table is a fixed-base window table (a 479 KB heap
#    vector) built on first use, so a process that never multiplies the
#    generator never pays for it;
#  - multi_pairing's inf is an empty G2Prepared, whose coefficient chain is
#    a std::vector.
guards=$(printf '%s\n' "$syms" | grep 'guard variable for' | sort -u)
if extra=$(printf '%s\n' "$guards" |
           grep -v -E "$(printf '%s' "$allowed_guards" | sed '/^$/d' | paste -sd '|')"); then
  echo "lib-no-test-oracles: init-guarded statics outside the allow-list in $lib:" >&2
  printf '%s\n' "$extra" >&2
  status=1
fi
[ "$status" -eq 0 ] && echo "lib-no-test-oracles: PASS"
exit "$status"
