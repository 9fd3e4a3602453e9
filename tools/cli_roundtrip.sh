#!/bin/sh
# Wire round-trip through files: drives dsaudit_cli through keygen -> tag ->
# accept -> challenge -> prove (private, the default) -> verify and expects
# PASS, then flips one byte of the proof's R section (bytes 96..287, the
# torus-encoded GT element) and expects the decoder's typed refusal.
#
#   usage: cli_roundtrip.sh /path/to/dsaudit_cli
set -eu
cli=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
cd "$dir"

expect() {  # expect "<exact line>" command...
  want=$1
  shift
  got=$("$@") || true
  if [ "$got" != "$want" ]; then
    echo "cli-roundtrip: '$*' printed '$got', expected '$want'" >&2
    exit 1
  fi
}

seq 1 4000 > f.bin
"$cli" keygen --s 8 --sk sk.bin --pk pk.bin
"$cli" tag --sk sk.bin --pk pk.bin --file f.bin --tag tag.bin
expect "accept: authenticators VALID" \
  "$cli" accept --pk pk.bin --file f.bin --tag tag.bin
"$cli" challenge --k 20 --out chal.bin
expect "prove: 288-byte proof written" \
  "$cli" prove --pk pk.bin --file f.bin --tag tag.bin --challenge chal.bin \
  --proof p.bin
expect "verify: PASS" \
  "$cli" verify --pk pk.bin --tag tag.bin --challenge chal.bin --proof p.bin

off=200
byte=$(od -An -tu1 -j "$off" -N1 p.bin | tr -d ' ')
# shellcheck disable=SC2059  # the format is the octal escape of one byte
printf "$(printf '\\%03o' $((byte ^ 1)))" |
  dd of=p.bin bs=1 seek="$off" conv=notrunc 2>/dev/null
expect "verify: FAIL (bad-gt-element)" \
  "$cli" verify --pk pk.bin --tag tag.bin --challenge chal.bin --proof p.bin
echo "cli-roundtrip: PASS"
