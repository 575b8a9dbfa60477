#!/usr/bin/env bash
# Compiles every public header standalone (-fsyntax-only) so each
# include/swp/**/*.h carries its own includes: a header that only builds
# when some other header happens to precede it is a latent break for API
# consumers, who include headers in their own order. Each header gets its
# own translation unit; the compiles run in parallel, one per core.
#
# Usage: check-headers.sh <c++-compiler> <source-dir>
# Wired as the `check_headers` ctest.
set -u

CXX="${1:?usage: check-headers.sh <c++-compiler> <source-dir>}"
SRC="${2:?usage: check-headers.sh <c++-compiler> <source-dir>}"
INC="$SRC/include"

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# check_one N HEADER: compiles HEADER alone as $TMP/N.cpp; on failure
# leaves the diagnostics in $TMP/N.err and a marker in $TMP/N.fail.
check_one() {
  printf '#include "%s"\n' "$2" > "$TMP/$1.cpp"
  "$CXX" -std=c++20 -fsyntax-only -Wall -Wextra -Werror \
    -I "$INC" "$TMP/$1.cpp" 2> "$TMP/$1.err" || : > "$TMP/$1.fail"
}
export -f check_one
export CXX INC TMP

mapfile -t headers < <(cd "$INC" && find swp -name '*.h' | sort)
count=${#headers[@]}
if [ "$count" -eq 0 ]; then
  echo "no headers found under $INC/swp"
  exit 1
fi

for i in "${!headers[@]}"; do
  printf '%s %s\n' "$i" "${headers[$i]}"
done | xargs -n 2 -P "$(nproc)" bash -c 'check_one "$1" "$2"' _

fails=0
for i in "${!headers[@]}"; do
  if [ -e "$TMP/$i.fail" ]; then
    echo "FAIL: ${headers[$i]} does not compile standalone:"
    sed 's/^/    /' "$TMP/$i.err"
    fails=$((fails + 1))
  fi
done
echo "checked $count headers, $fails failure(s)"
exit "$((fails != 0))"
