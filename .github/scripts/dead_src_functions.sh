#!/usr/bin/env bash
# Fails when a function defined out of line in src/'s libraries is linked
# into no product binary and is not named in dead_src_functions.allow.
#
# Product binaries are the daemons and CLIs (src/*/bbmg_*.cpp), the bench/
# programs, the examples/ programs and perfbench.  Tests do not count: a
# function that only tests reach is test code and belongs under tests/.
#
#   dead_src_functions.sh --targets   print the CMake targets to build
#   dead_src_functions.sh <build-dir> check a build of perfbench/ made with
#                                     section GC, e.g.
#
#   cmake -S perfbench -B build-dead -G Ninja \
#     -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections" \
#     -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections"
#   cmake --build build-dead --target $(.github/scripts/dead_src_functions.sh --targets)
#   .github/scripts/dead_src_functions.sh build-dead
#
# Each allowlist line is a demangled signature, then "  # " and the reason
# the function stays.  An entry whose function no longer exists also fails
# the check, so deletions take their lines with them; an entry that is now
# linked is only reported, since whether a compiler inlines a function into
# every caller in its own file varies between compilers.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/../.." && pwd)

targets() {
  for f in "$root"/src/*/bbmg_*.cpp "$root"/bench/bench_*.cpp \
           "$root"/examples/*.cpp; do
    basename "$f" .cpp
  done
  echo perfbench
}

if [[ "${1:-}" == "--targets" ]]; then
  targets | tr '\n' ' '; echo
  exit 0
fi
build=${1:?usage: dead_src_functions.sh --targets | <build-dir>}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Every global text symbol the libraries define.
find "$build" -path '*/src/*' -name 'libbbmg_*.a' -print0 |
  xargs -0 nm --defined-only -g 2>/dev/null |
  awk '$2 == "T" { print $3 }' | sort -u > "$tmp/lib"

: > "$tmp/linked"
missing=0
for t in $(targets); do
  bin=$(find "$build" -type f -perm -u+x -name "$t" | head -n 1)
  if [[ -z "$bin" ]]; then
    echo "missing product binary: $t (build it first)" >&2
    missing=1
    continue
  fi
  nm --defined-only "$bin" | awk '{ print $3 }' >> "$tmp/linked"
done
(( missing == 0 )) || exit 2
sort -u -o "$tmp/linked" "$tmp/linked"

comm -23 "$tmp/lib" "$tmp/linked" | c++filt | sort -u > "$tmp/dead"
c++filt < "$tmp/lib" | sort -u > "$tmp/lib_names"
sed -e '/^#/d' -e 's/  # .*$//' -e 's/[[:space:]]*$//' -e '/^$/d' \
  "$here/dead_src_functions.allow" | sort -u > "$tmp/allow"

new=$(comm -23 "$tmp/dead" "$tmp/allow")
comm -13 "$tmp/dead" "$tmp/allow" > "$tmp/not_dead"
gone=$(comm -23 "$tmp/not_dead" "$tmp/lib_names")
linked=$(comm -12 "$tmp/not_dead" "$tmp/lib_names")
echo "$(wc -l < "$tmp/lib") library functions, $(wc -l < "$tmp/dead") linked by no product binary, $(wc -l < "$tmp/allow") allowlisted"
status=0
if [[ -n "$new" ]]; then
  echo
  echo "Linked by no product binary and not allowlisted (delete, move under"
  echo "tests/, or allowlist with a reason):"
  echo "$new" | sed 's/^/  /'
  status=1
fi
if [[ -n "$gone" ]]; then
  echo
  echo "Allowlisted but no longer defined in src/ (drop the line):"
  echo "$gone" | sed 's/^/  /'
  status=1
fi
if [[ -n "$linked" ]]; then
  echo
  echo "Allowlisted but linked by this build (not an error; drop the line if"
  echo "every supported compiler links it):"
  echo "$linked" | sed 's/^/  /'
fi
exit $status
