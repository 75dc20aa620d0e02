#!/usr/bin/env bash
# Link audit: every global function that libxmem.a defines must be linked
# into at least one executable of a tree built with -ffunction-sections
# -fdata-sections and -Wl,--gc-sections (the linker then drops each
# function that no binary reaches). A function no binary links is public
# surface nothing calls: delete it, or list it in ci/link_audit_allow.txt
# with the reason it stays. Exits non-zero when such a function is found.
#
# Usage: ci/link_audit.sh AUDIT_BUILD_DIR
#   (ci/build_and_test.sh builds <build-dir>-audit and runs this on it)
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
AUDIT_DIR="${1:?usage: ci/link_audit.sh AUDIT_BUILD_DIR}"
ALLOW_LIST="${REPO_ROOT}/ci/link_audit_allow.txt"
LIBRARY="${AUDIT_DIR}/src/libxmem.a"

work="$(mktemp -d)"
trap 'rm -rf "${work}"' EXIT

# Global text symbols, demangled, one per line ("addr T name" -> "name").
nm -C --defined-only "${LIBRARY}" | sed -n 's/^[0-9a-f]* T //p' |
  sort -u > "${work}/defined"

executables=0
while IFS= read -r -d '' binary; do
  nm -C --defined-only "${binary}" 2> /dev/null |
    sed -n 's/^[0-9a-f]* [Tt] //p' >> "${work}/linked" || true
  executables=$((executables + 1))
done < <(find "${AUDIT_DIR}/src" "${AUDIT_DIR}/tests" "${AUDIT_DIR}/examples" \
           "${AUDIT_DIR}/bench" -type f -perm -u+x ! -path '*/CMakeFiles/*' \
           -print0 2> /dev/null)
sort -u -o "${work}/linked" "${work}/linked"

{ grep -v -e '^#' -e '^[[:space:]]*$' "${ALLOW_LIST}" || true; } |
  sort -u > "${work}/allowed"
comm -23 "${work}/defined" "${work}/linked" > "${work}/unlinked"
comm -23 "${work}/unlinked" "${work}/allowed" > "${work}/unexpected"

echo "link audit: $(wc -l < "${work}/defined") global functions in libxmem.a," \
     "${executables} executables, $(wc -l < "${work}/unlinked") linked by none" \
     "($(wc -l < "${work}/allowed") allowed)"
# An allowed name that is linked again (or gone) only warrants a note.
comm -13 "${work}/unlinked" "${work}/allowed" |
  sed 's/^/link audit: allow-list entry no longer needed: /'
if [[ -s "${work}/unexpected" ]]; then
  echo "LINK AUDIT: functions defined in libxmem.a that no executable links:" >&2
  sed 's/^/  /' "${work}/unexpected" >&2
  echo "Delete them, or list them in ci/link_audit_allow.txt with a reason." >&2
  exit 1
fi
