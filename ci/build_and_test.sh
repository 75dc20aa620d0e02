#!/usr/bin/env bash
# Tier-1 verification as one script: configure + build + ctest + bench
# golden diff, with warnings treated as errors. Exits non-zero on any
# failure.
#
# Usage: ci/build_and_test.sh [--update-goldens] [build-dir]
#   (default build-dir: build)
#
# The golden step runs the deterministic evaluation benches (table03/04 and
# every fig*/ablation program — all verified deterministic in --fast scope;
# none had to be skipped) and diffs their output against
# bench/goldens/*.txt, so estimator-accuracy regressions fail CI instead of
# surfacing in a paper comparison later. Wall-clock runtime numbers
# (table04's payload) are normalized to <runtime> before diffing — the
# goldens pin table/figure structure and estimator output, not timings.
# After an intentional accuracy change, regenerate with --update-goldens and
# commit the new goldens alongside the change.
#
# The sweep/plan smoke steps feed ci/fixtures/{sweep,plan}_request.json
# through `xmem sweep`/`xmem plan` with --no-timings and diff the JSON
# reports against ci/fixtures/{sweep,plan}_report.json (schema + payload
# pinned; wall-clock fields stripped), then assert the profile-once
# contract via each report's stage counters. The sweep fixture includes the
# knobbed cub-binned backend with an explicit allocator_config block, so
# the knob plumbing (request JSON -> registry factory -> replay tower) is
# golden-diffed end to end; stream-pool rides along with a 0-byte release
# threshold and 8 MiB chunks, the setting that trims on nearly every free,
# and pytorch-expandable with an 8 MiB max_split_size_bytes, so all six
# backends are golden-diffed.
# The sweep smoke also asserts replays_run equals the fixture's allocator
# count (one replay per allocator, read by every device). The plan smoke is a refine
# smoke: the fixture enables refine_top_k, so the report must show exactly
# one CPU profile AND a nonzero replayed_candidates counter (the two-phase
# search ran, still off one profile), plus at least one verdict_changed
# replay (the fidelity gain over the analytic model). The negative smoke
# feeds every ci/fixtures/bad_*.json through `xmem sweep` — except the
# plan-shaped bad_refine.json, which goes through `xmem plan` — and
# requires a nonzero exit. bad_wrapped_int.json (a batch past INT_MAX) and
# bad_typed_field.json (a string where an integer belongs) must fail rather
# than be narrowed or defaulted. request_schema_test pins each fixture's
# exact message; this loop checks the CLI exit codes.
#
# Every bad_*.json fixture also goes through the serve smoke, with the same
# subcommand: the daemon must answer it with a bad_request error reply
# (exit 2) carrying the offline message, and keep serving. The one fixture
# that is not JSON (bad_malformed.json) never reaches the daemon: the
# client fails to parse it with the offline message (exit 1).
#
# The listings step diffs the output of `xmem estimators`, `xmem backends`
# and `xmem policies` against ci/fixtures/listings.txt.
#
# The link audit builds `<build-dir>-audit` with -ffunction-sections
# -fdata-sections and -Wl,--gc-sections and fails when a global function of
# libxmem.a reaches no linked executable (ci/link_audit.sh, allow-list in
# ci/link_audit_allow.txt).
#
# The sanitizer passes (end of the file) build two more trees next to the
# main one and run the full ctest set in each: `<build-dir>-asan` with
# AddressSanitizer + UBSan, so memory errors in the threaded fan-outs fail
# CI, and `<build-dir>-tsan` with ThreadSanitizer, so data races in the
# per-thread replay scratch, the profile session's in-flight dedup and the
# server fail CI too.
#
# After the goldens, the google-benchmark micro_* programs (when built) run
# once each with a short minimum time, and `bench/perf/run.sh --smoke`
# builds the benchmark and runs each workload at 1/20 size with its
# correctness checks.
#
# The serve smoke boots the `xmem serve` daemon and
# proves the process boundary is invisible: `xmem request` replies diff
# byte-identical against the same offline goldens, the same sweep on new
# cards (sweep_request_new_cards.json) runs no replay and no profile,
# twin requests coalesce, a repeat and a reformatted raw repeat are served
# from the reply cache with the golden's report, a 100 KB frame of '[' is
# a parse_error, the bad_frame.bin raw fixture is rejected without killing
# the daemon, and
# both shutdown paths (SIGTERM, `xmem request --shutdown`) drain cleanly.
# bench_server (in the golden loop above) pins the load-generator counters;
# its requests/sec and latency numbers are normalized to <runtime>.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
UPDATE_GOLDENS=0
BUILD_DIR=""
for arg in "$@"; do
  case "${arg}" in
    --update-goldens) UPDATE_GOLDENS=1 ;;
    -*) echo "unknown flag: ${arg}" >&2; exit 1 ;;
    *) BUILD_DIR="${arg}" ;;
  esac
done
BUILD_DIR="${BUILD_DIR:-${REPO_ROOT}/build}"
GOLDEN_DIR="${REPO_ROOT}/bench/goldens"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" -DXMEM_WERROR=ON
cmake --build "${BUILD_DIR}" -j "${JOBS}"
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}"

# --- bench goldens ---------------------------------------------------------

# Strip nondeterministic values: any 6-decimal float is a wall-clock
# reading (the %f runtimes of table04); everything else in the tables is a
# deterministic product of the seeded Monte Carlo runs.
normalize() {
  sed -E 's/[0-9]+\.[0-9]{6}/<runtime>/g'
}

GOLDEN_FAILED=0
for bench in table03_mcp table04_runtime \
             fig01_zero_grad_placement fig03_sequence_impact \
             fig06_simulator_validation fig07_mre_distributions \
             fig08_quadrant fig09_large_models fig_distributed_planner \
             ablation_orchestrator bench_server bench_fleet; do
  golden="${GOLDEN_DIR}/${bench}.txt"
  actual="$(mktemp)"
  "${BUILD_DIR}/bench/${bench}" --fast | normalize > "${actual}"
  if [[ "${UPDATE_GOLDENS}" == "1" ]]; then
    mkdir -p "${GOLDEN_DIR}"
    cp "${actual}" "${golden}"
    echo "updated ${golden}"
  elif [[ ! -f "${golden}" ]]; then
    echo "MISSING GOLDEN: ${golden} (run ci/build_and_test.sh --update-goldens)" >&2
    GOLDEN_FAILED=1
  elif ! diff -u "${golden}" "${actual}" > /dev/null; then
    echo "GOLDEN MISMATCH: ${bench} (estimator output changed)" >&2
    diff -u "${golden}" "${actual}" >&2 || true
    echo "If intentional, regenerate: ci/build_and_test.sh --update-goldens" >&2
    GOLDEN_FAILED=1
  else
    echo "golden ok: ${bench}"
  fi
  rm -f "${actual}"
done

# --- microbenchmarks -------------------------------------------------------
# The google-benchmark programs run once each, briefly: a microbench that
# throws or aborts fails CI. Their numbers are printed, not compared.
# google-benchmark 1.8+ spells the minimum time with a unit ("0.01s"),
# 1.7 takes a bare number; the listing run picks the spelling it accepts.

for micro in micro_pipeline micro_allocator; do
  binary="${BUILD_DIR}/bench/${micro}"
  if [[ ! -x "${binary}" ]]; then
    echo "micro skip: ${micro} was not built (google-benchmark not found)"
    continue
  fi
  min_time="0.01s"
  if ! "${binary}" --benchmark_list_tests --benchmark_min_time="${min_time}" \
       > /dev/null 2>&1; then
    min_time="0.01"
  fi
  if ! "${binary}" --benchmark_min_time="${min_time}"; then
    echo "MICROBENCH: ${micro} failed" >&2
    GOLDEN_FAILED=1
  else
    echo "micro ok: ${micro}"
  fi
done

# --- benchmark smoke -------------------------------------------------------
# bench/perf builds against the library (result_cache_capacity, the
# result_cache_hit timing, replay_peak_memoized), so a library change that
# breaks xmem_perf or its correctness gate fails here: every workload runs
# at 1/20 size and checks its answers against an independent replay.

if ! bash "${REPO_ROOT}/bench/perf/run.sh" --smoke; then
  echo "BENCHMARK SMOKE: xmem_perf failed to build or a workload failed" >&2
  GOLDEN_FAILED=1
fi

# --- registry listings -----------------------------------------------------
# `xmem estimators`, `xmem backends` and `xmem policies` print fixed tables;
# ci/fixtures/listings.txt pins the names and descriptions users see.

FIXTURE_DIR="${REPO_ROOT}/ci/fixtures"
listings_golden="${FIXTURE_DIR}/listings.txt"
listings_actual="$(mktemp)"
for listing in estimators backends policies; do
  echo "\$ xmem ${listing}"
  "${BUILD_DIR}/src/xmem_cli" "${listing}"
done > "${listings_actual}"
if [[ "${UPDATE_GOLDENS}" == "1" ]]; then
  cp "${listings_actual}" "${listings_golden}"
  echo "updated ${listings_golden}"
elif ! diff -u "${listings_golden}" "${listings_actual}" > /dev/null; then
  echo "LISTINGS MISMATCH: a registry name or description changed" >&2
  diff -u "${listings_golden}" "${listings_actual}" >&2 || true
  echo "If intentional, regenerate: ci/build_and_test.sh --update-goldens" >&2
  GOLDEN_FAILED=1
else
  echo "listings ok"
fi
rm -f "${listings_actual}"

# --- xmem sweep smoke ------------------------------------------------------

sweep_golden="${FIXTURE_DIR}/sweep_report.json"
sweep_actual="$(mktemp)"
"${BUILD_DIR}/src/xmem_cli" sweep "${FIXTURE_DIR}/sweep_request.json" \
  --no-timings > "${sweep_actual}"
if ! grep -q '"profiles_run": 1,' "${sweep_actual}"; then
  echo "SWEEP SMOKE: expected exactly one CPU profile in stage_counters" >&2
  GOLDEN_FAILED=1
fi
# Replay once per allocator, not once per (device, allocator): every device
# verdict reads its allocator's one unbounded peak. The fixture lists one
# allocator name per line inside its "allocators" array.
sweep_allocators="$(sed -n '/"allocators"/,/]/p' \
  "${FIXTURE_DIR}/sweep_request.json" | grep -c '^ *"[^"]*",\{0,1\} *$' || true)"
if ! grep -q "\"replays_run\": ${sweep_allocators}," "${sweep_actual}"; then
  echo "SWEEP SMOKE: expected replays_run == ${sweep_allocators} (one per allocator)" >&2
  GOLDEN_FAILED=1
fi
if [[ "${UPDATE_GOLDENS}" == "1" ]]; then
  cp "${sweep_actual}" "${sweep_golden}"
  echo "updated ${sweep_golden}"
elif ! diff -u "${sweep_golden}" "${sweep_actual}" > /dev/null; then
  echo "SWEEP SMOKE MISMATCH: report schema or payload changed" >&2
  diff -u "${sweep_golden}" "${sweep_actual}" >&2 || true
  echo "If intentional, regenerate: ci/build_and_test.sh --update-goldens" >&2
  GOLDEN_FAILED=1
else
  echo "sweep smoke ok"
fi
rm -f "${sweep_actual}"

# --- xmem plan smoke -------------------------------------------------------

plan_golden="${FIXTURE_DIR}/plan_report.json"
plan_actual="$(mktemp)"
"${BUILD_DIR}/src/xmem_cli" plan "${FIXTURE_DIR}/plan_request.json" \
  --no-timings > "${plan_actual}"
if ! grep -q '"profiles_run": 1,' "${plan_actual}"; then
  echo "PLAN SMOKE: the whole plan search must run exactly one CPU profile" >&2
  GOLDEN_FAILED=1
fi
if ! grep -qE '"replayed_candidates": [1-9]' "${plan_actual}"; then
  echo "PLAN SMOKE: refine phase must replay a nonzero candidate count" >&2
  GOLDEN_FAILED=1
fi
if ! grep -q '"verdict_changed": true' "${plan_actual}"; then
  echo "PLAN SMOKE: expected a replayed verdict differing from the analytic one" >&2
  GOLDEN_FAILED=1
fi
if [[ "${UPDATE_GOLDENS}" == "1" ]]; then
  cp "${plan_actual}" "${plan_golden}"
  echo "updated ${plan_golden}"
elif ! diff -u "${plan_golden}" "${plan_actual}" > /dev/null; then
  echo "PLAN SMOKE MISMATCH: plan report schema or payload changed" >&2
  diff -u "${plan_golden}" "${plan_actual}" >&2 || true
  echo "If intentional, regenerate: ci/build_and_test.sh --update-goldens" >&2
  GOLDEN_FAILED=1
else
  echo "plan smoke ok"
fi
rm -f "${plan_actual}"

# --- xmem plan overlap-window smoke ----------------------------------------
# The same straddle fixture with comm_overlap on: collectives replay as
# schedule-tied windows and the refined prefix is re-ranked by the
# window-replayed peaks. The golden pins the re-ranked order plus the
# window-vs-resident columns; the greps pin that the re-ranking actually
# moved candidates and that the search still ran exactly one CPU profile.

overlap_golden="${FIXTURE_DIR}/plan_report_overlap.json"
overlap_actual="$(mktemp)"
"${BUILD_DIR}/src/xmem_cli" plan "${FIXTURE_DIR}/plan_request_overlap.json" \
  --no-timings > "${overlap_actual}"
if ! grep -q '"profiles_run": 1,' "${overlap_actual}"; then
  echo "OVERLAP SMOKE: the window-mode search must run exactly one CPU profile" >&2
  GOLDEN_FAILED=1
fi
if ! grep -qE '"rerank_changed": [1-9]' "${overlap_actual}"; then
  echo "OVERLAP SMOKE: window replay must re-rank at least one candidate" >&2
  GOLDEN_FAILED=1
fi
if ! grep -q '"comm_overlap": true' "${overlap_actual}"; then
  echo "OVERLAP SMOKE: report must echo the comm_overlap flag" >&2
  GOLDEN_FAILED=1
fi
if grep -q '"comm_overlap"' "${plan_golden}"; then
  echo "OVERLAP SMOKE: resident-mode golden must not carry window-mode keys" >&2
  GOLDEN_FAILED=1
fi
if [[ "${UPDATE_GOLDENS}" == "1" ]]; then
  cp "${overlap_actual}" "${overlap_golden}"
  echo "updated ${overlap_golden}"
elif ! diff -u "${overlap_golden}" "${overlap_actual}" > /dev/null; then
  echo "OVERLAP SMOKE MISMATCH: window-mode report schema or payload changed" >&2
  diff -u "${overlap_golden}" "${overlap_actual}" >&2 || true
  echo "If intentional, regenerate: ci/build_and_test.sh --update-goldens" >&2
  GOLDEN_FAILED=1
else
  echo "plan overlap smoke ok"
fi
rm -f "${overlap_actual}"

# --- xmem plan full-search smoke -------------------------------------------
# The overlap fixture again with --refine-all: every enumerated
# decomposition replays, which is only affordable because symmetric ranks
# collapse onto shared replays. Grep-only (the report payload is pinned by
# the top-K goldens above): still exactly one CPU profile, and a nonzero
# replays_deduped proving the collapse fired on the full search.

refine_all_actual="$(mktemp)"
refine_all_failed=0
"${BUILD_DIR}/src/xmem_cli" plan "${FIXTURE_DIR}/plan_request_overlap.json" \
  --refine-all --no-timings > "${refine_all_actual}"
if ! grep -q '"profiles_run": 1,' "${refine_all_actual}"; then
  echo "REFINE-ALL SMOKE: the full search must run exactly one CPU profile" >&2
  GOLDEN_FAILED=1
  refine_all_failed=1
fi
if ! grep -qE '"replays_deduped": [1-9]' "${refine_all_actual}"; then
  echo "REFINE-ALL SMOKE: symmetric-rank dedup must collapse some replays" >&2
  GOLDEN_FAILED=1
  refine_all_failed=1
fi
if [[ "${refine_all_failed}" == "0" ]]; then
  echo "plan refine-all smoke ok"
fi
rm -f "${refine_all_actual}"

# --- xmem fleet smoke ------------------------------------------------------
# Fleet packing end to end: 6 jobs from 2 archetypes onto one 3060 with a
# what-if pool. The golden pins verdicts/placements/stats/delta; the greps
# pin the profile-once contract at fleet scale (profiles_run equals the
# queue's 2 distinct archetypes, not its 6 jobs) and a nonzero what-if gain.

fleet_golden="${FIXTURE_DIR}/fleet_report.json"
fleet_actual="$(mktemp)"
"${BUILD_DIR}/src/xmem_cli" fleet "${FIXTURE_DIR}/fleet_request.json" \
  --no-timings > "${fleet_actual}"
if ! grep -q '"profiles_run": 2,' "${fleet_actual}"; then
  echo "FLEET SMOKE: expected profiles_run == 2 (one per distinct archetype)" >&2
  GOLDEN_FAILED=1
fi
if ! grep -q '"distinct_jobs": 2,' "${fleet_actual}"; then
  echo "FLEET SMOKE: expected distinct_jobs == 2 in the fleet stats" >&2
  GOLDEN_FAILED=1
fi
if ! grep -qE '"admitted_delta": [1-9]' "${fleet_actual}"; then
  echo "FLEET SMOKE: the what-if pools must admit extra jobs" >&2
  GOLDEN_FAILED=1
fi
if [[ "${UPDATE_GOLDENS}" == "1" ]]; then
  cp "${fleet_actual}" "${fleet_golden}"
  echo "updated ${fleet_golden}"
elif ! diff -u "${fleet_golden}" "${fleet_actual}" > /dev/null; then
  echo "FLEET SMOKE MISMATCH: fleet report schema or payload changed" >&2
  diff -u "${fleet_golden}" "${fleet_actual}" >&2 || true
  echo "If intentional, regenerate: ci/build_and_test.sh --update-goldens" >&2
  GOLDEN_FAILED=1
else
  echo "fleet smoke ok"
fi
rm -f "${fleet_actual}"

# --- negative smoke: malformed requests must exit nonzero ------------------

# Plan-shaped fixtures (refine knobs) only fail through the plan parser;
# fleet-shaped ones (jobs/pools) only through the fleet parser.
# bad_fleet_pool_count.json names 2147483647 GPUs: it must be refused by
# the GPU limit, before any slot is allocated, here and in the daemon.
subcommand_for() {
  case "$(basename "$1")" in
    bad_overlap*|bad_refine*) echo plan ;;
    bad_fleet*) echo fleet ;;
    *) echo sweep ;;
  esac
}

# Each fixture's offline message ("error: " stripped), for the serve smoke.
declare -A OFFLINE_MESSAGE
for bad in "${FIXTURE_DIR}"/bad_*.json; do
  subcommand="$(subcommand_for "${bad}")"
  if offline_err="$("${BUILD_DIR}/src/xmem_cli" "${subcommand}" "${bad}" \
                    2>&1 > /dev/null)"; then
    echo "NEGATIVE SMOKE: xmem ${subcommand} accepted $(basename "${bad}")" >&2
    GOLDEN_FAILED=1
  else
    OFFLINE_MESSAGE["${bad}"]="${offline_err#error: }"
    echo "negative smoke ok: $(basename "${bad}")"
  fi
done

# --- xmem serve smoke ------------------------------------------------------
# The same request fixtures, through the daemon: start `xmem serve`, drive
# sweep_request.json via `xmem request`, and require the reply to be
# byte-identical to the offline golden (the server is a process boundary,
# not a different estimator). Then: two concurrent identical requests must
# show up as a nonzero coalesced count in `stats`, the bad_frame.bin raw
# fixture (oversized length prefix) must exit nonzero while the daemon
# survives it, and SIGTERM must drain gracefully (exit 0, socket unlinked).
# The plan fixture goes through a SECOND fresh daemon because its golden
# pins cold-cache stage counters and the two fixtures share a job.

XMEM="${BUILD_DIR}/src/xmem_cli"
SERVE_SOCK="$(mktemp -u /tmp/xmem_ci_serve_XXXXXX.sock)"

wait_for_socket() {
  for _ in $(seq 100); do
    [[ -S "$1" ]] && return 0
    sleep 0.1
  done
  echo "SERVE SMOKE: daemon never bound $1" >&2
  return 1
}

"${XMEM}" serve --socket "${SERVE_SOCK}" &
SERVE_PID=$!
wait_for_socket "${SERVE_SOCK}"

serve_actual="$(mktemp)"
"${XMEM}" request --socket "${SERVE_SOCK}" \
  --sweep "${FIXTURE_DIR}/sweep_request.json" --out "${serve_actual}"
if ! diff -u "${sweep_golden}" "${serve_actual}" > /dev/null; then
  echo "SERVE SMOKE MISMATCH: server sweep reply != offline golden" >&2
  diff -u "${sweep_golden}" "${serve_actual}" >&2 || true
  GOLDEN_FAILED=1
else
  echo "serve smoke ok: sweep reply byte-identical to offline golden"
fi
rm -f "${serve_actual}"

# The same job, allocators and knobs on cards the daemon has never seen:
# a replay's peak names no device, so the result cache answers every card
# with no replay and no profile.
new_cards_actual="$(mktemp)"
"${XMEM}" request --socket "${SERVE_SOCK}" \
  --sweep "${FIXTURE_DIR}/sweep_request_new_cards.json" \
  --out "${new_cards_actual}"
if ! grep -q '"replays_run": 0,' "${new_cards_actual}" ||
   ! grep -q '"profiles_run": 0,' "${new_cards_actual}"; then
  echo "SERVE SMOKE: new cards for a known job must run no replay or profile" >&2
  grep -E '"(replays|profiles)_run"' "${new_cards_actual}" >&2 || true
  GOLDEN_FAILED=1
else
  echo "serve smoke ok: new cards answered from the result cache"
fi
rm -f "${new_cards_actual}"

# Two concurrent identical requests: one executes, the twin coalesces
# (in-flight collapse or reply-cache hit — either increments `coalesced`).
"${XMEM}" request --socket "${SERVE_SOCK}" \
  --sweep "${FIXTURE_DIR}/sweep_request.json" > /dev/null &
FIRST_PID=$!
"${XMEM}" request --socket "${SERVE_SOCK}" \
  --sweep "${FIXTURE_DIR}/sweep_request.json" > /dev/null &
SECOND_PID=$!
wait "${FIRST_PID}" "${SECOND_PID}"
stats_out="$(mktemp)"
"${XMEM}" request --socket "${SERVE_SOCK}" --stats > "${stats_out}"
if ! grep -qE '"coalesced": [1-9]' "${stats_out}"; then
  echo "SERVE SMOKE: expected nonzero coalesced count after twin requests" >&2
  cat "${stats_out}" >&2
  GOLDEN_FAILED=1
else
  echo "serve smoke ok: concurrent identical requests coalesced"
fi
rm -f "${stats_out}"

# Repeats are answered from stored reply bytes: the sweep fixture again, and
# the fixture's own pretty-printed text in a raw frame (a reformatted copy,
# which costs one canonicalization). Both replies must carry the golden
# report, with no new execution and two more reply-cache hits. The raw reply
# is the compact envelope, so it is held to the golden made compact:
# dump(2) writes one value per line, so dropping the indentation and the
# space after each key gives the compact bytes.
write_raw_frame() {  # write_raw_frame OUT PAYLOAD_FILE
  local size
  size="$(wc -c < "$2")"
  printf "$(printf '\\x%02x\\x%02x\\x%02x\\x%02x' $((size >> 24 & 255)) \
    $((size >> 16 & 255)) $((size >> 8 & 255)) $((size & 255)))" > "$1"
  cat "$2" >> "$1"
}
stats_field() {  # stats_field NAME STATS_FILE
  sed -nE "s/^  \"$1\": ([0-9]+),?$/\1/p" "$2"
}
stats_before="$(mktemp)"
stats_after="$(mktemp)"
repeat_payload="$(mktemp)"
repeat_frame="$(mktemp)"
repeat_actual="$(mktemp)"
"${XMEM}" request --socket "${SERVE_SOCK}" --stats > "${stats_before}"
"${XMEM}" request --socket "${SERVE_SOCK}" \
  --sweep "${FIXTURE_DIR}/sweep_request.json" --out "${repeat_actual}"
if ! diff -u "${sweep_golden}" "${repeat_actual}" > /dev/null; then
  echo "SERVE SMOKE MISMATCH: repeated sweep reply != offline golden" >&2
  GOLDEN_FAILED=1
fi
{
  printf '{"id": 9, "type": "sweep", "request": '
  cat "${FIXTURE_DIR}/sweep_request.json"
  printf '}'
} > "${repeat_payload}"
write_raw_frame "${repeat_frame}" "${repeat_payload}"
"${XMEM}" request --socket "${SERVE_SOCK}" --raw "${repeat_frame}" \
  > "${repeat_actual}" 2> /dev/null || true
compact_golden="$(sed -E 's/^ +//; s/^("([^"\\]|\\.)*"): /\1:/' \
  "${sweep_golden}" | tr -d '\n')"
"${XMEM}" request --socket "${SERVE_SOCK}" --stats > "${stats_after}"
if [[ "$(cat "${repeat_actual}")" != \
      "{\"id\":9,\"ok\":true,\"report\":${compact_golden},\"type\":\"sweep\"}" ]]; then
  echo "SERVE SMOKE MISMATCH: reformatted raw sweep reply != offline golden" >&2
  head -c 400 "${repeat_actual}" >&2
  GOLDEN_FAILED=1
elif [[ "$(stats_field executed "${stats_after}")" != \
        "$(stats_field executed "${stats_before}")" ]] ||
     (( $(stats_field reply_cache_hits "${stats_after}") !=
        $(stats_field reply_cache_hits "${stats_before}") + 2 )); then
  echo "SERVE SMOKE: repeats must not execute and must hit the reply cache" >&2
  cat "${stats_before}" "${stats_after}" >&2
  GOLDEN_FAILED=1
else
  echo "serve smoke ok: repeat and reformatted repeat served from the cache"
fi

# A 100 KB frame of '[' must be a parse_error (every JSON reader bounds its
# nesting), and the daemon must still answer.
head -c 100000 /dev/zero | tr '\0' '[' > "${repeat_payload}"
write_raw_frame "${repeat_frame}" "${repeat_payload}"
"${XMEM}" request --socket "${SERVE_SOCK}" --raw "${repeat_frame}" \
  > "${repeat_actual}" 2> /dev/null || true
if ! grep -q '"code":"parse_error","message":"payload is not valid JSON: nesting deeper than 512 levels' \
     "${repeat_actual}"; then
  echo "SERVE SMOKE: deeply nested frame must get a parse_error" >&2
  head -c 400 "${repeat_actual}" >&2
  GOLDEN_FAILED=1
elif ! "${XMEM}" request --socket "${SERVE_SOCK}" --ping > /dev/null; then
  echo "SERVE SMOKE: daemon died on a deeply nested frame" >&2
  GOLDEN_FAILED=1
else
  echo "serve smoke ok: deeply nested frame rejected, daemon alive"
fi
rm -f "${stats_before}" "${stats_after}" "${repeat_payload}" \
  "${repeat_frame}" "${repeat_actual}"

# Negative: a raw byte blob with an oversized length prefix must exit
# nonzero — and the daemon must still answer afterwards.
if "${XMEM}" request --socket "${SERVE_SOCK}" \
     --raw "${FIXTURE_DIR}/bad_frame.bin" > /dev/null 2>&1; then
  echo "SERVE SMOKE: xmem request accepted bad_frame.bin" >&2
  GOLDEN_FAILED=1
else
  echo "serve smoke ok: bad_frame.bin rejected"
fi
if ! "${XMEM}" request --socket "${SERVE_SOCK}" --ping > /dev/null; then
  echo "SERVE SMOKE: daemon died after bad_frame.bin" >&2
  GOLDEN_FAILED=1
fi

# Kill-and-verify: SIGTERM drains gracefully — exit 0, socket unlinked.
kill -TERM "${SERVE_PID}"
if ! wait "${SERVE_PID}"; then
  echo "SERVE SMOKE: daemon exited nonzero on SIGTERM" >&2
  GOLDEN_FAILED=1
elif [[ -S "${SERVE_SOCK}" ]]; then
  echo "SERVE SMOKE: daemon left its socket file behind" >&2
  GOLDEN_FAILED=1
else
  echo "serve smoke ok: graceful SIGTERM shutdown"
fi

# Fresh daemon for the plan fixture (cold-cache counters), stopped via the
# shutdown request instead of a signal so both stop paths stay covered.
"${XMEM}" serve --socket "${SERVE_SOCK}" &
SERVE_PID=$!
wait_for_socket "${SERVE_SOCK}"
serve_plan_actual="$(mktemp)"
"${XMEM}" request --socket "${SERVE_SOCK}" \
  --plan "${FIXTURE_DIR}/plan_request.json" --out "${serve_plan_actual}"
if ! diff -u "${plan_golden}" "${serve_plan_actual}" > /dev/null; then
  echo "SERVE SMOKE MISMATCH: server plan reply != offline golden" >&2
  diff -u "${plan_golden}" "${serve_plan_actual}" >&2 || true
  GOLDEN_FAILED=1
else
  echo "serve smoke ok: plan reply byte-identical to offline golden"
fi
rm -f "${serve_plan_actual}"
"${XMEM}" request --socket "${SERVE_SOCK}" --shutdown > /dev/null
if ! wait "${SERVE_PID}"; then
  echo "SERVE SMOKE: daemon exited nonzero on shutdown request" >&2
  GOLDEN_FAILED=1
else
  echo "serve smoke ok: shutdown request drained the daemon"
fi

# Third fresh daemon for the fleet fixture: its golden pins cold-cache
# packing counters (profiles_run == distinct archetypes), which a warm
# profile session from the earlier fixtures would turn into cache hits.
# It runs a threaded service so the malformed fleet below exercises the
# threaded archetype fan-out.
"${XMEM}" serve --socket "${SERVE_SOCK}" --service-threads 4 &
SERVE_PID=$!
wait_for_socket "${SERVE_SOCK}"
serve_fleet_actual="$(mktemp)"
"${XMEM}" request --socket "${SERVE_SOCK}" \
  --fleet "${FIXTURE_DIR}/fleet_request.json" --out "${serve_fleet_actual}"
if ! diff -u "${fleet_golden}" "${serve_fleet_actual}" > /dev/null; then
  echo "SERVE SMOKE MISMATCH: server fleet reply != offline golden" >&2
  diff -u "${fleet_golden}" "${serve_fleet_actual}" >&2 || true
  GOLDEN_FAILED=1
else
  echo "serve smoke ok: fleet reply byte-identical to offline golden"
fi
rm -f "${serve_fleet_actual}"

# Negative: every bad_*.json fixture must come back as a bad_request error
# reply (exit 2) with the offline message — and the daemon must still
# answer. A fixture that is not JSON fails in the client instead (exit 1,
# the offline message) and never reaches the daemon.
for bad in "${FIXTURE_DIR}"/bad_*.json; do
  subcommand="$(subcommand_for "${bad}")"
  name="$(basename "${bad}")"
  bad_status=0
  bad_err="$("${XMEM}" request --socket "${SERVE_SOCK}" "--${subcommand}" \
             "${bad}" 2>&1 > /dev/null)" || bad_status=$?
  expected="${OFFLINE_MESSAGE[${bad}]-}"
  if [[ "${bad_status}" == "2" ]]; then
    message="${bad_err#server error: bad_request: }"
  elif [[ "${bad_status}" == "1" && "${name}" == "bad_malformed.json" ]]; then
    message="${bad_err#error: }"
  else
    message="(exit ${bad_status}) ${bad_err}"
  fi
  if [[ -z "${expected}" || "${message}" != "${expected}" ]]; then
    echo "SERVE SMOKE: ${name} through the daemon: got '${message}'," \
         "offline '${expected}'" >&2
    GOLDEN_FAILED=1
  elif ! "${XMEM}" request --socket "${SERVE_SOCK}" --ping > /dev/null; then
    echo "SERVE SMOKE: daemon died after ${name}" >&2
    GOLDEN_FAILED=1
  else
    echo "serve smoke ok: ${name} rejected with the offline message"
  fi
done
if [[ "${OFFLINE_MESSAGE[${FIXTURE_DIR}/bad_fleet_model.json]-}" != \
      *no-such-model* ]]; then
  echo "SERVE SMOKE: bad_fleet_model.json's message must name the model" >&2
  GOLDEN_FAILED=1
fi
"${XMEM}" request --socket "${SERVE_SOCK}" --shutdown > /dev/null
if ! wait "${SERVE_PID}"; then
  echo "SERVE SMOKE: fleet daemon exited nonzero on shutdown request" >&2
  GOLDEN_FAILED=1
else
  echo "serve smoke ok: fleet daemon drained on shutdown request"
fi

# --- link audit ------------------------------------------------------------
# A fourth tree with every function and datum in its own section and the
# linker's --gc-sections, tests, examples and benches on (the main and
# bench trees keep their flags). ci/link_audit.sh then fails when a global
# function defined in libxmem.a is linked into no executable and is not in
# ci/link_audit_allow.txt: public surface nothing calls stays deleted.

AUDIT_DIR="${BUILD_DIR}-audit"
cmake -B "${AUDIT_DIR}" -S "${REPO_ROOT}" -DXMEM_WERROR=ON \
  -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections" \
  -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" \
  -DXMEM_BUILD_TESTS=ON -DXMEM_BUILD_EXAMPLES=ON -DXMEM_BUILD_BENCH=ON
cmake --build "${AUDIT_DIR}" -j "${JOBS}"
if ! bash "${REPO_ROOT}/ci/link_audit.sh" "${AUDIT_DIR}"; then
  GOLDEN_FAILED=1
else
  echo "link audit ok"
fi

# --- sanitizer pass --------------------------------------------------------
# A second tree with AddressSanitizer + UBSan (tests only: examples and the
# benches are off) running the full ctest set. A use-after-free or UB in
# the pool fan-outs aborts the offending suite. GCC's -fsanitize=undefined
# leaves out float-cast-overflow (a double outside the target integer's
# range, e.g. 1e300 cast to int64), so it is named on its own.

ASAN_DIR="${BUILD_DIR}-asan"
ASAN_FLAGS="-fsanitize=address,undefined,float-cast-overflow"
ASAN_FLAGS+=" -fno-sanitize-recover=undefined,float-cast-overflow"
ASAN_FLAGS+=" -fno-omit-frame-pointer -O1"
cmake -B "${ASAN_DIR}" -S "${REPO_ROOT}" -DXMEM_WERROR=ON \
  -DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS="${ASAN_FLAGS}" \
  -DXMEM_BUILD_EXAMPLES=OFF -DXMEM_BUILD_BENCH=OFF
cmake --build "${ASAN_DIR}" -j "${JOBS}"
if ! ctest --test-dir "${ASAN_DIR}" --output-on-failure -j "${JOBS}"; then
  echo "SANITIZER PASS: a test failed under ASan/UBSan" >&2
  GOLDEN_FAILED=1
else
  echo "sanitizer pass ok"
fi

# A third tree with ThreadSanitizer, built like the ASan tree. TSan stops
# at the first reported race, so a race fails its suite.
TSAN_DIR="${BUILD_DIR}-tsan"
cmake -B "${TSAN_DIR}" -S "${REPO_ROOT}" -DXMEM_WERROR=ON \
  -DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS="-fsanitize=thread -O1 -g" \
  -DXMEM_BUILD_EXAMPLES=OFF -DXMEM_BUILD_BENCH=OFF
cmake --build "${TSAN_DIR}" -j "${JOBS}"
if ! TSAN_OPTIONS="halt_on_error=1" \
     ctest --test-dir "${TSAN_DIR}" --output-on-failure -j "${JOBS}"; then
  echo "SANITIZER PASS: a test failed under TSan" >&2
  GOLDEN_FAILED=1
else
  echo "thread sanitizer pass ok"
fi

exit "${GOLDEN_FAILED}"
