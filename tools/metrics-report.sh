#!/usr/bin/env bash
#===- tools/metrics-report.sh - summarize a metrics JSONL stream ----------===#
#
# Part of warp-swp. Reads the JSONL written by MetricsSink — e.g.
# `swp_stress --metrics-jsonl=FILE` or SessionConfig::MetricsJsonl — and
# prints a human summary: snapshot count, uptime span, headline counters
# from the final snapshot, and the RSS trajectory when the process-RSS
# gauge is present (awk only; no JSON tooling required).
#
# With a target=NAME filter, also prints that target's slice of the
# fleet dashboards — the per-target session outcomes and II-gap quality
# series (label target="NAME") — and fails if the stream
# carries no series for that target at all.
#
# usage: tools/metrics-report.sh FILE.jsonl [target=NAME]
#
#===-----------------------------------------------------------------------===#
set -euo pipefail

usage() {
  echo "usage: $(basename "$0") FILE.jsonl [target=NAME]" >&2
  exit 1
}

[ $# -ge 1 ] && [ $# -le 2 ] || usage
[ -r "$1" ] || usage
TARGET=""
if [ $# -eq 2 ]; then
  case "$2" in
    target=*) TARGET="${2#target=}" ;;
    *) usage ;;
  esac
fi

awk -v Target="$TARGET" '
# First numeric value following "key": on the current line; "" if absent.
# index() is a plain substring search, so keys may contain the escaped
# quotes of labeled metrics without regex escaping.
function val(key,    i, s) {
  i = index($0, "\"" key "\":")
  if (i == 0)
    return ""
  s = substr($0, i + length(key) + 3, 32)
  if (match(s, /^-?[0-9.]+/) != 1)
    return ""
  return substr(s, 1, RLENGTH)
}

# A field of a histogram object ("count", "p90", "sum"): the histogram
# key maps to {"buckets":[...],"count":N,...}, so scan a window past the
# bucket array for the named field.
function hval(key, field,    i, s, j) {
  i = index($0, "\"" key "\":{")
  if (i == 0)
    return ""
  s = substr($0, i, 1200)
  j = index(s, "\"" field "\":")
  if (j == 0)
    return ""
  s = substr(s, j + length(field) + 3, 32)
  if (match(s, /^-?[0-9.]+/) != 1)
    return ""
  return substr(s, 1, RLENGTH)
}

# The label body of a per-target series as it appears inside a JSONL
# key: quotes arrive escaped ({target=\"warp-cell\"}).
function tkey(name) { return name "{target=\\\"" Target "\\\"}" }
function okey(outcome) {
  return "swp_session_outcomes_total{outcome=\\\"" outcome \
         "\\\",target=\\\"" Target "\\\"}"
}

NF {
  ++Lines
  if (Lines == 1)
    FirstUp = val("uptime_ms")
  LastUp = val("uptime_ms")
  Rss = val("swp_process_rss_mib")
  if (Rss != "") {
    if (RssSeen == 0 || Rss + 0 < RssMin)
      RssMin = Rss + 0
    if (RssSeen == 0 || Rss + 0 > RssMax)
      RssMax = Rss + 0
    RssSeen = 1
    RssLast = Rss + 0
  }
  Last = $0
}

END {
  if (Lines == 0) {
    print "metrics-report: empty stream" > "/dev/stderr"
    exit 1
  }
  printf "snapshots:        %d (uptime %s -> %s ms)\n", Lines, FirstUp, LastUp
  $0 = Last
  n = split("swp_compile_total{outcome=\\\"ok\\\"} compiles_ok " \
            "swp_compile_total{outcome=\\\"error\\\"} compiles_error " \
            "swp_compile_budget_trips_total budget_trips " \
            "swp_sched_searches_total sched_searches " \
            "swp_sched_intervals_tried_total intervals_tried " \
            "swp_pool_tasks_total pool_tasks", Pairs, " ")
  for (i = 1; i + 1 <= n; i += 2) {
    v = val(Pairs[i])
    if (v != "")
      printf "%-17s %s\n", Pairs[i + 1] ":", v
  }
  if (RssSeen)
    printf "rss_mib:          min %.1f  max %.1f  last %.1f\n", \
           RssMin, RssMax, RssLast

  if (Target == "")
    exit 0

  # The per-target slice, from the final snapshot.
  printf "target %s:\n", Target
  Found = 0
  m = split("ok error degraded cancelled budget_tripped", Outs, " ")
  for (i = 1; i <= m; ++i) {
    v = val(okey(Outs[i]))
    if (v != "") {
      printf "  session_%-13s %s\n", Outs[i] ":", v
      Found = 1
    }
  }
  c = hval(tkey("swp_sched_ii_gap"), "count")
  if (c != "") {
    printf "  %-19s %s\n", "ii_gap_count:", c
    printf "  %-19s %s\n", "ii_gap_p90:", hval(tkey("swp_sched_ii_gap"), "p90")
    printf "  %-19s %s\n", "ii_gap_sum:", hval(tkey("swp_sched_ii_gap"), "sum")
    Found = 1
  }
  if (!Found) {
    printf "metrics-report: no series labeled target=\"%s\"\n", Target \
      > "/dev/stderr"
    exit 1
  }
}
' "$1"
