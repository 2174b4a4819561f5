#!/usr/bin/env bash
# Compares perfbench result lines of a change with those of its parent and
# prints two markdown tables:
# - for each workload and each `end_to_end` metric of BENCHMARK.json, the
#   change/parent ratio of the medians over the untraced runs, flagged when
#   the change is worse than the metric's bound (ratio above 1 + bound for
#   lower-is-better metrics, below 1 - bound for higher-is-better ones);
# - for each workload and each `per_layer` metric, the change/parent ratio
#   of one traced run per side (no bounds: it names the layer a change
#   moved).
#
# The gate is soft: no ratio fails it. It exits 1 only on a structural
# problem in the change's results: a missing or empty result line,
# `"correct": false` or `failed > 0`. A parent result with such a problem
# is reported, and that workload's rows are left out.
#
# usage: perfbench-compare.sh BENCHMARK.json RESULTS_DIR
#
# RESULTS_DIR holds one file per run, each the last stdout line of
# perfbench: <parent|change>-<workload>-<pair>.json from
# `--workload <workload> --trace 0`, and traced-<parent|change>-<workload>.json
# from `--workload <workload> --trace 1`.
set -euo pipefail

bench=$1
dir=$2

# True when the file holds exactly one result line, correct and with no
# failed call (an empty file slurps to [] and fails).
sound() { jq -e -s 'length == 1 and .[0].correct == true and .[0].failed == 0' "$1" >/dev/null 2>&1; }

problems=()
rows=()
for w in $(jq -r '.workloads[].name' "$bench"); do
    ok=1
    for tree in parent change; do
        shopt -s nullglob
        files=("$dir/$tree-$w"-*.json)
        shopt -u nullglob
        if [ ${#files[@]} -eq 0 ]; then
            problems+=("$tree/$w: no result files")
            ok=0
        fi
        for f in "${files[@]}"; do
            if ! sound "$f"; then
                problems+=("$tree/$w: $(basename "$f") has no sound result line")
                ok=0
            fi
        done
    done
    [ "$ok" -eq 1 ] || continue
    while IFS= read -r row; do rows+=("$row"); done < <(
        jq -n -r --arg w "$w" --slurpfile bench "$bench" \
            --slurpfile parent <(cat "$dir/parent-$w"-*.json) \
            --slurpfile change <(cat "$dir/change-$w"-*.json) '
            def median: sort | if length % 2 == 1 then .[length / 2 | floor]
                else (.[length / 2 - 1] + .[length / 2]) / 2 end;
            def r3: . * 1000 | round / 1000;
            def r4: . * 10000 | round / 10000;
            $bench[0].end_to_end[] as $m
            | [$parent[].metrics[$m.name].value // empty] as $p
            | [$change[].metrics[$m.name].value // empty] as $c
            | select(($p | length) > 0 and ($c | length) > 0)
            | ($p | median) as $pm | ($c | median) as $cm
            | (if $pm == 0 then null else $cm / $pm end) as $r
            | (if $r == null then false
               elif $m.better == "lower" then $r > 1 + $m.bound
               else $r < 1 - $m.bound end) as $worse
            | "| \($w) | \($m.name) | \($pm | r4) | \($cm | r4) | "
              + "\(if $r == null then "n/a" else ($r | r3 | tostring) end) | "
              + "\($m.better), \($m.bound) | \(if $worse then "**worse than bound**" else "" end) |"')
done

# One traced run per side: per-layer ratios.
layer_rows=()
for w in $(jq -r '.workloads[].name' "$bench"); do
    ok=1
    for tree in parent change; do
        f="$dir/traced-$tree-$w.json"
        if ! sound "$f"; then
            problems+=("$tree/$w: traced-$tree-$w.json has no sound result line")
            ok=0
        fi
    done
    [ "$ok" -eq 1 ] || continue
    while IFS= read -r row; do layer_rows+=("$row"); done < <(
        jq -n -r --arg w "$w" --slurpfile bench "$bench" \
            --slurpfile parent "$dir/traced-parent-$w.json" \
            --slurpfile change "$dir/traced-change-$w.json" '
            def r3: . * 1000 | round / 1000;
            def r4: . * 10000 | round / 10000;
            $bench[0].per_layer[] as $m
            | ($parent[0].metrics[$m.name].value // null) as $p
            | ($change[0].metrics[$m.name].value // null) as $c
            | select($p != null and $c != null)
            | (if $p == 0 then null else $c / $p end) as $r
            | "| \($w) | \($m.name) | \($p | r4) | \($c | r4) | "
              + "\(if $r == null then "n/a" else ($r | r3 | tostring) end) | \($m.better) |"')
done

echo "| workload | metric | parent median | change median | change/parent | better, bound | flag |"
echo "|---|---|---:|---:|---:|---|---|"
for row in "${rows[@]}"; do echo "$row"; done

echo
echo "Per-layer metrics, one traced run per side:"
echo
echo "| workload | layer metric | parent | change | change/parent | better |"
echo "|---|---|---:|---:|---:|---|"
for row in "${layer_rows[@]}"; do echo "$row"; done

status=0
for p in "${problems[@]}"; do
    echo
    echo "structural problem: $p"
    case $p in change/*) status=1 ;; esac
done
exit $status
