#!/bin/sh
# Tier-1 gate: static analysis, full build + test suite, a seconds-scale
# soak smoke of the resilient wrapper against adversarial channels (exits
# non-zero if any cell violates the paper's error bound), a chaos
# campaign smoke of the session robustness layer (never a wrong
# intersection, resumes replay identically), an observability smoke:
# the trace subcommand must emit valid JSON and the profile subcommand
# must account for every metered bit (it exits non-zero on a phase-sum
# mismatch), a fleet-telemetry smoke (overhead bound, byte-identical
# streams across domain counts, green health verdict), and the
# experiment-registry gate (experiments/ coherence + regen smoke).
set -eu
cd "$(dirname "$0")"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cli=./_build/default/bin/intersect_cli.exe

dune build
dune runtest

# Static invariant gate: the whole tree must lint clean — the syntactic
# rules (determinism, ambient state, phase registry, domain hygiene,
# interface coverage, flight-recorder writes — R1..R6) plus the typed
# cross-module pass over the .cmt artifacts (determinism taint,
# metered-transport accounting, cross-domain escape, dead phases —
# R7..R10; see DESIGN.md "Static analysis" and "Typed analysis").  The
# JSON report and the SARIF export must pass their schema validators,
# and the linter must be deterministic: two consecutive runs over the
# same tree are byte-identical, in both formats.
dune build @check @lint
dune exec bin/intersect_lint.exe -- --json | "$cli" check lint-report
dune exec bin/intersect_lint.exe -- --sarif | "$cli" check lint-sarif
dune exec bin/intersect_lint.exe -- --json > "$tmp/lint_a"
dune exec bin/intersect_lint.exe -- --json > "$tmp/lint_b"
cmp "$tmp/lint_a" "$tmp/lint_b"
dune exec bin/intersect_lint.exe -- --sarif > "$tmp/lint_a"
dune exec bin/intersect_lint.exe -- --sarif > "$tmp/lint_b"
cmp "$tmp/lint_a" "$tmp/lint_b"

dune exec bin/intersect_cli.exe -- soak --smoke --trials 12

dune exec bin/intersect_cli.exe -- trace --protocol bucket -k 64 --seed 1 \
  | "$cli" check
dune exec bin/intersect_cli.exe -- profile --protocol bucket -k 64 --seed 1 > /dev/null
dune exec bin/intersect_cli.exe -- profile --protocol tree -k 1024 --seed 1 > /dev/null

# Engine smoke: the theorem-conformance tier (exits non-zero on any
# envelope violation) and the engine's determinism contract — the conform
# and soak reports, and the soak telemetry stream, must be byte-identical
# at 1 and 2 domains — and the reproduce command the conform report
# embeds must run verbatim and regenerate it byte for byte.
dune exec bin/intersect_cli.exe -- conform --smoke --json --domains 1 > "$tmp/conform_d1"
dune exec bin/intersect_cli.exe -- conform --smoke --json --domains 2 > "$tmp/conform_d2"
cmp "$tmp/conform_d1" "$tmp/conform_d2"
reproduce=$(sed -n 's/^  "reproduce": "\(.*\)",$/\1/p' "$tmp/conform_d1")
test -n "$reproduce"
$reproduce --json > "$tmp/conform_b"
cmp "$tmp/conform_d1" "$tmp/conform_b"
dune exec bin/intersect_cli.exe -- soak --smoke --trials 8 --json --domains 1 > "$tmp/soak_d1"
dune exec bin/intersect_cli.exe -- soak --smoke --trials 8 --json --domains 2 > "$tmp/soak_d2"
cmp "$tmp/soak_d1" "$tmp/soak_d2"
dune exec bin/intersect_cli.exe -- soak --smoke --trials 8 --telemetry "$tmp/soak_tel_d1" --domains 1 > /dev/null
dune exec bin/intersect_cli.exe -- soak --smoke --trials 8 --telemetry "$tmp/soak_tel_d2" --domains 2 > /dev/null
cmp "$tmp/soak_tel_d1" "$tmp/soak_tel_d2"

# Chaos campaign smoke: the committed BENCH_chaos.json must pass its
# schema, which re-checks the chaos invariant on the decoded cells
# (outcome taxonomy partitions the trials, zero wrong intersections,
# every resume replayed identically), a seconds-scale campaign must
# uphold the same invariant live (chaos exits non-zero on any violation)
# and its fresh report must read back through the same check, two runs
# of the same campaign must emit byte-identical reports, and the
# reproduce command the report embeds must run verbatim and regenerate
# it byte for byte.
"$cli" check bench-chaos < BENCH_chaos.json
dune exec bin/intersect_cli.exe -- chaos --smoke --json > "$tmp/chaos_a"
"$cli" check bench-chaos < "$tmp/chaos_a"
dune exec bin/intersect_cli.exe -- chaos --smoke --json --domains 2 > "$tmp/chaos_b"
cmp "$tmp/chaos_a" "$tmp/chaos_b"
reproduce=$(sed -n 's/^  "reproduce": "\(.*\)",$/\1/p' "$tmp/chaos_a")
test -n "$reproduce"
$reproduce --json > "$tmp/chaos_b"
cmp "$tmp/chaos_a" "$tmp/chaos_b"

# Hot-path regression smoke: the committed BENCH_hotpath.json must be
# schema-valid, a fresh smoke report must read back through the same
# decoder, the k=64 sweep must reproduce its deterministic fields
# (bits / messages / rounds) exactly — timings get a generous 4x headroom
# so shared CI machines don't flake — and two runs of the same config must
# emit byte-identical deterministic reports.
"$cli" check bench-hotpath < BENCH_hotpath.json
dune exec bin/intersect_cli.exe -- bench-regress --smoke --json > "$tmp/hot_a"
"$cli" check bench-hotpath < "$tmp/hot_a"
dune exec bin/intersect_cli.exe -- bench-regress --smoke --trials 3 --baseline BENCH_hotpath.json --tolerance 3.0 > /dev/null
dune exec bin/intersect_cli.exe -- bench-regress --smoke --deterministic-json > "$tmp/det_a"
dune exec bin/intersect_cli.exe -- bench-regress --smoke --deterministic-json > "$tmp/det_b"
cmp "$tmp/det_a" "$tmp/det_b"

# Mega-sweep smoke: the committed BENCH_sweep.json must pass its schema,
# which recomputes every derived field from the raw counts (Wilson
# bounds, limits, gate booleans, pass, total_trials), a seconds-scale
# smoke matrix must pass its envelopes live (sweep exits non-zero on any
# violating cell) and read back through the same check, the report must
# be byte-identical at 1 and 2 worker domains (and so must its telemetry
# stream), and neither the bucket k=1024 nor the tree r=2 k=4096 hot path
# may allocate more per trial than its committed baseline.
"$cli" check bench-sweep < BENCH_sweep.json
dune exec bin/intersect_cli.exe -- sweep --smoke --trials 60 --json --domains 1 > "$tmp/sweep_d1"
dune exec bin/intersect_cli.exe -- sweep --smoke --trials 60 --json --domains 2 > "$tmp/sweep_d2"
cmp "$tmp/sweep_d1" "$tmp/sweep_d2"
dune exec bin/intersect_cli.exe -- sweep --smoke --trials 60 --telemetry "$tmp/sweep_tel_d1" --domains 1 > /dev/null
dune exec bin/intersect_cli.exe -- sweep --smoke --trials 60 --telemetry "$tmp/sweep_tel_d2" --domains 2 > /dev/null
cmp "$tmp/sweep_tel_d1" "$tmp/sweep_tel_d2"
"$cli" check bench-sweep < "$tmp/sweep_d1"
dune exec bench/main.exe -- --alloc-gate

# Fleet telemetry smoke: the committed BENCH_telemetry.json must be
# schema-valid (ratio and deterministic_match recomputed from the two
# passes, and the 1.25x enabled/disabled overhead bound), a
# live seconds-scale overhead run must keep its deterministic fields
# identical between the passes (generous 3x timing headroom for shared CI
# machines), the chaos telemetry stream must be byte-identical run-to-run
# and across domain counts, and the health/top views must come back green
# on the default (deadline-squeeze-free) campaign set.
"$cli" check bench-telemetry < BENCH_telemetry.json
dune exec bin/intersect_cli.exe -- telemetry --smoke --max-ratio 3.0 > /dev/null
dune exec bin/intersect_cli.exe -- chaos --smoke --trials 4 --telemetry "$tmp/tel_a" > /dev/null
dune exec bin/intersect_cli.exe -- chaos --smoke --trials 4 --telemetry "$tmp/tel_b" > /dev/null
dune exec bin/intersect_cli.exe -- chaos --smoke --trials 4 --telemetry "$tmp/tel_d2" --domains 2 > /dev/null
cmp "$tmp/tel_a" "$tmp/tel_b"
cmp "$tmp/tel_a" "$tmp/tel_d2"
dune exec bin/intersect_cli.exe -- health --smoke --trials 4 > /dev/null
dune exec bin/intersect_cli.exe -- top --smoke --trials 4 --no-ansi > /dev/null

# Experiment-registry gate: every experiments/NNN-slug.md must verify
# (dense ids, live reproduce commands, existing schema-valid BENCH
# artifacts, resolving EXPERIMENTS.md/README.md cross-links), the
# committed experiments.json must be schema-valid and byte-identical to
# a fresh export (twice, so the export itself is deterministic), and the
# regen smoke must re-derive every Complete entry's deterministic fields
# unchanged (gate entries exit 0, diff entries emit byte-identical
# stdout across two runs).
dune build @experiments
"$cli" check experiments < experiments.json
"$cli" experiments export > "$tmp/exp_a"
"$cli" experiments export > "$tmp/exp_b"
cmp "$tmp/exp_a" "$tmp/exp_b"
cmp "$tmp/exp_a" experiments.json
"$cli" experiments verify --regen-smoke > /dev/null

# Documentation gate, where odoc is installed (the CI image may not ship
# it): the API docs must build without warnings-as-errors regressions.
if command -v odoc > /dev/null 2>&1; then
  dune build @doc
fi

# Formatting gate, where the formatter is installed (the CI image may not
# ship ocamlformat; .ocamlformat pins the profile either way).
if command -v ocamlformat > /dev/null 2>&1; then
  dune build @fmt
fi
