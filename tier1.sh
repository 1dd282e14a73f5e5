#!/bin/sh
# Tier-1 verification: full build + test suite + a parallel-path smoke run.
set -e
cd "$(dirname "$0")"

dune build @all
dune runtest

# Information only, not a gate: the size the ROADMAP tracks — source
# lines under lib/ and bin/, fields of Decomposer.params, distinct
# mpld option definitions, and protocol request keys (the match arms
# of Proto.apply_field).
loc=$(find lib bin \( -name '*.ml' -o -name '*.mli' -o -name dune \) \
  -exec cat {} + | wc -l)
fields=$(awk '/^type params = \{/,/^\}/' lib/core/decomposer.ml |
  grep -c ' : ' || true)
flags=$(grep -o 'info \[ "[^]]*\]' bin/mpld.ml | sort -u | wc -l || true)
keys=$(awk '/^let apply_field/ { f = 1; next } /^let / { f = 0 } f' \
  lib/server/proto.ml | grep -cE '^ *\| "[a-z_]+" ->' || true)
echo "tier1: size: lib+bin lines $loc, params fields $fields, mpld flags" \
  "$flags, proto keys $keys"

# Smoke: end-to-end decompose through the mpl_engine path (2 domains,
# cache on by default in the CLI).
dune exec bin/mpld.exe -- decompose C880 -a linear -j 2

# Smoke: kernel parity. Exits nonzero if the bounded max-flow, bounded
# Gomory–Hu tree, or flat SDP kernels ever disagree with their
# reference implementations (bit-identical grams, identical cut
# structure, identical end-to-end colorings). Both SDP solvers run the
# one Householder + QL eigensolver, so the flat ≡ dense check pins the
# solver loop; test/test_numeric.ml pins the eigensolver itself against
# the Jacobi oracle in test/jacobi.ml.
dune exec bench/main.exe -- --kernels --check

# Gate: the division-stage ablation. The decomposer always runs all
# four stages; `bench --ablation` drives Division.assign directly on
# each stage subset of S38417 (Linear, k=4), and every row must keep its
# conflicts, stitches, piece count and largest piece.
abl_want='full pipeline cn#=21 st#=530 pieces=540 largest=48
no GH-tree cuts cn#=21 st#=541 pieces=3639 largest=48
no biconnected cn#=21 st#=530 pieces=540 largest=48
no peeling cn#=21 st#=560 pieces=21083 largest=48
components only cn#=21 st#=1020 pieces=1911 largest=433'
abl_got=$(dune exec bench/main.exe -- --ablation | grep ' pieces=' |
  sed 's/CPU=[0-9.]*s//' | tr -s ' ')
if [ "$abl_got" != "$abl_want" ]; then
  echo "tier1: division ablation rows changed" >&2
  echo "$abl_got" >&2
  exit 1
fi

# Smoke: jobs parity on a real S-circuit. jobs is a pure performance
# knob: the two-domain run (-j 2) must report the identical
# cn#/st#/pieces line and write the byte-identical coloring as the
# one-domain run (-j 1, cache off), in which the calling thread solves
# every leaf of the same stream driver.
seq_cols=$(mktemp /tmp/mpld-seq.XXXXXX)
par_cols=$(mktemp /tmp/mpld-par.XXXXXX)
seq_line=$(dune exec bin/mpld.exe -- decompose S15850 -a linear -j 1 --no-cache \
  --colors "$seq_cols" | grep "cn#")
par_line=$(dune exec bin/mpld.exe -- decompose S15850 -a linear -j 2 --no-cache \
  --colors "$par_cols" | grep "cn#")
seq_sig=$(echo "$seq_line" | sed 's/CPU=[0-9.]*s//')
par_sig=$(echo "$par_line" | sed 's/CPU=[0-9.]*s//')
if [ "$seq_sig" != "$par_sig" ]; then
  echo "tier1: streamed run diverged from sequential reference" >&2
  echo "  -j 1: $seq_line" >&2
  echo "  -j 2: $par_line" >&2
  exit 1
fi
if ! cmp -s "$seq_cols" "$par_cols"; then
  echo "tier1: streamed coloring differs from sequential reference" >&2
  exit 1
fi
rm -f "$seq_cols" "$par_cols"

# Gate: one pool task per leaf. Every divided leaf of S38417 is one
# pool submission, so the pool's submission count equals the solver's
# solve count (540 leaves).
leafm=$(dune exec bin/mpld.exe -- decompose S38417 -a linear -j 1 --no-cache \
  --metrics 2>&1)
submitted=$(echo "$leafm" | awk '$1 == "pool.submitted" { print $2 }')
solves=$(echo "$leafm" | awk '$1 == "solver.solves" { print $2 }')
if [ "$submitted" != 540 ] || [ "$solves" != 540 ]; then
  echo "tier1: S38417 leaves: pool.submitted=$submitted" \
    "solver.solves=$solves, want 540 each" >&2
  exit 1
fi

# Gate: `mpld stats` divides every component of the layout (no cache in
# its dry run), so its piece count matches `decompose`'s.
dune exec bin/mpld.exe -- stats S38417 | grep -q "^division: pieces=540 " || {
  echo "tier1: mpld stats S38417 does not report pieces=540" >&2
  exit 1
}

# Gate: `mpld report` certifies SDP+Backtrack against the clique lower
# bound: on S38417 the bound is 20 and SDP+Backtrack meets it (cn#=20,
# st#=530, gap 0).
rep=$(dune exec bin/mpld.exe -- report S38417)
echo "$rep" | grep -q "^clique lower bound on conflicts: 20$" || {
  echo "tier1: mpld report S38417 lower bound is not 20" >&2
  echo "$rep" >&2
  exit 1
}
echo "$rep" | grep -Eq "^SDP\+Backtrack +cn#=20 +st#=530 .*\| gap vs LB: 0 " || {
  echo "tier1: mpld report S38417 SDP+Backtrack row is not cn#=20 st#=530 gap 0" >&2
  echo "$rep" >&2
  exit 1
}

# Smoke: tracing + metrics emit parseable output covering the pipeline.
trace=$(mktemp /tmp/mpld-trace.XXXXXX.json)
dune exec bin/mpld.exe -- decompose C432 -a linear -j 2 \
  --trace "$trace" --metrics
dune exec bin/mpld.exe -- trace-check "$trace" \
  --require graph.build --require graph.neighbor_search \
  --require division.components --require division.peel \
  --require division.extract --require engine.batch --require assign
rm -f "$trace"

# Gate: an SDP+Backtrack solve splits into its relaxation and its
# backtrack, each a span under the solve.
trace=$(mktemp /tmp/mpld-trace.XXXXXX.json)
dune exec bin/mpld.exe -- decompose C432 -a sdp-backtrack --trace "$trace" \
  > /dev/null
dune exec bin/mpld.exe -- trace-check "$trace" \
  --require solve.SDP+Backtrack --require sdp.relax --require sdp.backtrack
rm -f "$trace"

# Smoke: fault injection degrades gracefully. The injected solver raise
# must not escape to the CLI (exit 0) and the run must report at least
# one degraded piece in the metrics dump.
out=$(dune exec bin/mpld.exe -- decompose C432 -a linear -j 2 \
  --inject solver_raise:seed=0 --metrics 2>&1)
echo "$out" | grep -q "resilience: degraded=[1-9]" || {
  echo "tier1: fault injection did not degrade any piece" >&2
  echo "$out" >&2
  exit 1
}
echo "$out" | grep -Eq "solver\.degraded +[1-9]" || {
  echo "tier1: solver.degraded metric missing from --metrics output" >&2
  echo "$out" >&2
  exit 1
}

# Smoke: a missing input file is one `error:` line and exit code 2 —
# never an uncaught exception.
rc=0
err=$(dune exec bin/mpld.exe -- trace-check /nonexistent 2>&1) || rc=$?
if [ "$rc" -ne 2 ] || [ "$(echo "$err" | grep -c '^error:')" -ne 1 ] \
  || echo "$err" | grep -q "internal error"; then
  echo "tier1: trace-check of a missing file: exit $rc, want 2 and one error line" >&2
  echo "$err" >&2
  exit 1
fi

# Smoke: malformed layouts are rejected with a file:line diagnostic and
# exit code 2 — never a raw OCaml backtrace.
bad=$(mktemp /tmp/mpld-bad.XXXXXX)
printf 'NAME bad\nTECH 20 20 20\nFEATURE\nR 0 0 0 5\nEND\n' > "$bad"
if err=$(dune exec bin/mpld.exe -- decompose "$bad" 2>&1); then
  echo "tier1: malformed layout was accepted" >&2
  rm -f "$bad"
  exit 1
fi
rm -f "$bad"
echo "$err" | grep -q ":4:" || {
  echo "tier1: parse error lacks the offending line number" >&2
  echo "$err" >&2
  exit 1
}
case "$err" in
*"Raised at"*)
  echo "tier1: parse error leaked a backtrace" >&2
  exit 1 ;;
esac

# Smoke: the decomposition server. Boot on a temp Unix socket with a
# persisted cache; the served coloring must be byte-identical to the
# one-shot CLI's, a repeated request must be answered entirely from the
# shared cache, the admin endpoints must answer, and after a graceful
# shutdown a restarted server must answer warm from the persisted file.
MPLD=_build/default/bin/mpld.exe
sock=/tmp/mpld-smoke-$$.sock
cachef=/tmp/mpld-smoke-$$.cache
srvlog=/tmp/mpld-smoke-$$.log
ref=$(mktemp /tmp/mpld-ref.XXXXXX)
got=$(mktemp /tmp/mpld-got.XXXXXX)
srv=""
server_fail() {
  echo "tier1: $1" >&2
  [ -n "$srv" ] && kill "$srv" 2>/dev/null
  cat "$srvlog" >&2
  exit 1
}
start_server() {
  "$MPLD" serve --socket "$sock" -j 2 --persist "$cachef" "$@" 2>> "$srvlog" &
  srv=$!
  i=0
  while [ ! -S "$sock" ]; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && server_fail "server did not come up"
    sleep 0.1
  done
}

"$MPLD" decompose S15850 -a linear --colors "$ref" > /dev/null 2>&1

start_server
"$MPLD" client --socket "$sock" S15850 -a linear --colors "$got" \
  > /dev/null 2>&1
cmp -s "$ref" "$got" || server_fail "served coloring diverged from one-shot"

# A deadline the request meets changes nothing: a fresh solve under an
# armed deadline exits 0 with the same coloring.
"$MPLD" client --socket "$sock" S15850 -a linear --no-cache \
  --deadline-ms 600000 --colors "$got" > /dev/null 2>&1 \
  || server_fail "request with a met deadline failed"
cmp -s "$ref" "$got" || server_fail "met-deadline coloring diverged from one-shot"

# The identical repeat request must be answered without a single fresh
# solve — every piece served from the shared cache.
rep=$("$MPLD" client --socket "$sock" S15850 -a linear 2>/dev/null)
echo "$rep" | grep -Eq "engine: pieces=[1-9][0-9]* solved=0 hits=[1-9]" \
  || server_fail "repeat request was not fully cache-served: $rep"

"$MPLD" client --socket "$sock" --stats 2>/dev/null | grep -q '"served"' \
  || server_fail "STATS endpoint missing server counters"
"$MPLD" client --socket "$sock" --metrics 2>/dev/null | grep -q 'cache' \
  || server_fail "METRICS endpoint missing cache metrics"

# Graceful shutdown persists the cache...
"$MPLD" client --socket "$sock" --quit 2>/dev/null
wait "$srv" || server_fail "server exited nonzero on graceful shutdown"
srv=""
[ -s "$cachef" ] || server_fail "shutdown did not persist the cache"

# ...and a restarted server answers its very first request warm. The
# restart also carries the telemetry flags so the admin plane can be
# smoked against a live server: per-request rid, /metrics passing the
# exposition validator, /healthz, /requests, a per-request Chrome
# trace, and the JSONL access log.
accesslog=/tmp/mpld-smoke-$$.access.jsonl
promf=/tmp/mpld-smoke-$$.prom
tracef=/tmp/mpld-smoke-$$.trace.json
start_server --ring 16 --log "$accesslog"
warm=$("$MPLD" client --socket "$sock" S15850 -a linear --colors "$got" \
  2>/dev/null)
echo "$warm" | grep -Eq "engine: pieces=[1-9][0-9]* solved=0 hits=[1-9]" \
  || server_fail "restarted server did not reload the persisted cache: $warm"
cmp -s "$ref" "$got" || server_fail "warm-restart coloring diverged"
echo "$warm" | grep -q "^rid: " \
  || server_fail "served reply carried no request id: $warm"
rid=$(echo "$warm" | sed -n 's/^rid: //p')

"$MPLD" client --socket "$sock" --http /metrics > "$promf" 2>/dev/null \
  || server_fail "GET /metrics failed"
"$MPLD" prom-check "$promf" \
  || server_fail "/metrics failed the Prometheus exposition validator"
"$MPLD" client --socket "$sock" --http /healthz 2>/dev/null \
  | grep -q '"status": *"ok"' \
  || server_fail "/healthz did not report ok"
"$MPLD" client --socket "$sock" --http /requests 2>/dev/null \
  | grep -q "\"id\": *$rid" \
  || server_fail "/requests ring does not list rid $rid"
"$MPLD" client --socket "$sock" --http "/trace?id=$rid" > "$tracef" \
  2>/dev/null || server_fail "GET /trace?id=$rid failed"
"$MPLD" trace-check "$tracef" --require assign --require engine.batch \
  || server_fail "per-request trace failed validation"
"$MPLD" stats --socket "$sock" 2>/dev/null | grep -q "p99" \
  || server_fail "live stats missing latency percentiles"
grep -q "\"rid\":$rid" "$accesslog" \
  || server_fail "access log missing the served request"

"$MPLD" client --socket "$sock" --quit 2>/dev/null
wait "$srv" || server_fail "server exited nonzero after warm restart"
srv=""
rm -f "$sock" "$cachef" "$srvlog" "$ref" "$got" "$accesslog" "$promf" \
  "$tracef"

# Smoke: request lifecycle hardening. Client exit codes: 0 ok,
# 1 protocol/remote, 3 busy, 4 deadline, 5 connect failure.
errf=$(mktemp /tmp/mpld-err.XXXXXX)

# A dead socket is one clean error line and the connect exit code —
# never a backtrace, for --stats and --quit alike.
for flag in --stats --quit; do
  rc=0
  "$MPLD" client --socket "/tmp/mpld-gone-$$.sock" "$flag" \
    > /dev/null 2> "$errf" || rc=$?
  [ "$rc" -eq 5 ] || server_fail "dead-socket $flag exit: got $rc, want 5"
  [ "$(wc -l < "$errf")" -eq 1 ] \
    || server_fail "dead-socket $flag error is not one line"
  if grep -q "Raised at" "$errf"; then
    server_fail "dead-socket $flag error leaked a backtrace"
  fi
done

# One server, three injuries: a write stall tears down the first
# request (reaped conn, transport error to the client), a 1 ms
# deadline times out, and a held slot with
# max-inflight 1 BUSYs a bounded retrier into giving up.
# Teardown bookkeeping (slot release, queue sweep) is asynchronous to
# the client's view of a failure, so health is polled, not asserted.
wait_healthz() {
  i=0
  until "$MPLD" client --socket "$sock" --http /healthz 2>/dev/null \
    | grep -q '"status": *"ok"'; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
      server_fail "/healthz did not settle to ok $1"
    fi
    sleep 0.2
  done
}
start_server --max-inflight 1 --inject write_stall:shots=1

rc=0
"$MPLD" client --socket "$sock" S15850 -a linear --no-cache \
  > /dev/null 2>> "$srvlog" || rc=$?
[ "$rc" -eq 1 ] || server_fail "stalled-write client exit: got $rc, want 1"

rc=0
"$MPLD" client --socket "$sock" S15850 -a linear --no-cache \
  --deadline-ms 1 > /dev/null 2> "$errf" || rc=$?
[ "$rc" -eq 4 ] || server_fail "deadline client exit: got $rc, want 4"
grep -q "timed out" "$errf" || server_fail "deadline error lacks the cause"

wait_healthz "after the stall and the timeout"

# The holder must outlast the retrier's whole backoff window (~1.5 s
# from its start here): S38584 at min_s 120 is a ~5 s SDP solve.
"$MPLD" client --socket "$sock" S38584 -a sdp-backtrack --no-cache \
  --min-s 120 > /dev/null 2>> "$srvlog" &
holder=$!
sleep 0.5
rc=0
"$MPLD" client --socket "$sock" S15850 -a linear --no-cache \
  --retries 3 --backoff-ms 50 > /dev/null 2> "$errf" || rc=$?
[ "$rc" -eq 3 ] || server_fail "busy retrier exit: got $rc, want 3"
grep -q "^retry:" "$errf" || server_fail "retrier never logged a backoff"
# Kill the holder mid-stream: the server must cancel its queued pieces
# and free the slot for the next (patient) client.
kill "$holder" 2>/dev/null
wait "$holder" 2>/dev/null || true
rc=0
"$MPLD" client --socket "$sock" S15850 -a linear --no-cache \
  --retries 10 --backoff-ms 200 > /dev/null 2>> "$srvlog" || rc=$?
[ "$rc" -eq 0 ] || server_fail "post-recovery client exit: got $rc, want 0"

wait_healthz "after the gauntlet"
"$MPLD" client --socket "$sock" --http /metrics > "$promf" 2>/dev/null \
  || server_fail "GET /metrics failed after the gauntlet"
for m in mpl_server_cancelled mpl_server_timeouts mpl_server_reaped_conns \
  mpl_server_dropped_tasks; do
  grep -q "^$m " "$promf" \
    || server_fail "/metrics missing lifecycle counter $m"
done
grep -Eq "^mpl_server_timeouts [1-9]" "$promf" \
  || server_fail "/metrics never counted the deadline timeout"
grep -Eq "^mpl_server_reaped_conns [1-9]" "$promf" \
  || server_fail "/metrics never counted the reaped connection"

"$MPLD" client --socket "$sock" --quit 2>/dev/null
wait "$srv" || server_fail "server exited nonzero after the gauntlet"
srv=""
rm -f "$sock" "$cachef" "$errf" "$promf" "$srvlog"

# Gate: bench compare. The committed baseline compared to itself must
# pass, and a perturbed copy (one row slowed 2x) must fail.
baseline=bench/results/latest.json
perturbed=$(mktemp /tmp/mpld-perturbed.XXXXXX.json)
dune exec bench/main.exe -- compare "$baseline" "$baseline" > /dev/null \
  || { echo "tier1: bench compare rejected identical documents" >&2; exit 1; }
sed 's/"wall_s": \([0-9]*\)\./"wall_s": 9\1./' "$baseline" > "$perturbed"
if dune exec bench/main.exe -- compare "$baseline" "$perturbed" > /dev/null
then
  echo "tier1: bench compare missed a planted regression" >&2
  rm -f "$perturbed"
  exit 1
fi
rm -f "$perturbed"

# Gate: candidate-only bench rows are informational ("new: <key>"),
# never regressions — the matrix must be able to grow without breaking
# old baselines.
emptyb=$(mktemp /tmp/mpld-empty.XXXXXX.json)
printf '{"schema_version": 8, "results": [], "kernels": []}\n' > "$emptyb"
newout=$(dune exec bench/main.exe -- compare "$emptyb" "$baseline") \
  || { echo "tier1: bench compare failed a new-rows-only candidate" >&2
       exit 1; }
echo "$newout" | grep -q "^new: " \
  || { echo "tier1: bench compare did not report candidate-only rows" >&2
       exit 1; }
rm -f "$emptyb"

# Gate: graph-build scaling. Two synths from identical generator
# parameters, 30k and 240k features, decomposed sequentially in five
# interleaved small/large pairs (-v prints the span totals). Each pair
# gives a log-log slope of the span times, for neighbor search plus
# stitch split and for the whole graph build; the median over the
# pairs must stay near linear. Interleaving keeps the host's speed drift out of
# the slope. On a 2-core VM this gate read 1.40-1.43 for the O(n^1.5)
# cell-hash collapse it guards against and 1.03-1.18 for the dense
# cell table (single pairs of the latter spread over 0.99-1.32).
scale_dir=$(mktemp -d /tmp/mpld-scale.XXXXXX)
"$MPLD" gen synth "$scale_dir/small" --features 30000 --seed 1 > /dev/null
"$MPLD" gen synth "$scale_dir/large" --features 240000 --seed 1 > /dev/null
scale_run() {
  "$MPLD" decompose "$scale_dir/$1" -a linear -j 1 --no-cache -v 2>&1 |
    awk '
    / features \(/ { n = $2 }
    $1 == "graph.build" { b = $2 + 0 }
    $1 == "graph.neighbor_search" || $1 == "graph.stitch_split" { s += $2 }
    END { print n, s, b }'
}
for i in 1 2 3 4 5; do
  echo "$(scale_run small) $(scale_run large)"
done | awk '{ l = log($4 / $1)
  printf "%.3f %.3f\n", log($5 / $2) / l, log($6 / $3) / l }' > "$scale_dir/slopes"
search=$(cut -d' ' -f1 "$scale_dir/slopes" | sort -n | sed -n 3p)
build=$(cut -d' ' -f2 "$scale_dir/slopes" | sort -n | sed -n 3p)
rm -rf "$scale_dir"
echo "tier1: graph-build slope: search $search, build $build (max 1.25)"
if awk -v s="$search" -v b="$build" 'BEGIN { exit !(s > 1.25 || b > 1.25) }'
then
  echo "tier1: graph build scales superlinearly" >&2
  exit 1
fi

# Smoke: geometric window sharding. Generate a ~100k-feature synthetic
# layout and decompose it sharded under a fixed heap budget — the
# in-process Gc alarm implements the cap (exit 7 past it), since
# OCAMLRUNPARAM has no hard heap limit. A sharded 8-window run fits in
# a fraction of the whole-graph footprint. The whole-graph run of the
# same layout (linear-time component extraction keeps it to seconds)
# must produce the byte-identical coloring, and so must the sequential
# uncached whole-graph run: the piece cache never changes a coloring.
synth=$(mktemp /tmp/mpld-synth.XXXXXX)
synwhole=$(mktemp /tmp/mpld-synwhole.XXXXXX)
synwin=$(mktemp /tmp/mpld-synwin.XXXXXX)
synseq=$(mktemp /tmp/mpld-synseq.XXXXXX)
dune exec bin/mpld.exe -- gen synth "$synth" --features 100000 --seed 1 \
  > /dev/null
dune exec bin/mpld.exe -- decompose "$synth" -a linear -j 2 --windows 8 \
  --max-heap-mb 512 --colors "$synwin" > /dev/null 2>&1 \
  || { echo "tier1: sharded 100k decompose failed or blew the budget" >&2
       exit 1; }
dune exec bin/mpld.exe -- decompose "$synth" -a linear -j 2 \
  --colors "$synwhole" > /dev/null 2>&1 \
  || { echo "tier1: whole-graph 100k decompose failed" >&2; exit 1; }
cmp -s "$synwhole" "$synwin" || {
  echo "tier1: sharded 100k coloring diverged from the whole-graph run" >&2
  exit 1
}
dune exec bin/mpld.exe -- decompose "$synth" -a linear -j 1 --no-cache \
  --colors "$synseq" > /dev/null 2>&1 \
  || { echo "tier1: uncached 100k decompose failed" >&2; exit 1; }
cmp -s "$synwhole" "$synseq" || {
  echo "tier1: cached 100k coloring diverged from the uncached run" >&2
  exit 1
}
rm -f "$synth" "$synwhole" "$synwin" "$synseq"

# The span tree is the one phase clock, so a sharded run must attribute
# each window's stitch split: -v lists graph.stitch_split as an
# unsharded run does.
synth=$(mktemp /tmp/mpld-synth.XXXXXX)
"$MPLD" gen synth "$synth" --features 16000 --seed 1 > /dev/null
"$MPLD" decompose "$synth" -a linear --windows 4 -v 2>&1 > /dev/null |
  awk '$1 == "graph.stitch_split" { found = 1 } END { exit !found }' || {
  echo "tier1: sharded -v lists no graph.stitch_split span" >&2
  exit 1
}
rm -f "$synth"

# Sharded colorings must be byte-identical to the whole-graph path on
# real circuits, cached-parallel and sequential-uncached alike.
shref=$(mktemp /tmp/mpld-shref.XXXXXX)
shgot=$(mktemp /tmp/mpld-shgot.XXXXXX)
for c in C880 S38417 S35932 S38584 S15850; do
  for opts in "-j 2" "-j 1 --no-cache"; do
    dune exec bin/mpld.exe -- decompose "$c" -a linear $opts \
      --colors "$shref" > /dev/null
    dune exec bin/mpld.exe -- decompose "$c" -a linear $opts --windows 4 \
      --colors "$shgot" > /dev/null
    cmp -s "$shref" "$shgot" || {
      echo "tier1: sharded coloring diverged from whole-graph on $c ($opts)" >&2
      exit 1
    }
  done
done
rm -f "$shref" "$shgot"

# Smoke: incremental (ECO) re-decomposition. Decompose a synthetic
# layout capturing a session, generate a deterministic edit script,
# redecompose incrementally, and cold-decompose the edited layout: the
# colorings must be byte-identical and the incremental run must have
# reused at least one untouched component verbatim. A second step
# resumes from the first step's saved session file (sessions hold
# their layout parsed in memory, so a file is the only place a session
# layout round-trips through text) and must match a cold decompose of
# the twice-edited layout too.
esynth=$(mktemp /tmp/mpld-eco-base.XXXXXX)
eedits=$(mktemp /tmp/mpld-eco-edits.XXXXXX)
esess=$(mktemp /tmp/mpld-eco-sess.XXXXXX)
eedited=$(mktemp /tmp/mpld-eco-edited.XXXXXX)
ecoref=$(mktemp /tmp/mpld-eco-ref.XXXXXX)
ecogot=$(mktemp /tmp/mpld-eco-got.XXXXXX)
eedits2=$(mktemp /tmp/mpld-eco-edits2.XXXXXX)
esess2=$(mktemp /tmp/mpld-eco-sess2.XXXXXX)
eedited2=$(mktemp /tmp/mpld-eco-edited2.XXXXXX)
ecoref2=$(mktemp /tmp/mpld-eco-ref2.XXXXXX)
ecogot2=$(mktemp /tmp/mpld-eco-got2.XXXXXX)
dune exec bin/mpld.exe -- gen synth "$esynth" --features 20000 --seed 3 \
  > /dev/null
dune exec bin/mpld.exe -- decompose "$esynth" -a linear -j 2 \
  --session "$esess" > /dev/null 2>&1
dune exec bin/mpld.exe -- gen edits "$eedits" --layout "$esynth" \
  --count 40 --seed 5 > /dev/null
ecoerr=$(mktemp /tmp/mpld-eco-err.XXXXXX)
ecoout=$(dune exec bin/mpld.exe -- redecompose "$esess" "$eedits" \
  -a linear -j 2 --save-layout "$eedited" --colors "$ecogot" \
  --session "$esess2" -v 2>"$ecoerr")
echo "$ecoout" | grep -Eq "eco: reused=[1-9]" || {
  echo "tier1: redecompose reused no component" >&2
  echo "$ecoout" >&2
  exit 1
}
# redecompose -v prints the span rollup: the run and its dirty marking.
for span in redecompose eco.dirty; do
  awk -v s="$span" '$1 == s { found = 1 } END { exit !found }' "$ecoerr" || {
    echo "tier1: redecompose -v lists no $span span" >&2
    cat "$ecoerr" >&2
    exit 1
  }
done
rm -f "$ecoerr"
dune exec bin/mpld.exe -- decompose "$eedited" -a linear -j 2 \
  --colors "$ecoref" > /dev/null 2>&1
cmp -s "$ecoref" "$ecogot" || {
  echo "tier1: incremental coloring diverged from the cold run" >&2
  exit 1
}
dune exec bin/mpld.exe -- gen edits "$eedits2" --layout "$eedited" \
  --count 40 --seed 6 > /dev/null
ecoout=$(dune exec bin/mpld.exe -- redecompose "$esess2" "$eedits2" \
  -a linear -j 2 --save-layout "$eedited2" --colors "$ecogot2" 2>/dev/null) \
  || { echo "tier1: chained redecompose from a session file failed" >&2
       exit 1; }
echo "$ecoout" | grep -Eq "eco: reused=[1-9]" || {
  echo "tier1: chained redecompose reused no component" >&2
  echo "$ecoout" >&2
  exit 1
}
dune exec bin/mpld.exe -- decompose "$eedited2" -a linear -j 2 \
  --colors "$ecoref2" > /dev/null 2>&1
cmp -s "$ecoref2" "$ecogot2" || {
  echo "tier1: chained incremental coloring diverged from the cold run" >&2
  exit 1
}
rm -f "$eedits2" "$esess2" "$eedited2" "$ecoref2" "$ecogot2"

# The same contract over a socket: a DECOMPOSE captures the session
# server-side (--sessions defaults to 8), then a REDECOMPOSE of the
# same layout streams only the dirty pieces, reports a REUSED line,
# and still hands back the full (cold-identical) coloring.
sock=/tmp/mpld-eco-$$.sock
cachef=/tmp/mpld-eco-$$.cache
srvlog=/tmp/mpld-eco-$$.log
start_server
"$MPLD" client --socket "$sock" "$esynth" -a linear > /dev/null 2>&1 \
  || server_fail "ECO base DECOMPOSE failed"
srvout=$("$MPLD" client --socket "$sock" "$esynth" -a linear \
  --edits "$eedits" --colors "$ecogot" 2>/dev/null) \
  || server_fail "REDECOMPOSE over the socket failed: $srvout"
echo "$srvout" | grep -Eq "eco: reused=[1-9]" \
  || server_fail "socket redecompose reused no component: $srvout"
cmp -s "$ecoref" "$ecogot" \
  || server_fail "socket incremental coloring diverged from the cold run"
"$MPLD" client --socket "$sock" --quit 2>/dev/null
wait "$srv" || server_fail "ECO server exited nonzero on shutdown"
srv=""
rm -f "$sock" "$cachef" "$srvlog" "$esynth" "$eedits" "$esess" "$eedited" \
  "$ecoref" "$ecogot"

echo "tier1: OK"
