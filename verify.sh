#!/bin/sh
# verify.sh — the tier-1 verify recipe (ROADMAP.md), one command.
# Every gate runs even when an earlier one fails, so a single pass
# reports everything; the exit status is non-zero if any gate failed.
set -u

fail=0
gate() {
	echo "== $*"
	if ! "$@"; then
		echo "== FAILED: $*" >&2
		fail=1
	fi
}

cd "$(dirname "$0")"

gate go build ./...
gate go test ./...
gate go vet ./...
# Race detector over the concurrent packages; mbapps and httpx are on it
# because a transformer keeps per-direction scratch and the relay calls
# one Processor from two goroutines, one per direction, and adversary
# because its memory attacks use a live session's cipher states while
# the relay's goroutines do.
gate go test -race ./internal/core/ ./internal/tls12/ ./internal/netsim/ ./internal/sessionhost/ ./internal/hsfast/ ./internal/chain/ ./internal/clock/ ./internal/mbapps/ ./internal/httpx/ ./internal/adversary/
gate go test -race ./internal/transport/...
# Stress slice: the manual clock, netsim's byte stream, the Conn
# contract, the chain builder's own contract (the shared
# concurrent-sessions body runs from netsim and tcpx), the session host
# (admission, the handshake gate, drain, snapshots), core's session
# establishment (both roles of establish, every mode, the deadlines on a
# manual clock; the middlebox's join — a stall at each join phase ×
# placement × keying in TestEstablishRoleSymmetry, the ServerHello hold
# and key-material waits, a reset inside the hold — and
# FuzzHelloSniff's seed corpus, a client hanging up mid-join), the
# handshake's write boundaries (one transport write a flight at every
# end of a chain, flights split past one record, and the mux cork that
# joins an endpoint's flights: its release rules, and handshakes and a
# phase deadline run corked), and the relay's fence — the pipeline
# fault tests, the per-batch and per-session cost pins, the data plane
# and commit gate against their in-order reference,
# FuzzParallelReseal's seed corpus — repeated and shuffled at three
# core counts; a flake is a failure to fix, not to retry.
for procs in 1 2 4; do
	gate env GOMAXPROCS=$procs go test -count=20 -shuffle=on ./internal/clock/ ./internal/netsim/ ./internal/transport/... ./internal/chain/ ./internal/sessionhost/
	gate env GOMAXPROCS=$procs go test -count=20 -shuffle=on \
		-run 'TestSession|TestNeighborKeys|TestProxySig|TestChainTicket|TestHandshakePhaseDeadline|TestKeyMaterialWait|TestServerHelloHold|TestApproveRejection|TestGoldenTranscript|TestEstablish|FuzzHelloSniff|TestJoinAbort|TestFlight|TestCork|TestPipeline|TestBurst|TestDataPlane|TestCommitGate|TestResumedSessionFixedCost|FuzzParallelReseal' ./internal/core/
done
# The frozen benchmark module compiles against core's relay API and
# type-asserts on the transport's conns; catch a break here, not in the
# bench run. Its tests include a 7 s smoke of all seven workloads.
gate go build -C benchmark ./...
gate go vet -C benchmark ./...
gate go test -C benchmark ./...
gate go run ./cmd/mbtls-lint ./...
# Reachability ledger (DESIGN.md §8): rebuilds the ten programs and the
# benchmark module with the linker's -dumpdep and fails on a function
# or method no program reaches that internal/analysis/reach.allow does
# not list with a reason, and on a line of that list that names no such
# declaration. About 70 s with a cold build cache, 9 s warm, on two
# cores.
gate go run ./cmd/mbtls-lint -reach internal/analysis/reach.allow
# proxysig smoke: the full proxysig session/audit/failure-path suite on
# netsim, then the quick handshake cells, which run both accountability
# modes end-to-end and fail if no middlebox evidence was signed; then
# the same chain harness over loopback TCP, with the idle-session soak:
# 20 000 sessions admitted into one host, failing on admit p99 >= 5 ms, a
# force-closed session, or a goroutine outliving the drain.
gate go test -run 'TestProxySig|TestAccountabilityMismatch' -count=1 ./internal/core/
gate go run ./cmd/mbtls-bench handshake -quick
gate go run ./cmd/mbtls-bench sessions -quick -transport tcp -soak
# fig7 smoke: the classic matrix end-to-end, on netsim and over loopback
# TCP, so the pipelined relay route runs over real sockets outside the
# frozen benchmark too; fails when the Encryption + Enclave cell crosses
# the enclave twice a record or more.
gate go run ./cmd/mbtls-bench fig7 -quick
gate go run ./cmd/mbtls-bench fig7 -quick -transport tcp
# examples smoke: each program builds its own chain on netsim and exits
# non-zero when its story does not hold. Every one installs a
# Processor, so together they run Processor sessions through the relay's
# inline path end to end.
for example in examples/*/; do
	gate go run "./$example"
done

echo "== gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "== FAILED: gofmt -l . (unformatted files):" >&2
	echo "$unformatted" >&2
	fail=1
fi

if [ "$fail" -eq 0 ]; then
	echo "verify: all tier-1 gates passed"
else
	echo "verify: FAILED" >&2
fi
exit "$fail"
