#!/bin/sh
# verify.sh — the repo's tier-1 gate: vet, build, full test suite, and the
# race detector on the write path (docstore, wal, transport, nwr), the
# resilience-bearing packages (cluster, gossip, cache, dispatch, resilience),
# the CP tier (consensus), the repair path (merkle) and the observability
# packages (metrics, trace). It also vets the perfbench driver, a module of
# its own that the root build never compiles, offline and with the same
# module settings perfbench/run.py builds it with, and fails on any file
# gofmt would change.
# CI and pre-commit both run exactly this.
set -eux

test -z "$(gofmt -l .)"
go vet ./...
(cd perfbench && GOFLAGS=-mod=mod GOPROXY=off GOWORK=off go vet ./...)
go build ./...
go test ./...
go test -race ./internal/docstore ./internal/lsm ./internal/wal ./internal/transport ./internal/nwr \
	./internal/cluster ./internal/gossip ./internal/cache ./internal/dispatch ./internal/resilience \
	./internal/consensus ./internal/merkle ./internal/metrics ./internal/trace
