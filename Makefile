# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml) so a green `make check` locally predicts a
# green pipeline.

.PHONY: build vet test race lint bench-check loc check

build:
	go build ./...

# vet is CI's formatting and vet step: gofmt must list no file, and go vet
# must pass (its copylocks check is what rejects a copied AddressSpace).
vet:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	go vet ./...

test:
	go test ./...

race:
	go test -race ./...

# lint runs reprolint, the repo's own go/analysis suite enforcing the
# snapshot-lifecycle, lock-order/guarded_by/no_block, TLB-flush/epoch,
# fsync-ordering and hot-path performance invariants (see DESIGN.md
# "Static analysis & invariants" and "Performance invariants"). Its
# escapegate analyzer rebuilds the annotated packages with
# -gcflags=-json and reports every compiler escape in a hot_path:
# function and every declined inline: that no //lint:ignore escapegate
# accepts. Any diagnostic is a hard failure; -time prints per-analyzer
# wall time so a slow checker is visible here before it slows CI.
lint:
	go run ./cmd/reprolint -time ./...

# bench-check covers the repo benchmark (BENCHMARK.json): benchmark/ is a
# nested module, so build, test and lint above never see it. Its tests
# assert no timings.
bench-check:
	cd benchmark && go vet ./... && go test ./...
	cd benchmark && go run repro/cmd/reprolint ./...

# loc prints non-test Go lines per package, largest first (ROADMAP aim 2
# tracks this number; CHANGES.md entries quote it).
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%6d %s\n", n[d], d; printf "%6d total\n", t }' | sort -rn

check: build vet lint test race bench-check
