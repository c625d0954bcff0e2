GO ?= go

.PHONY: ci fmt build vet lint test race bench cover fuzz allocs scale loc

# ci is the gate run before merging: formatting, build, vet, the
# determinism lint, the race detector over every internal package, the
# full test suite, the allocation-budget gate on the scale-critical hot
# paths, the per-package coverage report with its simnet floor, and a
# short burst over every discovered fuzz target. scripts/ci.sh runs this
# and then adds the seeded bench regression gate on top.
ci: fmt build vet lint race test allocs cover fuzz

fmt:
	@files="$$(gofmt -l .)"; \
	if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; \
	fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint rejects wall-clock reads and global math/rand use outside
# internal/simnet — the two easiest ways to silently break seed
# determinism (and with it the bench gate's exact-match comparison).
lint:
	./scripts/determinism_lint.sh

# race also runs the shard-determinism suite (small tier) with the race
# detector watching the sharded engine's worker pool — the only place in
# the repo where simulation state crosses goroutines mid-run.
race:
	$(GO) test -race ./internal/...
	$(GO) test -race -short -run 'TestShardDeterminism' -count=1 .

test:
	$(GO) test ./...

# cover emits per-package coverage and enforces the floor on the simulation
# substrate, the resilience layer, the storage engine, and the workload
# engine: internal/simnet, internal/simnet/fault, internal/resil,
# internal/storage, internal/workload and internal/overload must stay at
# >= 80% statement coverage — everything else in the repo leans on their
# fidelity; resil's retry/hedge/breaker decisions feed the X16 golden,
# storage's tiering/GC decisions feed the X17 golden, workload's draws
# feed the X18 golden, and overload's admission decisions feed the X20
# golden. The gate fails loudly if a tracked package is missing from the
# report or its line
# carries no parseable percentage (e.g. the go tool's output format
# changed), rather than silently passing.
cover:
	@$(GO) test -cover ./internal/... | tee /tmp/feudalism-cover.txt
	@awk '$$1 == "ok" && ($$2 == "repro/internal/simnet" || $$2 == "repro/internal/simnet/fault" || $$2 == "repro/internal/resil" || $$2 == "repro/internal/storage" || $$2 == "repro/internal/workload" || $$2 == "repro/internal/replic" || $$2 == "repro/internal/overload") { \
		seen++; found = 0; \
		for (i = 1; i <= NF; i++) if ($$i ~ /^[0-9.]+%/) { found = 1; pct = $$i; sub(/%.*/, "", pct); \
			if (pct + 0 < 80) { printf "coverage gate: %s at %s%% (floor 80%%)\n", $$2, pct; fail = 1 } } \
		if (!found) { printf "coverage gate: no parseable coverage percentage in: %s\n", $$0; fail = 1 } } \
		END { if (seen != 7) { printf "coverage gate: expected 7 tracked packages in report, saw %d\n", seen; fail = 1 } exit fail }' /tmp/feudalism-cover.txt

# fuzz discovers every Fuzz* target in packages that keep a seed corpus
# under testdata/fuzz and runs each for a short burst — no hand-maintained
# target list to fall out of date when targets are added or renamed.
FUZZTIME ?= 10s
fuzz:
	@set -e; \
	for dir in $$($(GO) list -f '{{.Dir}}' ./...); do \
		[ -d "$$dir/testdata/fuzz" ] || continue; \
		pkg=$$($(GO) list "$$dir"); \
		targets=$$($(GO) test -list '^Fuzz' "$$pkg" | grep '^Fuzz' || true); \
		if [ -z "$$targets" ]; then \
			echo "fuzz: $$pkg has testdata/fuzz but no Fuzz targets"; exit 1; \
		fi; \
		for t in $$targets; do \
			echo "fuzz: $$pkg $$t ($(FUZZTIME))"; \
			$(GO) test "$$pkg" -run '^$$' -fuzz "^$$t$$" -fuzztime $(FUZZTIME); \
		done; \
	done

bench:
	$(GO) test -bench . -benchmem -benchtime 1x ./...

# allocs enforces the allocation budgets on the hot paths the X15 scale
# sweep depends on: substrate Send must stay at 0 allocs/op, RPC round
# trips, DHT lookups and gossip rounds inside their pinned budgets.
allocs:
	$(GO) test -run 'TestAlloc' -count=1 .

# scale is the nightly-style 10k-node tier: the big scale matrix at full
# population, plus the race detector over the small tier. scripts/ci.sh
# runs it when CI_SCALE=1 so the merge gate stays fast by default.
scale:
	SCALE=big $(GO) test -run 'TestScaleBig' -count=1 -timeout 300s -v .
	$(GO) test -race -short -run 'TestScaleMatrix' -count=1 .

# loc prints non-test and test Go line counts for the root module and for
# perfbench, so every change can report its net size.
loc:
	@./scripts/loc.sh
