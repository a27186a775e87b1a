GO ?= go

# Tool versions are pinned here (not in ci.yml) so local runs and CI
# install the same thing.
STATICCHECK_VERSION ?= 2023.1.7

.PHONY: check vet vet-bench vet-reed vet-reed-test fuzz-smoke tools staticcheck build test race chaos crash-recovery fmt-check vuln cover bench-smoke bench-mux admin-smoke loc clean

# check is the CI gate: vet, project-specific static analysis and its
# own tests, build everything, race-enabled tests.
check: vet vet-reed vet-reed-test build race vet-bench

vet:
	$(GO) vet ./...

# vet-bench compiles the repository's benchmark (bench/, a module of its
# own that `./...` does not reach) against this tree and checks it still
# agrees with BENCHMARK.json, so an internal API change that breaks the
# benchmark fails here and not in the next performance comparison.
vet-bench:
	$(GO) -C bench vet ./...
	$(GO) -C bench test -run TestManifest ./...

# vet-reed runs the project's own static-analysis suite (tools/reed-vet):
# five analyzers: key-material hygiene (including the rule that a
# //reed:secret local is wiped by a deferred core.Wipe on the next
# line), context-first APIs, lock-scope discipline, metric naming, and
# retry-path error classification. See DESIGN.md "Static analysis".
# Exits non-zero on any diagnostic. The suite then self-hosts: the
# analyzers run over their own module too, so the tool is held to the
# invariants it enforces.
vet-reed:
	cd tools/reed-vet && $(GO) run . -dir ../.. ./...
	cd tools/reed-vet && $(GO) run . -dir . ./...

# vet-reed-test runs the analyzer suite's own tests: golden-file fixture
# expectations plus the meta-test asserting the repo is diagnostic-free.
vet-reed-test:
	cd tools/reed-vet && $(GO) test ./...

# fuzz-smoke discovers every native fuzz target in the module
# (go test -list '^Fuzz') and runs each for a short burst — a cheap CI
# regression net on the codepaths that face attacker-controlled bytes,
# with no hand-maintained target list to fall out of date. FUZZTIME=10m
# turns the smoke into the nightly soak (see
# .github/workflows/nightly.yml).
FUZZTIME ?= 30s
fuzz-smoke:
	@FUZZTIME=$(FUZZTIME) sh scripts/fuzz_smoke.sh

# tools installs the pinned lint/scan tools (CI calls this; local runs
# may prefer their own versions and skip it).
tools:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	$(GO) install golang.org/x/vuln/cmd/govulncheck@latest

# staticcheck runs honnef.co/go/tools if installed; CI installs the
# pinned version, and locally it degrades to a note instead of failing
# the build.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# chaos runs the fault-injection suite twice under the race detector:
# scripted connection cuts (internal/netem) fire at deterministic byte
# offsets while uploads/downloads run, exercising reconnect and retry,
# and the storage crash tests (Crash, Torn, Cut: the dedup store, blob
# plane, WAL and file index on storetest's fault backend, power cuts
# included) replay their crash points and models. -count=2 proves the
# seeded faults are reproducible, not flaky; the nightly workflow
# raises CHAOS_COUNT to 4. The second command stresses
# the Serve/Shutdown ordering of both daemons (rpcmux's TestServeShutdown
# table: the storage server and the key manager serve through
# rpcmux.Server): whether Shutdown or the Serve goroutine reaches the
# server's mutex first is the scheduler's choice, so only many
# repetitions visit both orders (Tier-1 once failed 6 % of runs here). The third repeats the experiment tests that used to assert
# wall-clock orderings and failed about one -race run in ten on a shared
# two-core box; they assert on counters now, and twenty repetitions keep
# it that way.
CHAOS_COUNT ?= 2
chaos:
	$(GO) test -race -run 'Chaos|Fault|Crash|Torn|Cut' -count=$(CHAOS_COUNT) ./...
	$(GO) test -race -run 'TestServe.*Shutdown' -count=500 ./internal/rpcmux
	$(GO) test -race -run 'TestAblations$$|TestFig5bShape$$|TestFig6Shape$$|TestFig7cShape$$' -count=20 ./internal/experiments

# crash-recovery boots a real deployment on disk backends, uploads a
# corpus with duplicate content, SIGKILLs the storage servers (once at
# rest, once mid-upload), restarts them on the same directories, and
# asserts the dedup accounting and every acknowledged file survived.
crash-recovery:
	@sh scripts/crash_recovery.sh

# fmt-check fails if any file needs gofmt.
fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# vuln runs govulncheck if installed; locally it degrades to a note.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# cover writes an aggregate coverage profile to cover.out.
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# bench-smoke runs one iteration of the Figure 7 upload/download
# benchmark as a cheap end-to-end exercise of the full data path.
bench-smoke:
	$(GO) test -run NONE -bench=Fig7 -benchtime=1x .

# bench-mux measures request pipelining over one connection with an
# emulated 2 ms propagation delay: inflight=1 is the lockstep baseline,
# inflight>=8 should beat it by well over 2x. It prints the curve; the
# Tier-1 TestMuxedGetsPipelineOneConnection is what fails on lockstep.
bench-mux:
	$(GO) test -run NONE -bench=BenchmarkMuxedGets -benchtime=3x ./internal/server/

# admin-smoke boots a real reed-server with the admin endpoint enabled
# and checks /metrics (valid JSON), /metrics?format=text, and /healthz
# from the outside. CI runs this; it needs only curl and go.
admin-smoke:
	@sh scripts/admin_smoke.sh

# loc prints non-blank, non-comment Go line counts for production code,
# tests and tools/reed-vet (testdata excluded). Run it on the parent
# commit and on a change to see whether the change is net-negative; CI
# appends the table to the job summary.
loc:
	@sh scripts/loc.sh

clean:
	$(GO) clean ./...
	rm -f cover.out
