# Build/test entry points for CI and local development.
#
#   make build      — compile everything
#   make vet        — go vet
#   make lint       — gofmt -l (fails on unformatted files) + go vet
#   make test       — full-fidelity suite (slow; shrinks with core count)
#   make test-short — reduced-scale suite, well under 30 s
#   make test-race  — race-enabled short suite, run twice so reused
#                     scratch is exercised across repeated calls
#   make test-race-obs — race leg under the ZIGZAG_NO_OBS=1 switch
#   make test-race-kern — race leg over the kernel packages built with
#                     the purego tag: the Go kernel forms every
#                     non-amd64 target runs
#   make test-purego — go vet and the short suite with the purego tag:
#                     the portable Go paths that non-amd64 builds run in
#                     place of the SSE2 kernels (internal/dsp/kern and the
#                     FFT stages of internal/dsp/fft)
#   make fuzz-smoke — every Fuzz* target (found per package with
#                     go test -list) fuzzed for FUZZTIME each (default
#                     5s), beyond the seed corpora plain go test runs
#   make bench      — paper-figure benchmarks (root package)
#   make bench-correlate — correlation engine benchmarks: naive vs FFT,
#                      and the per-layer detect (two clients, one-shot
#                      vs shared transform) and store-match costs
#   make bench-decode — decode hot-path benchmarks: polyphase re-encode
#                     and decode, the ISI fit and equalizer training,
#                     and whole joint decodes (a single-reception
#                     collision and a collision pair)
#   make bench-impair — impairment-engine benchmarks: per-model costs
#                      plus static-vs-impaired Air.MixInto
#   make bench-kern — DSP kernel-layer benchmarks: the kern package's
#                     kernel microbenchmarks (MulTone on the Go loop and
#                     the build's kernel among them) plus the impair
#                     per-model and FullChain rows they accelerate
#   make bench-kern-v3 — bench-kern rebuilt with GOAMD64=v3 (AVX/FMA
#                     baseline), for comparing instruction-set levels;
#                     record the level next to any number you commit
#   make ci         — what a pipeline should run: vet + the three race
#                     legs (test-race, test-race-obs, test-race-kern)
#
# The GitHub Actions pipeline (.github/workflows/ci.yml) runs `make ci`
# and `make test-short` on two Go versions, `make test` (the only job
# without -short) on one, lint, `make fuzz-smoke`, `make test-purego`
# and the zzbench module's unit tests as separate jobs. Cost is measured by the zzbench module (`bash zzbench/run.sh`)
# and the bench-* micro-benchmarks above; identity checks live in the
# blocking tests.
# The experiment suites fan Monte-Carlo trials out across all cores via
# internal/runner; per-trial seed derivation keeps every figure
# bit-identical at any worker count, so parallelism is purely a
# wall-clock lever.

GO ?= go

# Packages with an observability attachment point; test-race-obs
# races them with the ZIGZAG_NO_OBS=1 switch set, so the
# detached configuration gets the same -count=2 race coverage as the
# default one test-race gives every package.
OBS_PKGS = ./internal/obs/... ./internal/core/... ./internal/phy/... ./internal/serve/... ./internal/hatch/...

# Packages that run the DSP kernel layer; test-race-kern races them on
# the kernels' Go forms (the purego tag), which test-race, on amd64,
# does not build.
KERN_PKGS = ./internal/dsp/... ./internal/impair/... ./internal/channel/... ./internal/phy/... ./internal/core/...

.PHONY: all build vet lint test test-short test-race test-race-kern test-race-obs test-purego fuzz-smoke bench bench-correlate bench-decode bench-impair bench-kern bench-kern-v3 ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...

test: build
	$(GO) test ./...

test-short: build
	$(GO) test -short ./...

test-race: build
	$(GO) test -short -race -count=2 ./...

test-race-obs: build
	ZIGZAG_NO_OBS=1 $(GO) test -short -race -count=2 $(OBS_PKGS)

test-race-kern: build
	$(GO) test -short -race -count=2 -tags purego $(KERN_PKGS)

# The purego tag swaps every assembly kernel for its Go form — the code
# other architectures build — so this leg keeps those paths vetted and
# tested on amd64 hosts.
test-purego:
	$(GO) vet -tags purego ./...
	$(GO) test -short -tags purego ./...

# Fuzz time per target; go test -fuzz accepts one target per run.
FUZZTIME ?= 5s

fuzz-smoke: build
	@set -e; for pkg in $$($(GO) list ./...); do \
		list=$$($(GO) test -list '^Fuzz' $$pkg); \
		for target in $$(echo "$$list" | grep '^Fuzz'); do \
			echo "fuzz $$pkg $$target"; \
			$(GO) test -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZTIME) $$pkg; \
		done; \
	done

bench: build
	$(GO) test -bench=. -benchmem -run='^$$' .

bench-correlate: build
	$(GO) test -bench='BenchmarkCorrelateProfile|BenchmarkCrossover|BenchmarkFFT' -benchmem -run='^$$' ./internal/dsp/fft
	$(GO) test -bench='BenchmarkDetectClients' -benchmem -run='^$$' ./internal/phy
	$(GO) test -bench='BenchmarkLocatePacket|BenchmarkStoreMatch' -benchmem -run='^$$' ./internal/core

bench-decode: build
	$(GO) test -bench='BenchmarkBuildImage|BenchmarkSubtract|BenchmarkDecodeRange|BenchmarkShiftDrift|BenchmarkShiftDriftZero|BenchmarkFitISI|BenchmarkTrainEqualizer' -benchmem -run='^$$' ./internal/phy
	$(GO) test -bench='BenchmarkDecodeSingleCollision|BenchmarkDecodePair' -benchmem -run='^$$' ./internal/core

bench-impair: build
	$(GO) test -bench='BenchmarkFading|BenchmarkMultipath|BenchmarkDrift|BenchmarkInterferer|BenchmarkADC|BenchmarkFullChain' -benchmem -run='^$$' ./internal/impair
	$(GO) test -bench='BenchmarkMix' -benchmem -run='^$$' ./internal/channel

bench-kern: build
	$(GO) test -bench=. -benchmem -run='^$$' ./internal/dsp/kern
	$(GO) test -bench='BenchmarkFading|BenchmarkMultipath|BenchmarkDrift|BenchmarkInterferer|BenchmarkADC|BenchmarkFullChain' -benchmem -run='^$$' ./internal/impair

bench-kern-v3:
	GOAMD64=v3 $(GO) build ./...
	GOAMD64=v3 $(GO) test -bench=. -benchmem -run='^$$' ./internal/dsp/kern
	GOAMD64=v3 $(GO) test -bench='BenchmarkFading|BenchmarkMultipath|BenchmarkDrift|BenchmarkInterferer|BenchmarkADC|BenchmarkFullChain' -benchmem -run='^$$' ./internal/impair

# Three race legs: test-race covers every package on the default
# paths, test-race-obs the packages the no-obs switch reaches, and
# test-race-kern the kernel packages on the Go kernel forms.
ci: vet test-race test-race-obs test-race-kern
