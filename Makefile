# Convenience wrappers around dune; `make check` is the CI entry point:
# build + full test suite + the benchmark smoke pass (tiny sizes) + the
# chaos/stress pass (fault injection, crash containment, resource
# guards) + the native backend pass (emitted C compiled and diffed
# against the interpreter) + the profiler and explain JSON contracts, so
# neither the perf plumbing of bench/ nor the `mmc profile --json` /
# `mmc explain --json` schemas can bit-rot silently.

.PHONY: all test golden-check bench bench-smoke bench-compare stress native-check native-faults-check profile-check profile-native-check explain-check check clean

all:
	dune build

test:
	dune runtest

# Golden drift check: regenerate the test/golden/ fixtures into a
# temporary directory and diff them against the committed ones, so the
# blessing tool (test/golden_gen.ml) and the committed oracle cannot
# drift apart.
golden-check: all
	@d=$$(mktemp -d) && \
	  dune exec test/golden_gen.exe -- $$d > /dev/null && \
	  diff -r $$d test/golden; \
	  s=$$?; rm -rf "$$d"; exit $$s

# Full benchmark sweep; writes BENCH_kernels.json and BENCH_telemetry.json.
bench:
	dune exec bench/main.exe

# Seconds, not minutes: the C5 pool and spawn-per-region baselines.
bench-smoke:
	dune build @bench-smoke

# Regression gate: re-measure the native rows (C12-C14) of a
# BENCH_kernels.json baseline and exit non-zero if any is >25% slower.
bench-compare: all
	dune exec bench/main.exe -- --compare BENCH_kernels.json

# Chaos/stress pass: every failpoint through real programs in both
# execution modes, pool crash containment, degraded-mode fallback and
# the cooperative resource guards.  Each case runs under a hard SIGALRM
# deadline inside the suite, so a containment bug fails fast instead of
# hanging CI.
stress:
	dune build @stress-smoke

# Native backend pass: compile every corpus program's emitted C with the
# system compiler and diff it against the interpreter bit-for-bit (plus
# binary-cache, --keep-c and -Werror cases).  Each case skips with a
# visible notice when no C compiler is installed, so the target always
# succeeds on compiler-less machines without hiding that nothing ran.
native-check:
	dune build @native-check

# Supervised-execution pass: runtime guard faults (--guards), crash
# triage to source spans, MM_FAILPOINTS parity, supervisor
# timeout/rlimit kills, sanitizer builds and the 16-cell native fault
# matrix — all against real compiled binaries.  Each case skips with a
# visible notice when no C compiler is installed.
native-faults-check:
	dune build @native-faults-check

# Run the source-attributed profiler on an example and validate the
# machine-readable output against the schema checker in the bench binary.
profile-check: all
	dune exec bin/mmc.exe -- profile examples/eddy_energy.mc --json \
	  > _build/profile_check.json
	dune exec bench/main.exe -- --check-profile-json _build/profile_check.json

# Same contract for the native profiler: compile an example with
# instrumentation, run it, and validate `mmc profile --native --json`
# against the same schema checker — so the interpreted and native
# reports cannot drift apart.  Skips with a notice when no C compiler
# is installed, mirroring the native-check convention.
profile-native-check: all
	@if command -v $${MMC_CC:-cc} >/dev/null 2>&1; then \
	  dune exec bin/mmc.exe -- profile examples/eddy_energy.mc --native --json \
	    > _build/profile_native_check.json && \
	  dune exec bench/main.exe -- --check-profile-json _build/profile_native_check.json; \
	else \
	  echo "profile-native-check: SKIP (no C compiler: $${MMC_CC:-cc} not found)"; \
	fi

# Collect optimization remarks for an example and validate the
# machine-readable output against the schema checker in the bench binary.
explain-check: all
	dune exec bin/mmc.exe -- explain examples/transform_tiling.mc --json \
	  > _build/explain_check.json
	dune exec bench/main.exe -- --check-explain-json _build/explain_check.json

check: all test golden-check bench-smoke stress native-check native-faults-check profile-check profile-native-check explain-check

clean:
	dune clean
