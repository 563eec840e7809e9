PYTHON ?= python
PYTEST = PYTHONPATH=src $(PYTHON) -m pytest

.PHONY: test tier1 robustness supervision batching service soak tenancy smoke scoreboard scoreboard-compare scoreboard-pairs scoreboard-digest budget-sweep reach

# full suite
test:
	$(PYTEST) -q

# the CI gate: fail-fast over everything, and hermetic — a run that
# creates, edits or deletes a file git can see fails, and so does one
# that leaves any entry in /dev/shm that was not there before it.
# It prints its 15 slowest tests: the wall is gated at 2 min (ROADMAP 8).
tier1:
	@before="$$(git status --porcelain)"; \
	shm_before="$$(ls /dev/shm 2>/dev/null)"; \
	$(PYTEST) -x -q --durations=15 || exit $$?; \
	after="$$(git status --porcelain)"; \
	if [ "$$before" != "$$after" ]; then \
		echo "tier1 is not hermetic: git status --porcelain changed:"; \
		echo "$$after"; exit 1; \
	fi; \
	leaked="$$(ls /dev/shm 2>/dev/null | grep -vxF "$$shm_before")"; \
	if [ -n "$$leaked" ]; then \
		echo "tier1 leaked shared memory: /dev/shm still holds:"; \
		echo "$$leaked"; exit 1; \
	fi

# seeded fault-injection + durability/crash-resume + memory-governor +
# worker-supervision + request-plane + tenant-isolation suites (includes
# the seeded request-storm chaos soak from tests/test_service.py, the
# SIGKILL/--resume crash-restart soaks, and the noisy-neighbor fairness
# storm from tests/test_tenancy.py)
robustness:
	$(PYTEST) -q -m "chaos or durability or memory or supervision or service or resilience or tenancy"

# worker supervision only: heartbeats, deadlines, crash/respawn, quarantine
supervision:
	$(PYTEST) -q -m supervision

# kernel-offload plane: threads-vs-processes differential property,
# exact round-trip counts, partition -> worker placement
batching:
	$(PYTEST) -q -m batching

# solver-as-a-service request plane: admission control, single-flight
# dedup + result cache, deadlines, retries, the poison fallback to
# threads, request storms
service:
	$(PYTEST) -q -m service

# crash-restart soak: SIGKILL a live `repro serve` mid-storm, restart
# with --resume, assert every acked request settled exactly once with
# bit-identical results and nothing leaked
soak:
	$(PYTEST) -q -m resilience

# tenant isolation plane: enforced quotas, token-bucket rate limits,
# weighted deficit-round-robin fairness, the brownout ladder, and the
# seeded noisy-neighbor storm
tenancy:
	$(PYTEST) -q -m tenancy

# robustness gate: tier-1, then chaos/durability/memory/service, then
# tenancy
smoke: tier1 robustness batching service tenancy

# The repo's benchmark (bench/README.md, BENCHMARK.json): six workloads,
# every end-to-end metric by name, outputs checked.  This is how a
# performance claim is checked: run it on the parent commit and on the
# change (ten sets each, alternating, for a claim), then compare.
# SCOREBOARD_ARGS="--seed 7 --trace 1" for another seed or the per-layer
# ledger.
scoreboard:
	python3 bench/run.py --out .bench_tmp/set.json $(SCOREBOARD_ARGS)

# make scoreboard-compare BASE=parent.json NEW=change.json
# (each a set written by --out, or a JSON list of sets)
scoreboard-compare:
	python3 bench/run.py --compare $(BASE) $(NEW)

# The protocol of a performance claim in one command: PAIRS alternating
# parent/change runs of each workload (a fresh seed per pair, each side
# running its own bench/), the per-pair win tally, then --compare.
# make scoreboard-pairs PARENT=HEAD~1 WORKLOADS="fw_fine_im ge_fine_cb" PAIRS=10
PAIRS ?= 10
scoreboard-pairs:
	python3 benchmarks/pairs.py --parent $(PARENT) --workloads "$(WORKLOADS)" --pairs $(PAIRS)

# BENCH_engine.json, the tracked perf trajectory: one traced scoreboard
# set, digested (five end-to-end metrics, overhead and all-CPUs ratios,
# exact counts per workload; host; commit).  ~15 min.
scoreboard-digest:
	mkdir -p .bench_tmp/digest
	python3 bench/run.py --trace 1 --out .bench_tmp/digest/set.json
	python3 benchmarks/digest.py .bench_tmp/digest/set.json BENCH_engine.json

# Which spill paths still fire at which memory budget, on the three
# engine shapes (EXPERIMENTS.md "Cache-block spill: measured, kept").
# BUDGET_SWEEP_ARGS=--memory-only for the MEMORY_ONLY variant.  ~25 s.
budget-sweep:
	PYTHONPATH=src $(PYTHON) benchmarks/budget_sweep.py $(BUDGET_SWEEP_ARGS)

# Which src/ definitions a program (the benchmark, the experiments, the
# examples) reaches and which only tests reach: every process
# line-traced, tier-1 one module at a time.  Prints the per-file summary
# and writes the full table to .bench_tmp/reach.txt (EXPERIMENTS.md
# "What reaches what"); REACH_ARGS="--traces .bench_tmp/reach-traces"
# tabulates the last run again.  ~15 min.
reach:
	$(PYTHON) benchmarks/reach.py $(REACH_ARGS)
