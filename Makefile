# Developer entry points.  All targets run from a plain checkout (no
# install): PYTHONPATH=src is injected everywhere.

PYTHON ?= python
PYTEST  = PYTHONPATH=src $(PYTHON) -m pytest

.PHONY: test test-all test-slow lint sanitize bench figures ledger ledger-pairs profile opcount sweep viz serve serve-smoke clean-cache

## Packages (and the CLI dispatcher) held to the ruff + strict-mypy bar (CI
## `lint` job).
TYPED_PACKAGES = src/repro/isa/cfg.py tests/kernel_lint src/repro/obs src/repro/trace src/repro/feedback src/repro/cli.py

## Tier-1 suite: fast correctness tests (excludes `slow`-marked suites).
test:
	$(PYTEST) -x -q

## Everything, including the full replay parity and skip-loop oracle grids.
test-all:
	$(PYTEST) -x -q -m ""

## Only the slow suites (full parity and oracle grids etc.).
test-slow:
	$(PYTEST) -q -m slow

## Static checks of the typed packages: resolve every annotation (stdlib
## only), then ruff / strict mypy over them when installed.  The kernel
## linter runs in the tier-1 suite (tests/test_analysis_lints.py).
lint:
	PYTHONPATH=src $(PYTHON) tools/annotation_smoke.py $(TYPED_PACKAGES)
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check $(TYPED_PACKAGES); \
	else echo "ruff not installed; skipping"; fi
	@if $(PYTHON) -m mypy --version >/dev/null 2>&1; then \
		$(PYTHON) -m mypy --strict $(TYPED_PACKAGES); \
	else echo "mypy not installed; skipping"; fi

## The source rules over the simulator's own code: determinism and probe
## coverage (docs/static_analysis.md, "Source rules").
sanitize:
	$(PYTEST) -x -q tests/test_source_rules.py

## Paper-reproduction benchmarks + perf smoke (pytest-benchmark).
bench:
	$(PYTEST) benchmarks/ -q -m "" --benchmark-only -s

## The figure, table and ablation benchmarks alone: every paper shape the
## reproduction asserts (17 figures + tables + ablations, ~30 s cold).
figures:
	$(PYTEST) benchmarks/test_fig*.py benchmarks/test_tables.py benchmarks/test_ablation_*.py -q -m "" --benchmark-only

## Performance-ledger smoke: the harness's own tests, then one short
## narrow_figs pass, one short wide_mem pass — the workload that drives
## the default device loop at 64/160 SMs — and one short sweep_store pass,
## the only workload that writes and reads the trace store
## (benchmarks/ledger/README.md).
ledger:
	$(PYTEST) benchmarks/ledger/test_ledger.py -q
	$(PYTHON) benchmarks/ledger/run.py --seconds 2 --workload narrow_figs
	$(PYTHON) benchmarks/ledger/run.py --seconds 2 --workload wide_mem
	$(PYTHON) benchmarks/ledger/run.py --seconds 2 --workload sweep_store

## Alternating base/change ledger pairs for a claimed gain, e.g.
## `make ledger-pairs BASE=HEAD~1 WORKLOAD=narrow_figs PAIRS=10`
## (tools/ledger_pairs.py: compare.py verdicts, medians, the base's
## quartiles, pairs won, failed operations).
BASE ?= HEAD~1
WORKLOAD ?= narrow_figs
PAIRS ?= 10
ledger-pairs:
	$(PYTHON) tools/ledger_pairs.py --base $(BASE) --workload $(WORKLOAD) --pairs $(PAIRS)

## Where the reference cell's replays spend CPU (override: make profile
## ARGS="kmeans rr"): SIGPROF samples grouped by host layer, the hottest
## functions by self and inclusive share, then the call-budget gauge CI
## gates (profiled calls per replayed warp instruction, bfs x gto at 0.5).
ARGS ?= bfs cawa
profile:
	PYTHONPATH=src $(PYTHON) -m repro profile $(ARGS)

## CPython bytecodes and Python calls per replayed warp instruction, by
## function, over the ledger's 15 narrow_figs cells (tools/opcount.py;
## counts repeat exactly under one CPython minor — a report, not a gate).
## One cell: make opcount OPCOUNT_ARGS="--budget-cell".
OPCOUNT_ARGS ?=
opcount:
	$(PYTHON) tools/opcount.py $(OPCOUNT_ARGS)

## Full workload x scheme IPC sweep.
sweep:
	PYTHONPATH=src $(PYTHON) -m repro sweep

## Record the reference cell and export a Perfetto-loadable Chrome trace
## (override the cell: make viz ARGS="kmeans gto").  Open the resulting
## .trace.json at https://ui.perfetto.dev ; see docs/observability.md.
viz:
	PYTHONPATH=src $(PYTHON) -m repro events export --format chrome $(ARGS)
	PYTHONPATH=src $(PYTHON) -m repro events stats $(ARGS)

## Run the simulation service on the default port (docs/serving.md).
serve:
	PYTHONPATH=src $(PYTHON) -m repro serve

## End-to-end service smoke: boot `repro serve`, exercise coalescing,
## SSE obs progress, warm repeats, admission type checks and draining
## shutdown through `repro client`.
serve-smoke:
	$(PYTHON) tools/serve_smoke.py

## Drop the persistent result cache.
clean-cache:
	rm -rf .repro_cache
