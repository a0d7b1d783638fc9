PYTHON ?= python
export PYTHONPATH := src

# Coverage floor for `make coverage` (core + validate packages).
COV_FLOOR ?= 75

.PHONY: test test-slow validate validate-smoke fuzz coverage bench examples experiments suite-check pins-check trace-smoke clean-cache

test:
	$(PYTHON) -m pytest -x -q

# The full-scale shape-gate sweep as a pytest tier (deselected from
# `make test` via the slow marker).
test-slow:
	$(PYTHON) -m pytest -x -q -m slow

# World contracts + every EXPERIMENTS.md shape gate on the default seed.
validate:
	$(PYTHON) -m repro validate --seed 7

# Contracts only — fast enough for a pre-commit hook (~1 s at small scale).
validate-smoke:
	$(PYTHON) -m repro validate --seed 7 --scale 0.05 --contracts-only

# Property-based fuzzing with the derandomized CI profile.
fuzz:
	HYPOTHESIS_PROFILE=ci $(PYTHON) -m pytest -q \
		tests/test_validate_properties.py tests/test_property_util.py \
		tests/test_inference_properties.py tests/test_route_plans.py \
		tests/test_diurnal.py

# Tier-1 coverage with a floor on the packages the validation layer
# guards. Needs the pytest-cov dev dependency; fails fast with a hint
# when it is absent rather than running uncovered.
coverage:
	@$(PYTHON) -c "import pytest_cov" 2>/dev/null || \
		{ echo "pytest-cov not installed (pip install 'repro[dev]')"; exit 2; }
	$(PYTHON) -m pytest -q -m "not slow" \
		--cov=repro.core --cov=repro.validate \
		--cov-report=term-missing --cov-report=xml:coverage.xml \
		--cov-fail-under=$(COV_FLOOR)

# One traced experiment end-to-end; fails if the observability artifacts
# (run_manifest.json + trace.json) do not appear or name the wrong schema.
trace-smoke:
	rm -f run_manifest.json trace.json
	$(PYTHON) -m repro.experiments fig1 --trace --jobs 2
	$(PYTHON) -c "import json; m = json.load(open('run_manifest.json')); \
	assert m['schema'] == 'repro.obs/run-manifest/v2', m['schema']; \
	assert 'fig1' in m['experiments'], m['experiments']; \
	assert m['resource']['peak_rss_bytes'], m['resource']; \
	assert m['phases'], 'empty phases table'; \
	t = json.load(open('trace.json')); \
	assert t['schema'] == 'repro.obs/trace/v1', t['schema']; \
	assert t['spans'], 'empty span tree'; \
	print('trace-smoke ok:', m['cache'], m['pool'])"

# One set of the layered benchmark (layerbench/README.md): every
# workload in fresh interpreters, medians of the end-to-end metrics.
bench:
	$(PYTHON) layerbench/bench.py

# Every script under examples/, end to end, without the artifact cache;
# stops at the first one that exits non-zero (~10 s).
examples:
	for example in examples/*.py; do \
		echo "== $$example"; \
		REPRO_CACHE=0 $(PYTHON) $$example || exit 1; \
	done

# Every experiment, serially; its stdout is the committed
# experiments_output.txt.
experiments:
	$(PYTHON) -m repro.experiments all > experiments_output.txt

# The whole suite fanned out over two workers against an empty artifact
# cache; minus timing lines (stripped as the benchmark strips them), its
# stdout must equal experiments_output.txt. Leaves stdout and
# run_manifest.json in suite-check/.
suite-check:
	rm -rf suite-check && mkdir -p suite-check
	REPRO_CACHE_DIR=suite-check/cache $(PYTHON) -m repro.experiments all --jobs 2 \
		--obs-dir suite-check > suite-check/stdout.txt
	$(PYTHON) -c "import sys; sys.path.insert(0, 'layerbench'); \
	from workloads import strip_timings; \
	strip = lambda src, dst: open(dst, 'w').write(strip_timings(open(src).read()) + '\\n'); \
	strip('experiments_output.txt', 'suite-check/expected.txt'); \
	strip('suite-check/stdout.txt', 'suite-check/actual.txt')"
	diff -u suite-check/expected.txt suite-check/actual.txt
	@echo "suite-check ok: all --jobs 2 matches experiments_output.txt"

# One benchmark repetition each of `campaign` and `coverage` at seeds 7
# and 11, and of `coverage_x4` at seed 7 over two workers, whose 4x world
# outgrows the forwarder's bounded caches; every result digest must equal
# layerbench/pinned.json and every self-check must pass (~1 min). The
# seed-7 repetitions run traced, so the layer self-checks run too: every
# span a workload requires was called, every wrapped method still exists,
# and the pool folded its workers' totals back. Reads the benchmark's
# files and changes none of them. Leaves each repetition's JSON in
# pins-check/.
pins-check:
	rm -rf pins-check && mkdir -p pins-check
	for workload in campaign coverage; do for seed in 7 11; do \
		if [ $$seed = 7 ]; then traced=--traced; else traced=; fi; \
		$(PYTHON) layerbench/rep.py $$workload --seed $$seed --jobs 1 --tmp pins-check \
			$$traced > pins-check/$$workload-$$seed.json || exit 1; \
	done; done
	$(PYTHON) layerbench/rep.py coverage_x4 --seed 7 --jobs 2 --tmp pins-check \
		--traced > pins-check/coverage_x4-7.json
	$(PYTHON) -c "import json; pins = json.load(open('layerbench/pinned.json')); \
	runs = [(w, s) for w in ('campaign', 'coverage') for s in (7, 11)] + [('coverage_x4', 7)]; \
	reps = [json.loads(open(f'pins-check/{w}-{s}.json').read().splitlines()[-1]) \
	        for w, s in runs]; \
	bad = [(r['workload'], r['seed'], r['problems']) for r in reps \
	       if r['digest'] != pins[r['workload']][str(r['seed'])] or r['problems'] \
	       or r['traced'] != (r['seed'] == 7)]; \
	print('\\n'.join('%s %s %s traced=%s' % (r['workload'], r['seed'], r['digest'], r['traced']) for r in reps)); \
	raise SystemExit(f'pins-check failed: {bad}' if bad else 0)"
	@echo "pins-check ok: campaign, coverage and coverage_x4 digests match layerbench/pinned.json"

clean-cache:
	$(PYTHON) -c "from repro.util import artifact_cache; print(artifact_cache.clear(), 'artifacts removed')"
