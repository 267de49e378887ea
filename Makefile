# Developer entry points.  `test` wraps the tier-1 verification command used
# by CI and the roadmap; `test-fast` is the inner-loop subset (unit tests
# only: no scenario_smoke cells, no benchmarks -- run `test-cov` alongside it
# when touching the experiments run store); `test-cov` enforces a >=80%
# line-coverage floor on src/repro/experiments via tools/check_coverage.py
# (pytest-cov when installed, a stdlib settrace collector otherwise), with
# the shard/claim/merge packs in its test list so the coverage floor spans
# the distributed-coordination code too, and enforces the same floor on
# src/repro/telemetry, src/repro/jobs, src/repro/rl and src/repro/experts via
# their test packs (the rl and experts lines put the repo root on PYTHONPATH
# because tests/test_rl_ddpg.py imports tests.test_rl_ppo);
# `shard-smoke` runs a real 2-shard matrix against one run directory and
# merges it back end-to-end, then does the same for a trained, verified
# pendulum so the train and verify claim paths go through a sharded merge; `watch-smoke` runs two telemetry-emitting
# shards, then exercises `runs watch --once` and `runs stats` against the
# shared event log; `serve-smoke` starts the job daemon, submits a matrix
# over HTTP with `repro submit --wait`, lists the jobs, watches the run,
# and shuts the daemon down;
# `scenario-smoke` runs the fast train->evaluate->verify cell for every
# registered scenario (also collected by `test` via the scenario_smoke
# pytest marker); `bench` regenerates the paper's tables/figures at the
# quick scale (see docs/performance.md for where the perf gates live);
# `train-bench` re-times the scalar-vs-vectorized training stages and
# refreshes the committed CSV; `lint` is a fast syntax gate over src,
# tests, benchmarks, examples, cellbench and tools (no third-party linter
# is vendored into the image).

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH),)

.PHONY: test test-fast test-cov shard-smoke watch-smoke serve-smoke scenario-smoke bench train-bench lint

test:
	$(PYTHON) -m pytest -x -q

test-fast:
	$(PYTHON) -m pytest -x -q -m "not scenario_smoke" tests

test-cov:
	$(PYTHON) tools/check_coverage.py --floor 80
	$(PYTHON) tools/check_coverage.py --floor 80 --target src/repro/telemetry \
		tests/test_telemetry_events.py tests/test_telemetry_emitter.py \
		tests/test_telemetry_aggregate.py
	$(PYTHON) tools/check_coverage.py --floor 80 --target src/repro/jobs \
		tests/test_jobs_messages.py tests/test_jobs_runner.py \
		tests/test_service_dedupe.py tests/test_service_faults.py
	$(PYTHON) tools/check_coverage.py --floor 80 --target src/repro/utils/profiling.py \
		tests/test_utils_profiling.py
	PYTHONPATH=.:$(PYTHONPATH) $(PYTHON) tools/check_coverage.py --floor 80 --target src/repro/rl \
		tests/test_rl_components.py tests/test_rl_ddpg.py tests/test_rl_gae_properties.py \
		tests/test_rl_policies.py tests/test_rl_ppo.py tests/test_rl_vec_env.py
	PYTHONPATH=.:$(PYTHONPATH) $(PYTHON) tools/check_coverage.py --floor 80 --target src/repro/experts \
		tests/test_experts.py tests/test_experts_mpc.py

SHARD_SMOKE_DIR ?= runs/shard-smoke
shard-smoke:
	rm -rf $(SHARD_SMOKE_DIR) $(SHARD_SMOKE_DIR)-trained
	$(PYTHON) -m repro scenarios run --scenario pendulum --scenario cartpole \
		--no-train --no-verify --samples 4 --run-dir $(SHARD_SMOKE_DIR) --shard 1/2
	$(PYTHON) -m repro scenarios run --scenario pendulum --scenario cartpole \
		--no-train --no-verify --samples 4 --run-dir $(SHARD_SMOKE_DIR) --shard 2/2
	$(PYTHON) -m repro runs merge --run-dir $(SHARD_SMOKE_DIR) --csv $(SHARD_SMOKE_DIR)/matrix.csv
	$(PYTHON) -m repro scenarios run --scenario pendulum --budget-scale 0.05 \
		--samples 4 --run-dir $(SHARD_SMOKE_DIR)-trained --shard 1/2
	$(PYTHON) -m repro scenarios run --scenario pendulum --budget-scale 0.05 \
		--samples 4 --run-dir $(SHARD_SMOKE_DIR)-trained --shard 2/2
	$(PYTHON) -m repro runs merge --run-dir $(SHARD_SMOKE_DIR)-trained \
		--csv $(SHARD_SMOKE_DIR)-trained/matrix.csv

WATCH_SMOKE_DIR ?= runs/watch-smoke
watch-smoke:
	rm -rf $(WATCH_SMOKE_DIR)
	$(PYTHON) -m repro scenarios run --scenario pendulum --scenario cartpole \
		--no-train --no-verify --samples 4 --run-dir $(WATCH_SMOKE_DIR) --shard 1/2
	$(PYTHON) -m repro scenarios run --scenario pendulum --scenario cartpole \
		--no-train --no-verify --samples 4 --run-dir $(WATCH_SMOKE_DIR) --shard 2/2
	$(PYTHON) -m repro runs watch --run-dir $(WATCH_SMOKE_DIR) --once
	$(PYTHON) -m repro runs stats --run-dir $(WATCH_SMOKE_DIR)

SERVE_SMOKE_DIR ?= runs/serve-smoke
serve-smoke:
	rm -rf $(SERVE_SMOKE_DIR)
	$(PYTHON) -m repro serve --run-dir $(SERVE_SMOKE_DIR) & \
	trap 'kill $$! 2>/dev/null' EXIT; \
	for i in $$(seq 1 50); do \
		test -f $(SERVE_SMOKE_DIR)/service/server.json && break; sleep 0.1; done; \
	test -f $(SERVE_SMOKE_DIR)/service/server.json; \
	$(PYTHON) -m repro submit matrix --set scenarios=pendulum --set samples=4 \
		--set train=false --set verify=false \
		--run-dir $(SERVE_SMOKE_DIR) --wait && \
	$(PYTHON) -m repro jobs list --run-dir $(SERVE_SMOKE_DIR) && \
	$(PYTHON) -m repro runs watch --run-dir $(SERVE_SMOKE_DIR) --once && \
	$(PYTHON) -m repro jobs shutdown --run-dir $(SERVE_SMOKE_DIR) && \
	wait $$!

scenario-smoke:
	REPRO_SCALE=quick $(PYTHON) -m pytest -q -m scenario_smoke tests

bench:
	REPRO_SCALE=$${REPRO_SCALE:-quick} $(PYTHON) -m pytest -q benchmarks

train-bench:
	REPRO_RECORD=1 $(PYTHON) -m pytest -q -s benchmarks/test_training_speed.py

lint:
	$(PYTHON) -m compileall -q src tests benchmarks examples cellbench tools
