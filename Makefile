# Development targets.  Tiers:
#   lint        tier-0: project static analysis (rules LNT001-LNT005)
#   test        tier-1: the unit/integration suite under tests/
#   bench-smoke tier-2: hot-path perf smoke gated on benchmarks/BENCH_hotpaths.json
#   bench       the full pytest benchmark suite (paper tables/figures)
#   load-smoke  scale-out gate: 4-worker sharded pool under Zipf load +
#               chaos must hold its SLOs (zero errors, p99, rung budget)
#   proc-smoke  process-isolation gate: SIGKILL/hang chaos against a
#               4-worker *subprocess* pool with supervision must end
#               with zero errors and every victim respawned; a traced
#               2-worker run must export a trace the report CLI renders

PYTHON ?= python
export PYTHONPATH := src

.PHONY: lint test bench bench-smoke bench-hotpaths baseline train-resume train-fused-smoke serve-smoke load-smoke proc-smoke obs-smoke retrieval-smoke concurrency-smoke

lint:
	$(PYTHON) -m repro.lint src tests benchmarks examples

test: lint
	$(PYTHON) -m pytest -x -q

# Concurrency gate: the whole-program lock-discipline pass
# (LNT006-LNT010) must exit 0 over src/, and the threaded test subset
# must run clean under the lockset race/deadlock sanitizer.
concurrency-smoke:
	$(PYTHON) -m repro.lint --concurrency src
	REPRO_SANITIZE=1 $(PYTHON) -m pytest -q \
		tests/testing/test_lockset.py tests/serve/test_concurrency.py \
		tests/serve/test_representation_cache.py \
		tests/obs/test_metrics.py tests/analysis

bench-smoke:
	$(PYTHON) -m repro.bench smoke

bench-hotpaths:
	$(PYTHON) -m pytest benchmarks/bench_hotpaths.py -q -s

baseline:
	$(PYTHON) -m repro.bench smoke --update-baseline

bench:
	$(PYTHON) -m pytest benchmarks -q -s

# Checkpoint/resume smoke, one leg per snapshot kind: BPRMF trains 4
# epochs with snapshots, then resumes from the newest one and extends
# to 8; L-IMCAT trains 2 epochs, then resumes and extends to 4.
train-resume:
	rm -rf .ckpt-smoke
	$(PYTHON) -m repro run --dataset hetrec-del --method BPRMF \
		--scale 0.02 --epochs 4 --batch-size 256 \
		--checkpoint-dir .ckpt-smoke/bprmf --checkpoint-every 2
	$(PYTHON) -m repro run --dataset hetrec-del --method BPRMF \
		--scale 0.02 --epochs 8 --batch-size 256 \
		--checkpoint-dir .ckpt-smoke/bprmf --resume
	$(PYTHON) -m repro run --dataset hetrec-del --method L-IMCAT \
		--scale 0.02 --epochs 2 --batch-size 256 \
		--checkpoint-dir .ckpt-smoke/limcat
	$(PYTHON) -m repro run --dataset hetrec-del --method L-IMCAT \
		--scale 0.02 --epochs 4 --batch-size 256 \
		--checkpoint-dir .ckpt-smoke/limcat --resume
	rm -rf .ckpt-smoke

# Training-at-speed smoke: the fused kernels are the only training path
# and must stay bit-identical to their eager compositions.  The
# differential harness proves the bits; the CLI run trains end to end
# on that path.  Hard wall-clock timeouts so a regression cannot hang CI.
train-fused-smoke:
	timeout 600 $(PYTHON) -m pytest -q tests/nn/test_fusion_diff.py
	timeout 120 $(PYTHON) -m repro run --dataset hetrec-del \
		--method L-IMCAT --scale 0.02 --epochs 2 --batch-size 256

# Serving smoke: train a tiny model, answer a request stream with crash
# and latency chaos injected mid-run, and fail unless every request was
# answered (degraded, never erroring) and the breaker opened + recovered.
# The second run serves through the cluster-routed retrieval tier and
# fails unless indexed answers were actually served.
serve-smoke:
	$(PYTHON) -m repro.serve --dataset hetrec-del --method BPRMF \
		--scale 0.02 --epochs 2 --batch-size 256 \
		--requests 40 --deadline-ms 50 --chaos
	$(PYTHON) -m repro.serve --dataset hetrec-del --method BPRMF \
		--scale 0.02 --epochs 2 --batch-size 256 \
		--requests 40 --deadline-ms 50 --retrieval --n-probe 2

# Scale-out load smoke: train a tiny model, fan it out over a 4-worker
# sharded pool (jump-hash routing + per-worker micro-batching), and
# drive a seeded Zipf trace through it while a worker crash and a
# scoring latency spike are armed mid-run.  Fails unless every request
# is answered (zero errors), p99 stays inside the SLO, and the
# degradation-rung budget holds; the run's operating point is written
# to a scratch BENCH file to exercise the bench-out path end to end.
load-smoke:
	$(PYTHON) -m repro.serve --dataset hetrec-del --method BPRMF \
		--scale 0.02 --epochs 2 --batch-size 256 \
		--workers 4 --rps 400 --requests 240 --chaos \
		--bench-out .load-smoke-bench.json
	rm -f .load-smoke-bench.json

# Process-isolation smoke: the SIGKILL chaos acceptance suite — a Zipf
# trace against a 4-worker pool of forked subprocesses while workers
# are SIGKILL'd and stalled mid-run.  Fails unless the run ends with
# zero errors, every victim is respawned by the supervisor (or
# circuit-disabled), and the supervision counters export cleanly.  The
# hard wall-clock timeout guards against a supervision regression
# turning into a hung CI job.
proc-smoke:
	timeout 300 $(PYTHON) -m pytest tests/serve/test_proc_load.py -q
	timeout 120 $(PYTHON) -m repro.serve --dataset hetrec-del \
		--method BPRMF --scale 0.02 --epochs 2 --batch-size 256 \
		--backend process --workers 4 --rps 400 --requests 240 --chaos
	rm -rf .proc-smoke && mkdir -p .proc-smoke
	timeout 120 $(PYTHON) -m repro.serve --dataset hetrec-del \
		--method BPRMF --scale 0.02 --epochs 1 --batch-size 256 \
		--backend process --workers 2 --rps 400 --requests 80 \
		--trace-out .proc-smoke/trace.jsonl
	$(PYTHON) -m repro.obs report .proc-smoke/trace.jsonl --depth 2
	rm -rf .proc-smoke

# Retrieval smoke: build a cluster-routed index over a small catalogue
# and assert the correctness spine — full-probe routing reproduces exact
# evaluation, recall is monotone in n_probe, cold users get candidates,
# thin shortlists escalate, and the index round-trips through a
# checkpoint directory.
retrieval-smoke:
	$(PYTHON) -m repro.retrieval smoke

# Observability smoke: run a 1-epoch traced training and a traced
# 20-request serving session, then prove the artifacts are
# machine-readable — each trace renders through the report CLI and each
# Prometheus exposition parses back.
obs-smoke:
	rm -rf .obs-smoke && mkdir -p .obs-smoke
	$(PYTHON) -m repro run --dataset hetrec-del --method BPRMF \
		--scale 0.02 --epochs 1 --batch-size 256 \
		--trace-out .obs-smoke/trace.jsonl \
		--metrics-out .obs-smoke/metrics.prom
	$(PYTHON) -m repro.obs report .obs-smoke/trace.jsonl \
		--metrics .obs-smoke/metrics.prom
	$(PYTHON) -m repro.serve --dataset hetrec-del --method BPRMF \
		--scale 0.02 --epochs 1 --batch-size 256 --requests 20 \
		--trace-out .obs-smoke/serve-trace.jsonl \
		--metrics-out .obs-smoke/serve-metrics.prom
	$(PYTHON) -m repro.obs report .obs-smoke/serve-trace.jsonl \
		--metrics .obs-smoke/serve-metrics.prom
	rm -rf .obs-smoke
