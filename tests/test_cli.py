"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_dataset_and_method(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--dataset", "hetrec-del"])

    def test_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--dataset", "netflix", "--method", "BPRMF"]
            )

    def test_rejects_unknown_method(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--dataset", "hetrec-del", "--method", "SVD++"]
            )

    def test_defaults(self):
        args = build_parser().parse_args(
            ["run", "--dataset", "hetrec-del", "--method", "BPRMF"]
        )
        assert args.scale == 0.05
        assert args.epochs == 40

    @pytest.mark.parametrize(
        "flag", [["--fused"], ["--dp-workers", "2"], ["--dp-backend", "fork"]]
    )
    def test_rejects_removed_execution_flags(self, flag):
        # Fused kernels are the only training path; there is no
        # execution-mode option left to select.
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--dataset", "hetrec-del", "--method", "BPRMF", *flag]
            )


class TestCommands:
    def test_list_prints_methods(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "L-IMCAT" in out
        assert "hetrec-del" in out
        assert "w/o UIT" in out

    def test_stats_prints_table(self, capsys):
        assert main(["stats", "--scale", "0.03"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "yelp-tag" in out

    def test_run_executes_cell(self, capsys):
        code = main([
            "run", "--dataset", "hetrec-del", "--method", "BPRMF",
            "--scale", "0.04", "--epochs", "2", "--embed-dim", "16",
            "--batch-size", "128",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "BPRMF" in out
        assert "R@20" in out


def _exported(path) -> dict:
    """``{sample name: value}`` of a Prometheus export (labelled
    histogram buckets dropped)."""
    from repro.obs import parse_prometheus

    with open(path, encoding="utf-8") as handle:
        families = parse_prometheus(handle.read())
    return {
        key[:-2]: value
        for family in families.values()
        for key, value in family["samples"].items()
        if key.endswith("{}")
    }


class TestMetricsExport:
    """``--metrics-out`` carries the phase breakdown and serve counters."""

    def test_run_exports_phase_breakdown(self, tmp_path, isolated_metrics):
        path = tmp_path / "metrics.prom"
        assert main([
            "run", "--dataset", "hetrec-del", "--method", "L-IMCAT",
            "--scale", "0.02", "--epochs", "1", "--embed-dim", "16",
            "--batch-size", "256", "--metrics-out", str(path),
        ]) == 0
        samples = _exported(path)
        for name in ("repro_trainer_forward_seconds_count",
                     "repro_trainer_cluster_refresh_seconds_count",
                     "repro_eval_score_seconds_count",
                     "repro_trainer_steps_total"):
            assert samples.get(name, 0) > 0, name
        assert (samples["repro_trainer_steps_total"]
                == samples["repro_trainer_forward_seconds_count"])

    @pytest.mark.parametrize("extra", [[], ["--retrieval"]])
    def test_serve_exports_service_counters(
        self, tmp_path, isolated_metrics, extra
    ):
        from repro.serve.__main__ import main as serve_main

        path = tmp_path / "serve.prom"
        assert serve_main([
            "--dataset", "hetrec-del", "--method", "BPRMF",
            "--scale", "0.02", "--epochs", "1", "--embed-dim", "8",
            "--batch-size", "256", "--requests", "20",
            "--metrics-out", str(path), *extra,
        ]) == 0
        samples = _exported(path)
        assert samples["repro_serve_requests_total"] == 20
        assert samples["repro_serve_request_seconds_count"] == 20
        live = samples["repro_serve_responses_live_total"]
        assert live == 20
        if extra:
            # Counted once: on the service registry, merged at export.
            assert samples["repro_serve_retrieval_served_total"] == live


    def test_pooled_serve_writes_trace(self, tmp_path):
        """``--workers N --trace-out`` exports spans like a single run."""
        from repro.serve.__main__ import main as serve_main

        path = tmp_path / "pool.jsonl"
        assert serve_main([
            "--dataset", "hetrec-del", "--method", "BPRMF",
            "--scale", "0.02", "--epochs", "1", "--embed-dim", "8",
            "--batch-size", "256", "--requests", "40", "--workers", "2",
            "--rps", "400", "--trace-out", str(path),
        ]) == 0
        assert path.exists()
        assert path.stat().st_size > 0


class TestValidation:
    def test_checkpoint_every_zero_fails_before_training(self, tmp_path):
        import os
        import subprocess
        import sys

        import repro

        ckpt = tmp_path / "ckpt"
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "run", "--dataset", "hetrec-del",
             "--method", "BPRMF", "--scale", "0.02", "--epochs", "2",
             "--batch-size", "256", "--checkpoint-dir", str(ckpt),
             "--checkpoint-every", "0"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode != 0
        assert "checkpoint_every must be >= 1" in proc.stderr
        assert "ZeroDivisionError" not in proc.stderr
        # Rejected before the loop built anything: no snapshot directory.
        assert not ckpt.exists()
