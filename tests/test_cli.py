"""Tests for the ``python -m repro`` CLI."""

import os

import pytest

from repro.__main__ import build_parser, main
from repro.config import AMD_EPYC_7V13
from repro.stencils import library
from repro.tune import Tuner


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCli:
    def test_kernels(self, capsys):
        code, out, _ = run_cli(capsys, "kernels")
        assert code == 0
        assert "heat-1d" in out and "box-3d27p" in out

    def test_machines(self, capsys):
        code, out, _ = run_cli(capsys, "machines")
        assert code == 0
        assert "amd-epyc-7v13" in out and "intel-xeon-6230r" in out

    def test_inspect(self, capsys):
        code, out, _ = run_cli(capsys, "inspect", "jigsaw", "heat-1d")
        assert code == 0
        assert "vperm2f128" in out
        assert "max live registers" in out

    def test_estimate(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "t-jigsaw", "heat-2d",
            "--size", "1000x1000", "--steps", "10",
        )
        assert code == 0
        assert "GStencil/s" in out

    def test_estimate_with_tile(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "jigsaw", "heat-2d",
            "--size", "1000x1000", "--steps", "10",
            "--tile", "200x200", "--time-depth", "4",
        )
        assert code == 0

    def test_tune_model_only(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "tune", "heat-1d", "--size", "65536", "--steps", "10",
            "--top", "3", "--model-only", "--db-dir", str(tmp_path),
        )
        assert code == 0
        assert "0 trials" in out
        header, *rows = [ln for ln in out.splitlines() if "|" in ln]
        assert [c.strip() for c in header.split("|")] == ["configuration",
                                                          "model"]
        # 65536 points is below MIN_PART_POINTS: stage 1 credits the
        # parallel rows one core, so the SIMD machine ranks first
        assert len(rows) == 3 and rows[0].startswith("machine/")
        # the search's own stage-1 order
        _, ranked = Tuner(AMD_EPYC_7V13).rank(library.get("heat-1d"),
                                              (65536,), steps=10)
        assert [r.split("|")[0].strip() for r in rows] == [
            c.label() for c, _ in ranked[:3]]
        assert os.listdir(tmp_path) == []

    def test_tune_has_no_cores_flag(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tune", "heat-1d", "--size", "64",
                                       "--model-only", "--cores", "4"])

    def test_tune_empirical_then_db_hit(self, tmp_path, capsys):
        argv = ("tune", "heat-1d", "--shape", "2048", "--steps", "2",
                "--budget-trials", "2", "--repeats", "1", "--warmup", "0",
                "--db-dir", str(tmp_path))
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert "MStencil/s" in out and "winner" in out
        assert "legal configuration" in out
        # the winner is on disk, so the rerun is a pure database hit
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert "0 empirical trials" in out

    def test_tune_requires_shape(self, capsys):
        code, _, err = run_cli(capsys, "tune", "heat-1d")
        assert code == 2
        assert "--shape" in err

    def test_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "heat-1d", "--size", "4096", "--steps", "4",
        )
        assert code == 0
        assert "MStencil/s" in out

    def test_run_baseline_scheme(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "heat-1d", "--size", "256", "--steps", "2",
            "--scheme", "reorg",
        )
        assert code == 0
        assert "scheme: reorg" in out and "machine/" in out

    def test_run_jigsaw_scheme(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "heat-1d", "--size", "4096", "--steps", "4",
            "--scheme", "t-jigsaw",
        )
        assert code == 0
        assert "fuse 2 step(s)" in out

    def test_run_tuned_without_db_entry(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "run", "heat-1d", "--size", "4096", "--tuned",
            "--db-dir", str(tmp_path),
        )
        assert code == 2
        assert "no tuned configuration" in err

    def test_run_tuned_applies_db_winner(self, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys, "tune", "heat-1d", "--shape", "2048", "--steps", "2",
            "--budget-trials", "2", "--repeats", "1", "--warmup", "0",
            "--db-dir", str(tmp_path))
        assert code == 0
        code, out, _ = run_cli(
            capsys, "run", "heat-1d", "--size", "2048", "--steps", "4",
            "--tuned", "--db-dir", str(tmp_path))
        assert code == 0
        assert "tuned:" in out

    def test_run_temporal_scheme_rounds_steps(self, capsys):
        # temporal fuses 2 steps per sweep: 5 requested -> 4 executed
        code, out, _ = run_cli(
            capsys, "run", "heat-1d", "--size", "256", "--steps", "5",
            "--scheme", "temporal",
        )
        assert code == 0
        assert "scheme: temporal" in out and "4 steps" in out

    def test_run_redundancy_scheme(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "box-2d9p", "--size", "16x32", "--steps", "2",
            "--scheme", "redundancy",
        )
        assert code == 0
        assert "scheme: redundancy" in out

    def test_tune_scheme_engine_and_bad_scheme_name(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "tune", "heat-1d", "--shape", "256", "--steps", "2",
            "--engines", "scheme", "--backend", "interp",
            "--budget-trials", "2", "--repeats", "1", "--warmup", "0",
            "--db-dir", str(tmp_path))
        assert code == 0
        assert "scheme/" in out
        code, _, err = run_cli(
            capsys, "tune", "heat-1d", "--shape", "256",
            "--schemes", "bogus", "--db-dir", str(tmp_path), "--force")
        assert code == 2
        assert "unknown scheme name" in err and "bogus" in err

    def test_run_rejects_unknown_backend(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "run", "heat-1d", "--size", "4096",
                    "--backend", "cuda")
        assert exc.value.code == 2
        _, err = capsys.readouterr()
        assert "invalid choice" in err and "interp" in err

    def test_run_rejects_unknown_scheme(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "run", "heat-1d", "--size", "4096",
                    "--scheme", "magic")
        assert exc.value.code == 2
        _, err = capsys.readouterr()
        assert "invalid choice" in err and "jigsaw" in err

    def test_inspect_rejects_unknown_scheme(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "inspect", "magic", "heat-1d")
        assert exc.value.code == 2
        _, err = capsys.readouterr()
        assert "invalid choice" in err

    def test_experiments_subset(self, capsys):
        code, out, _ = run_cli(capsys, "experiments", "table1")
        assert code == 0
        assert "vshufpd" in out

    def test_unknown_kernel_reports_error(self, capsys):
        code, _, err = run_cli(capsys, "inspect", "jigsaw", "nope")
        assert code == 2
        assert "error:" in err

    def test_unknown_machine_reports_error(self, capsys):
        code, _, err = run_cli(capsys, "inspect", "jigsaw", "heat-1d",
                               "--machine", "cray-1")
        assert code == 2

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_serve_selftest_writes_metrics(self, tmp_path, capsys):
        metrics_path = tmp_path / "serve_metrics.json"
        code, out, _ = run_cli(
            capsys, "serve", "--selftest", "12", "--size", "16x16",
            "--max-batch", "4", "--batch-window-ms", "2",
            "--metrics-json", str(metrics_path))
        assert code == 0
        assert "bitwise         all responses correct" in out
        assert "tcp probe       ok" in out
        import json
        saved = json.loads(metrics_path.read_text())
        counters = saved["metrics"]["counters"]
        assert counters["server.completed"] >= 13  # load + tcp probe
        assert counters.get("server.admission.rejected", 0) == 0
        assert any(k.startswith("server.latency_ms.tenant.")
                   for k in saved["metrics"]["histograms"])

    def test_stats_folds_saved_server_snapshot(self, tmp_path, capsys):
        import json
        snapshot = {"spans": [], "metrics": {
            "counters": {"server.completed": 7,
                         "server.admission.rejected": 2,
                         "cache.hits": 99},
            "gauges": {"server.queue_depth": 0},
            "histograms": {"server.latency_ms.tenant.t0": {
                "count": 7, "sum": 21.0, "min": 1.0, "max": 5.0,
                "mean": 3.0, "buckets": {"<=2^3": 7}}},
        }}
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(snapshot))
        code, out, _ = run_cli(capsys, "stats",
                               "--db-dir", str(tmp_path / "db"),
                               "--metrics-json", str(path))
        assert code == 0
        assert "server.completed" in out
        assert "server.latency_ms.tenant.t0" in out
        assert "cache.hits" not in out.split("server @")[1]
        code, out, _ = run_cli(capsys, "stats", "--json",
                               "--db-dir", str(tmp_path / "db"),
                               "--metrics-json", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["server"]["counters"][
            "server.admission.rejected"] == 2
        assert payload["server"]["latency_ms"][
            "server.latency_ms.tenant.t0"]["count"] == 7

    def test_stats_rejects_unreadable_snapshot(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "stats",
                               "--db-dir", str(tmp_path / "db"),
                               "--metrics-json",
                               str(tmp_path / "missing.json"))
        assert code == 2 and "cannot read metrics snapshot" in err

    def test_chaos_rejects_unknown_stage(self, capsys):
        code, _, err = run_cli(capsys, "chaos", "--stages", "nonsense",
                               "--size", "16x16", "--steps", "1")
        assert code == 2 and "stage" in err.lower()


def test_experiments_save(tmp_path, capsys):
    from repro.experiments.__main__ import main as exp_main
    code = exp_main(["table1", "--save", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    assert (tmp_path / "table1.txt").read_text().count("vshufpd") >= 1


def test_validate_defaults_cover_both_dtypes():
    from repro.validate import DEFAULT_MACHINES
    sizes = {m.element_bytes for m in DEFAULT_MACHINES}
    assert sizes == {4, 8}
