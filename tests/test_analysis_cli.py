"""Tests for the analysis CLI (python -m repro.analysis) and trace files."""

import json

import pytest

from repro.analysis.__main__ import main
from repro.analysis.tracefile import dump_trace, load_trace
from repro.platform.timeline import Span, Timeline
from repro.util.errors import ValidationError


def write_trace(tmp_path, name, spans, total_ms=None):
    doc = {
        "spans": [
            {
                "resource": r,
                "label": l,
                "start_ms": s,
                "duration_ms": d,
            }
            for r, l, s, d in spans
        ]
    }
    if total_ms is not None:
        doc["total_ms"] = total_ms
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestLintCommand:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "ok.py"
        path.write_text("x_ms = 1.0\n")
        assert main(["lint", str(path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_violation_exits_nonzero_with_code(self, tmp_path, capsys):
        pkg = tmp_path / "repro" / "platform"
        pkg.mkdir(parents=True)
        path = pkg / "bad.py"
        path.write_text("import time\ndef f():\n    return time.time()\n")
        assert main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        assert "SIM001" in out and "bad.py:3" in out

    def test_json_format(self, tmp_path, capsys):
        path = tmp_path / "bad.py"
        path.write_text("def f(xs=[]):\n    return xs\n")
        assert main(["lint", "--format", "json", str(path)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["count"] == 1
        finding = doc["findings"][0]
        assert finding["code"] == "ARG001"
        assert finding["line"] == 1
        assert finding["path"] == str(path)

    def test_select_and_ignore(self, tmp_path, capsys):
        pkg = tmp_path / "repro" / "core"
        pkg.mkdir(parents=True)
        path = pkg / "bad.py"
        path.write_text("def f(x, xs=[]):\n    return x == 1.0\n")
        assert main(["lint", "--select", "ARG001", str(path)]) == 1
        assert "FLT001" not in capsys.readouterr().out
        assert main(["lint", "--ignore", "ARG001,FLT001", str(path)]) == 0

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["lint", "/nonexistent/nowhere.py"]) == 2
        assert "error" in capsys.readouterr().err


class TestCheckTraceCommand:
    def test_clean_trace_exits_zero(self, tmp_path, capsys):
        path = write_trace(
            tmp_path,
            "ok.json",
            [("cpu", "a", 0.0, 2.0), ("gpu", "b", 0.0, 5.0)],
            total_ms=5.0,
        )
        assert main(["check-trace", str(path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_overlap_and_pcie_hazards_flagged(self, tmp_path, capsys):
        path = write_trace(
            tmp_path,
            "bad.json",
            [
                ("pcie", "phase2/h2d-operands", 0.0, 2.0),
                ("gpu", "phase2/work-a", 1.0, 4.0),
                ("gpu", "phase2/work-b", 3.0, 4.0),
            ],
        )
        assert main(["check-trace", str(path)]) == 1
        out = capsys.readouterr().out
        assert "HZD001" in out and "HZD004" in out

    def test_negative_duration_flagged_json(self, tmp_path, capsys):
        path = write_trace(tmp_path, "neg.json", [("cpu", "a", 0.0, -1.0)])
        assert main(["check-trace", "--format", "json", str(path)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert [f["code"] for f in doc["findings"]] == ["HZD003"]
        assert doc["findings"][0]["path"] == str(path)

    def test_multiple_traces_aggregate(self, tmp_path, capsys):
        good = write_trace(tmp_path, "good.json", [("cpu", "a", 0.0, 1.0)])
        bad = write_trace(
            tmp_path, "bad.json", [("cpu", "x", 0.0, 2.0), ("cpu", "y", 1.0, 2.0)]
        )
        assert main(["check-trace", str(good), str(bad)]) == 1
        out = capsys.readouterr().out
        assert "bad.json" in out and "good.json" not in out

    def test_malformed_json_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["check-trace", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_span_keys_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"spans": [{"resource": "cpu"}]}))
        assert main(["check-trace", str(path)]) == 2


class TestRulesCommand:
    def test_prints_catalog(self, capsys):
        assert main(["rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RNG001", "SIM001", "FLT001", "HZD001", "HZD004"):
            assert code in out


class TestExampleTraces:
    """Timelines shaped like the example scripts' pass check-trace end to end."""

    def test_cc_example_trace_clean(self, tmp_path, capsys):
        from repro import CcProblem, load_dataset, paper_testbed

        scale = 1 / 64
        machine = paper_testbed(time_scale=scale)
        graph = load_dataset("netherlands_osm", scale=scale).as_graph()
        result = CcProblem(graph, machine).run(90.0)
        path = dump_trace(result.timeline, tmp_path / "cc.json")
        assert main(["check-trace", str(path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_multiway_example_trace_clean(self, tmp_path, capsys):
        from repro import ClusterSpec, load_dataset, paper_testbed
        from repro.hetero import MultiwayCcProblem

        scale = 1 / 64
        machine = paper_testbed(time_scale=scale)
        graph = load_dataset("italy_osm", scale=scale).as_graph()
        problem = MultiwayCcProblem(graph, ClusterSpec.from_machine(machine, n_gpus=2))
        result = problem.run(problem.naive_static_thresholds())
        path = dump_trace(result.timeline, tmp_path / "multiway.json")
        assert main(["check-trace", str(path)]) == 0


class TestTraceFileRoundTrip:
    def test_dump_then_load(self, tmp_path):
        tl = Timeline()
        tl.run("cpu", "a", 2.0)
        tl.overlap([("cpu", "b", 1.0), ("gpu", "c", 3.0)])
        path = dump_trace(tl, tmp_path / "trace.json")
        spans, total_ms = load_trace(path)
        assert spans == tl.spans
        assert total_ms == tl.total_ms

    def test_plain_span_list_accepted(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text(
            json.dumps(
                [{"resource": "cpu", "label": "a", "start_ms": 0, "duration_ms": 1}]
            )
        )
        spans, total_ms = load_trace(path)
        assert spans == [Span("cpu", "a", 0.0, 1.0)]
        assert total_ms is None

    def test_bad_total_ms_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"total_ms": "soon", "spans": []}))
        with pytest.raises(ValidationError):
            load_trace(path)

    def test_non_numeric_span_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "spans": [
                        {
                            "resource": "cpu",
                            "label": "a",
                            "start_ms": "zero",
                            "duration_ms": 1,
                        }
                    ]
                }
            )
        )
        with pytest.raises(ValidationError):
            load_trace(path)
