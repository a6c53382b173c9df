import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def perf_pairs():
    spec = importlib.util.spec_from_file_location("perf_pairs", ROOT / "scripts" / "perf_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def checkout(path: Path) -> Path:
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text("")
    (path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "wall_s", "better": "lower", "bound": 0.25},
        {"name": "samples_per_s", "better": "higher", "bound": 0.25},
    ]}))
    return path


def result(wall, rate):
    return {"correct": True, "attempted": 3, "failed": 0, "metrics": {
        "wall_s": {"value": wall, "unit": "s"}, "samples_per_s": {"value": rate, "unit": "1/s"}}}


def test_pairs_alternate_and_are_compared(perf_pairs, tmp_path, monkeypatch, capsys):
    base, new = checkout(tmp_path / "base"), checkout(tmp_path / "new")
    order = []
    # the new side is faster in every pair but the third; its rate is lower
    # throughout, by more than the bound
    walls = {"base": iter([1.0, 1.1, 0.9, 1.2]), "new": iter([0.8, 0.9, 1.0, 0.7])}

    def fake_run(path, args):
        side = "base" if path == base else "new"
        order.append(side)
        return result(next(walls[side]), 100.0 if side == "base" else 50.0)

    monkeypatch.setattr(perf_pairs, "run_once", fake_run)
    out = tmp_path / "pairs.json"
    assert perf_pairs.main(["--base", str(base), "--new", str(new), "--workload", "w",
                            "--seed", "1", "--pairs", "4", "--out", str(out)]) == 0
    assert order == ["base", "new", "new", "base", "base", "new", "new", "base"]
    summary = json.loads(out.read_text())["summary"]
    wall, rate = summary["wall_s"], summary["samples_per_s"]
    assert wall["new_better_in"] == 3 and wall["worse_beyond_bound"] is False
    assert wall["base"]["median"] == pytest.approx(1.05) and wall["new"]["median"] == pytest.approx(0.85)
    assert rate["new_better_in"] == 0 and rate["worse_beyond_bound"] is True
    assert "WORSE BEYOND BOUND" in capsys.readouterr().out


def test_checkout_without_perfbench_is_a_usage_error(perf_pairs, tmp_path):
    base = checkout(tmp_path / "base")
    with pytest.raises(SystemExit) as exc:
        perf_pairs.parse_args(["--base", str(base), "--new", str(tmp_path), "--workload", "w",
                               "--seed", "1"])
    assert exc.value.code == 2
