"""The verdicts of tools/bench_pairs.py: summarise and failed_share, and
how a failed run reaches them: run_side and main's exit code. Also the
export of the working tree that the change side runs from.

Each benchmark comparison between a parent commit and a change rests on
these functions, so their rules are pinned here on hand-made pairs.
"""

import importlib
import json
import subprocess
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"

HIGHER = {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
LOWER = {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}

# Inclusive quartiles of these ten runs: q1 = 99.25, median 100, q3 = 100.75.
PARENT = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]


@pytest.fixture
def bench_pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    return importlib.import_module("bench_pairs")


def side(metrics, attempted=10, failed=0):
    return {"metrics": {name: {"value": value} for name, value in metrics.items()},
            "attempted": attempted, "failed": failed}


def pairs_of(metric, parent, change):
    """One pair per (parent, change) value of metric."""
    return [{"parent": side({metric["name"]: p}), "change": side({metric["name"]: c})}
            for p, c in zip(parent, change)]


def verdict(bench_pairs, metric, parent, change):
    return bench_pairs.summarise(pairs_of(metric, parent, change), [metric])[metric["name"]]


class TestGainShown:
    def test_every_pair_won_by_more_than_the_spread(self, bench_pairs):
        s = verdict(bench_pairs, HIGHER, PARENT, [p + 2 for p in PARENT])
        assert s["change_better_pairs"] == 10
        assert s["parent"] == {"median": 100, "q1": 99.25, "q3": 100.75, "n": 10}
        assert s["gain_shown"] is True

    @pytest.mark.parametrize("lost, shown", [(1, True), (2, False)], ids=["9-of-10", "8-of-10"])
    def test_needs_nine_pairs_of_ten(self, bench_pairs, lost, shown):
        change = [p - 1 if k < lost else p + 10 for k, p in enumerate(PARENT)]
        s = verdict(bench_pairs, HIGHER, PARENT, change)
        assert s["change_better_pairs"] == 10 - lost
        assert s["gain_shown"] is shown

    def test_median_gain_within_the_spread_is_no_gain(self, bench_pairs):
        # Every pair won, but by 1, under the parent's q3 - q1 of 1.5.
        s = verdict(bench_pairs, HIGHER, PARENT, [p + 1 for p in PARENT])
        assert s["change_better_pairs"] == 10
        assert s["gain_shown"] is False

    def test_lower_is_better_gains_by_falling(self, bench_pairs):
        s = verdict(bench_pairs, LOWER, PARENT, [p - 2 for p in PARENT])
        assert s["change_better_pairs"] == 10
        assert s["gain_shown"] is True
        assert verdict(bench_pairs, LOWER, PARENT, [p + 2 for p in PARENT])["gain_shown"] is False


class TestWorseBeyondBound:
    @pytest.mark.parametrize("metric, parent, at_bound, past_bound", [
        (HIGHER, 100.0, 75.0, 74.9),
        (LOWER, 1.0, 1.25, 1.26),
    ], ids=["higher-is-better", "lower-is-better"])
    def test_at_and_just_past_the_bound(self, bench_pairs, metric, parent, at_bound, past_bound):
        assert verdict(bench_pairs, metric, [parent] * 4, [at_bound] * 4)["worse_beyond_bound"] is False
        assert verdict(bench_pairs, metric, [parent] * 4, [past_bound] * 4)["worse_beyond_bound"] is True

    def test_a_gain_is_never_worse(self, bench_pairs):
        assert verdict(bench_pairs, HIGHER, [100.0] * 4, [200.0] * 4)["worse_beyond_bound"] is False
        assert verdict(bench_pairs, LOWER, [1.0] * 4, [0.5] * 4)["worse_beyond_bound"] is False


class TestUnresolved:
    # Inclusive quartiles 85 and 115: a spread of 30, past the bound of 0.25 x 100.
    WIDE = [40, 100, 160, 100]

    def test_parent_spread_past_the_bound(self, bench_pairs):
        assert verdict(bench_pairs, HIGHER, self.WIDE, [100] * 4)["unresolved"] is True

    def test_parent_spread_within_the_bound(self, bench_pairs):
        assert verdict(bench_pairs, HIGHER, PARENT, [100] * 10)["unresolved"] is False

    @pytest.mark.parametrize("metric, beats_all, beats_most", [
        (HIGHER, [161] * 4, [161, 161, 161, 159]),
        (LOWER, [39] * 4, [39, 39, 39, 41]),
    ], ids=["higher-is-better", "lower-is-better"])
    def test_resolved_when_every_change_run_beats_every_parent_run(self, bench_pairs, metric, beats_all, beats_most):
        assert verdict(bench_pairs, metric, self.WIDE, beats_all)["unresolved"] is False
        assert verdict(bench_pairs, metric, self.WIDE, beats_most)["unresolved"] is True


@pytest.mark.parametrize("change, worse, shown", [([0.0] * 4, False, False), ([2.0] * 4, False, True)],
                         ids=["still-zero", "rose"])
def test_parent_median_of_zero_has_no_ratio(bench_pairs, change, worse, shown):
    # A workload whose units complete nothing on the parent: no ratio to report, same verdicts.
    s = verdict(bench_pairs, HIGHER, [0.0] * 4, change)
    assert s["change_over_parent_median"] is None
    assert (s["worse_beyond_bound"], s["gain_shown"], s["unresolved"]) == (worse, shown, False)
    assert verdict(bench_pairs, LOWER, [0.0] * 4, [0.0] * 4)["change_over_parent_median"] is None


def test_metric_in_fewer_than_two_pairs_is_skipped(bench_pairs):
    pairs = pairs_of(HIGHER, [100, 100, 100], [110, 110, 110])
    for pair in pairs[1:]:
        del pair["change"]["metrics"]["ops_per_s"]
    pairs[0]["parent"]["metrics"]["setup_s"] = {"value": 1.0}
    pairs[0]["change"]["metrics"]["setup_s"] = {"value": 1.0}
    assert bench_pairs.summarise(pairs, [HIGHER, LOWER]) == {}
    assert set(bench_pairs.summarise(pairs_of(HIGHER, [100, 100], [110, 110]), [HIGHER])) == {"ops_per_s"}


def test_failed_share_pools_operations_over_runs(bench_pairs):
    # 3 of 40 operations, not the mean (0.1 + 1/15) / 2 of each run's share.
    pairs = [{"parent": side({}, attempted=10, failed=1), "change": side({}, attempted=10, failed=0)},
             {"parent": side({}, attempted=30, failed=2), "change": side({}, attempted=30, failed=0)}]
    assert bench_pairs.failed_share(pairs, "parent") == pytest.approx(3 / 40)
    assert bench_pairs.failed_share(pairs, "change") == 0.0


def test_failed_share_of_no_operations_is_zero(bench_pairs):
    pairs = [{"parent": side({}, attempted=0, failed=0), "change": side({}, attempted=0, failed=0)}]
    assert bench_pairs.failed_share(pairs, "parent") == 0.0


@pytest.mark.parametrize("stdout", ["", "Traceback: not a result\n"], ids=["silent", "junk"])
def test_run_side_counts_a_run_without_a_result_line_as_failed_checks(bench_pairs, tmp_path, capsys, stdout):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        f"import sys\nsys.stdout.write({stdout!r})\nprint('run.py gave up', file=sys.stderr)\nsys.exit(1)\n")
    result = bench_pairs.run_side(tmp_path, "eval_llm", seed=0, seconds=0.1)
    assert result["correct"] is False
    assert result["exit_code"] == 1
    assert (result["attempted"], result["failed"], result["metrics"]) == (0, 0, {})
    assert "run.py gave up" in capsys.readouterr().err


@pytest.mark.parametrize("failing_run, code", [(None, 0), (3, 1)], ids=["all-passed", "one-failed"])
def test_main_exits_1_when_any_run_failed_its_checks(bench_pairs, tmp_path, monkeypatch, failing_run, code):
    # No git and no perfbench: the parent export, the runs and the commit ids are stand-ins.
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 1, "end_to_end": [HIGHER]}))
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "git", lambda *args, **kwargs: "0" * 40)
    monkeypatch.setattr(bench_pairs, "working_tree_id", lambda scratch: "1" * 40)
    monkeypatch.setattr(bench_pairs, "export", lambda commit, into: into / commit)
    runs = []

    def run_side(tree, workload, seed, seconds):
        runs.append((tree, workload, seed, seconds))
        return {"correct": len(runs) != failing_run, "attempted": 10, "failed": 0,
                "metrics": {"ops_per_s": {"value": 100.0}}}

    monkeypatch.setattr(bench_pairs, "run_side", run_side)
    assert bench_pairs.main(["--workload", "w", "--parent", "p", "--pairs", "2"]) == code
    assert len(runs) == 4
    # Parent and change each run from their own export: of the commit, and of the working tree's id.
    assert sorted(tree.name for tree, *_ in runs) == ["0" * 40] * 2 + ["1" * 40] * 2
    doc = json.loads((tmp_path / "BENCH_w.json").read_text())
    assert doc["all_checks_passed"] is (failing_run is None)


def test_change_side_exports_the_whole_working_tree(bench_pairs, tmp_path, monkeypatch):
    # Uncommitted edits and untracked files are exported, ignored files are not,
    # and the checkout's own index stays as it was.
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    (repo / ".gitignore").write_text("out/\n")
    (repo / "src" / "tracked.py").write_text("old\n")
    subprocess.run(["git", "-C", str(repo), "add", "-A"], check=True)
    (repo / "src" / "tracked.py").write_text("edited\n")
    (repo / "src" / "untracked.py").write_text("new\n")
    (repo / "out").mkdir()
    (repo / "out" / "trace.jsonl").write_text("{}\n")
    index_before = (repo / ".git" / "index").read_bytes()
    monkeypatch.setattr(bench_pairs, "ROOT", repo)

    scratch = tmp_path / "scratch"
    scratch.mkdir()
    tree_id = bench_pairs.working_tree_id(scratch)
    exported = bench_pairs.export(tree_id, scratch)

    assert exported == scratch / tree_id
    assert sorted(str(p.relative_to(exported)) for p in exported.rglob("*") if p.is_file()) == [
        ".gitignore", "src/tracked.py", "src/untracked.py"]
    assert (exported / "src" / "tracked.py").read_text() == "edited\n"
    assert (repo / ".git" / "index").read_bytes() == index_before
