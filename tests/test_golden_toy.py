"""Golden run: the toy experiment reproduces the committed runs/toy/ byte for byte.

A refactor that keeps behaviour passes this unchanged.  A deliberate change
of behaviour regenerates runs/toy/ (pipeline, correlate and heatmap on
configs/toy.yaml into an empty directory) in the same commit and says so.
"""

import shutil
import warnings
from pathlib import Path

import pytest

from mfvuln import pipeline
from mfvuln.cli import main
from mfvuln.pipeline import ResultsLedger

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "toy.yaml"
FIXTURE = ROOT / "runs" / "toy"
COMMANDS = ("pipeline", "correlate", "heatmap")


def run_toy(out, commands=COMMANDS):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for command in commands:
            assert main([command, "--config", str(CONFIG), "--out", str(out)]) == 0


def correlate_rows(out):
    return [r for r in ResultsLedger(str(out / "ledger.csv")).rows()
            if r["stage"] == "correlate"]


def finished_copy(tmp_path):
    out = tmp_path / "toy"
    shutil.copytree(FIXTURE, out)
    [row] = correlate_rows(out)
    line = f"seed 0 pearson r = {float(row['value']):.6f} ({out / 'correlation_s0.csv'})\n"
    return out, line


def assert_matches_fixture(out):
    want = sorted(p.name for p in FIXTURE.iterdir())
    assert len(want) == 24
    assert sorted(p.name for p in out.iterdir()) == want
    differ = [name for name in want
              if (out / name).read_bytes() != (FIXTURE / name).read_bytes()]
    assert differ == []


def test_toy_run_reproduces_committed_fixture(tmp_path):
    out = tmp_path / "toy"
    run_toy(out)
    assert_matches_fixture(out)


@pytest.mark.parametrize("target, call", [("fit_robust_value", 1), ("select_rl", 1),
                                          ("train_adversary", 3)])
def test_interrupted_run_resumes_to_the_fixture(tmp_path, monkeypatch, target, call):
    """A run killed inside a stage and rerun ends with the uninterrupted files."""
    real, calls = getattr(pipeline, target), []

    def interrupt(*args, **kwargs):
        calls.append(None)
        if len(calls) == call:
            raise KeyboardInterrupt
        return real(*args, **kwargs)

    out = tmp_path / "toy"
    with monkeypatch.context() as m:
        m.setattr(pipeline, target, interrupt)
        with pytest.raises(KeyboardInterrupt):
            run_toy(out, ["pipeline"])
    run_toy(out)
    assert_matches_fixture(out)


def test_correlate_rerun_trains_and_writes_nothing(tmp_path, monkeypatch, capsys):
    out, line = finished_copy(tmp_path)

    def no_training(*args, **kwargs):
        raise AssertionError("a finished correlation was trained again")

    monkeypatch.setattr("mfvuln.pipeline.train_adversaries", no_training)
    run_toy(out, ["correlate"])
    assert capsys.readouterr().out == line
    for name in ("ledger.csv", "correlation_s0.csv"):
        assert (out / name).read_bytes() == (FIXTURE / name).read_bytes()


def test_correlate_trains_through_the_patched_trainer(tmp_path, monkeypatch):
    """The patch above guards something: an unfinished correlation calls it."""
    out, _ = finished_copy(tmp_path)
    (out / "correlation_s0.csv").unlink()
    calls = []

    def no_training(*args, **kwargs):
        calls.append(None)
        raise AssertionError("trained")

    monkeypatch.setattr("mfvuln.pipeline.train_adversaries", no_training)
    with pytest.raises(AssertionError, match="trained"):
        run_toy(out, ["correlate"])
    assert len(calls) == 1


def test_attack_stage_trains_only_missing_adversaries_in_one_batch(tmp_path, monkeypatch):
    out, _ = finished_copy(tmp_path)
    for method in ("dc", "rl"):
        for suffix in ("", ".q"):
            (out / f"adversary_{method}_s0.policy{suffix}").unlink()
    real, batches = pipeline.train_adversaries, []

    def record(env, victim, budgets, cfg, seeds):
        batches.append(len(budgets))
        return real(env, victim, budgets, cfg, seeds)

    monkeypatch.setattr(pipeline, "train_adversaries", record)
    run_toy(out, ["pipeline"])
    assert batches == [2]
    assert_matches_fixture(out)


def test_correlate_rebuilds_a_missing_csv_once(tmp_path, capsys):
    out, line = finished_copy(tmp_path)
    (out / "correlation_s0.csv").unlink()
    run_toy(out, ["correlate"])
    assert capsys.readouterr().out == line
    assert (out / "correlation_s0.csv").read_bytes() \
        == (FIXTURE / "correlation_s0.csv").read_bytes()
    assert len(correlate_rows(out)) == 1
    assert (out / "ledger.csv").read_bytes() == (FIXTURE / "ledger.csv").read_bytes()
