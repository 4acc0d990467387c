"""The harness pieces that more than one test module uses, each defined once."""

import json
import os
from dataclasses import replace
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from camlat import engine, scenario

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def src_env():
    """The environment of a child interpreter that imports camlat from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


@pytest.fixture
def write_config(tmp_path):
    """Write a config file, a document or raw text, and return its path."""

    def write(document, name="conf.json"):
        path = tmp_path / name
        text = document if isinstance(document, str) else json.dumps(document)
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


@pytest.fixture
def build_roads(monkeypatch):
    """Give replication r the vehicles and VRUs of ``road(r)``: (x, lanes, VRU x or None)."""
    sample = scenario.sample_scenario

    def build(road):
        def built(params, streams, replication):
            x, lanes, vru_x = road(replication)
            scn = sample(params, streams, replication)
            lanes = np.asarray(lanes, dtype=np.int64)
            return replace(
                scn,
                vehicle_x=np.asarray(x, dtype=float),
                vehicle_speed=np.where(lanes == 0, 30.0, -30.0),
                vehicle_lane=lanes,
                vru_x=scn.vru_x if vru_x is None else np.asarray(vru_x, dtype=float),
            )

        monkeypatch.setattr(scenario, "sample_scenario", built)

    return build


@pytest.fixture
def evaluations(monkeypatch):
    """The replications of each ``engine.evaluate_period`` call, seen in this process only."""
    calls = []
    evaluate_period = engine.evaluate_period

    def counted(plan, vru_x, vehicle_x, lane, packets, streams, replications, *sizes):
        calls.append(len(replications))
        return evaluate_period(plan, vru_x, vehicle_x, lane, packets, streams, replications, *sizes)

    monkeypatch.setattr(engine, "evaluate_period", counted)
    return calls


def _record_pools(monkeypatch, base):
    """Open every ``engine.pool`` as a subclass of ``base`` that records its life.

    Returns the record: each pool's ``max_workers`` in ``opened``, each
    submitted task's arguments in ``tasks`` and each ``shutdown`` in
    ``shutdowns``. The CPU count is 2, which the block cap counts.
    """
    record = SimpleNamespace(opened=[], tasks=[], shutdowns=0)

    class RecordingPool(base):
        def __init__(self, max_workers):
            record.opened.append(max_workers)
            super().__init__(max_workers=max_workers)

        def submit(self, task, args):
            record.tasks.append(args)
            return super().submit(task, args)

        def shutdown(self, cancel_futures):
            record.shutdowns += 1
            super().shutdown(cancel_futures=cancel_futures)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(engine, "ProcessPoolExecutor", RecordingPool)
    return record


class _SerialPool:
    """A stand-in pool that starts no process: each task runs when its result is read."""

    def __init__(self, max_workers):
        pass

    def submit(self, task, args):
        return SimpleNamespace(result=partial(task, args))

    def shutdown(self, cancel_futures):
        pass


@pytest.fixture
def counting_pool(monkeypatch):
    """Every ``engine.pool`` is a real process pool whose life is recorded."""
    return _record_pools(monkeypatch, engine.ProcessPoolExecutor)


@pytest.fixture
def fake_pool(monkeypatch):
    """Every ``engine.pool`` is a recorded serial stand-in; no process starts."""
    return _record_pools(monkeypatch, _SerialPool)
