"""Substream keys: distinct per purpose, lane and replication, reproducible in isolation."""

import subprocess
import sys

import numpy as np
import pytest

from camlat.rng import SubstreamFactory

KEYS = [("vrus",), ("traffic",), ("ul",), ("dl",), ("tn_cn",), ("vehicles", 0), ("vehicles", 1)]


def _draws(streams, purpose, replication, *indices):
    return streams.stream(purpose, replication, *indices).random(8)


def test_purposes_lanes_and_replications_draw_differently():
    streams = SubstreamFactory(1729)
    draws = [_draws(streams, key[0], rep, *key[1:]) for rep in (0, 1) for key in KEYS]
    assert len({d.tobytes() for d in draws}) == len(draws)
    assert not np.array_equal(_draws(streams, "ul", 0), _draws(SubstreamFactory(1730), "ul", 0))


def test_stream_is_philox_keyed_by_the_replication_hash():
    # slot s of replication r is the Philox generator keyed by words 2s and
    # 2s + 1 of SeedSequence(entropy=master_seed, spawn_key=(r,))
    words = np.random.SeedSequence(entropy=1729, spawn_key=(4,)).generate_state(14, np.uint64)
    for (purpose, *indices), slot in [(("vrus",), 0), (("tn_cn",), 4), (("vehicles", 1), 6)]:
        philox = np.random.Philox(key=words[2 * slot : 2 * slot + 2])
        expected = np.random.Generator(philox).random(8)
        assert np.array_equal(_draws(SubstreamFactory(1729), purpose, 4, *indices), expected)


def test_stream_depends_only_on_its_key():
    # a stream is the same whether or not other streams, replications or
    # lanes were asked for first
    fresh = _draws(SubstreamFactory(7), "dl", 3)
    busy = SubstreamFactory(7)
    for rep in (5, 3, 0):
        _draws(busy, "traffic", rep)
    _draws(busy, "vehicles", 3, 1)
    assert np.array_equal(_draws(busy, "dl", 3), fresh)
    assert np.array_equal(_draws(busy, "dl", 3), fresh)


@pytest.mark.parametrize(
    "purpose, indices",
    [("fading", ()), ("ul", (0,)), ("vehicles", ()), ("vehicles", (0, 1)), ("vehicles", (-1,)),
     ("vehicles", (2,)), ("vehicles", (0.5,)), ("vehicles", (1.9,))],
)
def test_unknown_purpose_or_indices_raise(purpose, indices):
    with pytest.raises(ValueError, match="no stream"):
        SubstreamFactory(1).stream(purpose, 0, *indices)


@pytest.mark.parametrize(
    "first, variables, threads",
    [("", {}, "1"), ("", {"OMP_NUM_THREADS": "2"}, "2"), ("import numpy\n", {}, "")],
    ids=["no-blas-variable", "caller-sets-omp", "numpy-imported-first"],
)
def test_cli_import_defers_numpy_random_and_blas_threads(
    tmp_path, src_env, first, variables, threads
):
    # numpy.random is loaded by the first stream, the pool modules by the first
    # pool and json by the first config file, not by importing the package.
    # The import leaves os.environ as it was. It loads numpy's OpenBLAS with one
    # thread, unless the caller set a BLAS thread variable or imported numpy first.
    config = tmp_path / "config.json"
    config.write_text('{"scenario": {"vru_count": 12}}', encoding="utf-8")
    blas_variables = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    env = {name: value for name, value in src_env.items() if name not in blas_variables}
    code = first + (
        "import os, sys; environ = dict(os.environ); import camlat.cli\n"
        "assert dict(os.environ) == environ, set(os.environ.items()) ^ set(environ.items())\n"
        "if sys.argv[2] and os.path.isdir('/proc/self/task'):\n"
        "    expected = min(int(sys.argv[2]), len(os.sched_getaffinity(0)))\n"
        "    assert len(os.listdir('/proc/self/task')) == expected, os.listdir('/proc/self/task')\n"
        "deferred = ('numpy.random', 'concurrent.futures', 'multiprocessing', 'json')\n"
        "loaded = [name for name in deferred if name in sys.modules]; assert not loaded, loaded\n"
        "from camlat.rng import SubstreamFactory; SubstreamFactory(0).stream('ul', 0)\n"
        "assert 'numpy.random' in sys.modules\n"
        "from camlat import engine\n"
        "with engine.pool(2): pass\n"
        "assert 'concurrent.futures' in sys.modules and 'multiprocessing' in sys.modules\n"
        "assert 'json' not in sys.modules\n"
        "from camlat.config import load_config; load_config(sys.argv[1])\n"
        "assert 'json' in sys.modules\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(config), threads],
        env={**env, **variables},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
