"""Deterministic random-number substreams.

One master seed fans out into independent streams keyed by replication and
purpose, and for the vehicles by lane. Every stream is a counter-based
Philox generator, which is fixed by its 128-bit key alone: distinct keys
give independent streams (Salmon et al., "Parallel Random Numbers: As Easy
as 1, 2, 3", SC'11), so no stream needs a seed hash of its own. Each
replication hashes ``numpy.random.SeedSequence(entropy=master_seed,
spawn_key=(replication,))`` once, and the words of its ``generate_state``
are the keys of the replication's streams, one 128-bit key per slot. Every
stream is reproducible in isolation: drawing more (or fewer) numbers from
one stream never shifts any other stream. That is what makes replications
order-independent and sweeps re-runnable per point.

Stream layout v3: a replication uses one stream per lane for its vehicles,
one for its VRUs, and one per draw purpose (traffic, ul, dl, tn_cn), keyed
by the replication alone, not by period: 7 streams. Each purpose stream
draws its whole block in one call, in (periods, VRUs) shape, or
(periods, VRUs, m_r) for the downlink members of clusters of m_r, so
changing ``periods`` or ``vru_count`` changes every draw of a replication.

``numpy.random`` is imported on the first ``stream`` call, not with the
package: the CLI's start-up does not pay for it.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .scenario import LANES

# Stable key slots of a replication; the slot picks the stream's key, so
# renaming a purpose string is free but renumbering breaks reproducibility.
# The vehicles of lane l use slot _VEHICLE_SLOT + l.
_PURPOSE_SLOTS = {"vrus": 0, "traffic": 1, "ul": 2, "dl": 3, "tn_cn": 4}
_VEHICLE_SLOT = 5
# Keys hashed per replication: the purposes above and one per lane.
_SLOTS = _VEHICLE_SLOT + LANES
# Every stream starts at counter 0; given as an array, Philox copies it
# instead of converting the integer 0 word by word.
_ZERO_COUNTER = np.zeros(4, dtype=np.uint64)


def _slot(purpose: str, indices: tuple) -> int:
    if purpose == "vehicles" and len(indices) == 1 and 0 <= int(indices[0]) < LANES:
        return _VEHICLE_SLOT + int(indices[0])
    if purpose in _PURPOSE_SLOTS and not indices:
        return _PURPOSE_SLOTS[purpose]
    raise ValueError(f"no stream for purpose {purpose!r} with indices {indices}")


@cache
def _philox_key_type():
    """A seed sequence that hands Philox one fixed 128-bit key, built on first use."""
    from numpy.random.bit_generator import ISeedSequence

    class PhiloxKey(ISeedSequence):
        def __init__(self, key: np.ndarray):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            return self.key  # Philox asks for its key as two 64-bit words

    return PhiloxKey


class SubstreamFactory:
    """Spawns independent generators from one 64-bit master seed."""

    def __init__(self, master_seed: int):
        self.master_seed = int(master_seed)
        self._keys: dict[int, np.ndarray] = {}  # replication -> (slots, 2) uint64 keys

    def stream(self, purpose: str, replication: int, *indices: int) -> np.random.Generator:
        slot = _slot(purpose, indices)
        keys = self._keys.get(replication)
        if keys is None:
            seq = np.random.SeedSequence(entropy=self.master_seed, spawn_key=(int(replication),))
            keys = seq.generate_state(2 * _SLOTS, np.uint64).reshape(-1, 2)
            self._keys[replication] = keys
        key = _philox_key_type()(keys[slot])
        return np.random.Generator(np.random.Philox(key, counter=_ZERO_COUNTER))
