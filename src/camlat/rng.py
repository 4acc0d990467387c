"""Deterministic random-number substreams.

One master seed fans out into independent streams keyed by purpose and
index tuple. Keys are hashed through ``numpy.random.SeedSequence`` into a
counter-based Philox generator, so every stream is reproducible in
isolation: drawing more (or fewer) numbers from one stream never shifts any
other stream. That is what makes replications order-independent and sweeps
re-runnable per point.

A replication uses one stream per lane for its vehicles, one for its VRUs,
and one per draw purpose (traffic, ul, dl, tn_cn) keyed by the replication
alone, not by period. Each purpose stream draws its whole block in one call,
in (periods, VRUs) shape, or (periods, VRUs, m) for the downlink members, so
changing ``periods`` or ``vru_count`` changes every draw of a replication.
"""

from __future__ import annotations

import numpy as np

# Stable purpose ids; the integer enters the stream key, so renaming a
# purpose string is free but renumbering breaks reproducibility. Keys are
# (purpose,) + indices: (vehicles, replication, lane), (vrus, replication),
# and (traffic | ul | dl | tn_cn, replication), one stream per (purpose,
# replication) whose draws fill the (P, U[, m]) block in row-major order.
_PURPOSE_IDS = {
    "vehicles": 0,
    "vrus": 1,
    "traffic": 2,
    "ul": 3,
    "dl": 4,
    "tn_cn": 5,
}


class SubstreamFactory:
    """Spawns independent generators from one 64-bit master seed."""

    def __init__(self, master_seed: int):
        self.master_seed = int(master_seed)

    def stream(self, purpose: str, *indices: int) -> np.random.Generator:
        key = (_PURPOSE_IDS[purpose],) + tuple(int(i) for i in indices)
        seq = np.random.SeedSequence(entropy=self.master_seed, spawn_key=key)
        return np.random.Generator(np.random.Philox(seq))
