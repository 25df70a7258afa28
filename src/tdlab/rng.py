"""Reproducible random streams for parallel trajectory ensembles.

Each trajectory owns an independent counter-based generator derived from
``(master_seed, trajectory_index)``.  Streams never depend on execution
order, so ensembles can be simulated serially, in batches, or across
worker processes with identical results.

Draw protocol used by the simulation engine: one uniform for the
initial state (consumed even when the initial state is fixed, to keep
stream alignment policy-independent), then one uniform per transition.
The engine draws a trajectory's uniforms in one call per lockstep window;
consecutive ``Generator.random`` calls continue a stream exactly where the
last one stopped, so the window-wise draws equal one long draw bit for bit.
"""

from __future__ import annotations

import numpy as np


def stream(master_seed: int, index: int = 0) -> np.random.Generator:
    """Return the generator owned by trajectory ``index`` under ``master_seed``."""
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))
    return np.random.Generator(np.random.Philox(seq))
