"""Stub left by the retired numpy replay lane; no simulator code uses it.

Every replayable cell now runs in the C kernels
(:mod:`repro.cpu.replay_cnative`), with the scalar replay
(:mod:`repro.cpu.replay`) as the fallback.  ``perfbench/layers.py``
imports this module by name for its ``replay.native`` layer, and a
change that claims a gain against the benchmark may not edit the
benchmark, so the name stays until a later benchmark-only change
removes that layer; this stub is deleted after it.  Nothing under
``src/`` may import it.
"""

from repro.cpu.replay_cnative import run_cnative as run_native  # noqa: F401
