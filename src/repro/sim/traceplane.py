"""Stub left by the retired shared-memory trace plane; nothing runs it.

Pool workers compile and expand their own groups through their local
caches (:mod:`repro.sim.parallel`).  ``perfbench/layers.py`` still
wraps ``TracePlane.acquire`` and ``TracePlane.acquire_stream`` for its
``plane`` layer, looking both up in the class ``__dict__``, and a
change that touches the measured code may not edit the benchmark, so
the names stay until a benchmark-only change drops the ``plane`` site;
this stub is deleted after it.  Nothing under ``src/`` may import it.
"""


def _removed(*_args, **_kwargs):
    raise RuntimeError(
        "the shared-memory trace plane was removed: pool workers expand "
        "their own traces")


class TracePlane:
    """The two names the benchmark's ``plane`` layer wraps; both raise."""

    acquire = _removed
    acquire_stream = _removed
