"""Batch-oriented fast simulation tier (``--engine fast``).

The scalar engine processes one request at a time through a stack of
small Python calls (scheme -> walk -> cache -> channel).  This package
provides the *fast* tier selected via ``SoCConfig.sim_engine``:

* :mod:`repro.engine_fast.tables` flattens per-request Python objects
  into arena-style numpy arrays and vectorizes the tree-level/span/base
  resolution of :meth:`repro.tree.geometry.TreeGeometry.level_tables`
  and the Eq. 1 compacted-MAC offset math of
  :mod:`repro.core.addressing` over whole request windows;
* :mod:`repro.engine_fast.core` replays those arenas through one fused
  interpreter loop that mutates the *same* scheme/cache/channel state
  objects as the scalar engine, preserving every float operation in
  scalar order, and falls back to the scalar helpers at barrier events
  (granularity-switch commits, tracker evictions, region-buffer
  eviction settlements, shared-counter admission scans) that the
  vector path does not model.  Every scheme of the registry (all 13
  of Table 5) has a fast path.

Observable behavior is bit-for-bit identical to the scalar engine:
``RunResult.to_dict()`` payloads, metrics snapshots, golden-corpus
digests and bench ``sim`` sections match byte for byte.  The parity
suites (``tests/integration/test_engine_parity.py``,
``tests/property/test_prop_engine_parity.py``) and the differential
oracle (``python -m repro check --engine fast``) enforce that claim.

numpy is an *optional* extra (``pip install .[fast]``); the default
runtime stays pure-stdlib.  A requested fast engine degrades to scalar
in three cases, recorded as ``RunResult.engine_fallback``:
``numpy_missing`` (numpy absent or the ``REPRO_FORCE_NO_NUMPY``
environment variable set; also warned with a :class:`RuntimeWarning`),
``banked_channel`` and ``tracing``.
"""

from __future__ import annotations

import os
import warnings
from typing import Optional

#: Environment toggle simulating a numpy-less install (tests, CI's
#: no-numpy matrix leg).  Any non-empty value other than "0" disables
#: numpy even when it is importable.
FORCE_NO_NUMPY_ENV = "REPRO_FORCE_NO_NUMPY"

_numpy = None
_numpy_import_attempted = False


def _force_disabled() -> bool:
    return os.environ.get(FORCE_NO_NUMPY_ENV, "").strip() not in ("", "0")


def numpy_or_none():
    """The numpy module, or None when unavailable/force-disabled.

    The import is attempted once per process; the environment override
    is consulted on every call so tests can flip it dynamically.
    """
    global _numpy, _numpy_import_attempted
    if _force_disabled():
        return None
    if not _numpy_import_attempted:
        _numpy_import_attempted = True
        try:  # pragma: no cover - depends on the installed extras
            import numpy  # noqa: PLC0415 - optional dependency probe

            _numpy = numpy
        except ImportError:  # pragma: no cover - numpy-less installs
            _numpy = None
    return _numpy


def numpy_available() -> bool:
    return numpy_or_none() is not None


def numpy_version() -> Optional[str]:
    """numpy's version string, or None (the bench ``platform`` field)."""
    np = numpy_or_none()
    return getattr(np, "__version__", None) if np is not None else None


def fast_engine_available() -> bool:
    """Whether ``sim_engine="fast"`` can do anything at all here."""
    return numpy_available()


def warn_scalar_fallback(reason: str) -> None:
    """Emit the degradation warning for a requested-but-unavailable fast tier."""
    warnings.warn(
        f"fast engine unavailable ({reason}); falling back to the scalar "
        "engine (results are identical, only slower)",
        RuntimeWarning,
        stacklevel=3,
    )
