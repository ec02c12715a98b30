"""Arena flattening and vectorized layout math for the fast engine.

Two consumers:

* :mod:`repro.engine_fast.core` flattens each device's trace into a
  :class:`DeviceArena` -- numpy-derived flat lists of every per-request
  quantity that is a pure function of the request address (tree-walk
  node addresses per level, fine-MAC line addresses, granularity-table
  line addresses, coarse (4KB) MAC lines, subtree-root node indices,
  chunk/partition coordinates, dependency draws) so the fused loop
  never recomputes address algebra per request;
* :mod:`repro.check.differential` (``--engine fast``) verifies whole
  windows of Eq. 1 / Eq. 4 observables at once via
  :func:`mac_observables` / :func:`counter_observables`, an independent
  numpy derivation of the compacted-MAC layout (cumulative sums over
  the partition bitmap instead of the scalar address-order walk).

Everything here requires numpy; callers gate on
:func:`repro.engine_fast.numpy_or_none`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine_fast import numpy_or_none
from repro.common.constants import (
    CACHELINE_BYTES,
    GRANULARITIES,
    LINES_PER_PARTITION,
    PARTITIONS_PER_CHUNK,
    TREE_ARITY,
)
from repro.core import stream_part
from repro.core.addressing import MAC_BYTES_PER_CHUNK
from repro.common.constants import MAC_BYTES
from repro.tree.geometry import TreeGeometry

_PARTS_PER_4KB = GRANULARITIES[2] // GRANULARITIES[1]


class DeviceArena:
    """Flat per-request arrays of one device's trace (plain lists).

    All fields are aligned by request index.  The numpy work happens at
    build time; the fused loop indexes plain Python lists because the
    per-element access pattern of an event-driven loop is scalar.
    """

    __slots__ = (
        "n", "gaps", "addrs", "writes", "deps",
        "walk", "fine_mac_lines", "table_lines",
        "chunks", "chunk_mac_bases", "partitions", "lines_in_partition",
        "static_mac_lines", "static_region_bases", "static_line_offsets",
        "coarse_mac_lines", "subtree_nodes",
    )

    def __init__(self) -> None:
        self.n = 0
        self.gaps: List[float] = []
        self.addrs: List[int] = []
        self.writes: List[bool] = []
        self.deps: List[bool] = []
        #: walk[level][i]: node line address of level ``level`` for
        #: request ``i`` (levels 0..root_level-1).
        self.walk: List[List[int]] = []
        self.fine_mac_lines: List[int] = []
        self.table_lines: List[int] = []
        self.chunks: List[int] = []
        self.chunk_mac_bases: List[int] = []
        self.partitions: List[int] = []
        self.lines_in_partition: List[int] = []
        self.static_mac_lines: List[int] = []
        self.static_region_bases: List[int] = []
        self.static_line_offsets: List[int] = []
        #: Adaptive's per-4KB-page MAC line (``coarse_mac_base + page*8``).
        self.coarse_mac_lines: List[int] = []
        #: Index of the subtree-root-level node covering each request.
        self.subtree_nodes: List[int] = []


def build_arena(
    entries: Sequence[Tuple[float, int, bool]],
    device_index: int,
    dependent_fraction: float,
    geometry: TreeGeometry,
    *,
    need_walk: bool = False,
    need_fine_mac: bool = False,
    need_table: bool = False,
    need_chunk_coords: bool = False,
    static_granularity: Optional[int] = None,
    static_max_granularity: Optional[int] = None,
    coarse_mac_base: Optional[int] = None,
    subtree_level: Optional[int] = None,
) -> DeviceArena:
    """Vectorize one device's per-request derived addresses."""
    np = numpy_or_none()
    assert np is not None, "build_arena requires numpy"
    arena = DeviceArena()
    arena.n = len(entries)
    if not entries:
        return arena

    ent = np.asarray(entries, dtype=np.float64)
    addrs = ent[:, 1].astype(np.int64)
    arena.gaps = ent[:, 0].tolist()
    arena.addrs = addrs.tolist()
    arena.writes = (ent[:, 2] != 0.0).tolist()

    if dependent_fraction > 0.0:
        cursors = np.arange(len(entries), dtype=np.int64)
        draws = (
            ((cursors * 2654435761 + device_index * 97) & 0xFFFF)
            .astype(np.float64) / 65536.0
        )
        arena.deps = (draws < dependent_fraction).tolist()
    else:
        arena.deps = [False] * len(entries)

    if need_walk:
        spans, _, bases = geometry.level_tables()
        arena.walk = [
            (bases[level] + (addrs // spans[level]) * CACHELINE_BYTES).tolist()
            for level in range(geometry.root_level)
        ]

    if subtree_level is not None:
        arena.subtree_nodes = (
            addrs // geometry.span_of_level(subtree_level)
        ).tolist()

    lines = addrs >> 6
    if need_fine_mac:
        arena.fine_mac_lines = (
            geometry.mac_base + ((lines >> 3) << 6)
        ).tolist()

    chunks = addrs >> 15
    if need_table:
        raw = geometry.table_base + chunks * 16
        arena.table_lines = (raw - (raw % CACHELINE_BYTES)).tolist()

    if need_chunk_coords:
        arena.chunks = chunks.tolist()
        arena.chunk_mac_bases = (
            geometry.mac_base + chunks * MAC_BYTES_PER_CHUNK
        ).tolist()
        arena.partitions = ((addrs >> 9) & 63).tolist()
        arena.lines_in_partition = ((addrs >> 6) & 7).tolist()

    if coarse_mac_base is not None:
        raw = coarse_mac_base + (addrs // GRANULARITIES[2]) * MAC_BYTES
        arena.coarse_mac_lines = (raw - (raw % CACHELINE_BYTES)).tolist()

    if static_granularity is not None and static_granularity != GRANULARITIES[0]:
        g = static_granularity
        region_bases = (addrs // g) * g
        arena.static_region_bases = region_bases.tolist()
        arena.static_line_offsets = ((addrs - region_bases) // 64).tolist()
        arena.chunks = chunks.tolist()
        # Uniform all-stream layout at the device's granularity: the
        # compaction degenerates to offset // g inside the chunk's
        # fixed MAC window (see StaticGranularScheme._uniform_mac_line).
        cap = static_max_granularity if static_max_granularity is not None else g
        idx, _, _ = mac_index_arrays(
            np.full(len(entries), stream_part.FULL_MASK, dtype=np.uint64),
            addrs,
            cap,
            geometry,
        )
        raw = geometry.mac_base + chunks * MAC_BYTES_PER_CHUNK + idx * MAC_BYTES
        arena.static_mac_lines = (raw - (raw % CACHELINE_BYTES)).tolist()
    return arena


# ----------------------------------------------------------------------
# Vectorized Eq. 1 compacted-MAC layout (Fig. 9 via cumulative sums)
# ----------------------------------------------------------------------

#: Per-process memo of vectorized layouts keyed (bits, cap); bounded
#: like the scalar memo in :mod:`repro.core.addressing`.
_ARRAY_LAYOUT_CAPACITY = 8192
_array_layouts: Dict[Tuple[int, int], tuple] = {}


def mac_layout_arrays(bits: int, max_granularity: int) -> tuple:
    """``(part_index, part_merged, total)`` as numpy arrays.

    An independent, vectorized derivation of the Fig. 9 compaction:
    per-partition MAC counts -> per-4KB-group totals (collapsed to one
    when the group is fully streamed and the cap allows merging) ->
    exclusive cumulative sums for the compacted start index of every
    partition.  ``repro check --engine fast`` diffs this derivation
    against both the naive oracle walk and the scalar memo.
    """
    key = (bits, max_granularity)
    cached = _array_layouts.get(key)
    if cached is not None:
        return cached
    np = numpy_or_none()
    assert np is not None, "mac_layout_arrays requires numpy"

    stream = np.unpackbits(
        np.frombuffer(bits.to_bytes(8, "little"), dtype=np.uint8),
        bitorder="little",
    ).astype(bool)
    counts = np.where(
        stream & (max_granularity >= GRANULARITIES[1]),
        1,
        LINES_PER_PARTITION,
    ).astype(np.int64)
    groups = PARTITIONS_PER_CHUNK // _PARTS_PER_4KB
    group_full = (
        stream.reshape(groups, _PARTS_PER_4KB).all(axis=1)
        & (max_granularity >= GRANULARITIES[2])
    )
    counts_2d = counts.reshape(groups, _PARTS_PER_4KB)
    group_counts = np.where(group_full, 1, counts_2d.sum(axis=1))
    group_starts = np.concatenate(
        ([0], np.cumsum(group_counts)[:-1])
    ).astype(np.int64)
    within = np.cumsum(counts_2d, axis=1) - counts_2d  # exclusive prefix
    full_rep = np.repeat(group_full, _PARTS_PER_4KB)
    starts_rep = np.repeat(group_starts, _PARTS_PER_4KB)
    part_index = np.where(full_rep, starts_rep, starts_rep + within.ravel())
    part_merged = full_rep | (
        stream & (max_granularity >= GRANULARITIES[1])
    )
    total = int(group_counts.sum())
    value = (part_index, part_merged, total)
    if len(_array_layouts) >= _ARRAY_LAYOUT_CAPACITY:
        _array_layouts.clear()
    _array_layouts[key] = value
    return value


def mac_index_arrays(bits_arr, addrs, max_granularity: int, geometry=None):
    """Vectorized compacted MAC indices of a request window.

    ``bits_arr`` is one bitmap per request (same length as ``addrs``).
    Returns ``(index, merged_chunk, per_chunk)`` numpy arrays: the
    compacted in-chunk MAC index, whether the whole chunk merged to a
    single MAC, and the chunk's post-merge MAC count.
    """
    np = numpy_or_none()
    assert np is not None
    del geometry  # indices are chunk-relative; callers add the base
    n = len(addrs)
    index = np.empty(n, dtype=np.int64)
    per_chunk = np.empty(n, dtype=np.int64)
    merged_chunk = np.zeros(n, dtype=bool)
    parts = ((addrs >> 9) & 63).astype(np.int64)
    lips = ((addrs >> 6) & 7).astype(np.int64)
    full_cap = max_granularity >= GRANULARITIES[3]
    bits_arr = np.asarray(bits_arr, dtype=np.uint64)
    for bits in np.unique(bits_arr):
        sel = bits_arr == bits
        bits_int = int(bits)
        if bits_int == stream_part.FULL_MASK and full_cap:
            index[sel] = 0
            per_chunk[sel] = 1
            merged_chunk[sel] = True
            continue
        part_index, part_merged, total = mac_layout_arrays(
            bits_int, max_granularity
        )
        p = parts[sel]
        base = part_index[p]
        index[sel] = np.where(part_merged[p], base, base + lips[sel])
        per_chunk[sel] = total
    return index, merged_chunk, per_chunk


def mac_observables(
    geometry: TreeGeometry,
    max_granularity: int,
    bits_list: Sequence[int],
    addr_list: Sequence[int],
) -> Tuple[List[int], List[int], List[int]]:
    """Eq. 1 observables (index, MAC address, MACs per chunk) of a window."""
    np = numpy_or_none()
    assert np is not None
    addrs = np.asarray(addr_list, dtype=np.int64)
    bits_arr = np.asarray(bits_list, dtype=np.uint64)
    index, _, per_chunk = mac_index_arrays(bits_arr, addrs, max_granularity)
    chunk_mac_bases = geometry.mac_base + (addrs >> 15) * MAC_BYTES_PER_CHUNK
    mac_addrs = chunk_mac_bases + index * MAC_BYTES
    return index.tolist(), mac_addrs.tolist(), per_chunk.tolist()


def counter_observables(
    geometry: TreeGeometry,
    level_list: Sequence[int],
    addr_list: Sequence[int],
) -> Tuple[List[int], List[int], List[int]]:
    """Eq. 2-4 counter locations (node, slot, node address) of a window."""
    np = numpy_or_none()
    assert np is not None
    _, counter_spans, bases = geometry.level_tables()
    levels = np.asarray(level_list, dtype=np.int64)
    addrs = np.asarray(addr_list, dtype=np.int64)
    cspans = np.asarray(counter_spans, dtype=np.int64)[levels]
    region = addrs // cspans
    nodes = region // TREE_ARITY
    slots = region % TREE_ARITY
    node_addrs = (
        np.asarray(bases, dtype=np.int64)[levels] + nodes * CACHELINE_BYTES
    )
    return nodes.tolist(), slots.tolist(), node_addrs.tolist()
