"""The fused batch run-loop of the fast engine.

:func:`prepare` validates that a (scheme, SoC) pair has a fast path and
returns a drop-in replacement for :func:`repro.sim.soc._run_loop`.  The
replacement replays precomputed :class:`~repro.engine_fast.tables.DeviceArena`
windows through ONE loop that inlines the scalar engine's per-request
work -- issue-window arithmetic, cache lookups, channel scheduling,
tree walks, Eq. 1 MAC addressing -- while mutating the *same* state
objects (cache sets, region buffer, granularity table, tracker,
subtree-root LRU, shared-counter LRU) the scalar helpers would.

Every registry scheme maps onto one of seven loop modes.  Two of them
carry options rather than new modes: a ``SubtreeRootCache``
(BMF&Unused) is admitted before the walk and checked at its level
inside both walk loops of ``conventional`` and ``ours``; ``adaptive``
(64B/4KB MACs at level 0) reuses the table-driven ``ours`` resolution,
and ``common_ctr`` skips the walk for chunks holding a shared counter.

Bit-for-bit parity rules (enforced by tests/integration parity suites):

* every float accumulation (channel ``free_at``/``busy_cycles``/
  ``queue_cycles``, completion arithmetic) happens in exactly the
  scalar operation order, via authoritative locals that are synced out
  before and back in after every delegation to a scalar helper;
* integer counters (cache hits/misses, traffic bytes, request counts)
  are delta-batched and flushed once -- integer addition commutes with
  the helpers' own live increments;
* dict key-insertion order that leaks into ``metrics`` snapshots
  (granularity histogram buckets, per-device counter names) is
  replicated with local insertion-ordered dicts that mirror the scalar
  first-touch sequence;
* rare barrier events -- tracker evictions, lazy granularity switches,
  shared-counter admission scans -- are delegated to the scalar
  helpers themselves, so unmodeled behavior cannot diverge.  Region
  eviction settlements are inlined (one channel transfer per owed
  line, in scalar order) but still call the scheme's misprediction
  feedback hook.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional, Sequence

from repro.common.constants import CACHELINE_BYTES, CHUNK_BYTES, GRANULARITIES
from repro.common.types import MetadataKind
from repro.core import addressing, stream_part
from repro.core.detector import detect_stream_partitions, merge_detection
from repro.core.gran_table import TableEntry
from repro.engine_fast import numpy_or_none, warn_scalar_fallback
from repro.engine_fast.tables import build_arena
from repro.schemes.base import RegionBuffer

_GLEVEL = {g: i for i, g in enumerate(GRANULARITIES)}
_FULL = stream_part.FULL_MASK


#: ``RunResult.engine_fallback`` values: why :func:`prepare` declined.
NUMPY_MISSING = "numpy_missing"
BANKED_CHANNEL = "banked_channel"
TRACING = "tracing"
#: A scheme class outside the registry (e.g. a subclass overriding
#: ``_process``): the fused loop only models the registry's classes.
UNSUPPORTED_SCHEME = "unsupported_scheme"


def _mode_of(scheme) -> Optional[str]:
    """The fused-loop mode of a registry scheme (None for other classes)."""
    from repro.schemes.adaptive import AdaptiveMacScheme
    from repro.schemes.common_counters import CommonCountersScheme
    from repro.schemes.conventional import ConventionalScheme, MacOnlyScheme
    from repro.schemes.multigran import MultiGranularScheme
    from repro.schemes.static import StaticGranularScheme
    from repro.schemes.unsecure import UnsecureScheme

    return {
        UnsecureScheme: "unsecure",
        MacOnlyScheme: "mac_only",
        ConventionalScheme: "conventional",
        StaticGranularScheme: "static",
        MultiGranularScheme: "ours",
        AdaptiveMacScheme: "adaptive",
        CommonCountersScheme: "common_ctr",
    }.get(type(scheme))


def fallback_reason(scheme, soc_config) -> Optional[str]:
    """Why a fast run of ``scheme`` would decline (None: it engages)."""
    if numpy_or_none() is None:
        return NUMPY_MISSING
    if getattr(soc_config.memory, "banks", 0):
        return BANKED_CHANNEL
    if scheme.tracer:
        return TRACING
    if _mode_of(scheme) is None:
        return UNSUPPORTED_SCHEME
    return None


def prepare(
    traces: Sequence,
    scheme,
    soc_config,
    device_configs: Sequence,
) -> Optional[Callable]:
    """Validate the fast path; return the run callable, or None.

    ``None`` means "use the scalar loop" for the reason
    :func:`fallback_reason` names: numpy missing (warned, since the
    caller explicitly requested the fast engine), a banked channel, or
    tracing enabled.  Every registry scheme has a fast path.  The
    returned callable has the signature of
    :func:`repro.sim.soc._run_loop` and may be invoked once per replay
    phase (warmup and measured); it builds the arenas on its first
    call and shares them afterwards, so a caller that never runs it
    (a windowed-only session) pays nothing.
    """
    reason = fallback_reason(scheme, soc_config)
    if reason is not None:
        if reason == NUMPY_MISSING:
            warn_scalar_fallback("numpy is not installed")
        return None
    mode = _mode_of(scheme)
    arenas = None

    def run(states, scheme, channel, sink=None):
        nonlocal arenas
        if arenas is None:
            arenas = _build_arenas(traces, scheme, device_configs, mode)
        _run_fast(states, scheme, channel, arenas, mode, sink)

    return run


def _build_arenas(traces, scheme, device_configs, mode) -> list:
    """One :class:`DeviceArena` per device, holding what ``mode`` reads."""
    geometry = scheme.geometry
    subtree = getattr(scheme, "subtree", None)
    subtree_level = subtree.level if subtree is not None else None
    arenas = []
    for i, (trace, cfg) in enumerate(zip(traces, device_configs)):
        kw = {}
        if mode == "mac_only":
            kw = dict(need_fine_mac=True)
        elif mode in ("conventional", "common_ctr"):
            kw = dict(
                need_walk=True,
                need_fine_mac=True,
                need_chunk_coords=mode == "common_ctr",
                subtree_level=subtree_level,
            )
        elif mode == "static":
            g = scheme.device_granularities.get(i, GRANULARITIES[0])
            kw = dict(
                need_walk=True,
                need_fine_mac=g == GRANULARITIES[0],
                static_granularity=g if g != GRANULARITIES[0] else None,
            )
        elif mode == "ours":
            kw = dict(
                need_walk=True,
                need_table=True,
                need_chunk_coords=True,
                need_fine_mac=not scheme.mac_multigranular,
                subtree_level=subtree_level,
            )
        elif mode == "adaptive":
            kw = dict(
                need_walk=True,
                need_fine_mac=True,
                need_chunk_coords=True,
                coarse_mac_base=scheme.coarse_mac_base,
            )
        arenas.append(
            build_arena(
                trace.entries, i, cfg.dependent_loads, geometry, **kw
            )
        )
    return arenas


def _run_fast(states, scheme, channel, arenas, mode, sink=None) -> None:
    """One full replay of every arena through the fused loop."""
    heappush = heapq.heappush
    heappop = heapq.heappop

    geometry = scheme.geometry
    engine = scheme._engine
    mac_latency = engine.mac_latency
    otp_latency = engine.otp_latency
    xor_latency = engine.xor_latency
    root_level = geometry.root_level
    stats = scheme.stats

    mode_unsecure = mode == "unsecure"
    mode_mac_only = mode == "mac_only"
    mode_conv = mode == "conventional"
    mode_static = mode == "static"
    mode_ours = mode == "ours"
    mode_adaptive = mode == "adaptive"
    mode_ctr = mode == "common_ctr"

    # -- channel: floats live in locals (authoritative), ints batched --
    ch_stats = channel.stats
    occupancy = CACHELINE_BYTES / channel.config.bytes_per_cycle
    latency = channel.config.latency_cycles
    free_at = channel._free_at
    busy = ch_stats.busy_cycles
    queue = ch_stats.queue_cycles
    d_txns = 0
    d_bytes = 0

    # -- caches: sets mutated live, counters batched --
    meta = scheme.metadata_cache
    mac_cache = scheme.mac_cache
    tab_cache = scheme.table_cache
    unified = mac_cache is meta
    m_sets, m_lb = meta._sets, meta._line_bytes
    m_ns, m_w = meta._num_sets, meta._ways
    mc_sets, mc_lb = mac_cache._sets, mac_cache._line_bytes
    mc_ns, mc_w = mac_cache._num_sets, mac_cache._ways
    tc_sets, tc_lb = tab_cache._sets, tab_cache._line_bytes
    tc_ns, tc_w = tab_cache._num_sets, tab_cache._ways
    m_hits = m_miss = m_wb = 0
    mc_hits = mc_miss = mc_wb = 0
    tc_hits = tc_miss = tc_wb = 0

    t_data = t_ctr = t_mac = t_tab = 0
    d_serialized = 0
    d_req = d_reads = d_writes = 0
    res_total = res_corr = 0
    hist: dict = {}
    n_dev = len(states)
    dev_counts: list = [None] * n_dev
    last_device = -1

    if mode_ours or mode_adaptive or mode_ctr:
        tracker_observe = scheme.tracker.observe
    if mode_ours or mode_adaptive:
        # Table-driven resolution; Adaptive is Ours pinned to 64B/4KB
        # MACs at level 0, with its table on-chip (no table traffic).
        table = scheme.table
        tentries = table._entries
        table_resolve = table.resolve
        record_detection = table.record_detection
        entry_by_chunk = table.entry_by_chunk
        record_event = stats.switching.record_event
        charge = mode_adaptive or scheme.charge_switch_costs
        maxg = table.max_granularity
        cap512 = maxg >= GRANULARITIES[1]
        cap4k = maxg >= GRANULARITIES[2]
        cap32k = maxg >= GRANULARITIES[3]
        charge_switch = scheme._charge_switch
    if mode_ours:
        mac_mg = scheme.mac_multigranular
        entry_line_addr = table.entry_line_addr
        layouts: dict = {}
        chunk_layout = addressing._chunk_mac_layout
        table_access = scheme._table_access
    if mode_ours or mode_static or mode_adaptive:
        region_touch = scheme.region_buffer.touch
        written = scheme._written_chunks
        retains = scheme.retains_fine_macs
        eviction_penalty = RegionBuffer.eviction_penalty
        eviction_feedback = scheme._region_eviction_feedback
        d_overfetch = 0
    if mode_ctr:
        shared = scheme._shared
        admit_shared = scheme._admit
        shared_hits = 0

    # Subtree roots (BMF&Unused): an LRU of trusted level-``st_level``
    # nodes; ``st_level`` -1 disables the walk-loop checks.
    subtree = getattr(scheme, "subtree", None)
    st_level = -1
    if subtree is not None:
        st_level = subtree.level
        st_table = subtree._table
        st_entries = subtree.entries
        st_hits = st_admits = st_evicts = 0
    if mode_static:
        dev_gran = [
            scheme.device_granularities.get(i, GRANULARITIES[0])
            for i in range(n_dev)
        ]
        dev_level = [_GLEVEL[g] for g in dev_gran]

    cursors = [0] * n_dev
    clocks = [0.0] * n_dev
    computes = [0.0] * n_dev
    finishes = [0.0] * n_dev
    lrds = [0.0] * n_dev
    outs = [st.outstanding for st in states]
    maxouts = [st._max_outstanding for st in states]

    heap = []
    for i in range(n_dev):
        a = arenas[i]
        if a.n == 0:
            continue
        heap.append((0.0 + a.gaps[0], i))
    heapq.heapify(heap)

    while heap:
        at, i = heappop(heap)
        a = arenas[i]
        cursor = cursors[i]
        addr = a.addrs[cursor]
        is_write = a.writes[cursor]
        cycle = at
        last_device = i

        # -- scheme.process() bookkeeping --
        d_req += 1
        dc = dev_counts[i]
        if dc is None:
            dc = dev_counts[i] = {}
        dc["requests"] = dc.get("requests", 0) + 1
        if is_write:
            d_writes += 1
            dc["writes"] = dc.get("writes", 0) + 1
        else:
            d_reads += 1
            dc["reads"] = dc.get("reads", 0) + 1

        if mode_unsecure:
            t_data += 64
            start = cycle if cycle > free_at else free_at
            free_at = start + occupancy
            busy += occupancy
            queue += start - cycle
            d_txns += 1
            d_bytes += 64
            completion = cycle if is_write else free_at + latency

        elif mode_mac_only:
            hist[64] = hist.get(64, 0) + 1
            mac_line = a.fine_mac_lines[cursor]
            t_data += 64
            start = cycle if cycle > free_at else free_at
            free_at = start + occupancy
            busy += occupancy
            queue += start - cycle
            d_txns += 1
            d_bytes += 64
            data_ready = free_at + latency
            dc["mac_verifications"] = dc.get("mac_verifications", 0) + 1
            line = mac_line // mc_lb
            cset = mc_sets[line % mc_ns]
            if line in cset:
                mc_hits += 1
                if is_write and not cset[line]:
                    cset[line] = True
                cset.move_to_end(line)
                mac_ready = cycle
            else:
                mc_miss += 1
                if len(cset) >= mc_w:
                    _, vdirty = cset.popitem(last=False)
                    if vdirty:
                        mc_wb += 1
                        t_mac += 64
                        start = cycle if cycle > free_at else free_at
                        free_at = start + occupancy
                        busy += occupancy
                        queue += start - cycle
                        d_txns += 1
                        d_bytes += 64
                cset[line] = is_write
                t_mac += 64
                start = cycle if cycle > free_at else free_at
                free_at = start + occupancy
                busy += occupancy
                queue += start - cycle
                d_txns += 1
                d_bytes += 64
                mac_ready = free_at + latency
            if is_write:
                completion = cycle
            else:
                m = data_ready if data_ready > mac_ready else mac_ready
                completion = m + mac_latency

        else:
            # conventional / static / ours share the full
            # data + walk + MAC + crypto pipeline; resolve the
            # per-scheme granularity and addresses first.
            if mode_conv:
                hist[64] = hist.get(64, 0) + 1
                level = 0
                mac_line = a.fine_mac_lines[cursor]
                region_gran = 64
            elif mode_static:
                g = dev_gran[i]
                hist[g] = hist.get(g, 0) + 1
                level = dev_level[i]
                region_gran = g
                if g == 64:
                    mac_line = a.fine_mac_lines[cursor]
                else:
                    mac_line = a.static_mac_lines[cursor]
            elif mode_ctr:
                # Common counters: a fully streamed chunk evicted from
                # the tracker claims an on-chip shared counter; the
                # admission scan is a barrier (scalar _admit).
                evs = tracker_observe(addr, int(cycle))
                if evs:
                    for ev in evs:
                        if detect_stream_partitions(
                            ev.entry.access_bits
                        ) == _FULL:
                            channel._free_at = free_at
                            ch_stats.busy_cycles = busy
                            ch_stats.queue_cycles = queue
                            admit_shared(ev.entry.chunk_index, cycle, channel)
                            free_at = channel._free_at
                            busy = ch_stats.busy_cycles
                            queue = ch_stats.queue_cycles
                chunk = a.chunks[cursor]
                if chunk in shared:
                    # On-chip trusted counter: no walk at all.
                    shared.move_to_end(chunk)
                    shared_hits += 1
                    hist[32768] = hist.get(32768, 0) + 1
                    level = root_level
                else:
                    hist[64] = hist.get(64, 0) + 1
                    level = 0
                mac_line = a.fine_mac_lines[cursor]
                region_gran = 64
            else:  # ours / adaptive
                # 1. tracker -> detector -> table "next" updates.
                evs = tracker_observe(addr, int(cycle))
                if evs:
                    for ev in evs:
                        chunk_e = ev.entry.chunk_index
                        bits_e = merge_detection(
                            entry_by_chunk(chunk_e).next,
                            ev.entry.access_bits,
                            censored=ev.reason == "capacity",
                        )
                        if record_detection(chunk_e, bits_e) and mode_ours:
                            channel._free_at = free_at
                            ch_stats.busy_cycles = busy
                            ch_stats.queue_cycles = queue
                            table_access(
                                entry_line_addr(chunk_e * CHUNK_BYTES),
                                True, cycle, channel,
                            )
                            free_at = channel._free_at
                            busy = ch_stats.busy_cycles
                            queue = ch_stats.queue_cycles

                # 2. granularity-table read + lazy switching.
                if mode_ours:
                    tl = a.table_lines[cursor]
                    line = tl // tc_lb
                    cset = tc_sets[line % tc_ns]
                    if line in cset:
                        tc_hits += 1
                        cset.move_to_end(line)
                    else:
                        tc_miss += 1
                        if len(cset) >= tc_w:
                            _, vdirty = cset.popitem(last=False)
                            if vdirty:
                                tc_wb += 1
                                t_tab += 64
                                start = cycle if cycle > free_at else free_at
                                free_at = start + occupancy
                                busy += occupancy
                                queue += start - cycle
                                d_txns += 1
                                d_bytes += 64
                        cset[line] = False
                        t_tab += 64
                        start = cycle if cycle > free_at else free_at
                        free_at = start + occupancy
                        busy += occupancy
                        queue += start - cycle
                        d_txns += 1
                        d_bytes += 64

                chunk = a.chunks[cursor]
                entry = tentries.get(chunk)
                if entry is None:
                    entry = tentries[chunk] = TableEntry()
                cur = entry.current
                res_total += 1
                if cur != entry.next:
                    granularity, event = table_resolve(addr, is_write)
                    if event is None:
                        res_corr += 1
                    else:
                        record_event(event)
                        channel._free_at = free_at
                        ch_stats.busy_cycles = busy
                        ch_stats.queue_cycles = queue
                        if mode_ours:
                            table_access(tl, True, cycle, channel)
                        if charge:
                            charge_switch(event, cycle, channel)
                        free_at = channel._free_at
                        busy = ch_stats.busy_cycles
                        queue = ch_stats.queue_cycles
                else:
                    res_corr += 1
                    if cur == _FULL and cap32k:
                        granularity = 32768
                    else:
                        p = a.partitions[cursor]
                        gmask = 255 << (p & 56)
                        if cur & gmask == gmask and cap4k:
                            granularity = 4096
                        elif cur & (1 << p) and cap512:
                            granularity = 512
                        else:
                            granularity = 64
                    entry.last_access_write = is_write
                    if is_write:
                        entry.written = True
                hist[granularity] = hist.get(granularity, 0) + 1

                # 5-prep. walk level, data granularity and MAC line:
                # Adaptive's per-page coarse MAC at level 0, or Ours'
                # promoted level and merged + compacted MAC (Eq. 1).
                if mode_adaptive:
                    level = 0
                    region_gran = granularity
                    if granularity == 64:
                        mac_line = a.fine_mac_lines[cursor]
                    else:
                        mac_line = a.coarse_mac_lines[cursor]
                elif mac_mg:
                    level = _GLEVEL[granularity]
                    region_gran = granularity
                    bits = entry.current
                    if bits == _FULL and cap32k:
                        raw = a.chunk_mac_bases[cursor]
                    else:
                        lay = layouts.get(bits)
                        if lay is None:
                            lay = layouts[bits] = chunk_layout(bits, maxg)
                        p = a.partitions[cursor]
                        index = lay[0][p]
                        if not lay[1][p]:
                            index += a.lines_in_partition[cursor]
                        raw = a.chunk_mac_bases[cursor] + index * 8
                    mac_line = raw - raw % 64
                else:
                    level = _GLEVEL[granularity]
                    region_gran = 64
                    mac_line = a.fine_mac_lines[cursor]

            # 3. data movement (region buffer above 64B granularity).
            if region_gran != 64:
                if mode_static:
                    chunk = a.chunks[cursor]
                    region_base = a.static_region_bases[cursor]
                    line_offset = a.static_line_offsets[cursor]
                else:
                    region_base = (addr // region_gran) * region_gran
                    line_offset = (addr - region_base) // 64
                if is_write:
                    written.add(chunk)
                _, victims = region_touch(
                    region_base, region_gran, line_offset,
                    read_only=retains and chunk not in written,
                    is_write=is_write,
                )
                # Inline _settle_evictions: each owed line is one
                # transfer, charged in the scalar order.
                for victim in victims:
                    data_lines, mac_lines = eviction_penalty(victim)
                    if data_lines:
                        d_overfetch += data_lines
                        t_data += 64 * data_lines
                    if mac_lines:
                        t_mac += 64 * mac_lines
                    owed = data_lines + mac_lines
                    d_txns += owed
                    d_bytes += 64 * owed
                    for _ in range(owed):
                        start = cycle if cycle > free_at else free_at
                        free_at = start + occupancy
                        busy += occupancy
                        queue += start - cycle
                    if data_lines:
                        eviction_feedback(victim)
            t_data += 64
            start = cycle if cycle > free_at else free_at
            free_at = start + occupancy
            busy += occupancy
            queue += start - cycle
            d_txns += 1
            d_bytes += 64
            data_ready = cycle if is_write else free_at + latency

            # 4. counter walk from the promoted level; a cached
            # subtree root is admitted first and stops the walk.
            if st_level >= 0:
                node = a.subtree_nodes[cursor]
                if node in st_table:
                    st_table.move_to_end(node)
                else:
                    if len(st_table) >= st_entries:
                        st_table.popitem(last=False)
                        st_evicts += 1
                    st_table[node] = True
                    st_admits += 1
            walk = a.walk
            if is_write:
                for lvl in range(level, root_level):
                    if lvl == st_level:
                        node = a.subtree_nodes[cursor]
                        if node in st_table:
                            st_table.move_to_end(node)
                            st_hits += 1
                            break
                    node_addr = walk[lvl][cursor]
                    line = node_addr // m_lb
                    cset = m_sets[line % m_ns]
                    if line in cset:
                        m_hits += 1
                        if not cset[line]:
                            cset[line] = True
                        cset.move_to_end(line)
                    else:
                        m_miss += 1
                        if len(cset) >= m_w:
                            _, vdirty = cset.popitem(last=False)
                            if vdirty:
                                m_wb += 1
                                t_ctr += 64
                                start = cycle if cycle > free_at else free_at
                                free_at = start + occupancy
                                busy += occupancy
                                queue += start - cycle
                                d_txns += 1
                                d_bytes += 64
                        cset[line] = True
                        t_ctr += 64
                        start = cycle if cycle > free_at else free_at
                        free_at = start + occupancy
                        busy += occupancy
                        queue += start - cycle
                        d_txns += 1
                        d_bytes += 64
            else:
                ready = cycle
                lw = 0
                for lvl in range(level, root_level):
                    if lvl == st_level:
                        node = a.subtree_nodes[cursor]
                        if node in st_table:
                            st_table.move_to_end(node)
                            st_hits += 1
                            break
                    node_addr = walk[lvl][cursor]
                    line = node_addr // m_lb
                    cset = m_sets[line % m_ns]
                    if line in cset:
                        m_hits += 1
                        cset.move_to_end(line)
                        lw += 1
                        break
                    m_miss += 1
                    if len(cset) >= m_w:
                        _, vdirty = cset.popitem(last=False)
                        if vdirty:
                            m_wb += 1
                            t_ctr += 64
                            start = cycle if cycle > free_at else free_at
                            free_at = start + occupancy
                            busy += occupancy
                            queue += start - cycle
                            d_txns += 1
                            d_bytes += 64
                    cset[line] = False
                    t_ctr += 64
                    start = cycle if cycle > free_at else free_at
                    free_at = start + occupancy
                    busy += occupancy
                    queue += start - cycle
                    d_txns += 1
                    d_bytes += 64
                    done = free_at + latency
                    lw += 1
                    if done > ready:
                        ready = done
                    d_serialized += 1
                if lw:
                    dc["tree_levels_verified"] = (
                        dc.get("tree_levels_verified", 0) + lw
                    )
                ctr_ready = ready + lw * mac_latency

            # 5. MAC access.
            dc["mac_verifications"] = dc.get("mac_verifications", 0) + 1
            line = mac_line // mc_lb
            cset = mc_sets[line % mc_ns]
            if line in cset:
                mc_hits += 1
                if is_write and not cset[line]:
                    cset[line] = True
                cset.move_to_end(line)
                mac_ready = cycle
            else:
                mc_miss += 1
                if len(cset) >= mc_w:
                    _, vdirty = cset.popitem(last=False)
                    if vdirty:
                        mc_wb += 1
                        t_mac += 64
                        start = cycle if cycle > free_at else free_at
                        free_at = start + occupancy
                        busy += occupancy
                        queue += start - cycle
                        d_txns += 1
                        d_bytes += 64
                cset[line] = is_write
                t_mac += 64
                start = cycle if cycle > free_at else free_at
                free_at = start + occupancy
                busy += occupancy
                queue += start - cycle
                d_txns += 1
                d_bytes += 64
                mac_ready = free_at + latency

            if is_write:
                completion = cycle
            else:
                otp_ready = ctr_ready + otp_latency
                plaintext = (
                    data_ready if data_ready > otp_ready else otp_ready
                ) + xor_latency
                completion = (
                    plaintext if plaintext > mac_ready else mac_ready
                ) + mac_latency

        if sink is not None:
            # Same semantic point as SessionCore.step()'s sink: after
            # the completion is known, before the issue bookkeeping.
            # Arena columns are numpy scalars -- normalize here so both
            # engines feed identical Python types to observables.
            sink.append((at, i, int(addr), bool(is_write), completion))

        # -- DeviceIssueState.issue() inline --
        computes[i] += a.gaps[cursor]
        cursor += 1
        cursors[i] = cursor
        clocks[i] = at
        out = outs[i]
        while out and out[0] <= at:
            heappop(out)
        if not is_write:
            heappush(out, completion)
            lrds[i] = completion
        f = finishes[i]
        if completion > f:
            f = completion
        if at > f:
            f = at
        finishes[i] = f

        # -- next_issue_time() inline + re-arm the heap --
        if cursor < a.n:
            ready = at + a.gaps[cursor]
            if not a.writes[cursor] and a.deps[cursor]:
                lrd = lrds[i]
                if lrd > ready:
                    ready = lrd
            while out and out[0] <= ready:
                heappop(out)
            if len(out) >= maxouts[i]:
                head = out[0]
                if head > ready:
                    ready = head
            heappush(heap, (ready, i))

    # ---- flush: device state, channel, caches, scheme stats ----
    for i, st in enumerate(states):
        st.cursor = cursors[i]
        st.clock = clocks[i]
        st.compute = computes[i]
        st.finish = finishes[i]
        st.last_read_done = lrds[i]

    channel._free_at = free_at
    ch_stats.busy_cycles = busy
    ch_stats.queue_cycles = queue
    ch_stats.transactions += d_txns
    ch_stats.bytes_transferred += d_bytes

    if unified:
        meta.hits += m_hits + mc_hits
        meta.misses += m_miss + mc_miss
        meta.writebacks += m_wb + mc_wb
    else:
        meta.hits += m_hits
        meta.misses += m_miss
        meta.writebacks += m_wb
        mac_cache.hits += mc_hits
        mac_cache.misses += mc_miss
        mac_cache.writebacks += mc_wb
    tab_cache.hits += tc_hits
    tab_cache.misses += tc_miss
    tab_cache.writebacks += tc_wb

    stats.requests += d_req
    stats.reads += d_reads
    stats.writes += d_writes
    stats.serialized_level_fetches += d_serialized
    if mode_ours or mode_static or mode_adaptive:
        stats.region_overfetch_lines += d_overfetch
    traffic = stats.traffic.bytes_by_kind
    traffic[MetadataKind.DATA] += t_data
    traffic[MetadataKind.COUNTER] += t_ctr
    traffic[MetadataKind.MAC] += t_mac
    traffic[MetadataKind.GRAN_TABLE] += t_tab
    for g, count in hist.items():
        stats.granularity_hist.add(g, count)
    if mode_ours or mode_adaptive:
        stats.switching.total_resolutions += res_total
        stats.switching.correct_predictions += res_corr
    if mode_ctr:
        scheme.shared_hits += shared_hits
    if subtree is not None:
        subtree.hits += st_hits
        subtree.admissions += st_admits
        subtree.evictions += st_evicts
    for i, dc in enumerate(dev_counts):
        if dc:
            group = stats.device(i)
            for name, value in dc.items():
                group.bump(name, value)
    if last_device >= 0:
        scheme._active_device = last_device
