"""Reference copy of the scalar per-router traffic extraction loops.

``repro.core.traffic.GNNTrafficModel.messages`` used to build the message
set either through a numpy group-by over the nonzero blocks or through
these per-group Python loops, which visit each block group's partner
blocks in the order a per-group dictionary recorded them.  The library
now keeps only the group-by.  The loops, the placement lookups they call
and the partner dictionaries they read are kept here verbatim (with the
model passed as an argument), so the differential tests in
``tests/test_core_traffic_pipeline.py`` (and the speedup benchmark in
``benchmarks/test_bench_mapping.py``) can assert bit-identical message
ids, ordering and contents.

Only the leg-independent helpers are shared with the library: the stage
placement (``_placement``), row-range arithmetic (``_group_rows``,
``_chunk_bounds``) and message coalescing (``_add``).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.core.traffic import GNNTrafficModel, _BlockIndex, _EPlacement
from repro.noc.packet import Message


@dataclass(frozen=True)
class _PartnerIndex:
    """Occupied block groups and, per group, its partner groups."""

    brs_by_col: dict[int, np.ndarray]  # block-col -> occupied block-rows
    bcs_by_row: dict[int, np.ndarray]  # block-row -> occupied block-cols
    occupied_rows: np.ndarray
    occupied_cols: np.ndarray


def _partner_index(index: _BlockIndex) -> _PartnerIndex:
    brs_by_col: dict[int, list[int]] = defaultdict(list)
    bcs_by_row: dict[int, list[int]] = defaultdict(list)
    for br, bc in zip(index.brs.tolist(), index.bcs.tolist()):
        brs_by_col[bc].append(br)
        bcs_by_row[br].append(bc)
    return _PartnerIndex(
        brs_by_col={k: np.asarray(v) for k, v in brs_by_col.items()},
        bcs_by_row={k: np.asarray(v) for k, v in bcs_by_row.items()},
        occupied_rows=index.occupied_rows,
        occupied_cols=index.occupied_cols,
    )


def messages(model: GNNTrafficModel) -> list[Message]:
    """The full message set of one pipeline period, built by the loops."""
    index = _partner_index(model._index)
    acc: dict[tuple[int, frozenset[int], str], int] = defaultdict(int)
    num_layers = model.config.num_layers
    for i in range(1, num_layers + 1):
        din, dout = model.layer_dims[i - 1]
        _leg_into_e(model, index, acc, i, dout, backward=False)
        _leg_partial_sums(model, index, acc, i, dout, backward=False)
        _leg_e_out(model, index, acc, i, dout, is_last=(i == num_layers))
        if not model.training:
            continue
        _leg_e_to_be(model, index, acc, i, dout, gradient=(i == num_layers))
        _leg_partial_sums(model, index, acc, i, dout, backward=True)
        _leg_be_to_bv(model, index, acc, i, dout)
        if i > 1:
            _leg_into_e(model, index, acc, i, din, backward=True)
    messages: list[Message] = []
    for msg_id, ((src, dests, tag), bits) in enumerate(sorted(acc.items(), key=str)):
        messages.append(
            Message(
                src=src,
                dests=tuple(sorted(dests)),
                size_bits=bits,
                tag=tag,
                msg_id=msg_id,
            )
        )
    return messages


# ----------------------------------------------------------------------
# Placement lookups (one block or group at a time)
# ----------------------------------------------------------------------
def block_router(placement: _EPlacement, br: int, bc: int) -> int:
    """Router holding block (br, bc)."""
    a, b = placement.grid
    if placement.transposed:
        br, bc = bc, br
    return placement.routers[(br % a) * b + (bc % b)]


def input_dests(placement: _EPlacement, group: int, partners: np.ndarray) -> set[int]:
    """Routers needing input rows of block group ``group``.

    ``partners`` are the occupied opposite-dimension groups: block-rows
    adjacent to an input column (forward) or block-columns adjacent to
    an input row (backward).
    """
    if placement.transposed:
        return {block_router(placement, int(group), int(p)) for p in partners}
    return {block_router(placement, int(p), int(group)) for p in partners}


def row_home(placement: _EPlacement, group: int) -> int:
    """Accumulation home of output group ``group``."""
    return placement.routers[group % len(placement.routers)]


def partial_sources(
    placement: _EPlacement, group: int, partners: np.ndarray
) -> set[int]:
    """Routers producing partial sums for output group ``group``."""
    if placement.transposed:
        return {block_router(placement, int(p), int(group)) for p in partners}
    return {block_router(placement, int(group), int(p)) for p in partners}


# ----------------------------------------------------------------------
# Chunk ownership (one row range at a time)
# ----------------------------------------------------------------------
def _owners(
    model: GNNTrafficModel, routers: tuple[int, ...], lo: int, hi: int
) -> set[int]:
    """Routers owning any row in ``[lo, hi)``."""
    bounds = model._chunk_bounds(routers)
    first = max(int(np.searchsorted(bounds, lo, side="right") - 1), 0)
    last = min(
        int(np.searchsorted(bounds, hi - 1, side="right") - 1), len(routers) - 1
    )
    return {routers[k] for k in range(first, last + 1)}


def _chunks_overlapping(
    model: GNNTrafficModel, routers: tuple[int, ...], lo: int, hi: int
) -> list[tuple[int, int]]:
    """(router, rows) pairs covering ``[lo, hi)`` by chunk ownership."""
    bounds = model._chunk_bounds(routers)
    first = max(int(np.searchsorted(bounds, lo, side="right") - 1), 0)
    last = min(
        int(np.searchsorted(bounds, hi - 1, side="right") - 1), len(routers) - 1
    )
    out = []
    for k in range(first, last + 1):
        rows = min(hi, int(bounds[k + 1])) - max(lo, int(bounds[k]))
        if rows > 0:
            out.append((routers[k], rows))
    return out


# ----------------------------------------------------------------------
# Scalar legs
# ----------------------------------------------------------------------
def _leg_into_e(
    model: GNNTrafficModel, index: _PartnerIndex, acc, layer: int, width: int,
    backward: bool,
) -> None:
    """Rows into an E-type stage: Vi->Ei, or BVi->BEi-1 for gradients."""
    if backward:
        src_routers = model.stage_map.routers(f"BV{layer}")
        placement = model._placement(layer - 1, backward=True)
        groups = index.occupied_rows
        partners_of = index.bcs_by_row
        tag = f"BV{layer}->BE{layer - 1}"
    else:
        src_routers = model.stage_map.routers(f"V{layer}")
        placement = model._placement(layer, backward=False)
        groups = index.occupied_cols
        partners_of = index.brs_by_col
        tag = f"V{layer}->E{layer}"
    for g in groups:
        lo, hi = model._group_rows(int(g))
        dests = input_dests(placement, int(g), partners_of[int(g)])
        for router, rows in _chunks_overlapping(model, src_routers, lo, hi):
            model._add(
                acc,
                router,
                dests,
                rows * width * model.data_bits,
                tag,
            )


def _leg_partial_sums(
    model: GNNTrafficModel, index: _PartnerIndex, acc, layer: int, dout: int,
    backward: bool,
) -> None:
    """Within-stage reduction: partial block products to the row home."""
    placement = model._placement(layer, backward)
    if backward:
        groups = index.occupied_cols
        partners_of = index.brs_by_col
        stage = f"BE{layer}"
    else:
        groups = index.occupied_rows
        partners_of = index.bcs_by_row
        stage = f"E{layer}"
    tag = f"{stage}->{stage}"
    for g in groups:
        lo, hi = model._group_rows(int(g))
        home = row_home(placement, int(g))
        for src in partial_sources(placement, int(g), partners_of[int(g)]):
            model._add(acc, src, {home}, (hi - lo) * dout * model.data_bits, tag)


def _leg_e_out(
    model: GNNTrafficModel, index: _PartnerIndex, acc, layer: int, dout: int,
    is_last: bool,
) -> None:
    """Ei -> Vi+1 (and BVi+1): aggregated rows fan out (multicast)."""
    if is_last:
        return  # the last E stage feeds the loss turnaround instead
    placement = model._placement(layer, backward=False)
    v_next = model.stage_map.routers(f"V{layer + 1}")
    bv_next = (
        model.stage_map.routers(f"BV{layer + 1}") if model.training else ()
    )
    for br in index.occupied_rows:
        lo, hi = model._group_rows(int(br))
        src = row_home(placement, int(br))
        dests = _owners(model, v_next, lo, hi)
        if bv_next:
            dests |= _owners(model, bv_next, lo, hi)
        model._add(
            acc,
            src,
            dests,
            (hi - lo) * dout * model.data_bits,
            f"E{layer}->V{layer + 1}",
        )


def _leg_e_to_be(
    model: GNNTrafficModel, index: _PartnerIndex, acc, layer: int, dout: int,
    gradient: bool,
) -> None:
    """Ei -> BEi: ReLU masks (plus the loss gradient at the last layer)."""
    placement = model._placement(layer, backward=False)
    be_placement = model._placement(layer, backward=True)
    bits_per_value = model.data_bits + 1 if gradient else 1
    for br in index.occupied_rows:
        lo, hi = model._group_rows(int(br))
        src = row_home(placement, int(br))
        dests = input_dests(be_placement, int(br), index.bcs_by_row[int(br)])
        model._add(
            acc,
            src,
            dests,
            (hi - lo) * dout * bits_per_value,
            f"E{layer}->BE{layer}",
        )


def _leg_be_to_bv(
    model: GNNTrafficModel, index: _PartnerIndex, acc, layer: int, dout: int
) -> None:
    """BEi -> BVi: back-propagated rows to their chunk owners."""
    placement = model._placement(layer, backward=True)
    bv_routers = model.stage_map.routers(f"BV{layer}")
    for bc in index.occupied_cols:
        lo, hi = model._group_rows(int(bc))
        src = row_home(placement, int(bc))
        dests = _owners(model, bv_routers, lo, hi)
        model._add(
            acc,
            src,
            dests,
            (hi - lo) * dout * model.data_bits,
            f"BE{layer}->BV{layer}",
        )
