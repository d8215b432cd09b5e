"""Traffic extraction for pipelined GNN training (paper Sec. III / IV.B).

Given a stage mapping and the block structure of the representative merged
sub-graph, this module produces the exact message set one pipeline period
carries.  The construction follows the dataflow of Fig. 1(d)/Fig. 4.

**Block placement.**  Each E stage's adjacency blocks are spread over its
routers on a 2D grid: block ``(br, bc)`` lives at grid position
``(br mod a, bc mod b)``.  A feature row therefore multicasts to at most
``a`` routers (the grid column of its block-column), and each block-row's
partial sums converge from at most ``b`` routers onto the block-row's
accumulation home — the *many-to-one-to-many* pattern of Sec. III with a
bounded multicast degree.  Backward E stages hold the transposed blocks
(grid position ``(bc mod a, br mod b)``), mirroring the pattern for
gradients.

**Legs** (all tagged ``SRC->DST`` so the pipeline model can attribute the
finish time to the producing stage):

* ``Vi -> Ei`` — updated feature rows to the grid column holding their
  block-column (multicast, degree <= a).
* ``Ei -> Ei`` — partial-sum reduction onto block-row homes (many-to-one).
* ``Ei -> Vi+1`` — aggregated rows to the V routers owning them next layer
  *and* the backward-phase ``BVi+1`` routers (the fwd/bwd multicast).
* ``Ei -> BEi`` — ReLU masks (1 bit/value); for the last layer also the
  full-precision loss gradient.
* ``BEi -> BEi`` — backward partial-sum reduction.
* ``BEi -> BVi`` and ``BVi -> BEi-1`` — the mirrored backward chain.

Row ownership inside V-type stages is contiguous-chunked over the stage's
routers.  Messages with identical (source, destination set, tag) are
coalesced, as a DMA engine would.

**Extraction.**  :meth:`GNNTrafficModel.messages` returns a
:class:`~repro.noc.packet.MessageTable`, the columns the static schedule
reads.  Each leg is built in numpy as rows of (source, destination
entries, bits): the block-holding routers of every block group, or the
chunk owners of its row range.  Block-holding routers come from
presence tables, one per (axis, modulus) a call needs: a block's router
depends only on its coordinates modulo the stage's grid, so cell
``(g, res)`` records whether occupied group ``g`` (a block-row or
block-column) has a block whose other coordinate is ``res`` modulo
``a`` or ``b``.  One ``np.bincount`` over the nonzero blocks builds a
table, and every leg with that axis and modulus maps its set cells
through its own stage's routers, so the nonzero blocks are read once
per table rather than once per leg.  The tables live for one
:meth:`~GNNTrafficModel.messages` call.  One coalescing pass then drops
each row's own source from its destinations, drops empty and zero-bit rows,
and merges rows with the same (source, destination set, tag) with one
``np.lexsort``.  Messages are numbered canonically: ``msg_id`` is the
rank by ``(src, dests, tag)`` with destinations sorted, compared as
Python tuples (a shorter destination prefix first).  The original
per-router Python loops live in ``tests/oracles/traffic_loops.py``; the
differential tests assert both produce identical message ids, ordering
and contents.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from repro.core.config import ReGraphXConfig
from repro.core.mapping import StageMap
from repro.graph.graph import distinct
from repro.noc.packet import MessageTable, csr_spans, padded_rows
from repro.reram.sparse_mapping import BlockMapping


def _grid_shape(num_routers: int) -> tuple[int, int]:
    """Largest divisor pair (a, b), a <= b, a as close to sqrt as possible."""
    best = (1, num_routers)
    for a in range(1, int(np.sqrt(num_routers)) + 1):
        if num_routers % a == 0:
            best = (a, num_routers // a)
    return best


@dataclass(frozen=True)
class _EPlacement:
    """Grid placement of adjacency blocks on one E stage's routers."""

    routers: tuple[int, ...]
    transposed: bool  # backward stages hold the transposed blocks

    @property
    def grid(self) -> tuple[int, int]:
        return _grid_shape(len(self.routers))


@dataclass(frozen=True)
class _BlockIndex:
    """Block-row/column of every nonzero block, and the occupied ones."""

    occupied_rows: np.ndarray
    occupied_cols: np.ndarray
    brs: np.ndarray  # block-row of every nonzero block
    bcs: np.ndarray  # block-col of every nonzero block
    row_at: np.ndarray  # every block's block-row, as its index in occupied_rows
    col_at: np.ndarray  # every block's block-col, as its index in occupied_cols


def _residue_cells(
    index: _BlockIndex, axis: str, modulus: int
) -> tuple[np.ndarray, np.ndarray]:
    """The set cells ``(g, res)`` of one presence table, row-major.

    Cell ``(g, res)`` is set when some nonzero block of occupied group
    ``g`` (a block-row for ``axis="row"``, a block-column for ``"col"``)
    has its other coordinate congruent to ``res`` modulo ``modulus``.
    One ``np.bincount`` over the nonzero blocks builds the table.
    """
    if axis == "row":
        at, other, groups = index.row_at, index.bcs, index.occupied_rows
    else:
        at, other, groups = index.col_at, index.brs, index.occupied_cols
    hits = np.bincount(at * modulus + other % modulus, minlength=groups.size * modulus)
    return np.divmod(np.flatnonzero(hits), modulus)


#: A ``messages()`` call's presence tables, ``(axis, modulus) -> cells``.
_Cells = Callable[[str, int], tuple[np.ndarray, np.ndarray]]


#: One leg's rows before coalescing: ``(tag, src, bits, entry_row,
#: entry_dest)``, row ``r`` sending ``bits[r]`` from ``src[r]`` to every
#: ``entry_dest[k]`` with ``entry_row[k] == r``.
_Leg = tuple[str, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class GNNTrafficModel:
    """Builds the per-period message set of the full training pipeline."""

    def __init__(
        self,
        config: ReGraphXConfig,
        stage_map: StageMap,
        block_mapping: BlockMapping,
        num_nodes: int,
        layer_dims: list[tuple[int, int]],
        data_bits: int = 16,
        training: bool = True,
    ) -> None:
        if num_nodes < 1:
            raise ValueError("workload needs at least one node")
        self.training = training
        if len(layer_dims) != config.num_layers:
            raise ValueError(
                f"got {len(layer_dims)} layer dims for a "
                f"{config.num_layers}-layer configuration"
            )
        if data_bits < 1:
            raise ValueError("data_bits must be positive")
        self.config = config
        self.stage_map = stage_map
        self.block_mapping = block_mapping
        self.num_nodes = num_nodes
        self.layer_dims = layer_dims
        self.data_bits = data_bits
        self.block_size = block_mapping.block_size
        brs, bcs = np.divmod(block_mapping.block_ids, block_mapping.num_block_cols)
        rows, cols = distinct(brs), distinct(bcs)
        self._index = _BlockIndex(
            rows, cols, brs, bcs, np.searchsorted(rows, brs), np.searchsorted(cols, bcs)
        )
        self._num_ids = config.topology.num_routers

    # ------------------------------------------------------------------
    # Placement helpers
    # ------------------------------------------------------------------
    def _placement(self, layer: int, backward: bool) -> _EPlacement:
        stage = f"BE{layer}" if backward else f"E{layer}"
        return _EPlacement(
            routers=self.stage_map.routers(stage), transposed=backward
        )

    def _chunk_bounds(self, routers: tuple[int, ...]) -> np.ndarray:
        """Row-range boundaries for contiguous chunk ownership."""
        r = len(routers)
        return np.asarray([(k * self.num_nodes) // r for k in range(r + 1)])

    def _group_rows(self, groups: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row ranges ``[los[k], his[k])`` covered by block groups ``groups``."""
        los = groups * self.block_size
        return los, np.minimum(los + self.block_size, self.num_nodes)

    def _homes(self, stage: str, groups: np.ndarray) -> np.ndarray:
        """Each block group's accumulation home among ``stage``'s routers."""
        routers = self.stage_map.routers(stage)
        return np.asarray(routers)[groups % len(routers)]

    def _block_routers_by(
        self, cells: _Cells, layer: int, transposed: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per occupied group, its distinct block-holding routers, as CSR.

        A forward stage groups by block-column (aligned with
        ``occupied_cols``), a backward one by block-row; group ``k``'s
        routers are ``routers[ptr[k]:ptr[k + 1]]``.  Either way the group
        is the grid's minor coordinate, so group ``g``'s blocks sit at
        grid positions ``(res, g mod b)`` for the residues ``res`` of its
        other coordinate modulo ``a``.
        """
        placement = self._placement(layer, transposed)
        a, b = placement.grid
        idx = self._index
        occupied = idx.occupied_rows if transposed else idx.occupied_cols
        g, res = cells("row" if transposed else "col", a)
        holders = np.asarray(placement.routers)[res * b + occupied[g] % b]
        owner, routers = np.divmod(distinct(g * self._num_ids + holders), self._num_ids)
        return np.searchsorted(owner, np.arange(occupied.size + 1)), routers

    def _chunk_spans(
        self, routers: tuple[int, ...], groups: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized chunk-ownership spans for every group's row range.

        Returns ``(bounds, los, his, firsts, stops)`` where chunk indices
        ``firsts[k]:stops[k]`` of ``routers`` cover rows ``[los[k], his[k])``
        of group ``groups[k]``.
        """
        bounds = self._chunk_bounds(routers)
        los, his = self._group_rows(groups)
        firsts = np.maximum(np.searchsorted(bounds, los, side="right") - 1, 0)
        stops = np.minimum(np.searchsorted(bounds, his - 1, side="right"), len(routers))
        return bounds, los, his, firsts, stops

    def _owners(self, stage: str, groups: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(k, router)`` per router of ``stage`` owning rows of ``groups[k]``."""
        routers = self.stage_map.routers(stage)
        k, at = csr_spans(*self._chunk_spans(routers, groups)[3:])
        return k, np.asarray(routers)[at]

    # ------------------------------------------------------------------
    # Message construction
    # ------------------------------------------------------------------
    def messages(self) -> MessageTable:
        """The full message set of one pipeline period, all legs tagged.

        Each leg's rows lose their own source from their destinations,
        empty and zero-bit rows are dropped, and rows with the same
        (source, destination set, tag) are coalesced.  ``msg_id`` is the
        rank by ``(src, dests, tag)``, destinations sorted.
        """
        # Legs read the block placement through presence tables built
        # once per (axis, modulus) in this call, not once per leg.
        cells = cache(partial(_residue_cells, self._index))
        legs: list[_Leg] = []
        num_layers = self.config.num_layers
        for i in range(1, num_layers + 1):
            din, dout = self.layer_dims[i - 1]
            legs += [
                self._leg_into_e(cells, i, dout),
                self._leg_partial_sums(cells, i, dout),
            ]
            if i < num_layers:  # the last E stage feeds the loss turnaround
                legs.append(self._leg_e_out(i, dout))
            if self.training:
                legs += [
                    self._leg_e_to_be(cells, i, dout, gradient=(i == num_layers)),
                    self._leg_partial_sums(cells, i, dout, backward=True),
                    self._leg_be_to_bv(i, dout),
                ]
            if self.training and i > 1:
                legs.append(self._leg_into_e(cells, i, din, backward=True))
        return _coalesce(legs, self._num_ids)

    # ------------------------------------------------------------------
    # Legs
    # ------------------------------------------------------------------
    def _leg_into_e(
        self, cells: _Cells, layer: int, width: int, backward: bool = False
    ) -> _Leg:
        """Rows into an E-type stage: Vi->Ei, or BVi->BEi-1 for gradients."""
        idx = self._index
        if backward:
            src_routers = self.stage_map.routers(f"BV{layer}")
            ptr, routers = self._block_routers_by(cells, layer - 1, True)
            groups, tag = idx.occupied_rows, f"BV{layer}->BE{layer - 1}"
        else:
            src_routers = self.stage_map.routers(f"V{layer}")
            ptr, routers = self._block_routers_by(cells, layer, False)
            groups, tag = idx.occupied_cols, f"V{layer}->E{layer}"
        bounds, los, his, firsts, stops = self._chunk_spans(src_routers, groups)
        # When an E stage's block set exceeds its crossbar budget, blocks
        # are processed in rounds over disjoint block-COLUMN ranges, so
        # each input row is still delivered once (to the round that owns
        # its column group).  Each (group, source chunk) pair is one row.
        group, chunk = csr_spans(firsts, stops)
        lo = np.maximum(los[group], bounds[chunk])
        rows = np.maximum(np.minimum(his[group], bounds[chunk + 1]) - lo, 0)
        entry_row, at = csr_spans(ptr[group], ptr[group + 1])
        bits = rows * max(width * self.data_bits, 0)
        return tag, np.asarray(src_routers)[chunk], bits, entry_row, routers[at]

    def _leg_partial_sums(
        self, cells: _Cells, layer: int, dout: int, backward: bool = False
    ) -> _Leg:
        """Within-stage reduction: partial block products to the row home.

        Every router holding a block of a group sends the group's rows
        once to the group's home.  Block-rows (block-columns on a
        backward stage) are the grid's major coordinate: group ``g``'s
        blocks sit at ``(g mod a, res)`` for the residues ``res`` of its
        other coordinate modulo ``b``.
        """
        stage = f"BE{layer}" if backward else f"E{layer}"
        placement = self._placement(layer, backward)
        a, b = placement.grid
        idx = self._index
        occupied = idx.occupied_cols if backward else idx.occupied_rows
        g, res = cells("col" if backward else "row", b)
        groups = occupied[g]
        holders = np.asarray(placement.routers)[(groups % a) * b + res]
        # Which routers hold a block of which group, each pair once.
        pairs = distinct(groups * self._num_ids + holders)
        groups, srcs = np.divmod(pairs, self._num_ids)
        los, his = self._group_rows(groups)
        bits = (his - los) * (dout * self.data_bits)
        homes = self._homes(stage, groups)
        return f"{stage}->{stage}", srcs, bits, np.arange(srcs.size), homes

    def _leg_e_out(self, layer: int, dout: int) -> _Leg:
        """Ei -> Vi+1 (and BVi+1): aggregated rows fan out (multicast)."""
        groups = self._index.occupied_rows
        stages = (f"V{layer + 1}", f"BV{layer + 1}")[:1 + self.training]
        owners = zip(*(self._owners(stage, groups) for stage in stages))
        rows, dests = (np.concatenate(column) for column in owners)
        los, his = self._group_rows(groups)
        bits = (his - los) * (dout * self.data_bits)
        src = self._homes(f"E{layer}", groups)
        return f"E{layer}->V{layer + 1}", src, bits, rows, dests

    def _leg_e_to_be(
        self, cells: _Cells, layer: int, dout: int, gradient: bool
    ) -> _Leg:
        """Ei -> BEi: ReLU masks (plus the loss gradient at the last layer)."""
        groups = self._index.occupied_rows
        ptr, routers = self._block_routers_by(cells, layer, True)
        entry_row, at = csr_spans(ptr[:-1], ptr[1:])
        los, his = self._group_rows(groups)
        bits = (his - los) * (dout * (self.data_bits + 1 if gradient else 1))
        src = self._homes(f"E{layer}", groups)
        return f"E{layer}->BE{layer}", src, bits, entry_row, routers[at]

    def _leg_be_to_bv(self, layer: int, dout: int) -> _Leg:
        """BEi -> BVi: back-propagated rows to their chunk owners."""
        groups = self._index.occupied_cols
        entry_row, dests = self._owners(f"BV{layer}", groups)
        los, his = self._group_rows(groups)
        bits = (his - los) * (dout * self.data_bits)
        src = self._homes(f"BE{layer}", groups)
        return f"BE{layer}->BV{layer}", src, bits, entry_row, dests

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def leg_volumes(self) -> dict[tuple[str, str], float]:
        """Total bits per (src_stage, dst_stage) leg — the SA cost weights."""
        table = self.messages()
        totals = np.bincount(table.tag, weights=table.bits, minlength=len(table.tags))
        volumes: dict[tuple[str, str], float] = {}
        for code in dict.fromkeys(table.tag.tolist()):
            src_stage, dst_stage = table.tags[code].split("->")
            volumes[(src_stage, dst_stage)] = float(totals[code])
            if dst_stage.startswith("V"):
                # The same messages also reach BV{i+1} (saved activations);
                # credit that leg so the annealer pulls it close too.
                volumes[(src_stage, "B" + dst_stage)] = float(totals[code])
        return volumes

    def multicast_degree(self) -> float:
        """Mean destination count per message (diagnostic)."""
        fanout = np.diff(self.messages().dest_ptr)
        return float(np.mean(fanout)) if fanout.size else 0.0


def _coalesce(legs: list[_Leg], num_ids: int) -> MessageTable:
    """The legs' rows as one canonically numbered, coalesced table."""
    names, srcs, bits, rows, dests = zip(*legs)
    tags = sorted(set(names))
    sizes = [leg_src.size for leg_src in srcs]
    tag = np.repeat([tags.index(name) for name in names], sizes)
    offsets = np.cumsum([0, *sizes[:-1]])
    rows = np.concatenate([leg_rows + off for leg_rows, off in zip(rows, offsets)])
    src, bits, dests = np.concatenate(srcs), np.concatenate(bits), np.concatenate(dests)
    # One entry per (row, destination), sorted; no row sends to its source.
    rows, dests = np.divmod(distinct(rows * num_ids + dests), num_ids)
    own = dests == src[rows]
    fanout = np.bincount(rows[~own], minlength=src.size)
    live = (fanout > 0) & (bits > 0)
    ptr = np.concatenate(([0], np.cumsum(fanout[live])))
    src, bits, tag, dests = src[live], bits[live], tag[live], dests[~own & live[rows]]
    # Rank by (src, dests, tag), tag codes in tag-name order; equal keys merge.
    keys = np.column_stack((src, padded_rows(ptr, dests), tag))
    order = np.lexsort(keys.T[::-1])
    first = np.ones(order.size, dtype=bool)
    first[1:] = np.any(np.diff(keys[order], axis=0) != 0, axis=1)
    rep = order[first]
    _, at = csr_spans(ptr[rep], ptr[rep + 1])
    return MessageTable(
        src=src[rep],
        dest_ptr=np.concatenate(([0], np.cumsum(np.diff(ptr)[rep]))),
        dests=dests[at],
        bits=np.add.reduceat(bits[order], np.flatnonzero(first)),
        inject=np.zeros(rep.size, dtype=np.int64),
        tag=tag[rep],
        tags=tuple(tags),
        msg_id=np.arange(rep.size),
    )


