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

**Extraction.**  :meth:`GNNTrafficModel.messages` builds the set through
a vectorized numpy group-by over the nonzero blocks, stable-sorted by
block row/column so per-group destination lists come out in original
block order.  The single-destination partial-sum legs are summed per
(router, home) pair entirely in numpy.  The multicast legs build each
destination set exactly as the coalescing helper does, since a set's
iteration order depends on how it was built and shows in the ``str``
order that numbers the messages.  The original per-router Python loops
live in ``tests/oracles/traffic_loops.py``; the differential tests assert
both produce bit-identical message ids, ordering and contents.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.core.config import ReGraphXConfig
from repro.core.mapping import StageMap
from repro.noc.packet import Message
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

    def block_routers(self, brs: np.ndarray, bcs: np.ndarray) -> np.ndarray:
        """Routers holding blocks ``(brs[k], bcs[k])``."""
        a, b = self.grid
        if self.transposed:
            brs, bcs = bcs, brs
        return np.asarray(self.routers)[(brs % a) * b + (bcs % b)]


@dataclass(frozen=True)
class _BlockIndex:
    """Row/column adjacency structure of the nonzero blocks.

    The index carries stable group-by orderings of the raw block arrays:
    ``order_by_col`` sorts blocks by block-column while preserving the
    original block order inside each column (likewise ``order_by_row``),
    so per-group slices enumerate partners in original block order.
    """

    occupied_rows: np.ndarray
    occupied_cols: np.ndarray
    brs: np.ndarray  # block-row of every nonzero block
    bcs: np.ndarray  # block-col of every nonzero block
    order_by_col: np.ndarray  # stable argsort of bcs
    order_by_row: np.ndarray  # stable argsort of brs
    col_splits: np.ndarray  # split points into order_by_col per occupied col
    row_splits: np.ndarray  # split points into order_by_row per occupied row


def _build_block_index(mapping: BlockMapping) -> _BlockIndex:
    nbc = mapping.num_block_cols
    brs = mapping.block_ids // nbc
    bcs = mapping.block_ids % nbc
    occupied_rows = np.unique(brs)
    occupied_cols = np.unique(bcs)
    order_by_col = np.argsort(bcs, kind="stable")
    order_by_row = np.argsort(brs, kind="stable")
    return _BlockIndex(
        occupied_rows=occupied_rows,
        occupied_cols=occupied_cols,
        brs=brs,
        bcs=bcs,
        order_by_col=order_by_col,
        order_by_row=order_by_row,
        col_splits=np.searchsorted(bcs[order_by_col], occupied_cols[1:]),
        row_splits=np.searchsorted(brs[order_by_row], occupied_rows[1:]),
    )


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
        self._index = _build_block_index(block_mapping)
        # (layer, transposed, axis) -> per-group dest-router sets.
        self._group_cache: dict[tuple[int, bool, str], list[set[int]]] = {}

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

    def _group_rows(self, group: int) -> tuple[int, int]:
        """Row range [lo, hi) covered by block group ``group``."""
        lo = group * self.block_size
        hi = min(lo + self.block_size, self.num_nodes)
        return lo, hi

    # ------------------------------------------------------------------
    # Group-by helpers
    # ------------------------------------------------------------------
    def _block_routers_by(
        self, layer: int, transposed: bool, axis: str
    ) -> list[set[int]]:
        """Per-group sets of block-holding routers, numpy group-by built.

        ``axis="col"`` groups by block-column (aligned with
        ``occupied_cols``); ``axis="row"`` by block-row.  Each set is
        built from its group's routers in original block order, the order
        the reference loops (``tests/oracles/traffic_loops.py``) insert
        them, so it iterates as theirs do.  Callers must not mutate it.
        """
        key = (layer, transposed, axis)
        cached = self._group_cache.get(key)
        if cached is not None:
            return cached
        idx = self._index
        placement = self._placement(layer, backward=transposed)
        per_block = placement.block_routers(idx.brs, idx.bcs)
        if axis == "col":
            order, splits = idx.order_by_col, idx.col_splits
        else:
            order, splits = idx.order_by_row, idx.row_splits
        flat = per_block[order].tolist()
        cuts = [0, *splits.tolist(), len(flat)]
        grouped = [set(flat[a:b]) for a, b in zip(cuts, cuts[1:])]
        self._group_cache[key] = grouped
        return grouped

    def _chunk_spans(
        self, routers: tuple[int, ...], groups: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized chunk-ownership spans for every group's row range.

        Returns ``(bounds, los, his, firsts, lasts)`` where chunk indices
        ``firsts[k]..lasts[k]`` of ``routers`` cover rows
        ``[los[k], his[k])`` of group ``groups[k]``.
        """
        bounds = self._chunk_bounds(routers)
        los = groups * self.block_size
        his = np.minimum(los + self.block_size, self.num_nodes)
        firsts = np.maximum(np.searchsorted(bounds, los, side="right") - 1, 0)
        lasts = np.minimum(
            np.searchsorted(bounds, his - 1, side="right") - 1, len(routers) - 1
        )
        return bounds, los, his, firsts, lasts

    # ------------------------------------------------------------------
    # Message construction
    # ------------------------------------------------------------------
    def messages(self) -> list[Message]:
        """The full message set of one pipeline period, all legs tagged."""
        acc: dict[tuple[int, frozenset[int], str], int] = defaultdict(int)
        num_layers = self.config.num_layers
        for i in range(1, num_layers + 1):
            din, dout = self.layer_dims[i - 1]
            self._vec_leg_into_e(acc, i, dout, backward=False)
            self._vec_leg_partial_sums(acc, i, dout, backward=False)
            self._vec_leg_e_out(acc, i, dout, is_last=(i == num_layers))
            if not self.training:
                continue
            self._vec_leg_e_to_be(acc, i, dout, gradient=(i == num_layers))
            self._vec_leg_partial_sums(acc, i, dout, backward=True)
            self._vec_leg_be_to_bv(acc, i, dout)
            if i > 1:
                self._vec_leg_into_e(acc, i, din, backward=True)
        # Message ids follow the ``str`` order of the ``(key, bits)`` items,
        # spelled out as ``str`` would.  A destination set's repr follows
        # its iteration order, which depends on how the set was built.
        items = list(acc.items())
        text = [
            f"(({src!r}, {dests!r}, {tag!r}), {bits!r})"
            for (src, dests, tag), bits in items
        ]
        keyed = [items[k] for k in sorted(range(len(items)), key=text.__getitem__)]
        return [
            Message(
                src=src,
                dests=tuple(sorted(dests)),
                size_bits=bits,
                tag=tag,
                msg_id=msg_id,
            )
            for msg_id, ((src, dests, tag), bits) in enumerate(keyed)
        ]

    def _add(
        self,
        acc: dict[tuple[int, frozenset[int], str], int],
        src: int,
        dests: set[int],
        bits: int,
        tag: str,
    ) -> None:
        dests = dests - {src}
        if not dests or bits <= 0:
            return
        acc[(src, frozenset(dests), tag)] += bits

    # ------------------------------------------------------------------
    # Legs (numpy group-by)
    # ------------------------------------------------------------------
    def _vec_leg_into_e(self, acc, layer: int, width: int, backward: bool) -> None:
        """Rows into an E-type stage: Vi->Ei, or BVi->BEi-1 for gradients."""
        idx = self._index
        if backward:
            src_routers = self.stage_map.routers(f"BV{layer}")
            dest_groups = self._block_routers_by(layer - 1, transposed=True, axis="row")
            groups = idx.occupied_rows
            tag = f"BV{layer}->BE{layer - 1}"
        else:
            src_routers = self.stage_map.routers(f"V{layer}")
            dest_groups = self._block_routers_by(layer, transposed=False, axis="col")
            groups = idx.occupied_cols
            tag = f"V{layer}->E{layer}"
        bounds, los, his, firsts, lasts = self._chunk_spans(src_routers, groups)
        # When an E stage's block set exceeds its crossbar budget, blocks
        # are processed in rounds over disjoint block-COLUMN ranges, so
        # each input row is still delivered once (to the round that owns
        # its column group).
        factor = width * self.data_bits
        if factor <= 0:
            return
        bounds = bounds.tolist()
        for dests, lo, hi, first, last in zip(
            dest_groups, los.tolist(), his.tolist(), firsts.tolist(), lasts.tolist()
        ):
            # ``frozenset(dests - {src})`` is built the same way, with the
            # same iteration order, for every source outside ``dests``.
            outside = None
            for c in range(first, last + 1):
                rows = min(hi, bounds[c + 1]) - max(lo, bounds[c])
                if rows <= 0:
                    continue
                src = src_routers[c]
                if src in dests:
                    key = frozenset(dests - {src})
                    if not key:
                        continue
                else:
                    if outside is None:
                        outside = frozenset(dests - {src})
                    key = outside
                acc[(src, key, tag)] += rows * factor

    def _vec_leg_partial_sums(self, acc, layer: int, dout: int, backward: bool) -> None:
        """Within-stage reduction: partial block products to the row home.

        Every router holding a block of a group sends the group's rows
        once to the group's home.  The keys are single-destination, so
        the (router, home) volumes are summed in numpy and added once.
        """
        idx = self._index
        stage = f"BE{layer}" if backward else f"E{layer}"
        placement = self._placement(layer, backward=backward)
        num_ids = max(placement.routers) + 1
        # Which routers hold a block of which group, each pair once.
        pairs = np.sort(
            (idx.bcs if backward else idx.brs) * num_ids
            + placement.block_routers(idx.brs, idx.bcs)
        )
        first = np.ones(pairs.size, dtype=bool)
        first[1:] = pairs[1:] != pairs[:-1]
        groups, srcs = np.divmod(pairs[first], num_ids)
        routers = np.asarray(placement.routers)
        homes = routers[groups % len(routers)]
        los = groups * self.block_size
        bits = (np.minimum(los + self.block_size, self.num_nodes) - los) * (
            dout * self.data_bits
        )
        keep = (srcs != homes) & (bits > 0)
        links, inverse = np.unique(
            srcs[keep] * num_ids + homes[keep], return_inverse=True
        )
        totals = np.zeros(links.size, dtype=np.int64)
        np.add.at(totals, inverse, bits[keep])
        tag = f"{stage}->{stage}"
        for link, total in zip(links.tolist(), totals.tolist()):
            src, home = divmod(link, num_ids)
            acc[(src, frozenset((home,)), tag)] += total

    def _vec_leg_e_out(self, acc, layer: int, dout: int, is_last: bool) -> None:
        """Ei -> Vi+1 (and BVi+1): aggregated rows fan out (multicast)."""
        if is_last:
            return  # the last E stage feeds the loss turnaround instead
        idx = self._index
        e_routers = self.stage_map.routers(f"E{layer}")
        num_e = len(e_routers)
        v_next = self.stage_map.routers(f"V{layer + 1}")
        bv_next = (
            self.stage_map.routers(f"BV{layer + 1}") if self.training else ()
        )
        groups = idx.occupied_rows
        _, los, his, v_firsts, v_lasts = self._chunk_spans(v_next, groups)
        if bv_next:
            _, _, _, bv_firsts, bv_lasts = self._chunk_spans(bv_next, groups)
        tag = f"E{layer}->V{layer + 1}"
        factor = dout * self.data_bits
        for k, br in enumerate(groups.tolist()):
            src = e_routers[br % num_e]
            dests = set(v_next[int(v_firsts[k]):int(v_lasts[k]) + 1])
            if bv_next:
                dests |= set(bv_next[int(bv_firsts[k]):int(bv_lasts[k]) + 1])
            self._add(acc, src, dests, int(his[k] - los[k]) * factor, tag)

    def _vec_leg_e_to_be(self, acc, layer: int, dout: int, gradient: bool) -> None:
        """Ei -> BEi: ReLU masks (plus the loss gradient at the last layer)."""
        idx = self._index
        e_routers = self.stage_map.routers(f"E{layer}")
        num_e = len(e_routers)
        dest_groups = self._block_routers_by(layer, transposed=True, axis="row")
        bits_per_value = self.data_bits + 1 if gradient else 1
        tag = f"E{layer}->BE{layer}"
        factor = dout * bits_per_value
        for k, br in enumerate(idx.occupied_rows.tolist()):
            lo, hi = self._group_rows(br)
            src = e_routers[br % num_e]
            self._add(acc, src, dest_groups[k], (hi - lo) * factor, tag)

    def _vec_leg_be_to_bv(self, acc, layer: int, dout: int) -> None:
        """BEi -> BVi: back-propagated rows to their chunk owners."""
        idx = self._index
        be_routers = self.stage_map.routers(f"BE{layer}")
        num_be = len(be_routers)
        bv_routers = self.stage_map.routers(f"BV{layer}")
        groups = idx.occupied_cols
        _, los, his, firsts, lasts = self._chunk_spans(bv_routers, groups)
        tag = f"BE{layer}->BV{layer}"
        factor = dout * self.data_bits
        for k, bc in enumerate(groups.tolist()):
            src = be_routers[bc % num_be]
            dests = set(bv_routers[int(firsts[k]):int(lasts[k]) + 1])
            self._add(acc, src, dests, int(his[k] - los[k]) * factor, tag)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def leg_volumes(self) -> dict[tuple[str, str], float]:
        """Total bits per (src_stage, dst_stage) leg — the SA cost weights."""
        volumes: dict[tuple[str, str], float] = defaultdict(float)
        for msg in self.messages():
            src_stage, dst_stage = msg.tag.split("->")
            volumes[(src_stage, dst_stage)] += msg.size_bits
            if dst_stage.startswith("V"):
                # The same messages also reach BV{i+1} (saved activations);
                # credit that leg so the annealer pulls it close too.
                volumes[(src_stage, "B" + dst_stage)] += msg.size_bits
        return dict(volumes)

    def multicast_degree(self) -> float:
        """Mean destination count per message (diagnostic)."""
        msgs = self.messages()
        if not msgs:
            return 0.0
        return float(np.mean([len(m.dests) for m in msgs]))


# ----------------------------------------------------------------------
# Cross-model validation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NoCValidation:
    """Agreement between the static schedule and the flit-level simulator
    on one message set (unicast expansion on both sides)."""

    static_makespan_cycles: int
    simulated_makespan_cycles: int
    flit_hops_match: bool
    num_messages: int

    @property
    def makespan_ratio(self) -> float:
        """static / simulated; ~1 means the models agree, >1 means the
        static schedule is (expectedly) more conservative."""
        if self.simulated_makespan_cycles == 0:
            return 1.0
        return self.static_makespan_cycles / self.simulated_makespan_cycles


def cross_validate_traffic(
    topo,
    noc_config,
    messages: list[Message],
) -> NoCValidation:
    """Check a message set against both NoC models (paper Sec. V.A).

    Runs the static conflict-free schedule analyzer and the event-driven
    flit-level simulator (affordable even on full GNN traffic sets) over
    the same unicast expansion and reports how closely
    they agree.  Used by the integration suite and NoC-scaling studies to
    confirm the scheduler's contention model on real pipeline traffic.
    """
    from repro.noc.schedule import StaticScheduler
    from repro.noc.simulator import FlitSimulator

    static = StaticScheduler(topo, noc_config).simulate(messages, multicast=False)
    simulated = FlitSimulator(topo, noc_config).simulate(messages)
    return NoCValidation(
        static_makespan_cycles=static.makespan_cycles,
        simulated_makespan_cycles=simulated.makespan_cycles,
        flit_hops_match=simulated.total_flit_hops == static.total_flit_hops,
        num_messages=len(messages),
    )
