"""Lazy on-the-fly composition over compiled component kernels.

The compilation plan rebuilds a composed implementation with
:class:`~repro.csp.process.CompiledProcess` leaves standing in for its
compressed components.  The generic on-the-fly path then replays those
leaves through the term-level SOS -- correct, but every expanded state
allocates a fresh process term per component move and hashes whole terms
into the state index.

:class:`ProductLTS` specialises exactly that case.  When the prepared term
is a pure composition spine (generalised parallel / interleave / hiding /
renaming) over compiled leaves, a product state is just the tuple of
component kernel states, and a state's successors can be synthesised
directly from the components' flat CSR spans -- no term objects, no SOS
dispatch, tuple hashing instead of term hashing.  The synthesis mirrors the
SOS rules move for move (left non-sync moves first, then right non-sync,
then synchronised pairs in left-major order; hiding maps to tau in place;
renaming relabels ids), so exploration order, verdicts, counterexamples and
explored-state counts are identical to the term-level path it replaces.

Like :class:`~repro.fdr.refine.LazyImplementation`, it is an
:class:`~repro.fdr.refine.OnTheFlyLTS`: expanded edges land in that class's
shared flat span store and states are numbered in discovery order, which
coincides with the term-level numbering because distinct tuples correspond
exactly to distinct substituted terms.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from ..csp.events import AlphabetTable, TAU_ID, TICK_ID
from ..csp.kernel import StateId
from ..csp.lts import DEFAULT_STATE_LIMIT
from ..csp.process import (
    CompiledProcess,
    GenParallel,
    Hiding,
    Interleave,
    Process,
    Renaming,
)
from ..fdr.refine import OnTheFlyLTS

#: one synthesised move: (interned event id, successor leaf-state tuple)
_Move = Tuple[int, Tuple[StateId, ...]]


def _must_sync(eid: int, sync_ids: Optional[FrozenSet[int]]) -> bool:
    """The SOS synchronisation test on interned ids: tick always, tau never,
    a visible event iff it is in the (generalised) sync set."""
    if eid == TICK_ID:
        return True
    if eid == TAU_ID:
        return False
    return sync_ids is not None and eid in sync_ids


class _Leaf:
    """One compiled component: moves come straight off its kernel spans.

    ``remap`` translates the kernel's event ids into the pipeline table's
    ids when the component was compiled under a different pipeline (shared
    compressed cache); None means the kernel already lives in the
    pipeline's id space.
    """

    __slots__ = ("position", "lts", "remap")

    def __init__(self, position: int, lts, remap: Optional[Dict[int, int]]) -> None:
        self.position = position
        self.lts = lts
        self.remap = remap

    def moves(self, tup: Tuple[StateId, ...]) -> List[_Move]:
        events, targets, lo, hi = self.lts.successors_span(tup[self.position])
        k = self.position
        prefix, suffix = tup[:k], tup[k + 1 :]
        remap = self.remap
        if remap is None:
            return [
                (events[i], prefix + (targets[i],) + suffix)
                for i in range(lo, hi)
            ]
        return [
            (remap[events[i]], prefix + (targets[i],) + suffix)
            for i in range(lo, hi)
        ]


class _Par:
    """Generalised parallel (interleave = empty sync set).

    ``split`` is the first leaf position of the right subtree: left-subtree
    moves change only positions below it, right-subtree moves only positions
    at or above it, so a synchronised pair merges as
    ``left_tuple[:split] + right_tuple[split:]``.
    """

    __slots__ = ("left", "right", "split", "sync_ids")

    def __init__(self, left, right, split: int, sync_ids) -> None:
        self.left = left
        self.right = right
        self.split = split
        self.sync_ids = sync_ids

    def moves(self, tup: Tuple[StateId, ...]) -> List[_Move]:
        left_moves = self.left.moves(tup)
        right_moves = self.right.moves(tup)
        sync_ids = self.sync_ids
        result: List[_Move] = []
        for eid, new in left_moves:
            if not _must_sync(eid, sync_ids):
                result.append((eid, new))
        for eid, new in right_moves:
            if not _must_sync(eid, sync_ids):
                result.append((eid, new))
        split = self.split
        for leid, lnew in left_moves:
            if not _must_sync(leid, sync_ids):
                continue
            for reid, rnew in right_moves:
                if reid == leid:
                    result.append((leid, lnew[:split] + rnew[split:]))
        return result


class _Hide:
    """Hiding: hidden visible events become tau, order untouched."""

    __slots__ = ("child", "hidden_ids")

    def __init__(self, child, hidden_ids: FrozenSet[int]) -> None:
        self.child = child
        self.hidden_ids = hidden_ids

    def moves(self, tup: Tuple[StateId, ...]) -> List[_Move]:
        hidden = self.hidden_ids
        return [
            (TAU_ID, new) if eid > TICK_ID and eid in hidden else (eid, new)
            for eid, new in self.child.moves(tup)
        ]


class _Rename:
    """Renaming: relabel visible ids through a precomputed map."""

    __slots__ = ("child", "id_map")

    def __init__(self, child, id_map: Dict[int, int]) -> None:
        self.child = child
        self.id_map = id_map

    def moves(self, tup: Tuple[StateId, ...]) -> List[_Move]:
        id_map = self.id_map
        return [
            (id_map.get(eid, eid), new) if eid > TICK_ID else (eid, new)
            for eid, new in self.child.moves(tup)
        ]


class ProductLTS(OnTheFlyLTS):
    """On-the-fly product of compiled component kernels (span protocol).

    Drives :class:`~repro.fdr.refine._ProductSearch` exactly like a
    :class:`~repro.fdr.refine.LazyImplementation`; a state's key is the
    tuple of component kernel states.
    """

    expansion_metric = "product.states_expanded"

    def __init__(
        self,
        template: Process,
        node,
        kernels: List,
        table: AlphabetTable,
        max_states: int = DEFAULT_STATE_LIMIT,
    ) -> None:
        super().__init__(_initial_tuple(template), table, max_states)
        self._template = template
        self._node = node
        self._kernels = kernels

    @classmethod
    def for_term(
        cls,
        term: Process,
        table: AlphabetTable,
        max_states: int = DEFAULT_STATE_LIMIT,
    ) -> Optional["ProductLTS"]:
        """A product view of *term*, or None when it does not qualify.

        Qualifying terms are composition spines (parallel / interleave /
        hiding / renaming) whose leaves are all ``CompiledProcess`` handles
        -- exactly what the compilation plan emits when every component
        compiled.  A degraded leaf (a raw SOS term) or a bare compiled
        process (no composition to synthesise) returns None and the caller
        falls back to the term-level path.
        """
        if not isinstance(term, (GenParallel, Interleave, Hiding, Renaming)):
            return None
        kernels: List = []
        node = _build(term, kernels, table)
        if node is None:
            return None
        return cls(term, node, kernels, table, max_states)

    # -- the automaton protocol ----------------------------------------------

    def _moves(self, tup: Tuple[StateId, ...]) -> List[_Move]:
        return self._node.moves(tup)

    def term_of(self, state: StateId) -> Process:
        """The substituted spine term this product state corresponds to.

        Byte-compatible with the term the SOS path would have evolved:
        the spine operators are rebuilt unchanged around fresh
        ``CompiledProcess`` leaves at the tuple's states, which is exactly
        what the parallel/hiding/renaming rules produce.
        """
        tup = self._keys[state]
        position = [0]

        def subst(term: Process) -> Process:
            if isinstance(term, CompiledProcess):
                k = position[0]
                position[0] += 1
                if term.state == tup[k]:
                    return term
                return CompiledProcess(term.automaton, tup[k])
            if isinstance(term, GenParallel):
                return GenParallel(subst(term.left), subst(term.right), term.sync)
            if isinstance(term, Interleave):
                return Interleave(subst(term.left), subst(term.right))
            if isinstance(term, Hiding):
                return Hiding(subst(term.process), term.hidden)
            return Renaming(subst(term.process), dict(term.mapping))

        return subst(self._template)

    def __repr__(self) -> str:
        return "ProductLTS({} components, {} states discovered)".format(
            len(self._kernels), self.state_count
        )


def _initial_tuple(term: Process) -> Tuple[StateId, ...]:
    """The compiled-leaf states of the template, in leaf order."""
    order: List[StateId] = []

    def walk(current: Process) -> None:
        if isinstance(current, CompiledProcess):
            order.append(current.state)
        elif isinstance(current, (GenParallel, Interleave)):
            walk(current.left)
            walk(current.right)
        else:
            walk(current.process)

    walk(term)
    return tuple(order)


def _translation(lts, table: AlphabetTable) -> Dict[int, int]:
    """Foreign kernel event ids -> pipeline table ids.

    Tau and tick occupy the same reserved slots in every table; each
    visible event the kernel uses is decoded through its own table and
    interned into the pipeline's.  Ids are visited in ascending (foreign
    interning) order so the pipeline-side interning is deterministic.
    """
    _offsets, events, _targets = lts.csr_arrays()
    event_of = lts.table.event_of
    intern = table.intern
    remap = {TAU_ID: TAU_ID, TICK_ID: TICK_ID}
    for eid in sorted(set(events)):
        if eid > TICK_ID:
            remap[eid] = intern(event_of(eid))
    return remap


def _build(term: Process, kernels: List, table: AlphabetTable):
    """Compile the spine into move-synthesis nodes (bottom-up, or None).

    Interning happens bottom-up: every event a child can produce is either
    on a component kernel (interned when the component compiled) or a
    renaming target (interned here when the ``_Rename`` node is built), so
    resolving hiding/sync sets with ``id_of`` above it is complete -- an
    event with no id cannot be produced and is safely ignored.
    """
    if isinstance(term, CompiledProcess):
        lts = getattr(term.automaton, "lts", None)
        if lts is None or not hasattr(lts, "successors_span"):
            return None
        remap: Optional[Dict[int, int]] = None
        if lts.table is not table:
            # a component compiled under another pipeline (shared compressed
            # cache) lives in a foreign id space; translate every edge label
            # it can produce into the pipeline's ids, which is exactly the
            # decode-and-reintern the SOS replay performs per move
            remap = _translation(lts, table)
        kernels.append(lts)
        return _Leaf(len(kernels) - 1, lts, remap)
    if isinstance(term, (GenParallel, Interleave)):
        left = _build(term.left, kernels, table)
        if left is None:
            return None
        split = len(kernels)
        right = _build(term.right, kernels, table)
        if right is None:
            return None
        if isinstance(term, GenParallel):
            sync_ids = frozenset(
                eid
                for eid in (table.id_of(event) for event in term.sync)
                if eid is not None
            )
        else:
            sync_ids = None
        return _Par(left, right, split, sync_ids)
    if isinstance(term, Hiding):
        child = _build(term.process, kernels, table)
        if child is None:
            return None
        hidden_ids = frozenset(
            eid
            for eid in (table.id_of(event) for event in term.hidden)
            if eid is not None and eid > TICK_ID
        )
        return _Hide(child, hidden_ids)
    if isinstance(term, Renaming):
        child = _build(term.process, kernels, table)
        if child is None:
            return None
        id_map: Dict[int, int] = {}
        for source, target in term.mapping:
            sid = table.id_of(source)
            if sid is None:
                continue
            id_map.setdefault(sid, table.intern(target))
        return _Rename(child, id_map)
    return None
