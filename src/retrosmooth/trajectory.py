"""Quantum instruments, measurement records, and conditional state evolution.

A measurement step is an outcome-indexed family of completely positive maps
``Phi_y(rho) = sum_k M_{k|y} rho M_{k|y}†`` whose adjoints sum to the
identity.  Records are tuples of outcome labels; labels are strings for the
observer ("alice") and ``(alice, bob)`` string pairs for an instrument's
joint view, in which a hypothetical second observer ("bob") also records
which Kraus operator acted: the part of the environment alice does not see.

Filtering propagates a state forward through the conditional maps with
per-step normalization; retrofiltering propagates the identity backwards
through the adjoints, producing an (unnormalized) effect.
:func:`filter_records` and :func:`retrofilter_records` are the one
implementation of each: they take a table of records at once, level by level
over their prefix (or suffix) trie, and a record's result has the same bits
whatever table it is in.  :func:`filter` and :func:`retrofilter` are their
one-record cases.  :func:`walk_records` propagates, unnormalized, every
branch of each of a table of records whose steps are label sets, in the same
trie pass: it gives the register branches of every register prior of
:mod:`retrosmooth.smoothers` for every past at once, merging the branches of
a row that end in one reset (:attr:`Instrument.reset_classes`) when asked,
and its one-record case :func:`walk` enumerates records, unmerged.
:func:`sample_records` advances many sampled trajectories in lockstep.  All
four step by :func:`_conjugate` on (row, label) pairs, one matrix product per
row and one per Kraus operator: filtering normalizes each row by its weight,
walking drops exact zeros, sampling draws by the weights and retrofiltering
keeps every row.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Mapping, NamedTuple

import numpy as np

from .errors import (
    EnumerationTooLarge,
    InvalidMatrix,
    StepTooCoarse,
    UnknownOutcome,
    ZeroProbabilityRecord,
)
from .linalg import IDENTITY_TOL, SUBNORMAL_TOL, WEIGHT_FLOOR, as_density, as_square, dag, kraus_gram
from .linalg import _ranges, _sum_runs, completeness_defect, hermitian_part, psd_sqrt, rank_one_range
from .linalg import require_complete, require_finite, tensor

DEFAULT_ENUMERATION_CAP = 10**6


def _frozen(m) -> np.ndarray:
    a = np.array(m, dtype=complex)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class ConditionalOp:
    """A completely positive, trace-non-increasing map given by named Kraus operators.

    ``names`` must be distinct; they default to the zero-padded indices
    (``"0"``, ``"1"``, ... or ``"00"``, ...), which sort in Kraus order.
    """

    kraus: tuple[np.ndarray, ...]
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        if not self.kraus:
            raise InvalidMatrix("conditional operation needs at least one Kraus operator")
        mats = tuple(_frozen(as_square(k, "Kraus operator")) for k in self.kraus)
        dim = mats[0].shape[0]
        if any(k.shape != (dim, dim) for k in mats):
            raise InvalidMatrix("Kraus operators must share one dimension")
        indices = [str(j).zfill(len(str(len(mats) - 1))) for j in range(len(mats))]
        names = tuple(map(str, indices if self.names is None else self.names))
        if len(names) != len(mats):
            raise InvalidMatrix(f"{len(names)} names for {len(mats)} Kraus operators")
        if len(set(names)) != len(names):
            raise InvalidMatrix(f"Kraus operator names {names} are not distinct")
        top = np.linalg.eigvalsh(kraus_gram(mats))[-1]
        if top > 1.0 + SUBNORMAL_TOL:
            raise InvalidMatrix(f"Kraus operators are not subnormalized (max eig {top:g})")
        object.__setattr__(self, "kraus", mats)
        object.__setattr__(self, "names", names)

    @property
    def dim(self) -> int:
        return self.kraus[0].shape[0]


class Instrument:
    """Outcome-indexed family of conditional operations summing to a channel.

    ``ops`` maps outcome labels (strings) to :class:`ConditionalOp`.  The
    completeness relation is verified on construction unless ``check=False``
    (useful only for testing defective inputs).  :attr:`joint` reads the name
    of the Kraus operator that acted as the record of a second observer, bob.
    """

    def __init__(self, ops: Mapping[Hashable, ConditionalOp], *, check: bool = True):
        self.ops: dict = dict(ops)
        self._kraus_stacks: dict[tuple[int, bool], tuple] = {}
        if not self.ops:
            raise InvalidMatrix("instrument needs at least one outcome")
        if check:
            dims = {op.dim for op in self.ops.values()}
            if len(dims) != 1:
                raise InvalidMatrix(f"instrument mixes dimensions {sorted(dims)}")
            require_complete(self.completeness_defect(), "instrument")

    @classmethod
    def from_pairs(cls, pairs) -> "Instrument":
        """Outcome ``alice`` gets the Kraus operator named ``bob`` of each ``((alice, bob), kraus)``.

        Outcomes keep the order of their first pair, Kraus operators that of their pairs.
        """
        grouped: dict[str, list] = {}
        for (y, u), k in pairs:
            grouped.setdefault(str(y), []).append((k, str(u)))
        return cls({y: ConditionalOp(*zip(*named)) for y, named in grouped.items()})

    @cached_property
    def joint(self) -> "Instrument":
        """The joint view: one rank-one operation per ``(outcome, Kraus name)``, in Kraus order."""
        named = ((y, u, k) for y, op in self.ops.items() for u, k in zip(op.names, op.kraus))
        return Instrument({(y, u): ConditionalOp((k,)) for y, u, k in named}, check=False)

    def kraus_stack(self, dim_extra: int = 1, adjoint: bool = False) -> tuple[np.ndarray, list]:
        """Each outcome's Kraus operators lifted to ``dim_extra`` ancilla dimensions, as ``(left, right)``.

        ``left`` stacks every operator, in outcome order and in Kraus order
        within it, as the rows of one ``(n_ops * D, D)`` matrix; ``right`` holds
        one stack of their adjoints per outcome label.  ``adjoint`` swaps the
        two.  Built once per ``dim_extra`` and orientation and kept, its arrays
        read-only.
        """
        if (dim_extra, adjoint) not in self._kraus_stacks:
            eye = np.eye(dim_extra)
            ops = [np.stack([tensor(k, eye) for k in op.kraus]) for op in self.ops.values()]
            left, right = (ops, [dag(k) for k in ops])[:: -1 if adjoint else 1]
            rows = np.concatenate(left).reshape(-1, left[0].shape[-1])
            self._kraus_stacks[dim_extra, adjoint] = _frozen(rows), [_frozen(k) for k in right]
        return self._kraus_stacks[dim_extra, adjoint]

    @cached_property
    def reset_classes(self) -> np.ndarray:
        """Each outcome label's reset class, or ``-1`` for a label that is not a reset, in label order.

        A label is a *reset* when its Kraus operators are all rank one with
        one shared range vector ``|a⟩``: whatever the state, it leaves a
        multiple of ``|a⟩⟨a|``.  Labels whose ``|a⟩`` agree up to phase form
        one class, numbered in label order.  Both tests are
        :func:`~retrosmooth.linalg.rank_one_range`: of the label's operators
        side by side, and of two range vectors side by side.  Found on first
        use and kept, read-only.
        """
        targets, found = [], []
        for op in self.ops.values():
            a = rank_one_range(np.concatenate(op.kraus, axis=1))
            same = (c for c, b in enumerate(targets) if rank_one_range(np.stack([b, a], axis=1)) is not None)
            c = -1 if a is None else next(same, len(targets))
            if c == len(targets):
                targets.append(a)
            found.append(c)
        classes = np.array(found, dtype=int)
        classes.setflags(write=False)
        return classes

    @property
    def outcome_labels(self) -> tuple:
        return tuple(self.ops)

    @property
    def dim(self) -> int:
        return next(iter(self.ops.values())).dim

    def op(self, y) -> ConditionalOp:
        try:
            return self.ops[y]
        except KeyError:
            raise UnknownOutcome(f"outcome {y!r} not in alphabet {self.outcome_labels}") from None

    def completeness_defect(self) -> float:
        return completeness_defect([k for op in self.ops.values() for k in op.kraus], self.dim)


@dataclass(frozen=True, eq=False)
class JumpChannel:
    """A Lindblad jump channel with a detection efficiency in ``[0, 1]``.

    Detection is always jump-like: a detected jump is one outcome, and no
    jump or an undetected one is the other.
    """

    operator: np.ndarray
    efficiency: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "operator", _frozen(as_square(self.operator, "jump operator")))
        eta = float(self.efficiency)
        if not 0.0 <= eta <= 1.0:
            raise InvalidMatrix(f"efficiency {eta} outside [0, 1]")
        object.__setattr__(self, "efficiency", eta)


@dataclass(frozen=True, eq=False)
class LindbladSpec:
    """Markovian master-equation ingredients plus a finite time step (hbar = 1)."""

    hamiltonian: np.ndarray
    jump_ops: tuple[JumpChannel, ...]
    dt: float

    def __post_init__(self):
        h = _frozen(as_square(self.hamiltonian, "hamiltonian"))
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "jump_ops", tuple(self.jump_ops))
        if self.dt <= 0:
            raise InvalidMatrix(f"dt must be positive, got {self.dt}")
        for ch in self.jump_ops:
            if ch.operator.shape != h.shape:
                raise InvalidMatrix("jump operators must match the hamiltonian dimension")

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]


def discretize(spec: LindbladSpec) -> Instrument:
    """First-order Kraus discretization of one Lindblad time step.

    The no-jump operator is ``M0 = I - (iH + sum_c L_c† L_c / 2) dt`` and each
    channel contributes a jump operator ``sqrt(dt) L_c``, split between a
    detected (alice) outcome with weight ``eta_c`` and an undetected (bob)
    one with weight ``1 - eta_c``.  Outcomes are ``"0"`` (no detected jump)
    and ``str(c+1)``; each Kraus operator is named by its bob label, so the
    joint labels are ``("0", "0")`` for no jump, ``(str(c+1), "0")`` for the
    detected jump of channel ``c`` and ``("0", str(c+1))`` for the undetected
    one.

    The raw first-order family misses completeness at ``O(dt^2)``; that is
    repaired exactly by replacing ``M0`` with ``U sqrt(I - sum_jumps M† M)``,
    ``U`` the unitary polar factor of ``M0``, which keeps the first-order
    dynamics and makes ``sum M† M = I`` to machine precision.  The step is
    rejected as :class:`StepTooCoarse` when the repair is impossible: the
    jump weight of a single step exceeds one by more than ``IDENTITY_TOL``.
    """
    d = spec.dim
    eye = np.eye(d)
    # an entry too large for a float overflows the step: require_finite rejects it below, unwarned
    with np.errstate(over="ignore", invalid="ignore"):
        h = hermitian_part(np.asarray(spec.hamiltonian))
        sink = sum((dag(ch.operator) @ ch.operator for ch in spec.jump_ops), np.zeros((d, d), complex))
        m0_raw = eye - (1j * h + 0.5 * sink) * spec.dt
        jumps: dict[tuple[str, str], np.ndarray] = {}
        for c, ch in enumerate(spec.jump_ops):
            label = str(c + 1)
            if ch.efficiency > 0.0:
                jumps[(label, "0")] = np.sqrt(ch.efficiency * spec.dt) * ch.operator
            if ch.efficiency < 1.0:
                jumps[("0", label)] = np.sqrt((1.0 - ch.efficiency) * spec.dt) * ch.operator
        jump_gram = sum((dag(m) @ m for m in jumps.values()), np.zeros((d, d), complex))
        gap = hermitian_part(eye - jump_gram)
    require_finite(np.stack([m0_raw, gap]), "discretized step")
    if np.linalg.eigvalsh(gap)[0] < -IDENTITY_TOL:
        raise StepTooCoarse("jump probabilities exceed one within a single step; reduce dt")
    w, _, vh = np.linalg.svd(m0_raw)
    m0 = (w @ vh) @ psd_sqrt(gap)
    return Instrument.from_pairs([(("0", "0"), m0), *sorted(jumps.items())])


def apply_conditional(op: ConditionalOp, rho) -> tuple[np.ndarray, float]:
    """Apply one conditional operation; returns the unnormalized output and its trace."""
    a = np.asarray(rho, dtype=complex)
    out = sum(k @ a @ dag(k) for k in op.kraus)
    return out, max(float(out.trace().real), 0.0)


def filter(instrument, rho0, record) -> tuple[np.ndarray, float]:
    """Filtered state given a past record, with the record's log-probability.

    Normalizes after every step; raises :class:`ZeroProbabilityRecord` if any
    step has vanishing weight.  The one-record case of :func:`filter_records`.
    """
    found = filter_records(instrument, rho0, [tuple(record)])[0]
    if found is None:
        raise ZeroProbabilityRecord("record impossible under the instrument")
    return found


def retrofilter(instrument, record) -> np.ndarray:
    """Retrofiltered effect: the identity propagated backwards through the adjoints.

    For a future record ``(y_t, ..., y_{T-1})`` this is
    ``Phi_{y_t}† ( ... Phi_{y_{T-1}}†(I) ... )``; the empty record returns the
    identity exactly.  The result is Hermitian PSD but carries no
    normalization.  The one-record case of :func:`retrofilter_records`.
    """
    return retrofilter_records(instrument, [tuple(record)])[0]


def _trie_levels(instrument, records, index=None):
    """The prefix trie of ``records``, level by level, as ``(parents, labels, ends)``.

    Level ``k`` has one row per distinct prefix of length ``k``: ``parents``
    holds the row of its prefix one shorter and ``labels`` the index of its
    last label in ``index``, by default the instrument's outcome labels (both
    ``None`` at the root), and ``ends`` lists ``(i, row)`` for each
    ``records[i]`` of length ``k``.
    """
    if index is None:
        index = {y: i for i, y in enumerate(instrument.outcome_labels)}
    unknown = next((y for r in records for y in r if y not in index), None)
    if unknown is not None:
        instrument.op(unknown)  # raises UnknownOutcome
    rows = [0] * len(records)
    yield None, None, [(i, 0) for i, r in enumerate(records) if not r]
    for k in range(max(map(len, records), default=0)):
        nodes: dict[tuple[int, int], int] = {}
        ends = []
        for i, r in enumerate(records):
            if len(r) > k:
                rows[i] = nodes.setdefault((rows[i], index[r[k]]), len(nodes))
                if len(r) == k + 1:
                    ends.append((i, rows[i]))
        parents, labels = np.array(list(nodes)).T
        yield parents, labels, ends


def filter_records(instrument, rho0, records) -> list[tuple[np.ndarray, float] | None]:
    """Each record's filtered state and log-probability, ``None`` where a step has vanishing weight.

    Each distinct prefix is stepped once: breadth-first over the records'
    prefix trie, one :func:`_conjugate` per level of each row's parent by its
    label, each row normalized by its trace and symmetrized, its log-weights
    summed left to right.
    """
    rho = as_density(rho0, "rho0")
    stacks = instrument.kraus_stack()
    sigma, log_prob, live = rho[None], np.zeros(1), np.ones(1, dtype=bool)
    found: list = [None] * len(records)
    for parents, labels, ends in _trie_levels(instrument, records):
        if parents is not None:
            out = _conjugate(stacks, sigma, parents, labels)
            out += 0  # as apply_conditional's sum, which starts from 0: turns -0.0 into 0.0
            w = np.trace(out, axis1=1, axis2=2).real
            live = live[parents] & (w > WEIGHT_FLOOR)
            w = np.where(live, w, 1.0)
            sigma, log_prob = hermitian_part(out / w[:, None, None]), log_prob[parents] + np.log(w)
        for i, row in ends:
            if live[row]:
                found[i] = sigma[row].copy(), float(log_prob[row])
    return found


def retrofilter_records(instrument, records) -> list[np.ndarray]:
    """Each record's retrofiltered effect, as :func:`retrofilter` defines it.

    Each distinct suffix is propagated once: breadth-first over the records'
    suffix trie, one :func:`_conjugate` by the adjoint Kraus operators per
    level, symmetrized at every level.
    """
    adjoints = instrument.kraus_stack(adjoint=True)  # conjugates by K† sigma K
    sigma = np.eye(instrument.dim, dtype=complex)[None]
    found: list = [None] * len(records)
    for parents, labels, ends in _trie_levels(instrument, [r[::-1] for r in records]):
        if parents is not None:
            out = _conjugate(adjoints, sigma, parents, labels)
            out += 0  # as a sum that starts from 0: turns -0.0 into 0.0
            sigma = hermitian_part(out)
        for i, row in ends:
            found[i] = sigma[row].copy()
    return found


class Merged(NamedTuple):
    """The first entry of a merged branch's record: the labels of one reset class at its last merge.

    The branch is the sum of every branch of its trie row that took one of
    ``labels`` at that step; the entries after it are the labels taken since.
    """

    labels: tuple


def walk_records(
    instrument,
    initial,
    records,
    *,
    dim_extra: int = 1,
    cap: int = DEFAULT_ENUMERATION_CAP,
    merge: bool = False,
) -> list:
    """Every branch of each of a table of records whose step ``i`` is a set of labels, in one pass.

    ``initial`` lives on the system tensored with ``dim_extra`` ancilla
    dimensions.  Each distinct prefix of label sets is propagated once,
    breadth-first over the records' prefix trie: per level, one
    :func:`_conjugate` of every (row, branch of its parent, label of its set),
    row-major; an exactly zero branch is dropped with its subtree.  A
    record's result is its surviving branch records in lexicographic order
    and the stack of their symmetrized, unnormalized operators, with the same
    bits whatever table it is in, or the :class:`EnumerationTooLarge` of a
    record whose branches, counted before any is dropped, exceed ``cap``:
    such a record expands nothing.

    With ``merge``, after the zeros are dropped, the branches of one trie row
    that took labels of one reset class (:attr:`Instrument.reset_classes`)
    at a level become one branch where the first of them was: the sum of
    their operators, added in branch order.  After a reset to ``|a⟩`` a
    branch is ``|a⟩⟨a|`` tensored with an ancilla operator that no later
    step touches, so its share of any smoothed state is fixed by its trace:
    the merge is exact in exact arithmetic, and it needs no tolerance on
    branch data.  A group of one is left as it is, so a walk with no two
    branches of one class in a row has the bits of the unmerged walk.  A
    merged branch's record is the :class:`Merged` entry of its last merge,
    then the labels taken since.  The cap then counts the branches that the
    merged walk can hold: ``b_0 = 1`` and ``b_{t+1} = b_t * (non-reset
    labels of step t) + (reset classes among them)``, which is the number of
    records when no label is a reset.
    """
    records = [tuple(map(tuple, r)) for r in records]
    names = list(instrument.outcome_labels)  # then the Merged entries, as they are made
    classes = instrument.reset_classes if merge else None
    merge = merge and bool((classes >= 0).any())
    reset = dict(zip(names, classes.tolist())) if merge else {}
    found: list = [None] * len(records)
    live = []
    for i, r in enumerate(records):
        n_records = math.prod(map(len, r))
        n_branches = _merged_count(r, reset) if merge and n_records > cap else n_records
        if n_branches > cap:
            what = "records" if n_branches == n_records else "merged branches"
            found[i] = EnumerationTooLarge(f"{n_branches} {what} exceed the cap of {cap}")
        else:
            live.append(i)
    label_sets = list(dict.fromkeys(labels for i in live for labels in records[i]))
    index, outcome = {labels: j for j, labels in enumerate(label_sets)}, {y: k for k, y in enumerate(names)}
    for y in (y for labels in label_sets for y in labels if y not in outcome):
        instrument.op(y)  # raises UnknownOutcome
    # label set j is members[first[j] : first[j] + width[j]], as indices in names
    members = np.array([outcome[y] for labels in label_sets for y in labels], dtype=int)
    width = np.array([len(labels) for labels in label_sets], dtype=int)
    first, stacks = np.cumsum(width) - width, instrument.kraus_stack(dim_extra)
    merged: dict[tuple[int, int], int] = {}

    def merged_name(j: int, c: int) -> int:
        """The index in names of the :class:`Merged` entry of label set ``j``'s class ``c``, added on first use."""
        if (j, c) not in merged:
            merged[j, c] = len(names)
            names.append(Merged(tuple(y for y in label_sets[j] if reset[y] == c)))
        return merged[j, c]

    # trie row k holds the branches sigma[lo[k]:lo[k] + size[k]]; history holds, per level, each
    # branch's parent branch and the index of its label in names (a merged branch keeps the parent
    # of its first member, and its record is cut at its Merged entry)
    sigma, lo, size, history = np.asarray(initial, dtype=complex)[None], np.array([0]), np.array([1]), []
    for parents, labels, ends in _trie_levels(instrument, [records[i] for i in live], index):
        if parents is not None:
            # row-major, branch-major, label-minor: the lexicographic order of each row's records
            n, k = size[parents], width[labels]
            per_branch = np.repeat(k, n)  # labels per (row, parent branch)
            parent = np.repeat(_ranges(lo[parents], n), per_branch)
            name = members[_ranges(np.repeat(first[labels], n), per_branch)]
            owner = np.repeat(np.arange(len(parents)), n * k)  # each branch's row
            out = _conjugate(stacks, sigma, parent, name)
            keep = out.any(axis=(1, 2))
            sigma, parent, name, owner = out[keep], parent[keep], name[keep], owner[keep]
            # merging needs a row of two branches or more: one row twice in owner, which ascends
            groups = _reset_groups(owner, classes[name]) if merge and (owner[1:] == owner[:-1]).any() else None
            if groups is not None:
                keep, heads, runs, counts = groups
                sigma[heads] = _sum_runs(sigma[runs], counts)
                head_classes = classes[name[heads]].tolist()
                name[heads] = [merged_name(labels[r], c) for r, c in zip(owner[heads].tolist(), head_classes)]
                sigma, parent, name, owner = sigma[keep], parent[keep], name[keep], owner[keep]
            history.append((parent, name))
            size = np.bincount(owner, minlength=len(parents))
            lo = np.cumsum(size) - size
        if ends:
            # the branches of every record that ends here, traced back and symmetrized in one gather
            rows = [row for _, row in ends]
            at = _ranges(lo[rows], size[rows])
            branch_records, ops, start = _branch_records(history, names, at), hermitian_part(sigma[at]), 0
            if merged:
                branch_records = [_since_last_merge(r) for r in branch_records]
            for i, row in ends:
                stop = start + size[row]
                found[live[i]] = branch_records[start:stop], ops[start:stop]
                start = stop
    return found


def _merged_count(label_sets, reset: dict) -> int:
    """The branches a merged walk over ``label_sets`` can hold, counted before any is dropped.

    ``b_0 = 1`` and ``b_{t+1} = b_t * (non-reset labels of step t) + (reset
    classes among them)``, with ``reset`` each label's class (``-1`` for
    none); a label the instrument does not have counts as no reset.
    """
    count = 1
    for labels in label_sets:
        found = [reset.get(y, -1) for y in labels]
        count = count * found.count(-1) + len(set(found) - {-1})
    return count


def _reset_groups(owner: np.ndarray, reset_class: np.ndarray):
    """How a level's branches merge: the groups of two or more branches of one row and one reset class.

    ``owner`` (each branch's row) and ``reset_class`` (``-1`` for a label that is not a reset) are
    per branch, rows ascending.  Returns ``None`` when no group has two
    branches, else ``(keep, heads, runs, counts)``: the branches left after
    merging, the first branch of each group (where its sum goes), every
    group's branches, group by group in branch order, and each group's
    count of them.
    """
    at = np.flatnonzero(reset_class >= 0)
    _, head, group, counts = np.unique(
        owner[at] * (reset_class.max(initial=0) + 1) + reset_class[at],
        return_index=True,
        return_inverse=True,
        return_counts=True,
    )
    if counts.max(initial=0) < 2:
        return None
    many = counts >= 2
    grouped = many[group]
    runs = at[grouped][np.argsort(group[grouped], kind="stable")]
    heads = at[head[many]]
    keep = np.ones(len(owner), dtype=bool)
    keep[runs] = False
    keep[heads] = True
    return keep, heads, runs, counts[many]


def _branch_records(history: list, names: list, at: np.ndarray) -> list[tuple]:
    """The records of the last level's branches ``at``, traced back through each level's parents."""
    if not history:
        return [()] * len(at)
    columns = []
    for parent, name in reversed(history):
        columns.append([names[k] for k in name[at].tolist()])
        at = parent[at]
    return list(zip(*reversed(columns)))


def _since_last_merge(record: tuple) -> tuple:
    """``record`` from its last :class:`Merged` entry on, or all of it when it has none."""
    return record[max((i for i, y in enumerate(record) if isinstance(y, Merged)), default=0) :]


def walk(
    instrument,
    initial,
    label_sets,
    *,
    dim_extra: int = 1,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> tuple[list[tuple], np.ndarray]:
    """Propagate every record whose step ``i`` takes a label from ``label_sets[i]``.

    The one-record case of :func:`walk_records`: returns the surviving
    records and their operators, or raises its :class:`EnumerationTooLarge`.
    """
    found = walk_records(instrument, initial, [label_sets], dim_extra=dim_extra, cap=cap)[0]
    if isinstance(found, EnumerationTooLarge):
        raise found
    return found


def _conjugate(stacks: tuple, sigma: np.ndarray, rows: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Pair ``i``'s ``sum_j K_j sigma[rows[i]] K_j†`` over label ``labels[i]``'s Kraus operators, in Kraus order.

    ``stacks`` is :meth:`Instrument.kraus_stack`'s, of either orientation.
    Each row of ``sigma`` is multiplied by every operator in one product
    with the stacked ``left``; then, per label and per operator, its pairs'
    left products are multiplied by the operator's right factor as one
    ``(pairs * D, D)`` stack of rows and summed, in Kraus order, into the
    label's contiguous slice of the label-sorted output.
    """
    (left, right), d = stacks, sigma.shape[-1]
    counts = np.bincount(labels, minlength=len(right))
    order, ends = labels.argsort(kind="stable"), counts.cumsum().tolist()
    # [operator, row]: K sigma[row], one product per row
    products = (left @ sigma).reshape(len(sigma), len(left) // d, d, d).swapaxes(0, 1)
    out = np.empty((len(labels), d, d), dtype=complex)
    first = list(itertools.accumulate(map(len, right), initial=0))
    for y, (lo, hi) in enumerate(zip([0, *ends], ends)):
        if lo < hi:
            (k_dag, *rest), part = right[y], out[lo:hi].reshape(-1, d)
            mine = products[first[y] : first[y + 1], rows[order[lo:hi]]].reshape(len(right[y]), -1, d)
            np.matmul(mine[0], k_dag, out=part)
            for m, k_dag in zip(mine[1:], rest):
                part += m @ k_dag
    # one label's pairs are in order already
    return out if counts.max(initial=0) == len(labels) else out[order.argsort()]


def enumerate_records(
    instrument, rho0, steps: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> list[tuple[tuple, float]]:
    """All records of the given length with their probabilities.

    Output is lexicographic in the instrument's label order and includes
    zero-probability records; probabilities sum to one.  Raises
    :class:`EnumerationTooLarge` when ``|alphabet| ** steps`` exceeds ``cap``.
    """
    steps = int(steps)
    labels = instrument.outcome_labels
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if len(labels) > 1 and steps > cap.bit_length():  # len(labels)**steps >= 2**steps > cap, uncomputed
        raise EnumerationTooLarge(f"{len(labels)}**{steps} records exceed the cap of {cap}")
    records, ops = walk(instrument, as_density(rho0, "rho0"), [labels] * steps, cap=cap)
    probs = {r: max(float(op.trace().real), 0.0) for r, op in zip(records, ops)}
    return [(r, probs.get(r, 0.0)) for r in itertools.product(labels, repeat=steps)]


def sample_records(instrument, rho0, steps: int, n: int, rng) -> list[tuple]:
    """Sample ``n`` records by sequential outcome weights, all trajectories in lockstep.

    Uniforms are one ``(n, steps)`` array in row-major order, and each outcome
    is ``searchsorted(cdf, u, side="right")`` on the cdf ``Generator.choice``
    builds from the clipped weights, so record ``i`` is the one the ``i``-th of
    ``n`` one-at-a-time draws gives.  A step is one :func:`_conjugate` of the
    trajectory x label grid: one product per trajectory by every Kraus
    operator, then one per operator over all trajectories.
    """
    gen = np.random.default_rng(rng)
    rho = as_density(rho0, "rho0")
    labels = instrument.outcome_labels
    uniforms = gen.random((int(n), int(steps)))
    stacks = instrument.kraus_stack()
    rows = np.arange(uniforms.shape[0])
    pairs = np.repeat(rows, len(labels)), np.tile(np.arange(len(labels)), rows.size)  # trajectory-major
    sigma = np.broadcast_to(rho, (rows.size, *rho.shape))
    picks = np.empty(uniforms.shape, dtype=int)
    for step, u in enumerate(uniforms.T):
        out = _conjugate(stacks, sigma, *pairs).reshape(rows.size, len(labels), *rho.shape)
        weights = np.clip(np.trace(out, axis1=2, axis2=3).real, 0.0, None)
        cdf = (weights / weights.sum(axis=1, keepdims=True)).cumsum(axis=1)
        # each row is nondecreasing: its count of entries <= u is its searchsorted
        k = (cdf / cdf[:, -1:] <= u[:, None]).sum(axis=1)
        w = weights[rows, k]
        if (w <= WEIGHT_FLOOR).any():
            raise ZeroProbabilityRecord("sampled a zero-weight outcome; model is degenerate")
        sigma = hermitian_part(out[rows, k] / w[:, None, None])
        picks[:, step] = k
    return [tuple(labels[k] for k in row) for row in picks.tolist()]
