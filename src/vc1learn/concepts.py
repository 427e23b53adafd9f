"""Finite boolean concept classes, canonicalization, and label transforms.

A concept class is a finite set of 0/1-valued functions (concepts) over a
finite domain ``{0, ..., domain_size - 1}``, stored as ``np.packbits``
rows, one per concept and one bit per point; a concept's 1-set is
unpacked from its row only when it is read, and the dense boolean
matrix only for the callers that ask for it. The partial order and
the class tree work on a *canonical* class (the learners reduce any class
themselves), in which

* no two concepts are equal as functions,
* no two domain points have identical value under every concept
  (indistinguishable points are merged, lowest index surviving), and
* points on which every concept agrees are retained but flagged as
  *constant*; they carry a forced label and sit outside the partial-order
  universe.

All values here are immutable after construction and safe to share across
threads; operations are pure functions of their inputs.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np


class NotRealizableError(ValueError):
    """A labeled dataset is inconsistent with every concept in the class."""


def _all_integers(values: Iterable[object]) -> bool:
    """Whether every value is an int or numpy integer; no casts, so 1.5,
    True or "2" is not. Each distinct type is checked once, so the pass
    makes no Python call per value."""
    return all(issubclass(t, (int, np.integer)) and t is not bool for t in set(map(type, values)))


def _is_number(x: object) -> bool:
    """Whether ``x`` is an int, float or numpy number other than a bool."""
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


def _check_int(name: str, value: object, lo: int | None = None, hi: int | None = None) -> int:
    """``value`` as an ``int``, if it is an integer by :func:`_all_integers`'s
    rule, at least ``lo`` and at most ``hi`` where given; ``ValueError``
    otherwise. The package's one rule for counts, sizes and indices."""
    if _all_integers((value,)) and (lo is None or value >= lo) and (hi is None or value <= hi):
        return int(value)
    span = "" if lo is None else f" of at least {lo}" if hi is None else f" in [{lo}, {hi}]"
    raise ValueError(f"{name!r} must be an integer{span}, not {value!r}")


def _check_fields(obj: object) -> None:
    """Check and normalise frozen dataclass ``obj``'s fields by their annotation
    strings: ``int`` holds an integer by :func:`_check_int`, at least the
    field's ``metadata["lo"]`` where given, stored as ``int``; ``float`` a
    number by :func:`_is_number`'s rule, stored as ``float``; ``str`` a
    string; ``tuple[float, ...]`` a non-empty tuple or list of numbers,
    stored as a tuple of floats; ``frozenset[int]`` a set or frozenset of
    integers by :func:`_all_integers`, stored as a frozenset. Any other
    annotation names a class of ``obj``'s module, such as a nested config,
    and the field holds an instance of it. ``X | None`` may also hold None.
    A bad value, or a number past the float range, raises ``ValueError``
    naming the field as ``'name'``. The value classes call it first, so
    equal values hash and print alike."""
    for f in fields(obj):
        value, kind = getattr(obj, f.name), f.type.removesuffix(" | None")
        if value is None and kind != f.type:
            continue
        if kind == "int":  # _check_int raises itself
            noun, ok, cast = "", True, lambda v: _check_int(f.name, v, f.metadata.get("lo"))
        elif kind == "float":
            noun, ok, cast = "a number", _is_number(value), float
        elif kind == "str":
            noun, ok, cast = "a string", isinstance(value, str), str
        elif kind == "tuple[float, ...]":
            noun, cast = "a non-empty sequence of numbers", lambda v: tuple(map(float, v))
            ok = isinstance(value, (tuple, list)) and bool(value) and all(map(_is_number, value))
        elif kind == "frozenset[int]":
            noun, cast = "a set of integers", frozenset
            ok = isinstance(value, (set, frozenset)) and _all_integers(value)
        else:
            noun, cast = f"a {kind}", lambda v: v
            ok = isinstance(value, vars(sys.modules[type(obj).__module__])[kind])
        if not ok:
            raise ValueError(f"{f.name!r} must be {noun}, not {value!r}")
        try:
            object.__setattr__(obj, f.name, cast(value))
        except OverflowError:
            raise ValueError(f"{f.name!r} is past the float range") from None


@dataclass(frozen=True)
class Concept:
    """A single 0/1-valued function, stored as its set of 1-points.

    ``ones`` must hold integers, negative ones included: the support bound
    is checked where the domain is known. Fields are checked when built
    (:func:`_check_fields`).
    """

    ones: frozenset[int]
    id: str | None = None

    def __post_init__(self) -> None:
        _check_fields(self)

    def __call__(self, point: int) -> int:
        return 1 if point in self.ones else 0


@dataclass(frozen=True, eq=False)
class Dataset:
    """A sequence of labeled examples (point index, 0/1 label).

    Backed by read-only numpy arrays so that million-example datasets stay
    cheap. A label off {0, 1} or a point that is no nonnegative integer
    raises ``ValueError``; points of a non-integer dtype are refused
    before any cast. Unsigned points of up to 32 bits keep their dtype, so
    a sampler may hand over uint8 or uint16 points; other points are cast
    to int64. Labels are held as uint8, and bool labels as a uint8 view of
    the caller's array. An array that already has its dtype is not copied
    either: the dataset holds a read-only view of it and so shares the
    caller's memory, and the caller's array stays writeable. Equality and
    the hash go by values, whatever the points' dtype.
    """

    points: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        pts, labs = np.asarray(self.points), np.asarray(self.labels)
        if pts.shape != labs.shape or pts.ndim != 1:
            raise ValueError("points and labels must be 1-d arrays of equal length")
        if len(pts):
            # bool labels, as samplers hand over, need no pass
            if labs.dtype != bool and not np.all((labs == 0) | (labs == 1)):
                raise ValueError("labels must be 0 or 1")
            if pts.dtype.kind not in "iu":
                raise ValueError("points must be nonnegative integers")
        # narrow unsigned points need no sign pass; a uint64 point past the
        # int64 range casts to a negative one
        if pts.dtype.kind != "u" or pts.dtype.itemsize > 4:
            pts = pts.astype(np.int64, copy=False)
            if len(pts) and pts.min() < 0:
                raise ValueError("points must be nonnegative integers")
        if labs.dtype == bool:
            labs = labs.view(np.uint8)
        pts, labs = pts.view(), labs.astype(np.uint8, copy=False).view()
        pts.flags.writeable = False
        labs.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "labels", labs)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "Dataset":
        pairs = list(pairs)
        return cls(np.array([p for p, _ in pairs]), np.array([l for _, l in pairs]))

    def pairs(self) -> list[tuple[int, int]]:
        return [(int(p), int(l)) for p, l in zip(self.points, self.labels)]

    def __len__(self) -> int:
        return len(self.points)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return np.array_equal(self.points, other.points) and np.array_equal(
            self.labels, other.labels
        )

    def __hash__(self) -> int:
        # as int64 bytes, so that datasets equal across point dtypes hash alike
        return hash((self.points.astype(np.int64, copy=False).tobytes(), self.labels.tobytes()))


@dataclass(frozen=True)
class Hypothesis:
    """A learned 0/1 labeling of the domain.

    ``proper_index`` is set when the hypothesis coincides with a class
    member, in which case ``ones`` equals that concept's ones. Fields are
    checked as :class:`Concept`'s are.
    """

    ones: frozenset[int]
    proper_index: int | None = None

    def __post_init__(self) -> None:
        _check_fields(self)


class _LazyConcepts:
    """A class's concepts, built from its rows on access; sliceable and iterable."""

    def __init__(self, cls: "ConceptClass") -> None:
        self._cls = cls

    def __len__(self) -> int:
        return len(self._cls)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        # built unchecked: a row's tolist holds ints by construction, and a
        # type pass over every set would cost 40% of io.class_to_json
        c = object.__new__(Concept)
        ones = frozenset(np.flatnonzero(self._cls.row(i)).tolist())
        vars(c).update(ones=ones, id=self._cls.ids[i])
        return c

    def __iter__(self) -> Iterator[Concept]:
        return (self[i] for i in range(len(self)))


@dataclass(frozen=True, eq=False, init=False)
class ConceptClass:
    """An ordered collection of concepts over a fixed finite domain.

    Built from a boolean ``matrix``, one row per concept and one column per
    point, with one id per row. The class keeps the rows only as read-only
    ``np.packbits`` bytes, ``packed``, over ``domain_size`` points; ``row``
    unpacks one of them, ``concepts`` builds :class:`Concept` values from
    them on access, and ``matrix`` unpacks the whole dense matrix on first
    read. Nothing requires the class to be canonical: duplicate rows and
    equal columns are allowed.
    """

    packed: np.ndarray
    domain_size: int
    ids: tuple[str | None, ...]
    name: str | None

    def __init__(
        self, matrix: np.ndarray, ids: Sequence[str | None], name: str | None = None
    ) -> None:
        m = np.asarray(matrix, dtype=bool)
        if m.ndim != 2:
            raise ValueError("matrix must be 2-d")
        if not len(m):
            raise ValueError("empty concept class")
        if len(ids) != len(m):
            raise ValueError("one id per concept")
        packed = np.packbits(m, axis=1)
        packed.flags.writeable = False
        object.__setattr__(self, "packed", packed)
        object.__setattr__(self, "domain_size", m.shape[1])
        object.__setattr__(self, "ids", tuple(ids))
        object.__setattr__(self, "name", name)

    @classmethod
    def from_ones(
        cls,
        domain_size: int,
        ones_sets: Sequence[Iterable[int]],
        ids: Sequence[str] | None = None,
        name: str | None = None,
    ) -> "ConceptClass":
        """The class with the given 1-sets of ints, ids ``c0, c1, ...`` by default."""
        domain_size = _check_int("domain_size", domain_size, 0)
        if ids is not None and len(ids) != len(ones_sets):
            raise ValueError("one id per concept")
        m = np.zeros((len(ones_sets), domain_size), dtype=bool)
        names = list(ids) if ids is not None else [f"c{i}" for i in range(len(m))]
        for i, ones in enumerate(ones_sets):
            ones = list(ones)
            if not _all_integers(ones):
                raise ValueError(f"concept {names[i]!r} has non-integer points")
            if ones and (min(ones) < 0 or max(ones) >= domain_size):
                raise ValueError(f"concept {names[i]!r} has points outside the domain")
            m[i, ones] = True
        return cls(m, names, name=name)

    @property
    def concepts(self) -> _LazyConcepts:
        """The concepts in row order, built from the rows on access."""
        return _LazyConcepts(self)

    def row(self, i: int) -> np.ndarray:
        """Concept ``i``'s row, unpacked to one bool per point."""
        return np.unpackbits(self.packed[i], count=self.domain_size).view(bool)

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense read-only bool matrix, unpacked once on first read."""
        m = np.unpackbits(self.packed, axis=1, count=self.domain_size).view(bool)
        m.flags.writeable = False
        return m

    @cached_property
    def constant_labels(self) -> dict[int, int]:
        """Points every concept agrees on, mapped to their forced label."""
        count, _ = column_scan(self.packed, self.domain_size)
        out = dict.fromkeys(np.flatnonzero(count == len(self)).tolist(), 1)
        return out | dict.fromkeys(np.flatnonzero(count == 0).tolist(), 0)

    @cached_property
    def concept_index(self) -> dict[bytes, int]:
        """First index of each distinct row, keyed by its :attr:`packed` bytes."""
        out: dict[bytes, int] = {}
        for i, key in enumerate(row_bytes(self.packed)):
            out.setdefault(key, i)
        return out

    def index_of(self, ones: Iterable[int]) -> int | None:
        """Index of the first concept whose 1-set is ``ones``, else None.

        A set with a point off the domain, negative ones included, is no
        member, and so is one with a point that :meth:`from_ones` refuses
        as no integer.
        """
        ones = list(ones)
        if not _all_integers(ones):
            return None
        points = np.fromiter(ones, np.int64)
        if len(points) and (points.min() < 0 or points.max() >= self.domain_size):
            return None
        row = np.zeros(self.domain_size, dtype=bool)
        row[points] = True
        return self.concept_index.get(np.packbits(row).tobytes())

    def __len__(self) -> int:
        return len(self.ids)

    def _key(self) -> tuple:
        # the padding bits are zero, so equal bytes over equal shapes are equal rows
        return (len(self), self.domain_size, self.packed.tobytes(), self.ids, self.name)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ConceptClass) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


def row_bytes(packed: np.ndarray) -> list[bytes]:
    """The rows of a 2-d byte array, each as a ``bytes`` key."""
    buf, width = packed.tobytes(), packed.shape[1]
    return [buf[i * width : (i + 1) * width] for i in range(len(packed))]


def _first_occurrences(packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group equal rows of a 2-d byte array, numbering groups by first appearance.

    Returns ``(first, group)``: the index of each group's first row, in
    ascending order, and each row's group number.
    """
    index: dict[bytes, int] = {}
    first: list[int] = []
    group = np.empty(len(packed), dtype=np.int64)
    for i, key in enumerate(row_bytes(packed)):
        g = index.setdefault(key, len(first))
        if g == len(first):
            first.append(i)
        group[i] = g
    return np.array(first, dtype=np.int64), group


def column_scan(packed: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Each column's number of set bits and the first row holding one (-1: none).

    ``packed`` holds the ``n``-column rows of a boolean matrix as
    ``np.packbits`` bytes; they are unpacked 255 rows at a time, so that a
    block's column sums fit a byte.
    """
    count = np.zeros(n, dtype=np.int64)
    first = np.full(n, -1, dtype=np.int64)
    for start in range(0, len(packed), 255):
        bits = np.unpackbits(packed[start : start + 255], axis=1, count=n)
        block = bits.sum(axis=0, dtype=np.uint8)
        new = np.flatnonzero((count == 0) & (block > 0))
        first[new] = start + bits[:, new].argmax(axis=0)
        count += block
    return count, first


def canonical_layout(packed: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """The canonical reduction of a boolean concept matrix, as index arrays.

    ``packed`` holds the matrix's ``n``-column rows as ``np.packbits``
    bytes. Returns ``(rows, rep, count, first)``: the rows kept (the first
    of each set of equal rows), ascending; ``rep[p]``, the lowest column
    equal to column ``p`` (its representative); and each column's
    :func:`column_scan` of the kept rows. The canonical matrix is
    ``m[np.ix_(rows, cols)]`` with ``cols`` the representatives. Rows are
    compared as packed bytes. Equal columns have the same count and the
    same first row, so only columns sharing both with another column are
    compared bit by bit; on a class whose reduction is a tree those are
    exactly the repeated columns.
    """
    rows, _ = _first_occurrences(packed)
    kept = packed[rows]
    count, first = column_scan(kept, n)
    # columns in (count, first row, index) order; a run of equal keys is shared
    key = count * (len(rows) + 1) + first
    order = np.argsort(key, kind="stable")
    run = np.zeros(n + 1, dtype=bool)
    run[1:-1] = key[order[1:]] == key[order[:-1]]
    shared = order[run[1:] | run[:-1]]
    rep = np.arange(n)
    if len(shared):
        shift = (7 - shared % 8).astype(np.uint8)
        bits = (kept[:, shared // 8] >> shift) & 1
        firsts, group = _first_occurrences(np.ascontiguousarray(bits.T))
        rep[shared] = shared[firsts][group]
    return rows, rep, count, first


def is_canonical(cls: ConceptClass) -> bool:
    """True when concepts are pairwise distinct and so are point columns."""
    rows, rep, _, _ = canonical_layout(cls.packed, cls.domain_size)
    return len(rows) == len(cls) and bool((rep == np.arange(len(rep))).all())


def canonicalize(cls: ConceptClass) -> tuple[ConceptClass, np.ndarray]:
    """Reduce a class to canonical form.

    Drops duplicate concepts (first occurrence kept), merges points with
    identical columns (lowest index becomes the representative), and
    compacts the domain. Constant points are kept; they are flagged via
    ``ConceptClass.constant_labels`` on the result rather than removed, so
    error accounting still covers the full domain. The learners need no
    call: they reduce any class themselves.

    Returns
    -------
    (canonical_class, merge_map)
        ``merge_map[p]`` is the new index of original point ``p``; the
        returned class does not keep it.
    """
    rows, rep, _, _ = canonical_layout(cls.packed, cls.domain_size)
    is_rep = rep == np.arange(len(rep))
    cols = np.flatnonzero(is_rep)
    canon = ConceptClass(
        cls.matrix[np.ix_(rows, cols)], [cls.ids[i] for i in rows.tolist()], cls.name
    )
    merge = (np.cumsum(is_rep) - 1)[rep]
    merge.flags.writeable = False
    return canon, merge


def f_represent(cls: ConceptClass, f: Concept) -> ConceptClass:
    """Relabel every concept by XOR with a member concept ``f``.

    The result contains the all-zeros concept (the image of ``f`` itself).
    Applying the transform twice with the same ``f`` restores the original
    class. The result is *not* automatically canonical: two distinct
    columns can collapse onto each other when ``f`` splits them, so callers
    that need the partial order should re-canonicalize.
    """
    i = cls.index_of(f.ones)
    if i is None:
        raise ValueError("representative must belong to class")
    return ConceptClass(cls.matrix ^ cls.matrix[i], cls.ids, cls.name)


def _check_order_point(cls: ConceptClass, p: int) -> None:
    if _check_int("point", p, 0, cls.domain_size - 1) in cls.constant_labels:
        raise ValueError("point outside order universe")


def leq(class_f: ConceptClass, a: int, b: int) -> bool:
    """Partial order: ``a <= b`` iff every concept with a 1 at ``a`` has a 1 at ``b``.

    Defined on the non-constant points of a canonical class; on such a
    class the relation is reflexive, antisymmetric, and transitive.
    """
    _check_order_point(class_f, a)
    _check_order_point(class_f, b)
    m = class_f.matrix
    return bool(np.all(m[:, b] | ~m[:, a]))


def comparable(class_f: ConceptClass, a: int, b: int) -> bool:
    """True when ``a`` and ``b`` are ordered one way or the other."""
    return leq(class_f, a, b) or leq(class_f, b, a)
