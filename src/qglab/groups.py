"""Cayley tables: validation, a JSON parser, and the builtin group library.

The interchange format is a JSON object::

    {"name": "Z2", "order": 2, "table": [[0, 1], [1, 0]]}

with zero-based element indices and the identity fixed at index 0.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

__all__ = [
    "GroupTableError",
    "GroupTable",
    "parse_cayley",
    "builtin_table",
    "load_group",
    "BUILTIN_NAMES",
]


class GroupTableError(ValueError):
    """A multiplication table failed one of the group axioms."""


@dataclass(frozen=True)
class GroupTable:
    """A finite group given by its multiplication table, identity at index 0."""

    name: str
    order: int
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _validate(self.name, self.order, self.table)

    def product(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inverse(self, i: int) -> int:
        for j in range(self.order):
            if self.table[i][j] == 0:
                return j
        raise GroupTableError(f"{self.name}: element {i} has no inverse")

    @property
    def inverses(self) -> tuple[int, ...]:
        return tuple(self.inverse(i) for i in range(self.order))

    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        """The conjugacy classes ``{g s g^-1}``, each sorted, in the order of
        their smallest elements, the identity's class first."""
        inv = self.inverses
        seen: set[int] = set()
        classes = []
        for s in range(self.order):
            if s not in seen:
                cls = sorted({self.table[self.table[g][s]][inv[g]] for g in range(self.order)})
                seen.update(cls)
                classes.append(tuple(cls))
        return tuple(classes)

    def is_abelian(self) -> bool:
        return all(
            self.table[i][j] == self.table[j][i]
            for i in range(self.order)
            for j in range(i + 1, self.order)
        )


def _validate(name: str, order: int, table) -> None:
    if order <= 0:
        raise GroupTableError(f"{name}: order must be positive, got {order}")
    if len(table) != order or any(len(row) != order for row in table):
        raise GroupTableError(f"{name}: table must be {order}x{order}")
    rng = range(order)
    for i in rng:
        for j in rng:
            v = table[i][j]
            if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < order:
                raise GroupTableError(
                    f"{name}: entry table[{i}][{j}] = {v!r} is not an index in [0, {order})"
                )
    for j in rng:
        if table[0][j] != j:
            raise GroupTableError(
                f"{name}: identity axiom fails: table[0][{j}] = {table[0][j]}, expected {j}"
            )
    for i in rng:
        if table[i][0] != i:
            raise GroupTableError(
                f"{name}: identity axiom fails: table[{i}][0] = {table[i][0]}, expected {i}"
            )
    for i in rng:
        if sorted(table[i]) != list(rng):
            raise GroupTableError(f"{name}: Latin-square axiom fails: row {i} is not a permutation")
        col = sorted(table[k][i] for k in rng)
        if col != list(rng):
            raise GroupTableError(
                f"{name}: Latin-square axiom fails: column {i} is not a permutation"
            )
    for i in rng:
        for j in rng:
            for k in rng:
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    raise GroupTableError(
                        f"{name}: associativity fails at (i, j, k) = ({i}, {j}, {k})"
                    )


def parse_cayley(data: bytes | str) -> GroupTable:
    """Parse and fully validate a Cayley table from its JSON form."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise GroupTableError(f"group file is not UTF-8: {exc}") from exc
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as exc:
        raise GroupTableError(f"malformed group JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise GroupTableError("group JSON must be an object with name/order/table")
    missing = {"name", "order", "table"} - set(obj)
    if missing:
        raise GroupTableError(f"group JSON missing keys: {sorted(missing)}")
    name = obj["name"]
    order = obj["order"]
    table = obj["table"]
    if not isinstance(name, str):
        raise GroupTableError("group name must be a string")
    if isinstance(order, bool) or not isinstance(order, int):
        raise GroupTableError(f"group order must be an integer, got {order!r}")
    if not isinstance(table, list) or not all(isinstance(r, list) for r in table):
        raise GroupTableError("group table must be a list of rows")
    return GroupTable(name=name, order=order, table=tuple(tuple(row) for row in table))


def _cyclic(n: int) -> GroupTable:
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return GroupTable(name=f"Z{n}", order=n, table=table)


def _symmetric3() -> GroupTable:
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    n = len(perms)
    table = tuple(
        tuple(index[tuple(perms[i][perms[j][k]] for k in range(3))] for j in range(n))
        for i in range(n)
    )
    return GroupTable(name="S3", order=n, table=table)


def _dihedral4() -> GroupTable:
    # elements 0..3 rotations r^i, 4..7 reflections s r^i
    n = 4
    table = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            table[i][j] = (i + j) % n
            table[i][j + n] = (i + j) % n + n
            table[i + n][j] = (i - j) % n + n
            table[i + n][j + n] = (i - j) % n
    return GroupTable(name="D4", order=2 * n, table=tuple(tuple(r) for r in table))


def _quaternion8() -> GroupTable:
    # elements (sign, axis): 0:+1 1:-1 2:+i 3:-i 4:+j 5:-j 6:+k 7:-k
    axis_mul = {  # (axis_a, axis_b) -> (sign, axis) for a, b in {1, i, j, k}
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (2, 0): (1, 2), (3, 0): (1, 3),
        (1, 1): (-1, 0), (2, 2): (-1, 0), (3, 3): (-1, 0),
        (1, 2): (1, 3), (2, 3): (1, 1), (3, 1): (1, 2),
        (2, 1): (-1, 3), (3, 2): (-1, 1), (1, 3): (-1, 2),
    }

    def enc(sign: int, axis: int) -> int:
        return 2 * axis + (0 if sign == 1 else 1)

    def dec(e: int) -> tuple[int, int]:
        return (1 if e % 2 == 0 else -1, e // 2)

    table = [[0] * 8 for _ in range(8)]
    for a in range(8):
        for b in range(8):
            sa, xa = dec(a)
            sb, xb = dec(b)
            sc, xc = axis_mul[(xa, xb)]
            table[a][b] = enc(sa * sb * sc, xc)
    return GroupTable(name="Q8", order=8, table=tuple(tuple(r) for r in table))


def _builtins() -> dict[str, GroupTable]:
    tables = [_cyclic(n) for n in range(1, 9)] + [_symmetric3(), _dihedral4(), _quaternion8()]
    return {t.name: t for t in tables}


_BUILTIN_CACHE: dict[str, GroupTable] | None = None


def _builtin_map() -> dict[str, GroupTable]:
    global _BUILTIN_CACHE
    if _BUILTIN_CACHE is None:
        _BUILTIN_CACHE = _builtins()
    return _BUILTIN_CACHE


BUILTIN_NAMES = ("Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8", "S3", "D4", "Q8")


def builtin_table(name: str) -> GroupTable:
    tables = _builtin_map()
    key = name.upper() if name.upper() in tables else name
    if key not in tables:
        raise GroupTableError(f"unknown builtin group {name!r}; choose from {BUILTIN_NAMES}")
    return tables[key]


def load_group(source: str) -> GroupTable:
    """Resolve a group source: a builtin name or a path to a JSON table."""
    if source.upper() in _builtin_map():
        return builtin_table(source)
    try:
        with open(source, "rb") as fh:
            return parse_cayley(fh.read())
    except OSError as exc:
        raise GroupTableError(
            f"{source!r} is neither a builtin group ({', '.join(BUILTIN_NAMES)}) "
            f"nor a readable file ({exc.strerror or exc})"
        ) from exc
