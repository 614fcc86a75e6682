"""Finite groups via Cayley tables, conjugacy data, and character theory.

A group computes its conjugacy data (the classes, each element's class, the
class of each inverse, the element orders) on first use and at most once;
a character is just a group and one value per class.  Character values live
in Q(zeta_E) where E is the exponent of the group, so inner products and
invariant dimensions come out exact.  Only abelian character tables are
computed internally; nonabelian tables (e.g. S3) are supplied externally
and checked for one row per class and orthonormality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .cyclotomic import AmbientFieldError, Cyclotomic, ExactnessError
from .cyclotomic import format_cyclotomic, parse_cyclotomic, root_of_unity
from .polyring import integer, integers


class GroupError(ValueError):
    pass


class FiniteGroup:
    """A finite group presented by its Cayley table.

    cayley[i][j] is the index of the product of elements i and j.  The table
    is validated on construction: its entries are integers, every row and
    column is a permutation of the elements, there is a two-sided identity,
    and it is associative.  An associative Latin square with an identity is a
    group, so the inverse of g is where the identity sits in g's row.
    """

    def __init__(self, cayley, labels=None):
        table = tuple(integers(row) for row in cayley)
        n = len(table)
        if n == 0 or any(len(row) != n for row in table):
            raise GroupError("Cayley table must be a nonempty square matrix")
        columns, elements = tuple(zip(*table)), set(range(n))
        if any(set(line) != elements for line in table + columns):
            raise GroupError("every row and column of the Cayley table must permute 0..n-1")
        identity = columns[0].index(0)  # an identity e has e*0 = 0, and only one row does
        if not table[identity] == columns[identity] == tuple(range(n)):
            raise GroupError("no two-sided identity element")
        # Light's test: the g with (a*g)*b == a*(g*b) for all a, b are closed under
        # products, so checking a generating set suffices.  Generators are picked
        # greedily; in a group each one at least doubles the subgroup reached,
        # so needing more than n.bit_length() of them already disproves it.
        gens, reached = [], {identity}
        for x in range(n):
            if x in reached:
                continue
            gens.append(x)
            if len(gens) > n.bit_length():
                raise GroupError("Cayley table is not associative")
            reached, todo = {identity}, [identity]
            while todo:
                y = todo.pop()
                for g in gens:
                    if table[y][g] not in reached:
                        reached.add(table[y][g])
                        todo.append(table[y][g])
        for g in gens:
            for row in table:
                if table[row[g]] != tuple(map(row.__getitem__, table[g])):
                    raise GroupError("Cayley table is not associative")
        self.cayley = table
        self.order = n
        self.identity = identity
        self.inverses = tuple(row.index(identity) for row in table)
        labels = [f"g{i}" for i in range(n)] if labels is None else labels
        if not isinstance(labels, (list, tuple)) or [type(x) for x in labels] != [str] * n:
            raise GroupError(f"labels must be a list of {n} strings, one per element")
        self.labels = tuple(labels)

    def mul(self, i: int, j: int) -> int:
        return self.cayley[i][j]

    def inv(self, i: int) -> int:
        return self.inverses[i]

    # -- conjugacy data, computed on first use ----------------------------

    @cached_property
    def classes(self) -> tuple[ConjugacyClass, ...]:
        """Conjugacy partition: identity class first, then by smallest member."""
        return _conjugacy_partition(self)

    @cached_property
    def class_of(self) -> tuple[int, ...]:
        """Index into `classes` of the class of each element."""
        index = {m: k for k, c in enumerate(self.classes) for m in c.members}
        return tuple(index[x] for x in range(self.order))

    @cached_property
    def inverse_class(self) -> tuple[int, ...]:
        """Index of the class of g^{-1} for the class of each representative g."""
        return tuple(self.class_of[self.inverses[c.representative]] for c in self.classes)

    @cached_property
    def element_orders(self) -> tuple[int, ...]:
        orders = []
        for i in range(self.order):
            k, cur = 1, i
            while cur != self.identity:
                cur, k = self.cayley[cur][i], k + 1
            orders.append(k)
        return tuple(orders)

    def element_order(self, i: int) -> int:
        return self.element_orders[i]

    def exponent(self) -> int:
        return lcm(*self.element_orders)

    def is_abelian(self) -> bool:
        return all(
            self.cayley[i][j] == self.cayley[j][i]
            for i in range(self.order)
            for j in range(i)
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteGroup) and self.cayley == other.cayley

    def __hash__(self) -> int:
        return hash(self.cayley)

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"

    # -- JSON descriptor ------------------------------------------------

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "cayley": [list(row) for row in self.cayley],
            "labels": list(self.labels),
        }

    @classmethod
    def from_json(cls, data: dict) -> "FiniteGroup":
        try:
            g = cls(data["cayley"], data.get("labels"))
            declared = integer(data.get("order", g.order))
        except (KeyError, TypeError) as exc:
            raise GroupError(f"bad group descriptor ({type(exc).__name__}): {exc}") from exc
        if declared != g.order:
            raise GroupError("declared order does not match Cayley table")
        return g


def cyclic_group(n: int) -> FiniteGroup:
    """Z/nZ with element i representing g^i."""
    if n < 1:
        raise GroupError("n must be positive")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    labels = ["1"] + [f"g^{i}" if i > 1 else "g" for i in range(1, n)]
    return FiniteGroup(table, labels)


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    n, m = g.order, h.order
    table = [
        [
            g.mul(a // m, b // m) * m + h.mul(a % m, b % m)
            for b in range(n * m)
        ]
        for a in range(n * m)
    ]
    labels = [f"({g.labels[a // m]},{h.labels[a % m]})" for a in range(n * m)]
    return FiniteGroup(table, labels)


def symmetric_group_s3() -> FiniteGroup:
    """S3 as permutations of {0,1,2}; used as the nonabelian test table."""
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0)]
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[k]] for k in range(3))] for q in perms] for p in perms
    ]
    return FiniteGroup(table, ["e", "r", "r2", "s", "sr", "sr2"])


@dataclass(frozen=True)
class ConjugacyClass:
    representative: int
    members: tuple[int, ...]
    centralizer_order: int


def conjugacy_classes(g: FiniteGroup) -> tuple[ConjugacyClass, ...]:
    """The conjugacy classes of g, computed once per group (see FiniteGroup.classes)."""
    return g.classes


def _conjugacy_partition(g: FiniteGroup) -> tuple[ConjugacyClass, ...]:
    seen, classes = set(), []
    for rep in range(g.order):
        if rep in seen:
            continue
        members = sorted({g.mul(g.mul(h, rep), g.inv(h)) for h in range(g.order)})
        seen.update(members)
        classes.append(ConjugacyClass(members[0], tuple(members), g.order // len(members)))
    classes.sort(key=lambda c: (c.representative != g.identity, c.members[0]))
    for c in classes:
        assert len(c.members) * c.centralizer_order == g.order
    return tuple(classes)


class Character:
    """A class function on a group with cyclotomic values, one per class."""

    def __init__(self, group: FiniteGroup, values):
        self.group = group
        vals = tuple(Cyclotomic.coerce(v) for v in values)
        if len(vals) != len(group.classes):
            raise GroupError("one value per conjugacy class required")
        self.values = vals

    def value_at_element(self, element: int) -> Cyclotomic:
        return self.values[self.group.class_of[element]]

    def degree(self) -> Cyclotomic:
        return self.values[0]

    def _check(self, other: "Character"):
        if self.group != other.group:
            raise GroupError("characters belong to different groups")

    def __add__(self, other: "Character") -> "Character":
        self._check(other)
        return Character(self.group, [a + b for a, b in zip(self.values, other.values)])

    def __mul__(self, other):
        if isinstance(other, Character):
            self._check(other)
            return Character(
                self.group, [a * b for a, b in zip(self.values, other.values)]
            )
        return Character(self.group, [v * other for v in self.values])

    __rmul__ = __mul__

    def dual(self) -> "Character":
        """chi^vee(g) = chi(g^{-1}); equals conjugation for genuine characters."""
        return Character(self.group, [self.values[k] for k in self.group.inverse_class])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Character)
            and self.group == other.group
            and all(a == b for a, b in zip(self.values, other.values))
        )

    def __repr__(self) -> str:
        return "Character(" + ", ".join(map(repr, self.values)) + ")"


def trivial_character(g: FiniteGroup) -> Character:
    return Character(g, [1] * len(g.classes))


def regular_character(g: FiniteGroup) -> Character:
    return Character(g, [g.order if c.representative == g.identity else 0 for c in g.classes])


def abelian_character_table(g: FiniteGroup) -> tuple[Character, ...]:
    """All |G| irreducible characters of an abelian group.

    Characters are built by extending along a chain of cyclic extensions;
    values are powers of zeta_E with E the exponent of G, tracked as integer
    exponents so everything stays exact.
    """
    if not g.is_abelian():
        raise GroupError("internal character tables only for abelian groups")
    e = g.exponent()
    # each character: tuple of exponents a_i with chi(i) = zeta_E^{a_i}
    subgroup = [g.identity]
    chars: list[dict[int, int]] = [{g.identity: 0}]
    while len(subgroup) < g.order:
        gen = next(i for i in range(g.order) if i not in subgroup)
        # k = index of <subgroup, gen> over subgroup
        k, cur = 1, gen
        while cur not in subgroup:
            cur = g.mul(cur, gen)
            k += 1
        anchor = cur  # gen^k, inside the current subgroup
        powers = [g.identity]
        for _ in range(k - 1):
            powers.append(g.mul(powers[-1], gen))
        new_subgroup = [g.mul(h, p) for h in subgroup for p in powers]
        new_chars = []
        for chi in chars:
            b = chi[anchor]
            # solve k*a = b (mod E); solvable with exactly k solutions
            assert b % k == 0
            a0 = (b // k) % e
            step = e // k
            for t in range(k):
                a = (a0 + t * step) % e
                ext = dict(chi)
                for h in subgroup:
                    for j, p in enumerate(powers):
                        ext[g.mul(h, p)] = (chi[h] + j * a) % e
                new_chars.append(ext)
        subgroup, chars = new_subgroup, new_chars
    table = [
        Character(g, [root_of_unity(e, chi[c.representative]) for c in g.classes]) for chi in chars
    ]
    # deterministic order: by exponent vector over class representatives
    table.sort(key=lambda ch: tuple(tuple(c.coeffs) for c in ch.values))
    return tuple(table)


def char_inner_product(chi: Character, psi: Character) -> Fraction:
    """<chi, psi> = (1/|G|) sum_g chi(g^{-1}) psi(g) = sum_z (1/z) sum_{c: |C(c)| = z} chi(c^{-1}) psi(c).

    One rescale by 1/z per distinct centralizer order z: one per pairing on an abelian group.
    """
    chi._check(psi)
    g = chi.group
    sums: dict[int, Cyclotomic] = {}
    for c, k, value in zip(g.classes, g.inverse_class, psi.values):
        z = c.centralizer_order
        sums[z] = chi.values[k] * value + sums.get(z, 0)
    return sum(s * Fraction(1, z) for z, s in sums.items()).as_rational()


def char_inner_product_elementwise(chi: Character, psi: Character) -> Fraction:
    """Direct sum over all group elements: the independent oracle for `char_inner_product`.

    It must not share that function's centralizer-order fold, or one fault would pass both."""
    chi._check(psi)
    g = chi.group
    total = Cyclotomic.zero()
    for h in range(g.order):
        total = total + chi.value_at_element(g.inv(h)) * psi.value_at_element(h)
    return (total * Fraction(1, g.order)).as_rational()


def invariant_dimension(chi: Character) -> Fraction:
    """dim V^G = <1, chi>; must be a non-negative integer."""
    dim = char_inner_product(trivial_character(chi.group), chi)
    if dim.denominator != 1 or dim < 0:
        raise GroupError(f"invariant dimension {dim} is not a non-negative integer")
    return dim


def character_table_to_json(table) -> dict:
    if not table:
        raise GroupError("a character table has at least one character")
    group = table[0].group
    return {
        "group": group.to_json(),
        "characters": [[format_cyclotomic(v) for v in ch.values] for ch in table],
    }


def character_table_from_json(data: dict) -> tuple[Character, ...]:
    for key in ("group", "characters"):
        if not isinstance(data, dict) or key not in data:
            raise GroupError(f"character table descriptor missing '{key}'")
    rows = data["characters"]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise GroupError("'characters' must be a list of lists")
    group = FiniteGroup.from_json(data["group"])
    try:
        values = [[parse_cyclotomic(s) for s in row] for row in rows]
    except ValueError as exc:
        raise GroupError(f"bad character value: {exc}") from exc
    table = tuple(Character(group, row) for row in values)
    try:
        validate_orthogonality(table)
    except (AmbientFieldError, ExactnessError) as exc:  # orders meeting beyond 840, or an irrational pairing
        raise GroupError(f"orthogonality check: {exc}") from exc
    return table


def validate_orthogonality(table) -> None:
    """Check an externally supplied table: one row per conjugacy class, orthonormal rows.

    Pairs j >= i only: <chi, psi> = <psi, chi> for any class functions (substitute
    g -> g^-1), so a row-major scan meets every failing pair first at j >= i.
    """
    if not table or len(table) != len(table[0].group.classes):
        raise GroupError("a character table needs exactly one row per conjugacy class")
    for i, chi in enumerate(table):
        for j, psi in enumerate(table[i:], i):
            expected = Fraction(1 if i == j else 0)
            got = char_inner_product(chi, psi)
            if got != expected:
                raise GroupError(
                    f"character table fails orthogonality at ({i},{j}): {got}"
                )
