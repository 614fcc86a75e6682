"""Finite groups via Cayley tables, conjugacy data, and character theory.

A group is read through its tables: cayley[i][j] is i*j, inverses[i] is i^-1,
and the conjugacy data (classes, class_of, inverse_class, element_orders) is
computed on first use and at most once.  A character is a group and one value
per class in Q(zeta_E), E the exponent of the group, so inner products and
invariant dimensions come out exact.  Only abelian character tables are
computed; `validate_orthogonality` checks any table of `Character` rows
(e.g. S3's) exactly, for one row per class and orthonormality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .cyclotomic import Cyclotomic, root_of_unity
from .polyring import InputError, integer, integers


class GroupError(InputError):
    pass


class FiniteGroup:
    """A finite group presented by its Cayley table.

    cayley[i][j] is the index of the product of elements i and j.  The table
    is validated on construction: its entries are integers, every row and
    column is a permutation of the elements, there is a two-sided identity,
    and it is associative.  An associative Latin square with an identity is a
    group, so the inverse of g is where the identity sits in g's row.  The
    associativity test keeps `generators`: each is the first element outside
    the subgroup generated by the ones before it, and together they generate G.
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
        self.generators = tuple(gens)
        self.cayley = table
        self.order = n
        self.identity = identity
        self.inverses = tuple(row.index(identity) for row in table)
        labels = [f"g{i}" for i in range(n)] if labels is None else labels
        if not isinstance(labels, (list, tuple)) or [type(x) for x in labels] != [str] * n:
            raise GroupError(f"labels must be a list of {n} strings, one per element")
        self.labels = tuple(labels)

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

    def exponent(self) -> int:
        return lcm(*self.element_orders)

    def is_abelian(self) -> bool:
        """Generators commuting pairwise make every pair commute."""
        return all(self.cayley[x][y] == self.cayley[y][x] for x in self.generators for y in self.generators)

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
    if (n := integer(n)) < 1:
        raise GroupError("n must be positive")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    labels = ["1"] + [f"g^{i}" if i > 1 else "g" for i in range(1, n)]
    return FiniteGroup(table, labels)


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """G x H with element a * |H| + b representing (a, b)."""
    pairs = [(a, b) for a in range(g.order) for b in range(h.order)]
    table = [[g.cayley[a][c] * h.order + h.cayley[b][d] for c, d in pairs] for a, b in pairs]
    return FiniteGroup(table, [f"({g.labels[a]},{h.labels[b]})" for a, b in pairs])


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
    table, seen, classes = g.cayley, set(), []
    for rep in range(g.order):
        if rep in seen:
            continue
        members = sorted({table[table[h][rep]][h_inv] for h, h_inv in enumerate(g.inverses)})
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
    """All |G| irreducible characters of an abelian group, extended along `g.generators`.

    A character is its exponents a, chi(h) = zeta_E^a with E the exponent of G.  With x^k
    the least power of the next generator x in the subgroup H reached so far, k divides
    chi(x^k) and chi has k extensions chi(h x^j) = chi(h) + j a, a = chi(x^k)/k + t E/k.
    """
    if not g.is_abelian():
        raise GroupError("internal character tables only for abelian groups")
    e, chars = g.exponent(), [{g.identity: 0}]  # each defined on H, the keys of chars[0]
    for x in g.generators:
        k, xk = 1, x
        while xk not in chars[0]:
            k, xk = k + 1, g.cayley[xk][x]
        extended = []
        for chi in chars:
            for t in range(k):
                a, ext, coset = (chi[xk] + t * e) // k, dict(chi), chi
                for _ in range(k - 1):
                    coset = {g.cayley[h][x]: (v + a) % e for h, v in coset.items()}
                    ext.update(coset)
                extended.append(ext)
        chars = extended
    zeta = [root_of_unity(e, a) for a in range(e)]  # every exponent is reduced mod e
    table = [Character(g, [zeta[chi[c.representative]] for c in g.classes]) for chi in chars]
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
    g, class_of = chi.group, chi.group.class_of
    total = Cyclotomic.zero()
    for h, h_inv in enumerate(g.inverses):
        total = total + chi.values[class_of[h_inv]] * psi.values[class_of[h]]
    return (total * Fraction(1, g.order)).as_rational()


def invariant_dimension(chi: Character) -> Fraction:
    """dim V^G = <1, chi>; must be a non-negative integer."""
    dim = char_inner_product(trivial_character(chi.group), chi)
    if dim.denominator != 1 or dim < 0:
        raise GroupError(f"invariant dimension {dim} is not a non-negative integer")
    return dim


def validate_orthogonality(table) -> None:
    """Check a table of characters exactly: one row per conjugacy class, orthonormal rows.

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
