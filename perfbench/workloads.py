"""The benchmark's workloads: seeded inputs, one public-API call per request, exact oracles.

Each workload hands out its requests in rounds.  A round always holds the
same multiset of request shapes (field orders, group orders, request types);
the seed picks the random coefficients, classes, relabellings and pairs and
the order of the requests.  Runs measure whole rounds, so the cost mix of a
run does not depend on the seed, which keeps the figures steady across seeds.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod

# Fixed-point counts f_n of a symplectic automorphism of order n on a K3
# surface (Nikulin; Mukai).  Kept here so the oracle does not read the
# library's own table.
FIXED_POINTS = {2: 8, 3: 6, 4: 4, 5: 4, 6: 2, 7: 3, 8: 2}


class WrongResult(Exception):
    """A request returned a value that its oracle rejects."""


@dataclass(frozen=True)
class Sizes:
    """Input sizes of every workload."""

    hilb_max_length: int = 3  # enumerate_mu2(l) for l = 0..hilb_max_length
    hilb_random: int = 90  # seeded random (n, m) classes per round
    preset_max: int = 8  # fixed-points and presets for n = 2..preset_max
    suminv_max: int = 31  # sum_inverse_one_minus_cos(n) for n = 2..suminv_max
    parseval_max: int = 16  # one random Parseval pair for each n = 2..parseval_max
    kring_per_round: int = 3  # weighted projective K-ring requests per round
    # abelian groups Z/a x Z/b x ..., orders 24..120, one of each per round
    group_specs: tuple = (
        (2, 12), (2, 2, 6), (6, 6), (36,), (4, 12),
        (2, 24), (60,), (6, 12), (4, 24), (2, 2, 30),
    )
    pairs_per_group: int = 6


FULL = Sizes()
# For the smoke test: every request type, at the smallest sizes.
TINY = Sizes(
    hilb_max_length=1, hilb_random=3, preset_max=3, suminv_max=6, parseval_max=4,
    kring_per_round=2, group_specs=((2, 2), (4,)), pairs_per_group=2,
)


def euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise WrongResult(what)


class Workload:
    """A workload: inputs made in rounds, one library call per request, an oracle per result.

    `state` holds what earlier requests of the same round returned, for the
    requests that consume it.
    """

    name = ""

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def generate(self, mods) -> None:
        """Input generation that needs the library; part of set-up."""

    def warm_up(self, mods) -> None:
        """Fill the library's caches for the inputs to come; part of set-up."""

    def make_round(self, rng) -> list:
        """One round of (kind, payload) requests."""
        raise NotImplementedError

    def execute(self, mods, kind, payload, state):
        """The timed request: one public-API call."""
        raise NotImplementedError

    def check(self, kind, payload, result, state):
        """Raise WrongResult unless `result` is exact; return a comparable form of it."""
        raise NotImplementedError

    def props(self, kind, payload) -> tuple:
        """(field degree phi(L), group order) of a request, None where it has none."""
        raise NotImplementedError


class HilbEnum(Workload):
    """dim_mu2 over enumerated and random classes: tiny pairings in Q(zeta_2)."""

    name = "hilb-enum"

    def __init__(self, sizes: Sizes):
        super().__init__(sizes)
        self.classes: list[tuple[int, tuple[int, ...]]] = []

    def generate(self, mods) -> None:
        self.classes = []
        for length in range(self.sizes.hilb_max_length + 1):
            for row in mods.hilbert.enumerate_mu2(length):
                for m, d in zip(row.solutions, row.dims):
                    _expect(d == 2 * (row.n - sum(x * x for x in m)), f"enumerate_mu2 dim of {m}")
                    self.classes.append((row.n, tuple(m)))

    def warm_up(self, mods) -> None:
        mods.hilbert.dim_mu2(mods.hilbert.HilbClassMu2(1, (0,) * 8))

    def make_round(self, rng) -> list:
        reqs = [("dim_mu2", c) for c in self.classes]
        for _ in range(self.sizes.hilb_random):
            n = rng.randint(0, 10)
            reqs.append(("dim_mu2", (n, tuple(rng.randint(-3, 3) for _ in range(8)))))
        rng.shuffle(reqs)
        return reqs

    def execute(self, mods, kind, payload, state):
        n, m = payload
        return mods.hilbert.dim_mu2(mods.hilbert.HilbClassMu2(n, m))

    def check(self, kind, payload, result, state):
        n, m = payload
        _expect(result == 2 * (n - sum(x * x for x in m)), f"dim_mu2{payload} = {result}")
        return result

    def props(self, kind, payload) -> tuple:
        return 1, 2  # field degree phi(2), group mu_2


class UnitIdentity(Workload):
    """The unit identity three ways: CLI fixed-points, presets, trigonometric sums."""

    name = "unit-identity"

    def warm_up(self, mods) -> None:
        for n in range(2, self.sizes.suminv_max + 1):
            mods.cyclotomic.root_of_unity(n)
        self.execute(mods, "cli", 2, None)

    def make_round(self, rng) -> list:
        orders = range(2, self.sizes.preset_max + 1)
        reqs = [("cli", n) for n in orders] + [("preset", n) for n in orders]
        reqs += [("suminv", n) for n in range(2, self.sizes.suminv_max + 1)]
        rng.shuffle(reqs)
        return reqs

    def execute(self, mods, kind, n, state):
        if kind == "cli":
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = mods.cli.main(["fixed-points", "--order", str(n), "--json"])
            return rc, out.getvalue()
        if kind == "preset":
            return mods.inertia.validate_identity(mods.inertia.preset_cyclic(n))
        return mods.cyclotomic.sum_inverse_one_minus_cos(n)

    def check(self, kind, n, result, state):
        if kind == "cli":
            rc, text = result
            want = {"order": n, "fixed_points": FIXED_POINTS[n], "identity_residual": "1"}
            _expect(rc == 0 and json.loads(text) == want, f"fixed-points --order {n}: {result}")
        elif kind == "preset":
            _expect(result == 1, f"validate_identity(preset_cyclic({n})) = {result}")
        else:
            _expect(result == Fraction(n * n - 1, 6), f"sum_inverse_one_minus_cos({n}) = {result}")
        return result

    def props(self, kind, n) -> tuple:
        return euler_phi(n), (n if kind != "suminv" else None)


class ParsevalKRing(Workload):
    """Parseval on B(mu_n) for random pairs, plus weighted projective K-rings."""

    name = "parseval-kring"

    def warm_up(self, mods) -> None:
        for n in range(2, self.sizes.parseval_max + 1):
            mods.cyclotomic.root_of_unity(n)
        self.execute(mods, "parseval", (2, (1, 0), (0, 1)), None)
        self.execute(mods, "wps_relation", (1, 1), None)

    def make_round(self, rng) -> list:
        reqs = []
        for n in range(2, self.sizes.parseval_max + 1):
            f = tuple(rng.randint(-9, 9) for _ in range(n))
            g = tuple(rng.randint(-9, 9) for _ in range(n))
            reqs.append(("parseval", (n, f, g)))
        for i in range(self.sizes.kring_per_round):
            if i % 2 == 0:
                weights = tuple(rng.randint(1, 4) for _ in range(rng.randint(2, 3)))
                reqs.append(("wps_relation", weights))
            else:
                reqs.append(("wps_euler", rng.randint(1, 5)))
        rng.shuffle(reqs)
        return reqs

    def execute(self, mods, kind, payload, state):
        ts = mods.toystacks
        if kind == "parseval":
            n, f, g = payload
            return ts.parseval_check(ts.GroupRingElement(n, f), ts.GroupRingElement(n, g))
        if kind == "wps_relation":
            return ts.wps_relation_element(payload).is_zero()
        k = payload
        return ts.wps_euler_class_tangent((1,) * (k + 1)) == ts.projective_space_euler_class(k)

    def check(self, kind, payload, result, state):
        _expect(result is True, f"{kind}{payload} = {result}")
        return result

    def props(self, kind, payload) -> tuple:
        if kind == "parseval":
            return euler_phi(payload[0]), payload[0]
        return None, None


def abelian_cayley_table(spec, rng) -> tuple[list[list[int]], int]:
    """Cayley table of Z/a x Z/b x ... with elements relabelled at random.

    Returns the table and the label of the identity.
    """
    n = prod(spec)

    def digits(x):
        out = []
        for a in spec:
            out.append(x % a)
            x //= a
        return out

    def index(ds):
        x = 0
        for a, d in zip(reversed(spec), reversed(ds)):
            x = x * a + d
        return x

    label = list(range(n))
    rng.shuffle(label)
    elems = [digits(x) for x in range(n)]
    table = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            s = index([(p + q) % a for p, q, a in zip(elems[x], elems[y], spec)])
            table[label[x]][label[y]] = label[s]
    return table, label[0]


class Characters(Workload):
    """Abelian groups from JSON Cayley tables, their character tables, orthogonality."""

    name = "characters"

    def warm_up(self, mods) -> None:
        for spec in self.sizes.group_specs:
            mods.cyclotomic.root_of_unity(lcm(*spec))

    def make_round(self, rng) -> list:
        specs = list(self.sizes.group_specs)
        rng.shuffle(specs)
        reqs = []
        for gid, spec in enumerate(specs):
            table, identity = abelian_cayley_table(spec, rng)
            n = len(table)
            reqs.append(("group", (gid, {"order": n, "cayley": table}, identity, n, lcm(*spec))))
            reqs.append(("table", (gid, n, lcm(*spec))))
            for p in range(self.sizes.pairs_per_group):
                i = rng.randrange(n)
                j = i if p % 2 == 0 else rng.randrange(n)
                reqs.append(("pair", (gid, i, j, n, lcm(*spec))))
        return reqs

    def execute(self, mods, kind, payload, state):
        gr = mods.groups
        gid = payload[0]
        if kind == "group":
            state[gid] = gr.FiniteGroup.from_json(payload[1])
            return state[gid]
        if kind == "table":
            state[gid, "table"] = gr.abelian_character_table(state[gid])
            return state[gid, "table"]
        _, i, j, _, _ = payload
        table = state[gid, "table"]
        return gr.char_inner_product(table[i], table[j]), gr.char_inner_product_elementwise(
            table[i], table[j]
        )

    def check(self, kind, payload, result, state):
        if kind == "group":
            _, data, identity, _, _ = payload
            _expect(
                result.order == data["order"]
                and result.identity == identity
                and result.cayley == tuple(tuple(row) for row in data["cayley"]),
                f"group of order {data['order']} built wrong",
            )
            return result.order, result.identity, result.inverses
        if kind == "table":
            _, n, _ = payload
            _expect(
                len(result) == n and all(ch.degree() == 1 for ch in result),
                f"character table of order {n}: {len(result)} characters",
            )
            return hash(tuple(tuple(ch.values) for ch in result))
        _, i, j, _, _ = payload
        want = 1 if i == j else 0
        _expect(result[0] == result[1] == want, f"<chi_{i}, chi_{j}> = {result}")
        return result

    def props(self, kind, payload) -> tuple:
        n, exponent = payload[-2:]
        return euler_phi(exponent), n


WORKLOADS = {w.name: w for w in (HilbEnum, UnitIdentity, ParsevalKRing, Characters)}
