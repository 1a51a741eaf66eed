"""The example-mechanism library.

Each maker returns a MechanismSpec whose program, declared price protocol,
and declared tie protocol realize one of the benchmark constructions:

* warmup_tightness(c)   -- rounded single-item handoff; cc = c+1, tax = c;
                           c <= WARMUP_MAX_C = 8.
* value_tightness(m, c | bundles) -- bundle list (or the first c
                           singletons) priced by size with one half-unit
                           bump chosen by a rounded value query.
* demand_tightness      -- a family of min-affine menus indexed by a
                           rounded value query; the buyer optimizes with
                           one demand query per price vector.
* mt_gadget(m)          -- size-priced menu with a hidden half-unit bump;
                           found via the three-phase demand procedure.
* drop_tie(m)           -- two zero-priced items, equality-driven
                           tie-breaking over half-size bundles.
* drop_tax(m)           -- unit-priced half-size bundles gated by the
                           presenting player's values.
* drop_price(m)         -- three players; item a priced 1 or 2 by a
                           common-one test between the first two.
* posted_prices(p)      -- sequential fixed item prices (plumbing baseline).

Programs, price protocols and tie costs that read a valuation directly
(the bit-mode programs and every protocol) read its integer table
`v.scaled_table == (d, ints)`: v(s) >= 1 is ints[s] >= d, v(s) == 1/4 is
4 ints[s] == d, so no probe builds its `Fraction` table.  Value- and
demand-mode programs learn values only through the recorder's queries.
Ints end there: payments, query answers and transcript payloads stay
`Fraction`.

MECHANISMS declares each one once: its builder, its default catalog and
the schema of its config params.  Both take the params as keywords.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional

from .bundles import (MAX_ITEMS, all_bundles, best_bundle, bit, bundles_of_size, grand, size,
                      subset_sums)
from .demand_menus import (HALF, ONE, QUARTER, SIZES, ZERO, best_answer, hidden_bump_price,
                           hidden_problem_valuation, min_affine_argmax, mt_gadget_argmax)
from .menus import MinAffineMenu, eval_min_affine, in_menu_rebuild
from .protocol import MechanismSpec, PriceRun
from .queries import PriceVector, demand_query, price_ints
from .rational import INF
from .valuations import (
    DomainError,
    Valuation,
    ValuationCatalog,
    additive_valuation,
    layered_valuation,
    single_item_valuation,
    valuation_from_values,
)

ITEM_A = bit(0)
ITEM_B = bit(1)


def round_to_range(num: int, den: int, lo: int, hi: int) -> int:
    """The integer nearest num / den (den > 0) in [lo, hi], halves rounding
    up: floor(num / den + 1/2) == (2 num + den) // (2 den)."""
    return min(hi, max(lo, (2 * num + den) // (2 * den)))


def rounded_value(v: Valuation, s: int, lo: int, hi: int) -> int:
    """`round_to_range` of v(s), read off the integer table."""
    d, ints = v.scaled_table
    return round_to_range(ints[s], d, lo, hi)


def buyer_only(buyer: int, protocol):
    """The price protocol of a mechanism in which only player `buyer` can
    buy: every other player sees only the empty bundle, at price 0."""
    def run(spec, i, v_minus_i, s):
        return (protocol(spec, i, v_minus_i, s) if i == buyer
                else PriceRun(ZERO if s == 0 else INF, ()))
    return run


def menu_by_first_value(count: int, price_of):
    """The price protocol of a mechanism in which only player 1 buys, from
    menu t: player 0's value of item a, rounded into 1..count, picks t, and
    the protocol announces it and charges price_of(t, s)."""
    def protocol(spec, i, v_minus_i, s):
        t = rounded_value(v_minus_i[0], ITEM_A, 1, count)
        return PriceRun(price_of(t, s), ((0, t, count),))
    return buyer_only(1, protocol)


# ---------------------------------------------------------------- warm-up

WARMUP_MAX_C = 8  # the catalog holds 2^(c+1) + 1 valuations


def warmup_tightness(c: int, m: int = 2) -> MechanismSpec:
    top = 1 << c
    bound = Fraction(top)

    def program(profile, rec):
        v_alice, v_bob = profile
        t = rounded_value(v_alice, ITEM_A, 1, top)
        rec.send_number(0, t, top)
        d, ints = v_bob.scaled_table
        if ints[ITEM_A] >= t * d:
            rec.send_bit(1, 1)
            return (0, ITEM_A), (ZERO, Fraction(t))
        rec.send_bit(1, 0)
        return (0, 0), (ZERO, ZERO)

    return MechanismSpec(
        mech_id=f"warmup_tightness(c={c})",
        n=2,
        m=m,
        bound=bound,
        mode="bit",
        program=program,
        price_protocol=menu_by_first_value(
            top, lambda t, s: ZERO if s == 0 else Fraction(t) if s == ITEM_A else INF),
        tie_cost=lambda profile: 1,
    )


def warmup_catalog(c: int, m: int = 2) -> ValuationCatalog:
    top = 1 << c
    alice = tuple(single_item_valuation(m, 0, t) for t in range(1, top + 1))
    bob = tuple(single_item_valuation(m, 0, t) for t in range(0, top + 2))
    return ValuationCatalog((alice, bob))


# ------------------------------------------------------- value tightness

def value_tightness(m: int, c: Optional[int] = None, bundles=None) -> MechanismSpec:
    """Bundles priced by size, with the rounded first value query choosing
    which one costs an extra half unit.  The bundle list is `bundles`, each
    mask once, or else the first c singletons."""
    if (c is None) == (bundles is None):
        raise DomainError("value_tightness needs exactly one of c and bundles")
    bundle_list = tuple(bit(j) for j in range(c)) if bundles is None else tuple(bundles)
    c = len(bundle_list)
    if c < 1 or any(s == 0 or s >= (1 << m) for s in bundle_list):
        raise DomainError("value_tightness needs c <= m, or bundles within m items")
    if len(set(bundle_list)) < c:
        raise DomainError(f"value_tightness needs distinct bundles, got {list(bundle_list)}")
    bound = Fraction(max(size(s) for s in bundle_list)) + HALF

    # menu t prices each listed bundle at |s|, plus a half on the t-th; a
    # listed superset costs at least a unit more, so that is its menu price
    menus = [in_menu_rebuild(m, {0: ZERO, **{s: Fraction(2 * size(s) + (j == t - 1), 2)
                                             for j, s in enumerate(bundle_list)}})
             for t in range(1, c + 1)]

    def program(profile, rec):
        t = round_to_range(*rec.value_query(0, ITEM_A).as_integer_ratio(), 1, c)
        answers = [(s, rec.value_query(1, s)) for s in bundle_list]
        d, ints, _ = menus[t - 1].scaled
        best_mask = best_answer(answers, d, ints)[0]
        return (0, best_mask), (ZERO, menus[t - 1].price[best_mask])

    return MechanismSpec(
        mech_id=f"value_tightness(c={c},m={m})",
        n=2,
        m=m,
        bound=bound,
        mode="value",
        program=program,
        price_protocol=menu_by_first_value(c, lambda t, s: menus[t - 1].price[s]),
        tie_cost=lambda profile: m,
    )


def value_tightness_catalog(m: int, c: Optional[int] = None, bundles=None) -> ValuationCatalog:
    c = len(bundles) if c is None else c
    alice = tuple(single_item_valuation(m, 0, t) for t in range(1, c + 1))
    bob = tuple(additive_valuation([Fraction(x)] * m) for x in (0, HALF, 1, Fraction(3, 2), 2))
    return ValuationCatalog((alice, bob))


# ------------------------------------------------------ demand tightness

def make_min_affine_family(m: int, alpha: int, count: int) -> tuple[MinAffineMenu, ...]:
    """Deterministic family of distinct normalized min-affine menus
    supported on the first m/2 items (the rest priced at INF), each vector
    a `PriceVector`.  Both hold by construction: item 1 alone costs t/2 in
    menu t, and every price and offset is nonnegative with offset 0 on
    the first vector."""
    half = m // 2
    menus = []
    for t in range(1, count + 1):
        vectors = []
        offsets = []
        for k in range(alpha):
            vectors.append(PriceVector(Fraction(t + ((j + k) % half), 2) if j < half else INF
                                       for j in range(m)))
            offsets.append(Fraction(0) if k == 0 else Fraction(k, 4))
        menus.append(MinAffineMenu(m, tuple(vectors), tuple(offsets)))
    return tuple(menus)


def demand_tightness(m: int, alpha: int, count: int) -> MechanismSpec:
    menus = make_min_affine_family(m, alpha, count)
    # prices rise with the bundle and are finite only on the first m/2
    # items, so that bundle is every menu's dearest finite one
    bound = max(eval_min_affine(ma, grand(m // 2)) for ma in menus)

    def program(profile, rec):
        t = round_to_range(*rec.value_query(0, ITEM_A).as_integer_ratio(), 1, len(menus))
        ma = menus[t - 1]
        best_mask = min_affine_argmax(ma, lambda vec: rec.demand_query(1, vec))
        pay = eval_min_affine(ma, best_mask) if best_mask else ZERO
        return (0, best_mask), (ZERO, pay)

    return MechanismSpec(
        mech_id=f"demand_tightness(count={len(menus)},m={m})",
        n=2,
        m=m,
        bound=bound,
        mode="demand",
        program=program,
        price_protocol=menu_by_first_value(
            len(menus), lambda t, s: eval_min_affine(menus[t - 1], s)),
        tie_cost=lambda profile: m,
    )


def demand_tightness_catalog(m: int, alpha: int, count: int) -> ValuationCatalog:
    """The catalog does not depend on alpha."""
    alice = tuple(single_item_valuation(m, 0, t) for t in range(1, count + 1))
    half = m // 2
    support = [Fraction(2) if j < half else Fraction(0) for j in range(m)]
    bob = (
        additive_valuation([Fraction(0)] * m),
        additive_valuation(support),
        additive_valuation([Fraction(1)] * m),
        valuation_from_values(m, {grand(m): Fraction(3), bit(0): Fraction(2)}),
    )
    return ValuationCatalog((alice, bob))


# ------------------------------------------------------------- M_T gadget

@lru_cache(maxsize=1024)
def only_bundle(m: int, d: int) -> PriceVector:
    """The bundle d offered alone, for free."""
    return PriceVector(ZERO if d & bit(j) else INF for j in range(m))


def mt_gadget(m: int) -> MechanismSpec:
    """Size-priced menu with a half-unit bump on the half-size bundle the
    first player values at 1/4; the buyer's optimum is located with at most
    m+2 demand queries even though the bump is unknown in advance."""
    if m < 2 or m % 2:
        raise DomainError("mt_gadget needs even m >= 2")
    bound = Fraction(m)

    def program(profile, rec):
        def price_check(d: int) -> bool:
            return rec.demand_query(0, only_bundle(m, d))[1] == QUARTER

        got = mt_gadget_argmax(m, lambda prices: rec.demand_query(1, prices), price_check)
        return (0, got.bundle), (ZERO, got.price)

    def price_protocol(spec, i, v_minus_i, s):
        d, ints = v_minus_i[0].scaled_table
        hit = size(s) == m // 2 and 4 * ints[s] == d  # v(s) == 1/4
        return PriceRun(hidden_bump_price(s, s if hit else None), ((0, 1 if hit else 0, 2),))

    return MechanismSpec(
        mech_id=f"mt_gadget(m={m})",
        n=2,
        m=m,
        bound=bound,
        mode="demand",
        program=program,
        price_protocol=buyer_only(1, price_protocol),
        tie_cost=lambda profile: m,
    )


def mt_catalog(m: int) -> ValuationCatalog:
    sized = bundles_of_size(m, m // 2)
    t_masks = sorted({sized[0], sized[-1], sized[len(sized) // 2]})
    p1 = tuple(hidden_problem_valuation(m, t) for t in t_masks)
    # the additive-2-on-T buyers answer T to the opening all-ones query,
    # driving the full three-phase path when T is the hidden bundle
    focused = [
        additive_valuation(
            [Fraction(2) if t & bit(j) else Fraction(0) for j in range(m)]
        )
        for t in t_masks[:2]
    ]
    buyer = tuple(focused) + (
        additive_valuation([Fraction(2)] * m),
        valuation_from_values(
            m, {s: Fraction(min(size(s), m // 2 + 1)) for s in all_bundles(m)}
        ),
    )
    return ValuationCatalog((p1, buyer))


# ------------------------------------------------------- App E reductions

def encode_disjointness_string(m: int, bits: str, high=Fraction(1)) -> Valuation:
    """One bit per half-size bundle in ascending mask order, worth `high`."""
    sized = bundles_of_size(m, m // 2)
    if len(bits) != len(sized):
        raise DomainError(f"need {len(sized)} bits for m={m}")
    high = Fraction(high)
    return layered_valuation(m, {s: high if int(b) else Fraction(0)
                                 for s, b in zip(sized, bits)}, high)


def drop_tie(m: int) -> MechanismSpec:
    """Items a and b at price zero; equal single-item values fall through to
    the half-size equality rule, which costs exponential communication."""
    if m < 2 or m % 2:
        raise DomainError("drop_tie needs even m >= 2")
    sized = bundles_of_size(m, m // 2)

    def binary_only(v: Valuation) -> bool:
        """Every value 0 or 1: the reduced monotone table is over d = 1 and
        tops out at most at 1."""
        d, ints = v.scaled_table
        return d == 1 and ints[-1] <= 1

    def program(profile, rec):
        v1, v2 = profile
        t1, t2 = v1.scaled_table[1], v2.scaled_table[1]
        a2, b2 = t2[ITEM_A], t2[ITEM_B]  # one denominator: ints order like values
        cmp_code = 0 if a2 > b2 else (1 if a2 < b2 else 2)
        rec.send_number(1, cmp_code, 3)
        if cmp_code == 0:
            won = ITEM_A
        elif cmp_code == 1:
            won = ITEM_B
        else:
            f1, f2 = not binary_only(v1), not binary_only(v2)
            rec.send_bit(0, int(f1))
            rec.send_bit(1, int(f2))
            if f1 or f2:
                won = ITEM_A
            else:  # both tables are 0/1 over d = 1, so ints are values
                for s in sized:
                    rec.send_bit(0, int(t1[s] == 1))
                equal = any(t1[s] == t2[s] for s in sized)
                rec.send_bit(1, int(equal))
                won = ITEM_A if equal else ITEM_B
        return (0, won), (ZERO, ZERO)

    def price_protocol(spec, i, v_minus_i, s):
        return PriceRun(ZERO if s in (0, ITEM_A, ITEM_B) else INF, ())

    def tie_cost(profile):
        v1, v2 = profile
        t2 = v2.scaled_table[1]
        if t2[ITEM_A] != t2[ITEM_B]:
            return 2
        if not binary_only(v1) or not binary_only(v2):
            return 4
        return 4 + len(sized) + 1

    return MechanismSpec(
        mech_id=f"drop_tie(m={m})",
        n=2,
        m=m,
        bound=Fraction(1),
        mode="bit",
        program=program,
        price_protocol=buyer_only(1, price_protocol),
        tie_cost=tie_cost,
    )


def drop_tax(m: int) -> MechanismSpec:
    """Half-size bundles cost one unit when the presenting player values
    them at >= 1; the buyer takes his highest-value eligible bundle."""
    if m < 2 or m % 2:
        raise DomainError("drop_tax needs even m >= 2")
    sized = bundles_of_size(m, m // 2)

    def program(profile, rec):
        (d1, t1), (d2, t2) = profile[0].scaled_table, profile[1].scaled_table
        offered = []
        for s in sized:
            ok = t1[s] >= d1  # v1(s) >= 1
            rec.send_bit(0, int(ok))
            if ok:
                offered.append(s)
        # all cost 1: ranked by value (ints over one denominator), so a
        # zero-profit bundle beats the empty one
        best_mask, _ = best_bundle((s, t2[s]) for s in offered if t2[s] >= d2)
        rec.send_number(1, best_mask, 1 << m)
        pay = ONE if best_mask else ZERO
        return (0, best_mask), (ZERO, pay)

    def price_protocol(spec, i, v_minus_i, s):
        if s == 0:
            return PriceRun(ZERO, ())
        if size(s) > m // 2:
            return PriceRun(INF, ())
        d1, t1 = v_minus_i[0].scaled_table
        ok = any(t & s == s and t1[t] >= d1 for t in sized)
        return PriceRun(ONE if ok else INF, ((0, int(ok), 2),))

    return MechanismSpec(
        mech_id=f"drop_tax(m={m})",
        n=2,
        m=m,
        bound=Fraction(1),
        mode="bit",
        program=program,
        price_protocol=buyer_only(1, price_protocol),
        tie_cost=lambda profile: m,
    )


def drop_price(m: int) -> MechanismSpec:
    """Three players; the third may buy item a, priced 1 when the first two
    share a half-size bundle they both value at exactly 1, else 2."""
    if m < 2 or m % 2:
        raise DomainError("drop_price needs even m >= 2")
    sized = bundles_of_size(m, m // 2)

    def common_one(v1: Valuation, v2: Valuation) -> tuple[tuple[int, ...], bool]:
        """The first player's bit per half-size bundle, v1(s) == 1, and
        whether v2 is 1 on a bundle so marked."""
        (d1, t1), (d2, t2) = v1.scaled_table, v2.scaled_table
        xbits = tuple(int(t1[s] == d1) for s in sized)
        return xbits, any(x and t2[s] == d2 for x, s in zip(xbits, sized))

    def program(profile, rec):
        xbits, hit = common_one(profile[0], profile[1])
        for b in xbits:
            rec.send_bit(0, b)
        rec.send_bit(1, int(hit))
        k = 1 if hit else 2
        d3, t3 = profile[2].scaled_table
        take = t3[ITEM_A] > k * d3  # v3(a) above the price k
        rec.send_bit(2, int(take))
        if take:
            return (0, 0, ITEM_A), (ZERO, ZERO, SIZES[k])
        return (0, 0, 0), (ZERO, ZERO, ZERO)

    def price_protocol(spec, i, v_minus_i, s):
        if s == 0:
            return PriceRun(ZERO, ())
        if s != ITEM_A:
            return PriceRun(INF, ())
        xbits, hit = common_one(*v_minus_i)
        price = SIZES[1 if hit else 2]
        return PriceRun(price, ((0, xbits, 1 << len(sized)), (1, int(hit), 2)))

    return MechanismSpec(
        mech_id=f"drop_price(m={m})",
        n=3,
        m=m,
        bound=Fraction(2),
        mode="bit",
        program=program,
        price_protocol=buyer_only(2, price_protocol),
        tie_cost=lambda profile: 0,
    )


def layer_catalog(m: int, high=Fraction(1)) -> tuple[Valuation, ...]:
    """The all-zero, all-one and two alternating half-size layers."""
    width = len(bundles_of_size(m, m // 2))
    strings = ["0" * width, "1" * width, ("10" * width)[:width], ("01" * width)[:width]]
    return tuple(encode_disjointness_string(m, s, high=high) for s in strings)


def drop_tie_catalog(m: int) -> ValuationCatalog:
    p1 = layer_catalog(m)
    return ValuationCatalog((p1, p1))


def drop_tax_catalog(m: int) -> ValuationCatalog:
    return ValuationCatalog((layer_catalog(m), layer_catalog(m, high=Fraction(2))))


def drop_price_catalog(m: int) -> ValuationCatalog:
    p1 = layer_catalog(m)
    p3 = tuple(single_item_valuation(m, 0, x) for x in (HALF, Fraction(3, 2), Fraction(5, 2)))
    return ValuationCatalog((p1, p1, p3))


# ----------------------------------------------------------- posted prices

def posted_prices(prices, n: int = 2) -> MechanismSpec:
    prices = tuple(Fraction(p) for p in prices)
    m = len(prices)
    bound = sum(prices, Fraction(0))

    den, ints = price_ints(prices)
    costs = subset_sums(ints)  # every bundle's price over den

    @lru_cache(maxsize=1024)
    def offer(remaining: int) -> PriceVector:
        return PriceVector(prices[j] if remaining & bit(j) else INF for j in range(m))

    @lru_cache(maxsize=1024)
    def cost(mask: int) -> Fraction:
        return Fraction(costs[mask], den)

    def program(profile, rec):
        remaining = grand(m)
        allocation = []
        payments = []
        for i in range(n):
            d_mask, _ = rec.demand_query(i, offer(remaining))
            allocation.append(d_mask)
            payments.append(cost(d_mask))
            remaining &= ~d_mask
        return tuple(allocation), tuple(payments)

    def price_protocol(spec, i, v_minus_i, s):
        remaining = grand(m)
        tokens = []
        for j in range(i):
            d_mask, _ = demand_query(v_minus_i[j], offer(remaining))
            tokens.append((j, d_mask, 1 << m))
            remaining &= ~d_mask
        return PriceRun(cost(s) if s & remaining == s else INF, tuple(tokens))

    return MechanismSpec(
        mech_id=f"posted_prices(m={m},n={n})",
        n=n,
        m=m,
        bound=bound if bound > 0 else Fraction(1),
        mode="demand",
        program=program,
        price_protocol=price_protocol,
        tie_cost=lambda profile: n * m,
    )


def posted_catalog(prices, n: int = 2) -> ValuationCatalog:
    m = len(prices)  # at m = 1 two of the four tables repeat; the first copy stays
    base = [
        additive_valuation([Fraction(0)] * m),
        additive_valuation([Fraction(2)] * m),
        additive_valuation([Fraction(j % 2 * 3, 2) for j in range(m)]),
        valuation_from_values(m, {grand(m): Fraction(2)}),
    ]
    return ValuationCatalog(tuple(tuple(dict.fromkeys(base)) for _ in range(n)))


# --------------------------------------------------------------- registry

@dataclass(frozen=True)
class Param:
    """An "int", or a list of 1..MAX_ITEMS "ints" or "rationals", each in low..high
    (high None: unbounded); an omitted param takes `default` unless required."""

    kind: str
    low: int
    high: Optional[int] = None
    default: object = None
    required: bool = False


@dataclass(frozen=True)
class Mechanism:
    build: Callable[..., MechanismSpec]  # params as keywords -> spec
    catalog: Callable[..., ValuationCatalog]  # params as keywords -> default catalog
    params: dict[str, Param]

    def complete(self, params: dict) -> dict:
        """`params` plus the default of every omitted optional param."""
        return {**{k: p.default for k, p in self.params.items() if not p.required}, **params}


# an even m is checked by the builders that need one
HALVED_M = {"m": Param("int", 2, MAX_ITEMS, required=True)}

MECHANISMS: dict[str, Mechanism] = {
    "warmup_tightness": Mechanism(warmup_tightness, warmup_catalog, {
        "c": Param("int", 1, WARMUP_MAX_C, required=True),
        "m": Param("int", 1, MAX_ITEMS, default=2)}),
    "value_tightness": Mechanism(value_tightness, value_tightness_catalog, {
        "m": Param("int", 1, MAX_ITEMS, required=True),
        "c": Param("int", 1, MAX_ITEMS),
        "bundles": Param("ints", 1, (1 << MAX_ITEMS) - 1)}),
    # alpha and count are capped so the family's tables stay small
    "demand_tightness": Mechanism(demand_tightness, demand_tightness_catalog, {
        "m": Param("int", 2, MAX_ITEMS, required=True),
        "alpha": Param("int", 1, 8, default=2),
        "count": Param("int", 1, 64, default=4)}),
    "mt_gadget": Mechanism(mt_gadget, mt_catalog, HALVED_M),
    "drop_tie": Mechanism(drop_tie, drop_tie_catalog, HALVED_M),
    "drop_tax": Mechanism(drop_tax, drop_tax_catalog, HALVED_M),
    "drop_price": Mechanism(drop_price, drop_price_catalog, HALVED_M),
    "posted_prices": Mechanism(posted_prices, posted_catalog, {
        "prices": Param("rationals", 0, required=True),
        "n": Param("int", 1, MAX_ITEMS, default=2)}),
}


def mechanism(mech_id) -> Mechanism:
    if not isinstance(mech_id, str) or mech_id not in MECHANISMS:
        raise DomainError(f"unknown mechanism id {mech_id!r}; choose from {tuple(MECHANISMS)}")
    return MECHANISMS[mech_id]


def make_example(mech_id: str, params: dict | None = None) -> MechanismSpec:
    mech = mechanism(mech_id)
    return mech.build(**mech.complete(params or {}))


def default_catalog(mech_id: str, params: dict | None = None) -> ValuationCatalog:
    """The canonical catalog of the mechanism built from the same params."""
    mech = mechanism(mech_id)
    return mech.catalog(**mech.complete(params or {}))
