"""The example-mechanism library.

Each maker returns a MechanismSpec whose program, declared price protocol,
and declared tie protocol realize one of the benchmark constructions:

* warmup_tightness(c)   -- rounded single-item handoff; cc = c+1, tax = c;
                           c <= WARMUP_MAX_C = 8.
* value_tightness(T, c) -- bundle list priced by size with one half-unit
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
"""

from __future__ import annotations

from fractions import Fraction
from math import floor

from .bundles import all_bundles, bit, bundles_of_size, check_m, grand, size
from .demand_menus import (HALF, QUARTER, hidden_bump_price, hidden_problem_valuation,
                           min_affine_argmax, mt_gadget_argmax)
from .menus import MinAffineMenu, eval_min_affine, min_affine_table
from .protocol import MechanismSpec, PriceRun
from .queries import demand_query
from .rational import INF, Price, is_finite
from .valuations import (
    DomainError,
    Valuation,
    ValuationCatalog,
    additive_valuation,
    single_item_valuation,
    valuation_from_values,
)

ITEM_A = bit(0)
ITEM_B = bit(1)


def round_to_range(x: Fraction, lo: int, hi: int) -> int:
    """Nearest integer in [lo, hi], halves rounding up."""
    return min(hi, max(lo, floor(x + HALF)))


# ---------------------------------------------------------------- warm-up

WARMUP_MAX_C = 8  # the catalog holds 2^(c+1) + 1 valuations


def warmup_tightness(c: int, m: int = 2) -> MechanismSpec:
    if not 1 <= c <= WARMUP_MAX_C or m < 1:
        raise DomainError(f"warmup_tightness needs 1 <= c <= {WARMUP_MAX_C}, m >= 1")
    top = 1 << c
    bound = Fraction(top)

    def program(profile, rec):
        v_alice, v_bob = profile
        t = round_to_range(v_alice.value(ITEM_A), 1, top)
        rec.send_number(0, t, top)
        if v_bob.value(ITEM_A) >= t:
            rec.send_bit(1, 1)
            return (0, ITEM_A), (Fraction(0), Fraction(t))
        rec.send_bit(1, 0)
        return (0, 0), (Fraction(0), Fraction(0))

    def price_protocol(spec, i, v_minus_i, s):
        if i == 0:
            return PriceRun(Fraction(0) if s == 0 else INF, ())
        t = round_to_range(v_minus_i[0].value(ITEM_A), 1, top)
        if s == 0:
            price: Price = Fraction(0)
        elif s == ITEM_A:
            price = Fraction(t)
        else:
            price = INF
        return PriceRun(price, ((0, t, top),))

    return MechanismSpec(
        mech_id=f"warmup_tightness(c={c})",
        n=2,
        m=m,
        bound=bound,
        mode="bit",
        program=program,
        grid_bits=max(1, c),
        price_protocol=price_protocol,
        tie_cost_fn=lambda profile: 1,
    )


def warmup_catalog(c: int, m: int = 2) -> ValuationCatalog:
    if not 1 <= c <= WARMUP_MAX_C:
        raise DomainError(f"warmup_catalog needs 1 <= c <= {WARMUP_MAX_C}")
    top = 1 << c
    alice = tuple(single_item_valuation(m, 0, t) for t in range(1, top + 1))
    bob = tuple(single_item_valuation(m, 0, t) for t in range(0, top + 2))
    return ValuationCatalog((alice, bob))


# ------------------------------------------------------- value tightness

def value_tightness(bundle_list: tuple[int, ...], m: int) -> MechanismSpec:
    """Bundles priced by size, with the rounded first value query choosing
    which one costs an extra half unit."""
    c = len(bundle_list)
    if c < 1 or any(s == 0 or s >= (1 << m) for s in bundle_list):
        raise DomainError("value_tightness needs nonempty bundles within m items")
    bound = Fraction(max(size(s) for s in bundle_list)) + HALF

    def menu_prices(t: int) -> dict[int, Fraction]:
        return {
            s: Fraction(size(s)) + (HALF if j == t - 1 else Fraction(0))
            for j, s in enumerate(bundle_list)
        }

    def program(profile, rec):
        t = round_to_range(rec.value_query(0, ITEM_A), 1, c)
        prices = menu_prices(t)
        best_mask, best_profit = 0, Fraction(0)
        for s in bundle_list:
            profit = rec.value_query(1, s) - prices[s]
            if profit > best_profit or (profit == best_profit and s < best_mask):
                best_mask, best_profit = s, profit
        pay = prices[best_mask] if best_mask else Fraction(0)
        return (0, best_mask), (Fraction(0), pay)

    def price_protocol(spec, i, v_minus_i, s):
        if i == 0:
            return PriceRun(Fraction(0) if s == 0 else INF, ())
        t = round_to_range(v_minus_i[0].value(ITEM_A), 1, c)
        prices = menu_prices(t)
        best: Price = INF
        for k, p in prices.items():
            if k & s == s and p < best:
                best = p
        price = Fraction(0) if s == 0 else best
        return PriceRun(price, ((0, t, c),))

    return MechanismSpec(
        mech_id=f"value_tightness(c={c},m={m})",
        n=2,
        m=m,
        bound=bound,
        mode="value",
        program=program,
        grid_bits=6,
        price_protocol=price_protocol,
        tie_cost_fn=lambda profile: m,
    )


def value_tightness_default(c: int, m: int) -> MechanismSpec:
    if c > m:
        raise DomainError("default bundle list uses the first c singletons")
    return value_tightness(tuple(bit(j) for j in range(c)), m)


def value_tightness_catalog(spec: MechanismSpec, c: int, bob_values=None) -> ValuationCatalog:
    m = spec.m
    alice = tuple(single_item_valuation(m, 0, t) for t in range(1, c + 1))
    if bob_values is None:
        bob_values = [0, HALF, 1, Fraction(3, 2), 2]
    bob = tuple(additive_valuation([Fraction(x)] * m) for x in bob_values)
    return ValuationCatalog((alice, bob))


# ------------------------------------------------------ demand tightness

def make_min_affine_family(m: int, alpha: int, count: int) -> tuple[MinAffineMenu, ...]:
    """Deterministic family of distinct normalized min-affine menus
    supported on the first m/2 items (everything touching the rest is
    infinitely priced)."""
    half = m // 2
    if half < 1 or alpha < 1 or count < 1:
        raise DomainError("need m >= 2, alpha >= 1, count >= 1")
    menus = []
    for t in range(1, count + 1):
        vectors = []
        offsets = []
        for k in range(alpha):
            vec = [
                Fraction(t + ((j + k) % half), 2) if j < half else INF
                for j in range(m)
            ]
            vectors.append(tuple(vec))
            offsets.append(Fraction(0) if k == 0 else Fraction(k, 4))
        menus.append(MinAffineMenu(m, tuple(vectors), tuple(offsets)))
    tables = {min_affine_table(ma).price for ma in menus}
    if len(tables) != count:
        raise DomainError("min-affine family members must be distinct")
    for ma in menus:
        if not min_affine_table(ma).is_normalized():
            raise DomainError("min-affine family members must be normalized menus")
    return tuple(menus)


def demand_tightness(menus: tuple[MinAffineMenu, ...], m: int) -> MechanismSpec:
    if any(ma.beta != 0 for ma in menus):
        raise DomainError("demand_tightness menus must have no exceptions")
    if any(ma.m != m for ma in menus):
        raise DomainError("menu item count mismatch")
    bound = Fraction(0)
    for ma in menus:
        for s in all_bundles(m):
            p = eval_min_affine(ma, s)
            if is_finite(p) and p > bound:
                bound = p

    def program(profile, rec):
        t = round_to_range(rec.value_query(0, ITEM_A), 1, len(menus))
        ma = menus[t - 1]
        best_mask = min_affine_argmax(ma, lambda vec: rec.demand_query(1, vec))
        pay = eval_min_affine(ma, best_mask) if best_mask else Fraction(0)
        return (0, best_mask), (Fraction(0), pay)

    def price_protocol(spec, i, v_minus_i, s):
        if i == 0:
            return PriceRun(Fraction(0) if s == 0 else INF, ())
        t = round_to_range(v_minus_i[0].value(ITEM_A), 1, len(menus))
        return PriceRun(eval_min_affine(menus[t - 1], s), ((0, t, len(menus)),))

    return MechanismSpec(
        mech_id=f"demand_tightness(count={len(menus)},m={m})",
        n=2,
        m=m,
        bound=bound,
        mode="demand",
        program=program,
        grid_bits=6,
        price_protocol=price_protocol,
        tie_cost_fn=lambda profile: m,
    )


def demand_tightness_catalog(spec: MechanismSpec, count: int) -> ValuationCatalog:
    m = spec.m
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

def mt_gadget(m: int) -> MechanismSpec:
    """Size-priced menu with a half-unit bump on the half-size bundle the
    first player values at 1/4; the buyer's optimum is located with at most
    m+2 demand queries even though the bump is unknown in advance."""
    if m < 2 or m % 2:
        raise DomainError("mt_gadget needs even m >= 2")
    bound = Fraction(m)

    def program(profile, rec):
        def price_check(d: int) -> bool:
            only_d = tuple(Fraction(0) if d & bit(j) else INF for j in range(m))
            return rec.demand_query(0, only_d)[1] == QUARTER

        got = mt_gadget_argmax(m, lambda prices: rec.demand_query(1, prices), price_check)
        return (0, got.bundle), (Fraction(0), got.price)

    def price_protocol(spec, i, v_minus_i, s):
        if i == 0:
            return PriceRun(Fraction(0) if s == 0 else INF, ())
        hit = size(s) == m // 2 and v_minus_i[0].value(s) == QUARTER
        return PriceRun(hidden_bump_price(s, s if hit else None), ((0, 1 if hit else 0, 2),))

    return MechanismSpec(
        mech_id=f"mt_gadget(m={m})",
        n=2,
        m=m,
        bound=bound,
        mode="demand",
        program=program,
        grid_bits=6,
        price_protocol=price_protocol,
        tie_cost_fn=lambda profile: m,
    )


def mt_catalog(m: int, t_masks=None, buyer=None) -> ValuationCatalog:
    half = m // 2
    if t_masks is None:
        sized = bundles_of_size(m, half)
        t_masks = sorted({sized[0], sized[-1], sized[len(sized) // 2]})
    p1 = tuple(hidden_problem_valuation(m, t) for t in t_masks)
    if buyer is None:
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
    return ValuationCatalog((p1, tuple(buyer)))


# ------------------------------------------------------- App E reductions

def half_size_bundles(m: int) -> list[int]:
    return bundles_of_size(m, m // 2)


def layered_valuation(m: int, level_bits: dict[int, int], high=Fraction(1)) -> Valuation:
    """0 below half size, the given bit per half-size bundle, `high` above."""
    half = m // 2
    high = Fraction(high)
    table = []
    for s in all_bundles(m):
        k = size(s)
        if k < half:
            table.append(Fraction(0))
        elif k == half:
            table.append(high if level_bits.get(s, 0) else Fraction(0))
        else:
            table.append(high)
    return Valuation(m, tuple(table))


def encode_disjointness_string(m: int, bits: str, high=Fraction(1)) -> Valuation:
    """One bit per half-size bundle in ascending mask order."""
    sized = half_size_bundles(m)
    if len(bits) != len(sized):
        raise DomainError(f"need {len(sized)} bits for m={m}")
    return layered_valuation(
        m, {s: int(b) for s, b in zip(sized, bits)}, high=high
    )


def drop_tie(m: int) -> MechanismSpec:
    """Items a and b at price zero; equal single-item values fall through to
    the half-size equality rule, which costs exponential communication."""
    if m < 2 or m % 2:
        raise DomainError("drop_tie needs even m >= 2")
    sized = half_size_bundles(m)

    def binary_only(v: Valuation) -> bool:
        return all(x == 0 or x == 1 for x in v.table)

    def program(profile, rec):
        v1, v2 = profile
        a2, b2 = v2.value(ITEM_A), v2.value(ITEM_B)
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
            else:
                for s in sized:
                    rec.send_bit(0, int(v1.value(s) == 1))
                equal = any(v1.value(s) == v2.value(s) for s in sized)
                rec.send_bit(1, int(equal))
                won = ITEM_A if equal else ITEM_B
        return (0, won), (Fraction(0), Fraction(0))

    def price_protocol(spec, i, v_minus_i, s):
        if i == 0:
            return PriceRun(Fraction(0) if s == 0 else INF, ())
        price: Price = Fraction(0) if s in (0, ITEM_A, ITEM_B) else INF
        return PriceRun(price, ())

    def tie_cost(profile):
        v1, v2 = profile
        if v2.value(ITEM_A) != v2.value(ITEM_B):
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
        grid_bits=2,
        price_protocol=price_protocol,
        tie_cost_fn=tie_cost,
    )


def drop_tax(m: int) -> MechanismSpec:
    """Half-size bundles cost one unit when the presenting player values
    them at >= 1; the buyer takes his highest-value eligible bundle."""
    if m < 2 or m % 2:
        raise DomainError("drop_tax needs even m >= 2")
    sized = half_size_bundles(m)

    def program(profile, rec):
        v1, v2 = profile
        offered = []
        for s in sized:
            ok = v1.value(s) >= 1
            rec.send_bit(0, int(ok))
            if ok:
                offered.append(s)
        best_mask, best_value = 0, None
        for s in offered:
            val = v2.value(s)
            if val >= 1 and (best_value is None or val > best_value
                             or (val == best_value and s < best_mask)):
                best_mask, best_value = s, val
        rec.send_number(1, best_mask, 1 << m)
        pay = Fraction(1) if best_mask else Fraction(0)
        return (0, best_mask), (Fraction(0), pay)

    def price_protocol(spec, i, v_minus_i, s):
        if i == 0:
            return PriceRun(Fraction(0) if s == 0 else INF, ())
        if s == 0:
            return PriceRun(Fraction(0), ())
        if size(s) > m // 2:
            return PriceRun(INF, ())
        v1 = v_minus_i[0]
        ok = any(t & s == s and v1.value(t) >= 1 for t in sized)
        return PriceRun(Fraction(1) if ok else INF, ((0, int(ok), 2),))

    return MechanismSpec(
        mech_id=f"drop_tax(m={m})",
        n=2,
        m=m,
        bound=Fraction(1),
        mode="bit",
        program=program,
        grid_bits=2,
        price_protocol=price_protocol,
        tie_cost_fn=lambda profile: m,
    )


def drop_price(m: int) -> MechanismSpec:
    """Three players; the third may buy item a, priced 1 when the first two
    share a half-size bundle they both value at exactly 1, else 2."""
    if m < 2 or m % 2:
        raise DomainError("drop_price needs even m >= 2")
    sized = half_size_bundles(m)

    def program(profile, rec):
        v1, v2, v3 = profile
        xbits = tuple(int(v1.value(s) == 1) for s in sized)
        for b in xbits:
            rec.send_bit(0, b)
        hit = any(x and v2.value(s) == 1 for x, s in zip(xbits, sized))
        rec.send_bit(1, int(hit))
        price = Fraction(1) if hit else Fraction(2)
        take = v3.value(ITEM_A) > price
        rec.send_bit(2, int(take))
        if take:
            return (0, 0, ITEM_A), (Fraction(0), Fraction(0), price)
        return (0, 0, 0), (Fraction(0), Fraction(0), Fraction(0))

    def price_protocol(spec, i, v_minus_i, s):
        if i != 2:
            return PriceRun(Fraction(0) if s == 0 else INF, ())
        if s == 0:
            return PriceRun(Fraction(0), ())
        if s != ITEM_A:
            return PriceRun(INF, ())
        v1, v2 = v_minus_i
        xbits = tuple(int(v1.value(t) == 1) for t in sized)
        hit = any(x and v2.value(t) == 1 for x, t in zip(xbits, sized))
        price = Fraction(1) if hit else Fraction(2)
        return PriceRun(price, ((0, xbits, 1 << len(sized)), (1, int(hit), 2)))

    return MechanismSpec(
        mech_id=f"drop_price(m={m})",
        n=3,
        m=m,
        bound=Fraction(2),
        mode="bit",
        program=program,
        grid_bits=2,
        price_protocol=price_protocol,
        tie_cost_fn=lambda profile: 0,
    )


def drop_family_catalog(mech: str, m: int, strings: list[str] | None = None) -> ValuationCatalog:
    sized = half_size_bundles(m)
    width = len(sized)
    if strings is None:
        strings = ["0" * width, "1" * width, ("10" * width)[:width], ("01" * width)[:width]]
    if mech == "drop_tie":
        p1 = tuple(encode_disjointness_string(m, s) for s in strings)
        p2 = p1
        return ValuationCatalog((p1, p2))
    if mech == "drop_tax":
        p1 = tuple(encode_disjointness_string(m, s) for s in strings)
        p2 = tuple(encode_disjointness_string(m, s, high=Fraction(2)) for s in strings)
        return ValuationCatalog((p1, p2))
    if mech == "drop_price":
        p1 = tuple(encode_disjointness_string(m, s) for s in strings)
        p2 = p1
        p3 = tuple(
            single_item_valuation(m, 0, x)
            for x in (HALF, Fraction(3, 2), Fraction(5, 2))
        )
        return ValuationCatalog((p1, p2, p3))
    raise DomainError(f"unknown drop-family mechanism {mech}")


# ----------------------------------------------------------- posted prices

def posted_prices(per_item, n: int = 2) -> MechanismSpec:
    prices = tuple(Fraction(p) for p in per_item)
    m = len(prices)
    bound = sum(prices, Fraction(0))

    def program(profile, rec):
        remaining = grand(m)
        allocation = []
        payments = []
        for i in range(n):
            offer = tuple(
                prices[j] if remaining & bit(j) else INF for j in range(m)
            )
            d_mask, _ = rec.demand_query(i, offer)
            allocation.append(d_mask)
            payments.append(sum((prices[j] for j in range(m) if d_mask & bit(j)),
                                Fraction(0)))
            remaining &= ~d_mask
        return tuple(allocation), tuple(payments)

    def price_protocol(spec, i, v_minus_i, s):
        remaining = grand(m)
        tokens = []
        for j in range(i):
            offer = tuple(
                prices[k] if remaining & bit(k) else INF for k in range(m)
            )
            d_mask, _ = demand_query(v_minus_i[j], offer)
            tokens.append((j, d_mask, 1 << m))
            remaining &= ~d_mask
        if s & remaining == s:
            price: Price = sum((prices[j] for j in range(m) if s & bit(j)), Fraction(0))
        else:
            price = INF
        return PriceRun(price, tuple(tokens))

    return MechanismSpec(
        mech_id=f"posted_prices(m={m},n={n})",
        n=n,
        m=m,
        bound=bound if bound > 0 else Fraction(1),
        mode="demand",
        program=program,
        grid_bits=6,
        price_protocol=price_protocol,
        tie_cost_fn=lambda profile: n * m,
    )


def posted_catalog(spec: MechanismSpec) -> ValuationCatalog:
    m, n = spec.m, spec.n
    base = [
        additive_valuation([Fraction(0)] * m),
        additive_valuation([Fraction(2)] * m),
        additive_valuation([Fraction(j % 2 * 3, 2) for j in range(m)]),
        valuation_from_values(m, {grand(m): Fraction(2)}),
    ]
    return ValuationCatalog(tuple(tuple(base) for _ in range(n)))


# ------------------------------------------------------------- dispatcher

def make_example(mech_id: str, params: dict | None = None) -> MechanismSpec:
    params = dict(params or {})
    if "m" in params:
        check_m(params["m"])  # before any 2^m table is built
    makers = {
        "warmup_tightness": lambda: warmup_tightness(
            params["c"], params.get("m", 2)
        ),
        "value_tightness": lambda: (
            value_tightness(tuple(params["bundles"]), params["m"])
            if "bundles" in params
            else value_tightness_default(params["c"], params["m"])
        ),
        "demand_tightness": lambda: demand_tightness(
            params.get("menus")
            or make_min_affine_family(
                params["m"], params.get("alpha", 2), params.get("count", 4)
            ),
            params["m"],
        ),
        "mt_gadget": lambda: mt_gadget(params["m"]),
        "drop_tie": lambda: drop_tie(params["m"]),
        "drop_tax": lambda: drop_tax(params["m"]),
        "drop_price": lambda: drop_price(params["m"]),
        "posted_prices": lambda: posted_prices(
            params["prices"], params.get("n", 2)
        ),
    }
    if mech_id not in makers:
        raise DomainError(f"unknown mechanism id {mech_id!r}")
    return makers[mech_id]()


def default_catalog(mech_id: str, spec: MechanismSpec, params: dict | None = None) -> ValuationCatalog:
    params = dict(params or {})
    if mech_id == "warmup_tightness":
        return warmup_catalog(params["c"], params.get("m", 2))
    if mech_id == "value_tightness":
        c = params["c"] if "c" in params else len(params["bundles"])
        return value_tightness_catalog(spec, c)
    if mech_id == "demand_tightness":
        return demand_tightness_catalog(spec, params.get("count", 4))
    if mech_id == "mt_gadget":
        return mt_catalog(spec.m)
    if mech_id in ("drop_tie", "drop_tax", "drop_price"):
        return drop_family_catalog(mech_id, spec.m)
    if mech_id == "posted_prices":
        return posted_catalog(spec)
    raise DomainError(f"unknown mechanism id {mech_id!r}")
