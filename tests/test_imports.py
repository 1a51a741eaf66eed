"""Every module-level import in the package and its tests is used by its
module."""

import ast
import re
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "taxlab"


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that no `Name` node in
    the module reads (annotations included; `__future__` imports skipped)."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_unused_imports_are_found():
    source = "import os\nfrom typing import Optional, Sequence\nx: Sequence = os.sep\n"
    assert unused_imports(source) == ["line 2: Optional"]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    assert modules
    found = {f"{path.parent.name}/{path.name}": unused_imports(path.read_text(encoding="utf-8"))
             for path in modules}
    assert {name: hits for name, hits in found.items() if hits} == {}


KEY_CALLS = ("add", "discard", "fromkeys", "get", "pop", "remove", "setdefault")


def table_reads(expr) -> list[ast.Attribute]:
    """`.table` and `.price` attributes read inside expr as a whole table:
    not the tables of `v.table[s]` or `menu.price[s]` entry reads."""
    entries = {id(node.value) for node in ast.walk(expr) if isinstance(node, ast.Subscript)}
    return [node for node in ast.walk(expr)
            if isinstance(node, ast.Attribute) and node.attr in ("table", "price")
            and id(node) not in entries]


def identity_and_table_keys(source: str) -> list[str]:
    """Reads of the builtin `id` (a call or a bare `map(id, ...)`), and
    valuation or menu `Fraction` tables used as a key: the index of a
    subscript, a dict or set display or comprehension key, the first
    argument of a dict or set method, or the left operand of `in`.  Memos
    and indexes key a valuation by its `scaled_table` and a menu by the
    `Menu` itself."""
    found, keyed = [], {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id == "id" and isinstance(node.ctx, ast.Load):
            found.append(f"line {node.lineno}: id")
        keys = []
        if isinstance(node, ast.Subscript):
            keys = [node.slice]
        elif isinstance(node, ast.Dict):
            keys = [k for k in node.keys if k is not None]
        elif isinstance(node, ast.DictComp):
            keys = [node.key]
        elif isinstance(node, ast.Set):
            keys = node.elts
        elif isinstance(node, ast.SetComp):
            keys = [node.elt]
        elif isinstance(node, ast.Compare) and isinstance(node.ops[0], (ast.In, ast.NotIn)):
            keys = [node.left]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in KEY_CALLS and node.args):
            keys = [node.args[0]]
        keyed.update((id(hit), hit) for key in keys for hit in table_reads(key))
    return sorted(found + [f"line {hit.lineno}: .{hit.attr} key" for hit in keyed.values()])


def test_identity_and_table_keys_are_found():
    source = (
        "key = tuple(map(id, profile))\n"
        "memo[(i, id(v))] = 1\n"
        "index = {v.table: k for k, v in enumerate(vs)}\n"
        "hit = v.table in seen\n"
        "seen.add(w.table)\n"
        "runs[tuple(v.table for v in combo)] = 0\n"
        "ok = v.table[s] > memo[v.scaled_table] and {v.scaled_table: k}\n"
    )
    assert identity_and_table_keys(source) == [
        "line 1: id", "line 2: id", "line 3: .table key", "line 4: .table key",
        "line 5: .table key", "line 6: .table key"]


def test_menu_price_tables_as_keys_are_found():
    source = (
        "seen[menu.price] = menu\n"
        "position = {menu.price: k for k, menu in enumerate(menus)}\n"
        "k = position[session.menu(1, (v,)).price]\n"
        "ok = wcount.get(menu.price) and truth.price in tables or x[{menu.price: 1}[k]]\n"
        "counts[menu.price[s]] = menu.price == target and {menu: k}\n"
        "run = {pr.price for pr in runs} and [menu.price for menu in live]\n"
    )
    assert identity_and_table_keys(source) == [
        "line 1: .price key", "line 2: .price key", "line 3: .price key", "line 4: .price key",
        "line 4: .price key", "line 4: .price key", "line 6: .price key"]


def test_no_module_keys_a_valuation_by_identity_or_fraction_table():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = {path.name: identity_and_table_keys(path.read_text(encoding="utf-8"))
             for path in modules}
    assert {name: hits for name, hits in found.items() if hits} == {}



def unbounded_caches(source: str) -> list[str]:
    """`functools` memos without a finite bound: any `cache`, and any
    `lru_cache` whose maxsize (by keyword or position) is not a
    non-negative integer literal: bare, `maxsize=None` or computed."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "functools"
                for alias in node.names}

    def memo(node) -> str:
        if isinstance(node, ast.Name):
            return imported.get(node.id, "")
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "functools"):
            return node.attr
        return ""

    calls = {node.func: node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    found = []
    for node in ast.walk(tree):
        if memo(node) == "cache":
            found.append(f"line {node.lineno}: cache")
        elif memo(node) == "lru_cache":
            call = calls.get(node)
            sizes = [kw.value for kw in call.keywords if kw.arg == "maxsize"] + call.args[:1] \
                if call else []
            if not (sizes and isinstance(sizes[0], ast.Constant)
                    and type(sizes[0].value) is int and sizes[0].value >= 0):
                found.append(f"line {node.lineno}: lru_cache without a finite maxsize")
    return found


def test_unbounded_caches_are_found():
    source = (
        "import functools\n"
        "from functools import cache, cached_property, lru_cache\n"
        "@lru_cache(maxsize=64)\ndef a(x): return x\n"
        "@lru_cache\ndef b(x): return x\n"
        "@lru_cache(maxsize=None)\ndef c(x): return x\n"
        "@functools.cache\ndef d(x): return x\n"
        "@cache\ndef e(x): return x\n"
        "f = functools.lru_cache(32)(len)\n"
        "g = lru_cache(maxsize=size)(len)\n"
        "h = functools.lru_cache(len)\n"
        "class K:\n    @cached_property\n    def k(self): return 1\n"
    )
    assert sorted(unbounded_caches(source)) == [
        "line 11: cache", "line 14: lru_cache without a finite maxsize",
        "line 15: lru_cache without a finite maxsize",
        "line 5: lru_cache without a finite maxsize",
        "line 7: lru_cache without a finite maxsize", "line 9: cache"]


def test_every_memo_in_the_package_is_bounded():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = {path.name: unbounded_caches(path.read_text(encoding="utf-8")) for path in modules}
    assert {name: hits for name, hits in found.items() if hits} == {}


def per_m_layouts(source: str) -> list[str]:
    """Functions under `lru_cache` (bare, called, or as
    `functools.lru_cache`) whose only parameter is `m`: the per-m layouts."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.FunctionDef):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        if params != ["m"] or args.vararg or args.kwarg:
            continue
        for deco in node.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            name = target.id if isinstance(target, ast.Name) else getattr(target, "attr", "")
            if name == "lru_cache":
                found.append(f"line {node.lineno}: {node.name}")
    return found


def test_per_m_layouts_are_found():
    source = (
        "import functools\nfrom functools import lru_cache\n"
        "@lru_cache(maxsize=16)\ndef a(m): return m\n"
        "@functools.lru_cache(16)\ndef b(m: int): return m\n"
        "@lru_cache(maxsize=64)\ndef c(m, k): return m\n"
        "def d(m): return m\n"
        "@lru_cache(maxsize=4)\ndef e(n): return n\n"
        "class K:\n    @lru_cache(maxsize=2)\n    def f(m): return m\n"
    )
    assert per_m_layouts(source) == ["line 4: a", "line 6: b", "line 14: f"]


def test_only_bundles_builds_per_m_layouts():
    """Every per-m constant (sizes, pair sides, pair layout) is cached in
    `bundles.py`; no other module keeps its own copy."""
    found = {path.name: per_m_layouts(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py")) if path.name != "bundles.py"}
    assert {name: hits for name, hits in found.items() if hits} == {}
    assert per_m_layouts((SRC / "bundles.py").read_text(encoding="utf-8"))


def made_by_new(expr) -> bool:
    """expr is a `__new__` call, such as `Valuation.__new__(Valuation)`."""
    return (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute)
            and expr.func.attr == "__new__")


def cache_seeding(source: str) -> list[str]:
    """Writes into an object's `__dict__` (an item store or delete, or an
    `update` or `setdefault` call) and `__init__` called on an object made
    by `__new__`, directly or through a name bound to one: the path that
    fills a cached attribute and then replays the constructor.  A class
    validates once, in the constructor it was built by."""
    tree = ast.parse(source)
    made = {target.id for node in ast.walk(tree)
            if isinstance(node, ast.Assign) and made_by_new(node.value)
            for target in node.targets if isinstance(target, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Attribute) and node.value.attr == "__dict__"):
            found.append(f"line {node.lineno}: __dict__ write")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = node.func.value
            if (node.func.attr in ("update", "setdefault") and isinstance(owner, ast.Attribute)
                    and owner.attr == "__dict__"):
                found.append(f"line {node.lineno}: __dict__ write")
            elif node.func.attr == "__init__" and (
                    made_by_new(owner) or isinstance(owner, ast.Name) and owner.id in made):
                found.append(f"line {node.lineno}: __init__ on a __new__ object")
    return found


def test_cache_seeding_is_found():
    source = (
        "v = Valuation.__new__(Valuation)\n"
        "v.__dict__['scaled_table'] = (1, (0, 1))\n"
        "v.__init__(1, table)\n"
        "w = Plain(1)\n"
        "w.__init__(2)\n"
        "f.__dict__.update(scaled=pair)\n"
        "del g.__dict__['levels']\n"
        "Base.__new__(Base).__init__(m)\n"
        "x = v.__dict__['table'] and vars(v)\n"
        "class K(Base):\n    def __init__(self):\n        super().__init__(1)\n"
        "h.__dict__.setdefault('levels', {})\n"
    )
    assert cache_seeding(source) == [
        "line 2: __dict__ write", "line 3: __init__ on a __new__ object",
        "line 6: __dict__ write", "line 7: __dict__ write",
        "line 8: __init__ on a __new__ object", "line 13: __dict__ write"]


def test_no_module_seeds_a_cache_and_replays_a_constructor():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = {path.name: cache_seeding(path.read_text(encoding="utf-8")) for path in modules}
    assert {name: hits for name, hits in found.items() if hits} == {}


def fraction_table_reads(source: str) -> list[str]:
    """`.value(...)` calls and `.table` reads: the two ways to a valuation's
    `Fraction` table, which `value()` builds too."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "value"):
            found.append(f"line {node.lineno}: .value() call")
        elif isinstance(node, ast.Attribute) and node.attr == "table":
            found.append(f"line {node.lineno}: .table read")
    return sorted(found)


def test_fraction_table_reads_are_found():
    source = (
        "t = round_to_range(v_alice.value(ITEM_A), 1, top)\n"
        "ok = all(x == 0 or x == 1 for x in v.table)\n"
        "d, ints = v.scaled_table\n"
        "x = rec.value_query(0, ITEM_A) + node.value + f.scaled[1][s]\n"
        "hit = any(v1.table[t] >= 1 for t in sized) or w.value(s) == QUARTER\n"
        "price = menu.price_table[s]\n"
    )
    assert fraction_table_reads(source) == [
        "line 1: .value() call", "line 2: .table read", "line 5: .table read",
        "line 5: .value() call"]


def test_mechanism_programs_read_no_fraction_table():
    """Every program, price protocol and tie cost in the library reads a
    valuation's `scaled_table`, so no probe run builds its `Fraction`
    table."""
    assert fraction_table_reads((SRC / "library.py").read_text(encoding="utf-8")) == []


def test_demand_kernels_read_no_fraction_table():
    """`demand_ints` and `demand_query` rank and answer from a valuation's
    `scaled_table`: neither reads `.table` nor calls `.value(...)`.  `value_query` calls `Valuation.value`, and that and
    `max_value` answer Fraction(ints[s], D) from the stored ints: neither
    reads `.table`."""
    queries = dict(named_functions((SRC / "queries.py").read_text(encoding="utf-8")))
    valuations = dict(named_functions((SRC / "valuations.py").read_text(encoding="utf-8")))
    kernels = {name: queries[name] for name in ("demand_ints", "demand_query")}
    assert {name: fraction_table_reads(ast.unparse(fn)) for name, fn in kernels.items()} == {
        name: [] for name in kernels}
    readers = {"value_query": queries["value_query"], "Valuation.value": valuations[
        "Valuation.value"], "Valuation.max_value": valuations["Valuation.max_value"]}
    assert {name: [hit for hit in fraction_table_reads(ast.unparse(fn)) if "table" in hit]
            for name, fn in readers.items()} == {name: [] for name in readers}
    assert fraction_table_reads(ast.unparse(queries["value_query"])) == [
        "line 2: .value() call"]


MENU_KERNELS = ("normalize_menu", "menu_complexity", "profit_argmax_set", "Menu.is_normalized")
VERIFY_KERNELS = ("BaseFunction.int_of",)
# the per-trial work of `verify_menu_trials`: the pool draw, the closed-form
# XOS table, the level-set grouping, the grid-price match and the structural
# check
INTEGER_VERIFY_KERNELS = ("draw_base_function", "_xos_round", "BaseFunction.level_ints",
                          "BaseFunction.int_of", "probes_structural")


def named_functions(source: str):
    """(name, node) of every module-level function and `Class.method`."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{fn.name}", fn) for fn in node.body
                        if isinstance(fn, ast.FunctionDef))


def price_reads(source: str, names) -> list[str]:
    """`.price` reads inside the named module-level functions and
    `Class.method`s: the menu's `Fraction` view, built on first read."""
    return [f"line {hit.lineno}: {name} reads .price" for name, fn in named_functions(source)
            if name in names for hit in ast.walk(fn)
            if isinstance(hit, ast.Attribute) and hit.attr == "price"]


def fraction_builds(source: str, names) -> list[str]:
    """`Fraction(...)` calls, by name or as `fractions.Fraction`, and
    `.price` or `.table` reads inside the named functions: every way to
    an exact rational from the integer forms."""
    found = []
    for name, fn in named_functions(source):
        if name not in names:
            continue
        for hit in ast.walk(fn):
            if isinstance(hit, ast.Call) and (
                    isinstance(hit.func, ast.Name) and hit.func.id == "Fraction"
                    or isinstance(hit.func, ast.Attribute) and hit.func.attr == "Fraction"):
                found.append(f"line {hit.lineno}: {name} builds a Fraction")
            elif isinstance(hit, ast.Attribute) and hit.attr in ("price", "table"):
                found.append(f"line {hit.lineno}: {name} reads .{hit.attr}")
    return found


def test_fraction_builds_are_found():
    source = (
        "def draw(pool):\n    return Fraction(pool[0], 4)\n"
        "def other(f):\n    return Fraction(1) + f.table[0]\n"
        "class Base:\n"
        "    def level_ints(self):\n        return self.scaled[1]\n"
        "    def levels(self):\n        return fractions.Fraction(2) + self.price[1]\n"
        "def _xos_round(f):\n    return f.scaled_table, v.table\n"
    )
    assert fraction_builds(source, ("draw", "Base.level_ints", "Base.levels", "_xos_round")) == [
        "line 2: draw builds a Fraction", "line 9: Base.levels builds a Fraction",
        "line 9: Base.levels reads .price", "line 11: _xos_round reads .table"]


def test_verify_trial_kernels_stay_in_integers():
    """The per-trial draw, XOS table and level-set grouping build no
    `Fraction` and read no `Fraction` view: exact rationals start at the
    level sets' keys and the mechanism's outcome."""
    source = (SRC / "verify.py").read_text(encoding="utf-8")
    assert set(INTEGER_VERIFY_KERNELS) <= {name for name, _ in named_functions(source)}
    assert fraction_builds(source, INTEGER_VERIFY_KERNELS) == []


# the functions that build and run a verify round's probe table, and the
# checks that certify such a table: those run only in `probes_structural`
# and the tests, never per round
ROUND_BUILDERS = ("probe_rounds", "_xos_round", "_staircase_round", "_staircase", "verify_menu")
CERTIFICATES = ("is_submodular", "pairwise_submodular", "clause_max")


def certificate_uses(source: str, names) -> list[str]:
    """Every read of a `CERTIFICATES` name, bare or as an attribute, inside
    the named functions: a call, or the function handed on to be called."""
    found = []
    for name, fn in named_functions(source):
        if name not in names:
            continue
        for hit in ast.walk(fn):
            used = hit.id if isinstance(hit, ast.Name) else getattr(hit, "attr", None)
            if isinstance(hit, (ast.Name, ast.Attribute)) and used in CERTIFICATES:
                found.append(f"line {hit.lineno}: {name} uses {used}")
    return found


def test_certificate_uses_are_found():
    source = (
        "def probe_rounds(f):\n    return [r for r in f if bundles.is_submodular(r, 2)]\n"
        "def _staircase_round(m, ints):\n"
        "    if not pairwise_submodular(m, ints):\n        raise ValueError\n"
        "def verify_menu(rows):\n    return list(map(clause_max, rows))\n"
        "def probes_structural(m, ints):\n    return pairwise_submodular(m, ints)\n"
    )
    assert certificate_uses(source, ROUND_BUILDERS) == [
        "line 2: probe_rounds uses is_submodular",
        "line 4: _staircase_round uses pairwise_submodular",
        "line 7: verify_menu uses clause_max"]


def test_verify_rounds_run_their_tables_unchecked():
    """Each round's table comes from a builder the tests certify (and
    `probes_structural` on one extra draw per suite), so no round re-runs
    a certificate on the table it runs."""
    source = (SRC / "verify.py").read_text(encoding="utf-8")
    assert set(ROUND_BUILDERS) <= {name for name, _ in named_functions(source)}
    assert certificate_uses(source, ROUND_BUILDERS) == []


def test_price_reads_are_found():
    source = (
        "def normalize_menu(raw):\n    return raw.price[0]\n"
        "def sort_key(menu):\n    return menu.price\n"
        "class Menu:\n"
        "    def is_normalized(self):\n        return self.scaled[1][0] == 0\n"
        "    def levels(self):\n        return self.price\n"
        "class Other:\n    def is_normalized(self):\n        return self.price\n"
    )
    assert price_reads(source, ("normalize_menu", "Menu.is_normalized", "Menu.levels")) == [
        "line 2: normalize_menu reads .price", "line 9: Menu.levels reads .price"]


def test_menu_kernels_read_no_fraction_price_table():
    """The menu passes and the base function's level sets run on
    `Menu.scaled`, so none builds a menu's `Fraction` view."""
    for module, kernels in (("menus.py", MENU_KERNELS), ("verify.py", VERIFY_KERNELS)):
        source = (SRC / module).read_text(encoding="utf-8")
        tree = ast.parse(source)
        defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)} | {
            f"{node.name}.{fn.name}" for node in tree.body if isinstance(node, ast.ClassDef)
            for fn in node.body if isinstance(fn, ast.FunctionDef)}
        assert set(kernels) <= defined, module
        assert price_reads(source, kernels) == [], module


# the integer cover path: the kernel, the candidate builder, both cover sets,
# the grid decoder and the grid check
INTEGER_COVER_KERNELS = {"queries.py": ("demand_ints",),
                         "valuations.py": ("demand_candidates",),
                         "demand_menus.py": ("demand_cover", "brute_cover"),
                         "suites.py": ("cover_vector", "cover_grid_check")}


def test_the_cover_grid_path_stays_in_integers():
    """The demand kernel, the candidate builder, the two cover sets, the
    grid decoder and the grid check build no `Fraction` and read no
    `.table` or `.price`: the grid is int tuples over 8 from end to end."""
    for module, kernels in INTEGER_COVER_KERNELS.items():
        source = (SRC / module).read_text(encoding="utf-8")
        assert set(kernels) <= {name for name, _ in named_functions(source)}, module
        assert fraction_builds(source, kernels) == [], module


# `Fraction`-valued helpers: a call builds or adds a `Fraction` per candidate
FRACTION_HELPERS = ("Fraction", "hidden_bump_price", "eval_min_affine", "bundle_price")
LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def loop_fraction_work(source: str, names) -> list[str]:
    """Inside every loop and comprehension of the named functions: calls of
    a `FRACTION_HELPERS` name (bare or as an attribute) and `.price` or
    `.table` reads."""
    found = []
    for name, fn in named_functions(source):
        if name not in names:
            continue
        for loop in (node for node in ast.walk(fn) if isinstance(node, LOOPS)):
            for hit in ast.walk(loop):
                called = (hit.func.id if isinstance(hit.func, ast.Name) else getattr(
                    hit.func, "attr", None)) if isinstance(hit, ast.Call) else None
                if called in FRACTION_HELPERS:
                    found.append(f"line {hit.lineno}: {name} calls {called} in a loop")
                elif isinstance(hit, ast.Attribute) and hit.attr in ("price", "table"):
                    found.append(f"line {hit.lineno}: {name} reads .{hit.attr} in a loop")
    return sorted(set(found))


def test_loop_fraction_work_is_found():
    source = (
        "def best(cands):\n    return max(p for _, p in cands)\n"
        "def opt(ma, oracle):\n"
        "    for vec in ma.vectors:\n"
        "        d, val = oracle(vec)\n"
        "        yield d, val - eval_min_affine(ma, d)\n"
        "    top = Fraction(1)\n"
        "    return [fractions.Fraction(x, 2) + menu.price[x] for x in range(3)]\n"
        "def other(xs):\n    return [Fraction(x) for x in xs]\n"
    )
    assert loop_fraction_work(source, ("best", "opt")) == [
        "line 6: opt calls eval_min_affine in a loop", "line 8: opt calls Fraction in a loop",
        "line 8: opt reads .price in a loop"]


def test_profit_ranking_builds_no_fraction():
    """`best_bundle` ranks ints and builds no `Fraction`; `best_answer` and
    the two demand optimizers rank their candidates in ints, with no
    `Fraction` built or `Fraction` price read per candidate: the gadget's
    profit and price are built once, for the winner."""
    bundles = (SRC / "bundles.py").read_text(encoding="utf-8")
    assert fraction_builds(bundles, ("best_bundle",)) == []
    optimizers = ("best_answer", "min_affine_argmax", "mt_gadget_argmax")
    source = (SRC / "demand_menus.py").read_text(encoding="utf-8")
    assert set(optimizers) <= {name for name, _ in named_functions(source)}
    assert loop_fraction_work(source, optimizers) == []


def test_readme_states_the_source_line_count():
    """The README's "`src/taxlab/` is N lines" is `cat src/taxlab/*.py | wc -l`."""
    readme = (SRC.parents[1] / "README.md").read_text(encoding="utf-8")
    [stated] = re.findall(r"`src/taxlab/` is ([\d,]+) lines", readme)
    total = sum(path.read_text(encoding="utf-8").count("\n") for path in SRC.glob("*.py"))
    assert int(stated.replace(",", "")) == total


def audit_side_replays(source: str) -> list[str]:
    """`.scaled_table` reads and `.run(...)` calls inside `_Outcomes`'
    methods: the audit's side reads valuations by catalog index and plays
    from the stored truthful messages, never hashing a table or asking the
    session for a run."""
    found = []
    for name, fn in named_functions(source):
        if not name.startswith("_Outcomes."):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Attribute) and node.attr == "scaled_table":
                found.append(f"line {node.lineno}: {name} reads .scaled_table")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "run"):
                found.append(f"line {node.lineno}: {name} calls .run(")
    return sorted(found)


def test_audit_side_replays_are_found():
    source = (
        "class _Outcomes:\n"
        "    def _play(self, u, w):\n"
        "        memo = (u.scaled_table, w.scaled_table)\n"
        "        return self.tables.session.run((u, w))\n"
        "class Other:\n"
        "    def run(self, v):\n"
        "        return self.session.run(v.scaled_table)\n"
    )
    assert audit_side_replays(source) == [
        "line 3: _Outcomes._play reads .scaled_table",
        "line 3: _Outcomes._play reads .scaled_table",
        "line 4: _Outcomes._play calls .run("]


def test_the_audit_side_keys_plays_by_catalog_index():
    source = (SRC / "transforms.py").read_text(encoding="utf-8")
    assert {"_Outcomes.__init__", "_Outcomes._play", "_Outcomes.against"} <= {
        name for name, _ in named_functions(source)}
    assert audit_side_replays(source) == []


DEMAND_VALUATION_READS = {"m", "scaled_table", "candidates"}


def valuation_reads(source: str, name: str) -> list[str]:
    """Attributes the named function reads off a valuation, other than its
    `m`, `scaled_table` and `candidates`: off a parameter annotated
    `Valuation`, or off the loop variable of a `for` over a parameter
    annotated `Sequence[Valuation]`.  The kernel scales the stored ints
    where it ranks them and asks the valuation for no other form."""
    fn = dict(named_functions(source))[name]
    params = {a.arg: ast.unparse(a.annotation) for a in fn.args.args if a.annotation}
    held = {arg for arg, ann in params.items() if ann == "Valuation"}
    held |= {node.target.id for node in ast.walk(fn)
             if isinstance(node, ast.For) and isinstance(node.target, ast.Name)
             and isinstance(node.iter, ast.Name)
             and params.get(node.iter.id) == "Sequence[Valuation]"}
    return sorted(f"line {node.lineno}: .{node.attr}" for node in ast.walk(fn)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in held and node.attr not in DEMAND_VALUATION_READS)


def cached_lists(source: str) -> list[str]:
    """`cached_property` getters that return a list: annotated `list`, or
    returning a list display, a list comprehension or a `list(...)` call.
    A cached list is a mutable cache on a frozen value."""
    found = []
    for name, fn in named_functions(source):
        if not any((deco.id if isinstance(deco, ast.Name) else getattr(deco, "attr", ""))
                   == "cached_property" for deco in fn.decorator_list):
            continue
        returned = [node.value for node in ast.walk(fn) if isinstance(node, ast.Return)]
        if ((fn.returns is not None and ast.unparse(fn.returns).split("[")[0] == "list")
                or any(isinstance(value, (ast.List, ast.ListComp))
                       or (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                           and value.func.id == "list") for value in returned)):
            found.append(f"line {fn.lineno}: {name}")
    return found


def test_valuation_reads_and_cached_lists_are_found():
    source = (
        "from functools import cached_property\n"
        "def demand_ints(vs: Sequence[Valuation], den: int, w: Valuation) -> list[int]:\n"
        "    for v in vs:\n"
        "        row = v.ints_over(den) if v.m else v.scaled_table[1]\n"
        "    return [w.table, v.candidates, den.real]\n"
        "class Valuation:\n"
        "    @cached_property\n    def table(self) -> tuple: return tuple([0])\n"
        "    @cached_property\n    def a(self) -> list: return [None]\n"
        "    @cached_property\n    def b(self): return [x for x in self.table]\n"
        "    @functools.cached_property\n    def c(self): return list(self.table)\n"
        "    def d(self) -> list: return []\n"
    )
    assert valuation_reads(source, "demand_ints") == ["line 4: .ints_over", "line 5: .table"]
    assert cached_lists(source) == [
        "line 10: Valuation.a", "line 12: Valuation.b", "line 14: Valuation.c"]


def test_the_demand_kernel_reads_only_stored_valuation_fields():
    assert valuation_reads((SRC / "queries.py").read_text(encoding="utf-8"),
                           "demand_ints") == []
    assert cached_lists((SRC / "valuations.py").read_text(encoding="utf-8")) == []


COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def looped_draws(source: str) -> list[str]:
    """"function: call" for each `.randrange(...)` call that a module-level
    function or method makes once per pass of a loop: in a `for` or
    `while` body, or in a comprehension outside its first iterable (which
    runs once).  A run of draws from one bound is one `rng.below` call."""
    found = set()
    for name, fn in named_functions(source):
        for node in ast.walk(fn):
            if isinstance(node, (ast.For, ast.While)):
                parts = node.body
            elif isinstance(node, COMPREHENSIONS):
                first, *rest = node.generators
                parts = ([node.key, node.value] if isinstance(node, ast.DictComp)
                         else [node.elt]) + first.ifs + rest
            else:
                continue
            found.update(f"{name}: {ast.unparse(hit)}" for part in parts for hit in ast.walk(part)
                         if isinstance(hit, ast.Call) and isinstance(hit.func, ast.Attribute)
                         and hit.func.attr == "randrange")
    return sorted(found)


def test_looped_draws_are_found():
    source = (
        "def draws(rng, m, xs):\n"
        "    a = [rng.randrange(1) for _ in range(m)]\n"
        "    b = {rng.randrange(2) for _ in range(rng.randrange(3))}\n"
        "    c = rng.randrange(4)\n"
        "    for _ in range(rng.randrange(5)):\n        d = xs[rng.randrange(len(xs))]\n"
        "    while m:\n        m = rng.randrange(m)\n"
        "    for q in below(rng, 6, m):\n        e = q\n"
        "    f = {i: rng.randrange(7) for i in range(m) if rng.randrange(8)}\n"
        "    g = [[x for x in range(rng.randrange(9))] for _ in xs]\n"
        "    return tuple(x[rng.randrange(10)] for x in xs)\n"
        "class K:\n    def pick(self, rng):\n"
        "        return [rng.randrange(11) for _ in self.xs] + [random.randrange(12)]\n"
    )
    assert looped_draws(source) == [
        "K.pick: rng.randrange(11)", "draws: rng.randrange(1)", "draws: rng.randrange(10)",
        "draws: rng.randrange(2)", "draws: rng.randrange(7)", "draws: rng.randrange(8)",
        "draws: rng.randrange(9)", "draws: rng.randrange(len(xs))", "draws: rng.randrange(m)"]


# Scalar draws left in loops, each with why no bulk `rng.below` call takes them.
LOOPED_SCALAR_DRAWS = {
    "suites.py: gadget_trials: rng.randrange(len(sized))":
        "each trial's target, drawn between two valuations' bulk draws",
    "suites.py: useless_learner_trials: rng.randrange(2, USELESS_MAX + 1)":
        "each trial's m, which sets the bound of its seeds' bulk draw",
    "suites.py: useless_learner_trials: rng.randrange(1, USELESS_MAX + 1)":
        "each trial's k, which sets the count of its seeds' bulk draw",
    "suites.py: random_promise_instance: rng.randrange(1, 7)":
        "each player's string count, drawn between two players' `getrandbits` strings",
    "suites.py: random_promise_instance: rng.randrange(len(group))":
        "each player's input pick, whose bound changes from one draw to the next",
}


def test_draws_in_loops_go_through_the_bulk_draw():
    """A loop of `randrange` calls is one `rng.below` call, which draws
    the same ints from the same stream without `randrange`'s per-call
    checks; only the listed scalar draws stay in loops."""
    found = [f"{path.name}: {hit}" for path in sorted(SRC.glob("*.py"))
             for hit in looped_draws(path.read_text(encoding="utf-8"))]
    assert sorted(found) == sorted(LOOPED_SCALAR_DRAWS)


def unreferenced_names(sources: dict[str, str]) -> list[str]:
    """"module: name" for each top-level function, class and assigned name
    of the modules (file name -> source) that no module reads: no `Name`
    load of it and no attribute of its name, outside its own definition.
    An import binds and does not read, so a name that is only imported is
    still listed."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads: dict[str, list] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                reads.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                reads.setdefault(node.attr, []).append(node)
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            inside = {id(n) for n in ast.walk(node)}
            found += [f"{module}: {name}" for name in names
                      if all(id(r) in inside for r in reads.get(name, []))]
    return sorted(found)


def test_unreferenced_names_are_found():
    sources = {
        "a.py": ("from .b import used\nVERSION: str = '1'\n"
                 "def lone(n):\n    return lone(n - 1) if n else used()\n"
                 "class Kept:\n    pass\n"),
        "b.py": ("def used():\n    return Kept\n"
                 "def method_named():\n    pass\n"
                 "def imported_only():\n    pass\n"),
        "c.py": "from .b import imported_only\nx = obj.method_named\n",
    }
    assert unreferenced_names(sources) == [
        "a.py: VERSION", "a.py: lone", "b.py: imported_only", "c.py: x"]


def unread_parameters(source: str) -> list[str]:
    """"line N: name(param)" for each parameter that a module-level function
    or a method never reads in its body, closures included.  Dunder methods
    and nested callbacks are not checked: a protocol fixes their
    signatures."""
    functions = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            functions.append((node.name, node))
        elif isinstance(node, ast.ClassDef):
            functions += [(f"{node.name}.{fn.name}", fn) for fn in node.body
                          if isinstance(fn, ast.FunctionDef)]
    found = []
    for name, fn in functions:
        if fn.name.startswith("__") and fn.name.endswith("__"):
            continue
        args = fn.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                  args.vararg, args.kwarg) if a is not None]
        read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        found += [f"line {fn.lineno}: {name}({param})" for param in params if param not in read]
    return found


def test_unread_parameters_are_found():
    source = (
        "def check(session, seed, *extra, **options):\n"
        "    seed = 0\n"
        "    return session\n"
        "def closure(count, price_of):\n"
        "    def protocol(spec, s):\n"
        "        return price_of(count, s)\n"
        "    return protocol\n"
        "class Table:\n"
        "    def __init__(self, rows):\n"
        "        pass\n"
        "    def run(self, profile):\n"
        "        return self\n"
    )
    assert unread_parameters(source) == [
        "line 1: check(seed)", "line 1: check(extra)", "line 1: check(options)",
        "line 11: Table.run(profile)"]


# Parameters no body reads, each held to a signature its callers share.
UNREAD_BY_SIGNATURE = {
    "cli.py: extract_min_affine_suite(cfg)": "a suite in the registry, called as fn(cfg, sessions)",
    "cli.py: disjointness_suite(sessions)": "a suite in the registry, called as fn(cfg, sessions)",
    "library.py: demand_tightness_catalog(alpha)": "the registry passes every param to the "
                                                   "catalog, which does not depend on alpha",
}


def test_every_parameter_is_read():
    found = [f"{path.name}: {finding.split(': ', 1)[1]}" for path in sorted(SRC.glob("*.py"))
             for finding in unread_parameters(path.read_text(encoding="utf-8"))]
    assert sorted(found) == sorted(UNREAD_BY_SIGNATURE)


# Top-level names no package module reads, each reached from outside `src/`.
READ_FROM_OUTSIDE = {
    "__init__.py: __version__": "the package version",
    "transforms.py: to_dominant_run": "a benchmark trace point, and the reference "
                                      "`deviation_audit` must equal in test_session.py",
    "suites.py: cover_grid_check": "called by the benchmark's trials workload",
    "suites.py: gadget_trials": "called by the benchmark's trials workload",
    "suites.py: warmup_scaling_lines": "an acceptance check no suite registers yet",
    "suites.py: block_bound_check": "an acceptance check no suite registers yet",
    "suites.py: drop_reduction_trials": "an acceptance check no suite registers yet",
}


def test_the_package_holds_only_names_a_run_reaches():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert sources
    assert unreferenced_names(sources) == sorted(READ_FROM_OUTSIDE)


def literal_verdicts(source: str) -> list[str]:
    """"function: name" for each `CheckLine(...)` call (bare or as an
    attribute) that a module-level function or method makes with a
    constant verdict, as its second argument or `passed=`: a line that
    reads the same whatever the check found."""
    found = []
    for name, fn in named_functions(source):
        for call in ast.walk(fn):
            if not (isinstance(call, ast.Call) and getattr(
                    call.func, "id", getattr(call.func, "attr", None)) == "CheckLine"):
                continue
            verdicts = call.args[1:2] + [k.value for k in call.keywords if k.arg == "passed"]
            if any(isinstance(v, ast.Constant) for v in verdicts):
                found.append(f"{name}: {ast.unparse(call.args[0] if call.args else call)}")
    return sorted(found)


def test_literal_verdicts_are_found():
    source = (
        "def lines(tag, ok, rep):\n"
        "    a = CheckLine(f'note[{tag}]', True, 'always')\n"
        "    b = suites.CheckLine('b', passed=False)\n"
        "    c = CheckLine('c', ok)\n"
        "    d = suites.CheckLine(f'd[{tag}]', rep.tax <= rep.cc, f'tax={rep.tax}')\n"
        "    return [a, b, c, d, CheckLine(name='e', passed=ok)]\n"
        "class Suite:\n    def run(self):\n        return CheckLine('f', 1)\n"
    )
    assert literal_verdicts(source) == [
        "Suite.run: 'f'", "lines: 'b'", "lines: f'note[{tag}]'"]


# CheckLines whose verdict is a constant, each with why it reports no check.
LITERAL_VERDICTS = {
    "suites.py: theorem_check_lines: f'note[{tag}]'":
        "a note that states value_tightness's in-menu count, not a check",
}


def test_every_check_line_takes_a_computed_verdict():
    """A `CheckLine` reports a verdict its suite computed; a literal `True`
    would print PASS whatever happened.  Only the listed note is exempt."""
    found = [f"{path.name}: {hit}" for path in sorted(SRC.glob("*.py"))
             for hit in literal_verdicts(path.read_text(encoding="utf-8"))]
    assert sorted(found) == sorted(LITERAL_VERDICTS)
