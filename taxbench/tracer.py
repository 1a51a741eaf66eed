"""Outside-in layer tracer for taxlab.

The tracer changes nothing in the package.  It replaces each traced
function with a timing wrapper, both in the module that defines it and at
every `taxlab.*` module binding that imported it by name; function-local
imports resolve through the defining module at call time, so they see the
wrapper too.

Two kinds of trace point:

* a *span* (oracle, algorithm and suite boundaries) records one span per
  call: name, parent span, start, end and self time, plus per-kernel-group
  counts of the kernel calls made directly inside it;
* a *kernel* (the hot query, menu and validation functions) records no
  span; its calls and times are folded into per-function counters and into
  the enclosing span's kernel counts, so the trace stays small in memory.

Self time is the inclusive time of a call minus the time of the wrapped
calls made inside it, so wrapper bookkeeping of a child is charged to
neither the child nor the parent.  Inclusive time is summed over
outermost calls only, so recursion does not count twice.
"""

from __future__ import annotations

import array
import functools
import importlib
import json
import pkgutil
import sys
import time
import weakref
from dataclasses import dataclass
from typing import Callable, Optional

KERNEL_GROUPS = ("queries", "menus", "valuations")


class TraceCoverageError(RuntimeError):
    """A taxlab module still holds an unwrapped binding of a traced function."""


@dataclass(frozen=True)
class Point:
    """One traced function: `name` is an attribute of `module`, or
    `Class.method`; `metric` is the name its figures are reported under."""

    layer: str
    module: str
    name: str
    kernel: bool = False
    metric: Optional[str] = None
    key: Optional[Callable] = None  # (tracer, *args, **kwargs) -> distinct-input key
    observe: Optional[Callable] = None  # (tracer, pid, args, kwargs, result, outermost)
    counters: tuple[str, ...] = ()  # what `observe` adds to, reported even when 0

    @property
    def label(self) -> str:
        return self.metric or self.name.rsplit(".", 1)[-1]


# distinct-input keys: mechanism, then valuation tables, player and bundle
def _profile_key(t, spec, profile):
    return spec.mech_id, t.vids(profile)


def _menu_key(t, spec, i, v_minus_i):
    return spec.mech_id, i, t.vids(v_minus_i)


def _price_key(t, spec, i, v_minus_i, s):
    return spec.mech_id, i, t.vids(v_minus_i), s


def _count_bits(t, pid, args, kwargs, result, outermost):
    # nested calls are the recursion's own levels, already inside the outer verdict
    if outermost:
        t.add(pid, "bits", result[0].bits)


def _count_bytes(t, pid, args, kwargs, result, outermost):
    content = args[1] if len(args) > 1 else kwargs["content"]
    t.add(pid, "bytes", len(content.encode("utf-8")))


P = "taxlab."
POINTS: tuple[Point, ...] = (
    Point("protocol", P + "protocol", "run_mechanism", key=_profile_key),
    Point("protocol", P + "protocol", "extract_menu", key=_menu_key),
    Point("protocol", P + "protocol", "price_run", key=_price_key),
    Point("protocol", P + "protocol", "measure_complexities"),
    Point("queries", P + "queries", "demand_query", kernel=True),
    Point("queries", P + "queries", "bundle_price", kernel=True),
    Point("queries", P + "queries", "value_query", kernel=True),
    Point("menus", P + "menus", "profit_argmax_set", kernel=True),
    Point("menus", P + "menus", "normalize_menu", kernel=True),
    Point("menus", P + "menus", "menu_complexity", kernel=True),
    Point("valuations", P + "valuations", "Valuation.__post_init__", kernel=True,
          metric="validate"),
    Point("verify", P + "verify", "verify_menu"),
    Point("verify", P + "verify", "pairwise_submodular"),
    Point("comm_reconstruct", P + "comm_reconstruct", "reconstruct_menu_comm"),
    Point("comm_reconstruct", P + "comm_reconstruct", "menu_catalog"),
    Point("comm_reconstruct", P + "comm_reconstruct", "build_disjointness_instance"),
    Point("value_reconstruct", P + "value_reconstruct", "reconstruct_menu_value"),
    Point("value_reconstruct", P + "value_reconstruct", "learn_useless"),
    Point("demand_menus", P + "demand_menus", "extract_min_affine"),
    Point("demand_menus", P + "demand_menus", "demand_cover"),
    Point("demand_menus", P + "demand_menus", "mt_gadget_argmax"),
    Point("disjointness", P + "disjointness", "solve_z_with_consistency",
          observe=_count_bits, counters=("bits",)),
    Point("disjointness", P + "disjointness", "brute_force_verdict"),
    Point("transforms", P + "transforms", "to_dominant_run"),
    Point("transforms", P + "transforms", "deviation_audit"),
    Point("transforms", P + "transforms", "build_tables"),
    Point("transforms", P + "transforms", "strictify_catalog"),
    Point("transforms", P + "transforms", "to_simultaneous"),
    Point("reporting", P + "reporting", "write_text", observe=_count_bytes,
          counters=("bytes",)),
    Point("suites", P + "suites", "theorem_check_lines"),
    Point("suites", P + "suites", "value_reconstruction_check"),
    Point("suites", P + "suites", "useless_learner_trials"),
    Point("suites", P + "suites", "comm_reconstruction_check"),
    Point("suites", P + "suites", "min_affine_check"),
    Point("suites", P + "suites", "verify_menu_trials"),
    Point("suites", P + "suites", "disjointness_trials"),
    Point("suites", P + "suites", "cover_grid_check"),
    Point("suites", P + "suites", "gadget_trials"),
    Point("cli", P + "cli", "load_config"),
    Point("cli", P + "cli", "run_suites"),
)


def import_all(package: str = "taxlab") -> list:
    """Import every module of the package and return them."""
    pkg = importlib.import_module(package)
    for info in pkgutil.iter_modules(pkg.__path__):
        importlib.import_module(f"{package}.{info.name}")
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))]


class Tracer:
    """Spans and counters for one traced run.  `install` wraps every point,
    `uninstall` restores the originals."""

    def __init__(self, points=POINTS, clock=time.perf_counter, package="taxlab"):
        self.points = tuple(points)
        self.clock = clock
        self.package = package
        n = len(self.points)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.incl_s = [0.0] * n
        self.depth = [0] * n
        self.keys: list[Optional[set]] = [set() if p.key else None for p in self.points]
        self.extra: list[dict] = [dict.fromkeys(p.counters, 0) for p in self.points]
        # spans, one row per call; kernel counts are len(KERNEL_GROUPS) per row
        self.sp_point = array.array("H")
        self.sp_parent = array.array("i")
        self.sp_start = array.array("d")
        self.sp_end = array.array("d")
        self.sp_self = array.array("d")
        self.sp_kernels = array.array("I")
        self.cur = -1
        self.stack: list[list[float]] = [[0.0]]
        self._vid: dict[int, tuple[int, weakref.ref]] = {}
        self._tables: dict[tuple, int] = {}
        self._bound: list[tuple[object, str, object]] = []  # (owner, attr, original)
        self.originals: dict[int, tuple[object, object]] = {}  # id(original) -> (original, wrapper)

    # ---- distinct-input keys -------------------------------------------------

    def vid(self, v) -> int:
        """Small id of a valuation's table, cached per live valuation object
        so each table is hashed once per object, not once per call."""
        hit = self._vid.get(id(v))
        if hit is not None:
            return hit[0]
        n = self._tables.setdefault(v.table, len(self._tables))
        ident = id(v)
        ref = weakref.ref(v, lambda _ref, ident=ident: self._vid.pop(ident, None))
        self._vid[ident] = (n, ref)
        return n

    def vids(self, vs) -> tuple[int, ...]:
        return tuple(self.vid(v) for v in vs)

    def add(self, pid: int, counter: str, amount: int) -> None:
        self.extra[pid][counter] += amount

    # ---- wrappers ------------------------------------------------------------

    def _span(self, fn, pid: int, point: Point):
        t = self
        clock = self.clock
        key = point.key
        observe = point.observe
        zeros = [0] * len(KERNEL_GROUPS)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = clock()
            if key is not None:
                t.keys[pid].add(key(t, *args, **kwargs))
            sid = len(t.sp_point)
            t.sp_point.append(pid)
            t.sp_parent.append(t.cur)
            t.sp_start.append(0.0)
            t.sp_end.append(0.0)
            t.sp_self.append(0.0)
            t.sp_kernels.extend(zeros)
            parent = t.cur
            t.cur = sid
            depth = t.depth[pid]
            t.depth[pid] = depth + 1
            frame = [0.0]
            t.stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                t.stack.pop()
                t.depth[pid] = depth
                t.cur = parent
                own = end - start - frame[0]
                t.sp_start[sid] = start
                t.sp_end[sid] = end
                t.sp_self[sid] = own
                t.calls[pid] += 1
                t.self_s[pid] += own
                if depth == 0:
                    t.incl_s[pid] += end - start
                t.stack[-1][0] += end - entered
            if observe is not None:
                observe(t, pid, args, kwargs, result, depth == 0)
            return result

        return wrapper

    def _kernel(self, fn, pid: int, group: int):
        t = self
        clock = self.clock
        width = len(KERNEL_GROUPS)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth = t.depth[pid]
            t.depth[pid] = depth + 1
            frame = [0.0]
            t.stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                t.stack.pop()
                t.depth[pid] = depth
                t.calls[pid] += 1
                t.self_s[pid] += end - start - frame[0]
                if depth == 0:
                    t.incl_s[pid] += end - start
                if t.cur >= 0:
                    t.sp_kernels[t.cur * width + group] += 1
                t.stack[-1][0] += end - start

        return wrapper

    # ---- install / uninstall / guard -----------------------------------------

    def _owner(self, point: Point):
        owner = sys.modules[point.module]
        *path, attr = point.name.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, attr

    def install(self) -> None:
        if self.originals:
            raise RuntimeError("tracer already installed")
        modules = import_all(self.package)
        for pid, point in enumerate(self.points):
            owner, attr = self._owner(point)
            original = vars(owner)[attr]
            if point.kernel:
                wrapped = self._kernel(original, pid, KERNEL_GROUPS.index(point.layer))
            else:
                wrapped = self._span(original, pid, point)
            self.originals[id(original)] = (original, wrapped)
            if isinstance(owner, type):  # module bindings are rebound below
                setattr(owner, attr, wrapped)
                self._bound.append((owner, attr, original))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = self.originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._bound.append((mod, attr, value))
        self.check_coverage(modules)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._bound):
            setattr(owner, attr, original)
        self._bound.clear()
        self.originals.clear()

    def unwrapped_bindings(self, modules=None) -> list[str]:
        """Every place a taxlab module (or one level of a module-level
        container, or a traced method's class) still refers to an original."""
        def is_original(value) -> bool:
            hit = self.originals.get(id(value))
            return hit is not None and hit[0] is value

        found = []
        for mod in modules if modules is not None else import_all(self.package):
            for attr, value in vars(mod).items():
                if is_original(value):
                    found.append(f"{mod.__name__}.{attr}")
                elif isinstance(value, (list, tuple, set, frozenset)):
                    if any(is_original(v) for v in value):
                        found.append(f"{mod.__name__}.{attr}[...]")
                elif isinstance(value, dict):
                    if any(is_original(v) for v in value.values()):
                        found.append(f"{mod.__name__}.{attr}[...]")
        for point in self.points:
            owner, attr = self._owner(point)
            if isinstance(owner, type) and is_original(vars(owner)[attr]):
                found.append(f"{point.module}.{point.name}")
        return found

    def check_coverage(self, modules=None) -> None:
        missing = self.unwrapped_bindings(modules)
        if missing:
            raise TraceCoverageError("unwrapped bindings of traced functions: "
                                     + ", ".join(missing))

    # ---- results -------------------------------------------------------------

    def summary(self) -> dict:
        """Per traced function: calls, self_s, incl_s, plus `distinct`
        (distinct inputs / calls) where keyed and any observed counters."""
        out = {}
        for pid, point in enumerate(self.points):
            row = {"layer": point.layer, "calls": self.calls[pid],
                   "self_s": self.self_s[pid], "incl_s": self.incl_s[pid]}
            if self.keys[pid] is not None:
                calls = self.calls[pid]
                row["distinct"] = len(self.keys[pid]) / calls if calls else 0.0
            row.update(self.extra[pid])
            out[point.label] = row
        return out

    def write(self, path) -> None:
        """Spans as a JSON header line followed by the raw span columns."""
        columns = {"point": self.sp_point, "parent": self.sp_parent,
                   "start": self.sp_start, "end": self.sp_end,
                   "self": self.sp_self, "kernels": self.sp_kernels}
        header = {
            "points": [p.label for p in self.points],
            "kernel_groups": list(KERNEL_GROUPS),
            "byteorder": sys.byteorder,
            "columns": [[name, col.typecode, len(col)] for name, col in columns.items()],
            "summary": self.summary(),
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
            for col in columns.values():
                col.tofile(fh)


def read_trace(path) -> tuple[dict, dict]:
    """Inverse of `Tracer.write`: the header and the span columns."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        columns = {}
        for name, typecode, length in header["columns"]:
            col = array.array(typecode)
            col.fromfile(fh, length)
            columns[name] = col
    return header, columns
