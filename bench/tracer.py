"""Outside-in call tracer for the trigan package.

The tracer wraps, from outside the library, every public function of each
trigan module and every public method of each class those modules define.
A wrapped call records one span: name, start, end and the index of the
span that was open when it began (its parent). Spans stay in memory until
the caller writes them out once, after the run.

A module that imported a function by name holds its own reference, so the
tracer replaces the function in every trigan namespace that binds it, not
only in the module that defines it. Methods are replaced on their class,
which every importer shares. `uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import types

# Per-callable hooks: map the call's arguments to (name suffix, points).
# "points" is the count of work items the call received: sample points,
# or bytes for the atomic text writer.


def _rows(arr) -> int:
    shape = getattr(arr, "shape", None)
    return int(shape[0]) if shape else len(arr)


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _apply_hook(args, kwargs):
    first = args[0].components[0]
    kind = "table" if type(first).__name__ == "TableComponent" else "bernstein"
    return "." + kind, _rows(args[1])


def _table_component_hook(args, kwargs):
    # rank >= 2 components rebuild per-row tables on every call
    return (".row" if args[0].table.ndim >= 2 else ""), _rows(args[2])


def _points_hook(pos, key):
    def hook(args, kwargs):
        return "", _rows(_arg(args, kwargs, pos, key))
    return hook


def _uniforms_hook(args, kwargs):
    return "", int(_arg(args, kwargs, 3, "count"))


def _write_text_hook(args, kwargs):
    return "", len(_arg(args, kwargs, 0, "text").encode("utf-8"))


def _sampling_error_hook(args, kwargs):
    return f".n{int(_arg(args, kwargs, 3, 'n'))}", 0


HOOKS = {
    "rng.uniforms": _uniforms_hook,
    "density.GridDensity.evaluate": _points_hook(1, "points"),
    "density.write_text_atomic": _write_text_hook,
    "rosenblatt.TriangularMap.apply": _apply_hook,
    "rosenblatt.TableComponent.value": _table_component_hook,
    "rosenblatt.TableComponent.partial": _table_component_hook,
    "rosenblatt.TableComponent.inverse_exact": _table_component_hook,
    "rosenblatt.PushforwardDensity.evaluate": _points_hook(1, "points"),
    "learning.sampling_error_values": _sampling_error_hook,
}

PACKAGE = "trigan"


def package_modules() -> list:
    """The package and every submodule of it that is already imported."""
    return [m for name, m in sorted(sys.modules.items())
            if isinstance(m, types.ModuleType)
            and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _public(name: str) -> bool:
    return not name.startswith("_")


class Tracer:
    """Span recorder that patches the trigan package while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one record per call: [name id, start, end, parent, points]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        base_id = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        name_id = self._name_id

        def traced(*args, **kwargs):
            nid, points = base_id, 0
            if hook is not None:
                suffix, points = hook(args, kwargs)
                if suffix:
                    nid = name_id(name + suffix)
            rec = [nid, 0.0, 0.0, stack[-1] if stack else -1, points]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        functools.update_wrapper(traced, fn)
        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap the public callables of every imported module of the package."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        try:
            self._patch()
        except BaseException:
            self.uninstall()
            raise

    def _patch(self) -> None:
        modules = package_modules()
        wrapped: dict[int, object] = {}
        for mod in modules:
            short = mod.__name__[len(PACKAGE) + 1:] or PACKAGE
            for attr, obj in list(vars(mod).items()):
                # a private class still has public methods (_QuadBernstein.value)
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(short, obj)
                    continue
                if not _public(attr):
                    continue
                fn = inspect.unwrap(obj) if callable(obj) else None
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrapped[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        # rebind every namespace that looks the originals up by name
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                new = wrapped.get(id(obj))
                if new is not None:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, new)

    def _wrap_class(self, short: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if _public(attr) and inspect.isfunction(obj):
                self._patches.append((cls, attr, obj))
                setattr(cls, attr, self._wrap(f"{short}.{cls.__name__}.{attr}", obj))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output ------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the span table once, as one JSON object."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# reading a span table


class SpanTable:
    """Column view of recorded spans with durations and self times."""

    def __init__(self, names: list, spans: list):
        self.names = names
        self.name = [s[0] for s in spans]
        self.start = [s[1] for s in spans]
        self.end = [s[2] for s in spans]
        self.parent = [s[3] for s in spans]
        self.points = [s[4] for s in spans]
        self.duration = [e - b for b, e in zip(self.start, self.end)]
        self.child_time = [0.0] * len(spans)
        for i, p in enumerate(self.parent):
            if p >= 0:
                self.child_time[p] += self.duration[i]

    @classmethod
    def load(cls, path: str) -> "SpanTable":
        with open(path, "r", encoding="utf-8") as fh:
            blob = json.load(fh)
        return cls(blob["names"], blob["spans"])

    def __len__(self) -> int:
        return len(self.name)

    def self_time(self, i: int) -> float:
        return self.duration[i] - self.child_time[i]

    def ids(self, *names: str) -> set:
        wanted = set(names)
        return {i for i, n in enumerate(self.names) if n in wanted}

    def under(self, ancestor_names: set) -> list:
        """Per span: whether some ancestor has one of the given name ids."""
        flag = [False] * len(self)
        for i, p in enumerate(self.parent):
            if p >= 0:
                flag[i] = flag[p] or self.name[p] in ancestor_names
        return flag

    def stats(self, *names: str) -> dict:
        """calls, points, total_s and self_s of the spans with these names.

        total_s counts only the outermost of them: a span inside another
        span of these names is already part of that span's duration.
        """
        ids = self.ids(*names)
        inside = self.under(ids)
        calls = points = 0
        total = own = 0.0
        for i, nid in enumerate(self.name):
            if nid in ids:
                calls += 1
                points += self.points[i]
                own += self.self_time(i)
                if not inside[i]:
                    total += self.duration[i]
        return {"calls": calls, "points": points, "total_s": total, "self_s": own}

    def nesting_errors(self) -> list:
        """Spans whose children overrun them in time or in summed duration."""
        tol = 1e-9
        bad = []
        for i, p in enumerate(self.parent):
            if self.duration[i] < 0.0 or self.self_time(i) < -tol:
                bad.append(i)
            elif p >= 0 and (self.start[i] < self.start[p] - tol
                             or self.end[i] > self.end[p] + tol):
                bad.append(i)
        return bad
