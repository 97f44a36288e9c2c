"""Spans around the program's public functions, for the traced run.

The tracer replaces a function with a wrapper in the module where callers
look it up (`training` and `cli` import by name, so `dnspn.training.route`
and `dnspn.cli.load_csv` are patched, not only `dnspn.forest.route`).
Each call records its name, start, end, parent span, the harness's current
scope ("fit", "b1", ...) and an optional count such as mask entries or file
bytes. Spans are kept in memory and written out when the run ends; nothing
is patched in the untraced run.
"""

from __future__ import annotations

import contextlib
import json
import os
from collections import defaultdict
from time import perf_counter

NAME, START, END, PARENT, SCOPE, COUNT = range(6)


def _size_arg0(layer, *_args, **_kw) -> int:
    return layer.shadow.size


def _file_size(path, *_args, **_kw) -> int:
    return os.path.getsize(path)


def _file_size_arg1(_obj, path, *_args, **_kw) -> int:
    return os.path.getsize(path)


# (module, attribute, span name, count of the call or None)
PATCHES = [
    ("dnspn.training", "fit", "training.fit", None),
    ("dnspn.training", "train_step", "training.train_step", None),
    ("dnspn.training", "adam_update", "training.adam_update", None),
    ("dnspn.training", "loss_ce", "training.loss", None),
    ("dnspn.training", "loss_mse", "training.loss", None),
    ("dnspn.training", "predict", "training.predict", None),
    ("dnspn.training", "evaluate_model", "training.evaluate_model", None),
    ("dnspn.training", "route", "forest.route", None),
    ("dnspn.training", "predict_class", "forest.head_predict", None),
    ("dnspn.training", "predict_regress", "forest.head_predict", None),
    ("dnspn.training", "forest_backward", "forest.backward", None),
    ("dnspn.training", "apply_mask", "pruning.apply_mask", _size_arg0),
    ("dnspn.training", "mask_grad", "pruning.mask_grad", _size_arg0),
    ("dnspn.training", "refresh_mask", "pruning.refresh", _size_arg0),
    ("dnspn.training", "fuse", "ensemble.fuse", None),
    ("dnspn.training", "roc_auc_binary", "metrics.auc", None),
    ("dnspn.network", "forward", "network.forward", None),
    ("dnspn.network", "backward", "network.backward", None),
    ("dnspn.data", "generate", "data.generate", None),
    ("dnspn.data", "gen_xor", "data.generate", None),
    ("dnspn.data", "standardize", "data.standardize", None),
    ("dnspn.model_io", "load_model", "model_io.load", _file_size),
    ("dnspn.cli", "generate", "data.generate", None),
    ("dnspn.cli", "standardize", "data.standardize", None),
    ("dnspn.cli", "write_csv", "data.write_csv", _file_size),
    ("dnspn.cli", "load_csv", "data.load_csv", _file_size),
    ("dnspn.cli", "save_model", "model_io.save", _file_size_arg1),
    ("dnspn.cli", "load_model", "model_io.load", _file_size),
    ("dnspn.cli", "fit", "training.fit", None),
    ("dnspn.cli", "evaluate_model", "training.evaluate_model", None),
]


class Tracer:
    """In-memory span recorder; single-threaded, like the program."""

    def __init__(self):
        self.spans: list[list] = []
        self.scope = ""
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
               self.scope, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    @contextlib.contextmanager
    def in_scope(self, scope: str):
        outer, self.scope = self.scope, scope
        try:
            yield
        finally:
            self.scope = outer

    def wrap(self, name: str, fn, count=None):
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
                if count is not None:
                    rec[COUNT] = count(*args, **kwargs)
        return traced

    def install(self, modules: dict) -> None:
        for mod_name, attr, name, count in PATCHES:
            mod = modules[mod_name]
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(name, fn, count))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "scope",
                                  "count"], "spans": self.spans}, fh)


class Summary:
    """Durations, self times and child totals of a finished trace."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.dur = [s[END] - s[START] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[PARENT] >= 0:
                child[s[PARENT]] += self.dur[i]
        self.self_time = [d - c for d, c in zip(self.dur, child)]

    def totals(self, select) -> tuple[dict, dict, dict]:
        """Summed duration, self time and count per span name, over spans
        for which `select(index, span)` is true."""
        dur, own, cnt = defaultdict(float), defaultdict(float), \
            defaultdict(int)
        for i, s in enumerate(self.spans):
            if select(i, s):
                dur[s[NAME]] += self.dur[i]
                own[s[NAME]] += self.self_time[i]
                cnt[s[NAME]] += s[COUNT]
        return dur, own, cnt

    def calls(self, name: str, select=lambda i, s: True) -> int:
        return sum(1 for i, s in enumerate(self.spans)
                   if s[NAME] == name and select(i, s))

    def nesting_error(self) -> float:
        """Largest amount by which a span's children outlast it (seconds);
        0 when every span's children fit inside it."""
        return max([0.0] + [-t for t in self.self_time])
