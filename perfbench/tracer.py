"""Span tracing around elglm's public functions, from outside the library.

``Tracer.install()`` replaces every public elglm function in the namespaces of
the traced modules with a wrapper that records a span (name, start, end,
parent, operation id). A name is replaced in each module that binds it,
because callers look names up in their own module: ``elglm.population`` binds
``exact_loglik`` and the estimators at import, ``elglm.estimators`` binds
``cd_quadratic_l1``, and ``elglm.cli`` binds most entry points. A few methods
are wrapped on their classes: the exact-objective passes and the structured
solves. ``uninstall()`` restores every original, so untraced operations run
the library exactly as shipped.

Spans live in flat in-memory arrays; ``write()`` saves them once, at the end of
the run. Self time is a span's duration minus the durations of its direct
children.
"""

from __future__ import annotations

import array
import functools
import importlib
import time
import types
from collections import defaultdict

import numpy as np

TRACED_MODULES = (
    "cli", "glm", "el", "structured", "estimators", "_cd", "sampling",
    "population", "risk", "simulate",
)
# method spans: (module, class, method) -> span name
TRACED_METHODS = {
    ("glm", "ExactObjective", "value"): "glm.value",
    ("glm", "ExactObjective", "value_grad"): "glm.value_grad",
    ("glm", "ExactObjective", "hess_dense"): "glm.hess_dense",
}
STRUCTURED_KINDS = {
    "ScaledIdentity": "scaled_identity", "Diagonal": "diagonal", "Banded": "banded",
    "Circulant": "circulant", "Dense": "dense", "Kronecker": "kronecker",
}
# CLI subcommands that make exact-likelihood passes, for the per-subcommand counts
SUBCOMMANDS = ("fit", "sample", "population")
BYTES_PER_VALUE = 8
# computed passes over the N x p design, each N*p*8 bytes: exact_loglik reads
# X for X theta and again for X' resid; hess_dense reads X, writes X*d2 and
# reads both for the gram product
PASSES = {"glm.exact_loglik": 2, "glm.hess_dense": 4}


def _span_name(fn) -> str:
    module = fn.__module__.removeprefix("elglm.")
    if module.startswith("_cd"):
        module = "cd"
    return f"{module}.{fn.__qualname__}"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # typed arrays keep a span at 28 bytes; the EL chains make ~10^4 per op
        self.name_id, self.t0, self.t1 = array.array("i"), array.array("d"), array.array("d")
        self.parent, self.op = array.array("q"), array.array("q")
        self._stack: list[int] = []
        self.current_op = -1
        self.counters = defaultdict(float)  # keyed by (op, counter name)
        self.chain_target: dict[int, str] = {}  # chain span index -> target
        self.subcommand: dict[int, str] = {}  # run_experiment span index -> subcommand
        self._wrappers: dict[int, object] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._after = self._hooks()

    # ------------------------------------------------------------ recording

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str, cache=True):
        key = id(fn)
        if cache and key in self._wrappers:
            return self._wrappers[key]
        nid = self._id(name)
        after = self._after.get(name)
        stack, ids, t0s, t1s, parents, ops = (
            self._stack, self.name_id, self.t0, self.t1, self.parent, self.op,
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(t0s)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.current_op)
            t1s.append(0.0)
            stack.append(idx)
            t0s.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                t1s[idx] = clock()
                stack.pop()
            if after is not None:
                out = after(idx, args, kwargs, out)
            return out

        if cache:
            self._wrappers[key] = traced
        return traced

    def count(self, name: str, value: float = 1.0):
        self.counters[(self.current_op, name)] += value

    def _hooks(self):
        """Counts taken from arguments and results at the layer boundary."""

        def design_bytes(passes):
            def hook(idx, args, kwargs, out):
                data = args[0].data if hasattr(args[0], "data") else args[0]
                self.count("glm.bytes_computed", passes * data.N * data.p * BYTES_PER_VALUE)
                return out
            return hook

        def loaded_bytes(idx, args, kwargs, out):
            self.count("glm.load_dataset.bytes", (out.N * out.p + out.N) * BYTES_PER_VALUE)
            return out

        def iterations(name):
            def hook(idx, args, kwargs, out):
                self.count(f"{name}.iterations", out.iterations)
                return out
            return hook

        def cd_sweeps(idx, args, kwargs, out):
            self.count("cd.sweeps", out[1])
            return out

        def chain(idx, args, kwargs, out):
            self.chain_target[idx] = out.target
            self.count(f"sampling.acceptance.{out.target}", out.acceptance_rate)
            self.count(f"sampling.chains.{out.target}")
            return out

        def potential(idx, args, kwargs, out):
            # one closure per chain set-up: wrap it without caching, so the
            # wrapper cache does not keep every operation's dataset alive
            return self._wrap(out, "sampling.potential", cache=False)

        def mc_mse(idx, args, kwargs, out):
            kind, N, p, _, trials = args[:5]
            self.count(f"risk.trials.{kind}", trials)
            self.count(f"risk.busy_s.{kind}", self.t1[idx] - self.t0[idx])
            flop = 4.0 * N * p  # X theta and X' r
            if kind in ("mle", "map"):
                flop += 2.0 * N * p * p + 2.0 * p**3 / 3.0  # gram and LU solve
            self.count("risk.flop_computed", trials * flop)
            self.count("risk.normals_computed", trials * (N * p + N))
            return out

        def experiment(idx, args, kwargs, out):
            self.subcommand[idx] = args[0]
            return out

        def stages(idx, args, kwargs, out):
            self.count("population.stage12_s", out.diagnostics["t_stage12"])
            self.count("population.stage3_s", out.diagnostics["t_stage3"])
            return out

        return {
            "glm.exact_loglik": design_bytes(PASSES["glm.exact_loglik"]),
            "glm.hess_dense": design_bytes(PASSES["glm.hess_dense"]),
            "glm.load_dataset": loaded_bytes,
            "estimators.fit_exact": iterations("estimators.fit_exact"),
            "estimators.fit_exact_l1": iterations("estimators.fit_exact_l1"),
            "cd.cd_quadratic_l1": cd_sweeps,
            "sampling.hmc_chain": chain,
            "sampling.surrogate_hmc_chain": chain,
            "sampling.make_potential": potential,
            "risk.mc_mse": mc_mse,
            "population.stagewise_population_fit": stages,
            "cli.run_experiment": experiment,
        }

    # ------------------------------------------------------------- patching

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        for short in TRACED_MODULES:
            module = importlib.import_module(f"elglm.{short}")
            for attr, obj in list(vars(module).items()):
                if (
                    not attr.startswith("_")
                    and isinstance(obj, types.FunctionType)
                    and obj.__module__.startswith("elglm")
                ):
                    self._patch(module, attr, self._wrap(obj, _span_name(obj)))
        for (short, cls_name, meth), name in TRACED_METHODS.items():
            cls = getattr(importlib.import_module(f"elglm.{short}"), cls_name)
            self._patch(cls, meth, self._wrap(vars(cls)[meth], name))
        structured = importlib.import_module("elglm.structured")
        for cls_name, kind in STRUCTURED_KINDS.items():
            cls = getattr(structured, cls_name)
            self._patch(
                cls, "solve_shifted",
                self._wrap(vars(cls)["solve_shifted"], f"structured.solve_shifted.{kind}"),
            )

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -------------------------------------------------------------- results

    def arrays(self):
        """Spans as columns: name id, start, end, parent index, op id."""
        return (
            np.frombuffer(self.name_id, dtype=np.int32),
            np.frombuffer(self.t0),
            np.frombuffer(self.t1),
            np.frombuffer(self.parent, dtype=np.int64),
            np.frombuffer(self.op, dtype=np.int64),
        )

    def write(self, path):
        name_id, t0, t1, parent, op = self.arrays()
        np.savez_compressed(
            path, names=np.asarray(self.names), name_id=name_id, start=t0, end=t1,
            parent=parent, op=op,
        )

    def summary(self, count_ops, all_ops):
        """Per-operation layer figures.

        Counts (calls, sweeps, iterations, acceptance) use only the operations
        in ``count_ops``, a fixed set, so they repeat exactly between runs on
        one seed; times are per-operation means over ``all_ops``.
        """
        name_id, t0, t1, parent, op = self.arrays()
        dur = t1 - t0
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        in_count = np.isin(op, list(count_ops))
        in_all = np.isin(op, list(all_ops))
        n_count, n_all = len(count_ops), len(all_ops)
        names = np.asarray(self.names, dtype=str)[name_id]
        # the CLI subcommand each span ran under, from its outermost ancestor
        root = np.arange(parent.size)
        while np.any(parent[root] >= 0):
            up = parent[root] >= 0
            root[up] = parent[root[up]]
        under = np.asarray([self.subcommand.get(r, "") for r in root.tolist()], dtype=str)

        def spans(name):
            """Spans called ``name``, or every span under ``name.`` if it ends in a dot."""
            if name.endswith("."):
                return np.char.startswith(names, name)
            return names == name

        def calls(name, subcommand=None):
            sel = spans(name) & in_count
            if subcommand is not None:
                sel &= under == subcommand
            return float(np.sum(sel)) / n_count

        def busy(name):
            return float(np.sum(dur[spans(name) & in_all])) / n_all

        def self_s(prefix):
            return float(np.sum(self_time[spans(prefix) & in_all])) / n_all

        def total(counter, ops):
            return sum(v for (o, k), v in self.counters.items() if k == counter and o in ops)

        def per_count_op(counter):
            return total(counter, count_ops) / n_count

        def ratio(num, den, ops):
            d = total(den, ops)
            return total(num, ops) / d if d else 0.0

        out = {
            "glm.value.calls": calls("glm.value"),
            "glm.value_grad.calls": calls("glm.value_grad"),
            "glm.hess_dense.calls": calls("glm.hess_dense"),
            "glm.exact_loglik.calls": calls("glm.exact_loglik"),
            **{f"glm.exact_loglik.calls.{sub}": calls("glm.exact_loglik", sub) for sub in SUBCOMMANDS},
            **{f"glm.hess_dense.calls.{sub}": calls("glm.hess_dense", sub) for sub in SUBCOMMANDS},
            "glm.exact_loglik.busy_s": busy("glm.exact_loglik"),
            "glm.hess_dense.busy_s": busy("glm.hess_dense"),
            "glm.bytes_computed_per_op": per_count_op("glm.bytes_computed"),
            "glm.load_dataset.busy_s": busy("glm.load_dataset"),
            "glm.load_dataset.bytes": per_count_op("glm.load_dataset.bytes"),
            "el.el_loglik.calls": calls("el.el_loglik"),
            "el.el_loglik.busy_s": busy("el.el_loglik"),
            "structured.solve_shifted.calls": calls("structured.solve_shifted."),
            "structured.solve_shifted.busy_s": busy("structured.solve_shifted."),
        }
        for kind in ("scaled_identity", "dense"):
            out[f"structured.solve_shifted.calls.{kind}"] = calls(f"structured.solve_shifted.{kind}")
            out[f"structured.solve_shifted.busy_s.{kind}"] = busy(f"structured.solve_shifted.{kind}")
        out.update({
            "estimators.pcg_refine.busy_s": busy("estimators.pcg_refine"),
            "estimators.fit_exact.busy_s": busy("estimators.fit_exact"),
            "estimators.fit_exact.iterations": per_count_op("estimators.fit_exact.iterations"),
            "estimators.fit_exact_l1.busy_s": busy("estimators.fit_exact_l1"),
            "estimators.fit_exact_l1.iterations": per_count_op("estimators.fit_exact_l1.iterations"),
            "estimators.self_s": self_s("estimators."),
            "cd.calls": calls("cd.cd_quadratic_l1"),
            "cd.sweeps": per_count_op("cd.sweeps"),
            "cd.busy_s": busy("cd.cd_quadratic_l1"),
        })
        chain_idx = np.asarray(list(self.chain_target), dtype=np.int64)
        chain_tgt = np.asarray(list(self.chain_target.values()), dtype=str)
        potential_parent = parent[spans("sampling.potential") & in_count]
        for target in ("exact", "el", "surrogate"):
            mine = chain_idx[chain_tgt == target]
            out[f"sampling.chain.busy_s.{target}"] = float(np.sum(dur[mine[in_all[mine]]])) / n_all
            out[f"sampling.acceptance.{target}"] = ratio(
                f"sampling.acceptance.{target}", f"sampling.chains.{target}", count_ops
            )
            out[f"sampling.grad_calls.{target}"] = (
                float(np.isin(potential_parent, mine[in_count[mine]]).sum()) / n_count
            )
        # chain time outside the potential calls: the integrator and accept step
        out["sampling.self_s"] = float(np.sum(self_time[chain_idx[in_all[chain_idx]]])) / n_all
        out.update({
            "population.history_columns.calls": calls("population.history_columns"),
            "population.history_columns.busy_s": busy("population.history_columns"),
            "population.stage12_s": total("population.stage12_s", all_ops) / n_all,
            "population.stage3_s": total("population.stage3_s", all_ops) / n_all,
            "population.build_population_design.busy_s": busy("population.build_population_design"),
            "risk.mc_mse.busy_s": busy("risk.mc_mse"),
            "risk.trial_s.mele": ratio("risk.busy_s.mele", "risk.trials.mele", all_ops),
            "risk.trial_s.mle": ratio("risk.busy_s.mle", "risk.trials.mle", all_ops),
            "risk.gflop_computed": per_count_op("risk.flop_computed") / 1e9,
            "risk.normals_computed": per_count_op("risk.normals_computed"),
            "cli.run_experiment.busy_s": busy("cli.run_experiment"),
            "cli.self_s": self_s("cli."),
        })
        return out
