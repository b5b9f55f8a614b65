"""Span tracer installed around compgap's public callables from outside.

Nothing under src/ knows about it.  `Tracer.install` swaps wrappers in for
module functions (in every compgap module that bound them by name), for a
few class methods, and for the closures that the public constructors put
into Problem / Hypothesis / Attacker objects.  `uninstall` restores every
original.

Each wrapped call records one span: name, start, end, parent id and op id,
plus the time its direct children and aggregated hot leaves covered, so a
span's self time is known when it closes.  `toy_hash` is a hot leaf: it is
counted and timed, and its time is charged to the enclosing span, but it
makes no span of its own.  `bitstring` and `config` get no spans; their cost
is part of every caller's self time.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import threading
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

LAYERS = ("game", "base_problems", "ots", "ecc", "constructions",
          "attackers", "circuits", "cnf", "samplers", "solver", "cli")

# span record fields
_ID, _PARENT, _OP, _NAME, _T0, _T1, _CHILD, _LEAF = range(8)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.op = -1
        self.counts: Counter = Counter()
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.leaf_calls: Counter = Counter()
        self.leaf_time: Dict[str, float] = defaultdict(float)
        self.root_leaf_time = 0.0   # hot-leaf time outside every span
        self.hook_time = 0.0        # classification hooks run inside spans
        self._local = threading.local()
        self._main_stack: List[list] = []
        self._local.stack = self._main_stack
        self._restore: List[tuple] = []
        self._next_id = 0
        self._encoded: set = set()

    # ---- span machinery ------------------------------------------------

    def _parent(self) -> tuple:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            return stack, stack[-1]
        # a worker thread (np-forge's solver pool) hangs its spans under the
        # span open on the main thread, which is waiting for it
        return stack, (self._main_stack[-1] if self._main_stack else None)

    def span(self, name: str, fn: Callable,
             before: Optional[Callable[[], object]] = None,
             after: Optional[Callable] = None) -> Callable:
        """Wrap fn in a span.  after(token, args, result, exc, seconds) runs
        once the span has closed, with token = before(); the hook's own time
        is booked to the benchmark, not to the enclosing span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, parent = tracer._parent()
            tracer._next_id += 1
            rec = [tracer._next_id, parent[_ID] if parent else 0, tracer.op,
                   name, 0.0, 0.0, 0.0, 0.0]
            token = before() if before is not None else None
            stack.append(rec)
            result = exc = None
            rec[_T0] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = rec[_T1] = perf_counter()
                stack.pop()
                tracer.spans.append(rec)
                if parent is not None:
                    parent[_CHILD] += t1 - rec[_T0]
                if after is not None:
                    after(token, args, result, exc, t1 - rec[_T0])
                    if parent is not None:
                        spent = perf_counter() - t1
                        parent[_CHILD] += spent
                        tracer.hook_time += spent

        return wrapper

    def leaf(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            dt = perf_counter() - t0
            parent = tracer._parent()[1]
            if parent is None:
                tracer.root_leaf_time += dt
            else:
                parent[_LEAF] += dt
            tracer.leaf_calls[name] += 1
            tracer.leaf_time[name] += dt
            return result

        return wrapper

    # ---- patching ------------------------------------------------------

    def _rebind(self, orig: Callable, new: Callable) -> None:
        """Point every compgap module attribute that is `orig` at `new`."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "compgap"
                                   or mod_name.startswith("compgap.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, new)
                    self._restore.append((mod, attr, orig))

    def _wrap(self, fn: Callable, name: str, **hooks) -> None:
        self._rebind(fn, self.span(name, fn, **hooks))

    def _method(self, cls: type, attr: str, name: str, **hooks) -> None:
        orig = cls.__dict__[attr]
        self._restore.append((cls, attr, orig))
        setattr(cls, attr, self.span(name, orig, **hooks))

    def _closure_ctor(self, ctor: Callable, field: str,
                      wrap: Callable[[Callable, object], Callable]) -> None:
        """Make ctor's result carry wrap(original closure, result)."""
        @functools.wraps(ctor)
        def traced_ctor(*args, **kwargs):
            obj = ctor(*args, **kwargs)
            return dataclasses.replace(
                obj, **{field: wrap(getattr(obj, field), obj)})
        self._rebind(ctor, traced_ctor)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def install(self) -> None:
        from compgap import (attackers, base_problems, circuits, cli, cnf,
                             constructions, ecc, game, ots, samplers, solver)
        from compgap.errors import DecodeFailure, PreimageNotFound

        span, count, samples = self.span, self.counts, self.samples
        orig_encode = ecc.ReedSolomon.encode

        # game
        def after_play(_t, _a, out, exc, _s):
            if exc is None:
                count["game.reason." + out.reason.value] += 1
        self._wrap(game.play_game, "game.play", after=after_play)
        for fn in (game.estimate_risk, game.estimate_adv_risk,
                   game.game_transcript):
            self._wrap(fn, "game.estimator")

        # base problems: closures from the public constructors
        for ctor in (base_problems.majority_noise_problem,
                     base_problems.uniform_balanced_problem):
            self._closure_ctor(ctor, "sampler", lambda f, _o: span(
                "base_problems.sample", f))
        self._closure_ctor(base_problems.majority_hypothesis, "classify",
                           lambda f, _o: span("base_problems.classify", f))
        self._wrap(base_problems.analytic_adv_risk, "base_problems.analytic")

        # ots
        self._rebind(ots.toy_hash, self.leaf("ots.toy_hash", ots.toy_hash))
        self._wrap(ots.kgen, "ots.kgen")
        self._wrap(ots.sign, "ots.sign")

        def before_verify():
            count["ots.verify.calls"] += 1
        self._wrap(ots.verify, "ots.verify", before=before_verify)
        self._method(ots.PreimageIndex, "__init__", "ots.index.build")

        def after_forge(_t, _a, _r, exc, _s):
            count["ots.forge.failed"] += isinstance(exc, PreimageNotFound)
        self._method(ots.PreimageIndex, "forge", "ots.forge",
                     after=after_forge)

        # ecc
        def after_encode(_t, _a, cw, exc, _s):
            if exc is None:
                self._encoded.add(cw.value)

        def after_decode(_t, args, msg, exc, seconds):
            """Classify the path from outside: failed when it raised; clean
            when the input was a codeword, which is known for free when an
            encode of this op produced it, else checked by re-encoding."""
            if exc is not None:
                count["ecc.decode.failed"] += isinstance(exc, DecodeFailure)
                return
            rs, cw = args[0], args[1]
            if cw.value in self._encoded or \
                    orig_encode(rs, msg).value == cw.value:
                count["ecc.decode.clean"] += 1
            else:
                count["ecc.decode.corrected"] += 1
                samples["ecc.decode_corrected.ms"].append(seconds * 1e3)
        self._wrap(ecc.reed_solomon, "ecc.build")
        self._method(ecc.ReedSolomon, "encode", "ecc.encode",
                     after=after_encode)
        self._method(ecc.ReedSolomon, "decode", "ecc.decode",
                     after=after_decode)

        # constructions
        def after_c3_sample(verify_before, _a, inst_y, exc, _s):
            if exc is None and inst_y[1] == 0:
                count["constructions.c3_label0_samples"] += 1
                count["constructions.c3_label0_verify"] += (
                    count["ots.verify.calls"] - verify_before)
        self._closure_ctor(constructions.wrapped_problem_c1, "sampler",
                           lambda f, _o: span("constructions.sample", f))
        self._closure_ctor(constructions.c3_problem, "sampler",
                           lambda f, _o: span(
                               "constructions.sample", f,
                               before=lambda: count["ots.verify.calls"],
                               after=after_c3_sample))
        for ctor in (constructions.classifier_c1,
                     constructions.classifier_c3):
            self._closure_ctor(ctor, "classify", lambda f, _o: span(
                "constructions.classify", f))

        # attackers
        def wrap_perturb(f, attacker):
            name = "attackers." + attacker.name

            def after(_t, args, out, exc, _s):
                if exc is None:
                    count[name + ".tampered"] += out != args[0]
            return span(name, f, after=after)
        for ctor in (attackers.identity_attacker,
                     attackers.greedy_majority_attacker,
                     attackers.unbounded_c1_attacker,
                     attackers.bounded_c1_attacker,
                     attackers.unbounded_c3_attacker,
                     attackers.bounded_c3_attacker):
            self._closure_ctor(ctor, "perturb", wrap_perturb)

        # circuits, cnf
        self._wrap(circuits.circuit_of_majority, "circuits.build")
        self._wrap(circuits.eval_circuit, "circuits.eval")
        for fn in (cnf.tseitin, cnf.encode_hamming_ball, cnf.at_least):
            self._wrap(fn, "cnf.encode")

        def after_dimacs(_t, _a, text, exc, _s):
            if exc is None:
                count["cnf.write_dimacs.bytes"] += len(text)
        self._wrap(cnf.write_dimacs, "cnf.write_dimacs", after=after_dimacs)

        # samplers: sample_s_final nests sample_s2; only outermost compiles
        # are sampled for formula size
        def before_compile():
            depth = getattr(self._local, "compile_depth", 0)
            self._local.compile_depth = depth + 1
            return depth

        def after_compile(depth, _a, bundle, exc, _s):
            self._local.compile_depth = depth
            if exc is None and depth == 0:
                samples["samplers.vars"].append(bundle.formula.num_vars)
                samples["samplers.clauses"].append(
                    len(bundle.formula.clauses))
        for fn in (samplers.sample_s1, samplers.sample_s2,
                   samplers.sample_s_final):
            self._wrap(fn, "samplers.compile", before=before_compile,
                       after=after_compile)
        self._wrap(samplers.check_witness, "samplers.check_witness")

        # solver: a formula with selectors is a stage-2 (or final) formula
        def after_solve(_t, args, res, exc, seconds):
            if exc is None:
                count["solver." + res.status.value] += 1
                stage = "s2" if "selectors" in args[0].annotations else "s1"
                samples["solver.%s.ms" % stage].append(seconds * 1e3)
        self._wrap(solver.solve_small, "solver.solve", after=after_solve)

        def after_cli(_t, args, _rc, _exc, _s):
            """Every call rewrites the whole --out directory, so its size is
            what the call wrote."""
            argv = args[0] if args else None
            if argv and "--out" in argv:
                out = Path(argv[argv.index("--out") + 1])
                count["cli.bytes_written"] += sum(
                    f.stat().st_size for f in out.iterdir() if f.is_file())
        self._wrap(cli.main, "cli.main", after=after_cli)

    def start_op(self, op: int) -> None:
        """Ops are independent, so the set of known codewords is per op."""
        self.op = op
        self._encoded.clear()

    # ---- report --------------------------------------------------------

    def report(self, wall: float) -> dict:
        """Self time per span name and per layer, and the benchmark's own
        share: wall minus the root spans, plus the hooks that ran inside
        spans, minus hot-leaf time outside every span.  The layers plus the
        benchmark add up to `wall` by construction; `min_self_s` < 0 would
        mean overlapping children, which breaks that accounting."""
        self_s: Dict[str, float] = defaultdict(float)
        dur_s: Dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        play_ms: List[float] = []
        roots = 0.0
        min_self = float("inf") if self.spans else 0.0
        for rec in self.spans:
            name = rec[_NAME]
            dur = rec[_T1] - rec[_T0]
            own = dur - rec[_CHILD] - rec[_LEAF]
            min_self = min(min_self, own)
            self_s[name] += own
            dur_s[name] += dur
            calls[name] += 1
            if name == "game.play":
                play_ms.append(dur * 1e3)
            if rec[_PARENT] == 0:
                roots += dur
        for name, t in self.leaf_time.items():
            self_s[name] += t
            calls[name] += self.leaf_calls[name]
        bench = wall - roots + self.hook_time - self.root_leaf_time
        layer = dict.fromkeys(LAYERS, 0.0)
        for name, t in self_s.items():
            layer[name.split(".", 1)[0]] += t
        return dict(self_s=self_s, dur_s=dur_s, calls=calls, play_ms=play_ms,
                    layer=layer, bench=bench, min_self_s=min_self)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,op,name,start_s,end_s,child_s,leaf_s\n")
            for rec in self.spans:
                fh.write("%d,%d,%d,%s,%.9f,%.9f,%.9f,%.9f\n" % tuple(rec))
