"""The two workloads: inputs made from the seed, the timed call, the checks.

`verdicts` and `exact` each combine two parts (observables and norms;
analyze and census): one operation runs one operation of each part.
Each workload yields rounds of operations; a run always ends on a round
boundary, so the share of operations that keep a known fault is the
same in every run.  `run(op)` is the only code inside the timed region.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from fractions import Fraction
from pathlib import Path

import numpy as np

import reference as ref

LN10 = math.log(10)


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(list(key))


class Op:
    """One timed call: what went in, what came out, and how long it took."""

    __slots__ = ("index", "spec", "output", "error", "latency", "why")

    def __init__(self, index: int, spec):
        self.index, self.spec = index, spec
        self.output = self.error = self.why = None
        self.latency = 0.0


class Workload:
    stream = 0  # keeps the input streams of different workloads apart (0 picks the checked operations)
    round_size = 1
    REFERENCE_OPS = 2  # operations per run whose outputs are recomputed apart from benflow

    def __init__(self, bf, seed: int, scratch: Path):
        self.bf, self.seed, self.scratch = bf, seed, scratch
        self.tracer = None
        self.sample = None  # one output with its reference statistics, for the self-test
        self.reference: set[int] = set()  # indices of the operations recomputed apart from benflow

    def tag(self, label: str) -> None:
        if self.tracer is not None:
            self.tracer.label = label

    def rng(self, *key: int) -> np.random.Generator:
        return _rng(self.seed, self.stream, *key)

    def close(self) -> None:
        pass

    def judge(self, op: Op) -> list[str]:
        """Why an operation's output is wrong (empty when it is right)."""
        return []

    def settle(self, op: Op) -> None:
        """Called between operations, outside the timed interval."""

    def known_fault(self, op: Op) -> bool:
        return False

    def check_run(self, ops: list[Op]) -> list[str]:
        """Checks over the whole run, after every operation was judged."""
        return []

    def pick_reference(self, last: int) -> set[int]:
        """The first and the last operation and a seed-derived random choice
        in between, REFERENCE_OPS in all: a result that went stale at any
        point of the run shows at the last operation at the latest."""
        between = _rng(self.seed, 0, self.stream).permutation(np.arange(1, last))
        return {0, last, *between[: self.REFERENCE_OPS - 2].tolist()}


# ---------------------------------------------------------------------------
# observables: fresh observables on a fixed set of generators


class Observables(Workload):
    """Each operation judges one fresh random observable on each generator.

    Spectra are fixed; the similarity S of each generator comes from the
    seed and is reused by every operation (the stated reuse).  Resonant
    generators have a dominant pair a +- iw with a = q (ln 10/pi) w.
    """

    stream = 1
    GRID = (1e4, 1e-2)
    GENERATORS = (  # name, blocks, exponentially resonant
        ("d2", (("spiral", 1.0, 2.0),), False),
        ("d3", (("spiral", 1.0, math.pi / LN10), ("real", 0.4)), True),
        ("d4", (("spiral", 1.2, 2.5), ("spiral", 0.5, 1.0)), False),
        ("d6", (("spiral", 0.8, 1.6 * math.pi / LN10), ("spiral", 0.3, 1.3), ("real", 0.1), ("real", -0.5)), True),
    )
    REFERENCE_OPS = 4

    def __init__(self, bf, seed, scratch):
        super().__init__(bf, seed, scratch)
        self.grid = bf.SamplingGrid(*self.GRID)
        self.gens = []
        for i, (name, blocks, resonant) in enumerate(self.GENERATORS):
            b = ref.block_diagonal(blocks)
            s = ref.random_similarity(self.rng(0, i), b.shape[0])
            self.gens.append((name, blocks, resonant, s, s @ b @ np.linalg.inv(s)))

    def prepare(self, index: int) -> list[Op]:
        rng = self.rng(1, index)
        return [Op(index, [rng.standard_normal(a.shape) for *_, a in self.gens])]

    def run(self, op: Op) -> None:
        fs, bf = self.bf.flowsignal, self.bf
        self.tag("eigen_observable")
        op.output = [
            fs.benford_verdict(fs.ObservableOnFlow(a, bf.Observable(c)), 10, self.grid)
            for (*_, a), c in zip(self.gens, op.spec)
        ]

    def judge(self, op: Op) -> list[str]:
        errors = []
        for (name, blocks, _, s, _), c, rep in zip(self.gens, op.spec, op.output):
            d = rep.to_dict()
            errors += [f"{name}: {e}" for e in ref.check_report(d, self.grid.count)]
            if op.index in self.reference:
                stats = ref.statistics(ref.log_observable(blocks, s, c, self.grid.times(), 10), d)
                self.sample = (d, stats)
                errors += [f"{name}: {e}" for e in ref.compare_report(d, stats)]
        return errors

    def _shares(self, ops: list[Op], flip: bool = False) -> list[str]:
        verdicts = {name: [rep.verdict for rep in (op.output[i] for op in ops)]
                    for i, (name, *_) in enumerate(self.gens)}
        return ref.check_shares(verdicts, {name: res != flip for name, _, res, *_ in self.gens})

    def check_run(self, ops: list[Op]) -> list[str]:
        stepping = [name for name, *_, a in self.gens if ref.takes_stepping(a)]
        return self._shares(ops) + [f"{name}: generator would take the stepping fallback" for name in stepping]

    def self_test(self, ops: list[Op]) -> list[str]:
        errors = ref.verdict_self_test(self.sample)
        if not self._shares([op for op in ops if not op.error], flip=True):
            errors.append("self-test: verdict shares with resonance swapped passed")
        return errors


# ---------------------------------------------------------------------------
# norms: the sampler's norm kernels and the stepping fallback


class Norms(Workload):
    """Fresh generators every operation: a 2x2 and a 3x3 spectral norm, a
    4x4 Frobenius norm, and an observable on a defective 3x3 Jordan block
    (which the sampler must take through its stepping fallback)."""

    stream = 2
    NORM_GRID = (2e3, 1e-2)
    JORDAN_GRID = (2e2, 1e-2)
    REFERENCE_OPS = 4

    def __init__(self, bf, seed, scratch):
        super().__init__(bf, seed, scratch)
        self.norm_grid = bf.SamplingGrid(*self.NORM_GRID)
        self.jordan_grid = bf.SamplingGrid(*self.JORDAN_GRID)

    def prepare(self, index: int) -> list[Op]:
        rng = self.rng(index)
        u = rng.uniform
        cases = [
            ("eigen_norm_d2", "spectral", (("spiral", u(0.5, 1.5), u(1, 3)),)),
            ("eigen_norm_d3", "spectral", (("spiral", u(0.8, 1.5), u(1, 3)), ("real", u(-0.5, 0.5)))),
            ("eigen_norm_frobenius", "frobenius", (("spiral", u(0.8, 1.5), u(1, 3)), ("spiral", u(-0.5, 0.5), u(1, 3)))),
            ("stepping", "observable", (("jordan", u(2, 4), 3),)),
        ]
        spec = []
        for label, kind, blocks in cases:
            b = ref.block_diagonal(blocks)
            s = ref.random_similarity(rng, b.shape[0])
            c = rng.standard_normal(b.shape) if kind == "observable" else None
            spec.append((label, kind, blocks, s, s @ b @ np.linalg.inv(s), c))
        return [Op(index, spec)]

    def run(self, op: Op) -> None:
        fs, bf = self.bf.flowsignal, self.bf
        out = []
        for label, kind, _, _, a, c in op.spec:
            self.tag(label)
            if kind == "observable":
                out.append(fs.benford_verdict(fs.ObservableOnFlow(a, bf.Observable(c)), 10, self.jordan_grid))
            else:
                out.append(fs.benford_verdict(fs.NormOnFlow(a, kind), 10, self.norm_grid))
        op.output = out

    def judge(self, op: Op) -> list[str]:
        errors = []
        for (label, kind, blocks, s, a, c), rep in zip(op.spec, op.output):
            grid = self.jordan_grid if kind == "observable" else self.norm_grid
            d = rep.to_dict()
            errors += [f"{label}: {e}" for e in ref.check_report(d, grid.count)]
            if ref.takes_stepping(a) != (label == "stepping"):
                errors.append(f"{label}: the sampler would not take the path this case measures")
            if op.index in self.reference:
                t = grid.times()
                logb = ref.log_observable(blocks, s, c, t, 10) if c is not None else ref.log_norm(blocks, s, kind, t, 10)
                stats = ref.statistics(logb, d)
                self.sample = (d, stats)
                errors += [f"{label}: {e}" for e in ref.compare_report(d, stats)]
        return errors

    def self_test(self, ops: list[Op]) -> list[str]:
        return ref.verdict_self_test(self.sample)


# ---------------------------------------------------------------------------
# analyze: annotated generators through the CLI


class Analyze(Workload):
    """`benflow --base b analyze-matrix FILE` in-process, one fresh file per op.

    A round is eight files: six 6x6 generators whose spectra are two
    conjugate pairs sharing an exact real part a plus a double real
    eigenvalue c, over the symbols {1, pi, ln10, pi/ln10} (three resonant,
    three not, by construction), and two inputs that keep known faults.
    The fault inputs depend on the round number only, never on the seed.
    """

    stream = 3
    round_size = 8
    SYMBOL_VALUES = {"1": 1.0, "pi": math.pi, "ln10": LN10, "pi*ln10^-1": math.pi / LN10}
    FAULT_STREAM = 7919

    def __init__(self, bf, seed, scratch):
        super().__init__(bf, seed, scratch)
        scratch.mkdir(parents=True, exist_ok=True)

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)

    def _value(self, coords: dict) -> float:
        return sum(self.SYMBOL_VALUES[s] * float(c) for s, c in coords.items())

    def _normal(self, rng, resonant: bool) -> dict:
        def q(lo, hi, den=1):
            return Fraction(int(rng.integers(lo, hi + 1)), den)

        alpha1, beta1 = q(1, 4, int(rng.integers(1, 3))), q(1, 2, 2)
        w1 = {"pi*ln10^-1": alpha1, "pi": beta1}
        while True:
            alpha2 = q(1, 6, 2)
            if abs(self._value({"pi*ln10^-1": alpha2}) - self._value(w1)) > 0.3:
                break
        w2 = {"pi*ln10^-1": alpha2}
        # (ln10/pi) w1 = alpha1 + beta1 ln10 and (ln10/pi) w2 = alpha2
        s, u = Fraction(1, int(rng.integers(2, 5))), q(-1, 1, 4)
        re = {"1": s * alpha1 + u * alpha2, "ln10": s * beta1}
        if self._value(re) < 0.2:
            re["1"] = s * alpha1
        if not resonant:
            re["pi*ln10^-1"] = q(1, 2, 4)
        c = -q(1, 4, 2)
        a, om1, om2 = self._value(re), self._value(w1), self._value(w2)
        blocks = (("spiral", a, om1), ("spiral", a, om2), ("real", float(c)), ("real", float(c)))
        conj1, conj2 = ({k: -v for k, v in w.items()} for w in (w1, w2))
        eigs = [(re, w1), (re, conj1), (re, w2), (re, conj2), ({"1": c}, {}), ({"1": c}, {})]
        expected = [(a, om1, 1), (a, -om1, 1), (a, om2, 1), (a, -om2, 1), (float(c), 0.0, 2)]
        return self._file(rng, blocks, ["pi", "ln10", "pi*ln10^-1"], eigs) | {
            "base": 10, "kind": "normal", "resonant": resonant, "points": expected, "r": a}

    def _file(self, rng, blocks, symbols, eigs) -> dict:
        b = ref.block_diagonal(blocks)
        s = ref.random_similarity(rng, b.shape[0])
        annotation = {
            "symbols": symbols,
            "eigenvalues": [{"re": {k: str(v) for k, v in re.items()}, "im": {k: str(v) for k, v in im.items()}}
                            for re, im in eigs],
        }
        return {"text": json.dumps({"matrix": (s @ b @ np.linalg.inv(s)).tolist(), "exact_spectrum": annotation})}

    def _dependent_atoms(self, index: int) -> dict:
        """Base 8, eigenvalues m +- i k pi/ln2: resonant, since
        (ln8/pi)(k pi/ln2) = 3k; benflow treats ln2 and ln8 as independent."""
        m, k = 1 + index % 4, 1 + index % 3
        rng = _rng(self.FAULT_STREAM, 0, index)
        w = {"pi*ln2^-1": Fraction(k)}
        eigs = [({"1": Fraction(m)}, w), ({"1": Fraction(m)}, {"pi*ln2^-1": Fraction(-k)})]
        blocks = (("spiral", float(m), k * math.pi / math.log(2)),)
        return self._file(rng, blocks, ["pi*ln2^-1"], eigs) | {"base": 8, "kind": "dependent_atoms"}

    def _mismatched(self, index: int) -> dict:
        """Matrix spectrum 1 + index%3 +- 2i, annotation one unit to the right:
        the annotation contradicts its matrix, which must be a usage error."""
        a = 1 + index % 3
        rng = _rng(self.FAULT_STREAM, 1, index)
        eigs = [({"1": Fraction(a + 1)}, {"1": Fraction(2)}), ({"1": Fraction(a + 1)}, {"1": Fraction(-2)})]
        return self._file(rng, (("spiral", float(a), 2.0),), [], eigs) | {"base": 10, "kind": "mismatched"}

    def prepare(self, index: int) -> list[Op]:
        rng = self.rng(index)
        specs = [self._normal(rng, resonant=j % 2 == 0) for j in range(6)]
        specs += [self._dependent_atoms(index), self._mismatched(index)]
        ops = []
        for j, spec in enumerate(specs):
            path = self.scratch / f"op{j}.json"
            path.write_text(spec.pop("text"), encoding="utf-8")
            spec["argv"] = ["--base", str(spec["base"]), "analyze-matrix", str(path)]
            ops.append(Op(index * self.round_size + j, spec))
        return ops

    def run(self, op: Op) -> None:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = self.bf.cli.main(op.spec["argv"])
        op.output = (code, buf.getvalue())

    def known_fault(self, op: Op) -> bool:
        return op.spec["kind"] != "normal"

    def settle(self, op: Op) -> None:
        """Judge at once and keep only the judgement (the first round is kept
        whole for the self-test), so that thousands of retained reports do
        not grow the peak RSS with the number of operations."""
        if op.index >= self.round_size:
            if not op.error:
                op.why = self.judge(op)
            op.spec, op.output = {"kind": op.spec["kind"]}, None

    def judge(self, op: Op) -> list[str]:
        spec, (code, text) = op.spec, op.output
        if spec["kind"] == "mismatched":
            return [] if code == 2 else [f"annotation contradicting its matrix: exit {code}, expected 2"]
        if code != 0:
            return [f"exit {code}"]
        rep = json.loads(text)
        if spec["kind"] == "dependent_atoms":
            return [] if rep["exact"]["resonant"] else ["dependent atoms: said nonresonant, truth resonant"]
        errors = []
        scale = max(abs(z) for p in spec["points"] for z in p[:2])
        got = [(e["re"], e["im"], e["multiplicity"]) for e in rep["eigenvalues"]]
        unmatched = list(got)
        for re, im, m in spec["points"]:
            hit = next((g for g in unmatched if g[2] == m and abs(complex(g[0] - re, g[1] - im)) <= 1e-6 * scale), None)
            if hit is not None:
                unmatched.remove(hit)
        if unmatched or len(got) != len(spec["points"]):
            errors.append(f"spectrum {got} != constructed {spec['points']}")
        if any(e["jordan_index"] != 0 for e in rep["eigenvalues"]):
            errors.append("a semisimple eigenvalue was given a Jordan block")
        if rep["dim"] != 6 or abs(rep["r"] - spec["r"]) > 1e-6 * scale or rep["hyperbolic"] is not True:
            errors.append("dim, r or hyperbolicity wrong")
        exact = rep["exact"]
        if exact["resonant"] != spec["resonant"] or (exact["witness"] is not None) != spec["resonant"]:
            errors.append(f"resonant={exact['resonant']} with witness {exact['witness']}, constructed {spec['resonant']}")
        return errors

    def self_test(self, ops: list[Op]) -> list[str]:
        op = next((o for o in ops if o.spec["kind"] == "normal" and o.output), None)
        if op is None:
            return ["self-test: no normal output to perturb"]
        code, text = op.output
        errors = []
        for what, edit in (("flipped resonance", lambda r: r["exact"].update(resonant=not r["exact"]["resonant"])),
                           ("shifted eigenvalue", lambda r: r["eigenvalues"][0].update(re=r["eigenvalues"][0]["re"] + 1e-3))):
            bad = json.loads(text)
            edit(bad)
            probe = Op(op.index, op.spec)
            probe.output = (code, json.dumps(bad))
            if not self.judge(probe):
                errors.append(f"self-test: {what} passed")
        return errors


# ---------------------------------------------------------------------------
# census


class Census(Workload):
    """Each operation counts a fresh Gaussian d=4 block and a fresh
    integer (entries -1..1) d=3 block; the Philox key is new every op.
    The blocks are small so that the analyze call it is paired with keeps
    a visible share of the operation."""

    stream = 4
    BLOCKS = (("gaussian", 4, 100), ("int1", 3, 100))
    TOL, HEIGHT = 1e-8, 8
    REFERENCE_OPS = 40  # hit counts recounted from the Philox stream

    def prepare(self, index: int) -> list[Op]:
        keys = self.rng(index).integers(0, 2**63, size=len(self.BLOCKS))
        return [Op(index, [(dist, d, n, int(k)) for (dist, d, n), k in zip(self.BLOCKS, keys)])]

    def run(self, op: Op) -> None:
        g = self.bf.genericity
        op.output = [
            g.resonance_census(g.EnsembleSpec(d=d, distribution=dist, N=n, seed=key), 10, self.TOL, self.HEIGHT)
            for dist, d, n, key in op.spec
        ]

    def _judge_block(self, spec, rep: dict, recount: bool = True) -> list[str]:
        dist, d, n, key = spec
        errors = []
        if (rep["n"], rep["dim"], rep["ensemble"], rep["seed"]) != (n, d, dist, key):
            errors.append("report does not describe its ensemble")
        if recount:
            axis, collision = ref.census_recount(d, dist, n, key, self.TOL)
            if (rep["imaginary_axis_hits"], rep["multiple_eigenvalue_hits"]) != (axis, collision):
                errors.append(f"{dist}: axis/collision {rep['imaginary_axis_hits']}/{rep['multiple_eigenvalue_hits']}"
                              f" vs recount {axis}/{collision}")
        hits = (rep["imaginary_axis_hits"], rep["multiple_eigenvalue_hits"], rep["relation_hits"])
        if dist == "gaussian" and any(hits):
            errors.append("a Gaussian block shows resonance hits")
        if not 0 <= rep["relation_hits"] <= n:
            errors.append("relation hits outside 0..n")
        return errors

    def judge(self, op: Op) -> list[str]:
        recount = op.index in self.reference
        return [e for spec, rep in zip(op.spec, op.output) for e in self._judge_block(spec, rep.to_dict(), recount)]

    def self_test(self, ops: list[Op]) -> list[str]:
        spec, rep = ops[0].spec[1], ops[0].output[1].to_dict()
        bad = {**rep, "imaginary_axis_hits": rep["imaginary_axis_hits"] + 1}
        return [] if self._judge_block(spec, bad) else ["self-test: perturbed axis count passed"]


# ---------------------------------------------------------------------------
# the workloads: two parts each, run back to back in every operation


class Combined(Workload):
    """One operation is one operation of each part, in order.  The first
    part sets the round; every later part makes one input per operation
    from the operation's index.  Each part keeps its own input stream,
    checks and self-test."""

    PARTS: tuple = ()

    def __init__(self, bf, seed, scratch):
        super().__init__(bf, seed, scratch)
        self.parts = [cls(bf, seed, scratch) for cls in self.PARTS]
        self.round_size = self.parts[0].round_size

    def close(self) -> None:
        for part in self.parts:
            part.close()

    def prepare(self, index: int) -> list[Op]:
        first = self.parts[0].prepare(index)
        columns = [first] + [[part.prepare(op.index)[0] for op in first] for part in self.parts[1:]]
        return [Op(subs[0].index, subs) for subs in zip(*columns)]

    def run(self, op: Op) -> None:
        for part, sub in zip(self.parts, op.spec):
            part.tracer = self.tracer
            part.run(sub)

    def settle(self, op: Op) -> None:
        for part, sub in zip(self.parts, op.spec):
            part.settle(sub)

    def evaluate(self, ops: list[Op]) -> tuple[int, list[str]]:
        """An operation fails when any part's output is wrong; only a
        part's known fault is not an error."""
        failed, errors = 0, []
        for part in self.parts:
            part.reference = part.pick_reference(ops[-1].index)
        for op in ops:
            if op.error:
                failed += 1
                errors.append(f"op {op.index}: {op.error}")
                continue
            bad = False
            for part, sub in zip(self.parts, op.spec):
                why = sub.why if sub.why is not None else part.judge(sub)
                bad |= bool(why)
                if why and not part.known_fault(sub):
                    errors += [f"op {op.index}: {e}" for e in why]
            failed += bad
        for i, part in enumerate(self.parts):
            errors += part.check_run([op.spec[i] for op in ops if not op.error])
        return failed, errors

    def self_test(self, ops: list[Op]) -> list[str]:
        done = [op for op in ops if not op.error]
        return [e for i, part in enumerate(self.parts) for e in part.self_test([op.spec[i] for op in done])]


class Verdicts(Combined):
    """The sampler and the statistics core: the paper's "almost every
    observable" use on fixed generators, then every other sampler path on
    fresh ones."""

    PARTS = (Observables, Norms)


class Exact(Combined):
    """No sampling: one annotated file through the CLI's exact engine,
    then one census of two small fresh blocks."""

    PARTS = (Analyze, Census)


WORKLOADS = {"verdicts": Verdicts, "exact": Exact}


def warmup(bf, name: str) -> None:
    """One small call through each of the workload's code paths."""
    if name == "verdicts":
        a, grid = np.array([[1.0, -2.0], [2.0, 1.0]]), bf.SamplingGrid(T=10.0, step=1e-2)
        for spec in (bf.ObservableOnFlow(a, bf.Observable.entry(0, 0, 2)), bf.NormOnFlow(a)):
            bf.benford_verdict(spec, 10, grid)
    else:
        fixture = Path(bf.__file__).parent / "fixtures" / "ex-3-9.json"
        with contextlib.redirect_stdout(io.StringIO()):
            bf.cli.main(["analyze-matrix", str(fixture)])
        bf.resonance_census(bf.EnsembleSpec(d=3, distribution="int1", N=20, seed=0))
