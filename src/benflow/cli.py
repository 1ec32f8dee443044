"""Command-line front end.

Subcommands:
  analyze-matrix  spectrum, dominant set, hyperbolicity, resonance verdicts
  benford         conformance report for a flow signal, synthetic signal, or CSV data
  example         scripted demonstration scenarios with checked expectations
  census          Monte Carlo resonance census over a random-matrix ensemble

Exit codes: 0 success / expectation met, 2 usage or parse error,
3 numeric degradation (partial report), 4 expectation failed.
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig
from .dataio import emit_report, load_config, load_matrix, load_signal_csv, parse_exact_spectrum, write_table
from .errors import BenflowError, SignalOverflowError, UsageError
from .matrixcore import SpectrumInfo, is_hyperbolic, spectrum
from .resonance import is_exp_b_nonresonant, is_exp_nonresonant_algebraic
from .significand import digit_law_pmf

# The sampler (flowsignal), the census (genericity) and the examples
# (demos) are imported by the commands that run them, so analyze-matrix
# loads none of them; analyze's own callees stay module attributes here.

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_EXPECTATION = 4


class _ExampleIds:
    """Prints as the example ids, read from demos only when help is printed."""

    def __str__(self) -> str:
        from .demos import EXAMPLE_IDS

        return ", ".join(EXAMPLE_IDS)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benflow",
        description="Benford conformance analysis for linear flows",
    )
    parser.add_argument("--version", action="version", version=f"benflow {__version__}")
    defaults = RunConfig()
    parser.add_argument("--base", type=int, help=f"significand base b >= 2 (default {defaults.base})")
    parser.add_argument("--horizon", type=float, help=f"sampling horizon T (default {defaults.horizon:g})")
    parser.add_argument("--step", type=float, help=f"sampling step (default {defaults.step:g})")
    parser.add_argument("--seed", type=int, help="seed for randomized commands")
    parser.add_argument("--out", type=Path, help="write the report here instead of stdout")
    parser.add_argument("--format", dest="output_format", choices=("json", "csv"), help="report format (default json)")
    parser.add_argument("--config", type=Path, help="JSON config mirroring RunConfig fields")

    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze-matrix", help="spectral and resonance analysis of a generator")
    p_analyze.add_argument("matrix", type=Path, help="matrix file (CSV rows or JSON)")
    p_analyze.set_defaults(run=_cmd_analyze)

    p_benford = sub.add_parser("benford", help="Benford conformance verdict for a signal")
    source = p_benford.add_mutually_exclusive_group(required=True)
    source.add_argument("--matrix", type=Path, help="generator matrix file")
    source.add_argument(
        "--synthetic",
        metavar="SPEC",
        help="r=R,k=K,modes=w:u[,w:u...] (';' also separates modes; defaults r=0, k=0, modes=0:1)",
    )
    source.add_argument("--signal-csv", type=Path, help="two-column (t, value) CSV")
    signal = p_benford.add_mutually_exclusive_group()
    signal.add_argument("--observable", type=Path, help="observable coefficient matrix file (with --matrix)")
    signal.add_argument("--norm", choices=("spectral", "frobenius", "max"), help="use a norm signal (with --matrix)")
    p_benford.add_argument("--digits-csv", type=Path, help="write per-digit frequencies here")
    p_benford.add_argument("--ecdf-csv", type=Path, help="write significand ECDF samples here")
    p_benford.set_defaults(run=_cmd_benford)

    p_example = sub.add_parser("example", help="run a scripted demonstration scenario")
    # a required positional never takes its default: it only formats the ids into the help
    p_example.add_argument("id", default=_ExampleIds(), help="one of: %(default)s")
    p_example.set_defaults(run=_cmd_example)

    p_census = sub.add_parser("census", help="random-matrix resonance census")
    p_census.add_argument("--dim", type=int, required=True)
    p_census.add_argument("--n", type=int, required=True)
    p_census.add_argument("--dist", default="gaussian", help="gaussian | uniform | int<m>")
    p_census.add_argument("--tol", type=float, default=1e-8)
    p_census.add_argument("--height", type=int, default=8)
    p_census.set_defaults(run=_cmd_census)
    return parser


def _merge_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    flags = ("base", "horizon", "step", "seed", "output_format")
    return replace(cfg, **{f: getattr(args, f) for f in flags if getattr(args, f) is not None})


# ---------------------------------------------------------------------------
# analyze-matrix


def _complex_dict(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _check_annotation(values: list[complex], info: SpectrumInfo, tol: float) -> None:
    """Require the annotated eigenvalues to be the computed spectrum.

    Each annotated value is matched to the nearest computed eigenvalue
    within tol that still has multiplicity left; a count or value
    mismatch is a usage error, since the exact verdict would otherwise
    describe some other matrix.
    """
    left = {i: p.m for i, p in enumerate(info.points)}
    if len(values) != sum(left.values()):
        raise UsageError(
            f"exact_spectrum lists {len(values)} eigenvalues, the matrix has {sum(left.values())}"
        )
    for z in values:
        near = [i for i, m in left.items() if m and abs(info.points[i].z - z) <= tol]
        if not near:
            raise UsageError(f"annotated eigenvalue {z:.12g} is not an eigenvalue of the matrix (tolerance {tol:.3g})")
        left[min(near, key=lambda i: abs(info.points[i].z - z))] -= 1


def _cmd_analyze(args, cfg: RunConfig) -> int:
    matrix, annotation = load_matrix(args.matrix)
    info = spectrum(matrix, cfg.tolerances.eigen_cluster)
    report = {
        "dim": int(matrix.shape[0]),
        "eigenvalues": [
            {**_complex_dict(p.z), "multiplicity": p.m, "jordan_index": p.k} for p in info.points
        ],
        "r": info.r,
        "kmax": info.kmax,
        "dominant": [_complex_dict(p.z) for p in info.dominant],
        "hyperbolic": is_hyperbolic(info, cfg.tolerances.hyperbolicity),
        "algebraic_shortcut_nonresonant": is_exp_nonresonant_algebraic(
            [p.z for p in info.points], cfg.tolerances.hyperbolicity
        ),
        "notes": list(info.notes),
    }
    if annotation is not None:
        exact_set = parse_exact_spectrum(annotation)
        frobenius = float((matrix * matrix).sum()) ** 0.5
        tol = cfg.tolerances.eigen_cluster * max(frobenius, 1.0)
        _check_annotation([z.value() for z in exact_set], info, tol)
        verdict = is_exp_b_nonresonant(exact_set, cfg.base)
        report["exact"] = {
            "base": cfg.base,
            "resonant": verdict.resonant,
            "witness": (
                {
                    "kind": verdict.witness.kind,
                    "q": verdict.witness.q,
                    "p": list(verdict.witness.p),
                }
                if verdict.witness
                else None
            ),
            "assumptions": list(verdict.assumptions),
            "detail": verdict.detail,
        }
    table = None if "exact" in report else (
        ["re", "im", "multiplicity", "jordan_index"],
        [[f"{p.z.real:.12g}", f"{p.z.imag:.12g}", p.m, p.k] for p in info.points],
    )
    emit_report(report, cfg.output_format, args.out, table)
    return EXIT_OK


# ---------------------------------------------------------------------------
# benford


def _parse_synthetic(text: str) -> Synthetic:
    """Parse r=R,k=K,modes=w:u[,w:u...]; ';' may also separate modes.

    Each key at most once, in any order; an omitted key defaults to r=0,
    k=0, modes=0:1.  A part without '=' continues the modes list.
    """
    from .flowsignal import Synthetic

    fields: dict[str, str] = {}
    key = None
    for part in text.split(","):
        name, eq, value = part.partition("=")
        if eq and name in ("r", "k", "modes") and name not in fields:
            key, fields[name] = name, value
        elif not eq and key == "modes" and ":" in part:
            fields["modes"] += ";" + part
        else:
            raise UsageError(
                f"bad synthetic spec {text!r}: unexpected {part!r} "
                "(expected r=R,k=K,modes=w:u[,w:u...], each key at most once)"
            )
    try:
        r = float(fields.get("r", "0"))
        k = int(fields.get("k", "0"))
        modes_text = fields.get("modes", "0:1")
        modes = tuple(
            (float(w), float(u)) for w, u in (m.split(":") for m in modes_text.split(";") if m)
        )
    except (ValueError, TypeError) as exc:
        raise UsageError(f"bad synthetic spec {text!r}: {exc}") from None
    return Synthetic(r=r, k=k, modes=modes)


def _ecdf_significands(u: np.ndarray, b: int) -> np.ndarray:
    """The significands b^u behind the `--ecdf-csv` rows, each clipped
    below b: every (n // 512)-th of the n sorted kept fractions u, or every
    one when n < 1024."""
    stride = max(1, u.size // 512)
    return np.minimum(np.power(float(b), u[stride - 1 :: stride]), math.nextafter(float(b), 1.0))


def _cmd_benford(args, cfg: RunConfig) -> int:
    from .flowsignal import NormOnFlow, Observable, ObservableOnFlow, _samples_verdict, _signal_verdict

    if args.matrix is None and (args.observable or args.norm):
        raise UsageError("--observable and --norm apply only to --matrix")
    if args.signal_csv:
        _, values = load_signal_csv(args.signal_csv)
        report, u = _samples_verdict(values, config=cfg)
    else:
        if args.synthetic is not None:
            spec = _parse_synthetic(args.synthetic)
        else:
            matrix, _ = load_matrix(args.matrix)
            if args.observable:
                obs_matrix, _ = load_matrix(args.observable)
                spec = ObservableOnFlow(matrix, Observable(obs_matrix))
            else:
                spec = NormOnFlow(matrix, args.norm or "spectral")
        report, u = _signal_verdict(spec, config=cfg)
    digits = None  # one row list for --digits-csv and the csv format
    if report.digit_histogram is not None:
        pairs = zip(report.digit_histogram.frequencies(), digit_law_pmf(report.base))
        digits = (["digit", "observed", "target"], [[d, f"{f:.10g}", f"{t:.10g}"] for d, (f, t) in enumerate(pairs, 1)])
        if args.digits_csv:
            write_table(args.digits_csv, digits)
    if args.ecdf_csv and u.size:
        q = _ecdf_significands(u, report.base).tolist()
        rows = [[f"{s:.10g}", f"{i / len(q):.10g}", f"{math.log(s, report.base):.10g}"] for i, s in enumerate(q, 1)]
        write_table(args.ecdf_csv, (["significand", "ecdf", "target"], rows))
    emit_report(report.to_dict(), cfg.output_format, args.out, digits)
    return EXIT_NUMERIC if report.truncated_at is not None else EXIT_OK


# ---------------------------------------------------------------------------
# example and census


def _cmd_example(args, cfg: RunConfig) -> int:
    from .demos import run_example

    result = run_example(args.id, cfg)
    emit_report(result.to_dict(), cfg.output_format, args.out)
    return EXIT_OK if result.passed else EXIT_EXPECTATION


def _cmd_census(args, cfg: RunConfig) -> int:
    from .genericity import EnsembleSpec, resonance_census

    spec = EnsembleSpec(d=args.dim, distribution=args.dist, N=args.n, seed=cfg.seed)
    report = resonance_census(spec, cfg.base, args.tol, args.height)
    d = report.to_dict()
    emit_report(d, cfg.output_format, args.out, (list(d), [list(d.values())]))
    return EXIT_OK


_PARSER = _build_parser()  # built once, after the commands it names; parsing leaves it unchanged


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    try:
        return args.run(args, _merge_config(args))
    except SignalOverflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (BenflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
