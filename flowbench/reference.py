"""Reference computations made apart from benflow, and the checks built on them.

Nothing in this module imports benflow.  Generators are built here as
A = S B S^-1 with B block-diagonal, so every signal has a closed form:
e^{tA} = S e^{tB} S^-1, where each block of e^{tB} is a rotation-scaling,
a real exponential or a Jordan block polynomial.  log_b|f| is evaluated
from that closed form (shifted by the largest real part r, so nothing
overflows), and the statistics a verdict rests on are recomputed with a
few lines of numpy: the Kolmogorov-Smirnov distance of frac(log_b|f|)
from the uniform law, the first-digit counts and the Weyl sums.

Tolerances (see README.md for the argument):
  COUNT_TOL  samples may change digit bin or exclusion status only when
             they sit within ~1e-10 (in log_b) of a bin edge or of the
             exclusion cutoff; at 1e6 samples fewer than 0.01 are
             expected there, so 3 leaves room without hiding a real fault.
  STAT_TOL   KS distance and Weyl magnitudes move by at most
             COUNT_TOL / kept + 2*pi*K * max|delta log_b f| ~ 1e-5.
"""
from __future__ import annotations

import math

import numpy as np

COUNT_TOL = 3
STAT_TOL = 1e-5
STEPPING_COND = 1e8
PASS, FAIL = "BENFORD_PASS", "FAIL"


# ---------------------------------------------------------------------------
# generators with a known block structure


def block_diagonal(blocks) -> np.ndarray:
    """B for blocks ("spiral", a, w) -> [[a, -w], [w, a]], ("real", c),
    ("jordan", lam, m) -> lam*I_m + nilpotent shift."""
    sizes = [_block_size(b) for b in blocks]
    out = np.zeros((sum(sizes), sum(sizes)))
    i = 0
    for blk, m in zip(blocks, sizes):
        if blk[0] == "spiral":
            a, w = blk[1], blk[2]
            out[i : i + 2, i : i + 2] = [[a, -w], [w, a]]
        elif blk[0] == "real":
            out[i, i] = blk[1]
        else:
            out[i : i + m, i : i + m] = blk[1] * np.eye(m) + np.eye(m, k=1)
        i += m
    return out


def _block_size(blk) -> int:
    return {"spiral": 2, "real": 1}.get(blk[0]) or blk[2]


def random_similarity(rng: np.random.Generator, d: int) -> np.ndarray:
    """Q1 diag(s) Q2 with s in [0.5, 2]: condition number at most 4."""
    q1, _ = np.linalg.qr(rng.standard_normal((d, d)))
    q2, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return q1 @ np.diag(rng.uniform(0.5, 2.0, d)) @ q2


def takes_stepping(a: np.ndarray) -> bool:
    """Whether the sampler's documented criterion sends A to the stepping
    fallback: eigenvector condition number of at least 1e8."""
    _, vecs = np.linalg.eig(a)
    return bool(np.linalg.cond(vecs) >= STEPPING_COND)


def abscissa(blocks) -> float:
    return max(b[1] for b in blocks)


def shifted_entries(blocks, t: np.ndarray, r: float):
    """Nonzero entries (k, l, values) of e^{t(B - rI)} over the times t."""
    i = 0
    for blk in blocks:
        m = _block_size(blk)
        decay = np.exp((blk[1] - r) * t)
        if blk[0] == "spiral":
            c, s = decay * np.cos(blk[2] * t), decay * np.sin(blk[2] * t)
            yield from ((i, i, c), (i + 1, i + 1, c), (i, i + 1, -s), (i + 1, i, s))
        elif blk[0] == "real":
            yield i, i, decay
        else:
            for k in range(m):
                for l in range(k, m):
                    yield i + k, i + l, decay * t ** (l - k) / math.factorial(l - k)
        i += m


def log_observable(blocks, s: np.ndarray, c: np.ndarray, t: np.ndarray, b: int) -> np.ndarray:
    """log_b|sum_jk c_jk (S e^{tB} S^-1)_jk| = log_b|tr(G e^{tB})|, G = S^-1 c^T S."""
    g = np.linalg.solve(s, c.T @ s)
    r = abscissa(blocks)
    acc = np.zeros(t.size)
    for k, l, vals in shifted_entries(blocks, t, r):
        acc += g[l, k] * vals
    return _to_logb(acc, r, t, b)


def log_norm(blocks, s: np.ndarray, kind: str, t: np.ndarray, b: int) -> np.ndarray:
    """log_b of the spectral or Frobenius norm of S e^{tB} S^-1, by numpy."""
    d = s.shape[0]
    r = abscissa(blocks)
    m = np.zeros((t.size, d, d))
    for k, l, vals in shifted_entries(blocks, t, r):
        m[:, k, l] = vals
    mats = s @ m @ np.linalg.inv(s)
    norms = np.linalg.norm(mats, ord=2 if kind == "spectral" else "fro", axis=(1, 2))
    return _to_logb(norms, r, t, b)


def _to_logb(vals: np.ndarray, r: float, t: np.ndarray, b: int) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return (r * t + np.log(np.abs(vals))) / math.log(b)


# ---------------------------------------------------------------------------
# statistics of frac(log_b|f|)


def statistics(logb: np.ndarray, rep: dict) -> dict:
    """Exclusions, KS distance, digit counts and Weyl magnitudes, under the
    base, zero_rel and number of Weyl frequencies that the report used.

    Exclusion follows benflow's documented rule: a sample is dropped
    when it is an exact zero or below zero_rel times the running max.
    """
    b, zero_rel, K = rep["base"], rep["thresholds"]["zero_rel"], len(rep["weyl_magnitudes"])
    finite = np.isfinite(logb)
    running = np.maximum.accumulate(np.where(finite, logb, -np.inf))
    keep = finite & (logb >= running + math.log(zero_rel) / math.log(b))
    kept = logb[keep]
    u = np.sort(kept - np.floor(kept))
    n = u.size
    ranks = np.arange(n)
    distance = float(max(((ranks + 1) / n - u).max(), (u - ranks / n).max()))
    edges = np.searchsorted(u, np.log(np.arange(1, b + 1)) / math.log(b))
    digits = {d: int(edges[d] - edges[d - 1]) for d in range(1, b)}
    phase = np.exp(2j * np.pi * kept)
    weyl, power = {}, np.ones_like(phase)
    for k in range(1, K + 1):
        power = power * phase
        weyl[k] = float(abs(power.mean()))
    return {"excluded": int(logb.size - n), "distance": distance, "digits": digits, "weyl": weyl}


def verdict_rule(distance: float, max_weyl: float, kept: int, th: dict) -> tuple[str, bool]:
    """PASS when both statistics are under their cutoffs, a clean FAIL when
    either exceeds fail_factor times its cutoff, an inconclusive FAIL between."""
    floor = th["weyl_multiplier"] / math.sqrt(kept)
    if distance < th["distance"] and max_weyl < floor:
        return PASS, False
    clean = distance > th["fail_factor"] * th["distance"] or max_weyl > th["fail_factor"] * floor
    return FAIL, not clean


def _near_cutoff(distance: float, max_weyl: float, kept: int, th: dict) -> bool:
    floor = th["weyl_multiplier"] / math.sqrt(kept)
    cuts = [(distance, th["distance"]), (distance, th["fail_factor"] * th["distance"]),
            (max_weyl, floor), (max_weyl, th["fail_factor"] * floor)]
    return any(abs(x - c) <= STAT_TOL for x, c in cuts)


def check_report(rep: dict, n: int) -> list[str]:
    """Properties every verdict report must have on its own."""
    errors = []
    if rep["sample_count"] != n:
        errors.append(f"sample_count {rep['sample_count']} != grid size {n}")
    kept = rep["sample_count"] - rep["excluded_sample_count"]
    if kept < 100:
        return errors + [f"only {kept} samples kept"]
    if sum(rep["digit_counts"].values()) != kept:
        errors.append("digit counts do not sum to the kept samples")
    weyl = rep["weyl_magnitudes"]
    expected = verdict_rule(rep["significand_distance"], max(weyl.values()), kept, rep["thresholds"])
    if (rep["verdict"], rep["inconclusive"]) != expected:
        errors.append(f"verdict {rep['verdict']} contradicts its own statistics ({expected[0]})")
    return errors


def compare_report(rep: dict, ref: dict) -> list[str]:
    """Report statistics against the reference within COUNT_TOL / STAT_TOL."""
    errors = []
    if abs(rep["excluded_sample_count"] - ref["excluded"]) > COUNT_TOL:
        errors.append(f"excluded {rep['excluded_sample_count']} vs reference {ref['excluded']}")
    if abs(rep["significand_distance"] - ref["distance"]) > STAT_TOL:
        errors.append(f"KS distance {rep['significand_distance']:.3e} vs reference {ref['distance']:.3e}")
    for d, count in ref["digits"].items():
        got = rep["digit_counts"].get(d, rep["digit_counts"].get(str(d), 0))
        if abs(got - count) > COUNT_TOL:
            errors.append(f"digit {d}: {got} vs reference {count}")
    for k, mag in ref["weyl"].items():
        got = rep["weyl_magnitudes"][str(k)]
        if abs(got - mag) > STAT_TOL:
            errors.append(f"Weyl k={k}: {got:.3e} vs reference {mag:.3e}")
    kept = rep["sample_count"] - ref["excluded"]
    max_weyl = max(ref["weyl"].values())
    if not _near_cutoff(ref["distance"], max_weyl, kept, rep["thresholds"]):
        expected = verdict_rule(ref["distance"], max_weyl, kept, rep["thresholds"])
        if (rep["verdict"], rep["inconclusive"]) != expected:
            errors.append(f"verdict {rep['verdict']} vs reference {expected[0]}")
    return errors


def verdict_self_test(sample: tuple[dict, dict] | None) -> list[str]:
    """The report checks must reject perturbed copies of a checked report."""
    if sample is None:
        return ["self-test: no report was compared with the reference"]
    rep, stats = sample
    digits = dict(rep["digit_counts"])
    digits[min(digits)] += COUNT_TOL + 1
    perturbed = {
        "KS distance": {**rep, "significand_distance": rep["significand_distance"] + 2 * STAT_TOL},
        "digit count": {**rep, "digit_counts": digits},
        "Weyl sums": {**rep, "weyl_magnitudes": {k: v + 2 * STAT_TOL for k, v in rep["weyl_magnitudes"].items()}},
    }
    errors = [f"self-test: perturbed {what} passed" for what, bad in perturbed.items() if not compare_report(bad, stats)]
    flipped = {**rep, "verdict": FAIL if rep["verdict"] == PASS else PASS}
    if not check_report(flipped, rep["sample_count"]):
        errors.append("self-test: flipped verdict passed")
    return errors


def check_shares(verdicts: dict[str, list[str]], resonant: dict[str, bool]) -> list[str]:
    """At least 0.9 PASS per nonresonant generator, at least 0.5 FAIL per resonant one."""
    errors = []
    for name, vs in verdicts.items():
        if not vs:
            errors.append(f"{name}: no verdicts")
            continue
        if resonant[name]:
            share = sum(v == FAIL for v in vs) / len(vs)
            if share < 0.5:
                errors.append(f"{name} (resonant): FAIL share {share:.2f} < 0.5")
        else:
            share = sum(v == PASS for v in vs) / len(vs)
            if share < 0.9:
                errors.append(f"{name} (nonresonant): PASS share {share:.2f} < 0.9")
    return errors


# ---------------------------------------------------------------------------
# census recount


def census_recount(d: int, distribution: str, n: int, key: int, tol: float) -> tuple[int, int]:
    """Imaginary-axis and eigenvalue-collision hits over the documented
    Philox stream: matrix i comes from Philox(key=key, counter=[0, i, 0, 0])."""
    axis = collision = 0
    for index in range(n):
        rng = np.random.Generator(np.random.Philox(key=key, counter=[0, index, 0, 0]))
        if distribution == "gaussian":
            a = rng.standard_normal((d, d))
        else:
            m = int(distribution[3:])
            a = rng.integers(-m, m + 1, size=(d, d)).astype(float)
        eigs = np.linalg.eigvals(a)
        axis += bool(np.abs(eigs.real).min() <= tol)
        gaps = np.abs(eigs[:, None] - eigs[None, :]) + np.diag(np.full(d, np.inf))
        collision += bool(gaps.min() <= tol)
    return axis, collision
