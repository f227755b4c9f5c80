"""Independent correctness checks for the benchmark's outputs.

These use numpy and the gamma table captured once at set-up, never the
library's own residual or check functions, and run outside the timed region.
Each check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import json
import math

import numpy as np

ETA = np.diag([1.0, -1.0, -1.0, -1.0])
FIBER_TOL = 1e-9  # the library's documented fiber bound: tol * max(1, m) * |psi|
SWEEP_CHECKS = 20
# Checks whose sample count is fixed by the check itself, not by --samples.
FIXED_SIZE_CHECKS = {
    "world-basis signature",
    "gamma anticommutation table",
    "rest fiber eigenspace",
    "spin-1/2 character",
}


def gamma_table_problems(G: np.ndarray) -> list[str]:
    """The captured table must satisfy the Clifford relations it encodes."""
    eye = np.eye(4)
    worst = max(
        float(np.max(np.abs(G[a] @ G[b] + G[b] @ G[a] - 2.0 * ETA[a, b] * eye)))
        for a in range(4)
        for b in range(4)
    )
    return [] if worst <= 1e-13 else [f"gamma table violates the Clifford relations by {worst:.3e}"]


def slash(G: np.ndarray, p) -> np.ndarray:
    return np.einsum("k,kij->ij", np.asarray(p, dtype=float), G)


# ---------------------------------------------------------------------------
# verify-sweep


def verify_problems(code: int, text: str, seed: int, samples: int) -> list[str]:
    """`verify --format json` output: exit 0, passed, 20 checks, N samples each."""
    if code != 0:
        return [f"verify exited {code}"]
    try:
        payload = json.loads(text)
    except ValueError as exc:
        return [f"verify output is not JSON: {exc}"]
    problems = []
    if payload.get("passed") is not True:
        problems.append("verify reported passed != true")
    if payload.get("header", {}).get("seed") != seed or payload.get("samples") != samples:
        problems.append("verify header does not echo the requested seed and samples")
    checks = payload.get("checks", [])
    if len(checks) != SWEEP_CHECKS:
        problems.append(f"verify ran {len(checks)} checks, expected {SWEEP_CHECKS}")
    for c in checks:
        if not (c["passed"] and c["max_defect"] <= c["tol"]):
            problems.append(f"check {c['name']!r} did not pass")
        if c["name"] not in FIXED_SIZE_CHECKS and c["samples"] != samples:
            problems.append(f"check {c['name']!r} ran {c['samples']} samples, expected {samples}")
    return problems


# ---------------------------------------------------------------------------
# field-grid


def _complex(pairs) -> np.ndarray:
    a = np.asarray(pairs, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def field_problems(lines: list[str], G: np.ndarray, n: int) -> list[str]:
    """`sample-field` NDJSON: 1 + 2 n^3 finite records, none flagged, each in
    its fiber, with s the spinor half of psi and sbar its conjugate."""
    if len(lines) != 1 + 2 * n**3:
        return [f"{len(lines)} lines, expected {1 + 2 * n**3}"]
    try:
        header = json.loads(lines[0])
        records = [json.loads(line) for line in lines[1:]]
    except ValueError as exc:
        return [f"record does not parse: {exc}"]
    m, tol = header["mass"], header["tol"]
    try:
        P = np.array([r["p"] for r in records], dtype=float)
        psi = _complex([r["psi"] for r in records])
        s = _complex([r["s"] for r in records])
        sbar = _complex([r["sbar"] for r in records])
        res = np.array([r["residual"] for r in records], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"record has the wrong shape: {exc}"]
    problems = []
    if P.shape != (len(records), 4) or psi.shape != (len(records), 4):
        return ["record arrays have the wrong shape"]
    if not all(np.all(np.isfinite(a)) for a in (P, psi, s, sbar, res)):
        problems.append("non-finite value in a record")
    if not all(r["ok"] is True for r in records):
        problems.append("a record is flagged")
    if [r["basis_index"] for r in records] != [0, 1] * n**3:
        problems.append("basis indices are not 0, 1 per node")
    dispersion = np.abs(P[:, 0] ** 2 - np.sum(P[:, 1:] ** 2, axis=1) - m * m)
    if np.any(dispersion > 1e-12 * np.maximum(1.0, P[:, 0] ** 2)) or np.any(P[:, 0] <= 0):
        problems.append("a momentum is off the forward shell")
    slashes = np.einsum("nk,kij->nij", P, G)
    resid = np.linalg.norm(np.einsum("nij,nj->ni", slashes, psi) - m * psi, axis=1)
    norms = np.linalg.norm(psi, axis=1)
    bound = tol * max(1.0, m) * norms
    if np.any(resid > bound) or np.any(res > bound):
        problems.append("a record is outside its fiber")
    # psi is the rest basis vector carried by the canonical boost
    # A = (H + Id) / sqrt(tr H + 2), H the Hermitian matrix of p / m, and
    # the pair is the spinor half of that rest vector with its conjugate.
    rest = np.array([[1, 0, 0, -1], [0, 1, 1, 0]], dtype=complex)[np.arange(len(records)) % 2]
    H = np.empty((len(records), 2, 2), dtype=complex)
    H[:, 0, 0], H[:, 1, 1] = P[:, 0] + P[:, 3], P[:, 0] - P[:, 3]
    H[:, 0, 1], H[:, 1, 0] = P[:, 1] + 1j * P[:, 2], P[:, 1] - 1j * P[:, 2]
    H /= m
    A = (H + np.eye(2)) / np.sqrt(H[:, 0, 0].real + H[:, 1, 1].real + 2.0)[:, None, None]
    expected = np.concatenate(
        [np.einsum("nij,nj->ni", A, rest[:, :2]), np.einsum("nij,nj->ni", np.conj(A), rest[:, 2:])],
        axis=1,
    )
    if np.any(np.linalg.norm(psi - expected, axis=1) > 1e-12 * np.maximum(1.0, P[:, 0] / m)):
        problems.append("psi is not the canonical section's basis vector")
    if not (np.array_equal(s, rest[:, :2]) and np.array_equal(sbar, np.conj(s))):
        problems.append("conjugate pair is not the split of the rest representative")
    return problems


def corrupt_one_digit(line: str) -> str:
    """Change the first nonzero digit of the first psi coefficient of a record."""
    i = line.index('"psi"')
    while not line[i].isdigit() or line[i] == "0":
        i += 1
    return line[:i] + ("2" if line[i] == "1" else "1") + line[i + 1:]


# ---------------------------------------------------------------------------
# point-queries


def query_problems(q_in, out, G: np.ndarray) -> list[str]:
    """Check one successful query against the equations that define each output.

    q_in: the generated query (m, p, coef, x, h); out: the library's answers.
    Tolerances are relative to the boost's scale p0/m, which sets the
    condition number of every step.
    """
    m = q_in.m
    p = np.asarray(out["p"], dtype=float)
    p0 = math.sqrt(m * m + float(np.dot(q_in.p, q_in.p)))
    problems = []
    if tuple(p[1:]) != tuple(q_in.p) or abs(p[0] - p0) > 8e-16 * p0:
        problems.append("shell point is not (sqrt(m^2+|p|^2), p)")
    S = slash(G, p)
    scale = max(1.0, m)
    for b, r in zip(out["basis"], out["basis_residuals"]):
        nb = float(np.linalg.norm(b))
        resid = float(np.linalg.norm(S @ b - m * b))
        if resid > FIBER_TOL * scale * nb or abs(r - resid) > FIBER_TOL * scale * nb:
            problems.append("fiber basis vector is outside the fiber")
    b1, b2 = out["basis"]
    if abs(b1[0] * b2[1] - b1[1] * b2[0] - 1.0) > 1e-9 * (p0 / m):
        problems.append("fiber basis is not the canonical (unimodular) frame")
    lam = np.asarray(out["lorentz"], dtype=float)
    cond = max(1.0, float(np.max(np.abs(lam)))) ** 2
    if np.max(np.abs(lam.T @ ETA @ lam - ETA)) > 1e-12 * cond:
        problems.append("Lorentz matrix is not metric-orthogonal")
    if np.max(np.abs(lam[:, 0] * m - p)) > 1e-12 * cond * p0:
        problems.append("Lorentz matrix does not boost the rest momentum to p")
    psi = out["psi"]
    npsi = float(np.linalg.norm(psi))
    if np.max(np.abs(np.asarray(out["round_trip_p"]) - p)) > 1e-12 * cond * p0:
        problems.append("bundle round trip moved the momentum")
    if np.linalg.norm(np.asarray(out["round_trip_psi"]) - psi) > 1e-12 * cond * npsi:
        problems.append("bundle round trip moved the spinor")
    # Central differences of exp(-i p.x) psi are exact in closed form:
    # d_r -> -i sin(p_r h) / h, so the residual is |(sum_r s_r gamma_r - m) psi|.
    h = q_in.h
    expected = float(np.linalg.norm(slash(G, np.sin(p * h) / h) @ psi - m * psi))
    phase_err = 1e-13 * (1.0 + float(np.sum(np.abs(p * q_in.x)))) / h * npsi
    if abs(out["planewave"] - expected) > phase_err + 1e-12 * p0 * npsi:
        problems.append("plane-wave residual differs from its closed form")
    return problems
