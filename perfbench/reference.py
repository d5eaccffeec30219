"""The benchmark's own numpy reference code.

Nothing here imports choikit: inputs are built from the paper's closed form
and outputs are checked against plain eigenvalue computations, so a fault in
the library cannot hide behind the same fault in its checker.

Choi convention (the library's): block (i, j) of the 4x4 matrix, rows
2i..2i+1 and columns 2j..2j+1, is the map's value on the matrix unit E_ij.
"""

from __future__ import annotations

import numpy as np

# Eigenvalue slack for outputs that are PSD by construction (inputs have norm ~1).
PSD_SLACK = 1e-9
# Relative threshold below which an eigenvalue counts as zero for a rank.
RANK_REL = 1e-8


def block(h: np.ndarray, i: int, j: int) -> np.ndarray:
    return h[2 * i:2 * i + 2, 2 * j:2 * j + 2]


def partial_transpose(h: np.ndarray) -> np.ndarray:
    """Swap the off-diagonal blocks (transpose on the block index)."""
    return np.asarray(h).reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)


def lam_min(h: np.ndarray) -> float:
    h = np.asarray(h)
    return float(np.linalg.eigvalsh(0.5 * (h + h.conj().T))[0])


def is_psd(h: np.ndarray, slack: float = PSD_SLACK) -> bool:
    return lam_min(h) >= -slack


def rank(h: np.ndarray) -> int:
    h = np.asarray(h)
    w = np.abs(np.linalg.eigvalsh(0.5 * (h + h.conj().T)))
    return int(np.sum(w > RANK_REL * max(float(w.max()), 1e-300)))


def apply_map(h: np.ndarray, a: np.ndarray) -> np.ndarray:
    """phi(A) = sum_ij A_ij * block_ij(h)."""
    return sum(a[i, j] * block(h, i, j) for i in range(2) for j in range(2))


def compressed(h: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The 2x2 matrix [<v, block_ij v>]; PSD for every v iff the map is positive."""
    v = np.asarray(v, dtype=np.complex128).reshape(2)
    return np.array([[np.vdot(v, block(h, i, j) @ v) for j in range(2)] for i in range(2)])


def local_conjugate(h: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Choi matrix of A -> V* phi(W A W*) V, built block by block from the action."""
    out = np.zeros((4, 4), dtype=np.complex128)
    for i in range(2):
        for j in range(2):
            unit = np.zeros((2, 2), dtype=np.complex128)
            unit[i, j] = 1.0
            out[2 * i:2 * i + 2, 2 * j:2 * j + 2] = (
                v.conj().T @ apply_map(h, w @ unit @ w.conj().T) @ v)
    return out


def random_unitary(rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---- the paper's canonical extremal form --------------------------------

def extremal_t(u: float, y: complex, z: complex, branch: str) -> complex:
    """Branch-selected root of t^2 = -4 (1 - u) y conj(z) (principal for '+')."""
    root = complex(np.sqrt(complex(-4.0 * (1.0 - u) * y * np.conj(z)) + 0j))
    return root if branch == "+" else -root


def extremal_choi(u: float, y: complex, z: complex, branch: str) -> np.ndarray:
    """[[1, 0, 0, y], [0, 1-u, z*, t], [0, z, 0, 0], [y*, t*, 0, u]]."""
    t = extremal_t(u, y, z, branch)
    h = np.zeros((4, 4), dtype=np.complex128)
    h[0, 0] = 1.0
    h[1, 1] = 1.0 - u
    h[3, 3] = u
    h[0, 3], h[3, 0] = y, np.conj(y)
    h[2, 1], h[1, 2] = z, np.conj(z)
    h[1, 3], h[3, 1] = t, np.conj(t)
    return h


def extremal_residual(h: np.ndarray) -> float:
    """Largest violation of the paper's relations by a canonical extremal matrix
    with b = 1 - u > 0: zero pattern, a = 1, c = 0, |y| + |z| = sqrt(u),
    |t|^2 = 2b(u - |y|^2 - |z|^2) and t^2 = -4(1 - u) y conj(z)."""
    h = np.asarray(h)
    herm = float(np.max(np.abs(h - h.conj().T)))
    a, b, u = h[0, 0].real, h[1, 1].real, h[3, 3].real
    c, y, z, t = h[0, 1], h[0, 3], h[2, 1], h[1, 3]
    pattern = max(abs(h[0, 2]), abs(h[2, 2]), abs(h[2, 3]))
    return float(max(
        herm, pattern, abs(a - 1.0), abs(c), abs(b + u - 1.0),
        abs(abs(y) + abs(z) - np.sqrt(max(u, 0.0))),
        abs(abs(t) ** 2 - 2.0 * b * (u - abs(y) ** 2 - abs(z) ** 2)),
        abs(t * t + 4.0 * (1.0 - u) * y * np.conj(z)),
    ))


def closed_form_split(h: np.ndarray) -> np.ndarray:
    """The paper's split as a candidate vector (a1, b1, u1, Re t1, Im t1, Re c, Im c)."""
    u, y, z, t = h[3, 3].real, h[0, 3], h[2, 1], h[1, 3]
    ru = np.sqrt(u)
    c = -z * t / (2.0 * abs(z) * ru)
    return np.array([abs(y) / ru, abs(z) * (1.0 - u) / ru, abs(y) * ru,
                     0.5 * t.real, 0.5 * t.imag, c.real, c.imag])


def candidate_parts(h: np.ndarray, vec) -> tuple[np.ndarray, np.ndarray]:
    """The two structured parts a candidate describes; they sum to h."""
    a1, b1, u1, tr, ti, cr, ci = (float(x) for x in vec)
    t1, c = complex(tr, ti), complex(cr, ci)
    y, z, t = h[0, 3], h[2, 1], h[1, 3]
    h1 = np.array([[a1, c, 0, y],
                   [np.conj(c), b1, 0, t1],
                   [0, 0, 0, 0],
                   [np.conj(y), np.conj(t1), 0, u1]], dtype=np.complex128)
    return h1, np.asarray(h) - h1


def split_is_valid(h: np.ndarray, vec, slack: float = PSD_SLACK) -> bool:
    """First part CP (PSD) and second part co-CP (PSD after partial transpose)."""
    h1, h2 = candidate_parts(h, vec)
    return is_psd(h1, slack) and is_psd(partial_transpose(h2), slack)


# ---- JSON matrices as the CLI writes them -------------------------------

def matrix_json(m: np.ndarray) -> dict:
    return {"rows": [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m)]}


def matrix_from(obj: dict) -> np.ndarray:
    return np.array([[complex(p[0], p[1]) for p in row] for row in obj["rows"]])
