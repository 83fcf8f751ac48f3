"""N-partite seed pairs for the sigma-PPT machinery.

The trace pairing, the threshold formulas and the certificates never look at
the number of factors, and partial transposition already acts factor-wise,
so certify_ppt, certify_indecomposable, alpha_threshold and lambda_threshold
serve N parties as they are. What is genuinely multipartite is the
bookkeeping: a seed pair carries the transposition pattern sigma it is
certified against, as in certify_indecomposable(pair.w0, pair.rho0,
pair.sigma).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import HermitianOp, TensorSpace, _validate_sigma


@dataclass(frozen=True)
class MultipartitePair:
    """A witness, the sigma-PPT state it detects, and the pattern sigma."""

    w0: HermitianOp
    rho0: HermitianOp
    sigma: tuple[bool, ...]

    def __post_init__(self) -> None:
        self.w0._require_same_space(self.rho0)
        object.__setattr__(self, "sigma", _validate_sigma(self.w0.space, self.sigma))


def ghz_projector(num_parts: int = 3, d: int = 2) -> HermitianOp:
    """Projector onto (|0...0> + |(d-1)...(d-1)>)/sqrt(2) on d^N."""
    if num_parts < 2:
        raise ValueError("need at least two factors")
    space = TensorSpace((d,) * num_parts)
    vec = np.zeros(space.total, dtype=complex)
    vec[0] = 1.0 / np.sqrt(2.0)
    vec[-1] = 1.0 / np.sqrt(2.0)
    return HermitianOp(space, np.outer(vec, vec.conj()))
