"""The PPT state family and the closed-form detection thresholds.

Builds the one-parameter family rho_gamma, verifies it stays PPT, pairs it
against the witness family, and computes the three thresholds (alpha for
mixing toward a separable state, lambda and mu for perturbing the witness),
including the optimal gamma* that maximizes the lambda bound.
"""

import math
import os
import tempfile

import numpy as np

import ewkit as ek


def main():
    print("=" * 72)
    print("PPT states rho_gamma and their detection thresholds")
    print("=" * 72)

    w0 = ek.witness_dk(3, 1)

    print("\ngamma  Tr(W0 rho_gamma)  (gamma^2-1)/N   PPT?")
    for gamma in (0.3, 0.5, 0.7, 0.9, 1.0):
        rho = ek.ha_state(3, gamma)
        n_gamma = 3**2 - 2 + gamma**2 + gamma**-2  # the trace of the unnormalized state
        value = ek.trace_pair(w0, rho)
        formula = (gamma**2 - 1) / n_gamma
        ppt = ek.certify_ppt(rho, (False, True)).verdict
        print(f"{gamma:5.2f}  {value: .10f}   {formula: .10f}   {ppt}")
    print("negative pairing + PPT = bound entanglement detected")

    print("\n-- mixing toward the maximally mixed state --")
    gamma_star = math.sqrt((math.sqrt(3.0) - 1.0) / 2.0)
    rho_star = ek.ha_state(3, gamma_star)
    sigma = ek.maximally_mixed(w0.space)
    alpha = ek.alpha_threshold(w0, rho_star, sigma)
    print(f"rho_(gamma*) with gamma* = {gamma_star:.6f}")
    print(f"alpha threshold = {alpha:.6f}: every mixture below it is a")
    print("PPT entangled state still detected by W0")

    print("\n-- perturbing the witness --")
    p = ek.projector_p(3)
    print("gamma   lambda threshold   formula (1-g^2)/(2+g^-2)")
    for gamma in (0.3, 0.5, gamma_star, 0.8):
        value = ek.lambda_threshold(w0, p, ek.ha_state(3, gamma))
        formula = (1 - gamma**2) / (2 + gamma**-2)
        print(f"{gamma:.4f}  {value:.10f}     {formula:.10f}")

    grid = np.arange(1e-4, 1.0, 1e-4)
    bounds = (1 - grid**2) / (2 + grid**-2.0)
    best = int(bounds.argmax())
    print(f"\nmaximizing over gamma: best gamma = {grid[best]:.4f} "
          f"(exact {gamma_star:.4f}), max lambda = {bounds[best]:.6f}")
    print(f"exact maximum 1 - sqrt(3)/2 = {1 - math.sqrt(3) / 2:.6f}")

    q = ek.projector_q(3)
    mu = ek.mu_threshold(w0, p, q, 0.05, ek.ha_state(3, 0.5))
    print(f"\nwith lambda = 0.05 at gamma = 0.5 there is still room for the")
    print(f"second perturbation: mu threshold = {mu:.6f}")

    print("\n-- a quick sweep --")
    table = ek.sweep(3, 1, [0.1 * i for i in range(1, 10)], [0.0, 0.1], [0.0])
    print(f"{len(table)} grid points, {table.detected.sum()} detected")
    print("first rows of the CSV form:")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sweep.csv")
        ek.write_sweep_csv(path, table)
        with open(path, encoding="utf-8") as fh:
            print("".join(fh.readlines()[:5]), end="")


if __name__ == "__main__":
    main()
