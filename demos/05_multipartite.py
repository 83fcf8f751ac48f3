"""sigma-PPT analysis of multipartite states.

Each binary pattern sigma picks a subset of parties to transpose; a state
can be PPT for one pattern and not another. The certificates and the
threshold formulas never look at the number of parties, so the bipartite
functions run unchanged on N factors with another pattern sigma.
"""

import numpy as np

import ewkit as ek


def main():
    print("=" * 72)
    print("Multipartite sigma-PPT")
    print("=" * 72)

    ghz = ek.ghz_projector(3, 2)
    print("\nGHZ projector on 2x2x2, all transposition patterns:")
    for pattern in range(8):
        sigma = tuple((pattern >> i) & 1 == 1 for i in range(3))
        cert = ek.certify_ppt(ghz, sigma)
        bits = "".join("1" if b else "0" for b in sigma)
        print(f"  sigma = {bits}: PPT = {cert.verdict}  "
              f"(min eigenvalue {cert.evidence['min_eigenvalue']: .3f})")

    print("\nan ancilla-tensored seed pair on 3x3x2:")
    e00 = ek.HermitianOp(ek.TensorSpace((2,)), np.array([[1, 0], [0, 0]], dtype=complex))
    w3 = ek.tensor_op(ek.witness_dk(3, 1), e00)
    rho3 = ek.tensor_op(ek.ha_state(3, 0.5), e00)
    cert = ek.certify_indecomposable(w3, rho3, (False, True, False))
    print(f"  sigma-indecomposability certified: {cert.verdict} "
          f"(trace {cert.evidence['trace']:.6f})")

    sigma_sep = ek.maximally_mixed(w3.space)
    alpha = ek.alpha_threshold(w3, rho3, sigma_sep)
    print(f"  mixing threshold on the tripartite space: {alpha:.6f}")

    print("\nthe bipartite case is the N=2, sigma=(0,1) instance of the same call:")
    w0, rho = ek.witness_dk(3, 1), ek.ha_state(3, 0.5)
    cert = ek.certify_indecomposable(w0, rho, (False, True))
    print(f"  indecomposability certified: {cert.verdict} "
          f"(trace {cert.evidence['trace']:.6f})")


if __name__ == "__main__":
    main()
