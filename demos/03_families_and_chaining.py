"""From one seed pair to open convex sets of witnesses and states.

A witness W0 together with a PPT entangled state it detects generates two
families: mixtures of the state with separable states (all still detected,
all still PPT) and perturbations of the witness by PSD operators (all still
detecting). Any member of one family pairs with the other to seed the next
round of the construction.
"""

import math

import ewkit as ek


def main():
    print("=" * 72)
    print("Families generated by a seed pair, and chaining")
    print("=" * 72)

    gamma_star = math.sqrt((math.sqrt(3.0) - 1.0) / 2.0)
    w0 = ek.witness_dk(3, 1)
    rho0 = ek.ha_state(3, gamma_star)
    sigma = ek.separable_catalog(w0.space)["maximally-mixed"]

    alpha_max = ek.alpha_threshold(w0, rho0, sigma)
    print(f"\nmixing family threshold: alpha < {alpha_max:.6f}")
    alphas = [0.0, alpha_max / 4, alpha_max / 2]
    states = ek.sample_sppt(w0, rho0, sigma, alphas)
    for alpha, state in zip(alphas, states):
        value = ek.trace_pair(w0, state)
        ppt = ek.certify_ppt(state, (False, True)).verdict
        print(f"  alpha = {alpha:.4f}: Tr(W0 rho_alpha) = {value: .6f}, PPT = {ppt}")

    mixed = ek.convex_combination(states[1:], [0.5, 0.5])
    print(f"convex mix of two members: Tr = {ek.trace_pair(w0, mixed): .6f} "
          "(the set is convex)")

    p = ek.projector_p(3)
    print(f"\nperturbation family threshold: lambda < "
          f"{ek.lambda_threshold(w0, p, rho0):.6f}")
    lams = [0.0, 0.05, 0.1]
    witnesses = ek.sample_wind(w0, p, rho0, lams)
    for lam, w in zip(lams, witnesses):
        print(f"  lambda = {lam:.2f}: Tr(W_lambda rho0) = "
              f"{ek.trace_pair(w, rho0): .6f}")

    print("\nchaining: pick a perturbed witness, mix a new state for it,")
    print("and the pair seeds the construction again")
    w_new = witnesses[2]
    w_next, rho_next = ek.chain_pair(w_new, rho0, sigma)
    print(f"  new pair pairing: {ek.trace_pair(w_next, rho_next): .6f}")
    print(f"  next mixing threshold: {ek.alpha_threshold(w_next, rho_next, sigma):.6f}")

    ccp = ek.witness_dk(3, 2)
    print("\na completely copositive operator cannot seed the chain:")
    print(f"  chain_pair returns {ek.chain_pair(ccp, rho0, sigma)}")


if __name__ == "__main__":
    main()
