"""Build the block witness family and its positive maps.

Walks through the d=3, k=1 witness (the Choi-map witness), shows that the
same operator arises from two independent routes (direct block assembly vs
tabulating the positive map and applying the Choi-Jamiolkowski assembly),
and checks the d(d-1) trace across the family.
"""

import numpy as np

import ewkit as ek


def show(title, matrix):
    print(f"\n{title}")
    with np.printoptions(precision=3, suppress=True, linewidth=120):
        print(matrix.real)


def main():
    print("=" * 72)
    print("The block witness family W_{d,k}")
    print("=" * 72)

    w0 = ek.witness_dk(3, 1)
    show("W_{3,1} (integer entries, unnormalized):", w0.matrix)
    print(f"\ntrace = {w0.trace():.0f} (= d(d-1) = 6)")

    print("\nThe same operator via the positive map route:")
    table = ek.choi_map(3, 1)
    print("  images of the diagonal matrix units:")
    for i in range(3):
        diag = np.diag(table.image(i, i)).real.astype(int)
        print(f"    phi(e_{i}{i}) has diagonal {diag}")
    assembled = table.choi
    print("  assembled operator equals the direct construction:",
          np.array_equal(assembled.matrix, w0.matrix))

    print("\nGoing the other way, the witness decomposes into its map table:")
    recovered = ek.LinearMapTable(w0)
    print("  phi(e_01) =")
    print(recovered.image(0, 1).real.astype(int))

    print("\nTraces across the family (expect d(d-1)):")
    for d in (3, 4, 5):
        traces = [ek.witness_dk(d, k).trace() for k in range(1, d)]
        print(f"  d={d}: {[int(t) for t in traces]}")

    print("\nThe k = d-1 member is completely copositive: its partial")
    print("transpose is PSD, so it cannot detect any PPT state.")
    for d in (3, 4):
        cert = ek.certify_ppt(ek.witness_dk(d, d - 1), (False, True))
        print(f"  d={d}, k={d - 1}: PSD partial transpose -> {cert.verdict}")


if __name__ == "__main__":
    main()
