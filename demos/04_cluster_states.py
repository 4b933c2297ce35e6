"""Cluster states: maximal entanglement, wrong measurement basis.

Linear cluster states are stabilized by K_j = U2_{j-1} U1_j U2_{j+1},
and suitable K products factor into single-site string operators G1, G2
that are locally equivalent to Upsilon^1, Upsilon^2.  Equivalent -- but
not equal: cluster states straddle all four Bell classes, so the
protocol's Bell measurements fail on them even though the entanglement
itself is maximal.
"""

from bellport import (
    cluster_state,
    decompose_classes,
    random_state,
    teleport_branches,
)
from bellport.channels import cluster_g_operators, cluster_stabilizer, stabilizer_report

for L in (4, 6, 8):
    state = cluster_state(L)
    evs = [
        stabilizer_report(state, cluster_stabilizer(j, L), f"K{j}").eigenvalue
        for j in range(1, L + 1)
    ]
    g1, g2 = cluster_g_operators(L)
    print(f"L={L}: all K eigenvalues = {set(round(e, 12) for e in evs)}")
    for name, g in (("G1", g1), ("G2", g2)):
        rep = stabilizer_report(state, g, name)
        factors = "".join(f"U{f}" for f in g.factors)
        print(f"  {name} = {'-' if g.sign < 0 else '+'}{factors}"
              f" -> eigenvalue {rep.eigenvalue:+.6f}")
    weights = decompose_classes(state).coefficients
    print("  class weights:", {f"[{c.j:+d}:{c.k:+d}]": round(w**2, 4)
                               for c, w in weights.items()})

print("\nteleporting through cluster(4), assumed class [+:+]:")
client = random_state(1, 2, 3)
worst = min(res.fidelity for res in teleport_branches(client, cluster_state(4), (1, 1)))
print(f"worst branch fidelity = {worst:.6f}  (protocol fails: basis misaligned)")
