"""Unequal outcome probabilities and the worst-case fidelity minimum.

Two checks from the protocol's fine print.  First: outcomes of the
pairwise measurements are NOT equally likely in general -- for the
channel cos(phi) |+:-}|-:+} + sin(phi) |-:+}|+:-} each of the sixteen
branches has probability (1 +- sin 2phi)/16, yet the aggregate class
stays uniform at 1/4.  Second: against a coherent channel error
R(theta, n), the worst-case branch fidelity over all clients and all
complex axes n equals cos(theta) exactly for theta <= pi/2, and 0
above, where a = -cot(theta/2) cancels the numerator.
"""

from itertools import product

import numpy as np

from bellport import PureState, bell_state, min_fidelity_scan, random_state, tensor
from bellport.bell import BELL_LABELS, labels_class
from bellport.measure import measure_branches

phi = 0.3
amps = np.cos(phi) * np.kron(
    bell_state((1, -1)).amplitudes, bell_state((-1, 1)).amplitudes
) + np.sin(phi) * np.kron(
    bell_state((-1, 1)).amplitudes, bell_state((1, -1)).amplitudes
)
total = tensor(random_state(1, 2, 16), PureState(amps))

print(f"branch probabilities at phi={phi} (expect (1 +- sin 2phi)/16"
      f" = {(1 - np.sin(2 * phi)) / 16:.5f} or {(1 + np.sin(2 * phi)) / 16:.5f}):")
branch_prob = {
    tuple(o.label for o in record.outcomes): record.joint_probability
    for record, _ in measure_branches(total, [(0, 1), (2, 3)])
}
class_prob = {}
for lab1, lab2 in product(BELL_LABELS, repeat=2):
    prob = branch_prob.get((lab1, lab2), 0.0)
    cls = labels_class([lab1, lab2])
    class_prob[cls] = class_prob.get(cls, 0.0) + prob
    print(f"  ({lab1.j:+d}:{lab1.k:+d})({lab2.j:+d}:{lab2.k:+d})  {prob:.5f}")
print("aggregate class probabilities:",
      {f"[{c.j:+d}:{c.k:+d}]": round(p, 6) for c, p in class_prob.items()})

print("\nworst-case fidelity scan against R(theta, n):")
for theta in (0.2, 0.6, 1.0, 1.4):
    res = min_fidelity_scan(theta)
    print(f"  theta={theta}: scan minimum = {res.minimum:.6f}"
          f"  cos(theta) = {np.cos(theta):.6f}"
          f"  argmin a = {res.a.real:+.3f}{res.a.imag:+.3f}i, |c| = {res.c_mag:.3f}")
