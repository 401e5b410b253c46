# Quantify steering on the isotropic qubit family: the optimal-fraction
# monotone coincides with steering robustness, every value comes with primal
# and dual certificates, and one-way processing never increases the monotone.
import numpy as np

from steerkit import (
    Instrument1W,
    InstrumentBranch,
    WiringMap,
    check_proposition_robustness,
    check_proposition_weight,
    isotropic,
    monotonicity_audit,
    mub,
    optimal_steering_fraction,
    steer,
    steerable_weight,
    steering_robustness,
)

np.set_printoptions(precision=6, suppress=True, linewidth=120)

zx = mub(2, 2).to_measurements()

# S_O is read off the robustness program, so the last column compares S_R
# with the enumerated fraction of the optimal functional instead
print("p        S_O        S_W        S_R        |S_R - fraction of functional|")
for p in (0.5, 0.71, 0.8, 0.9, 1.0):
    sigma = steer(isotropic(2, p), zx)
    so = optimal_steering_fraction(sigma)
    sw = steerable_weight(sigma)
    sr = steering_robustness(sigma)
    print(
        f"{p:4.2f}   {so.value:9.6f}  {sw.value:9.6f}  {sr.value:9.6f}"
        f"   {abs(so.certificate_value - sr.value):.2e}"
    )
print("the robustness equals the fraction its dual functional attains on every assemblage\n")

# certificates re-derive the number from both sides of the program
sigma = steer(isotropic(2, 0.9), zx)
for rep in (optimal_steering_fraction(sigma), steerable_weight(sigma), steering_robustness(sigma)):
    print(
        f"{rep.monotone:3s} value {rep.value:.6f}  from primal certificate"
        f" {rep.certificate_value:.6f}  from dual {rep.dual_value:.6f}"
        f"  (solver gap {rep.gap:.1e})"
    )

# decomposition chains pin the monotones against each other
w = check_proposition_weight(sigma)
r = check_proposition_robustness(sigma)
print(f"\nweight chain holds: {w.holds}  terms {w.terms}")
print(f"  implied window for S_W: [{w.window[0]:.6f}, {w.window[1]:.6f}]")
print(f"robustness chain holds: {r.holds}  terms {r.terms}")

# one-way processing on the trusted side plus classical wiring only degrades
damp = 0.4
k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - damp)]], dtype=complex)
k1 = np.array([[0.0, np.sqrt(damp)], [0.0, 0.0]], dtype=complex)
eye_wiring = WiringMap.identity(2, 2)
damping = Instrument1W(
    (InstrumentBranch(k0, eye_wiring), InstrumentBranch(k1, eye_wiring))
)
p_setting = np.array([[1.0, 0.0], [0.5, 0.5]])
p_outcome = np.zeros((2, 2, 2, 2))
p_outcome[:, :] = np.array([[0.9, 0.1], [0.1, 0.9]])
noisy_relabel = Instrument1W(
    (InstrumentBranch(np.eye(2, dtype=complex), WiringMap(p_setting, p_outcome)),)
)
report = monotonicity_audit(sigma, [damping, noisy_relabel])
print(f"\nbase value {report.base_value:.6f}")
for row in report.rows:
    name = ("amplitude damping", "wired relabeling")[row.index]
    print(
        f"  {name:18s} branch values {np.array(row.branch_values)}"
        f"  average {row.average:.6f}  <= base: {row.holds_average}"
    )
print(f"audit passed: {report.holds}")
