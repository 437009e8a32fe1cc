# Walk the jump function for the pure radiation fluid: admissible
# window, end states across the strength range, characteristic speeds.

import numpy as np

from shockscan import g_eval, q_max, radiation_eos, shock_from_strength

eos = radiation_eos()
q1 = 3.0

rs, Q, rb = q_max(eos, q1)
print(f"q1 = {q1}: admissible energies (0, {rb:g}), "
      f"g peaks at rho* = {rs:g} with Q = {Q:g}")

# the jump function itself, coarse table
for rho in np.linspace(0.5, rb - 0.5, 8):
    print(f"  g({rho:5.2f}) = {g_eval(eos, q1, rho):8.4f}")

print()
print(f"{'s':>5} {'rho-':>9} {'rho+':>9} {'u1-':>7} {'u1+':>7} "
      f"{'speeds-':>20} {'speeds+':>20} lax")
for s in (0.05, 0.25, 0.5, 0.75, 0.95):
    sd = shock_from_strength(eos, q1, s)
    sm, sp = sd.speeds_minus, sd.speeds_plus
    print(f"{s:5.2f} {sd.rho_minus:9.5f} {sd.rho_plus:9.5f} "
          f"{sd.u1_minus:7.4f} {sd.u1_plus:7.4f} "
          f"({sm[0]:+8.5f},{sm[1]:8.5f}) ({sp[0]:+8.5f},{sp[1]:8.5f}) "
          f"{sd.lax}")

# weak limit: states merge at rho*; extreme limit: upstream empties
for s in (1e-3, 1.0 - 1e-3):
    sd = shock_from_strength(eos, q1, s)
    print(f"\ns = {s}: rho- = {sd.rho_minus:.6g}, rho+ = {sd.rho_plus:.6g}, "
          f"amplitude {sd.amplitude:.6g}")
