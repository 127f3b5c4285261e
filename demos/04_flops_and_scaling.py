"""The exact operation ledger and the O(n k^2) scaling of the geodesic step.

The paper's itemized update charges a fixed cost model (2abc per multiply,
8abc/3 per divide) into an exact rational ledger, and one itemized geodesic
reproduces the published per-step itemization line by line.  A timing sweep
of the production step shows the per-mode update growing linearly in the
mode size while the dense path grows cubically.
"""
from tensorgeo.audit import (audit_geodesic, time_dense_modes,
                             time_lowrank_modes)

print("== line-by-line audit of one itemized CP geodesic ==")
res = audit_geodesic("cp", (100, 100, 100), (5,), (3, 3, 3), seed=0)
print(f"dims {res.dims}, leading columns {res.ks}, exponents {res.zs}")
print(f"{'item':>22}  {'recorded':>12}  {'expected':>12}")
for row in res.rows[:9]:
    print(f"{row.label:>22}  {str(row.recorded):>12}  {str(row.expected):>12}")
print(f"(modes 1 and 2 identical)")
print(f"ledger total   : {res.ledger_total}")
print(f"formula value  : {res.formula_total}")
print(f"residual       : {res.residual}   (slack allows {res.slack})")
print(f"all lines exact: {res.all_exact}")
print()

print("== wall-time scaling, rank 5 ==")
print("low-rank per-mode update:")
rows = time_lowrank_modes((500, 1000, 2000, 4000), 5, trials=7, seed=0)
for rec in rows:
    print(f"  n = {rec.n:5d}: {rec.time_median_s * 1e3:8.3f} ms   "
          f"(itemized model: {float(rec.flops_model):.2e} operations)")
print(f"  time ratio n=4000 / n=1000: "
      f"{rows[3].time_median_s / rows[1].time_median_s:.2f} "
      f"(linear growth would be 4)")
print("dense per-mode geodesic:")
drows = time_dense_modes((100, 200, 400), 5, trials=7, seed=0)
for rec in drows:
    print(f"  n = {rec.n:5d}: {rec.time_median_s * 1e3:8.3f} ms")
print(f"  time ratio n=200 / n=100: "
      f"{drows[1].time_median_s / drows[0].time_median_s:.2f} "
      f"(cubic growth would be 8)")
