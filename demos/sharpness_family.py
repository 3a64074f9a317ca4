"""The family showing the vertex-deletion toughness bound is best possible.

H(m, a, b, n) glues an m(a-1)-clique, an independent row of mb+1
vertices joined to it, and a large clique holding one pendant partner per
row vertex.  One deleted set gives the ratio
((mb+1)(a-1+n) + m(a-1)) / (mb+1), which climbs toward the bound
a-1+n+(a-1)/b as m grows but never reaches it, while deleting n chosen
large-clique vertices destroys every [a,b]-factor.
"""

from factorbench import threshold
from factorbench.avoidance import extremal_sharpness

a, b, n = 2, 3, 1
thr = threshold("A", a=a, b=b, n=n)
print(f"bound for (a,b,n)=({a},{b},{n}): {thr}\n")

print(f"{'m':>2} {'vertices':>9} {'ratio':>7} {'below?':>7} {'delta at small clique':>22}")
for m in (1, 2, 3, 4):
    w, _, refutation = extremal_sharpness(m, a, b, n)
    cert = refutation.certificate.violation
    print(
        f"{m:>2} {w.graph.n:>9} {str(w.witness_ratio):>7} "
        f"{str(w.witness_ratio < thr):>7} {cert.delta:>22}"
    )

print(
    "\nratios approach the bound from below; every instance still loses"
    "\nits factors after the chosen n-vertex deletion, so the bound is tight."
)
