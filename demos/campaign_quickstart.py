"""Run a miniature verification campaign from Python.

Each cell samples random graphs until its quota of premise-satisfying
instances is reached, verifies the conclusion on each by exhaustive
deletion enumeration, and tallies outcomes.  Sharpness entries run
``extremal_sharpness`` and are expected failures, never counterexamples.
"""

from fractions import Fraction

from factorbench import CampaignConfig, run_campaign

config = CampaignConfig(
    theorems=("A", "C", "D1"),
    n_min=6,
    n_max=8,
    p_list=(Fraction(3, 5), Fraction(4, 5)),
    seed_list=tuple(range(1, 21)),
    quota=10,
    a_ab=((2, 3),),
    a_n=(1,),
    c_ab=((2, 3),),
    c_n=(1,),
    d1_ab=((2, 3),),
    d1_n=(1,),
    d1_k=(2, "b"),
    extremal=((1, 2, 3, 1), (2, 2, 3, 1)),
)

report = run_campaign(config)

print("cell summary")
for cell in report.cells:
    print(
        f"  {cell['label']:>24}: kept {cell['kept']}, "
        f"rejected {cell['rejected_premise']}, verified {cell['verified']}"
    )
print("aggregates:", report.aggregates)
print("true counterexamples:", len(report.counterexamples))

for row in report.instances:
    if row["expected_failure"]:
        s = row["sharpness"]
        print(
            f"sharpness H: ratio {s['witness_ratio']} < bound {s['threshold']}: "
            f"{s['strictly_below']}; deletion {s['v0']} kills all factors"
        )
