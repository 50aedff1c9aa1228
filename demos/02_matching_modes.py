"""Why injective matching matters: the redundancy experiment.

Five copies of one perfect answer score 1.0 when every output may reuse the
same reference ("maximum" matching), but only 0.2 under bipartite matching,
which forbids reference reuse.  Cluster-constrained scoring goes further and
allows only one representative per semantic cluster.
"""
from polyeval import polyagg, top1_select
from polyeval.textmetrics import exact_match

references = ["r1", "r2", "r3", "r4", "r5"]
redundant = ["r1"] * 5
diverse = ["r1", "r2", "r3", "r4", "r5"]

print("five identical perfect outputs vs five distinct references:")
print("  maximum matching :", polyagg(redundant, references, exact_match, "maximum"))
print("  bipartite        :", polyagg(redundant, references, exact_match, "bipartite"))
print("five distinct perfect outputs:")
print("  maximum matching :", polyagg(diverse, references, exact_match, "maximum"))
print("  bipartite        :", polyagg(diverse, references, exact_match, "bipartite"))

# Top-1 rules for single-best evaluation: "maximum" scans every output,
# "order" trusts the model's own ranking and evaluates only the first.
outputs = ["r3", "r1"]
print("\ntop-1 on outputs", outputs)
print("  maximum selection:", top1_select(outputs, references, exact_match, "maximum"))
print("  order selection  :", top1_select(["junk", "r1"], references, exact_match, "order"))

# Cluster-constrained: outputs 0 and 1 paraphrase each other, so only one of
# them may be matched; the representative is chosen to maximize the score.
outputs = ["r1", "r1 paraphrased", "r2"]
clusters = [[0, 1], [2]]
print("\ncluster-constrained bipartite on", outputs, "clusters", clusters)
print("  score:", polyagg(outputs, references, exact_match, clusters=clusters))
