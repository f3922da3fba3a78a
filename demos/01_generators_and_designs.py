"""Build the anticommuting generators and assemble group-decodable designs.

Walks from the 2x2 seed blocks to the 16-weight-matrix design for eight
antennas, checking the algebra along the way.
"""

import numpy as np

from stbc import (
    build_generators,
    build_rate1_4group,
    extend_full_rate,
    verify_generators,
    verify_theorem1,
)

# ---------------------------------------------------------------------------
# 1. the generators: 2a pairwise anticommuting, anti-Hermitian, unitary
#    n x n matrices for n = 2^a, with entries in {0, +-1, +-j}
# ---------------------------------------------------------------------------
cliff = build_generators(3)
print(f"n = {cliff.n} antennas -> {len(cliff.generators)} generators")
print("second generator:")
print(np.array_str(cliff.generators[1], precision=0))
print(verify_generators(cliff).summary())

# ---------------------------------------------------------------------------
# 2. the rate-1 4-group decodable design: 16 weight matrices, four groups
# ---------------------------------------------------------------------------
design = build_rate1_4group(3)
print(f"\nrate-1 design: {len(design.weights)} weights, rate {design.rate:g}, "
      f"groups of {design.group_size}")
labels = design.labels()
for m, group in enumerate(design.groups):
    print(f"  group {m + 1}: " + ", ".join(labels[i] for i in group))

report = verify_theorem1(design)
print(f"\nnormal-form certification: {'PASS' if report.passed else 'FAIL'}")

# ---------------------------------------------------------------------------
# 3. full-rate extension: layer 2 multiplies the base layer by generator 4,
#    layer 3 by generator 6 (deterministic selection order)
# ---------------------------------------------------------------------------
for layers in (2, 3):
    ext = extend_full_rate(design, layers)
    head = ext.labels()[(layers - 1) * 16]
    print(f"{layers=}: {len(ext.weights)} weights, rate {ext.rate:g}, "
          f"layer-{layers} head weight = {head}")

# the two-antenna special case: the base layer is the classical Alamouti
# array and the second layer is its j-multiple
silver = extend_full_rate(build_rate1_4group(1), 2)
labels = silver.labels()
print(f"\ntwo-antenna two-layer code: layer 1 = {', '.join(labels[:4])}; "
      f"layer 2 = {', '.join(labels[4:])}")
