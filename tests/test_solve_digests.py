"""Golden digests of the solve pipeline on the L-shape.

The reduced stiffness, the nodal solution and the averaged flux are pinned
bit for bit by sha256, the residual norm by its repr.  The defect norm is
pinned to 1e-15 relative: its per-triangle contraction may be reordered.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from fria.fem import solve_diffusion
from fria.flux import defect_norm, residual_norm, rt_average
from fria.mesh import build_lshape
from fria.weights import DiagonalWeight, FullWeight

DIGESTS = Path(__file__).with_name("solve_digests.json")
WEIGHTS = {
    "diag(1,1e-4)": DiagonalWeight((1.0, 1e-4)),
    "full(2,0.5,1)": FullWeight(((2.0, 0.5), (0.5, 1.0))),
}
CASES = [(name, level) for name in WEIGHTS for level in range(5)]


def sha(array):
    """"dtype shape sha256" of an array's bytes."""
    array = np.ascontiguousarray(array)
    return f"{array.dtype} {array.shape} {hashlib.sha256(array.tobytes()).hexdigest()}"


def solve_record(mesh, alpha):
    k = mesh.dirichlet.stiffness(alpha)[1]
    solution = solve_diffusion(mesh, alpha, 1.0)
    field = rt_average(solution, alpha)
    return {
        "stiffness": [sha(k.data), sha(k.indices), sha(k.indptr)],
        "values": sha(solution.values),
        "rt_dofs": sha(field.dofs),
        "residual_norm": repr(residual_norm(field, 1.0)),
        "defect_norm": repr(defect_norm(field, solution, alpha)),
    }


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS.read_text())


@pytest.mark.parametrize("name,level", CASES, ids=lambda v: str(v))
def test_solve_matches_recorded_digest(recorded, mesh_cache, name, level):
    got = solve_record(mesh_cache("lshape", level), WEIGHTS[name])
    want = recorded[f"{name}:L{level}"]
    defect, want_defect = float(got.pop("defect_norm")), float(want.pop("defect_norm"))
    assert got == want
    assert defect == pytest.approx(want_defect, rel=1e-15, abs=0.0)


if __name__ == "__main__":
    # re-record after an intended change of the assembly or the solve:
    # PYTHONPATH=src python tests/test_solve_digests.py  (from the repository root)
    records = {
        f"{name}:L{level}": solve_record(build_lshape(level), WEIGHTS[name])
        for name, level in CASES
    }
    DIGESTS.write_text(json.dumps(records, indent=1) + "\n")
    print(f"recorded {len(records)} solves in {DIGESTS}")
