"""The names the benchmark's tracer patches still exist and are still reached.

``perfbench/tracer.py`` wraps package entry points by attribute name, and the
family table must look its builders up at call time for those wrappers to
count.  The tracer's ``macaulay_rows`` counts the rows of each call of the
module attribute ``_kernels.rref`` whose innermost traced caller is
``GradedPresentation._build_degree``: since the degreewise Groebner basis
replaced the Macaulay matrices, those are the rows of the S-pair matrices
(relations, S-pair halves and reducer rows u * g).  The detection layer is
counted through ``search_witness``, ``_detect_candidate``, ``chern_survival``
and the span test ``fp.in_span`` that ``chern_survival`` calls through the
module attribute.  A rename, a deletion, an early-bound builder, ``rref``
or detection call, an ``rref`` call moved out of ``_build_degree``, or a
change in the S-pairs the criteria keep would otherwise show only in a
traced benchmark run.  The run happens in a fresh interpreter so the
patches never leak into the other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import contextlib, io, json, sys
sys.path[:0] = [{src!r}, {bench!r}]
from tracer import Tracer, install
import coniveau
from coniveau import cli

tracer = Tracer()
install(tracer)
result = {{"backend": coniveau.backend_name()}}
for name, argv in (("verify", ["verify", "pgl", "--p", "3"]), ("list", ["list"])):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    result[name] = {{
        "code": code,
        "builds": tracer.stats.get("certificates.build", [0])[0],
        "renders": tracer.stats.get("cli.render", [0])[0],
    }}
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["hilbert", "extraspecial-d", "--n", "2", "--cap", "8"])
result["hilbert"] = {{
    "code": code,
    "degree_builds": tracer.stats.get("fp._build_degree", [0])[0],
    "rref_calls": tracer.stats.get("kernels.rref", [0])[0],
    "macaulay_rows": tracer.counts.get("macaulay_rows", 0),
}}
DETECTION = ("certificates.search_witness", "certificates.detect_candidate",
             "certificates.chern_survival", "fp.in_span")
for name, argv in (("elementary", ["dh-table", "elementary", "--p", "3", "--n", "3"]),
                   ("simply_connected", ["dh-table", "simply-connected", "--p", "2"])):
    before = [tracer.stats.get(k, [0])[0] for k in DETECTION] + [tracer.counts.get("certified", 0)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    after = [tracer.stats.get(k, [0])[0] for k in DETECTION] + [tracer.counts.get("certified", 0)]
    result[name] = {{"code": code, "counts": [b - a for a, b in zip(before, after)]}}
print(json.dumps(result))
"""


def test_traced_cli_run_counts_builders_and_renders():
    code = SCRIPT.format(src=str(ROOT / "src"), bench=str(ROOT / "perfbench"))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert isinstance(result["backend"], str)
    verify, listing = result["verify"], result["list"]
    assert verify["code"] == 0 and listing["code"] == 0
    # `verify pgl` builds one scenario through the patched pgl_module
    assert verify["builds"] == 1 and verify["renders"] == 1
    # `list` builds every canonical instance, each through its patched builder
    assert listing["builds"] > verify["builds"] + 16 and listing["renders"] == 2
    # the S-pair matrices of a quotient reach rref from inside _build_degree,
    # where the tracer counts their rows
    hilbert = result["hilbert"]
    assert hilbert["code"] == 0
    assert hilbert["degree_builds"] > 0 and hilbert["rref_calls"] > 0
    # the 3-element truncated basis of the degree-8 page takes 11 S-pair
    # matrix rows, where the Macaulay matrices had 356
    assert hilbert["macaulay_rows"] == 11
    # [search_witness, detect_candidate, chern_survival, in_span, certified]:
    # one search, one sequence and one Chern test per elementary candidate,
    # and one span test for the degree whose Chern span is nonempty; a
    # restriction scenario searches its target once and wraps the result
    assert result["elementary"] == {"code": 0, "counts": [4, 4, 4, 1, 4]}
    assert result["simply_connected"] == {"code": 0, "counts": [2, 1, 1, 0, 1]}
