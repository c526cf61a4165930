"""End-to-end and per-layer benchmark for the coniveau CLI and library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nothing is installed or compiled.
Every command runs in a fresh child process (``child.py``), one at a time,
exactly as a user would run it, and every output is checked against closed
forms or independent computations (``checks.py``).  A pass is one round of
the workload's commands; the run repeats whole passes until S seconds have
gone by, so it can overrun S by up to one pass.

--trace 0 prints the end-to-end metrics: work_s (median over passes of the
time spent inside the commands, summed over a pass), setup_s (median over
every process of the time from spawn until the package is imported) and
peak_rss_mb (median over passes of the largest peak RSS in the pass).

--trace 1 runs one plain pass, then one traced pass with span recording and
matrix capture, then replays the captured matrices; it prints the
per-layer metrics and the tracing overhead.

The last line of standard output is the JSON result; the lines before it
are information (kernel, report hash, layer shares).
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

import checks
import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_runs")
CHILD_TIMEOUT = 150

# sha256 of `coniveau report --all` at the commit that defined this benchmark
GOLDEN_REPORT = "eb010dc1fd7b9f2dacc685050c8fad228301d5860211b566ae0fcd7b4dee9b45"


# -- operations ------------------------------------------------------------------


class Op:
    """One command in a fresh process plus the checks on its output."""

    def __init__(self, label, argv, check, kind="cli"):
        self.label = label
        self.argv = argv
        self.check = check
        self.kind = kind


def cli(cmdline, check):
    return Op(cmdline, cmdline.split(), check)


def _json_check(fn):
    def check(stdout, code):
        try:
            body = json.loads(stdout)
        except ValueError:
            return [f"output is not JSON (exit {code})"]
        return checks.check_exit(body, code) or fn(body)

    return check


def _family(name):
    """'elementary(p=2,n=3)' -> ('elementary', {'p': 2, 'n': 3})."""
    if "(" not in name:
        return name, {}
    family, rest = name.split("(", 1)
    return family, {k: int(v) for k, v in (kv.split("=") for kv in rest.rstrip(")").split(","))}


def check_section(sec):
    """Independent checks on one scenario section of `report --all`."""
    family, par = _family(sec["scenario"]["name"])
    p = sec["scenario"]["prime"]
    verify = sec["verify"]
    hilbert = sec.get("hilbert")
    cap = len(hilbert) - 1 if hilbert is not None else None
    if family == "elementary":
        n = par["n"]
        return (
            checks.check_certificate(verify, p, degree=n + 1)
            + checks.check_elementary_table(sec["dh_table"], p, n)
            + checks.check_elementary_stable(sec["stable_quotient"], n)
            + checks.check_series(hilbert, checks.elementary_series(p, n, cap), sec["scenario"]["name"])
        )
    if family == "so":
        m = par["m"]
        return (
            checks.check_certificate(verify, 2, degree=3)
            + checks.check_so_table(sec["dh_table"], m)
            + checks.check_so_stable(sec["stable_quotient"], m)
            + checks.check_series(hilbert, checks.series(cap, range(2, 2 * m + 2)), f"so(m={m})")
        )
    if family == "g2":
        problems = checks.check_g2_certificate(verify)
        for row in sec["dh_table"]["rows"]:
            if row["certificate"]["verdict"] == checks.CERTIFIED:
                problems += checks.check_g2_certificate(row["certificate"])
        return problems + checks.check_series(hilbert, checks.series(cap, (4, 6, 7)), "g2")
    if family == "extraspecial-d":
        n = par["n"]
        return (
            checks.check_certificate(verify, 2, degree=3)
            + checks.check_lower_bound_table(sec["dh_table"], 2)
            + checks.check_series(hilbert, checks.quillen_series(n, cap), sec["scenario"]["name"])
        )
    if family == "extraspecial-e":
        return (
            checks.check_certificate(verify, p, degree=3)
            + checks.check_lower_bound_table(sec["dh_table"], p)
            + checks.check_extraspecial_e_low(hilbert, par["n"])
        )
    if family == "pgl":
        return checks.check_pgl(verify, p)
    if family == "simply-connected":
        problems = checks.check_certificate(verify, p, degree=4)
        if p == 2 and verify["value"] != "w7":
            problems.append(f"simply-connected p=2: value {verify['value']} != w7 (the g2 value)")
        return problems
    return [f"unexpected section {sec['scenario']['name']}"]


def check_report(body):
    problems = []
    if body["status"] != "ok" or body["failures"]:
        problems.append(f"report status {body['status']}: {body['failures']}")
    families = set()
    for sec in body["sections"]:
        families.add(_family(sec["scenario"]["name"])[0])
        problems += [f"{sec['scenario']['name']}: {m}" for m in check_section(sec)]
    want = {"elementary", "so", "g2", "simply-connected", "extraspecial-e", "extraspecial-d", "pgl"}
    if families != want:
        problems.append(f"report families {sorted(families)}")
    pair = body["extraspecial_checks"]["regular_pair"]
    problems += checks.check_series(pair["quotient_series"], checks.regular_pair_series(40), "regular pair")
    if pair["verdict"] != "regular up to degree 40":
        problems.append(f"regular pair: {pair['verdict']}")
    quadrics = body["quadrics"]
    if [q["n"] for q in quadrics] != [2, 3, 4]:
        problems.append("report quadrics are not n = 2, 3, 4")
    for q in quadrics:
        problems += checks.check_quadric(q, q["n"])
    return problems


def check_list(body):
    problems = []
    families = {_family(s["name"])[0] for s in body["scenarios"]}
    want = {"elementary", "so", "g2", "simply-connected", "extraspecial-e", "extraspecial-d", "pgl"}
    if families != want:
        problems.append(f"list families {sorted(families)}")
    for s in body["scenarios"]:
        if s["prime"] not in (2, 3, 5):
            problems.append(f"{s['name']}: prime {s['prime']}")
    if len({s["hash"] for s in body["scenarios"]}) != len(body["scenarios"]):
        problems.append("two listed scenarios share a hash")
    return problems


def check_regular_pair(cap):
    def check(stdout, code):
        if code != 0:
            return [f"exit code {code}"]
        body = json.loads(stdout)
        problems = checks.check_series(body["quotient_series"], checks.regular_pair_series(cap), f"regular pair cap {cap}")
        if not body["regular"] or body["degrees"] != [8, 20]:
            problems.append(f"regular pair cap {cap}: regular={body['regular']} degrees={body['degrees']}")
        return problems

    return check


def check_qop_pair(p):
    """qop --I 0,1 on x1*x2 in the rank-2 elementary ring."""

    def check(body):
        names = ["y1", "y2", "x1", "x2"]
        first = checks.parse_poly(body["qop"]["intermediates"][0], names, p)
        value = checks.parse_poly(body["qop"]["value"], names, p)
        problems = []
        if first != {(1, 0, 0, 1): 1, (0, 1, 1, 0): p - 1}:
            problems.append(f"Q0(x1*x2) = {body['qop']['intermediates'][0]}")
        if value != checks.elementary_q1q0_pair(p):
            problems.append(f"Q1Q0(x1*x2) = {body['qop']['value']}")
        return problems

    return check


def check_user_verify(p, n):
    def check(body):
        cert = body["certificate"]
        problems = checks.check_certificate(cert, p, degree=3)
        names = [f"y{i}" for i in range(1, n + 1)] + [f"x{i}" for i in range(1, n + 1)]
        want = {}
        for exps, c in checks.elementary_q1q0_pair(p).items():
            want[exps[:2] + (0,) * (n - 2) + exps[2:] + (0,) * (n - 2)] = c
        if not problems and checks.parse_poly(cert["value"], names, p) != want:
            problems.append(f"user file p={p}: Q1(alpha) = {cert['value']}")
        return problems

    return check


def _hilbert(want, what):
    return lambda body: checks.check_series(body["hilbert"]["dimensions"], want, what)


def _table(fn):
    return lambda body: fn(body["dh_table"])


def _cert(fn):
    return lambda body: fn(body["certificate"])


def reproduce_ops(run_dir, seed):
    return [cli("report --all", _json_check(check_report))]


def splitting_ops(run_dir, seed):
    return [
        cli("list", _json_check(check_list)),
        cli("verify g2 --I 1", _json_check(_cert(checks.check_g2_certificate))),
        cli("dh-table so --m 3", _json_check(_table(lambda t: checks.check_so_table(t, 3)))),
        cli("dh-table so --m 4", _json_check(_table(lambda t: checks.check_so_table(t, 4)))),
        cli("qop so --m 4 --I 0 --element w2+w4+w6+w8", _json_check(lambda b: checks.check_wu(b["qop"], 4))),
    ]


def macaulay_ops(run_dir, seed):
    ops = [Op(f"regular-pair 3 {cap}", ["3", str(cap)], check_regular_pair(cap), kind="regular-pair") for cap in (40, 44)]
    for n, cap in ((2, 12), (3, 8)):
        ops.append(cli(
            f"hilbert extraspecial-d --n {n} --cap {cap}",
            _json_check(_hilbert(checks.quillen_series(n, cap), f"extraspecial-d n={n}")),
        ))
    return ops


def interactive_ops(run_dir, seed):
    ops = []
    for p, n in ((3, 3), (2, 3)):
        ops.append(cli(f"verify elementary --p {p} --n {n}", _json_check(_cert(lambda c, p=p, n=n: checks.check_certificate(c, p, degree=n + 1)))))
    for p, n in ((2, 3), (2, 4), (3, 3), (5, 3)):
        ops.append(cli(f"dh-table elementary --p {p} --n {n}", _json_check(_table(lambda t, p=p, n=n: checks.check_elementary_table(t, p, n)))))
    ops.append(cli("dh-table extraspecial-e --n 2 --p 3", _json_check(_table(lambda t: checks.check_lower_bound_table(t, 3)))))
    ops.append(cli("dh-table extraspecial-d --n 2", _json_check(_table(lambda t: checks.check_lower_bound_table(t, 2)))))
    for p, n in ((3, 3), (2, 4)):
        ops.append(cli(f"stable-quotient elementary --p {p} --n {n}", _json_check(lambda b, n=n: checks.check_elementary_stable(b["stable_quotient"], n))))
    for m in (2, 3):
        ops.append(cli(f"stable-quotient so --m {m}", _json_check(lambda b, m=m: checks.check_so_stable(b["stable_quotient"], m))))
    ops.append(cli("hilbert extraspecial-e --n 2 --cap 8", _json_check(lambda b: checks.check_extraspecial_e_low(b["hilbert"]["dimensions"], 2))))
    ops.append(cli("hilbert extraspecial-d --n 2 --cap 10", _json_check(_hilbert(checks.quillen_series(2, 10), "extraspecial-d n=2"))))
    ops.append(cli("hilbert elementary --p 3 --n 3 --cap 12", _json_check(_hilbert(checks.elementary_series(3, 3, 12), "elementary p=3 n=3"))))
    for p in (3, 5):
        ops.append(cli(f"qop elementary --p {p} --n 2 --I 0,1 --element x1*x2", _json_check(check_qop_pair(p))))
        ops.append(cli(f"verify simply-connected --p {p}", _json_check(_cert(lambda c, p=p: checks.check_certificate(c, p, degree=4)))))
        ops.append(cli(f"verify pgl --p {p}", _json_check(_cert(lambda c, p=p: checks.check_pgl(c, p)))))
    ops.append(cli("dh-table pgl --p 3", _json_check(lambda b: checks.check_pgl(b["dh_table"]["rows"][0]["certificate"], 3))))
    ops.append(cli("verify extraspecial-e --n 2 --p 3", _json_check(_cert(lambda c: checks.check_certificate(c, 3, degree=3)))))
    ops.append(cli("verify extraspecial-d --n 2", _json_check(_cert(lambda c: checks.check_certificate(c, 2, degree=3)))))
    for n in range(2, 9):
        ops.append(cli(f"rost --n {n}", _json_check(lambda b, n=n: checks.check_quadric(b, n))))
    for (name, p, n, _, _, exterior, cap), text, want in inputs.user_files(seed):
        with open(os.path.join(run_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
        ops.append(cli(f"hilbert {name} --cap {cap}", _json_check(_hilbert(want, name))))
        if exterior:
            ops.append(cli(f"verify {name} --element alpha --I 1", _json_check(check_user_verify(p, n))))
    return ops


WORKLOADS = {
    "reproduce": reproduce_ops,
    "splitting": splitting_ops,
    "macaulay": macaulay_ops,
    "interactive": interactive_ops,
}


# -- running -----------------------------------------------------------------------


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("CONIVEAU_")}
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_op(op, run_dir, tag, trace_dir=None, capture_dir=None):
    """Run one op in a fresh process; returns a record with timings and problems."""
    result = os.path.join(run_dir, f"{tag}.result.json")
    argv = [sys.executable, os.path.join(HERE, "child.py"), result]
    if trace_dir is not None:
        argv += ["--trace", os.path.join(trace_dir, f"{tag}.trace.json"), "--capture", capture_dir]
    argv += [op.kind] + op.argv
    spawn = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=run_dir, env=child_env(), capture_output=True, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        return {"label": op.label, "problems": [f"timed out after {CHILD_TIMEOUT} s"]}
    try:
        with open(result, encoding="utf-8") as fh:
            rec = json.load(fh)
    except (OSError, ValueError):
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return {"label": op.label, "problems": [f"process died (exit {proc.returncode}): {tail}"]}
    rec["label"] = op.label
    rec["setup_s"] = rec["ready"] - spawn
    rec["stdout"] = proc.stdout
    try:
        rec["problems"] = op.check(proc.stdout.decode(), proc.returncode)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        rec["problems"] = [f"output lacks an expected field: {exc!r}"]
    return rec


def run_pass(ops, run_dir, tag, trace_dir=None, capture_dir=None):
    return [run_op(op, run_dir, f"{tag}-{k:02d}", trace_dir, capture_dir) for k, op in enumerate(ops)]


def pass_work(records):
    return sum(r.get("work_s", 0.0) for r in records)


def pass_rss_mb(records):
    return max(r.get("maxrss_kb", 0) for r in records) / 1024.0


def failures(records):
    return [r for r in records if r["problems"]]


def print_info(workload, records):
    kernel = {r["backend"] for r in records if "backend" in r}
    if kernel:
        print(f"kernel: {', '.join(sorted(kernel))}")
    for r in records:
        if r["label"] == "report --all" and "stdout" in r:
            digest = hashlib.sha256(r["stdout"]).hexdigest()
            verdict = "matches" if digest == GOLDEN_REPORT else "differs from"
            print(f"report sha256 {digest} {verdict} the recorded reference {GOLDEN_REPORT[:8]}...{GOLDEN_REPORT[-3:]} (information only)")
            break
    for r in failures(records):
        print(f"FAILED {workload}: {r['label']}: {'; '.join(r['problems'][:3])}")


def timed_run(ops, run_dir, seconds):
    """Whole passes until the budget is used up (at least one)."""
    passes = []
    begin = time.monotonic()
    while not passes or time.monotonic() - begin < seconds:
        passes.append(run_pass(ops, run_dir, f"p{len(passes)}"))
    return passes


def end_to_end(passes):
    setups = [r["setup_s"] for records in passes for r in records if "setup_s" in r]
    return {
        "work_s": {"value": statistics.median(pass_work(p) for p in passes), "unit": "s"},
        "setup_s": {"value": statistics.median(setups) if setups else 0.0, "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(pass_rss_mb(p) for p in passes), "unit": "MiB"},
    }


# -- the traced run --------------------------------------------------------------------

LAYERS = ("kernels", "fp", "charclasses", "milnor", "certificates", "motivic", "parser", "cli")


def load_traces(trace_dir):
    stats, counts, maxima = {}, {}, {}
    for name in sorted(os.listdir(trace_dir)):
        with open(os.path.join(trace_dir, name), encoding="utf-8") as fh:
            t = json.load(fh)
        for key, (calls, incl, self_s) in t["stats"].items():
            agg = stats.setdefault(key, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += incl
            agg[2] += self_s
        for key, v in t["counts"].items():
            counts[key] = counts.get(key, 0) + v
        for key, v in t["maxima"].items():
            maxima[key] = max(maxima.get(key, 0), v)
    return stats, counts, maxima


def per_layer(stats, counts, maxima, plain, traced, replay):
    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def incl(name):
        return stats.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return stats.get(name, [0, 0.0, 0.0])[2]

    lookups = calls("fp._degree_data")
    tried = calls("certificates.detect_candidate")
    plain_work, traced_work = pass_work(plain), pass_work(traced)
    records = plain + traced
    values = {
        "kernels.rref_calls": (calls("kernels.rref"), "count"),
        "kernels.rref_s": (incl("kernels.rref"), "s"),
        "kernels.rref_cells": (counts.get("rref_cells", 0), "cells"),
        "kernels.rref_max_cells": (maxima.get("rref_max_cells", 0), "cells"),
        "kernels.rref_nnz_in": (counts.get("rref_nnz_in", 0), "count"),
        "kernels.rref_nnz_out": (counts.get("rref_nnz_out", 0), "count"),
        "kernels.reduce_vector_calls": (calls("kernels.reduce_vector"), "count"),
        "kernels.reduce_vector_s": (incl("kernels.reduce_vector"), "s"),
        "kernels.nullspace_calls": (calls("kernels.nullspace"), "count"),
        "kernels.nullspace_s": (incl("kernels.nullspace"), "s"),
        "kernels.replay_s": (replay.get("replay_s", 0.0), "s"),
        "kernels.replay_largest_s": (replay.get("replay_largest_s", 0.0), "s"),
        "fp.degree_lookups": (lookups, "count"),
        "fp.degree_builds": (calls("fp._build_degree"), "count"),
        "fp.degree_hit_ratio": (1.0 - calls("fp._build_degree") / lookups if lookups else 0.0, "ratio"),
        "fp.build_degree_s": (incl("fp._build_degree"), "s"),
        "fp.macaulay_build_s": (self_s("fp._build_degree"), "s"),
        "fp.macaulay_rows": (counts.get("macaulay_rows", 0), "count"),
        "fp.reduce_terms_calls": (calls("fp._reduce_terms"), "count"),
        "fp.reduce_terms_s": (incl("fp._reduce_terms"), "s"),
        "fp.mul_calls": (calls("fp.mul"), "count"),
        "fp.mul_s": (incl("fp.mul"), "s"),
        "fp.is_zero_calls": (calls("fp.is_zero"), "count"),
        "fp.in_span_calls": (calls("fp.in_span"), "count"),
        "fp.in_span_s": (incl("fp.in_span"), "s"),
        "charclasses.q_on_w_calls": (calls("charclasses.q_on_w"), "count"),
        "charclasses.q_on_w_s": (incl("charclasses.q_on_w"), "s"),
        "charclasses.expand_s": (incl("charclasses.expand_w"), "s"),
        "charclasses.symmetrize_s": (incl("charclasses.symmetrize_to_w"), "s"),
        "milnor.apply_calls": (calls("milnor.apply_raw_terms"), "count"),
        "milnor.apply_s": (incl("milnor.apply_raw_terms"), "s"),
        "milnor.validate_s": (incl("milnor.validate_q_axioms"), "s"),
        "certificates.build_s": (incl("certificates.build"), "s"),
        "certificates.sequences_tried": (tried, "count"),
        "certificates.certified": (counts.get("certified", 0), "count"),
        "certificates.witness_yield": (counts.get("certified", 0) / tried if tried else 0.0, "ratio"),
        "certificates.search_witness_s": (incl("certificates.search_witness"), "s"),
        "certificates.chern_survival_calls": (calls("certificates.chern_survival"), "count"),
        "certificates.chern_survival_s": (incl("certificates.chern_survival"), "s"),
        "certificates.regular_pair_s": (incl("certificates.regular_pair"), "s"),
        "motivic.quadric_s": (incl("motivic.quadric_report"), "s"),
        "parser.parse_calls": (calls("parser.parse_presentation"), "count"),
        "parser.parse_s": (incl("parser.parse_presentation"), "s"),
        "cli.render_s": (incl("cli.render"), "s"),
        "cli.output_bytes": (counts.get("output_bytes", 0), "bytes"),
        "setup.numpy_import_s": (statistics.median(r["numpy_import_s"] for r in records if "numpy_import_s" in r), "s"),
        "setup.package_import_s": (statistics.median(r["package_import_s"] for r in records if "package_import_s" in r), "s"),
        "trace.untraced_work_s": (plain_work, "s"),
        "trace.traced_work_s": (traced_work, "s"),
        "trace.overhead_pct": (100.0 * (traced_work / plain_work - 1.0) if plain_work else 0.0, "%"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def layer_shares(stats, traced_work):
    """Self time per layer as a share of the traced pass's work_s."""
    shares = {layer: 0.0 for layer in LAYERS}
    for name, (_, _, self_s) in stats.items():
        shares[name.split(".", 1)[0]] += self_s
    shares["other"] = traced_work - sum(shares.values())
    return {k: v / traced_work for k, v in shares.items()} if traced_work else shares


def check_trace_outputs(plain, traced):
    """Tracing must not change a single output byte."""
    for a, b in zip(plain, traced):
        if "stdout" in a and "stdout" in b and a["stdout"] != b["stdout"]:
            b["problems"] = b["problems"] + ["output changed under tracing"]


def run_replay(capture_dir, run_dir):
    argv = [sys.executable, os.path.join(HERE, "replay.py"), capture_dir]
    try:
        proc = subprocess.run(argv, cwd=run_dir, env=child_env(), capture_output=True, timeout=CHILD_TIMEOUT)
        body = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    except (subprocess.TimeoutExpired, ValueError, IndexError):
        return {"label": "replay", "problems": ["kernel replay did not complete"]}, {}
    problems = body["problems"] if proc.returncode == 0 else [f"replay exit {proc.returncode}"]
    rec = {"label": f"replay {body['matrices']} matrices", "problems": problems, "backend": body["backend"]}
    return rec, body


def traced_run(ops, run_dir):
    plain = run_pass(ops, run_dir, "plain")
    trace_dir = os.path.join(run_dir, "traces")
    capture_dir = os.path.join(run_dir, "matrices")
    for d in (trace_dir, capture_dir):
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
    traced = run_pass(ops, run_dir, "traced", trace_dir, capture_dir)
    check_trace_outputs(plain, traced)
    replay_rec, replay = run_replay(capture_dir, run_dir)
    shutil.rmtree(capture_dir, ignore_errors=True)
    stats, counts, maxima = load_traces(trace_dir)
    metrics = per_layer(stats, counts, maxima, plain, traced, replay)
    shares = layer_shares(stats, pass_work(traced))
    print("layer shares of traced work_s (self time): " + ", ".join(f"{k} {100 * v:.1f}%" for k, v in shares.items()))
    if replay:
        print(f"kernel replay: {replay['matrices']} distinct matrices, largest {replay['largest_shape']} in {replay['replay_largest_s']:.4f} s")
    return plain + traced + [replay_rec], metrics


# -- entry point ------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "coniveau", "cli.py")):
        print(f"no coniveau sources under {SRC}: run from the root of a source checkout", file=sys.stderr)
        return 2

    run_dir = os.path.join(OUT, f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    ops = WORKLOADS[args.workload](run_dir, args.seed)
    random.Random(args.seed).shuffle(ops)  # the seed orders the commands

    if args.trace:
        records, metrics = traced_run(ops, run_dir)
    else:
        passes = timed_run(ops, run_dir, args.seconds)
        records = [r for p in passes for r in p]
        metrics = end_to_end(passes)
        print(f"passes: {len(passes)}, work_s per pass: " + ", ".join(f"{pass_work(p):.3f}" for p in passes))
    print_info(args.workload, records)
    failed = len(failures(records))
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
