"""Span recorder installed around the package's layer entry points.

Only the traced run installs it; the program's own files are untouched.
Each wrapped call records a span (name, start, end, parent) in memory and
adds to per-name counters; ``dump`` writes both out when the process ends.
Self time is a span's duration minus the time its child spans cover.
Inclusive time counts only the outermost span of each name, so recursive
calls are not counted twice.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import time

import numpy as np

SPAN_LIMIT = 200_000  # spans kept for the dump; counters keep counting past it


class Tracer:
    def __init__(self, capture_dir=None):
        self.capture_dir = capture_dir
        self.spans = []
        self.dropped = 0
        self.stats = {}  # name -> [calls, inclusive_s, self_s]
        self.counts = {}
        self.maxima = {}
        self._stack = []  # [name, start, child_s]
        self._active = {}  # name -> open spans of that name

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key, value):
        self.maxima[key] = max(self.maxima.get(key, 0), value)

    def wrap(self, name, fn, after=None):
        """A wrapper recording one span per call; ``after(result, args)``
        adds layer-specific counts outside the timed span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            frame = [name, time.perf_counter(), 0.0]
            self._stack.append(frame)
            self._active[name] = self._active.get(name, 0) + 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._active[name] -= 1
                dur = end - frame[1]
                st = self.stats.setdefault(name, [0, 0.0, 0.0])
                st[0] += 1
                if not self._active[name]:
                    st[1] += dur
                st[2] += dur - frame[2]
                if self._stack:
                    self._stack[-1][2] += dur
                if len(self.spans) < SPAN_LIMIT:
                    self.spans.append((name, frame[1], end, parent))
                else:
                    self.dropped += 1
            if after is not None:
                hook = time.perf_counter()
                after(result, args)
                # keep the hook's own cost out of every enclosing span
                shift = time.perf_counter() - hook
                for open_frame in self._stack:
                    open_frame[1] += shift
            return result

        return traced

    def capture(self, mat, p):
        """Store an rref input as sparse triplets, named by content."""
        mat = np.asarray(mat)
        rows, cols = np.nonzero(mat)
        vals = mat[rows, cols]
        digest = hashlib.sha1(
            repr((mat.shape, p)).encode() + rows.tobytes() + cols.tobytes() + vals.tobytes()
        ).hexdigest()[:20]
        path = os.path.join(self.capture_dir, f"{digest}.npz")
        if not os.path.exists(path):
            np.savez(path, shape=np.array(mat.shape), p=np.array(p), rows=rows, cols=cols, vals=vals)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "stats": self.stats,
                    "counts": self.counts,
                    "maxima": self.maxima,
                    "dropped_spans": self.dropped,
                    "spans": self.spans,
                },
                fh,
            )


def install(tracer):
    """Patch each entry point where its callers look it up."""
    from coniveau import _kernels, certificates, charclasses, cli, fp, milnor, parser

    t = tracer

    def patch(owner, attr, name, after=None):
        setattr(owner, attr, t.wrap(name, getattr(owner, attr), after))

    # kernels: nullspace looks rref up as a module global, so one patch covers both
    def after_rref(result, args):
        mat, p = args
        if t.capture_dir is not None and mat.size:
            t.capture(mat, p)
        rows, cols = mat.shape if mat.ndim == 2 else (0, 0)
        t.add("rref_cells", rows * cols)
        t.peak("rref_max_cells", rows * cols)
        t.add("rref_nnz_in", int(np.count_nonzero(mat)))
        t.add("rref_nnz_out", int(np.count_nonzero(result[0])))
        if t._stack and t._stack[-1][0] == "fp._build_degree":
            t.add("macaulay_rows", rows)

    patch(_kernels, "rref", "kernels.rref", after_rref)
    patch(_kernels, "reduce_vector", "kernels.reduce_vector")
    patch(_kernels, "nullspace", "kernels.nullspace")

    # fp
    patch(fp.GradedPresentation, "_degree_data", "fp._degree_data")
    patch(fp.GradedPresentation, "_build_degree", "fp._build_degree")
    patch(fp.GradedPresentation, "_reduce_terms", "fp._reduce_terms")
    patch(fp.Element, "__mul__", "fp.mul")
    patch(fp.Element, "is_zero", "fp.is_zero")
    patch(fp, "in_span", "fp.in_span")

    # milnor: cli imported validate_q_axioms by name
    patch(milnor.QAction, "apply_raw_terms", "milnor.apply_raw_terms")
    validate = t.wrap("milnor.validate_q_axioms", milnor.validate_q_axioms)
    milnor.validate_q_axioms = validate
    cli.validate_q_axioms = validate

    # charclasses
    patch(charclasses.SplitRing, "q_on_w", "charclasses.q_on_w")
    patch(charclasses.SplitRing, "expand_w", "charclasses.expand_w")
    patch(charclasses.SplitRing, "symmetrize_to_w", "charclasses.symmetrize_to_w")

    # certificates: scenario builders and the detection procedures
    for builder in (
        "elementary_abelian",
        "so_odd",
        "g2_scenario",
        "simply_connected",
        "extraspecial_e",
        "extraspecial_d",
        "pgl_module",
    ):
        patch(certificates, builder, "certificates.build")
    patch(cli, "_load_user_scenario", "certificates.build")

    def after_detect(cert, args):
        t.add("certified", int(cert.verdict == certificates.NOT_IN_STRONG_CONIVEAU))

    patch(certificates, "search_witness", "certificates.search_witness")
    patch(certificates, "_detect_candidate", "certificates.detect_candidate", after_detect)
    patch(certificates, "chern_survival", "certificates.chern_survival")
    patch(certificates, "comparison_regular_pair", "certificates.regular_pair")

    # parser, motivic, cli
    parse = t.wrap("parser.parse_presentation", parser.parse_presentation)
    parser.parse_presentation = parse
    cli.parse_presentation = parse
    patch(cli, "quadric_report", "motivic.quadric_report")

    def after_render(text, args):
        t.add("output_bytes", len(text.encode()))

    patch(cli, "_render", "cli.render", after_render)
