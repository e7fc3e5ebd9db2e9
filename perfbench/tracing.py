"""Per-layer tracing from outside the program.

The tracer replaces public functions of the coterie modules by wrappers
(module or class attributes, so calls between the modules go through
them) while a traced job runs, and puts the originals back afterwards.
Each wrapped call records a span (name, start, end, parent, job) in
memory, adds its duration to its parent's child time, and updates the
per-job statistics: calls, total and self seconds, and the named counts
of the layer.  Self time is a span's duration minus the time its child
spans cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from math import comb

from coterie import _backend, arrangement, cli, cone, exactla, faces, rootsys

MAX_SPANS = 2_000_000  # beyond this, statistics continue but spans are not kept


def _solve_counts(args, result, error):
    return {"unique": int(error is None and not result.kernel)}


def _feasible_counts(args, result, error):
    return {"feasible": int(error is None and result.feasible)}


def _fm_counts(args, result, error):
    return {"rows_in": len(args[0]), "rows_out_peak": len(result) if error is None else 0}


def _pairs_counts(args, result, error):
    size = len(args[0])
    return {"pairs": size * size if error is not None or result == -1 else result + 1}


def _vertex_counts(args, result, error):
    cs = args[0]
    subsets = comb(len(cs.system.constraints), cs.rs.rank)
    return {"subsets": subsets, "vertices": 0 if error is not None else len(result)}


def _orbit_polytope_counts(args, result, error):
    return {"orbit_size": 0 if error is not None else len(result)}


def _rays_counts(args, result, error):
    return {"rays": 0 if error is not None else len(result)}


def _orientations_counts(args, result, error):
    return {"count": 0 if error is not None else len(result)}


def _orbit_counts(args, result, error):
    if error is not None:
        return {}
    capped = result.full == arrangement.IMPLICIT
    return {"explored": result.partial_size if capped else len(result.full), "capped": int(capped)}


# (metric prefix, owner object, attribute, counts hook)
TARGETS = (
    ("rootsys.build", rootsys, "build", None),
    ("rootsys.inner", rootsys, "inner", None),
    ("exactla.solve_linear", exactla, "solve_linear", _solve_counts),
    ("exactla.mat_rank", exactla, "mat_rank", None),
    ("exactla.mat_inverse", exactla, "mat_inverse", None),
    ("exactla.mat_vec", exactla, "mat_vec", None),
    ("exactla.ConeSystem.init", exactla.ConeSystem, "__post_init__", None),
    ("exactla.ConeSystem.satisfies", exactla.ConeSystem, "satisfies", None),
    ("exactla.feasible", exactla, "feasible", _feasible_counts),
    ("kernels.eval_rows", _backend.kernels, "eval_rows", None),
    ("kernels.rank_of", _backend.kernels, "rank_of", None),
    ("kernels.fm_step", _backend.kernels, "fm_step", _fm_counts),
    ("kernels.order_pairs_disagree", _backend.kernels, "order_pairs_disagree", _pairs_counts),
    ("cone.inequalities", cone, "inequalities", None),
    ("cone.member", cone, "member", None),
    ("cone.polytope_vertices", cone, "polytope_vertices", _vertex_counts),
    ("cone.orbit_polytope_vertices", cone, "orbit_polytope_vertices", _orbit_polytope_counts),
    ("cone.r_i_general", cone, "r_i_general", None),
    ("cone.general_member_systems", cone, "general_member_systems", None),
    ("cone.general_member", cone, "general_member", None),
    ("faces.face_of", faces, "face_of", None),
    ("faces.extremal_rays", faces, "extremal_rays", _rays_counts),
    ("faces.cube_isomorphism_check", faces, "cube_isomorphism_check", None),
    ("faces.all_orientations", faces, "all_orientations", _orientations_counts),
    ("arrangement.weyl_orbit", arrangement, "weyl_orbit", _orbit_counts),
    ("arrangement.classifying_map", arrangement, "classifying_map", None),
    ("cli.main", cli, "main", None),
)

MAX_STATS = ("rows_out_peak",)


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start_ns, end_ns, parent index or -1, job)
        self.spans_dropped = 0
        self.stats = {}  # job -> metric prefix -> stat -> value
        self._stack = []  # [span index, child ns] per open span
        self._job = None

    def _wrap(self, prefix, fn, counts):
        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else -1
            if len(self.spans) < MAX_SPANS:
                index = len(self.spans)
                self.spans.append(None)
            else:
                index = -1
                self.spans_dropped += 1
            frame = [index, 0]
            self._stack.append(frame)
            result = error = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                if index >= 0:
                    self.spans[index] = (prefix, start, end, parent, self._job)
                stat = self.stats.setdefault(self._job, {}).setdefault(prefix, {})
                stat["calls"] = stat.get("calls", 0) + 1
                stat["s"] = stat.get("s", 0.0) + duration / 1e9
                stat["self_s"] = stat.get("self_s", 0.0) + (duration - frame[1]) / 1e9
                if counts is not None:
                    for key, value in counts(args, result, error).items():
                        if key in MAX_STATS:
                            stat[key] = max(stat.get(key, 0), value)
                        else:
                            stat[key] = stat.get(key, 0) + value

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def recording(self, job: str):
        """Trace every call made while the block runs, attributed to job."""
        originals = []
        for prefix, owner, attr, counts in TARGETS:
            fn = owner.__dict__[attr]
            originals.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(prefix, fn, counts))
        self._job = job
        try:
            yield
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)
            self._job = None
            self._stack.clear()
