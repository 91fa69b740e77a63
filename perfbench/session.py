"""One benchmark session in a fresh interpreter; prints one JSON line.

Usage: python3 perfbench/session.py '<json spec>'

The spec names the workload, the seed and a mode:

- ``setup``: import hecke2d and generate the inputs, nothing else;
- ``pass``: set up, then run every op once with tracing off;
- ``traced``: the same pass with spans recorded (see spans.py);
- ``control``: the negative control, run with the table perturbed;
- ``baseline``: the layer baselines listed in ROADMAP item 1.

A fresh interpreter per session means the ``_basis_product`` LRU cache and
the import cost start cold every time, as they do for a ``hecke2d`` user.
"""

import time

_T0 = time.perf_counter()

import bisect  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
CAL_LOOP = 200
CAL_EVERY_S = 0.05
CAL_NEAREST = 4  # samples each side of an op, about 0.2 s
SETUP_CAL_SAMPLES = 5
#: seconds of one calibrate() call at the reference speed, which loop and
#: set-up times are reported at (see README.md, "Reference speed")
REF_CALIBRATION_S = 0.0025


def _import_hecke2d():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import hecke2d

    if Path(hecke2d.__file__).resolve().parent != src / "hecke2d":
        raise SystemExit(f"imported hecke2d from {hecke2d.__file__}, not from {src}")
    return hecke2d


def canonical(obj) -> str:
    """A text form of an op's output that reads no wrapped hecke2d function."""
    if hasattr(obj, "rows"):  # HeckeElement
        rows = []
        for key, series in obj.rows:
            for s in series.strips:
                terms = [(t.e, [canonical(c) for c in t.poly.coeffs]) for t in s.terms]
                rows.append((tuple(key), s.lo, s.hi, terms))
        return repr(rows)
    if hasattr(obj, "num") and hasattr(obj, "den"):  # Coeff
        return repr((obj.num, obj.den))
    if isinstance(obj, (list, tuple)):
        return "(" + ",".join(canonical(x) for x in obj) + ")"
    return repr(obj)


def calibrate() -> float:
    """Seconds for a fixed pure-Python kernel: one sample of the machine's speed.

    The kernel mixes tuple polynomial products and dict rebuilds, the kinds of
    work in hecke2d's hot loops, so it slows down with them when the host
    does; it calls nothing in hecke2d.
    """
    t = time.perf_counter()
    acc = {}
    for r in range(CAL_LOOP):
        a = tuple(range(r % 5, r % 5 + 8))
        out = [0] * 15
        for i, x in enumerate(a):
            for j, y in enumerate(a):
                out[i + j] += x * y
        acc[(r % 53, r % 31)] = tuple(out)
        if r % 7 == 0:
            acc = {k: v for k, v in acc.items() if v[0] % 3}
    return time.perf_counter() - t


def run_ops(ops, tracer=None) -> dict:
    """Run and check every op once.

    Between ops, at most every CAL_EVERY_S, the machine's speed is sampled
    with calibrate(); sampling time is left out of the loop's wall.  Each op's
    time is also given at the reference speed: divided by its slowdown, the
    mean of the nearest samples over REF_CALIBRATION_S.  Ops that return
    workloads.KNOWN_DEFECT are tallied in ``defects``, not in ``failures``.
    """
    from workloads import KNOWN_DEFECT

    times, starts, failures, defects, slow, slow_at = [], [], {}, {}, [], []
    digest = hashlib.sha256()
    loop_start = last_cal = time.perf_counter()
    for op_id, op in enumerate(ops):
        if tracer is not None:
            tracer.set_op(op_id)
        t = time.perf_counter()
        try:
            ok, output = op.run()
        except Exception as exc:  # a raising op is a failed op, not a failed run
            ok, output = False, f"{type(exc).__name__}: {exc}"
        done = time.perf_counter()
        times.append(done - t)
        starts.append(t)
        if done - last_cal >= CAL_EVERY_S:
            slow_at.append(done)
            slow.append(calibrate() / REF_CALIBRATION_S)
            last_cal = time.perf_counter()
        if ok == KNOWN_DEFECT:
            defects[op.kind] = defects.get(op.kind, 0) + 1
        elif not ok:
            failures[op.kind] = failures.get(op.kind, 0) + 1
        digest.update(canonical(output).encode())
        digest.update(b"\2" if ok == KNOWN_DEFECT else b"\0" if ok else b"\1")
    wall = time.perf_counter() - loop_start - REF_CALIBRATION_S * sum(slow)
    if not slow:
        slow_at.append(time.perf_counter())
        slow.append(calibrate() / REF_CALIBRATION_S)
    ref_times = []
    for t, start in zip(times, starts):
        i = bisect.bisect(slow_at, start)
        near = slow[max(0, i - CAL_NEAREST): i + CAL_NEAREST]
        ref_times.append(t * len(near) / sum(near))
    return {
        "wall_s": wall,
        "slowdown": sum(slow) / len(slow),
        "ref_times": ref_times,
        "attempted": len(ops),
        "kinds": {kind: sum(op.kind == kind for op in ops) for kind in {op.kind for op in ops}},
        "failures": failures,
        "defects": defects,
        "digest": digest.hexdigest(),
    }


def _timed_at_reference(fn) -> float:
    """Seconds fn() takes, divided by the slowdown sampled just before and after."""
    before = calibrate() + calibrate()
    t = time.perf_counter()
    fn()
    elapsed = time.perf_counter() - t
    after = calibrate() + calibrate()
    return elapsed * 4 * REF_CALIBRATION_S / (before + after)


def _baselines(hk) -> dict:
    """ROADMAP item 1 layer baselines, each timed once in this fresh session."""
    out = {}
    for k in (2, 3, 4):
        out[f"baseline.theta_monomial.k{k}.s"] = _timed_at_reference(
            lambda: hk.theta_monomial(-k, -k)
        )
    for q in (2, 3, 5):
        for k in (0, 1, 2):
            out[f"baseline.product_counts.q{q}.k{k}.s"] = _timed_at_reference(
                lambda: hk.product_counts((1, 1, 0), (1, -k, 0), q)
            )
    return out


def main() -> None:
    spec = json.loads(sys.argv[1])
    hk = _import_hecke2d()
    import workloads

    if spec["mode"] == "baseline":
        print(json.dumps({"metrics": _baselines(hk)}))
        return
    perturbation = workloads.FLIP if spec["mode"] == "control" else None
    ops = workloads.WORKLOADS[spec["workload"]](spec["seed"], perturbation)
    result = {"setup_s": time.perf_counter() - _T0}
    result["setup_slowdown"] = sum(calibrate() for _ in range(SETUP_CAL_SAMPLES)) / (
        SETUP_CAL_SAMPLES * REF_CALIBRATION_S
    )
    if spec["mode"] == "setup":
        print(json.dumps(result))
        return
    tracer = None
    if spec["mode"] == "traced":
        import spans

        tracer = spans.Tracer()
        tracer.install()
    result.update(run_ops(ops, tracer))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cache = hk.product._basis_product.cache_info()
    result["basis_cache"] = {"hits": cache.hits, "misses": cache.misses}
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(result["wall_s"])
        tracer.write(OUT_DIR / f"{spec['workload']}.spans")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
