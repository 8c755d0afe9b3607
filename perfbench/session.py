"""One long-lived interpreter serving a stream of library calls.

Usage: python3 session.py SPEC.json

SPEC holds the call list, the run length, whether to trace, whether to
stop after set-up, and the path of the JSON result.  Set-up is the import
of the package plus one warm-up pass over the distinct calls.  Then the
call list is replayed in whole rounds until the run length is used up.
Every round's results are compared with the first round's; only the first
round's are written out, for the parent to check.
"""

import json
import sys
import time


def _exact(x):
    man, exp = x.man_exp
    return [str(man), exp]


def _serialize(kind, result):
    if kind == "conrad":
        return result.ok
    if kind in ("smh", "cmh"):
        return [_exact(result.value), _exact(result.error_bound)]
    if kind == "parity_dp":
        return list(result)
    if kind in ("history", "andre"):
        return [{str(k): v for k, v in d.items()} for d in result]
    return [str(c) for c in result.coeffs]


def main(spec_path):
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    t0 = time.perf_counter()
    from fractions import Fraction

    import dixonian.contfrac as contfrac
    import dixonian.functions as functions
    import dixonian.numerics as numerics
    import dixonian.permutations as permutations
    import dixonian.urn as urn

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    # Module attributes are looked up at call time, so installed wrappers
    # see the calls made from here too.
    table = {
        "conrad": lambda kind, fam, depth: contfrac.verify_conrad(kind, fam, depth),
        "smh": lambda num, den, dps: numerics.eval_smh(Fraction(num, den), dps),
        "cmh": lambda num, den, dps: numerics.eval_cmh(Fraction(num, den), dps),
        "parity_dp": lambda n: permutations.parity_class_counts_dp(n),
        "history": lambda p, q, n: urn.history_count_table(urn.M12, p, q, n),
        "andre": lambda k: permutations.andre_polynomials(k),
        "sm_hyp": lambda order: functions.sm_via_hypergeometric(order),
        "P": lambda order: functions.weierstrass_P(order),
    }
    calls = [(table[c[0]], c[1:]) for c in spec["calls"]]
    seen = set()
    for call, (fn, args) in zip(spec["calls"], calls):
        key = json.dumps(call)
        if key not in seen:
            seen.add(key)
            fn(*args)
    setup_s = time.perf_counter() - t0
    out = {"setup_s": setup_s}
    if tracer:
        out["setup_spans"] = tracer.spans
        tracer.spans = []

    if not spec["setup_only"]:
        clock = time.perf_counter
        latencies = []
        round_wall, round_cpu = [], []
        first = None
        changed = 0
        deadline = clock() + spec["seconds"]
        while not round_wall or clock() < deadline:
            results = []
            c0 = time.process_time()
            r0 = clock()
            for fn, args in calls:
                t = clock()
                results.append(fn(*args))
                latencies.append(clock() - t)
            round_wall.append(clock() - r0)
            round_cpu.append(time.process_time() - c0)
            if first is None:
                first = results
            else:
                changed += sum(a != b for a, b in zip(first, results))
        out.update(
            rounds=len(round_wall),
            round_wall_s=round_wall,
            round_cpu_s=round_cpu,
            latencies_s=latencies,
            changed=changed,
            results=[_serialize(c[0], r) for c, r in zip(spec["calls"], first)],
        )
        if tracer:
            out["spans"] = tracer.spans
    with open(spec["out"], "w", encoding="utf-8") as handle:
        json.dump(out, handle)


if __name__ == "__main__":
    main(sys.argv[1])
