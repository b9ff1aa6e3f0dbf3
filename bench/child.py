"""One timed iteration of a benchmark workload, in a fresh interpreter.

Started by ``run.py``; prints one JSON object with the set-up time, the run
time, peak memory, what the correctness gate found, the sha256 of every
output file and, with ``--trace``, the aggregated spans and counters.

    python3 bench/child.py --workload NAME --seed N --out DIR [--trace]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the command outputs")
    parser.add_argument("--trace", action="store_true", help="trace spans at module boundaries")
    args = parser.parse_args()

    start = perf_counter()
    import numpy as np
    import retrosmooth
    from workloads import ROOT, WORKLOADS, combine

    if not Path(retrosmooth.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"retrosmooth imported from {retrosmooth.__file__}, not from this checkout", file=sys.stderr)
        return 2
    commands = WORKLOADS[args.workload]
    scenarios = [command.scenario(args.seed) for command in commands]
    for scenario in scenarios:
        scenario.build()
    setup_s = perf_counter() - start

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    with contextlib.redirect_stdout(io.StringIO()), tracer or contextlib.nullcontext():
        start, cpu = perf_counter(), _cpu_s()
        outputs = [c.run(s, out_dir, args.seed) for c, s in zip(commands, scenarios)]
        run_s, cpu_s = perf_counter() - start, _cpu_s() - cpu
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    outcome = combine([c.check(s, o, out_dir) for c, s, o in zip(commands, scenarios, outputs)])
    result = dict(
        setup_s=setup_s,
        run_s=run_s,
        cpu_s=cpu_s,
        peak_rss_mb=rss_mb,
        attempted=outcome.attempted,
        ok=outcome.ok,
        passed=outcome.passed,
        max_residual=outcome.max_residual,
        detail=outcome.detail,
        sha256={p.name: _sha256(p) for p in sorted(out_dir.iterdir())},
        numpy=np.__version__,
        blas=np.show_config(mode="dicts")["Build Dependencies"]["blas"],
    )
    if tracer is not None:
        result.update(
            spans={name: [tracer.calls[name], tracer.self_s[name]] for name in sorted(tracer.calls)},
            blocks=tracer.blocks,
            zero_blocks=tracer.zero_blocks,
            # square roots of prior blocks taken while smoothing, as opposed to
            # those of smoothed states taken by ``fidelity``
            block_roots=tracer.calls_from["retrodiction.generalized_smooth", "linalg.psd_sqrt"],
            eig_calls=tracer.eig_calls,
            coverage=tracer.traced_seconds() / run_s,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
